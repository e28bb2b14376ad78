"""Output checks for every op, against references captured from the seed commit.

* simulate and analyze: stdout must be byte-identical to the reference
  (sha256), as the determinism contract and the lexicographic ML tie-break
  promise for a fixed seed.
* bound: every row must match; ``points_used`` exactly, the bound within a
  relative 1e-9 (a reordered enumeration may change the last bits of the sum).
* search: bases are not pinned.  The returned lattice is checked through
  public calls: its index in 2Z^k, its well-roundedness and its lambda_1^2
  must agree with the report.  Exit 1 (no WR candidate) is a consistent
  "unsolved", not a failure.

Regenerate the references only from a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/checks.py --capture
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from latcoset import (IntegerLattice, index_in_superlattice, is_well_rounded,
                      successive_minima)
from latcoset.cli import main as cli_main

from workloads import (ANALYZE, SEARCH_BUDGET, SEARCH_FLOOR, SEARCH_INDEX,
                       SEARCH_K, SIGMAS, SIM_SEED_POOL, WORKLOADS, analyze_op,
                       bound_op)

REFS = Path(__file__).resolve().parent / "refs"
BOUND_REL_TOL = 1e-9


def run_cli(argv) -> tuple[object, str, str]:
    """cli.main in process; (exit code or None on exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # the op failed; the loop must go on
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())["entries"]


class Checker:
    """Checks op outputs; loads each reference file on first use."""

    def __init__(self):
        self._refs = {}
        self._two_zk = IntegerLattice(2 * np.eye(SEARCH_K, dtype=np.int64))

    def _ref(self, name: str) -> dict:
        if name not in self._refs:
            self._refs[name] = _load(name)
        return self._refs[name]

    def check(self, workload: str, op, exit_code, stdout: str) -> tuple[bool, dict]:
        """(output ok, extra facts such as whether a search was solved)."""
        if op.command == "search":
            return self._check_search(op, exit_code, stdout)
        if exit_code != 0:
            return False, {}
        if op.command == "simulate":
            return sha256(stdout) == self._ref(workload).get(op.ref_key), {}
        if op.command == "analyze":
            return sha256(stdout) == self._ref("analyze").get(op.ref_key), {}
        return _bound_matches(_bound_rows(stdout), self._ref("bound").get(op.ref_key)), {}

    def _check_search(self, op, exit_code, stdout: str) -> tuple[bool, dict]:
        try:
            data = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False, {}
        if exit_code == 1:
            ok = (data.get("well_rounded") is False and data.get("feasible") == 0
                  and data.get("evaluated") == SEARCH_BUDGET)
            return ok, {"solved": False, "feasible": 0, "evaluated": SEARCH_BUDGET}
        if exit_code != 0:
            return False, {}
        report = data["report"]
        lat = IntegerLattice.from_json(json.dumps(data["lattice"]))
        l1 = successive_minima(lat).lambda1_sq
        ok = (lat.k == SEARCH_K
              and index_in_superlattice(lat, self._two_zk) == SEARCH_INDEX
              and is_well_rounded(lat) == report["well_rounded"]
              and l1 == report["best_lambda1_sq"]
              and report["evaluated"] == SEARCH_BUDGET)
        solved = bool(report["well_rounded"]) and l1 >= SEARCH_FLOOR
        return ok, {"solved": solved, "feasible": report["feasible"],
                    "evaluated": report["evaluated"]}


def _bound_rows(stdout: str) -> list:
    rows = []
    for line in stdout.splitlines()[2:]:
        name, sigma, mode, value, trunc, points = line.split(",")
        rows.append([name, sigma, mode, float(value), trunc, int(points)])
    return rows


def _bound_matches(rows, ref) -> bool:
    if ref is None or len(rows) != len(ref):
        return False
    for got, want in zip(rows, ref):
        if got[:3] != want[:3] or got[4:] != want[4:]:
            return False
        if abs(got[3] - want[3]) > BOUND_REL_TOL * abs(want[3]):
            return False
    return True


# ---------------------------------------------------------------------------
# reference capture
# ---------------------------------------------------------------------------

def _captured(argv) -> str:
    code, out, err = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err}")
    return out


def _simulate_refs(workload: str) -> dict:
    entries = {}
    ops = WORKLOADS[workload].ops(0)
    shapes = {}
    while len(shapes) < 3:  # one template op per trials shape
        op = next(ops)
        shapes.setdefault(op.ref_key.split("/")[0], op)
    for trials, op in sorted(shapes.items(), key=lambda kv: int(kv[0])):
        for sim_seed in range(SIM_SEED_POOL):
            argv = list(op.argv)
            argv[argv.index("--seed") + 1] = str(sim_seed)
            entries[f"{trials}/{sim_seed}"] = sha256(_captured(argv))
    return entries


def capture():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    files = {
        "ecdp-alamouti": _simulate_refs("ecdp-alamouti"),
        "ecdp-golden": _simulate_refs("ecdp-golden"),
        "analyze": {code: sha256(_captured(analyze_op(code).argv)) for code in ANALYZE},
        "bound": {s: _bound_rows(_captured(bound_op(s).argv)) for s in SIGMAS},
    }
    REFS.mkdir(exist_ok=True)
    for name, entries in files.items():
        (REFS / f"{name}.json").write_text(json.dumps(
            {"captured_from": commit, "entries": entries}, indent=1) + "\n")
        print(f"{name}: {len(entries)} references", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/checks.py --capture")
    capture()
