"""The four benchmark workloads as seeded streams of CLI invocations.

An op is one ``latcoset`` CLI invocation.  Each workload cycles through a
fixed list of op shapes (so every seed runs the same mix, and the median
and the tail each fall inside one shape), and draws the inputs of every
op -- simulation seeds, search seeds, noise levels -- from ``--seed``.
Simulation seeds come from a fixed pool so that every op has a reference
output captured from the seed commit (see ``checks.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count

#: simulation seeds per ecdp workload; references exist for each (trials, seed)
SIM_SEED_POOL = 50

ALAMOUTI = {"code": "alamouti", "lattices": ("L1", "L2", "L3"),
            "snr": "-5:5:2.5", "snr_points": (-5.0, -2.5, 0.0, 2.5, 5.0),
            "trials": (64, 128, 256), "workers": 1}
GOLDEN = {"code": "golden", "lattices": ("L'2",), "snr": "0,20",
          "snr_points": (0.0, 20.0), "trials": (64, 128, 256), "workers": 2}

SEARCH_K = 4
SEARCH_INDEX = 32
SEARCH_BUDGET = 400
#: lambda_1^2 a search op must reach to count as solved at index 32
SEARCH_FLOOR = 24
#: op shapes of search-wr: about a quarter of the ops hill-climb
SEARCH_CYCLE = (False, False, False, True)

ANALYZE = {"alamouti": ("L1", "L2", "L3", "L4", "L5"),
           "golden": ("L'1", "L'2", "L'3", "M1", "M2", "M3")}
BOUND_LATTICES = ("L'1", "L'2", "L'3")
#: about 1.3e5 to 1.6e5 enumerated points per golden lattice
BOUND_TRUNCATION = "128"
BOUND_MODES = ("pow2n", "pow2")
SIGMAS = ("0.05", "0.08", "0.1", "0.125", "0.16", "0.2", "0.25", "0.3",
          "0.4", "0.5", "0.6", "0.8", "1.0", "1.25", "1.6", "2.0")


@dataclass(frozen=True)
class Op:
    command: str
    argv: tuple
    units: int          # work units of the workload's throughput
    ref_key: str = ""   # reference entry for the output check


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str           # what one throughput unit is
    workers: int        # process-pool workers the ops ask for (1 = in process)
    cycle: int          # op shapes the stream cycles through

    def ops(self, seed: int):
        """Endless op stream, starting with the smallest op shape."""
        return _STREAMS[self.name](random.Random(seed))


def _simulate_ops(spec: dict, rng: random.Random):
    lattices = ",".join(spec["lattices"])
    per_trial = len(spec["snr_points"]) * len(spec["lattices"])
    for i in count():
        trials = spec["trials"][i % len(spec["trials"])]
        sim_seed = rng.randrange(SIM_SEED_POOL)
        argv = ("simulate", "--code", spec["code"], "--pam", "4",
                "--lattices", lattices, f"--snr={spec['snr']}",
                "--workers", str(spec["workers"]), "--trials", str(trials),
                "--seed", str(sim_seed))
        yield Op("simulate", argv, trials * per_trial, f"{trials}/{sim_seed}")


def _search_ops(rng: random.Random):
    for i in count():
        argv = ["search", "--k", str(SEARCH_K), "--index", str(SEARCH_INDEX),
                "--budget", str(SEARCH_BUDGET), "--seed", str(rng.randrange(2 ** 31))]
        if SEARCH_CYCLE[i % len(SEARCH_CYCLE)]:
            argv.append("--hill-climb")
        yield Op("search", tuple(argv), SEARCH_BUDGET)


def analyze_op(code: str) -> Op:
    argv = ("analyze", "--code", code, "--lattices", ",".join(ANALYZE[code]))
    return Op("analyze", argv, len(ANALYZE[code]), code)


def bound_op(sigma: str) -> Op:
    argv = ("bound", "--code", "golden", "--lattices", ",".join(BOUND_LATTICES),
            "--sigma-e-sq", sigma, "--truncation", BOUND_TRUNCATION)
    return Op("bound", argv, len(BOUND_LATTICES) * len(BOUND_MODES), sigma)


def _analyze_bound_ops(rng: random.Random):
    while True:
        yield analyze_op("alamouti")
        yield analyze_op("golden")
        yield bound_op(SIGMAS[rng.randrange(len(SIGMAS))])


_STREAMS = {
    "ecdp-alamouti": lambda rng: _simulate_ops(ALAMOUTI, rng),
    "ecdp-golden": lambda rng: _simulate_ops(GOLDEN, rng),
    "search-wr": _search_ops,
    "analyze-bound": _analyze_bound_ops,
}

#: why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("ecdp-alamouti", "trials", ALAMOUTI["workers"], len(ALAMOUTI["trials"])),
    Workload("ecdp-golden", "trials", GOLDEN["workers"], len(GOLDEN["trials"])),
    Workload("search-wr", "candidates", 1, len(SEARCH_CYCLE)),
    Workload("analyze-bound", "rows", 1, 3),
)}
