"""latcoset benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics (throughput, op_p50_ms, op_tail_ms, setup_s, peak_rss_mb);
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last stdout line is the result object; the line before it records the
environment and the bases of the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import host_adjusted  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh processes timed for setup_s; the median is reported
SETUP_RUNS = 7
#: BLAS threads per process; with at most two busy processes this stays within 2 cores
BLAS_THREADS = 1
#: the whole run, every child process included, must end within this many seconds
DEADLINE_S = 170

END_TO_END_UNITS = {"throughput": "units/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


_START = time.monotonic()


def run_child(cmd, env) -> str:
    """Run one child to completion; its stdout, or exit with its stderr."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(_START + DEADLINE_S - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        sys.exit(f"benchmark child ran past the {DEADLINE_S} s deadline: {cmd[1:3]}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"benchmark child exited with {proc.returncode}")
    return proc.stdout


def measure_setup(args, env) -> list[tuple[float, float]]:
    """(wall s, reference kernel s) of fresh processes that import latcoset
    and finish the warm-up op; the kernel runs in the child right after."""
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        out = run_child(worker_cmd(args, "--setup-only"), env)
        samples.append((time.perf_counter() - t0, json.loads(out)["ref_s"]))
    return samples


def environment(env, workload) -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'blas': b.get('name', '?') + ' ' + str(b.get('version', '?'))}))")
    info = json.loads(run_child([sys.executable, "-c", probe], env))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "blas_threads": BLAS_THREADS,
        "pool_workers": WORKLOADS[workload].workers,
        "commit": git_commit(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "latcoset" / "cli.py").is_file():
        sys.exit(f"no latcoset sources under {ROOT / 'src'}; run from a checkout")
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")

    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "unit_of_throughput": WORKLOADS[args.workload].unit,
              "env": environment(env, args.workload)}
    setup = measure_setup(args, env) if args.trace == 0 else []
    res = json.loads(run_child(worker_cmd(args), env).splitlines()[-1])
    metrics = dict(res["metrics"])
    units = res.get("units", END_TO_END_UNITS)
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(host_adjusted(w, r) for w, r in setup)
        record["setup_runs"] = [{"wall_s": w, "ref_kernel_s": r} for w, r in setup]
    record.update(detail=res["detail"], outcomes=res["outcomes"])

    outcomes = res["outcomes"]
    attempted = sum(outcomes.values())
    failed = outcomes["failed"]
    record["fail_ratio"] = failed / attempted
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
