"""One workload in one process: a closed loop of CLI invocations.

One client, one op at a time: the next op starts when the previous one
has returned.  Between ops a fixed reference kernel measures the host's
momentary speed; each op's latency is scaled by the mean of the kernel
times on either side of it (see ``stats.host_adjusted``).  A warm-up op runs first, untimed; it is op 0 of the seed-0
stream, the same for every seed, so set-up time does not depend on the
seed.  Outputs are kept and checked after the loop, once peak memory has
been read, so the checks neither slow the loop nor count in its memory.
Prints one JSON line.

Started by ``run.py``, which pins the BLAS threads and points PYTHONPATH
at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import latcoset
import numpy as np

import probes
from checks import Checker, run_cli
from spans import Tracer
from stats import (REF_NOMINAL_S, classify, cycle_throughput, host_adjusted,
                   op_tail, percentile)
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Done:
    op: Op
    latency: float   # seconds in cli.main
    exit_code: object
    stdout: str
    stderr: str
    ref: float = 0.0  # reference kernel seconds around the op

    @property
    def adjusted(self) -> float:
        return host_adjusted(self.latency, self.ref)


def ref_kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    The same kind of work as latcoset's (Python loops over integers and
    many small numpy calls); it never touches latcoset, so a change to the
    program cannot change it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def run_op(op: Op, tr=None, op_id=None) -> Done:
    """One CLI invocation; traced, it also replays the job through the API."""
    if tr is None:
        t0 = time.perf_counter()
        code, out, err = run_cli(op.argv)
        return Done(op, time.perf_counter() - t0, code, out, err)
    with tr.span("op", op=op_id, command=op.command):
        t0 = time.perf_counter()
        with tr.span("cli.main"):
            code, out, err = run_cli(op.argv)
        dt = time.perf_counter() - t0
        probes.probe(tr, op, probes.api(tr, op))
    return Done(op, dt, code, out, err)


def closed_loop(ops, seconds: float, cycle: int, tr=None) -> list[Done]:
    """Ops back to back for ``seconds``, then on to the end of the op cycle.

    Stopping on a whole cycle keeps the mix of op shapes the same in every
    run.  With a tracer, every second cycle is traced, so the traced and
    untraced ops see the same state of the machine.
    """
    done = []
    whole = cycle if tr is None else 2 * cycle
    ref_before = ref_kernel()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(done) % whole:
        traced = tr is not None and (len(done) // cycle) % 2 == 1
        d = run_op(next(ops), tr if traced else None, len(done))
        ref_after = ref_kernel()
        d.ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        done.append(d)
    return done


def check_all(workload: str, done: list[Done]) -> dict:
    """Outcome counts, and how many searches reached the lambda_1^2 floor."""
    checker = Checker()
    outcomes = {"ok": 0, "unsolved": 0, "failed": 0}
    solved = searches = 0
    for d in done:
        ok, facts = checker.check(workload, d.op, d.exit_code, d.stdout)
        outcome = classify(d.op.command, d.exit_code, ok)
        outcomes[outcome] += 1
        if "solved" in facts:
            searches += 1
            solved += facts["solved"]
        if outcome == "failed":
            print(f"failed op {' '.join(d.op.argv)} (exit {d.exit_code}): "
                  f"{d.stderr.strip()[:400]}", file=sys.stderr)
    return {"outcomes": outcomes, "search_solved": {"solved": solved, "searches": searches}}


def throughput(done: list[Done], cycle: int, adjusted: bool = True) -> float:
    lat = [d.adjusted if adjusted else d.latency for d in done]
    return cycle_throughput([d.op.units for d in done], lat, cycle)


def end_to_end(done: list[Done], cycle: int) -> tuple[dict, dict]:
    """Host-adjusted timings and peak memory; the raw timings go in the detail."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def timings(lat, adjusted):
        tail = op_tail(lat)
        return {"throughput": throughput(done, cycle, adjusted),
                "op_p50_ms": 1e3 * percentile(lat, 50),
                "op_tail_ms": 1e3 * tail["value"]}, tail

    metrics, tail = timings([d.adjusted for d in done], True)
    metrics["peak_rss_mb"] = max(self_kb, child_kb) / 1024.0
    detail = {"op_tail": {"percentile": tail["percentile"], "ops": tail["ops"],
                          "beyond": tail["beyond"]},
              "raw": timings([d.latency for d in done], False)[0],
              "ref_kernel_ms": {"median": 1e3 * percentile([d.ref for d in done], 50),
                                "nominal": 1e3 * REF_NOMINAL_S},
              "units": sum(d.op.units for d in done),
              "busy_s": sum(d.latency for d in done),
              "peak_rss_mb": {"self": self_kb / 1024.0, "pool_children": child_kb / 1024.0}}
    return metrics, detail


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if Path(latcoset.__file__).resolve().parent != ROOT / "src" / "latcoset":
        raise SystemExit(f"latcoset imported from {latcoset.__file__}, not this checkout")

    workload = WORKLOADS[args.workload]
    warmup = run_op(next(workload.ops(0)))  # caches fill here
    if args.setup_only:
        print(json.dumps({"ref_s": percentile([ref_kernel() for _ in range(5)], 50)}))
        return
    ops = workload.ops(args.seed)

    result = {"workload": args.workload}
    if args.trace == 0:
        done = closed_loop(ops, args.seconds, workload.cycle)
        result["metrics"], result["detail"] = end_to_end(done, workload.cycle)
    else:
        tr = Tracer()
        done = closed_loop(ops, args.seconds, workload.cycle, tr)
        untraced = [d for i, d in enumerate(done) if (i // workload.cycle) % 2 == 0]
        traced = [d for i, d in enumerate(done) if (i // workload.cycle) % 2 == 1]
        probes.aux(tr, args.workload, args.seed)
        probes.calibrate(tr, args.seed)
        spans = tr.with_self_times()
        metrics, bases = probes.layer_metrics(spans, throughput(untraced, workload.cycle),
                                              throughput(traced, workload.cycle))
        result["metrics"] = {k: v for k, (v, _) in metrics.items()}
        result["units"] = {k: u for k, (_, u) in metrics.items()}
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tr.write(out)
        result["detail"] = {"bases": bases, "traced_ops": len(traced),
                            "untraced_ops": len(untraced),
                            "spans_file": str(out.relative_to(ROOT))}
    checked = check_all(args.workload, [warmup] + done)
    result["outcomes"] = checked["outcomes"]
    if checked["search_solved"]["searches"]:
        result["detail"]["search_solved"] = checked["search_solved"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
