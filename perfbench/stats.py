"""Benchmark arithmetic: percentiles, span self time, pool scaling, op outcomes.

Pure functions over plain numbers; nothing here imports latcoset, so the
rules can be tested on their own (see ``selftest.py``).
"""

from __future__ import annotations

import math

#: a tail percentile is only reported with at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: seconds the reference kernel (worker.ref_kernel) takes at the nominal host
#: speed; fixed for good, since every reported time is scaled to it
REF_NOMINAL_S = 0.003


def host_adjusted(seconds: float, ref_seconds: float) -> float:
    """A measured time scaled to the nominal host speed.

    ``ref_seconds`` is what the fixed reference kernel took at the same
    moment.  On a shared virtual machine the host's speed swings by up to
    1.6x over seconds to minutes; the kernel swings with it, so the ratio
    cancels most of that swing while any change to latcoset's own speed
    passes through unchanged.
    """
    if seconds < 0 or ref_seconds <= 0:
        raise ValueError("times must be nonnegative and the reference positive")
    return seconds * REF_NOMINAL_S / ref_seconds


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail_percentile(n: int) -> int:
    """Highest whole percentile in 50..99 with at least TAIL_MIN_BEYOND samples beyond it.

    Falls back to 50 (the median alone) when even p50 has too few samples
    beyond it, i.e. when there are too few ops for a tail.
    """
    for p in range(99, 49, -1):
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return 50


def op_tail(latencies) -> dict:
    """The tail latency, which percentile it is, and the counts it rests on."""
    n = len(latencies)
    p = tail_percentile(n)
    return {"percentile": p, "value": percentile(latencies, p), "ops": n,
            "beyond": beyond(n, p)}


def cycle_throughput(units, latencies, cycle: int) -> float:
    """Work units per second of a median op cycle.

    Op i has shape i % cycle.  The sum of the units of one cycle is divided
    by the sum of each shape's median latency, so a few ops slowed by
    other load on the machine do not move the figure, while a change that
    slows most ops of any shape does.
    """
    if not latencies or len(units) != len(latencies) or len(latencies) % cycle:
        raise ValueError("need whole cycles of ops")
    per_shape = range(cycle)
    cycle_units = sum(units[s] for s in per_shape)
    cycle_time = sum(percentile(latencies[s::cycle], 50) for s in per_shape)
    return cycle_units / cycle_time


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(start, end, child_intervals)


def scaling_eff(t_serial: float, t_parallel: float, workers: int) -> float:
    """Parallel efficiency: speed-up over the serial run divided by the worker count.

    1.0 is perfect scaling; below 1/workers the pool is slower than one process.
    """
    if t_serial <= 0 or t_parallel <= 0 or workers < 1:
        raise ValueError("times must be positive and workers >= 1")
    return t_serial / (workers * t_parallel)


def classify(command: str, exit_code, output_ok: bool) -> str:
    """Outcome of one op: "ok", "unsolved" or "failed".

    ``search`` exits 1 when no well-rounded candidate turned up within the
    budget; that is an answer about search quality, not a failure, as long
    as the reported result is consistent.  Every other nonzero exit, an
    exception (``exit_code`` None) or a failed output check is a failure.
    """
    if exit_code == 0:
        return "ok" if output_ok else "failed"
    if command == "search" and exit_code == 1 and output_ok:
        return "unsolved"
    return "failed"


def fail_ratio(outcomes) -> float:
    """Failed ops over attempted ops; unsolved searches count as attempted, not failed."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no ops attempted")
    return sum(o == "failed" for o in outcomes) / len(outcomes)
