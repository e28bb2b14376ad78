"""The benchmark's reference outputs, checked in the test suite.

Replays benchmark ops through the harness's own ``checks.run_cli`` and
``checks.Checker`` against the references in ``perfbench/refs``: the first
12 ops of each ecdp workload's seed-0 stream, both analyze ops and 4 of the
bound sigmas.  A change that moves an output the benchmark pins fails here,
not only in a benchmark run.  The ecdp-golden ops ask for 2 workers but hold
at most 1024 trials in all, so they run in process.
"""

from itertools import islice
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The harness's ``checks`` and ``workloads`` modules, imported from perfbench/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import checks
        import workloads
        yield checks, workloads


def failures(checks, workload, ops) -> list:
    """(argv, exit code, stderr) of each op whose output fails its check."""
    checker = checks.Checker()
    bad = []
    for op in ops:
        code, out, err = checks.run_cli(op.argv)
        if not checker.check(workload, op, code, out)[0]:
            bad.append((" ".join(op.argv), code, err))
    return bad


@pytest.mark.parametrize("workload", ["ecdp-alamouti", "ecdp-golden"])
def test_simulate_ops_match_the_references(bench, workload):
    checks, workloads = bench
    ops = list(islice(workloads.WORKLOADS[workload].ops(0), 12))
    assert failures(checks, workload, ops) == []


def test_analyze_ops_match_the_references(bench):
    checks, workloads = bench
    ops = [workloads.analyze_op(code) for code in workloads.ANALYZE]
    assert len(ops) == 2
    assert failures(checks, "analyze-bound", ops) == []


def test_bound_ops_match_the_references(bench):
    checks, workloads = bench
    ops = [workloads.bound_op(sigma) for sigma in workloads.SIGMAS[::4]]
    assert len(ops) == 4
    assert failures(checks, "analyze-bound", ops) == []
