"""The benchmark's reference outputs, checked in the test suite.

Replays benchmark ops through the harness's own ``checks.run_cli`` and
``checks.Checker`` against the references in ``perfbench/refs``: the first
12 ops of each ecdp workload's seed-0 stream, both analyze ops, 4 of the
bound sigmas and the first 8 search ops.  A change that moves an output the
benchmark pins fails here, not only in a benchmark run.  The ecdp-golden ops
ask for 2 workers but hold at most 1024 trials in all, so they run in
process.  The harness's own self-test runs here too, in a subprocess.
"""

import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_search_ops_pass_their_checks(bench):
    # search outputs are not pinned; each must be a lattice of the index
    # whose report its well-roundedness and lambda_1^2 agree with
    checks, workloads = bench
    ops = list(islice(workloads.WORKLOADS["search-wr"].ops(0), 8))
    assert sum("--hill-climb" in op.argv for op in ops) == 2
    assert failures(checks, "search-wr", ops) == []


def test_harness_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(PERFBENCH / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
