"""Workspaces of the hot loops: views that never go stale, and no page faults.

The batched decoders, the enumeration and the bound write their large
temporaries into buffers kept between calls (``latcoset.workspace``).  The
first tests interleave calls of many shapes and check every result against
the same call made alone and against an independent oracle, so a view that
outlived its kernel, or a key shared by two live arrays, shows as a wrong
word, point or value.  The guards count minor page faults per op of
benchmark-shaped op streams, each in a fresh interpreter: before the
workspaces a golden 4-PAM op took 117, 400 and 1079 of them at 64, 128 and
256 trials, and a golden L'1-L'3 bound op a median of 1322 in the
analyze-bound mix below.
"""

import json
import statistics
import subprocess
import sys

import numpy as np
import pytest

import latcoset.decoder as decoder
from latcoset import (CosetCode, IntegerLattice, PAMAlphabet, alamouti_map, builtin_sublattice,
                      enumerate_shorter_than, golden_map)
from latcoset.decoder import exhaustive_words
from latcoset.wiretap import ecdp_bound_reports
from latcoset.workspace import workspace, workspace_bytes

from test_decoder import golden_trials, residual_words


class TestHelper:
    def test_views_share_one_buffer_per_key(self):
        a = workspace("test.a", (3, 4))
        b = workspace("test.a", (2, 5))
        assert a.shape == (3, 4) and b.shape == (2, 5)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert np.shares_memory(a, b)
        assert not np.shares_memory(b, workspace("test.b", (2, 5)))

    def test_dtype_is_part_of_the_key(self):
        f = workspace("test.c", (4,))
        i = workspace("test.c", (4,), np.int64)
        assert f.dtype == np.float64 and i.dtype == np.int64
        assert not np.shares_memory(f, i)

    def test_grows_to_the_largest_request(self):
        before = workspace_bytes()
        workspace("test.d", (1000,))
        assert workspace_bytes() == before + 8000
        workspace("test.d", (10,))
        assert workspace_bytes() == before + 8000
        workspace("test.d", (2000,))
        assert workspace_bytes() == before + 16000


def integer_trials(rng, b, k):
    """Integer channels and half-integer outputs: full of exact ties."""
    return rng.integers(-2, 3, (b, 8, k)).astype(float), rng.integers(-6, 7, (b, 8)) / 2.0


def gaussian_trials(rng, b, k):
    return rng.standard_normal((b, 8, k)), 3 * rng.standard_normal((b, 8))


class TestNoStaleWorkspace:
    def test_interleaved_decodes_match_lone_calls(self, monkeypatch):
        # golden 4-PAM goes to the two-level kernel, golden 2-PAM and k = 4
        # at m = 2, 4 and 6 to the one-product kernel; the integer channels
        # send problems to _recheck and _residual_pick
        rng = np.random.default_rng(28)
        calls = []
        for b in (1, 127, 128, 129, 300):
            calls.append((*golden_trials(rng, b, 0.0), 4))
            if b in (1, 129):  # an oracle call costs ~2 ms a problem here
                calls.append((*integer_trials(rng, b, 8), 4))
            calls.append((*golden_trials(rng, b, 20.0, m=2), 2))
            for m in (2, 4, 6):
                calls.append((*gaussian_trials(rng, b, 4), m))
                calls.append((*integer_trials(rng, b, 4), m))
        ran = {"_recheck": 0, "_residual_pick": 0}
        for name in ran:
            def spy(*args, _real=getattr(decoder, name), _name=name):
                ran[_name] += 1
                return _real(*args)
            monkeypatch.setattr(decoder, name, spy)
        alone = [exhaustive_words(*call) for call in calls]
        assert ran["_recheck"] and ran["_residual_pick"]
        # every call again, in an order that changes shape and kernel each time
        order = rng.permutation(len(calls))
        again = {int(i): exhaustive_words(*calls[i]) for i in order}
        for i, (heff, y, m) in enumerate(calls):
            want = residual_words(heff, y, m)
            assert np.array_equal(alone[i], want)
            assert np.array_equal(again[i], want)

    def test_bound_reports_do_not_depend_on_the_calls_before(self):
        golden = CosetCode(golden_map(), PAMAlphabet(4), builtin_sublattice("L'1"))
        alamouti = CosetCode(alamouti_map(), PAMAlphabet(4), builtin_sublattice("L2"))

        def reports(code, trunc):
            return [(r.value, r.outer_share, r.points_used)
                    for r in ecdp_bound_reports(code, [0.3, 2.0], ["pow2n", "pow2"], trunc)]

        alone = reports(golden, 128.0)
        # wider and narrower enumerations in between, of another code too
        for code, trunc in ((golden, 160.0), (alamouti, 256.0), (golden, 64.0),
                            (golden, 128.0), (golden, 100.0)):
            other = reports(code, trunc)
            assert reports(golden, 128.0) == alone
        assert other != alone

    def test_interleaved_enumerations_match_lone_ones(self):
        lats = [builtin_sublattice("L'1"), IntegerLattice(2 * np.eye(6, dtype=np.int64)),
                builtin_sublattice("L3"), builtin_sublattice("L'3")]
        radii = [96, 40, 200, 80]
        alone = [enumerate_shorter_than(lat, r) for lat, r in zip(lats, radii)]
        for i in (2, 0, 3, 1, 0, 3):
            assert np.array_equal(enumerate_shorter_than(lats[i], radii[i]), alone[i])


try:
    import resource
except ImportError:  # not on this platform
    resource = None

#: runs ops in a fresh interpreter and prints the minor page faults of each
#: op after the first ``warm``: the heap of a long test session (its
#: allocator thresholds raised by earlier tests) would hide what a CLI
#: process or a benchmark worker pays
_COUNT_FAULTS = """
import contextlib, io, json, resource, sys
from latcoset.cli import main
argvs, warm = json.loads(sys.argv[1]), int(sys.argv[2])
counts = []
for n, argv in enumerate(argvs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    if n >= warm:
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(counts))
"""


def faults_per_op(argvs, warm):
    """Minor page faults of each op after the first ``warm``, in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _COUNT_FAULTS, json.dumps(argvs), str(warm)],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


@pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                    reason="counts minor page faults with Linux getrusage")
class TestFaultGuard:
    # a median over each op shape: a rare op that meets a garbage collection
    # or the interpreter's own arenas may fault, a steady stream may not
    BOUND = 10

    def test_golden_stream(self):
        # the ecdp-golden cycle: 64, 128 and 256 trials at 0 and 20 dB
        golden = ["simulate", "--code", "golden", "--pam", "4", "--lattices", "L'2",
                  "--snr", "0,20", "--workers", "1"]
        trials = [(64, 128, 256)[n % 3] for n in range(36)]
        counts = faults_per_op([golden + ["--trials", str(t), "--seed", str(n % 50)]
                                for n, t in enumerate(trials)], warm=9)
        for shape in (64, 128, 256):
            mine = [c for c, t in zip(counts, trials[9:]) if t == shape]
            assert statistics.median(mine) <= self.BOUND, (shape, mine)

    def test_bound_op(self):
        # the analyze-bound cycle; the bound ops are counted
        cycle = [["analyze", "--code", "alamouti", "--lattices", "L1,L2,L3,L4,L5"],
                 ["analyze", "--code", "golden", "--lattices", "L'1,L'2,L'3,M1,M2,M3"]]
        argvs = []
        for sigma in ("0.05", "0.3", "1.0", "2.0") * 3:
            argvs += cycle + [["bound", "--code", "golden", "--lattices", "L'1,L'2,L'3",
                               "--sigma-e-sq", sigma, "--truncation", "128"]]
        counts = faults_per_op(argvs, warm=6)
        bound = counts[2::3]
        assert statistics.median(bound) <= self.BOUND, bound
