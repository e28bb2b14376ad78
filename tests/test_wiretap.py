import concurrent.futures
import itertools
import math
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latcoset import (CosetCode, IntegerLattice, NotASublattice, PAMAlphabet,
                      RankDeficientChannel, STCodeMap, alamouti_map,
                      bob_cer_monte_carlo, builtin_sublattice, design_report,
                      ecdp_bound, ecdp_bound_report, ecdp_bound_reports,
                      ecdp_monte_carlo, golden_map, message_of, rates,
                      wilson_interval)
import latcoset.decoder as decoder
import latcoset.lattice as lattice
import latcoset.stcode as stcode
import latcoset.wiretap as wiretap
from latcoset.channel import _real_expand, snr_to_sigma
from latcoset.cli import main as cli_main
from latcoset.search import random_sublattice_with_index
from latcoset.wiretap import simulate_curves


def brute_force_terms(code, trunc, sigma, mode, n_r):
    """(||x||^2, term of the bound) of every point within ``trunc``, both signs."""
    pts = lattice.enumerate_shorter_than(code.sub, trunc)
    norms = np.sum(pts * pts, axis=1).astype(float)
    cw = stcode.codeword_matrices(pts @ code.map.M.T, 2, 2)
    det_sq = np.abs(cw[:, 0, 0] * cw[:, 1, 1] - cw[:, 0, 1] * cw[:, 1, 0]) ** 2
    gamma = sigma ** -2 if mode == "pow2n" else 1.0 / sigma
    return norms, (1.0 + gamma * norms + gamma ** 2 * det_sq) ** -(n_r + 2)


def brute_force_bound(code, trunc, sigma, mode, n_r):
    """The bound summed over every point within ``trunc``, both signs."""
    return float(np.sum(brute_force_terms(code, trunc, sigma, mode, n_r)[1]))


def coset(map_name, lattice_name, m):
    cm = alamouti_map() if map_name == "alamouti" else golden_map()
    return CosetCode(map=cm, alphabet=PAMAlphabet(m),
                     sub=builtin_sublattice(lattice_name))


class TestCosetCode:
    def test_even_entries_enforced(self):
        with pytest.raises(NotASublattice):
            CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4),
                      sub=IntegerLattice(np.diag([2, 2, 2, 3])))

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4),
                      sub=builtin_sublattice("L'1"))

    def test_index(self):
        assert coset("alamouti", "L2", 4).index == 32
        assert coset("golden", "M2", 8).index == 2 ** 14


class TestRates:
    def test_alamouti_l2_16qam(self):
        r = rates(coset("alamouti", "L2", 4))
        assert (r.r, r.r_i, r.r_c) == pytest.approx((4.0, 2.5, 1.5))
        assert r.r == pytest.approx(r.r_i + r.r_c, abs=1e-9)

    def test_golden_m3_100qam(self):
        r = rates(coset("golden", "M3", 10))
        assert round(r.r, 2) == 13.29
        assert round(r.r_i, 2) == 8.33
        assert r.r_c == pytest.approx(r.r - r.r_i, abs=1e-12)
        assert abs(r.r_c - 4.96) <= 0.01  # nominal value subtracts rounded r, r_i

    def test_trivial_sublattice(self):
        full = CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4),
                         sub=IntegerLattice(2 * np.eye(4, dtype=np.int64)))
        r = rates(full)
        assert r.index == 1
        assert r.r_i == 0.0
        assert r.r_c == pytest.approx(r.r)


class TestMessageOf:
    def test_same_word_same_label(self):
        c = coset("alamouti", "L2", 4)
        z = np.array([1, -3, 3, -1])
        assert message_of(c, z) == message_of(c, z)

    def test_sublattice_shift_same_label(self):
        c = coset("alamouti", "L1", 10)
        z = np.array([1, 1, 1, 1])
        shifted = z + c.sub.B[:, 0]  # +(8,0,0,0): stays on the 10-PAM grid
        assert message_of(c, shifted) == message_of(c, z)

    def test_l2_16qam_class_histogram(self):
        # brute-force class count: 32 labels with multiplicities 6/8/10
        # (8, 16 and 8 labels respectively); the grid is not a full period
        # of the label map since the largest invariant factor is 16
        c = coset("alamouti", "L2", 4)
        counts = Counter(message_of(c, np.array(w))
                         for w in itertools.product([-3, -1, 1, 3], repeat=4))
        assert len(counts) == 32
        assert Counter(counts.values()) == Counter({8: 16, 6: 8, 10: 8})

    def test_l1_l3_16qam_uniform(self):
        for name in ["L1", "L3"]:
            c = coset("alamouti", name, 4)
            counts = Counter(message_of(c, np.array(w))
                             for w in itertools.product([-3, -1, 1, 3], repeat=4))
            assert len(counts) == 32
            assert set(counts.values()) == {8}

    def test_invalid_symbols_rejected(self):
        c = coset("alamouti", "L2", 4)
        with pytest.raises(ValueError):
            message_of(c, np.array([2, 1, 1, 1]))  # even
        with pytest.raises(ValueError):
            message_of(c, np.array([5, 1, 1, 1]))  # out of range
        for z in ([1.5, 1, 1, 1], [1, 1, 1, 3.25], [np.nan, 1, 1, 1]):  # off the grid
            with pytest.raises(ValueError):
                message_of(c, np.array(z))
        assert message_of(c, np.array([3.0, 1, 1, -1])) == message_of(c, np.array([3, 1, 1, -1]))


class TestWilson:
    def test_brackets_estimate(self):
        lo, hi = wilson_interval(40, 100)
        assert lo < 0.4 < hi

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1
        lo, hi = wilson_interval(1024, 1024)
        assert lo <= 1.0 <= hi

    @pytest.mark.parametrize("successes,trials", [(5, 3), (-1, 10), (2.5, 10), (True, 10),
                                                  (np.float64(3), 10)])
    def test_invalid_successes_rejected(self, successes, trials):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(successes, trials)

    def test_known_value(self):
        assert wilson_interval(np.int64(10), 100) == wilson_interval(10, 100)
        lo, hi = wilson_interval(10, 100)
        assert lo == pytest.approx(0.0552, abs=2e-4)
        assert hi == pytest.approx(0.1744, abs=2e-4)


GOLDEN_SNRS = [-10.0, 0.0, 20.0]


@lru_cache(maxsize=None)
def golden_sphere_curve():
    """Golden 4-PAM L'2 through the per-trial sphere decoder, one process."""
    return ecdp_monte_carlo(coset("golden", "L'2", 4), GOLDEN_SNRS, 1100, seed=21,
                            decoder="sphere")


class TestMonteCarlo:
    def test_high_snr_estimate_one(self):
        c = coset("alamouti", "L2", 4)
        p = ecdp_monte_carlo(c, [40.0], 2000, seed=1).points[0]
        assert p.ci_low <= 1.0 <= p.ci_high
        assert p.estimate > 0.999

    def test_deterministic(self):
        c = coset("alamouti", "L2", 4)
        c1 = ecdp_monte_carlo(c, [0.0, 10.0], 3000, seed=5)
        c2 = ecdp_monte_carlo(c, [0.0, 10.0], 3000, seed=5)
        assert c1 == c2

    def test_worker_count_invariance(self):
        c = coset("alamouti", "L2", 4)
        c1 = ecdp_monte_carlo(c, [5.0], 3000, seed=6, workers=1)
        c2 = ecdp_monte_carlo(c, [5.0], 3000, seed=6, workers=2)
        assert c1 == c2

    def test_strategy_equivalence(self):
        c = coset("alamouti", "L2", 4)
        e = ecdp_monte_carlo(c, [0.0], 512, seed=3, decoder="exhaustive")
        s = ecdp_monte_carlo(c, [0.0], 512, seed=3, decoder="sphere")
        assert e == s

    def test_rank_deficient_sphere_trials_decode_exhaustively(self, monkeypatch):
        def rank_deficient(problem):
            raise RankDeficientChannel("forced")

        monkeypatch.setattr("latcoset.decoder.sphere_decode", rank_deficient)
        c = coset("alamouti", "L2", 4)
        snrs = [-5.0, 5.0, 15.0]
        s = ecdp_monte_carlo(c, snrs, 700, seed=13, decoder="sphere")
        e = ecdp_monte_carlo(c, snrs, 700, seed=13, decoder="exhaustive")
        assert s == e

    def test_floor_lower_bound_invariant(self):
        c = coset("alamouti", "L2", 4)
        for p in ecdp_monte_carlo(c, [-20.0, 0.0, 20.0], 4000, seed=8).points:
            hw = (p.ci_high - p.ci_low) / 2
            assert p.estimate >= 1 / 32 - 3 * hw

    def test_monotone_in_snr_up_to_ci(self):
        c = coset("alamouti", "L2", 4)
        pts = ecdp_monte_carlo(c, [-10.0, 0.0, 10.0, 20.0], 4000, seed=9).points
        for a, b in zip(pts, pts[1:]):
            assert b.estimate >= a.estimate - (a.ci_high - a.ci_low)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ecdp_monte_carlo(coset("alamouti", "L2", 4), [0.0], 0, seed=1)

    def test_receive_antennas_validated(self):
        with pytest.raises(ValueError):
            simulate_curves(alamouti_map(), PAMAlphabet(4), [], [0.0], 10, 1, n_r=0)

    @pytest.mark.parametrize("n_r", [2.5, True, 2.0])
    def test_receive_antennas_must_be_integers(self, n_r):
        with pytest.raises(ValueError, match="n_r must be an integer >= 1"):
            simulate_curves(alamouti_map(), PAMAlphabet(4), [], [0.0], 10, 1, n_r=n_r)
        with pytest.raises(ValueError, match="n_r must be an integer >= 1"):
            ecdp_monte_carlo(coset("alamouti", "L2", 4), [0.0], 10, seed=1, n_r=n_r)

    def test_bob_cer_limits_and_pairing(self):
        cm, alpha = alamouti_map(), PAMAlphabet(4)
        cer = bob_cer_monte_carlo(cm, alpha, [0.0, 30.0], 3000, seed=12)
        assert cer.points[1].estimate < 0.01  # high SNR: errors vanish
        # message error <= codeword error pathwise for the shared seed
        for name in ["L1", "L2"]:
            c = coset("alamouti", name, 4)
            ecdp = ecdp_monte_carlo(c, [0.0, 30.0], 3000, seed=12)
            for pe, pc in zip(ecdp.points, cer.points):
                assert 1 - pe.estimate <= pc.estimate + 1e-12

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pass_matches_each_curve(self, workers):
        cm, alpha = alamouti_map(), PAMAlphabet(4)
        codes = [coset("alamouti", name, 4) for name in ["L1", "L2", "L3"]]
        snrs = [0.0, 10.0]
        cer, ecdps = simulate_curves(cm, alpha, codes, snrs, 1500, 4, workers=workers)
        assert cer.points == bob_cer_monte_carlo(cm, alpha, snrs, 1500, 4,
                                                 workers=workers).points
        assert len(ecdps) == len(codes)
        for code, curve in zip(codes, ecdps):
            assert curve.points == ecdp_monte_carlo(code, snrs, 1500, 4,
                                                    workers=workers).points

    @pytest.mark.parametrize("decoder_name,workers",
                             [("auto", 1), ("auto", 2), ("sphere", 2)])
    def test_golden_two_level_matches_sphere(self, decoder_name, workers):
        # 1100 trials: two chunks per point, the second of 76 trials
        got = ecdp_monte_carlo(coset("golden", "L'2", 4), GOLDEN_SNRS, 1100, seed=21,
                               workers=workers, decoder=decoder_name)
        assert got == golden_sphere_curve()

    @pytest.mark.parametrize("m", [10, 30])
    def test_alamouti_two_level_matches_sphere(self, m):
        # 10^4 and 8.1 * 10^5 words: auto decodes both by per-coordinate slicing,
        # the orthogonal-design route of the exhaustive strategy
        c = coset("alamouti", "L2", m)
        snrs = [-10.0, 0.0, 20.0]
        auto = simulate_curves(c.map, c.alphabet, [c], snrs, 150, seed=29)
        assert simulate_curves(c.map, c.alphabet, [c], snrs, 150, seed=29,
                               decoder="sphere") == auto

    def test_golden_one_receive_antenna_decodes_with_either_strategy(self):
        # Heff has 4 rows for 8 coefficients: the sphere strategy falls back per trial
        c = coset("golden", "L'2", 4)
        auto = ecdp_monte_carlo(c, [0.0], 40, seed=23, n_r=1)
        assert ecdp_monte_carlo(c, [0.0], 40, seed=23, n_r=1, decoder="sphere") == auto

    def test_golden_auto_never_builds_the_full_codebook(self, monkeypatch):
        # the two-level kernel holds only the half codebooks and their features
        codebook, features = decoder.codebook, decoder._codebook_features
        built = set()

        def no_full_codebook(m, k):
            if (m, k) == (4, 8):
                raise AssertionError("codebook(4, 8) was built")
            return codebook(m, k)

        def half_features(m, k):
            if (m, k) == (4, 8):
                raise AssertionError("the features of codebook(4, 8) were built")
            built.add((m, k))
            return features(m, k)

        monkeypatch.setattr(decoder, "codebook", no_full_codebook)
        monkeypatch.setattr(decoder, "_codebook_features", half_features)
        curve = ecdp_monte_carlo(coset("golden", "L'2", 4), [0.0], 300, seed=22)
        assert curve.points[0].trials == 300
        assert built == {(4, 4)}

    def test_alamouti_30_pam_never_builds_the_full_codebook(self, monkeypatch):
        # the slicer decides per coordinate and holds no codebook at all
        codebook, features = decoder.codebook, decoder._codebook_features

        def no_full_codebook(m, k):
            if (m, k) == (30, 4):
                raise AssertionError("codebook(30, 4) was built")
            return codebook(m, k)

        def no_full_features(m, k):
            if (m, k) == (30, 4):
                raise AssertionError("the features of codebook(30, 4) were built")
            return features(m, k)

        monkeypatch.setattr(decoder, "codebook", no_full_codebook)
        monkeypatch.setattr(decoder, "_codebook_features", no_full_features)
        for name in ("auto", "exhaustive"):
            curve = ecdp_monte_carlo(coset("alamouti", "L2", 30), [0.0, 30.0], 300, seed=24,
                                     decoder=name)
            assert [p.trials for p in curve.points] == [300, 300]

    def test_alamouti_32_pam_auto_slices(self, monkeypatch, capsys):
        # 32^4 = 1 048 576 words, past the exhaustive cap: auto slices the
        # orthogonal design all the same, with the recursion's decisions
        c = coset("alamouti", "L2", 32)
        calls = []
        real = decoder.sphere_decode
        monkeypatch.setattr(decoder, "sphere_decode", lambda p: calls.append(p) or real(p))
        auto = ecdp_monte_carlo(c, [0.0, 20.0], 64, seed=1)
        assert calls == []
        assert ecdp_monte_carlo(c, [0.0, 20.0], 64, seed=1, decoder="sphere") == auto
        assert len(calls) == 128
        argv = ["simulate", "--code", "alamouti", "--pam", "32", "--lattices", "L2",
                "--snr", "0", "--trials", "1", "--decoder", "exhaustive"]
        assert cli_main(argv) == 2 and "cap" in capsys.readouterr().err

    def test_setup_is_built_once_per_sublattice(self, monkeypatch):
        smiths, built = [], []
        smith, post_init = lattice.smith_normal_form, IntegerLattice.__post_init__

        def counted_smith(mat):
            smiths.append(mat)
            return smith(mat)

        def counted_post_init(lat):
            built.append(lat)
            post_init(lat)

        # fresh lattices: the catalog's own objects keep their cache across tests
        subs = [IntegerLattice(builtin_sublattice(name).B) for name in ("L1", "L2", "L5")]
        monkeypatch.setattr(lattice, "smith_normal_form", counted_smith)
        monkeypatch.setattr(IntegerLattice, "__post_init__", counted_post_init)
        cm, alpha = alamouti_map(), PAMAlphabet(4)

        def run():
            codes = [CosetCode(map=cm, alphabet=alpha, sub=sub) for sub in subs]
            return simulate_curves(cm, alpha, codes, [0.0, 10.0], 200, seed=25)

        first = run()
        assert [id(mat) for mat in smiths] == [id(sub.B) for sub in subs]
        assert built == []
        smiths.clear()
        assert run() == first
        assert smiths == [] and built == []
        for sub in subs:
            u, d = sub.labels
            assert sub.labels[0] is u
            assert not (u.flags.writeable or d.flags.writeable)

    def test_bob_cer_ignores_sublattice(self):
        cm, alpha = alamouti_map(), PAMAlphabet(4)
        a = bob_cer_monte_carlo(cm, alpha, [5.0], 2000, seed=2)
        b = bob_cer_monte_carlo(cm, alpha, [5.0], 2000, seed=2)
        assert a == b


class TestOrthogonalDesign:
    def test_alamouti_is_a_design(self):
        assert wiretap._design_gram_error(alamouti_map()) == 80 * np.finfo(float).eps

    def test_golden_is_not(self):
        assert wiretap._design_gram_error(golden_map()) is None

    def test_orthonormal_map_that_is_no_design(self):
        # M^T M = I, but the four coefficients ride on the first channel use
        # only, so Heff^T Heff carries the cross terms of h_1 and h_2
        embed = np.vstack([np.eye(4, dtype=np.int64), np.zeros((4, 4), dtype=np.int64)])
        code_map = STCodeMap(name="alamouti", n=2, k=4, int_part=embed,
                             theta_part=np.zeros_like(embed), scale_denom_sq=1)
        assert wiretap._design_gram_error(code_map) is None
        draws = np.random.default_rng(0).standard_normal((1, 1, 2, 2))
        heff = wiretap._effective_channels(code_map, draws)[0]
        gram = heff.T @ heff
        assert np.max(np.abs(gram - np.trace(gram) / 4 * np.eye(4))) > 0.1

    def test_decided_from_the_blocks_not_the_name(self):
        # alamouti's columns permuted and negated: still a design, under another
        # name, and sliced to the product kernels' decisions
        a = alamouti_map().int_part[:, [2, 0, 3, 1]] * np.array([1, -1, 1, 1])
        code_map = STCodeMap(name="custom", n=2, k=4, int_part=a,
                             theta_part=np.zeros_like(a), scale_denom_sq=2)
        gram_error = wiretap._design_gram_error(code_map)
        assert gram_error == 80 * np.finfo(float).eps
        rng = np.random.default_rng(1)
        heff = wiretap._effective_channels(code_map, rng.standard_normal((300, 2, 2, 2)))
        gram = np.einsum("bji,bjl->bil", heff, heff)
        g = np.trace(gram, axis1=1, axis2=2) / 4
        assert np.all(np.linalg.norm(gram - g[:, None, None] * np.eye(4), 2, axis=(1, 2))
                      <= gram_error * g)
        y = rng.standard_normal((300, 8)) * 3
        assert np.array_equal(decoder.orthogonal_words(heff, y, 4, gram_error),
                              decoder.exhaustive_words(heff, y, 4))


def no_draw(*args):
    raise AssertionError("a chunk was drawn")


class TestSimulateInputs:
    """simulate_curves (and the two curves built on it) refuse bad inputs before any draw."""

    @pytest.fixture(autouse=True)
    def _no_draws(self, monkeypatch):
        monkeypatch.setattr(wiretap, "_chunk_rng", no_draw)

    @pytest.mark.parametrize("name,value", [("trials", 64.5), ("trials", True), ("trials", 0),
                                            ("trials", "64"), ("workers", 0),
                                            ("workers", 2.0), ("workers", False)])
    def test_counts_must_be_integers_of_at_least_one(self, name, value):
        kwargs = {"trials": 64, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            simulate_curves(alamouti_map(), PAMAlphabet(4), [], [0.0], kwargs["trials"], 1,
                            workers=kwargs["workers"])
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            ecdp_monte_carlo(coset("alamouti", "L2", 4), [0.0], kwargs["trials"], 1,
                             workers=kwargs["workers"])

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
    def test_snr_must_be_finite(self, snr):
        with pytest.raises(ValueError, match="SNR values must be finite"):
            ecdp_monte_carlo(coset("alamouti", "L2", 4), [0.0, snr], 64, 1)
        with pytest.raises(ValueError, match="SNR values must be finite"):
            bob_cer_monte_carlo(alamouti_map(), PAMAlphabet(4), [snr], 64, 1)

    @pytest.mark.parametrize("seed", [1.5, 0.0, True, "3", -1, np.float64(2.0)])
    def test_seed_must_be_an_integer_of_at_least_zero(self, seed):
        # no float seed runs the stream of its integer part
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ecdp_monte_carlo(coset("alamouti", "L2", 4), [0.0], 20, seed)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            bob_cer_monte_carlo(alamouti_map(), PAMAlphabet(4), [0.0], 20, seed)

    def test_code_alphabet_must_be_the_runs(self):
        with pytest.raises(ValueError, match="code map and alphabet"):
            simulate_curves(alamouti_map(), PAMAlphabet(4), [coset("alamouti", "L2", 8)],
                            [0.0], 64, 1)

    def test_code_map_must_be_the_runs(self):
        with pytest.raises(ValueError, match="code map and alphabet"):
            simulate_curves(alamouti_map(), PAMAlphabet(4), [coset("golden", "L'2", 4)],
                            [0.0], 64, 1)


def test_numpy_integer_counts_accepted():
    cm, alpha = alamouti_map(), PAMAlphabet(4)
    codes = [coset("alamouti", "L2", 4)]
    assert (simulate_curves(cm, alpha, codes, [0.0], np.int64(300), 1, workers=np.int32(1))
            == simulate_curves(cm, alpha, codes, [0.0], 300, 1))
    # a numpy integer seed runs the stream of the equal int
    assert (ecdp_monte_carlo(codes[0], [0.0, 10.0], 200, np.int64(3))
            == ecdp_monte_carlo(codes[0], [0.0, 10.0], 200, 3))
    assert (bob_cer_monte_carlo(cm, alpha, [0.0], 200, np.uint8(3))
            == bob_cer_monte_carlo(cm, alpha, [0.0], 200, 3))


def old_chunk_counts(code_map, alphabet, labelers, sigma_sq, n_r, seed, point_idx, chunk_idx,
                     n_trials, strategy):
    """A chunk's counts by the earlier path: Heff by einsum over the real
    expansion, and the labels of (z - 1)/2 of the decoded and sent words
    compared modulo each half sublattice H of ``labelers``."""
    rng = wiretap._chunk_rng(seed, point_idx, chunk_idx)
    m, k, n_t, t_uses = alphabet.m, code_map.k, code_map.n, code_map.T
    sym_idx = rng.integers(0, m, size=(n_trials, k))
    hblock = rng.standard_normal((n_trials, n_r, n_t, 2))
    noise = rng.standard_normal((n_trials, 2 * n_r * t_uses)) * math.sqrt(sigma_sq / 2.0)
    z = alphabet.symbols[sym_idx]
    r4 = _real_expand(hblock[..., 0] + 1j * hblock[..., 1])
    heff = np.einsum("bij,tjk->btik", r4, code_map.M.reshape(t_uses, 2 * n_t, k)).reshape(
        n_trials, 2 * n_r * t_uses, k)
    y = np.einsum("bik,bk->bi", heff, z.astype(float)) + noise
    if strategy == "exhaustive":
        zhat = decoder.exhaustive_words(heff, y, m)
    else:
        zhat = decoder.sphere_words(heff, y, m)
    counts = [int(np.count_nonzero(np.all(zhat == z, axis=1)))]
    t = (np.concatenate([zhat, z]) - 1) // 2
    for labeler in labelers:
        labels = lattice.coset_labels(t, *labeler)
        counts.append(int(np.count_nonzero(np.all(labels[:n_trials] == labels[n_trials:],
                                                  axis=1))))
    return tuple(counts)


@st.composite
def half_sublattices(draw, k):
    """Half bases H of the sublattices 2H: a catalog lattice's, a random
    triangular one, or one whose label operator needs Python integers (last
    invariant 2^31 or more)."""
    kind = draw(st.sampled_from(["catalog", "triangular", "wide"]))
    if kind == "catalog":
        names = (["L1", "L2", "L3", "L4", "L5"] if k == 4
                 else ["L'1", "L'2", "L'3", "M1", "M2", "M3"])
        return builtin_sublattice(draw(st.sampled_from(names))).B // 2
    b = np.diag(draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))).astype(np.int64)
    for i, j in zip(*np.tril_indices(k, -1)):
        b[i, j] = draw(st.integers(-5, 5))
    if kind == "wide":
        b[k - 1, k - 1] = 2 ** draw(st.integers(31, 40))
    return b


@st.composite
def chunk_jobs(draw):
    code = draw(st.sampled_from(["alamouti", "golden"]))
    code_map = alamouti_map() if code == "alamouti" else golden_map()
    m = draw(st.sampled_from([2, 4, 8] if code == "alamouti" else [2, 4]))
    strategy = draw(st.sampled_from(["exhaustive", "sphere"]))
    # the per-trial sphere decoder takes milliseconds a trial on golden 4-PAM
    most = 30 if (code, m, strategy) == ("golden", 4, "sphere") else 300
    halves = draw(st.lists(half_sublattices(code_map.k), max_size=4))
    return dict(code_map=code_map, m=m, strategy=strategy, halves=halves,
                n_trials=draw(st.integers(1, most)), n_r=draw(st.integers(1, 2)),
                snr_db=draw(st.sampled_from([-60.0, -10.0, 0.0, 10.0, 30.0])),
                seed=draw(st.integers(0, 2 ** 32 - 1)), chunk=draw(st.integers(0, 3)))


class TestChunkKernel:
    @settings(max_examples=40, deadline=None)
    @given(job=chunk_jobs())
    @example(job=dict(code_map=alamouti_map(), m=4, strategy="exhaustive", n_trials=1024,
                      halves=[builtin_sublattice("L2").B // 2,
                              np.diag([1, 1, 1, 2 ** 33]).astype(np.int64),
                              builtin_sublattice("L3").B // 2],
                      n_r=2, snr_db=0.0, seed=7, chunk=0))
    def test_counts_match_the_label_comparison(self, job):
        code_map, alphabet = job["code_map"], PAMAlphabet(job["m"])
        subs = [IntegerLattice(2 * b) for b in job["halves"]]
        tests = wiretap._coset_tests([sub.labels for sub in subs], alphabet.m)
        decode = wiretap._resolve_decoder(job["strategy"], code_map, alphabet.m)
        sigma_sq = snr_to_sigma(job["snr_db"], code_map, alphabet).sigma_sq
        got = wiretap._simulate_chunk(code_map, alphabet, tests, job["n_r"], job["seed"],
                                      decode, sigma_sq, 1, job["chunk"], job["n_trials"])
        halves = [lattice.label_operator(IntegerLattice(b)) for b in job["halves"]]
        assert got == old_chunk_counts(code_map, alphabet, halves, sigma_sq, job["n_r"],
                                       job["seed"], 1, job["chunk"], job["n_trials"],
                                       job["strategy"])

    def test_object_operators_stay_off_the_stacked_product(self):
        subs = [builtin_sublattice("L2"), IntegerLattice(np.diag([2, 2, 2, 2 ** 34])),
                builtin_sublattice("L3")]
        tests = wiretap._coset_tests([sub.labels for sub in subs], 4)
        assert tests.stacked == [0, 2] and [pos for pos, *_ in tests.wide] == [1]
        assert tests.wide[0][1].dtype == object
        # D = z_hat - z is even: rows with invariant 1 or 2 hold for every D and are dropped
        assert tests.d.tolist() == [4.0, 32.0] + [float(x) for x in subs[2].labels[1] if x > 2]


def record_pools(monkeypatch) -> list:
    """Replace the process pool by one that runs in process; returns the sizes asked for."""
    built = []

    class InProcessPool:  # records the size, starts no process
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return built


class TestPool:
    """When simulate_curves starts a process pool, and how large."""

    def test_pool_holds_at_most_one_worker_per_task(self, monkeypatch):
        built = record_pools(monkeypatch)
        c = coset("alamouti", "L2", 4)
        # 2 x 600 trials: above CHUNK_TRIALS in all, one task per point
        serial = ecdp_monte_carlo(c, [0.0, 10.0], 600, seed=3)
        assert ecdp_monte_carlo(c, [0.0, 10.0], 600, seed=3, workers=64) == serial
        assert built == [2]

    def test_one_task_job_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for a one-task job")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        c = coset("alamouti", "L2", 4)
        assert (ecdp_monte_carlo(c, [0.0], 1024, seed=3, workers=8)
                == ecdp_monte_carlo(c, [0.0], 1024, seed=3))

    def test_small_two_level_job_runs_in_process(self, monkeypatch):
        # 2 points x 256 trials = 512 <= CHUNK_TRIALS, decoded by the batched kernel
        c = coset("golden", "L'2", 4)
        serial = ecdp_monte_carlo(c, [0.0, 20.0], 256, seed=24)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for a small batched-kernel job")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert ecdp_monte_carlo(c, [0.0, 20.0], 256, seed=24, workers=2) == serial

    def test_two_task_sphere_job_pools(self, monkeypatch):
        built = record_pools(monkeypatch)
        c = coset("alamouti", "L2", 4)
        serial = ecdp_monte_carlo(c, [0.0, 10.0], 64, seed=25, decoder="sphere")
        assert ecdp_monte_carlo(c, [0.0, 10.0], 64, seed=25, workers=2,
                                decoder="sphere") == serial
        assert built == [2]

    def test_pool_starts_after_numpy_random_is_loaded(self):
        # a fresh process, so nothing earlier has imported numpy.random
        script = textwrap.dedent("""
            import concurrent.futures
            import sys

            from latcoset import PAMAlphabet, alamouti_map
            from latcoset.wiretap import simulate_curves

            built = []

            class CheckedPool(concurrent.futures.ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    assert "numpy.random" in sys.modules, "the pool started first"
                    built.append(1)
                    super().__init__(*args, **kwargs)

            concurrent.futures.ProcessPoolExecutor = CheckedPool
            assert "numpy.random" not in sys.modules
            # 2 x 600 trials: above CHUNK_TRIALS in all, so the job pools
            job = (alamouti_map(), PAMAlphabet(4), [], [0.0, 10.0], 600, 1)
            pooled = simulate_curves(*job, workers=2)
            assert built, "no pool was built"
            assert pooled == simulate_curves(*job)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBound:
    def test_gamma_zero_counts_points(self):
        c = coset("alamouti", "L1", 4)
        rep = ecdp_bound_report(c, 1e12, truncation_r_sq=200.0,
                                exponent_mode="pow2n")
        assert rep.value == pytest.approx(rep.points_used, rel=1e-6)
        assert rep.points_used == 364

    def test_single_shell_against_direct_arithmetic(self):
        # truncation 17 keeps only the six norm-16 vectors of L1
        c = coset("alamouti", "L1", 4)
        rep = ecdp_bound_report(c, 4.0, truncation_r_sq=17.0, exponent_mode="pow2")
        assert rep.points_used == 6
        gamma = 1 / 4.0
        total = 0.0
        for j, sign in [(1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]:
            z = np.zeros(4)
            z[j] = 4.0 * sign
            x = alamouti_map().codeword(z).Z
            p = x @ x.conj().T
            det = ((1 + gamma * p[0, 0].real) * (1 + gamma * p[1, 1].real)
                   - gamma ** 2 * abs(p[0, 1]) ** 2)
            total += det ** -4.0
        assert rep.value == pytest.approx(total, rel=1e-12)

    def test_exponent_modes_differ(self):
        c = coset("alamouti", "L1", 4)
        a = ecdp_bound(c, 10.0, truncation_r_sq=100.0, exponent_mode="pow2n")
        b = ecdp_bound(c, 10.0, truncation_r_sq=100.0, exponent_mode="pow2")
        assert a != b

    def test_default_truncation_is_four_lambda(self):
        c = coset("alamouti", "L1", 4)
        rep = ecdp_bound_report(c, 10.0)
        assert rep.truncation_r_sq == pytest.approx(64.0)

    def test_truncation_must_exceed_coding_gain(self):
        c = coset("alamouti", "L1", 4)
        with pytest.raises(ValueError):
            ecdp_bound(c, 10.0, truncation_r_sq=16.0)

    @pytest.mark.parametrize("kwargs", [{"n_r": 0}, {"n_r": 2.5}, {"n_r": True},
                                        {"sigma_e_sq": float("nan")},
                                        {"sigma_e_sq": float("inf")},
                                        {"truncation_r_sq": float("nan")}])
    def test_bad_numbers_rejected(self, kwargs):
        args = {"sigma_e_sq": 10.0, "truncation_r_sq": 64.0, **kwargs}
        with pytest.raises(ValueError):
            ecdp_bound_report(coset("alamouti", "L2", 4), **args)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            ecdp_bound(coset("alamouti", "L1", 4), 10.0, exponent_mode="bad")

    def test_ordering_in_discriminative_regime(self):
        # gamma * lambda_1^2 >~ 1: the coding-gain ordering is robust here
        for mode, sigma in [("pow2n", 3.0), ("pow2", 10.0)]:
            vals = [ecdp_bound(coset("alamouti", nm, 4), sigma,
                               truncation_r_sq=200.0, exponent_mode=mode)
                    for nm in ["L1", "L2", "L3"]]
            assert vals[0] > vals[1] > vals[2]

    def test_golden_ordering_in_discriminative_regime(self):
        for mode, sigma in [("pow2n", 2.0), ("pow2", 4.0)]:
            vals = [ecdp_bound(coset("golden", nm, 4), sigma,
                               truncation_r_sq=64.0, exponent_mode=mode)
                    for nm in ["L'1", "L'2", "L'3"]]
            assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("family,name,shell,points", [
        ("golden", "L'2", 64, 6712), ("alamouti", "L1", 32, 6)])
    def test_radius_just_below_a_shell_excludes_it(self, family, name, shell, points):
        # integer norms in (R, R(1 + 1e-9)] stay out: the radius test is exact
        rep = ecdp_bound_report(coset(family, name, 4), 100.0,
                                truncation_r_sq=shell * (1 - 1e-10))
        assert rep.points_used == points

    def test_reports_match_one_row_reports(self):
        c = coset("golden", "L'3", 4)
        sigmas, modes = [0.5, 4.0, 100.0], ["pow2n", "pow2"]
        reps = ecdp_bound_reports(c, sigmas, modes, truncation_r_sq=40.0, n_r=3)
        assert reps == [ecdp_bound_report(c, s, 40.0, 3, mode)
                        for s in sigmas for mode in modes]

    @pytest.mark.parametrize("family,name", [
        ("alamouti", "L1"), ("alamouti", "L2"), ("alamouti", "L3"),
        ("golden", "L'1"), ("golden", "L'2"), ("golden", "L'3")])
    def test_half_sum_matches_full_enumeration(self, family, name):
        # oracle: the same terms summed over every point, both signs listed
        c = coset(family, name, 4)
        sigmas, modes = [0.3, 4.0, 100.0], ["pow2n", "pow2"]
        reps = ecdp_bound_reports(c, sigmas, modes)
        pts = lattice.enumerate_shorter_than(c.sub, reps[0].truncation_r_sq)
        norms = np.sum(pts * pts, axis=1).astype(float)
        cw = stcode.codeword_matrices(pts @ c.map.M.T, 2, 2)
        det_sq = np.abs(cw[:, 0, 0] * cw[:, 1, 1] - cw[:, 0, 1] * cw[:, 1, 0]) ** 2
        for rep, (sigma, mode) in zip(reps, [(s, m) for s in sigmas for m in modes]):
            gamma = sigma ** -2 if mode == "pow2n" else 1.0 / sigma
            value = float(np.sum((1.0 + gamma * norms + gamma ** 2 * det_sq) ** -4))
            assert (rep.sigma_e_sq, rep.exponent_mode) == (sigma, mode)
            assert rep.points_used == len(pts)
            assert rep.value == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("family,name", [("alamouti", "L1"), ("golden", "L'2")])
    def test_gamma_past_floats_is_the_zero_limit(self, family, name):
        # sigma_e^-4 overflows at 1e-200 and sigma_e^-2 at 1e-320; each term's
        # limit as gamma -> inf is 0
        reps = ecdp_bound_reports(coset(family, name, 4), [1e-200, 1e-320, 1e-100],
                                  ["pow2n", "pow2"], truncation_r_sq=40.0)
        assert [rep.value for rep in reps] == [0.0] * 6
        assert len({rep.points_used for rep in reps}) == 1

    def test_truncation_at_or_below_coding_gain_rejected_without_a_shell(self, monkeypatch):
        # the truncation's own enumeration decides it; no shortest shell runs
        monkeypatch.setattr(wiretap, "first_coding_gain", None)
        c = coset("golden", "L'2", 4)
        for trunc in (12.0, 11.5, 1e-3, -4.0):
            with pytest.raises(ValueError, match="must exceed the first coding gain"):
                ecdp_bound_report(c, 1.0, truncation_r_sq=trunc)
        assert ecdp_bound_report(c, 1.0, truncation_r_sq=12.5).points_used > 0

    def test_capacity_error_keeps_the_coding_gain_check_first(self):
        # a Gram matrix past floats: a truncation below lambda_1^2 is still a
        # configuration error, and one above it enumerates the head of the
        # exactly reduced basis, 2e_0, 2e_1, 2e_2, which spans the ball of R = 5
        big = 2 ** 40
        sub = IntegerLattice(np.array([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 2 * big + 2],
                                       [0, 0, 0, 2 * big]], dtype=np.int64))
        c = CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4), sub=sub)
        with pytest.raises(ValueError, match="must exceed the first coding gain"):
            ecdp_bound_report(c, 1.0, truncation_r_sq=3.0)
        rep = ecdp_bound_report(c, 1.0, truncation_r_sq=5.0)
        # alamouti terms depend on ||x||^2 alone: 6 of diag(2, 2, 2, 2)'s 8 points
        plain = ecdp_bound_report(CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4),
                                            sub=IntegerLattice(np.diag([2, 2, 2, 2]))),
                                  1.0, truncation_r_sq=5.0)
        assert (rep.points_used, plain.points_used) == (6, 8)
        assert rep.value == pytest.approx(0.75 * plain.value, rel=1e-15)

    @pytest.mark.parametrize("e", [14, 17, 20, 24])
    def test_skewed_basis_of_2z4_reads_its_bound(self, e):
        # 2([[N, N - 1], [N + 1, N]] + I_2) spans 2Z^4, whose basis floats
        # cannot enumerate: the bound runs in its exactly reduced basis
        n = 2 ** e
        skew = np.eye(4, dtype=np.int64)
        skew[:2, :2] = [[n, n - 1], [n + 1, n]]

        def reports(basis):
            c = CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4), sub=IntegerLattice(basis))
            return ecdp_bound_reports(c, [0.5, 100.0], ["pow2n", "pow2"])

        for rep, plain in zip(reports(2 * skew), reports(2 * np.eye(4, dtype=np.int64))):
            assert (rep.points_used, rep.truncation_r_sq) == \
                (plain.points_used, plain.truncation_r_sq)
            assert rep.value == pytest.approx(plain.value, rel=1e-12)

    def test_only_the_zero_partial_vectors_run(self, monkeypatch):
        # at R = 20 the ball of diag(2, 6, 6, 6) holds 2 e_0 and 4 e_0 only
        widths = []  # one list of block widths per enumeration
        real = lattice._fincke_pohst_runs

        def recorded(*args):
            blocks = list(real(*args))
            widths.append([runs.Z.shape[1] for runs in blocks])
            return iter(blocks)

        monkeypatch.setattr(lattice, "_fincke_pohst_runs", recorded)
        c = CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4),
                      sub=IntegerLattice(np.diag([2, 6, 6, 6])))
        reps = ecdp_bound_reports(c, [0.5, 3.0], ["pow2n", "pow2"], 20.0, 3)
        assert widths == [[1]]
        for rep in reps:
            assert rep.points_used == 4
            assert rep.value == pytest.approx(
                brute_force_bound(c, 20.0, rep.sigma_e_sq, rep.exponent_mode, 3), rel=1e-12)

    def test_short_columns_run_at_the_last_level(self, monkeypatch):
        # L'1 = diag(4, 4, 4, 4, 4, 2, 2, 2): enumerated in this column order,
        # from its spacing-2 coordinates down, 27 808 partial vectors reach
        # level 0; shortest columns first, 14 093 do
        runs = []  # level-0 runs (partial vectors) per enumeration
        real = lattice._fincke_pohst_runs

        def recorded(*args):
            # counted as the blocks stream: a wide level's block is valid
            # only until the enumeration is advanced
            runs.append(0)
            for block in real(*args):
                runs[-1] += block.Z.shape[1]
                yield block

        monkeypatch.setattr(lattice, "_fincke_pohst_runs", recorded)
        rep = ecdp_bound_report(coset("golden", "L'1", 4), 100.0, 128.0)
        assert runs == [14093] and rep.points_used == 133718

    @pytest.mark.parametrize("family,source", [
        ("golden", "L'1"), ("golden", "L'2"), ("golden", "L'3"),
        ("golden", 7), ("golden", 8), ("alamouti", 9), ("alamouti", 10)])
    def test_invariant_under_basis_changes(self, family, source):
        # the bound is a sum over the lattice's points: permuting the basis
        # columns or changing the basis by a unimodular matrix keeps
        # points_used and moves values in their last bits only
        rng = np.random.default_rng(source if isinstance(source, int) else 0)
        k = 8 if family == "golden" else 4
        if isinstance(source, int):  # a random Hermite form 2H
            sub = random_sublattice_with_index(k, 32 if k == 8 else 16, rng)
        else:
            sub = builtin_sublattice(source)
        u = np.eye(k, dtype=np.int64)
        for _ in range(10):  # column moves c_i += f c_j, f = +-1
            i, j = rng.choice(k, 2, replace=False)
            u[:, i] += rng.choice([-1, 1]) * u[:, j]
        trunc = 72.0 if k == 8 else 160.0
        sigmas, modes = [0.3, 5.0, 100.0], ["pow2n", "pow2"]
        code_map = golden_map() if k == 8 else alamouti_map()

        def reports(basis):
            c = CosetCode(map=code_map, alphabet=PAMAlphabet(4), sub=IntegerLattice(basis))
            return ecdp_bound_reports(c, sigmas, modes, trunc, 2)

        expected = reports(sub.B)
        changed = sub.B @ u
        for basis in (sub.B[:, rng.permutation(k)], changed, changed[:, rng.permutation(k)]):
            for rep, exp in zip(reports(basis), expected):
                assert rep.points_used == exp.points_used > 0
                assert rep.value == pytest.approx(exp.value, rel=1e-13)
                assert rep.outer_share == pytest.approx(exp.outer_share, rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), family=st.sampled_from(["alamouti", "golden"]),
           extra=st.integers(1, 24), frac=st.sampled_from([0.0, 0.25, 0.5]),
           n_r=st.integers(1, 3))
    def test_matches_brute_force_sum(self, data, family, extra, frac, n_r):
        # oracle: every point of enumerate_shorter_than, with its codeword and
        # determinant formed directly
        k = 4 if family == "alamouti" else 8
        names = ["L1", "L2", "L3", "L4", "L5"] if k == 4 else ["L'1", "L'2", "L'3", "M1"]
        source = data.draw(st.sampled_from(names + ["random"]))
        if source == "random":
            seed, index = data.draw(st.integers(0, 2 ** 32 - 1)), data.draw(st.integers(1, 64))
            sub = random_sublattice_with_index(k, index, np.random.default_rng(seed))
        else:
            sub = builtin_sublattice(source)
        c = CosetCode(map=alamouti_map() if k == 4 else golden_map(),
                      alphabet=PAMAlphabet(4), sub=sub)
        trunc = lattice.shortest_shell(sub)[0] + extra - frac
        sigmas, modes = [0.1, 0.7, 5.0], ["pow2n", "pow2"]
        reps = ecdp_bound_reports(c, sigmas, modes, trunc, n_r)
        points = len(lattice.enumerate_shorter_than(sub, trunc))
        for rep in reps:
            assert rep.points_used == points
            assert rep.value == pytest.approx(
                brute_force_bound(c, trunc, rep.sigma_e_sq, rep.exponent_mode, n_r), rel=1e-12)

    def test_enumerates_one_point_of_each_pair(self, monkeypatch):
        totals = []  # one candidate total per enumeration, over its blocks
        real = lattice._fincke_pohst_runs

        def recorded(*args):
            blocks = list(real(*args))
            totals.append(sum(int(runs.counts.sum()) for runs in blocks))
            return iter(blocks)

        def refused(*args, **kwargs):
            raise AssertionError("the bound enumerated both signs")

        monkeypatch.setattr(lattice, "_fincke_pohst_runs", recorded)
        monkeypatch.setattr(lattice, "enumerate_shorter_than", refused)
        rep = ecdp_bound_report(coset("golden", "L'2", 4), 1.0, truncation_r_sq=64.0)
        # one enumeration, no shortest shell: the truncation is given; its
        # runs hold z = 0 and one point of each pair
        assert totals == [rep.points_used // 2 + 1] and rep.points_used == 10408

    # the even truncations put points on the shell boundary ||x||^2 = R/2
    @pytest.mark.parametrize("family,name,trunc", [
        ("alamouti", "L1", 32.0), ("alamouti", "L3", 64.0), ("alamouti", "L2", 57.5),
        ("golden", "L'2", 24.0), ("golden", "L'3", 33.0), ("golden", "M1", 40.0)])
    def test_outer_share_matches_brute_force_split(self, family, name, trunc):
        c = coset(family, name, 4)
        reps = ecdp_bound_reports(c, [0.3, 5.0, 100.0], ["pow2n", "pow2"], trunc, 2)
        for rep in reps:
            norms, terms = brute_force_terms(c, trunc, rep.sigma_e_sq, rep.exponent_mode, 2)
            outer = terms[2 * norms > trunc].sum() / terms.sum()
            assert 0.0 < rep.outer_share < 1.0
            assert rep.outer_share == pytest.approx(outer, rel=1e-12)

    def test_outer_share_of_the_zero_limit(self):
        rep = ecdp_bound_report(coset("golden", "L'2", 4), 1e-200, 20.0)
        assert (rep.value, rep.outer_share) == (0.0, 0.0)

    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_leave_the_bound_unchanged(self, block, monkeypatch):
        cases = [(coset("alamouti", "L2", 4), 100.0), (coset("golden", "L'2", 4), 40.0),
                 (CosetCode(map=golden_map(), alphabet=PAMAlphabet(4),
                            sub=random_sublattice_with_index(8, 16, np.random.default_rng(5))),
                  None)]
        args = ([0.5, 100.0], ["pow2n", "pow2"])
        whole = [ecdp_bound_reports(c, *args, trunc) for c, trunc in cases]
        monkeypatch.setattr(lattice, "_BLOCK", block)
        for (c, trunc), expected in zip(cases, whole):
            for rep, exp in zip(ecdp_bound_reports(c, *args, trunc), expected):
                assert (rep.sigma_e_sq, rep.exponent_mode, rep.truncation_r_sq,
                        rep.points_used) == (exp.sigma_e_sq, exp.exponent_mode,
                                             exp.truncation_r_sq, exp.points_used)
                assert rep.value == pytest.approx(exp.value, rel=1e-12)
                assert rep.outer_share == pytest.approx(exp.outer_share, rel=1e-12)

    def test_memory_is_flat_in_the_truncation(self):
        # golden L'1 at R = 256 holds 2.13e6 points; summed whole, its terms
        # took ~140 MB
        c = coset("golden", "L'1", 4)
        tracemalloc.start()
        try:
            rep = ecdp_bound_report(c, 100.0, 256.0, exponent_mode="pow2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.points_used == 2131532
        assert peak < 16e6

    def test_only_2x2_codewords(self):
        scalar = STCodeMap(name="scalar", n=1, k=2, int_part=np.eye(2),
                           theta_part=np.zeros((2, 2)), scale_denom_sq=1)
        c = CosetCode(map=scalar, alphabet=PAMAlphabet(4),
                      sub=IntegerLattice(2 * np.eye(2, dtype=np.int64)))
        with pytest.raises(ValueError, match="2x2"):
            ecdp_bound_report(c, 10.0)


class TestDesignReport:
    def test_alamouti_l3(self):
        rep = design_report(coset("alamouti", "L3", 4))
        assert (rep.index, rep.wr, rep.lambda1_sq) == (32, True, 32)
        assert rep.first_coding_gain == 32

    def test_one_successive_minima_computation(self, monkeypatch):
        # WR, lambda_1^2 and the coding gain come from one enumeration; every
        # integer enumeration runs _half_in_basis
        calls = []
        real = lattice._half_in_basis

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lattice, "_half_in_basis", counted)
        rep = design_report(coset("golden", "L'2", 4))
        assert (rep.wr, rep.lambda1_sq, rep.first_coding_gain) == (True, 12, 12)
        assert len(calls) == 1

    def test_reports_of_many_codes_are_those_of_each(self, monkeypatch):
        codes = [coset(family, name, 4) for family, names in
                 [("alamouti", ["L1", "L2", "L3", "L4", "L5"]),
                  ("golden", ["L'1", "L'2", "L'3", "M1", "M2", "M3"])] for name in names]
        codes.append(CosetCode(map=alamouti_map(), alphabet=PAMAlphabet(4),  # reduced first
                               sub=IntegerLattice(2 * np.diag([1, 1, 1, 2 ** 40 + 1]))))
        each = [design_report(c) for c in codes]
        assert each[-1].lambda1_sq == 4 and not each[-1].wr
        runs = []
        real = lattice._fincke_pohst_runs
        monkeypatch.setattr(lattice, "_fincke_pohst_runs",
                            lambda *args: runs.append(len(args[0])) or real(*args))
        assert wiretap.design_reports(codes) == each
        # one enumeration per basis shape: k = 4, k = 8 and the reduced head
        assert sorted(runs) == [1, 5, 6]
        assert wiretap.design_reports([]) == []

    def test_golden_lp3(self):
        rep = design_report(coset("golden", "L'3", 4))
        assert (rep.index, rep.wr, rep.lambda1_sq) == (32, True, 16)

    def test_golden_m1_rates(self):
        rep = design_report(coset("golden", "M1", 4))
        assert (rep.index, rep.wr, rep.lambda1_sq) == (64, True, 16)
        assert (rep.rates.r, rep.rates.r_i, rep.rates.r_c) == \
            pytest.approx((8.0, 3.0, 5.0))
