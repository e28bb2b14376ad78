import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latcoset.wiretap as wiretap
from latcoset import (ChannelParams, CodebookTooLarge, CosetCode, DecodingProblem,
                      IntegerLattice, PAMAlphabet, RankDeficientChannel,
                      alamouti_map, ecdp_monte_carlo, golden_map,
                      ml_decode_exhaustive, realify, sample_channel,
                      sphere_decode)
from latcoset.decoder import _split_exhaustive, codebook, exhaustive_argmin


def random_problem(rng, code_map, m, sigma_sq=1.0):
    alphabet = PAMAlphabet(m)
    h = sample_channel(ChannelParams(), rng)
    heff = realify(h, code_map.T) @ code_map.M
    z = alphabet.symbols[rng.integers(0, m, code_map.k)]
    y = heff @ z + rng.standard_normal(heff.shape[0]) * np.sqrt(sigma_sq / 2)
    return DecodingProblem(y=y, Heff=heff, alphabet=alphabet), z


class TestExhaustive:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        p, z = random_problem(rng, alamouti_map(), 4, sigma_sq=0.0)
        p = DecodingProblem(y=p.Heff @ z, Heff=p.Heff, alphabet=p.alphabet)
        assert np.array_equal(ml_decode_exhaustive(p), z)

    def test_identity_channel_rounding(self):
        p = DecodingProblem(y=np.array([0.9, -1.2]), Heff=np.eye(2),
                            alphabet=PAMAlphabet(2))
        assert ml_decode_exhaustive(p).tolist() == [1, -1]

    def test_codebook_guard(self):
        p = DecodingProblem(y=np.zeros(8), Heff=np.eye(8), alphabet=PAMAlphabet(10))
        with pytest.raises(CodebookTooLarge):
            ml_decode_exhaustive(p)

    def test_codebook_order_is_lexicographic(self):
        grid = codebook(2, 3)
        assert grid.tolist()[:3] == [[-1, -1, -1], [-1, -1, 1], [-1, 1, -1]]

    def test_split_path_matches_direct(self):
        rng = np.random.default_rng(1)
        alphabet = PAMAlphabet(4)
        for _ in range(20):
            h = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            direct = ml_decode_exhaustive(
                DecodingProblem(y=y, Heff=h, alphabet=alphabet))
            flat = _split_exhaustive(y, h, alphabet.symbols, 4)
            grid = codebook(4, 4)
            assert np.array_equal(grid[flat], direct)


def residual_argmin(heff, y, m):
    """First argmin of sum (y - Heff z)^2 over the codebook, one problem at a time."""
    zf = codebook(m, heff.shape[2]).astype(float)
    return np.array([np.argmin(np.sum((yi - zf @ hi.T) ** 2, axis=1))
                     for hi, yi in zip(heff, y)])


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(code=st.sampled_from(["alamouti", "golden"]), m=st.sampled_from([2, 4]),
           n=st.integers(1, 6), snr_db=st.sampled_from([-60.0, 0.0, 20.0]),
           integer=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_residual_argmin(self, code, m, n, snr_db, integer, seed):
        # integer channels with half-integer outputs are full of exact ties
        rng = np.random.default_rng(seed)
        code_map = alamouti_map() if code == "alamouti" else golden_map()
        if integer:
            heff = rng.integers(-2, 3, (n, 8, code_map.k)).astype(float)
            y = rng.integers(-6, 7, (n, 8)) / 2.0
        else:
            problems = [random_problem(rng, code_map, m, sigma_sq=10 ** (-snr_db / 10))[0]
                        for _ in range(n)]
            heff = np.array([p.Heff for p in problems])
            y = np.array([p.y for p in problems])
        assert np.array_equal(exhaustive_argmin(heff, y, m), residual_argmin(heff, y, m))

    def test_exact_ties_pick_the_lexicographically_first_word(self):
        # Heff = h I, y = 2h: every coordinate is midway between the symbols 1
        # and 3, and (y - h)^2 = (y - 3h)^2 = h^2 exactly, so (1,1), (1,3),
        # (3,1) and (3,3) tie.  The product form rounds h^2 and h y apart and
        # splits some of these ties; the recheck must restore the first word.
        h = 2.0 ** 30 + np.arange(1, 64, 2)
        heff = h[:, None, None] * np.eye(2)
        y = 2.0 * np.repeat(h[:, None], 2, axis=1)
        got = exhaustive_argmin(heff, y, 4)
        assert np.array_equal(codebook(4, 2)[got], np.ones((len(h), 2), dtype=np.int64))

    def test_forced_exhaustive_cap_raises_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(wiretap, "_chunk_rng", no_draw)
        code = CosetCode(map=golden_map(), alphabet=PAMAlphabet(8),
                         sub=IntegerLattice(2 * np.eye(8, dtype=np.int64)))
        with pytest.raises(CodebookTooLarge):
            ecdp_monte_carlo(code, [0.0], 1, 0, decoder="exhaustive")


class TestSphere:
    def test_noiseless(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, z = random_problem(rng, alamouti_map(), 4, sigma_sq=0.0)
            p = DecodingProblem(y=p.Heff @ z, Heff=p.Heff, alphabet=p.alphabet)
            assert np.array_equal(sphere_decode(p), z)

    def test_oracle_equivalence_alamouti(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p, _ = random_problem(rng, alamouti_map(), 4, sigma_sq=1.0)
            assert np.array_equal(sphere_decode(p), ml_decode_exhaustive(p))

    def test_oracle_equivalence_golden_4pam(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, _ = random_problem(rng, golden_map(), 4, sigma_sq=1.0)
            assert np.array_equal(sphere_decode(p), ml_decode_exhaustive(p))

    def test_oracle_equivalence_golden_10pam_lifted_cap(self):
        # 10^8-word codebook: oracle runs in split mode with the cap lifted
        rng = np.random.default_rng(5)
        from latcoset.channel import snr_to_sigma
        sigma_sq = snr_to_sigma(15.0, golden_map(), PAMAlphabet(10)).sigma_sq
        for _ in range(2):
            p, _ = random_problem(rng, golden_map(), 10, sigma_sq=sigma_sq)
            oracle = ml_decode_exhaustive(p, cap=10 ** 9)
            assert np.array_equal(sphere_decode(p), oracle)

    def test_tie_breaking_lexicographic(self):
        # midpoint of two symbols: both routes must pick the smaller word
        alphabet = PAMAlphabet(2)
        p = DecodingProblem(y=np.array([0.0, 0.0]), Heff=np.eye(2), alphabet=alphabet)
        expected = np.array([-1, -1])
        assert np.array_equal(ml_decode_exhaustive(p), expected)
        assert np.array_equal(sphere_decode(p), expected)

    def test_tie_breaking_partial(self):
        alphabet = PAMAlphabet(4)
        heff = np.diag([1.0, 0.5])
        y = np.array([2.0, 1.0])  # first coordinate midway between 1 and 3
        expected = ml_decode_exhaustive(
            DecodingProblem(y=y, Heff=heff, alphabet=alphabet))
        got = sphere_decode(DecodingProblem(y=y, Heff=heff, alphabet=alphabet))
        assert np.array_equal(got, expected)
        assert expected.tolist() == [1, 1]

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        p, _ = random_problem(rng, alamouti_map(), 4)
        base = sphere_decode(p)
        scaled = DecodingProblem(y=7.5 * p.y, Heff=7.5 * p.Heff, alphabet=p.alphabet)
        assert np.array_equal(sphere_decode(scaled), base)

    def test_rank_deficiency_detected(self):
        heff = np.zeros((8, 4))
        heff[:, :3] = np.random.default_rng(7).standard_normal((8, 3))
        with pytest.raises(RankDeficientChannel):
            sphere_decode(DecodingProblem(y=np.zeros(8), Heff=heff,
                                          alphabet=PAMAlphabet(4)))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            DecodingProblem(y=np.zeros(7), Heff=np.eye(8), alphabet=PAMAlphabet(4))
