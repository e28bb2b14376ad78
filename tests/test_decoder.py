import numpy as np
import pytest

from latcoset import (ChannelParams, CodebookTooLarge, DecodingProblem,
                      PAMAlphabet, RankDeficientChannel, alamouti_map,
                      golden_map, ml_decode_exhaustive, realify,
                      sample_channel, sphere_decode)
from latcoset.decoder import _split_exhaustive, codebook


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
