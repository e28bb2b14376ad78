import numpy as np
import pytest

from latcoset import (ChannelParams, NoiseModel, PAMAlphabet, alamouti_map,
                      golden_map, realify, sample_channel, snr_to_sigma,
                      transmit, vectorize)
from latcoset.wiretap import simulate_curves


class TestSampling:
    def test_reproducible(self):
        h1 = sample_channel(ChannelParams(), np.random.default_rng(42)).H
        h2 = sample_channel(ChannelParams(), np.random.default_rng(42)).H
        assert np.array_equal(h1, h2)

    def test_moments(self):
        rng = np.random.default_rng(1)
        params = ChannelParams()
        hs = np.array([sample_channel(params, rng).H for _ in range(25000)])
        power = np.mean(np.abs(hs) ** 2)
        assert abs(power - 2.0) < 0.05
        cross = np.mean(hs.real * hs.imag)
        assert abs(cross) < 0.02

    def test_shapes(self):
        h = sample_channel(ChannelParams(n_t=3, n_r=2), np.random.default_rng(0)).H
        assert h.shape == (2, 3)


class TestRealify:
    def test_identity_channel(self):
        assert np.allclose(realify(np.eye(2), 2), np.eye(8))

    def test_imaginary_identity(self):
        r = realify(1j * np.eye(2), 2)
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.kron(np.eye(4), block)
        assert np.allclose(r, expected)

    def test_vectorization_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = realify(h, 2) @ vectorize(x)
            rhs = vectorize(h @ x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(4)
        h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(realify(h1 + h2, 2), realify(h1, 2) + realify(h2, 2))

    def test_batched_expansion_matches_each_matrix(self):
        from latcoset.channel import _real_expand
        rng = np.random.default_rng(8)
        hs = rng.standard_normal((3, 5, 2, 3)) + 1j * rng.standard_normal((3, 5, 2, 3))
        batch = _real_expand(hs)
        assert batch.shape == (3, 5, 4, 6)
        for idx in np.ndindex(3, 5):
            assert np.array_equal(batch[idx], _real_expand(hs[idx]))


class TestTransmit:
    def test_near_noiseless(self):
        rng = np.random.default_rng(5)
        h = sample_channel(ChannelParams(), rng)
        x = alamouti_map().codeword([1.0, -3.0, 1.0, 3.0])
        y = transmit(h, x, NoiseModel(1e-20), np.random.default_rng(0))
        assert np.allclose(y, h.H @ x.Z, atol=1e-8)

    def test_noise_energy(self):
        rng = np.random.default_rng(6)
        h = sample_channel(ChannelParams(), np.random.default_rng(1))
        x = alamouti_map().codeword([0.0, 0.0, 0.0, 0.0])
        sigma_sq = 3.0
        total = 0.0
        trials = 20000
        for _ in range(trials):
            y = transmit(h, x, NoiseModel(sigma_sq), rng)
            total += float(np.sum(np.abs(y) ** 2))
        expected = 2 * 2 * sigma_sq  # n_r * T * sigma^2
        assert abs(total / trials - expected) / expected < 0.02

    def test_reproducible(self):
        h = sample_channel(ChannelParams(), np.random.default_rng(1))
        x = alamouti_map().codeword([1.0, 1.0, 1.0, 1.0])
        y1 = transmit(h, x, NoiseModel(2.0), np.random.default_rng(9))
        y2 = transmit(h, x, NoiseModel(2.0), np.random.default_rng(9))
        assert np.array_equal(y1, y2)


class TestSnrCalibration:
    def test_alamouti_4pam(self):
        noise = snr_to_sigma(10.0, alamouti_map(), PAMAlphabet(4))
        assert noise.sigma_sq == pytest.approx(1.0, rel=1e-12)

    def test_golden_2pam_energy(self):
        noise = snr_to_sigma(0.0, golden_map(), PAMAlphabet(2))
        assert noise.sigma_sq == pytest.approx(4.0, rel=1e-12)

    def test_monotone_in_snr(self):
        vals = [snr_to_sigma(s, alamouti_map(), PAMAlphabet(4)).sigma_sq
                for s in [-10, 0, 10, 20, 30]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0)

    def test_numpy_scalar_snr_is_its_float(self):
        cm, alpha = alamouti_map(), PAMAlphabet(4)
        for snr in (-400.0, 2.5, 10.0):
            noise = snr_to_sigma(np.float32(snr), cm, alpha)
            assert type(noise.sigma_sq) is float
            assert noise.sigma_sq == snr_to_sigma(snr, cm, alpha).sigma_sq
        assert snr_to_sigma(np.float32(-400.0), cm, alpha).sigma_sq == pytest.approx(1e41)

    @pytest.mark.parametrize("snr", [np.float64(-4000.0), np.float32(-4000.0)])
    def test_past_the_float_range_raises_without_a_warning(self, snr):
        # RuntimeWarnings are errors in this suite: numpy's overflow warning would fail first
        cm, alpha = alamouti_map(), PAMAlphabet(4)
        with pytest.raises(ValueError, match="past the float range"):
            snr_to_sigma(snr, cm, alpha)
        with pytest.raises(ValueError, match="past the float range"):
            simulate_curves(cm, alpha, [], np.array([snr]), 1, 0)
