import itertools
import math

import numpy as np
import pytest

from latcoset import (IntegerLattice, PAMAlphabet, RealLattice, STCodeMap,
                      alamouti_map, builtin_sublattice, code_map_by_name,
                      devectorize, first_coding_gain, golden_map,
                      min_determinant, successive_minima, vectorize, volume)

THETA = (1 + math.sqrt(5)) / 2


class TestAlphabet:
    def test_symbols(self):
        assert PAMAlphabet(4).symbols.tolist() == [-3, -1, 1, 3]
        assert PAMAlphabet(2).symbols.tolist() == [-1, 1]

    def test_symmetric_and_odd(self):
        s = PAMAlphabet(8).symbols
        assert np.array_equal(np.sort(-s), s)
        assert np.all(s % 2 != 0)

    def test_mean_square(self):
        assert PAMAlphabet(4).mean_square == pytest.approx(5.0)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            PAMAlphabet(3)


class TestVectorization:
    def test_devectorize_identity(self):
        z = devectorize([1, 0, 0, 0, 0, 0, 1, 0], 2, 2).Z
        assert np.allclose(z, np.eye(2))

    def test_devectorize_imaginary_diag(self):
        z = devectorize([0, 1, 0, 0, 0, 0, 0, -1], 2, 2).Z
        assert np.allclose(z, np.diag([1j, -1j]))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(8)
            assert np.allclose(vectorize(devectorize(v, 2, 2).Z), v)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(8)
        assert devectorize(v, 2, 2).frobenius_sq == pytest.approx(float(v @ v))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            devectorize([1.0, 2.0], 2, 2)

    def test_batched_matrices_match_devectorize(self):
        from latcoset.stcode import codeword_matrices
        vecs = np.random.default_rng(2).standard_normal((4, 3, 12))
        batch = codeword_matrices(vecs, 2, 3)
        assert batch.shape == (4, 3, 2, 3)
        for idx in np.ndindex(4, 3):
            assert np.array_equal(batch[idx], devectorize(vecs[idx], 2, 3).Z)


class TestGridRows:
    def test_matches_product_order(self):
        from latcoset.stcode import grid_rows
        values = np.array([-3, -1, 1, 3])
        full = [list(z) for z in itertools.product(values.tolist(), repeat=3)]
        assert grid_rows(values, 3).tolist() == full
        assert grid_rows(values, 3, 17, 45).tolist() == full[17:45]


class TestAlamouti:
    def test_orthonormal(self):
        m = alamouti_map().M
        assert np.max(np.abs(m.T @ m - np.eye(4))) < 1e-12

    def test_first_unit_vector_codeword(self):
        z = alamouti_map().codeword([1, 0, 0, 0]).Z
        assert np.allclose(z, np.eye(2) / math.sqrt(2))

    def test_third_unit_vector_codeword(self):
        z = alamouti_map().codeword([0, 0, 1, 0]).Z
        assert np.allclose(z, np.array([[0, -1], [1, 0]]) / math.sqrt(2))

    def test_general_codeword_structure(self):
        z = alamouti_map().codeword([1, 2, 3, 4]).Z * math.sqrt(2)
        a = 1 + 2j
        b = 3 + 4j
        assert np.allclose(z, np.array([[a, -np.conj(b)], [b, np.conj(a)]]))


class TestGolden:
    def test_orthonormal(self):
        m = golden_map().M
        assert np.max(np.abs(m.T @ m - np.eye(8))) < 1e-12

    def test_volume_one(self):
        assert volume(RealLattice(golden_map().M)) == pytest.approx(1.0, abs=1e-9)

    def test_first_unit_vector_codeword(self):
        z = golden_map().codeword([1, 0, 0, 0, 0, 0, 0, 0]).Z * math.sqrt(5)
        theta_bar = 1 - THETA
        assert z[0, 0] == pytest.approx(1 + 1j * (THETA - 1))
        assert z[1, 0] == pytest.approx(0)
        assert z[0, 1] == pytest.approx(0)
        assert z[1, 1] == pytest.approx(1 + 1j * (theta_bar - 1))

    def test_against_algebraic_formula(self):
        # X = [[alpha(x1 + x2 theta), i sigma(alpha)(x3 + x4 sigma(theta))],
        #      [alpha(x3 + x4 theta),   sigma(alpha)(x1 + x2 sigma(theta))]]
        rng = np.random.default_rng(3)
        theta_bar = 1 - THETA
        alpha = 1 - 1j + 1j * THETA
        alpha_bar = 1 - 1j + 1j * theta_bar
        for _ in range(10):
            c = rng.integers(-5, 6, 8)
            x1, x2, x3, x4 = (c[0] + 1j * c[1], c[2] + 1j * c[3],
                              c[4] + 1j * c[5], c[6] + 1j * c[7])
            expected = np.array([
                [alpha * (x1 + x2 * THETA), 1j * alpha_bar * (x3 + x4 * theta_bar)],
                [alpha * (x3 + x4 * THETA), alpha_bar * (x1 + x2 * theta_bar)],
            ]) / math.sqrt(5)
            got = golden_map().codeword(c.astype(float)).Z
            assert np.allclose(got, expected, atol=1e-12)

    def test_lookup_by_name(self):
        assert code_map_by_name("golden") is golden_map()
        with pytest.raises(ValueError):
            code_map_by_name("nosuch")


class TestOrthonormality:
    def test_non_orthonormal_map_rejected(self):
        # the Alamouti layers without their 1/sqrt(2): M^T M = 2 I
        a = alamouti_map()
        with pytest.raises(ValueError, match="orthonormal"):
            STCodeMap(name="unscaled", n=2, k=4, int_part=a.int_part,
                      theta_part=a.theta_part, scale_denom_sq=1)


class TestMapProperties:
    @pytest.mark.parametrize("name", ["alamouti", "golden"])
    def test_isometry(self, name):
        cm = code_map_by_name(name)
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = rng.standard_normal(cm.k)
            assert cm.codeword(z).frobenius_sq == pytest.approx(float(z @ z), rel=1e-12)

    @pytest.mark.parametrize("name", ["alamouti", "golden"])
    def test_linearity(self, name):
        cm = code_map_by_name(name)
        rng = np.random.default_rng(10)
        z1 = rng.standard_normal(cm.k)
        z2 = rng.standard_normal(cm.k)
        assert np.allclose(cm.codeword(z1 + z2).Z,
                           cm.codeword(z1).Z + cm.codeword(z2).Z)

    @pytest.mark.parametrize("name", ["alamouti", "golden"])
    def test_full_diversity_small_box(self, name):
        import itertools
        cm = code_map_by_name(name)
        for z in itertools.product([-1, 0, 1], repeat=cm.k):
            if all(v == 0 for v in z):
                continue
            det = np.linalg.det(cm.codeword(np.array(z, dtype=float)).Z)
            assert abs(det) > 1e-9


class TestMinDeterminant:
    def test_alamouti_quarter(self):
        assert min_determinant(alamouti_map(), 2) == pytest.approx(0.25, abs=1e-12)

    def test_golden_fifth(self):
        assert min_determinant(golden_map(), 2) == pytest.approx(0.2, abs=1e-9)

    def test_scaling_fourth_power(self):
        base = min_determinant(alamouti_map(), 2)
        scaled = min_determinant(alamouti_map(), 2, codeword_scale=3.0)
        assert scaled == pytest.approx(81 * base, rel=1e-9)

    def test_alphabet_difference_region(self):
        # difference vectors of 4-PAM^4 step by 2: min |det|^2 = 2^4 * 0.25
        got = min_determinant(alamouti_map(), PAMAlphabet(4))
        assert got == pytest.approx(4.0, abs=1e-9)


class TestFirstCodingGain:
    def test_table_values(self):
        assert first_coding_gain(alamouti_map(), builtin_sublattice("L3")) == 32
        assert first_coding_gain(golden_map(), builtin_sublattice("L'2")) == 12

    def test_cubic(self):
        lat = IntegerLattice(2 * np.eye(4, dtype=np.int64))
        assert first_coding_gain(alamouti_map(), lat) == 4

    @pytest.mark.parametrize("name,map_name", [
        ("L1", "alamouti"), ("L2", "alamouti"), ("L5", "alamouti"),
        ("L'3", "golden"), ("M1", "golden"),
    ])
    def test_matches_minima_for_orthonormal_maps(self, name, map_name):
        cm = code_map_by_name(map_name)
        sub = builtin_sublattice(name)
        assert first_coding_gain(cm, sub) == successive_minima(sub).lambda_sq[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_coding_gain(alamouti_map(), builtin_sublattice("L'1"))
