import collections
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latcoset import (CapacityError, IntegerLattice, NotASublattice, RealLattice,
                      SingularMatrix, builtin_sublattice, coset_label,
                      enumerate_shorter_than, gram, index_in_superlattice,
                      is_well_rounded, smith_normal_form, successive_minima,
                      volume, alamouti_map)
from latcoset.catalog import NAMES
import latcoset.lattice as lattice
from latcoset.lattice import _half_shorter_than, _integral_lll, int_det, shortest_shell
from latcoset.search import random_sublattice_with_index

TWO_Z4 = IntegerLattice(2 * np.eye(4, dtype=np.int64))

#: the 8 nonzero points of Z^2 of squared norm <= 2, sorted
Z2_BALL_2 = sorted(p for p in itertools.product((-1, 0, 1), repeat=2) if p != (0, 0))


def brute_force_points(B, r_sq, max_box=2_000_000):
    """Independent enumeration oracle: coefficient box guaranteed to cover
    the ball via the rows of B^-1 (|z_j| <= sqrt(r) * ||row_j(B^-1)||).

    Returns None when the covering box exceeds ``max_box`` cells (the oracle
    would be too slow; the caller skips such bases)."""
    B = np.asarray(B, dtype=float)
    k = B.shape[1]
    binv = np.linalg.inv(B)
    radius = np.sqrt(r_sq) * np.linalg.norm(binv, axis=1)
    ranges = [range(-int(np.floor(r)) - 1, int(np.floor(r)) + 2) for r in radius]
    if math.prod(len(r) for r in ranges) > max_box:
        return None
    pts = []
    for z in itertools.product(*ranges):
        if all(v == 0 for v in z):
            continue
        x = B @ np.array(z, dtype=float)
        if x @ x <= r_sq + 1e-9:
            pts.append(tuple(int(round(v)) for v in x))
    return sorted(pts)


class TestGramVolume:
    def test_gram_identity(self):
        lat = RealLattice(np.eye(4))
        assert np.allclose(gram(lat), np.eye(4))

    def test_gram_alamouti_orthonormal(self):
        g = gram(RealLattice(alamouti_map().M))
        assert np.max(np.abs(g - np.eye(4))) < 1e-12

    def test_gram_scaled(self):
        g = gram(IntegerLattice(2 * np.eye(4, dtype=np.int64)))
        assert np.array_equal(np.array(g, dtype=np.int64), 4 * np.eye(4, dtype=np.int64))

    def test_volume_alamouti(self):
        assert volume(RealLattice(alamouti_map().M)) == pytest.approx(1.0, abs=1e-12)

    def test_volume_scaled_cube(self):
        assert volume(IntegerLattice(2 * np.eye(4, dtype=np.int64))) == 16
        assert volume(RealLattice(2.0 * np.eye(4))) == pytest.approx(16.0)

    def test_volume_non_full_rank(self):
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert volume(RealLattice(basis)) == pytest.approx(1.0)

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            RealLattice(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestEnumeration:
    def test_cubic_lattice_shell(self):
        pts = enumerate_shorter_than(TWO_Z4, 4)
        assert len(pts) == 8
        assert all(np.sum(p.astype(np.int64) ** 2) == 4 for p in pts)

    def test_below_first_minimum_empty(self):
        assert enumerate_shorter_than(TWO_Z4, 3.99).shape[0] == 0

    def test_l2_shell_norms(self):
        pts = enumerate_shorter_than(builtin_sublattice("L2"), 24)
        assert pts.shape[0] > 0
        assert all(int(p @ p) == 24 for p in pts)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_shorter_than(TWO_Z4, 400, cap=100)

    def test_pairs_both_listed(self):
        pts = {tuple(p) for p in enumerate_shorter_than(TWO_Z4, 8)}
        assert all(tuple(-np.array(p)) in pts for p in pts)

    def test_completeness_random_bases(self):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 25:
            b = rng.integers(-3, 4, size=(4, 4))
            try:
                lat = IntegerLattice(b)
            except SingularMatrix:
                continue
            r_sq = int(rng.integers(5, 51))
            expected = brute_force_points(b, r_sq)
            if expected is None:
                continue
            got = sorted(tuple(int(v) for v in p)
                         for p in enumerate_shorter_than(lat, r_sq))
            assert got == expected
            done += 1

    def test_real_lattice_enumeration(self):
        lat = RealLattice(0.5 * np.eye(3))
        pts = enumerate_shorter_than(lat, 0.25)
        assert pts.shape[0] == 6


@st.composite
def small_bases(draw):
    """A nonsingular k x k integer basis, k in 1..6, entries in [-3, 3]."""
    k = draw(st.integers(1, 6))
    b = np.array(draw(st.lists(st.integers(-3, 3), min_size=k * k, max_size=k * k)),
                 dtype=np.int64).reshape(k, k)
    assume(round(np.linalg.det(b)) != 0)
    return b


class TestHalfEnumeration:
    @staticmethod
    def _check_half(half, full):
        rows = [tuple(p) for p in half.tolist()]
        assert not any(all(v == 0 for v in p) for p in rows)
        assert not set(rows) & {tuple(-v for v in p) for p in rows}
        assert len(set(rows)) == len(rows)
        assert sorted(rows + [tuple(-v for v in p) for p in rows]) == \
            sorted(tuple(p) for p in full.tolist())

    @settings(max_examples=150, deadline=None)
    @given(b=small_bases(), r_sq=st.integers(1, 40))
    def test_half_and_negation_make_the_integer_enumeration(self, b, r_sq):
        lat = IntegerLattice(b)
        self._check_half(_half_shorter_than(lat, r_sq), enumerate_shorter_than(lat, r_sq))

    @settings(max_examples=100, deadline=None)
    @given(b=small_bases(), r_sq=st.floats(0.5, 30.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_half_and_negation_make_the_real_enumeration(self, b, r_sq, seed):
        try:
            lat = RealLattice(b + 0.1 * np.random.default_rng(seed).standard_normal(b.shape))
        except ValueError:  # nearly dependent columns
            assume(False)
        self._check_half(_half_shorter_than(lat, r_sq), enumerate_shorter_than(lat, r_sq))

    def test_public_rows_are_the_half_then_its_negation(self):
        lat = builtin_sublattice("L2")
        half = _half_shorter_than(lat, 48)
        assert np.array_equal(enumerate_shorter_than(lat, 48), np.concatenate([half, -half]))

    # the smallest caps that pass when both signs are enumerated: the point
    # count plus the zero row
    @pytest.mark.parametrize("name,r_sq,cap", [("L'2", 128, 148761), ("L1", 1000, 9717)])
    def test_cap_counts_both_signs(self, name, r_sq, cap):
        lat = builtin_sublattice(name)
        assert len(enumerate_shorter_than(lat, r_sq, cap=cap)) == cap - 1
        assert 2 * len(_half_shorter_than(lat, r_sq, cap)) == cap - 1
        for enumerate_ in (enumerate_shorter_than, _half_shorter_than):
            with pytest.raises(CapacityError):
                enumerate_(lat, r_sq, cap - 1)

    @pytest.mark.parametrize("r_sq", [0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, r_sq):
        with pytest.raises(ValueError, match="positive"):
            enumerate_shorter_than(TWO_Z4, r_sq)

    @pytest.mark.parametrize("r_sq", [math.inf, np.float64(math.inf)])
    def test_real_radius_must_be_finite(self, r_sq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                enumerate_shorter_than(RealLattice(np.eye(2)), r_sq)
            # the integer path keeps its CapacityError past exact int64 norms
            with pytest.raises(CapacityError, match="2\\^62"):
                enumerate_shorter_than(TWO_Z4, r_sq)


class TestBlocks:
    """The enumeration streams blocks of at most ``lattice._BLOCK`` candidates
    per level; forcing tiny blocks must change nothing a caller sees."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(3)
        cases = [builtin_sublattice(name) for name in NAMES]
        cases += [random_sublattice_with_index(k, index, rng)
                  for k, index in [(4, 32), (4, 63), (6, 9), (8, 16)]]
        return cases

    @staticmethod
    def _radius(lat):
        return 2 * shortest_shell(lat)[0] + 1

    @pytest.mark.parametrize("block", [2, 3])
    def test_points_and_their_order_unchanged(self, block, monkeypatch):
        lats = self._cases()
        real = RealLattice(builtin_sublattice("L3").B + 0.1 * np.eye(4))
        whole = [enumerate_shorter_than(lat, self._radius(lat)) for lat in lats]
        whole_real = enumerate_shorter_than(real, 70.0)
        blocks = []  # the blocks of each enumeration
        real_runs = lattice._fincke_pohst_runs

        def recorded(*args):
            blocks.append(list(real_runs(*args)))
            return iter(blocks[-1])

        monkeypatch.setattr(lattice, "_BLOCK", block)
        monkeypatch.setattr(lattice, "_fincke_pohst_runs", recorded)
        for lat, expected in zip(lats, whole):
            assert np.array_equal(enumerate_shorter_than(lat, self._radius(lat)), expected)
        assert np.array_equal(enumerate_shorter_than(real, 70.0), whole_real)
        assert max(len(b) for b in blocks) > 50  # many blocks formed

    @pytest.mark.parametrize("block", [2, 3])
    def test_shortest_shell_unchanged(self, block, monkeypatch):
        lats = self._cases()
        shells = [shortest_shell(lat) for lat in lats]
        monkeypatch.setattr(lattice, "_BLOCK", block)
        assert [shortest_shell(lat) for lat in lats] == shells
        assert lattice.shortest_shells(lats) == shells  # slices that mix lattices

    @pytest.mark.parametrize("name,r_sq", [("L2", 100), ("L'3", 24)])
    def test_cap_raises_as_with_one_block(self, name, r_sq, monkeypatch):
        # the cap counts each level's candidates over every block
        lat = builtin_sublattice(name)

        def outcomes():
            out = []
            for cap in range(1, len(enumerate_shorter_than(lat, r_sq)) + 3):
                try:
                    out.append(len(_half_shorter_than(lat, r_sq, cap)))
                except CapacityError as exc:
                    out.append(str(exc))
            return out

        whole = outcomes()
        assert isinstance(whole[0], str) and isinstance(whole[-1], int)
        monkeypatch.setattr(lattice, "_BLOCK", 2)
        assert outcomes() == whole


class TestSuccessiveMinima:
    def test_cubic(self):
        assert successive_minima(TWO_Z4).lambda_sq == (4, 4, 4, 4)

    def test_l1_profile(self):
        assert successive_minima(builtin_sublattice("L1")).lambda_sq == (16, 16, 16, 64)

    def test_l5_well_rounded_at_80(self):
        assert successive_minima(builtin_sublattice("L5")).lambda_sq == (80, 80, 80, 80)

    def test_random_bases_against_brute_force(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 15:
            b = rng.integers(-3, 4, size=(3, 3))
            try:
                lat = IntegerLattice(b)
            except SingularMatrix:
                continue
            sm = successive_minima(lat)
            # oracle: greedy over brute-forced points far past the last minimum
            pts = brute_force_points(b, sm.lambda_sq[-1])
            if pts is None:
                continue
            pts = sorted(pts, key=lambda p: (sum(v * v for v in p), p))
            rows = []
            minima = []
            for p in pts:
                cand = np.array(rows + [p], dtype=float)
                if np.linalg.matrix_rank(cand, tol=1e-9) > len(rows):
                    rows.append(p)
                    minima.append(sum(v * v for v in p))
            assert tuple(minima) == sm.lambda_sq
            # the shortest shell: lambda_1^2 and the rank of its vectors
            shell = [p for p in pts if sum(v * v for v in p) == minima[0]]
            rank = np.linalg.matrix_rank(np.array(shell, dtype=float), tol=1e-9)
            assert shortest_shell(lat) == (minima[0], rank)
            done += 1

    def test_shortest_shell_matches_minima_on_catalog(self):
        for name in NAMES:
            lat = builtin_sublattice(name)
            sm = successive_minima(lat)
            l1, rank = shortest_shell(lat)
            assert l1 == sm.lambda1_sq
            assert rank == sum(1 for m in sm.lambda_sq if m == l1)

    def test_shell_on_the_radius_of_a_skewed_basis(self):
        # the shortest column has norm lambda_1^2, so the shell lies on the
        # enumeration radius; float rounding of this Gram matrix (entries up
        # to 6.6e6, det 4096^2) used to drop (0, 0, +-2, 0) from it
        lat = IntegerLattice(np.array([[-1536, 0, -2560, 1536], [0, -2, 0, 2],
                                       [-2, 0, -4, 2], [0, 0, 0, 2]]))
        assert len(enumerate_shorter_than(lat, 4)) == 6
        assert shortest_shell(lat) == (4, 3)

    def test_real_lattice_refused(self):
        with pytest.raises(TypeError):
            successive_minima(RealLattice(np.eye(2)))

    def test_minkowski_second_theorem(self):
        for name in ["L1", "L2", "L3", "L4", "L5", "L'1", "L'2", "M1"]:
            lat = builtin_sublattice(name)
            n = lat.k
            sm = successive_minima(lat)
            prod = math.prod(sm.lambda_sq)
            ceiling = (4 / math.pi) ** n * math.gamma(n / 2 + 1) ** 2 * volume(lat) ** 2
            assert prod <= ceiling * (1 + 1e-9)


class TestWellRounded:
    def test_catalog_flags(self):
        assert not is_well_rounded(builtin_sublattice("L1"))
        assert is_well_rounded(builtin_sublattice("L3"))
        assert not is_well_rounded(builtin_sublattice("L'1"))

    def test_scalar_invariance(self):
        for name in ["L1", "L3"]:
            lat = builtin_sublattice(name)
            scaled = IntegerLattice(3 * lat.B)
            assert is_well_rounded(scaled) == is_well_rounded(lat)
            with pytest.raises(TypeError):
                is_well_rounded(RealLattice(-0.25 * lat.B.astype(float)))


class TestIndex:
    def test_catalog_indices(self):
        assert index_in_superlattice(builtin_sublattice("L1"), TWO_Z4) == 32
        assert index_in_superlattice(builtin_sublattice("L4"), TWO_Z4) == 256

    def test_self_index(self):
        lat = builtin_sublattice("L2")
        assert index_in_superlattice(lat, lat) == 1

    def test_not_a_sublattice(self):
        with pytest.raises(NotASublattice):
            index_in_superlattice(IntegerLattice(np.eye(4, dtype=np.int64)), TWO_Z4)

    def test_volume_identity(self):
        for name in ["L1", "L2", "L5"]:
            sub = builtin_sublattice(name)
            idx = index_in_superlattice(sub, TWO_Z4)
            assert idx * volume(TWO_Z4) == volume(sub)


class TestSmithNormalForm:
    def check_decomposition(self, b):
        dec = smith_normal_form(b)
        bo = np.array(b, dtype=object)
        assert np.array_equal(dec.U @ bo @ dec.V, dec.D)
        d = dec.diagonal
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        from latcoset.lattice import int_det
        assert abs(int_det(dec.U)) == 1
        assert abs(int_det(dec.V)) == 1
        return dec

    def test_identity(self):
        dec = self.check_decomposition(np.eye(4, dtype=np.int64))
        assert dec.diagonal == (1, 1, 1, 1)

    def test_diagonal_reordering(self):
        dec = self.check_decomposition(np.diag([4, 2, 2, 2]))
        assert dec.diagonal == (2, 2, 2, 4)

    def test_inner_l2(self):
        inner = builtin_sublattice("L2").B // 2
        dec = self.check_decomposition(inner)
        assert math.prod(dec.diagonal) == 32

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            smith_normal_form(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(SingularMatrix):  # rank 1, nonzero
            smith_normal_form(np.array([[1, 2], [2, 4]]))

    def test_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as snf_oracle
        rng = np.random.default_rng(55)
        done = 0
        while done < 20:
            b = rng.integers(-5, 6, size=(4, 4))
            from latcoset.lattice import int_det
            if int_det(b) == 0:
                continue
            dec = self.check_decomposition(b)
            oracle = snf_oracle(sympy.Matrix(b.tolist()))
            oracle_diag = sorted(abs(int(oracle[i, i])) for i in range(4))
            assert sorted(dec.diagonal) == oracle_diag
            done += 1


class TestCosetLabel:
    def test_zero_vector(self):
        sub = IntegerLattice(np.diag([4, 2, 2, 2]))
        assert all(v == 0 for v in coset_label([0, 0, 0, 0], sub))

    def test_basis_column_shift(self):
        sub = IntegerLattice(np.diag([4, 2, 2, 2]))
        assert coset_label([4, 0, 0, 0], sub) == coset_label([0, 0, 0, 0], sub)

    def test_non_integer_coordinates_rejected(self):
        sub = IntegerLattice(np.diag([4, 2, 2, 2]))
        for t in ([1.7, 0, 0, 0], [0, 0, 0, -0.5], [np.inf, 0, 0, 0], [np.nan, 0, 0, 0]):
            with pytest.raises(ValueError, match="integer"):
                coset_label(t, sub)
        assert coset_label(np.array([5.0, 0, 0, 0]), sub) == coset_label([5, 0, 0, 0], sub)

    def test_inner_l2_box_partition(self):
        sub = IntegerLattice(builtin_sublattice("L2").B // 2)
        from collections import Counter
        counts = Counter(coset_label(t, sub)
                         for t in itertools.product(range(8), repeat=4))
        assert len(counts) == 32
        assert set(counts.values()) == {128}

    def test_partition_size_equals_det(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 10:
            b = rng.integers(-2, 3, size=(3, 3))
            try:
                sub = IntegerLattice(b)
            except SingularMatrix:
                continue
            det = abs(sub.det)
            if det > 60:
                continue
            labels = {coset_label(t, sub)
                      for t in itertools.product(range(-8, 8), repeat=3)}
            assert len(labels) == det
            done += 1

    def test_label_matches_membership(self):
        sub = builtin_sublattice("L2")
        binv = np.linalg.inv(sub.B.astype(float))
        rng = np.random.default_rng(11)
        for _ in range(300):
            t1 = rng.integers(-20, 20, 4)
            t2 = rng.integers(-20, 20, 4)
            x = binv @ (t1 - t2)
            member = np.allclose(x, np.rint(x), atol=1e-8)
            assert (coset_label(t1, sub) == coset_label(t2, sub)) == member

    def test_invariant_under_sub_columns(self):
        sub = builtin_sublattice("L3")
        t = np.array([1, -2, 3, 0])
        base = coset_label(t, sub)
        for j in range(4):
            assert coset_label(t + sub.B[:, j], sub) == base


class TestJson:
    def test_round_trip(self):
        lat = builtin_sublattice("L2")
        again = IntegerLattice.from_json(lat.to_json())
        assert np.array_equal(lat.B, again.B)

    def test_column_major_layout(self):
        lat = IntegerLattice(np.array([[1, 2], [0, 3]], dtype=np.int64))
        data = json.loads(lat.to_json())
        assert data["basis"] == [[1, 0], [2, 3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegerLattice.from_json('{"k": 2, "basis": [[1, 0]]}')
        with pytest.raises(SingularMatrix):
            IntegerLattice.from_json('{"k": 2, "basis": [[1, 0], [2, 0]]}')
        with pytest.raises(ValueError):
            IntegerLattice.from_json('{"k": 2, "basis": [[1.5, 0], [0, 1]]}')

    def test_booleans_rejected(self):
        # JSON true loads as a bool, which Python also counts as the int 1
        with pytest.raises(ValueError):
            IntegerLattice.from_json('{"k": 2, "basis": [[true, 0], [0, 2]]}')
        with pytest.raises(ValueError):
            IntegerLattice.from_json('{"k": true, "basis": [[2]]}')


class TestCatalog:
    def test_every_spelling_gives_one_shared_instance(self):
        lat = builtin_sublattice("L'1")
        assert builtin_sublattice("LP1") is lat and builtin_sublattice(" lp1 ") is lat
        assert builtin_sublattice("l2") is builtin_sublattice("L2") is not lat

    @pytest.mark.parametrize("name", NAMES)
    def test_shared_basis_is_read_only(self, name):
        lat = builtin_sublattice(name)
        with pytest.raises(ValueError):
            lat.B[0, 0] = 0
        with pytest.raises(AttributeError):
            lat.B = lat.B * 2


class TestInt64Edge:
    def test_huge_radius_raises_capacity_error(self):
        # squared norms of diag(2^33) wrap int64 to 0 unless refused
        lat = IntegerLattice(np.diag([2 ** 33, 2 ** 33]))
        with pytest.raises(CapacityError):
            successive_minima(lat)
        with pytest.raises(CapacityError):
            enumerate_shorter_than(lat, 1 << 62)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r_sq,basis", [(1e300, np.eye(2)), (2.0 ** 124, np.eye(2)),
                                            (2.0 ** 108, np.diag([1.0, 1 / 256]))])
    def test_real_radius_past_int64_runs_raises_capacity_error(self, r_sq, basis):
        # the coefficient bound r_sq (G^-1)_ii reaches 2^124, where the int64
        # run bounds would wrap with "invalid value encountered in cast"
        with pytest.raises(CapacityError, match="int64 runs"):
            enumerate_shorter_than(RealLattice(basis), r_sq, cap=100)
        # below it the cap refuses the radius, as before
        limit = 2.0 ** 124 / np.linalg.inv(basis.T @ basis).diagonal().max()
        with pytest.raises(CapacityError, match="cap of 100"):
            enumerate_shorter_than(RealLattice(basis), limit / 2.01, cap=100)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_basis_entries_raise_value_error(self, bad):
        mat = np.array([[bad, 0], [0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            IntegerLattice(mat)
        with pytest.raises(ValueError, match="finite"):
            smith_normal_form(mat)

    def test_radius_below_limit_is_exact(self):
        lat = IntegerLattice(np.diag([2 ** 30, 2 ** 30]))
        assert successive_minima(lat).lambda_sq == (2 ** 60, 2 ** 60)

    def test_gram_beyond_float_is_reduced_exactly(self):
        # (2^27 + 1)^2 + 1 > 2^53: the float Gram matrix is not the exact
        # one; the exactly reduced basis (1, 1), (2^(e-1), -2^(e-1)) is
        # enumerated instead
        for e in range(27, 31):
            lat = IntegerLattice(np.array([[2 ** e, 2 ** e + 1], [0, 1]]))
            assert sorted(map(tuple, enumerate_shorter_than(lat, 2).tolist())) == \
                [(-1, -1), (1, 1)]

    def test_failed_cholesky_basis_is_reduced_exactly(self):
        # an exact, float-representable Gram matrix whose float Cholesky
        # factorization fails though the basis is nonsingular: a basis of Z^2
        lat = IntegerLattice(np.array([[2 ** 20, 2 ** 20 - 1], [1, 1]]))
        assert sorted(map(tuple, enumerate_shorter_than(lat, 2).tolist())) == Z2_BALL_2

    def test_reduced_gram_beyond_float_raises_capacity_error(self):
        # reduction leaves diag(2^27 + 1, 2^27 + 1) as it is, and its Gram
        # matrix is still not float-exact
        lat = IntegerLattice(np.diag([2 ** 27 + 1, 2 ** 27 + 1]))
        with pytest.raises(CapacityError, match="floats"):
            enumerate_shorter_than(lat, 2 ** 55)

    def test_gram_within_float_is_exact(self):
        lat = IntegerLattice(np.array([[2 ** 26, 2 ** 26 + 1], [0, 1]]))
        pts = sorted(tuple(int(v) for v in p) for p in enumerate_shorter_than(lat, 2))
        assert pts == [(-1, -1), (1, 1)]


def _skew(b, rng, until_float_gram=False):
    """B U for a unimodular U of random column moves c_j += f c_i,
    |f| <= 2^12: 3k moves, or, with ``until_float_gram``, moves until the
    Gram matrix of B U first leaves the floats."""
    b, k = b.astype(object), len(b)
    for _ in itertools.count() if until_float_gram else range(3 * k if k > 1 else 0):
        if until_float_gram and any(float(x) != x for x in (b.T @ b).flat):
            return b
        i, j = rng.choice(k, size=2, replace=False)
        b[:, j] += int(rng.integers(-(1 << 12), (1 << 12) + 1)) * b[:, i]
    return b


class TestExactReduction:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_integral_lll_is_reduced_and_spans_the_lattice(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            small = rng.integers(-9, 10, size=(k, k))
            if int_det(small) == 0:
                continue
            b, d = _integral_lll(_skew(small, rng).T.tolist())
            # the same lattice: a unimodular change of basis
            assert abs(int_det(np.array(b, dtype=object))) == abs(int_det(small))
            assert index_in_superlattice(IntegerLattice(np.array(b, dtype=np.int64).T),
                                         IntegerLattice(small)) == 1
            # exact Gram-Schmidt: size-reduced, Lovasz with delta = 3/4, and
            # d[i] the Gram determinant of the first i vectors
            star, norms = [], []
            for i, v in enumerate(b):
                mus = [Fraction(sum(x * y for x, y in zip(v, w)), nw) for w, nw in zip(star, norms)]
                assert all(abs(mu) <= Fraction(1, 2) for mu in mus)
                w = [Fraction(x) - sum(mu * s_[t] for mu, s_ in zip(mus, star))
                     for t, x in enumerate(v)]
                star.append(w)
                norms.append(sum(x * x for x in w))
                if i:
                    assert Fraction(3, 4) * norms[i - 1] <= norms[i] + mus[-1] ** 2 * norms[i - 1]
                gram_i = np.array([[sum(x * y for x, y in zip(u_, v_)) for v_ in b[:i + 1]]
                                   for u_ in b[:i + 1]], dtype=object)
                assert d[i + 1] == int_det(gram_i)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shortest_shell_past_float_gram_matches_a_reduced_basis(self, k):
        # the same lattice on a skewed basis whose Gram matrix floats cannot
        # hold: its shortest shell used to raise CapacityError
        rng = np.random.default_rng(10 + k)
        for _ in range(15):
            small = 2 * rng.integers(-3, 4, size=(k, k))
            if int_det(small) == 0:
                continue
            lat = IntegerLattice(_skew(small, rng, until_float_gram=True).astype(np.int64))
            assert sorted(map(tuple, enumerate_shorter_than(lat, 4).tolist())) == sorted(
                map(tuple, enumerate_shorter_than(IntegerLattice(small), 4).tolist()))
            assert shortest_shell(lat) == shortest_shell(IntegerLattice(small))

    def test_minima_reduce_the_basis_once(self, monkeypatch):
        # the gate reduces this basis at every radius the minima double to;
        # the reduced basis does not depend on the radius, so one LLL serves
        # them all (it ran 7 times, once per radius)
        n = 10 ** 6
        b = np.zeros((4, 4), dtype=np.int64)
        b[:2, :2] = [[n, n + 1], [n - 1, n]]
        b[2:, 2:] = [[3, 1], [1, 5]]
        calls = []
        real = lattice._integral_lll
        monkeypatch.setattr(lattice, "_integral_lll", lambda v: calls.append(v) or real(v))
        minima = successive_minima(IntegerLattice(b)).lambda_sq
        assert len(calls) == 1
        small = np.diag([1, 1, 1, 1]).astype(np.int64)
        small[2:, 2:] = [[3, 1], [1, 5]]
        assert minima == successive_minima(IntegerLattice(small)).lambda_sq == (1, 1, 10, 20)
        assert len(calls) == 1  # the reduced basis is kept with its lattice

    @pytest.mark.parametrize("e", [14, 17, 20, 24])
    def test_skewed_basis_of_z2_is_reduced_first(self, e):
        # [[N, N - 1], [N + 1, N]] spans Z^2; enumerated in floats at r = 2
        # it lost all but +-(1, 1) (N = 2^20) or failed its Cholesky factor
        n = 2 ** e
        lat = IntegerLattice(np.array([[n, n - 1], [n + 1, n]]))
        assert sorted(map(tuple, enumerate_shorter_than(lat, 2).tolist())) == Z2_BALL_2
        assert shortest_shell(lat) == (1, 2) and is_well_rounded(lat)
        # the minima start from the reduced basis, not from a 2^(2e+1) column
        assert successive_minima(lat).lambda_sq == (1, 1)

    def test_huge_last_minimum_is_cut(self):
        # diag(2, 2, 2 (2^40 + 1)): the reduced basis keeps its long last
        # vector, whose Gram-Schmidt norm exceeds the radius, so it is dropped
        lat = IntegerLattice(np.diag([2, 2, 2 * (2 ** 40 + 1)]))
        assert shortest_shell(lat) == (4, 2)
        # a Hermite form of a large index: its short vectors 2 (a, b, -5a - 7b)
        # lie in one plane, and anything off it is longer than n
        n = 999983000003
        lat = IntegerLattice(2 * np.array([[1, 0, 0], [0, 1, 0], [n - 5, n - 7, n]]))
        norms = collections.Counter(4 * (a * a + b * b + (5 * a + 7 * b) ** 2)
                                    for a in range(-30, 31) for b in range(-30, 31) if a or b)
        l1 = min(norms)
        assert (l1, norms[l1]) == (24, 2)  # +-(1, -1, 2)
        assert shortest_shell(lat) == (24, 1)


def _oracle_shell(basis):
    """(lambda_1^2, rank, size) of the shortest shell of the lattice of
    ``basis`` from brute-forced points, the rank exact in sympy and the size
    counting one point of each +-pair; None where the oracle's box is too
    big."""
    sympy = pytest.importorskip("sympy")
    r = min(int((basis.astype(object) ** 2).sum(axis=0).min()),
            lattice._minkowski_radius_sq(len(basis), abs(int_det(basis))))
    pts = brute_force_points(basis, r, max_box=200_000)
    if pts is None:
        return None
    l1 = min(sum(v * v for v in p) for p in pts)
    shell = [p for p in pts if sum(v * v for v in p) == l1]
    return l1, sympy.Matrix(shell).rank(), len(shell) // 2


@st.composite
def shell_stacks(draw):
    """A stack of up to 5 lattices, each with its oracle :func:`_oracle_shell`:
    small bases as drawn, on skewed bases the gate reduces, with a long
    vector the reduced head drops, and 2^20 D U, whose shells of two pairs
    or more pass the int64 guard of the elimination."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lats, oracles = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["plain", "skewed", "narrow", "scaled"]))
        small = draw(small_bases())
        if kind == "scaled":  # D U with D = diag(1 or 2), U unimodular: shells of many pairs
            k = len(small)
            small = np.diag(rng.integers(1, 3, size=k)) @ (
                np.eye(k, dtype=np.int64) + np.tril(rng.integers(-1, 2, size=(k, k)), -1))
        oracle = _oracle_shell(small)
        assume(oracle is not None)
        if kind == "skewed" and len(small) > 1:
            basis = _skew(small, rng, until_float_gram=True)
        elif kind == "narrow":  # a coordinate of length 2^40 + 1: floats cannot hold its Gram
            k = len(small)
            basis = np.zeros((k + 1, k + 1), dtype=np.int64)
            basis[:k, :k], basis[k, k] = small, 2 ** 40 + 1
        elif kind == "scaled":
            basis, oracle = small * 2 ** 20, (oracle[0] * 2 ** 40, *oracle[1:])
        else:
            basis = small
        lats.append(IntegerLattice(np.array(basis, dtype=np.int64)))
        oracles.append(oracle)
    return lats, oracles


class TestShortestShells:
    @settings(max_examples=60, deadline=None)
    @given(stack=shell_stacks())
    def test_random_stacks_against_brute_force(self, stack):
        lats, oracles = stack
        # Hadamard: the elimination of a shell of size m holds l1^min(m, k)
        past_guard = sum(l1 ** min(size, lat.k) >= 1 << 62 for lat, (l1, _, size) in
                         zip(lats, oracles))
        if len(lats) - past_guard == 1:  # a lone shell within the guard is not stacked
            past_guard += 1
        expected = [(l1, rank) for l1, rank, _ in oracles]
        ranked = []
        real = lattice.independent_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "independent_rows",
                          lambda rows, limit=None: ranked.append(rows) or real(rows, limit))
            assert lattice.shortest_shells(lats) == expected
        assert len(ranked) == past_guard  # those shells alone take Python integers
        assert [shortest_shell(lat) for lat in lats] == expected

    def test_shells_past_the_guard_are_ranked_on_python_integers(self):
        lats = [IntegerLattice(2 ** e * np.eye(3, dtype=np.int64)) for e in (10, 11, 20, 9)]
        ranked = []
        real = lattice.independent_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "independent_rows",
                          lambda rows, limit=None: ranked.append(rows) or real(rows, limit))
            # 2^20 I_3: 2^120 past 2^62; 2^11 I_3: 2^66, also past; 2^10 I_3
            # and 2^9 I_3 are not, and are stacked
            assert lattice.shortest_shells(lats) == [(2 ** 20, 3), (2 ** 22, 3), (2 ** 40, 3),
                                                     (2 ** 18, 3)]
            assert len(ranked) == 2
            # a lone shell within the guard is ranked on Python integers too
            assert lattice.shortest_shells(lats[:1]) == [(2 ** 20, 3)]
            assert len(ranked) == 3
            stacked = []
            patch.setattr(lattice, "_bareiss",
                          lambda a, cols, real=lattice._bareiss: stacked.append(len(a))
                          or real(a, cols))
            assert lattice.shortest_shells(lats[:1] + lats[3:]) == [(2 ** 20, 3), (2 ** 18, 3)]
        assert len(ranked) == 3 and stacked == [2]

    @settings(max_examples=40, deadline=None)
    @given(bases=st.lists(small_bases(), min_size=2, max_size=4), cap=st.integers(1, 40))
    def test_cap_raises_as_for_each_lattice_alone(self, bases, cap):
        lats = [IntegerLattice(b) for b in bases]

        def outcome(f):
            try:
                return f()
            except CapacityError as exc:
                return str(exc)

        alone = [outcome(lambda: shortest_shell(lat, cap)) for lat in lats]
        errors = [a for a in alone if isinstance(a, str)]
        assert outcome(lambda: lattice.shortest_shells(lats, cap)) == (
            errors[0] if errors else alone)

    def test_a_stack_may_pass_the_cap_its_lattices_keep(self):
        # each lattice keeps its own cap: together they hold more candidates
        lats = [builtin_sublattice(name) for name in ["L'1", "L'2", "L'3", "M1", "M2", "M3"]]
        shells = [shortest_shell(lat) for lat in lats]
        cap = 1
        while True:
            try:
                [shortest_shell(lat, cap) for lat in lats]
                break
            except CapacityError:
                cap += 1
        assert lattice.shortest_shells(lats, cap) == shells
        with pytest.raises(CapacityError, match=f"cap of {cap - 1} points"):
            lattice.shortest_shells(lats, cap - 1)

    def test_empty_stack(self):
        assert lattice.shortest_shells([]) == []


class TestElimination:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 5), (6, 4), (9, 8)])
    def test_rank_of_rectangular_stacks(self, shape):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(sum(shape))
        a = rng.integers(-3, 4, size=(200, *shape))
        a[::4, :, 1:] = 0  # rank 1 at most, and zero columns to skip
        a[1::5, 0] = a[1::5, -1]  # a repeated row
        a[2::7] *= rng.integers(0, 2, size=(1, 1, shape[1]))  # zero columns at random
        a[3::9] = 0
        expected = [sympy.Matrix(m.tolist()).rank() for m in a]
        rank, _ = lattice._bareiss(a.copy(), shape[1])
        assert rank.tolist() == expected
