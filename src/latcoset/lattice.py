"""Lattice primitives: Gram/volume, enumeration, successive minima,
well-roundedness, sublattice index, Smith normal form and coset labels.

Two lattice flavours are supported.  ``IntegerLattice`` wraps a square
nonsingular integer basis and every derived quantity (determinant, index,
Smith form, coset labels, squared minima) is computed with exact
arbitrary-precision integer arithmetic.  ``RealLattice`` wraps a real basis
and uses floating point with relative tolerance ``REL_TOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Union

import numpy as np

from .errors import CapacityError, NotASublattice, SingularMatrix

#: relative tolerance for equality tests on real lattices
REL_TOL = 1e-9

#: default ceiling on the number of points one enumeration may produce
ENUMERATION_CAP = 10_000_000

#: squared radius from which integer enumeration norms could overflow int64
_INT64_NORM_LIMIT = 1 << 62

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


# ---------------------------------------------------------------------------
# exact integer helpers (plain Python ints, no overflow)
# ---------------------------------------------------------------------------

def _as_int_rows(mat) -> list[list[int]]:
    """Copy an array-like of integers into nested lists of Python ints."""
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if arr.dtype.kind not in "iuO":
        if not np.all(arr == np.rint(arr)):
            raise ValueError("matrix entries must be integers")
    return [[int(round(float(x))) if not isinstance(x, (int, np.integer)) else int(x)
             for x in row] for row in arr]


def int_det(mat) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = _as_int_rows(mat)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def independent_rows(rows, limit: int | None = None) -> list[int]:
    """Indices of the rows a greedy scan keeps as linearly independent.

    Each row is reduced against the kept ones by fraction-free integer
    elimination (v <- a v - b w, then divided by the gcd of its entries),
    so it is kept exactly when it is outside their rational span.  The scan
    stops after ``limit`` kept rows.
    """
    echelon = []  # (pivot column, reduced integer row)
    kept = []
    for idx, row in enumerate(rows):
        v = [int(x) for x in row]
        for col, w in echelon:
            if v[col]:
                a, b = w[col], v[col]
                v = [a * x - b * y for x, y in zip(v, w)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            echelon.append((piv, v))
            kept.append(idx)
            if len(kept) == limit:
                break
    return kept


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RealLattice:
    """Full- or partial-rank lattice with real generator columns.

    ``basis`` is an n x s matrix whose columns generate the lattice.  The
    columns must be linearly independent (Gram determinant bounded away from
    zero relative to the column norms).
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d matrix")
        n, s = b.shape
        if s > n:
            raise ValueError("rank cannot exceed the ambient dimension")
        g = b.T @ b
        scale = float(np.prod(np.diag(g))) if s else 1.0
        if not np.isfinite(scale) or np.linalg.det(g) <= REL_TOL * max(scale, 1e-300):
            raise ValueError("basis columns are not linearly independent")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def s(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class IntegerLattice:
    """Full-rank sublattice of Z^k given by a square integer basis matrix.

    Columns of ``B`` generate the lattice.  The determinant must be nonzero;
    this is checked exactly on construction.
    """

    B: np.ndarray

    def __post_init__(self):
        rows = _as_int_rows(self.B)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ValueError("basis must be square")
        if any(not _INT64_MIN <= v <= _INT64_MAX for r in rows for v in r):
            raise ValueError("basis entries must fit in int64, [-2^63, 2^63)")
        if int_det(rows) == 0:
            raise SingularMatrix("integer basis has determinant zero")
        arr = np.array(rows, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "B", arr)

    @property
    def k(self) -> int:
        return self.B.shape[0]

    @cached_property
    def det(self) -> int:
        """Exact determinant of the basis matrix."""
        return int_det(self.B)

    @cached_property
    def smith(self) -> "SmithDecomposition":
        return smith_normal_form(self.B)

    def to_real(self) -> RealLattice:
        return RealLattice(self.B.astype(float))

    def to_json(self) -> str:
        """Serialize as ``{"k": ..., "basis": [...]}`` with column-major basis."""
        cols = [[int(self.B[i, j]) for i in range(self.k)] for j in range(self.k)]
        return json.dumps({"k": self.k, "basis": cols})

    @classmethod
    def from_json(cls, text: str) -> "IntegerLattice":
        data = json.loads(text)
        if not isinstance(data, dict) or not {"k", "basis"} <= data.keys():
            raise ValueError('lattice JSON must be an object {"k": ..., "basis": [...]}')
        k = data["k"]
        cols = data["basis"]
        if (not isinstance(cols, list) or any(not isinstance(c, list) for c in cols)
                or len(cols) != k or any(len(c) != k for c in cols)):
            raise ValueError("basis must be a square k x k matrix")
        if any(not isinstance(v, int) for c in cols for v in c):
            raise ValueError("basis entries must be integers")
        return cls(np.array(cols, dtype=object).T)  # stored column-major


@dataclass(frozen=True)
class SuccessiveMinima:
    """Squared successive minima, nondecreasing, first entry positive."""

    lambda_sq: tuple

    def __post_init__(self):
        ls = tuple(self.lambda_sq)
        if not ls or ls[0] <= 0:
            raise ValueError("first minimum must be positive")
        if any(a > b for a, b in zip(ls, ls[1:])):
            raise ValueError("minima must be nondecreasing")
        object.__setattr__(self, "lambda_sq", ls)

    @property
    def lambda1_sq(self):
        return self.lambda_sq[0]


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U B V = D and d1 | d2 | ... | dk.

    All matrices hold exact Python integers (object dtype)."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> tuple:
        return tuple(int(self.D[i, i]) for i in range(self.D.shape[0]))


Lattice = Union[IntegerLattice, RealLattice]


# ---------------------------------------------------------------------------
# basic quantities
# ---------------------------------------------------------------------------

def gram(lat: Lattice) -> np.ndarray:
    """Gram matrix basis^T basis; exact (object dtype) for integer lattices."""
    if isinstance(lat, IntegerLattice):
        b = lat.B.astype(object)
        return b.T @ b
    return lat.basis.T @ lat.basis


def volume(lat: Lattice):
    """Lattice volume: |det basis| if full rank, sqrt(det Gram) otherwise."""
    if isinstance(lat, IntegerLattice):
        return abs(lat.det)
    b = lat.basis
    if b.shape[0] == b.shape[1]:
        return abs(float(np.linalg.det(b)))
    g = b.T @ b
    return float(np.sqrt(np.linalg.det(g)))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _enumerate_coefficients(basis_f: np.ndarray, r_sq: float, cap: int) -> np.ndarray:
    """All integer coefficient vectors z != 0 with ||B z||^2 <= r_sq (+ slack).

    Layered Fincke-Pohst on the Cholesky factor of the Gram matrix; the
    caller applies the exact (or toleranced) radius filter afterwards.
    """
    g = basis_f.T @ basis_f
    s = g.shape[0]
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("Gram matrix is not positive definite") from exc
    R = chol.T  # upper triangular, positive diagonal
    slack = 1e-9 * max(r_sq, 1.0)
    bound = r_sq + slack

    # Z holds chosen coefficients for levels s-1 .. i (one column per level,
    # most significant first);  q holds the accumulated squared norm.
    Z = np.zeros((1, 0), dtype=np.int64)
    q = np.zeros(1)
    for i in range(s - 1, -1, -1):
        if Z.shape[0] == 0:
            return np.zeros((0, s), dtype=np.int64)
        if Z.shape[1]:
            proj = Z @ R[i, i + 1:][::-1]
        else:
            proj = np.zeros(Z.shape[0])
        rii = R[i, i]
        rem = np.maximum(bound - q, 0.0)
        half = np.sqrt(rem) / rii
        center = -proj / rii
        lo = np.ceil(center - half - 1e-12).astype(np.int64)
        hi = np.floor(center + half + 1e-12).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return np.zeros((0, s), dtype=np.int64)
        if total > cap:
            raise CapacityError(
                f"enumeration exceeded the cap of {cap} points; "
                "reduce the radius or raise the cap")
        rep = np.repeat(np.arange(Z.shape[0]), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        zi = lo[rep] + (np.arange(total) - starts)
        t = rii * zi + proj[rep]
        qn = q[rep] + t * t
        keep = qn <= bound
        zi = zi[keep]
        Z = np.column_stack([Z[rep[keep]], zi]) if Z.shape[1] else zi[:, None]
        q = qn[keep]
    Z = Z[:, ::-1]  # back to natural coordinate order
    return Z[np.any(Z != 0, axis=1)]


def enumerate_shorter_than(lat: Lattice, r_sq, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All nonzero lattice points x with 0 < ||x||^2 <= r_sq, one row per point.

    Both x and -x appear.  For integer lattices the radius test is exact;
    for real lattices it is taken with relative tolerance REL_TOL.  Raises
    CapacityError when the point count would exceed ``cap``, or when an
    integer radius reaches 2^62, past which exact int64 norms could wrap.
    """
    if r_sq <= 0:
        raise ValueError("r_sq must be positive")
    if isinstance(lat, IntegerLattice):
        if r_sq >= _INT64_NORM_LIMIT:
            raise CapacityError(
                f"squared radius {r_sq} is beyond exact int64 norms (2^62)")
        basis_f = lat.B.astype(float)
        Z = _enumerate_coefficients(basis_f, float(r_sq), cap)
        pts = Z @ lat.B.T
        norms = np.sum(pts.astype(np.int64) ** 2, axis=1)
        return pts[norms <= r_sq]
    basis_f = lat.basis
    Z = _enumerate_coefficients(basis_f, float(r_sq), cap)
    pts = Z @ basis_f.T
    norms = np.sum(pts * pts, axis=1)
    return pts[norms <= r_sq * (1.0 + REL_TOL)]


# ---------------------------------------------------------------------------
# successive minima / well-roundedness
# ---------------------------------------------------------------------------

def _sorted_by_norm(pts: np.ndarray, exact: bool):
    if exact:
        norms = np.sum(pts.astype(np.int64) ** 2, axis=1)
    else:
        norms = np.sum(pts * pts, axis=1)
    order = np.lexsort(tuple(pts[:, j] for j in range(pts.shape[1] - 1, -1, -1)) + (norms,))
    return pts[order], norms[order]


def _greedy_minima_float(pts, norms, s):
    basis_rows = []
    minima = []
    for p, nrm in zip(pts, norms):
        v = p.astype(float)
        orig = float(v @ v)
        for b in basis_rows:
            v = v - (v @ b) * b
        res = float(v @ v)
        if res > (REL_TOL ** 2) * max(orig, 1e-300):
            basis_rows.append(v / np.sqrt(res))
            minima.append(float(nrm))
            if len(minima) == s:
                break
    return minima


def successive_minima(lat: Lattice, cap: int = ENUMERATION_CAP) -> SuccessiveMinima:
    """Squared successive minima via enumeration with growing radius.

    The radius starts at the squared norm of the shortest basis column and
    doubles until the enumerated points span the full rank.
    """
    exact = isinstance(lat, IntegerLattice)
    if exact:
        s = lat.k
        cols = lat.B.astype(object)
        r = min(int(sum(int(x) * int(x) for x in cols[:, j])) for j in range(s))
    else:
        if lat.s != lat.n:
            raise ValueError("successive minima require a full-rank lattice")
        s = lat.s
        r = float(min(np.sum(lat.basis ** 2, axis=0)))
    while True:
        pts = enumerate_shorter_than(lat, r, cap=cap)
        if pts.shape[0]:
            spts, norms = _sorted_by_norm(pts, exact)
            if exact:
                minima = [int(norms[i]) for i in independent_rows(spts, s)]
            else:
                minima = _greedy_minima_float(spts, norms, s)
            if len(minima) == s:
                return SuccessiveMinima(tuple(minima))
        r = r * 2


def is_well_rounded(lat: Lattice, cap: int = ENUMERATION_CAP) -> bool:
    """True iff the first and last successive minima coincide.

    Exact comparison for integer lattices, relative tolerance for real ones.
    """
    sm = successive_minima(lat, cap=cap)
    first, last = sm.lambda_sq[0], sm.lambda_sq[-1]
    if isinstance(lat, IntegerLattice):
        return first == last
    return (last - first) <= REL_TOL * last


# ---------------------------------------------------------------------------
# sublattice index and coset labels
# ---------------------------------------------------------------------------

def index_in_superlattice(sub: IntegerLattice, sup: IntegerLattice) -> int:
    """Exact index |sup / sub|; raises NotASublattice if containment fails.

    ``sub`` lies in ``sup`` exactly when every generator of ``sub`` has the
    zero coset label modulo ``sup``; the index is then |det sub| / |det sup|.
    """
    if sub.k != sup.k:
        raise NotASublattice("dimension mismatch between sub- and superlattice")
    if np.any(coset_labels(sub.B.T, *label_operator(sup)) != 0):
        raise NotASublattice(
            "a claimed sublattice generator lies outside the superlattice")
    return abs(sub.det) // abs(sup.det)


def smith_normal_form(mat) -> SmithDecomposition:
    """Smith normal form U B V = D over the integers, exactly.

    D is diagonal with positive entries in a divisibility chain; U and V are
    unimodular.  Raises SingularMatrix for singular input.
    """
    a = _as_int_rows(mat)
    k = len(a)
    if any(len(r) != k for r in a):
        raise ValueError("matrix must be square")
    if int_det(a) == 0:
        raise SingularMatrix("matrix is singular")
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    v = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def swap_rows(m, i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def addmul_row(m, dst, src, f):
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]

    def addmul_col(m, dst, src, f):
        for row in m:
            row[dst] += f * row[src]

    for s in range(k):
        while True:
            # move the smallest nonzero entry of the trailing block to (s, s)
            best = None
            for i in range(s, k):
                for j in range(s, k):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            bi, bj = best
            if bi != s:
                swap_rows(a, s, bi)
                swap_rows(u, s, bi)
            if bj != s:
                swap_cols(a, s, bj)
                swap_cols(v, s, bj)
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
                u[s] = [-x for x in u[s]]
            # clear the rest of column s and row s
            dirty = False
            for r in range(s + 1, k):
                if a[r][s] != 0:
                    q = a[r][s] // a[s][s]
                    addmul_row(a, r, s, -q)
                    addmul_row(u, r, s, -q)
                    dirty = dirty or a[r][s] != 0
            for c in range(s + 1, k):
                if a[s][c] != 0:
                    q = a[s][c] // a[s][s]
                    addmul_col(a, c, s, -q)
                    addmul_col(v, c, s, -q)
                    dirty = dirty or a[s][c] != 0
            if dirty:
                continue
            # divisibility fix-up: pivot must divide the trailing block
            offender = None
            for i in range(s + 1, k):
                for j in range(s + 1, k):
                    if a[i][j] % a[s][s] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(a, s, offender, 1)
            addmul_row(u, s, offender, 1)

    U = np.array(u, dtype=object)
    D = np.array(a, dtype=object)
    V = np.array(v, dtype=object)
    return SmithDecomposition(U=U, D=D, V=V)


def label_operator(sub: IntegerLattice) -> tuple[np.ndarray, np.ndarray]:
    """(U mod d_k, d) of ``sub``'s Smith form, the operator of :func:`coset_labels`.

    Every d_i divides d_k, so labels may be taken from U and t reduced
    modulo d_k.  The arrays are int64 while k * d_k^2 < 2^63, which keeps
    every product sum exact, and Python integers (object dtype) beyond.
    """
    dec = sub.smith
    dk = dec.diagonal[-1]
    dtype = np.int64 if sub.k * dk * dk < 1 << 63 else object
    return (dec.U % dk).astype(dtype), np.array(dec.diagonal, dtype=dtype)


def coset_labels(t, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Residue labels (U t) mod d of the rows of ``t``, one row each.

    ``(u, d)`` comes from :func:`label_operator`.  Two rows get equal labels
    iff their difference lies in the sublattice.
    """
    t = np.asarray(t)
    if t.dtype != np.int64 or u.dtype != np.int64:
        t = t.astype(object)
    return ((t % d[-1]).astype(u.dtype) @ u.T) % d


def coset_label(t, sub: IntegerLattice) -> tuple:
    """Residue label of t modulo the sublattice: (U t) mod diag(D).

    Two vectors get the same label iff their difference lies in ``sub``;
    the number of distinct labels equals |det sub.B|.
    """
    tv = [int(x) for x in t]
    if len(tv) != sub.k:
        raise ValueError("vector length does not match the lattice dimension")
    return tuple(int(x) for x in coset_labels([tv], *label_operator(sub))[0])
