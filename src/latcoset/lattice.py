"""Lattice primitives: Gram/volume, enumeration, the shortest shell,
successive minima, well-roundedness, sublattice index, Smith normal form
and coset labels.

``IntegerLattice`` wraps a square nonsingular integer basis, and every
derived quantity (determinant, index, Smith form, coset labels, lambda_1^2,
the shortest shell's rank, squared minima, well-roundedness) is computed
with exact arbitrary-precision integer arithmetic; the minima and
well-roundedness are defined for integer lattices only.  ``RealLattice``
wraps a real basis and serves the Gram matrix, the volume and enumeration,
whose radius test takes relative tolerance ``REL_TOL``.

Enumeration lists one point of each pair x, -x, and the library's own
callers read only quantities even in x; ``enumerate_shorter_than`` appends
the negations.  Enumeration caps count points of both signs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Union

import numpy as np

from .errors import CapacityError, NotASublattice, SingularMatrix
from .workspace import workspace

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
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
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


def _bareiss(a: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of each matrix
    of the int64 stack ``a`` (b, m, w), in place, pivoting in its first
    ``cols`` columns: (rank of those columns, last pivot) per matrix.

    Step s keeps a nonzero diagonal entry as its pivot.  Where the entry is
    0 it takes the first nonzero entry of the trailing block (rows s..,
    columns s..cols-1) column by column, its row and column swapped into
    place, which is the first nonzero entry below it when column s has one.
    Where none is left the matrix's rank is s: it is cleared and goes on
    with pivot 1, so its entries stay 0.  Every entry stays a minor of the
    row- and column-permuted matrix and every product one of two such
    minors, which the caller bounds within int64.  On [M | I] with M square
    and nonsingular no column moves, the last pivot is +-det M and the right
    block +-adj(M), the sign that of the row permutation.
    """
    b, m = a.shape[:2]
    steps = min(m, cols)
    rank = np.full(b, steps)
    prev = np.ones((b, 1, 1), dtype=np.int64)
    for s in range(steps):
        zero = (a[:, s, s] == 0).nonzero()[0]
        if len(zero):  # the first nonzero entry of the trailing block, column by column
            held = (a[zero, s:, s:cols] != 0).transpose(0, 2, 1).reshape(len(zero), -1)
            first = held.argmax(axis=1)
            c, r = np.divmod(first, m - s)
            moved = c.nonzero()[0]
            if len(moved):
                f, c = zero[moved], s + c[moved]
                a[f, :, s], a[f, :, c] = a[f, :, c], a[f, :, s]
            moved = r.nonzero()[0]
            if len(moved):
                f, r = zero[moved], s + r[moved]
                a[f, s], a[f, r] = a[f, r], a[f, s]
            end = zero[~held[np.arange(len(zero)), first]]
            if len(end):
                rank[end] = np.minimum(rank[end], s)
                a[end] = 0
                a[end, s, s] = 1
        row = a[:, s, s:].copy()
        p = row[:, :1, None]
        a[:, :, s:] = (p * a[:, :, s:] - a[:, :, s, None] * row[:, None]) // prev
        a[:, s, s:] = row
        prev = p
    return rank, prev[:, 0, 0]


def _integral_lll(vectors: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """LLL-reduce (delta = 3/4) independent integer vectors exactly, on
    Python integers: de Weger's integral LLL (Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 2.6.7).

    Returns the reduced vectors, which span the same lattice, and d with
    d[i] the Gram determinant of the first i of them, so the i-th
    Gram-Schmidt vector has squared norm d[i] / d[i - 1].
    """
    b = [None] + [list(v) for v in vectors]  # 1-based, as in Cohen
    n = len(vectors)
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]  # lam[k][j] = d[j] mu_kj

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])  # nearest integer
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        new = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - mu * t) // d[k - 1]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k]
        d[k - 1] = new

    if n:
        d[1] = dot(b[1], b[1])
    k, kmax = 2, 1
    while k <= n:
        if k > kmax:  # Gram-Schmidt data of the next vector
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:  # Lovasz fails
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return b[1:], d


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

    Columns of ``B`` generate the lattice.  ``det``, the exact determinant of
    the basis matrix, is computed on construction and must be nonzero.
    """

    B: np.ndarray
    det: int = field(init=False, repr=False)

    def __post_init__(self):
        rows = _as_int_rows(self.B)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ValueError("basis must be square")
        if any(not _INT64_MIN <= v <= _INT64_MAX for r in rows for v in r):
            raise ValueError("basis entries must fit in int64, [-2^63, 2^63)")
        det = int_det(rows)
        if det == 0:
            raise SingularMatrix("integer basis has determinant zero")
        arr = np.array(rows, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "B", arr)
        object.__setattr__(self, "det", det)

    @property
    def k(self) -> int:
        return self.B.shape[0]

    @cached_property
    def _reduced(self) -> tuple[list[list[int]], list[int]]:
        """:func:`_integral_lll` of the basis columns, run once: the reduced
        basis does not depend on the radius its head is cut at."""
        return _integral_lll(self.B.T.tolist())

    @cached_property
    def smith(self) -> "SmithDecomposition":
        return smith_normal_form(self.B)

    @cached_property
    def labels(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`label_operator` of the lattice, computed once; read-only."""
        u, d = label_operator(self)
        u.setflags(write=False)
        d.setflags(write=False)
        return u, d

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
        # type(...) is int: JSON true and false load as bool, a subclass of int
        if type(k) is not int:
            raise ValueError("k must be an integer")
        if (not isinstance(cols, list) or any(not isinstance(c, list) for c in cols)
                or len(cols) != k or any(len(c) != k for c in cols)):
            raise ValueError("basis must be a square k x k matrix")
        if any(type(v) is not int for c in cols for v in c):
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

#: most candidates one level of one enumeration block expands at once: a
#: larger level is split into contiguous slices of its partial vectors,
#: taken one at a time, so an enumeration's memory is flat in its radius
_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class _Runs:
    """One block of a layered Fincke-Pohst enumeration stopped at its last
    level (coordinate 0): partial vectors z_p = (z_1, ..., z_{s-1}) that
    survive levels s-1 .. 1, and the run lo, lo + 1, ..., lo + count - 1
    of z_0 values each allows by the float radius test's interval.

    ``Z`` holds one partial vector per column, z_{s-1} in row 0.  A
    lattice's zero partial vector is its first column, in the first block
    that holds that lattice, and its run starts at z_0 = 0.  ``q`` and
    ``proj`` are the float partial norms and level-0 offsets, and ``norms``
    the exact partial norms ||B z_p||^2 when the enumeration carried them.
    ``lat`` is the lattice of each column in its stack, and ``r00`` and
    ``bound`` are that lattice's level-0 factor and radius bound: arrays,
    or numbers where every column is of one lattice (:func:`_at`).  Where
    level 0 is wide (:func:`_level_array`), the arrays are views of its
    workspaces, valid until the enumeration is advanced.
    """

    Z: np.ndarray
    lo: np.ndarray
    counts: np.ndarray
    q: np.ndarray
    proj: np.ndarray
    r00: float | np.ndarray
    bound: float | np.ndarray
    lat: int | np.ndarray
    norms: np.ndarray | None = None


def _at(x, idx):
    """The entries ``idx`` of an array of one entry per column of an
    enumeration; a number, which stands for every column, as it is.  A lone
    lattice's columns carry its index, factors and bounds as numbers, so its
    enumeration runs on scalars, without the per-column gathers of a
    stack."""
    return x[idx] if isinstance(x, np.ndarray) else x


#: enumeration levels narrower than this take fresh arrays: at that size a
#: workspace call costs more than the allocation it saves
_WIDE = 512


def _level_array(name: str, level, shape, dtype=float) -> np.ndarray:
    """An array of ``shape`` for enumeration level ``level``, whose columns
    run along the last axis: for a level of ``_WIDE`` columns or more a
    view of the workspace (``name``, ``level``), valid until that key is
    asked for again; a fresh array for a narrower level, or no level."""
    if level is not None and shape[-1] >= _WIDE:
        return workspace((name, level), shape, dtype)
    return np.empty(shape, dtype)


def _grow(Z, q, proj, rii, lo, counts, bound, level=None):
    """Extend every partial vector by each value of its run that passes the
    float radius test: (grown Z, its partial norms, parent column and new
    coefficient of each grown column).  ``rii`` and ``bound`` are per
    column (:func:`_at`).  The grown Z and its norms are arrays of
    ``level`` (:func:`_level_array`), fresh with no level."""
    # ndarray methods: the np.* wrappers cost ~0.5 us a call on small levels
    rep = np.arange(len(q)).repeat(counts)
    zi = np.arange(len(rep)) + (lo - (counts.cumsum() - counts)).repeat(counts)
    t = _at(rii, rep) * zi + proj[rep]
    qn = q[rep] + t * t
    keep = (qn <= _at(bound, rep)).nonzero()[0]
    rep, zi = rep[keep], zi[keep]
    grown = _level_array("fp.Z", level, (len(Z) + 1, len(keep)), np.int64)
    # the indices are in range; "raise" would copy through a buffer
    np.take(Z, rep, axis=1, out=grown[:-1], mode="clip")
    grown[-1] = zi
    qn = qn.take(keep, out=_level_array("fp.q", level, keep.shape), mode="clip")
    return grown, qn, rep, zi


def _slices(counts: np.ndarray) -> list[slice]:
    """Contiguous column slices holding at most ``_BLOCK`` candidates each,
    given each column's count; a column that alone holds more is a slice of
    its own."""
    ends = counts.cumsum()
    parts, a = [], 0
    while a < len(ends):
        base = ends[a - 1] if a else 0
        b = max(int(ends.searchsorted(base + _BLOCK, side="right")), a + 1)
        parts.append(slice(a, b))
        a = b
    return parts


def _fincke_pohst_runs(g: np.ndarray, r_sq, cap: int, gram=None):
    """Levels s-1 .. 1 of the layered Fincke-Pohst enumeration, for each
    lattice of a stack, of one z != 0 of each +-pair with z^T g z <= r_sq
    (+ slack), the one whose last nonzero entry is positive, and the z_0
    run each surviving partial vector allows at level 0: an iterator of
    :class:`_Runs` blocks, which come lazily.

    ``g`` stacks the lattices' Gram matrices (L, s, s), one basis width for
    all, and ``r_sq`` holds their squared radii.  Each lattice keeps its own
    Cholesky factor, taken on the call (LinAlgError where one fails),
    radius, zero partial vector, where its half of the enumeration starts,
    and cap: one enumeration of the stack lists each lattice's points as
    its own enumeration would, lattice by lattice, and raises where one of
    them alone would.  Every partial vector carries its lattice's index
    (``_Runs.lat``), and its row products are formed with its lattice's
    rows; in a stack of one, one index stands for every partial vector and
    one row product serves them all (:func:`_at`).  (A stack of several
    forms its row products per column, so a candidate within an ulp of the
    float radius test could fall the other way than alone; the integer
    callers keep points by their exact norms.)

    Each level runs breadth-first over its partial vectors.  Where a level
    holds more than ``_BLOCK`` candidates, its partial vectors are split
    into contiguous slices that are grown and descended one at a time, so
    the blocks list the paths in the same lexicographic order as one
    breadth-first pass would.  The cap counts each lattice's candidates of
    each level over all blocks, the runs included: they hold ``total``
    candidates of the half, 2 total - 1 of the full enumeration.  A larger
    cap costs time, not memory.

    Given ``gram``, B^T B of each integer basis B computed in int64 (L, s, s),
    the exact norm of each partial vector x is carried as ``proj`` is:
    ||x + z_i b_i||^2 = ||x||^2 + z_i (2 <x, b_i> + z_i ||b_i||^2), with one
    int64 row product for <x, b_i> per level.  int64 sums and products wrap
    modulo 2^64, which commutes with both, so every carried norm, and every
    norm built from them, is exact modulo 2^64 however far its terms pass
    int64 on the way (as they do for long basis columns), and exact outright
    when below 2^63.

    A level of ``_WIDE`` partial vectors or more forms its arrays in
    workspaces (:func:`_level_array`): the level's float temporaries under
    one key, which each pass reads before it grows or descends, and the
    arrays a level keeps while its slices are descended (its Z, norms,
    projections, runs) under keys of that level, which no deeper level
    takes.  So a block of a wide level 0 holds views, valid until the
    iterator is advanced: a consumer reads each block before it asks for
    the next, as :func:`_coefficients` and the bound do, and two of these
    iterators are not advanced in turn.  At the bound's radius (golden
    L'1-L'3, R = 128) the workspaces hold about 1.2 MB between calls.
    """
    n_lat, s = g.shape[:2]
    R = np.linalg.cholesky(g).transpose(0, 2, 1)  # upper triangular, positive diagonal
    bounds = np.array([r + 1e-9 * max(r, 1.0) for r in map(float, r_sq)])
    seen = np.zeros((s, n_lat), dtype=np.int64)  # candidates of each level and lattice so far

    def row(mat, i, Z, lat):  # <row i of each column's matrix past the diagonal, the column>
        rows = mat[lat, i, i + 1:]
        if rows.ndim == 2:
            return np.einsum("nj,jn->n", rows[:, ::-1], Z)
        if mat.dtype == Z.dtype or Z.shape[1] < _WIDE:
            return rows[::-1] @ Z
        # the float copy of Z that matmul would make, in a workspace
        zf = workspace("fp.Zf", Z.shape)
        zf[...] = Z
        return np.matmul(rows[::-1], zf, out=_level_array("fp.proj", i, Z.shape[1:]))

    def grow(i, Z, q, proj, rii, bound, lo, counts, norms, lat, zeros):
        # the partial vectors of level i - 1; a zero partial vector's first
        # child (z_i = 0) is its level's zero partial vector
        grown, qn, rep, zi = _grow(Z, q, proj, rii, lo, counts, bound, i - 1)
        if norms is not None:
            gii = _at(gram[lat, i, i], rep)
            norms = norms[rep] + zi * (2 * row(gram, i, Z, lat)[rep] + gii * zi)
        return grown, qn, norms, _at(lat, rep), rep.searchsorted(zeros)

    def descend(i, Z, q, norms, lat, zeros):
        # Z holds the coefficients chosen at levels s-1 .. i + 1, one row per
        # level (most significant first) and one column per partial vector,
        # its lattice's columns together and in stack order; q holds the
        # accumulated squared norm.  ``zeros`` indexes the columns that are
        # their lattice's zero partial vector (a few, whatever the level's
        # size)
        while len(q):  # a slice whose candidates all fail ends here
            proj = row(R, i, Z, lat)
            rii, bound = R[lat, i, i], bounds[lat]
            # every q passed its own bound in _grow, so bound - q >= 0; and as
            # half >= 0 the interval's ends are ordered (rounding is
            # monotone), so hi >= lo - 1 and no count is negative
            if len(q) < _WIDE:
                half = np.sqrt(bound - q) / rii
                center = proj / -rii  # -proj / rii exactly, one array operation fewer
                lo = np.ceil(center - half - 1e-12).astype(np.int64)
                counts = np.floor(center + half + 1e-12).astype(np.int64)  # hi
            else:  # the same, in workspaces
                half, center, edge = workspace("fp.level", (3, len(q)))
                np.sqrt(np.subtract(bound, q, out=half), out=half)
                half /= rii
                np.divide(proj, -rii, out=center)
                lo, counts = _level_array("fp.runs", i, (2, len(q)), np.int64)
                np.subtract(center, half, out=edge)
                edge -= 1e-12
                np.ceil(edge, out=lo, casting="unsafe")
                np.add(center, half, out=edge)
                edge += 1e-12
                np.floor(edge, out=counts, casting="unsafe")
            lo[zeros] = 0  # a zero partial vector (center 0, hi >= 0): one sign of each pair
            counts -= lo
            counts += 1
            total = int(counts.sum())
            if isinstance(lat, np.ndarray):
                seen[i] += np.bincount(lat, counts, n_lat).astype(np.int64)
                worst = seen[i].max()
            else:
                seen[i, lat] += total
                worst = seen[i, lat]
            if 2 * int(worst) - 1 > cap:
                raise CapacityError(
                    f"enumeration exceeded the cap of {cap} points; "
                    "reduce the radius or raise the cap")
            parts = [slice(None)] if total <= _BLOCK else _slices(counts)
            if i == 0:
                for part in parts:
                    yield _Runs(Z[:, part], lo[part], counts[part], q[part], proj[part],
                                _at(rii, part), _at(bound, part), _at(lat, part),
                                None if norms is None else norms[part])
                return
            if len(parts) == 1:  # one block: stay breadth-first
                Z, q, norms, lat, zeros = grow(i, Z, q, proj, rii, bound, lo, counts, norms,
                                               lat, zeros)
                i -= 1
                continue
            for part in parts:
                a, b = part.start, part.stop
                child = grow(i, Z[:, part], q[part], proj[part], _at(rii, part), _at(bound, part),
                             lo[part], counts[part], None if norms is None else norms[part],
                             _at(lat, part), zeros[(zeros >= a) & (zeros < b)] - a)
                yield from descend(i - 1, *child)
            return

    norms = None if gram is None else np.zeros(n_lat, dtype=np.int64)
    return descend(s - 1, np.zeros((0, n_lat), dtype=np.int64), np.zeros(n_lat), norms,
                   np.arange(n_lat) if n_lat > 1 else np.intp(0), np.arange(n_lat))


def _coefficients(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The level-0 expansion of an enumeration's blocks: one coefficient row
    per point that passes the float radius test, in natural order, and the
    lattice of each row.  Each lattice's first row is its zero vector."""
    grown, lats = [], []
    for b in blocks:
        Z, _, rep, _ = _grow(b.Z, b.q, b.proj, b.r00, b.lo, b.counts, b.bound)
        grown.append(Z)
        lats.append(np.full(len(rep), _at(b.lat, rep)))
    return np.concatenate(grown, axis=1)[::-1].T, np.concatenate(lats)


def _reduced_head(lat: IntegerLattice, r_sq: int) -> tuple[np.ndarray, int]:
    """The head of the exactly LLL-reduced basis of ``lat`` (:func:`_integral_lll`,
    run once per lattice), which spans its points of norm <= r_sq, and the
    head's Gram determinant.

    A point's last nonzero coefficient in the reduced basis picks a
    Gram-Schmidt vector no longer than the point, so trailing vectors but the
    first whose Gram-Schmidt norm exceeds r_sq take coefficient 0 and are
    dropped.  CapacityError is raised when a head column's norm reaches 2^62.
    """
    b, d = lat._reduced
    j = len(b)
    while j > 1 and d[j] > r_sq * d[j - 1]:
        j -= 1
    if any(sum(x * x for x in v) >= _INT64_NORM_LIMIT for v in b[:j]):
        raise CapacityError("a reduced basis vector is beyond exact int64 norms (2^62)")
    return np.array(b[:j], dtype=np.int64).T, d[j]


def _enumeration_basis(lat: IntegerLattice, r_sq) -> np.ndarray:
    """The basis an integer enumeration of ``lat`` to squared radius r runs
    in: ``lat.B`` where floats keep every point, else the head of its exactly
    reduced basis (:func:`_reduced_head`), which holds the same points;
    CapacityError where that fails too, or r reaches 2^62 (int64 norms).

    Floats keep every point when G = B^T B is float-exact (:func:`_float_gram`)
    and the squared orthogonality defect delta^2 = prod_i G_ii / det G passes
    an exact test.  For real z, Cramer's rule and Hadamard's inequality give
    |z_i| <= delta ||B z|| / ||b_i||, so sum_i |z_i| ||b_i|| <= k delta ||B z||.
    The float Cholesky factor has R^T R = G + E with
    |E_ij| <= (k + 1) eps ||b_i|| ||b_j|| (Higham, *Accuracy and Stability*,
    Thm 10.3), and a tested partial norm is the least z^T (G + E) z over real
    leading coefficients: it moves by (k + 1) k^2 delta^2 eps r to first
    order, plus O(k eps r) in the interval arithmetic of
    :func:`_fincke_pohst_runs`.  Doubled as in ``decoder.py``, that must stay
    within the margin the enumeration adds: 1e-9 max(r, 1), plus 1/2 for
    integer norms.
    """
    if r_sq >= _INT64_NORM_LIMIT:
        raise CapacityError(f"squared radius {r_sq} is beyond exact int64 norms (2^62)")
    basis, gram_det = lat.B, lat.det * lat.det
    while True:
        g, k = _float_gram(basis), basis.shape[1]
        # delta^2 <= margin / error, exactly: both floats as integer ratios
        p, q = (1e-9 * max(r_sq, 1.0) + 0.5).as_integer_ratio()
        u, v = (2 * (k + 1) * k * k * 2.0 ** -52 * r_sq).as_integer_ratio()
        if g is not None and math.prod(int(x) for x in g.diagonal()) * u * q <= p * v * gram_det:
            return basis
        if basis is not lat.B:
            raise CapacityError("floats cannot enumerate the reduced basis exactly")
        basis, gram_det = _reduced_head(lat, math.floor(r_sq))


def _float_gram(basis: np.ndarray) -> np.ndarray | None:
    """The Gram matrix G of integer columns as floats, exactly; None where
    floats cannot hold it.  A diagonal computed below 2^53 is exact, and then
    so is every product and partial sum, as |G_ij| <= max_i G_ii."""
    bf = basis.astype(float)
    if (g := bf.T @ bf).diagonal().max() < 2.0 ** 53:
        return g
    g = basis.astype(object).T @ basis.astype(object)
    return g.astype(float) if all(float(x) == x for x in g.flat) else None


def _integer_runs(bases: np.ndarray, r_sq, cap: int, gram=None):
    """:func:`_fincke_pohst_runs` of the lattices spanned by a stack of bases
    of one shape (L, k, s), as :func:`_enumeration_basis` returns them, each
    to its squared radius in r_sq (+ 1/2: norms are integers, so half a unit
    of float margin loses no shell), carrying exact norms when given
    ``gram`` (L, s, s): an iterator of its blocks."""
    try:
        return _fincke_pohst_runs(np.array([_float_gram(b) for b in bases]),
                                  [float(r) + 0.5 for r in r_sq], cap, gram)
    except np.linalg.LinAlgError as exc:
        raise CapacityError(
            "float Cholesky failed on the exact Gram matrix of a nonsingular basis") from exc


def _half_shorter_than(lat: Lattice, r_sq, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """One point of each +-pair of :func:`enumerate_shorter_than`'s points,
    the one whose last nonzero coefficient is positive; ``cap`` still counts
    both signs."""
    if not r_sq > 0:
        raise ValueError("r_sq must be positive")
    if isinstance(lat, IntegerLattice):
        return _half_in_basis(_enumeration_basis(lat, r_sq)[None], [r_sq], cap)[0]
    if r_sq == math.inf:
        raise ValueError("r_sq must be finite for a real lattice")
    g = gram(lat)
    try:
        # |z_i| <= sqrt(r_sq (G^-1)_ii), and from 2^62 the int64 run bounds
        # of the enumeration could wrap
        if float(r_sq) * float(np.linalg.inv(g).diagonal().max()) >= 2.0 ** 124:
            raise CapacityError(f"squared radius {r_sq} puts coefficients past int64 runs")
        Z = _coefficients(_fincke_pohst_runs(g[None], [float(r_sq)], cap))[0][1:]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("Gram matrix is not positive definite") from exc
    pts = Z @ lat.basis.T
    norms = np.sum(pts * pts, axis=1)
    return pts[norms <= r_sq * (1.0 + REL_TOL)]


def _half_in_basis(bases: np.ndarray, r_sq, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The integer branch of :func:`_half_shorter_than` for a stack of bases
    of one shape (L, k, s), each picked by :func:`_enumeration_basis` at a
    squared radius of its entry of r_sq or more, in one enumeration: the
    points of each lattice in turn, and the lattice of each point."""
    Z, lat = _coefficients(_integer_runs(bases, r_sq, cap))
    ends = [0, *lat.searchsorted(np.arange(1, len(bases))).tolist(), len(Z)]
    pts = np.concatenate([Z[a:b] @ basis.T for a, b, basis in zip(ends, ends[1:], bases)])
    norms = np.einsum("ij,ij->i", pts, pts)
    keep = (norms > 0) & (norms <= np.asarray(r_sq)[lat])  # the zero vectors dropped
    return pts[keep], lat[keep]


def enumerate_shorter_than(lat: Lattice, r_sq, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All nonzero lattice points x with 0 < ||x||^2 <= r_sq, one row per point.

    Both x and -x appear: first one point of each pair, the one whose last
    nonzero basis coefficient is positive, then their negations in the same
    order.  For integer lattices the radius test is exact, in the basis
    :func:`_enumeration_basis` picks; for real lattices it is taken with
    relative tolerance REL_TOL.  Raises ValueError for a radius that is not
    positive, or infinite on a real lattice, and CapacityError when the point count
    would exceed ``cap``, and for an integer lattice when the radius reaches
    2^62, past which exact int64 norms could wrap, or when floats cannot
    carry even its exactly reduced basis; for a real lattice when a
    coefficient bound sqrt(r_sq (G^-1)_ii) reaches 2^62, past which the
    enumeration's int64 runs could wrap.
    """
    half = _half_shorter_than(lat, r_sq, cap)
    return np.concatenate([half, -half])


# ---------------------------------------------------------------------------
# shortest shell, successive minima, well-roundedness (integer lattices)
# ---------------------------------------------------------------------------

def _minkowski_radius_sq(k: int, det: int) -> int:
    """Squared-length bound r with lambda_1^2 <= r for a det-``det`` lattice."""
    bound = (4.0 / math.pi) * math.gamma(k / 2.0 + 1.0) ** (2.0 / k) * float(det) ** (2.0 / k)
    return int(math.ceil(bound))


def _require_integer(lat) -> None:
    if not isinstance(lat, IntegerLattice):
        raise TypeError(f"expected an IntegerLattice, got {type(lat).__name__}")


def _min_column_norm(basis: np.ndarray) -> int:
    return min(sum(x * x for x in col) for col in basis.T.tolist())


def _shell_ranks(shells: list[np.ndarray], l1s: list[int]) -> list[int]:
    """The rank of each shell, rows of one squared norm l1 each, exactly.

    By Hadamard's inequality every t x t minor of such rows is at most
    l1^(t/2) in magnitude, so :func:`_bareiss` keeps every product within
    l1^min(rows, columns) and every entry it forms within int64 while that
    stays below 2^62.  Where two or more shells pass, one elimination of
    their stack, padded with zero rows and columns, ranks them all.  The
    others are ranked on Python integers by :func:`independent_rows`, and so
    is a lone shell: its few rows cost less there than the elimination's
    fixed numpy cost.
    """
    fits = [i for i, (shell, l1) in enumerate(zip(shells, l1s))
            if l1 ** min(shell.shape) < 1 << 62]
    if len(fits) < 2:
        fits = []
    held = set(fits)
    ranks = [None if i in held else len(independent_rows(shell.tolist(), shell.shape[1]))
             for i, shell in enumerate(shells)]
    if fits:
        a = np.zeros((len(fits), max(len(shells[i]) for i in fits),
                      max(shells[i].shape[1] for i in fits)), dtype=np.int64)
        for j, i in enumerate(fits):
            a[j, :shells[i].shape[0], :shells[i].shape[1]] = shells[i]
        for i, rank in zip(fits, _bareiss(a, a.shape[2])[0].tolist()):
            ranks[i] = rank
    return ranks


def shortest_shells(lats, cap: int = ENUMERATION_CAP) -> list[tuple[int, int]]:
    """(lambda_1^2, rank of the lattice vectors of norm lambda_1^2) of each
    lattice, exactly; :func:`shortest_shell` is its batch of one.

    Each lattice is enumerated at the smaller of its shortest basis column's
    squared norm and the ceiling of Minkowski's first-theorem bound, since
    each radius holds a shortest vector, in the basis
    :func:`_enumeration_basis` picks there, with the radius cut to that
    basis's shortest column too.  The basis serves the cut radius r' <= r:
    the gate's error term is linear in r while its margin keeps its 1/2, so a
    basis that passes at r passes at r', and a reduced head taken at
    floor(r) spans every point of norm <= r'.  The lattices whose bases have
    one shape are enumerated together, one :func:`_fincke_pohst_runs` per
    shape, and every shell is ranked in one elimination
    (:func:`_shell_ranks`).  A lattice is well-rounded exactly when its rank
    is k.

    Errors keep the class they would have one by one (CapacityError for
    every enumeration error), though not always the message.  Each lattice
    keeps its own cap, and the lattices before one whose basis cannot be
    enumerated are enumerated before that error is raised; but where several
    lattices fail in enumeration, the error raised is the first met, group
    by group, and a float Cholesky factor that fails fails its whole group.
    """
    picked = []  # (basis, radius) of each lattice
    try:
        for lat in lats:
            _require_integer(lat)
            r = min(_min_column_norm(lat.B), _minkowski_radius_sq(lat.k, abs(lat.det)))
            basis = _enumeration_basis(lat, r)
            picked.append((basis, min(r, _min_column_norm(basis))))
    finally:  # an earlier lattice's enumeration error comes first
        groups = {}
        for i, (basis, _) in enumerate(picked):
            groups.setdefault(basis.shape, []).append(i)
        l1s, shells = [None] * len(picked), [None] * len(picked)
        for members in groups.values():
            pts, owner = _half_in_basis(np.stack([picked[i][0] for i in members]),
                                        [picked[i][1] for i in members], cap)
            norms = np.einsum("ij,ij->i", pts, pts)
            # every lattice holds a point: its radius is lambda_1^2 or more
            least = np.minimum.reduceat(norms, owner.searchsorted(np.arange(len(members))))
            on = norms == least[owner]
            pts, owner = pts[on], owner[on]
            ends = [0, *owner.searchsorted(np.arange(1, len(members))).tolist(), len(pts)]
            for i, l1, a, b in zip(members, least.tolist(), ends, ends[1:]):
                l1s[i], shells[i] = l1, pts[a:b]
    return list(zip(l1s, _shell_ranks(shells, l1s)))


def shortest_shell(lat: IntegerLattice, cap: int = ENUMERATION_CAP) -> tuple[int, int]:
    """(lambda_1^2, rank of the lattice vectors of norm lambda_1^2), exactly:
    :func:`shortest_shells` of the one lattice, one enumeration at the
    smaller of its shortest basis column's squared norm and Minkowski's
    bound.  The lattice is well-rounded exactly when the rank is k."""
    return shortest_shells([lat], cap)[0]


def successive_minima(lat: IntegerLattice, cap: int = ENUMERATION_CAP) -> SuccessiveMinima:
    """Exact squared successive minima via enumeration with growing radius.

    The radius starts at the shortest column's squared norm in the basis of
    :func:`_enumeration_basis` and doubles until the points span the rank.
    A basis that needs reduction is reduced once per lattice, whatever the
    number of doublings.
    """
    _require_integer(lat)
    r = _min_column_norm(_enumeration_basis(lat, _min_column_norm(lat.B)))
    while True:
        pts = _half_shorter_than(lat, r, cap)
        norms = np.sum(pts.astype(np.int64) ** 2, axis=1)
        order = np.argsort(norms, kind="stable")
        minima = [int(norms[order[i]]) for i in independent_rows(pts[order], lat.k)]
        if len(minima) == lat.k:
            return SuccessiveMinima(tuple(minima))
        r = r * 2


def is_well_rounded(lat: IntegerLattice, cap: int = ENUMERATION_CAP) -> bool:
    """True iff the shortest shell spans the lattice's rank (exact)."""
    return shortest_shell(lat, cap)[1] == lat.k


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
    if np.any(coset_labels(sub.B.T, *sup.labels) != 0):
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
            if best is None:  # the trailing block is zero: rank < k
                raise SingularMatrix("matrix is singular")
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
    the number of distinct labels equals |det sub.B|.  Raises ValueError
    for a non-integer coordinate.
    """
    if any(x % 1 for x in t):
        raise ValueError("coset labels need integer coordinates")
    tv = [int(x) for x in t]
    if len(tv) != sub.k:
        raise ValueError("vector length does not match the lattice dimension")
    return tuple(int(x) for x in coset_labels([tv], *sub.labels)[0])
