"""Space-time code maps realised as fixed real generator matrices.

The two built-in maps (2x2 quaternionic orthogonal design and the golden-ratio
code) are stored exactly: integer matrices plus an integer multiple of
theta = (1 + sqrt 5)/2, with an irrational normaliser 1/sqrt(2) or 1/sqrt(5)
applied at evaluation time.  Every map is orthonormal (M^T M = I, checked on
construction), so Euclidean geometry in coefficient space transfers unchanged
to Frobenius geometry on codewords: ||X||_F^2 = ||z||^2, exactly an integer
for an integer coefficient vector z.

Vectorization convention (fixed once here): codeword matrices are read
column by column, each complex entry contributing an interleaved
(real, imaginary) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice import IntegerLattice, shortest_shell

#: golden ratio, the only irrational used by the built-in maps
THETA = (1.0 + math.sqrt(5.0)) / 2.0

_ORTHO_TOL = 1e-12

#: rows per slice when min_determinant walks its coefficient grid
_GRID_SLICE = 1 << 18


@dataclass(frozen=True, eq=False)
class PAMAlphabet:
    """Signaling set of the m odd integers in a symmetric interval.

    m must be even; the symbols are {-(m-1), ..., -1, 1, ..., m-1}.
    """

    m: int

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise ValueError("PAM size must be an even integer >= 2")

    @cached_property
    def symbols(self) -> np.ndarray:
        s = np.arange(-(self.m - 1), self.m, 2, dtype=np.int64)
        s.setflags(write=False)
        return s

    @property
    def mean_square(self) -> float:
        """Second moment of a uniform symbol: (m^2 - 1) / 3."""
        return (self.m * self.m - 1) / 3.0


@dataclass(frozen=True, eq=False)
class Codeword:
    """A complex n x T codeword matrix."""

    Z: np.ndarray

    def __post_init__(self):
        z = np.array(self.Z, dtype=complex)
        z.setflags(write=False)
        object.__setattr__(self, "Z", z)

    @property
    def frobenius_sq(self) -> float:
        return float(np.sum(np.abs(self.Z) ** 2))


@dataclass(frozen=True, eq=False)
class STCodeMap:
    """Real 2nT x k generator mapping integer coefficients to codewords.

    The matrix is (int_part + theta_part * THETA) / sqrt(scale_denom_sq),
    stored exactly via the two integer matrices.  It must be orthonormal,
    M^T M = I within ``_ORTHO_TOL``; other maps raise ValueError.
    """

    name: str
    n: int
    k: int
    int_part: np.ndarray
    theta_part: np.ndarray
    scale_denom_sq: int

    def __post_init__(self):
        for field in ("int_part", "theta_part"):
            arr = np.array(getattr(self, field), dtype=np.int64)
            if arr.shape != (2 * self.n * self.n, self.k):
                raise ValueError(f"{field} must be (2 n T) x k")
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)
        if not np.max(np.abs(self.M.T @ self.M - np.eye(self.k))) < _ORTHO_TOL:
            raise ValueError("code map must be orthonormal (M^T M = I)")

    @property
    def T(self) -> int:
        """Channel uses per codeword; square case, equal to n."""
        return self.n

    @cached_property
    def M(self) -> np.ndarray:
        m = (self.int_part + self.theta_part * THETA) / math.sqrt(self.scale_denom_sq)
        m.setflags(write=False)
        return m

    def codeword(self, z) -> Codeword:
        zv = np.asarray(z, dtype=float)
        if zv.shape != (self.k,):
            raise ValueError(f"coefficient vector must have length {self.k}")
        return devectorize(self.M @ zv, self.n, self.T)


def vectorize(Z) -> np.ndarray:
    """Real vector of a complex matrix: column-major, Re/Im interleaved."""
    z = np.asarray(Z, dtype=complex)
    flat = z.T.reshape(-1)  # column-major walk
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def devectorize(v, n: int, T: int) -> Codeword:
    """Inverse of :func:`vectorize`; preserves norms exactly."""
    vv = np.asarray(v, dtype=float)
    if vv.shape != (2 * n * T,):
        raise ValueError(f"vector must have length {2 * n * T}")
    return Codeword(codeword_matrices(vv, n, T))


def codeword_matrices(vecs: np.ndarray, n: int, T: int) -> np.ndarray:
    """Complex n x T matrices of vectorized codewords along the last axis.

    The batched inverse of :func:`vectorize`: (..., 2nT) -> (..., n, T).
    """
    flat = vecs[..., 0::2] + 1j * vecs[..., 1::2]
    return np.swapaxes(flat.reshape(vecs.shape[:-1] + (T, n)), -1, -2)


def grid_rows(values, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop of the grid values^k in lexicographic order.

    Row i holds the mixed-radix digits of i (leftmost slowest) mapped
    through ``values``, so ascending values give ascending rows.
    """
    values = np.asarray(values)
    m = len(values)
    stop = m ** k if stop is None else stop
    powers = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
    flat = np.arange(start, stop, dtype=np.int64)
    return values[(flat[:, None] // powers) % m]


@lru_cache(maxsize=None)
def alamouti_map() -> STCodeMap:
    """The 2x2 orthogonal design on 4 integer coefficients, scale 1/sqrt(2)."""
    a = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    return STCodeMap(name="alamouti", n=2, k=4,
                     int_part=a, theta_part=np.zeros_like(a),
                     scale_denom_sq=2)


@lru_cache(maxsize=None)
def golden_map() -> STCodeMap:
    """The golden-ratio 2x2 code on 8 integer coefficients, scale 1/sqrt(5).

    Entries are a + b*THETA; the two integer layers below hold a and b.
    """
    ints = np.array([
        [1, 1, 0, -1, 0, 0, 0, 0],
        [-1, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, -1],
        [0, 0, 0, 0, -1, 1, 1, 0],
        [0, 0, 0, 0, 0, -1, -1, -1],
        [0, 0, 0, 0, 1, 0, 1, -1],
        [1, 0, 1, -1, 0, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 0, 0],
    ])
    thetas = np.array([
        [0, -1, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 1, -1, 0],
        [0, 1, -1, 0, 0, 0, 0, 0],
        [-1, 0, 0, -1, 0, 0, 0, 0],
    ])
    return STCodeMap(name="golden", n=2, k=8,
                     int_part=ints, theta_part=thetas,
                     scale_denom_sq=5)


_BUILTIN_MAPS = {"alamouti": alamouti_map, "golden": golden_map}


def code_map_by_name(name: str) -> STCodeMap:
    try:
        return _BUILTIN_MAPS[name]()
    except KeyError:
        raise ValueError(f"unknown code map {name!r}; choose from "
                         f"{sorted(_BUILTIN_MAPS)}") from None


def min_determinant(code_map: STCodeMap, region=2, codeword_scale: float = 1.0) -> float:
    """Minimum |det X|^2 over nonzero coefficient vectors in a finite region.

    ``region`` is either a PAMAlphabet (the search then runs over nonzero
    difference vectors of S^k) or an integer box radius b meaning the box
    {-b..b}^k.  ``codeword_scale`` rescales every codeword before taking the
    determinant (the result scales as codeword_scale^(2n)).
    """
    if isinstance(region, PAMAlphabet):
        step_vals = np.arange(-2 * (region.m - 1), 2 * region.m - 1, 2, dtype=np.int64)
    else:
        b = int(region)
        if b < 1:
            raise ValueError("box radius must be >= 1")
        step_vals = np.arange(-b, b + 1, dtype=np.int64)
    k = code_map.k
    m = code_map.M * codeword_scale
    total = len(step_vals) ** k
    best = None
    for start in range(0, total, _GRID_SLICE):
        grid = grid_rows(step_vals, k, start, min(start + _GRID_SLICE, total))
        grid = grid[np.any(grid != 0, axis=1)]
        if grid.shape[0] == 0:
            continue
        vecs = grid.astype(float) @ m.T  # (N, 2nT)
        cw = codeword_matrices(vecs, code_map.n, code_map.T)
        dets = np.abs(np.linalg.det(cw)) ** 2
        local = float(dets.min())
        if best is None or local < best:
            best = local
    if best is None:
        raise ValueError("empty search region")
    return best


def first_coding_gain(code_map: STCodeMap, sub: IntegerLattice) -> int:
    """Minimum squared Frobenius norm over nonzero mapped sublattice points.

    The map is an isometry, so this is lambda_1^2 of the coefficient
    sublattice, an exact integer.
    """
    if sub.k != code_map.k:
        raise ValueError("sublattice dimension does not match the code map")
    return shortest_shell(sub)[0]
