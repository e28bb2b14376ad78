"""Maximum-likelihood decoding of finite ST codebooks.

Two interchangeable routes: an exhaustive search (the oracle) and a
box-constrained sphere decoder.  Both return the argmin of
||y - Heff z||^2 over z in S^k with ties broken lexicographically, so their
outputs are bit-identical wherever the oracle is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CodebookTooLarge, RankDeficientChannel
from .stcode import PAMAlphabet, grid_rows

#: hard guard on |S|^k for the exhaustive oracle
DEFAULT_CODEBOOK_CAP = 1_000_000

#: above this size the exhaustive search switches to a split (meet-in-the-
#: middle) evaluation instead of materializing the full codebook
_MATERIALIZE_LIMIT = 1 << 22

_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DecodingProblem:
    """A received real vector, an effective real channel, and an alphabet."""

    y: np.ndarray
    Heff: np.ndarray
    alphabet: PAMAlphabet

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        h = np.asarray(self.Heff, dtype=float)
        if h.ndim != 2 or y.shape != (h.shape[0],):
            raise ValueError("y must be a vector matching Heff's row count")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "Heff", h)


@lru_cache(maxsize=32)
def codebook(m: int, k: int) -> np.ndarray:
    """All of S^k in lexicographic (ascending, leftmost slowest) order."""
    grid = grid_rows(PAMAlphabet(m).symbols, k)
    grid.setflags(write=False)
    return grid


def exhaustive_argmin(heff: np.ndarray, y: np.ndarray, zf: np.ndarray) -> np.ndarray:
    """Flat codebook index of the ML decision for each problem of a batch.

    ``heff`` is (b, d, k), ``y`` is (b, d) and ``zf`` the codebook as floats,
    (N, k).  Minimizes sum (y - Heff z)^2 over the rows of ``zf``; argmin
    returns the first minimum, the lexicographic tie-break on the ordered
    codebook.  Batches are blocked to keep the (b, N, d) candidates small.
    """
    n = heff.shape[0]
    block = max(1, (1 << 21) // zf.shape[0])
    out = np.empty(n, dtype=np.int64)
    for off in range(0, n, block):
        cand = np.einsum("bik,ck->bci", heff[off:off + block], zf)
        dist = np.sum((y[off:off + block, None, :] - cand) ** 2, axis=2)
        out[off:off + block] = np.argmin(dist, axis=1)
    return out


def _split_exhaustive(y, h, syms, k):
    """Exhaustive argmin without materializing S^k; returns the flat index.

    Splits coefficients into two halves and scans the product in chunks.
    Ties resolve to the smallest flat (lexicographic) index.
    """
    m = len(syms)
    k1 = k // 2
    k2 = k - k1
    z1 = codebook(m, k1)
    z2 = codebook(m, k2)
    c1 = h[:, :k1] @ z1.T.astype(float)          # (d, N1)
    n1 = np.sum(c1 * c1, axis=0)
    best_d = np.inf
    best_flat = -1
    n2_total = z2.shape[0]
    chunk = max(1, (1 << 22) // z1.shape[0])
    for off in range(0, n2_total, chunk):
        zc = z2[off:off + chunk]
        r2 = y[:, None] - h[:, k1:] @ zc.T.astype(float)   # (d, N2c)
        cross = c1.T @ r2                                   # (N1, N2c)
        d2 = np.sum(r2 * r2, axis=0)
        dist = n1[:, None] - 2.0 * cross + d2[None, :]
        flat_local = int(np.argmin(dist))
        i1, i2l = divmod(flat_local, zc.shape[0])
        d = float(dist[i1, i2l])
        flat = i1 * n2_total + off + i2l
        if d < best_d or (d == best_d and flat < best_flat):
            best_d = d
            best_flat = flat
    return best_flat


def ml_decode_exhaustive(problem: DecodingProblem,
                         cap: int = DEFAULT_CODEBOOK_CAP) -> np.ndarray:
    """Brute-force ML decision over the full codebook S^k.

    Ties are broken by lexicographic order on the coefficient vector.
    Raises CodebookTooLarge when |S|^k exceeds ``cap``.
    """
    m = problem.alphabet.m
    k = problem.Heff.shape[1]
    total = m ** k
    if total > cap:
        raise CodebookTooLarge(
            f"|S|^k = {total} exceeds the exhaustive-decoding cap {cap}")
    y, h = problem.y, problem.Heff
    syms = problem.alphabet.symbols
    if total > _MATERIALIZE_LIMIT:
        flat = _split_exhaustive(y, h, syms, k)
        return grid_rows(syms, k, flat, flat + 1)[0]
    grid = codebook(m, k)
    return grid[exhaustive_argmin(h[None], y[None], grid.astype(float))][0]


def sphere_decode(problem: DecodingProblem) -> np.ndarray:
    """Depth-first sphere decoder over the alphabet box, exact ML output.

    QR-reduces the channel and walks symbols at each level in increasing
    partial-distance order, shrinking the radius at every leaf.  The first
    leaf reached is the alphabet-clamped Babai point, so the search always
    starts with a finite radius.  Output matches :func:`ml_decode_exhaustive`
    including lexicographic tie-breaking.

    Raises RankDeficientChannel when Heff is numerically rank deficient.
    """
    y, h = problem.y, problem.Heff
    k = h.shape[1]
    q, r = np.linalg.qr(h)
    diag = np.diag(r)
    if np.min(np.abs(diag)) <= _RANK_TOL * max(float(np.max(np.abs(r))), 1e-300):
        raise RankDeficientChannel("effective channel is rank deficient")
    signs = np.where(diag < 0, -1.0, 1.0)
    r = r * signs[:, None]
    ytilde = (q.T @ y) * signs

    syms = problem.alphabet.symbols.astype(float)
    sym_ints = problem.alphabet.symbols
    best = {"dist": np.inf, "z": None}
    z = np.zeros(k)

    def visit(level: int, acc: float):
        rhs = ytilde[level] - r[level, level + 1:] @ z[level + 1:]
        vals = r[level, level] * syms
        errs = np.abs(vals - rhs)
        order = np.lexsort((sym_ints, errs))
        for idx in order:
            d = acc + (vals[idx] - rhs) ** 2
            if d > best["dist"]:
                break  # children are visited in increasing distance
            z[level] = syms[idx]
            if level == 0:
                cand = z.astype(np.int64)
                if d < best["dist"] or (d == best["dist"] and
                                        (best["z"] is None or tuple(cand) < tuple(best["z"]))):
                    best["dist"] = d
                    best["z"] = cand.copy()
            else:
                visit(level - 1, d)

    visit(k - 1, 0.0)
    return best["z"]
