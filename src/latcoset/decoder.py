"""Maximum-likelihood decoding of finite ST codebooks.

Two interchangeable routes: an exhaustive search (the oracle) and a
box-constrained sphere decoder.  Both return the argmin of
||y - Heff z||^2 over z in S^k with ties broken lexicographically, so their
outputs are bit-identical wherever the oracle is feasible.

The exhaustive route scores a batch of problems against the whole codebook
with one matrix product, using the expansion
||y - Heff z||^2 = ||y||^2 + <w * vech(Heff^T Heff), vech(z z^T)> - 2 <Heff^T y, z>
(Agrell, Eriksson, Vardy & Zeger, "Closest point search in lattices",
IEEE Trans. IT 2002): the codebook side is cached per (m, k), the problem
side is k(k+1)/2 + k numbers per problem.  Rows whose best candidates the
product cannot separate within its rounding bound are re-decided by the
residual form sum (y - Heff z)^2, so decisions are the residual form's.
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

#: elements of the (problems x codewords) distance block of one product
_BLOCK_ELEMENTS = 1 << 21

_EPS = float(np.finfo(float).eps)


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


@lru_cache(maxsize=32)
def _codebook_features(m: int, k: int):
    """Cached codebook side of :func:`exhaustive_argmin` for S^k.

    Returns the float codebook (N, k); the features (n_f, N), n_f =
    k(k+1)/2 + k, rows w * vech(z z^T) (upper triangle, row-major, w = 1 on
    the diagonal and 2 off it) and then -2 z, all exact in float; the index
    pair that reads [vech(G), c] off the Gram matrix of [Heff | y], where
    G = Heff^T Heff and c = Heff^T y; and the weights (zmax, ..., zmax, 1)
    that turn |[Heff | y]| into the rows of the error scale S.
    """
    zf = codebook(m, k).astype(float)
    iu, ju = np.triu_indices(k)
    w = np.where(iu == ju, 1.0, 2.0)
    feats = np.concatenate([zf[:, iu] * zf[:, ju] * w, -2.0 * zf], axis=1).T.copy()
    gram_idx = (np.concatenate([iu, np.arange(k)]), np.concatenate([ju, np.full(k, k)]))
    scale_weights = np.append(np.full(k, m - 1.0), 1.0)
    zf.setflags(write=False)
    feats.setflags(write=False)
    return zf, feats, gram_idx, scale_weights


def _residual_argmin(heff: np.ndarray, y: np.ndarray, zf: np.ndarray) -> np.ndarray:
    """First argmin of sum (y - Heff z)^2 over the rows of ``zf``, per problem."""
    n = heff.shape[0]
    block = max(1, _BLOCK_ELEMENTS // zf.shape[0])
    out = np.empty(n, dtype=np.int64)
    for off in range(0, n, block):
        cand = np.einsum("bik,ck->bci", heff[off:off + block], zf)
        dist = np.sum((y[off:off + block, None, :] - cand) ** 2, axis=2)
        out[off:off + block] = np.argmin(dist, axis=1)
    return out


def exhaustive_argmin(heff: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Flat codebook index of the ML decision for each problem of a batch.

    ``heff`` is (b, d, k), ``y`` is (b, d) and the codebook is
    ``codebook(m, k)``.  The Gram matrix of [Heff | y] gives each problem's
    [vech(Heff^T Heff), Heff^T y], and one product of those rows with the
    cached features of :func:`_codebook_features` gives
    ||y - Heff z||^2 - ||y||^2 for a block of problems and every word.
    argmin returns the first minimum, the lexicographic tie-break on the
    ordered codebook.  Blocks keep (b, N) within ``_BLOCK_ELEMENTS``.

    The product loses accuracy to cancellation, so it only decides rows
    where one candidate is clearly best.  With d rows in Heff, n_f features,
    zmax the largest symbol and S = sum_i (|y_i| + zmax sum_a |Heff_ia|)^2,
    the product and the residual form sum (y - Heff z)^2 (less ||y||^2)
    differ by at most E = (2(d + k) + n_f + 8) eps S, over twice the
    textbook bounds of their dot products and sums.  A row with a second
    candidate within 2E of its minimum is re-decided by the residual form,
    so every decision is the residual form's, bit for bit.
    """
    n, d, k = heff.shape
    zf, feats, (rows, cols), scale_weights = _codebook_features(m, k)
    hy = np.concatenate([heff, y[:, :, None]], axis=2)
    lhs = (hy.transpose(0, 2, 1) @ hy)[:, rows, cols]
    bound = np.abs(hy) @ scale_weights
    scale = np.einsum("bi,bi->b", bound, bound)
    slack = 2 * (2 * (d + k) + feats.shape[0] + 8) * _EPS * scale
    block = max(1, _BLOCK_ELEMENTS // zf.shape[0])
    out = np.empty(n, dtype=np.int64)
    near = np.empty(n, dtype=bool)
    for off in range(0, n, block):
        dist = lhs[off:off + block] @ feats
        best = np.argmin(dist, axis=1)
        lim = dist[np.arange(best.shape[0]), best] + slack[off:off + block]
        out[off:off + block] = best
        near[off:off + block] = (dist <= lim[:, None]).sum(axis=1) > 1
    if near.any():
        out[near] = _residual_argmin(heff[near], y[near], zf)
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
    return codebook(m, k)[exhaustive_argmin(h[None], y[None], m)][0]


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
