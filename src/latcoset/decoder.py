"""Maximum-likelihood decoding of finite ST codebooks.

Every route returns words: for ``heff`` (b, d, k) and ``y`` (b, d), the
(b, k) int64 argmins of ||y - Heff z||^2 over z in S^k.  Exact ties resolve
lexicographically only where the float residual form is exact (integer
channels); elsewhere the batched kernels follow its rounding and
:func:`sphere_decode` compares QR-domain floats.

:func:`orthogonal_words` slices each coordinate of an orthogonal design
(Heff^T Heff = g I for every channel, decided by the caller once per code
map): z_i is the symbol nearest (Heff^T y)_i / g, clamped to the box, at
any m.  :func:`sphere_words` runs the per-trial :func:`sphere_decode` and
sends a rank-deficient channel to :func:`exhaustive_words`, which has two
kernels, chosen by codebook size.  Up to ``_GEMM_LIMIT`` words it scores
every word with one matrix product, using the expansion
||y - Heff z||^2 = ||y||^2 + <w * vech(Heff^T Heff), vech(z z^T)> - 2 <Heff^T y, z>
(Agrell, Eriksson, Vardy & Zeger, "Closest point search in lattices",
IEEE Trans. IT 2002): the codebook side is cached per (m, k), the problem
side is k(k+1)/2 + k numbers per problem, each a sum over the rows of
products of two columns of [Heff | y].  Beyond it a two-level search
orders each problem's columns by sorted QR (the weakest half at the
bottom), takes a QR of [Heff | y] in that order, prunes the top half of
the coordinates against the radius of the greedy leaf and completes each
surviving top word over the bottom half, all in the same product form
with the cached features of the two half codebooks.  Both kernels share
one rounding bound, E of :func:`_slack`, and every batched route sends
what its bound cannot settle to one recheck, :func:`_residual_pick`: the
residual form sum (y - Heff z)^2, ties to the smallest flat index.

Both product kernels write their large temporaries into workspaces
(:mod:`latcoset.workspace`), so that a stream of calls of one shape takes
no fresh pages.  Each view lives inside one call of its kernel: the
one-product kernel's [Heff | y] column products and distance block, one
block of problems at a time; the two-level kernel's sorted-QR Gram,
reordered channel, [Heff | y], Gram of R and top-word scores, one block of
problems at a time (:class:`_TwoLevelTerms` views the last two through
:func:`_recheck`), and its pair scores, each read before the next pair
block is scored; :func:`_slack` its squares.  No call nests a call that
uses the same key, and every returned word array is fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CodebookTooLarge, RankDeficientChannel
from .stcode import PAMAlphabet, grid_rows
from .workspace import workspace

#: hard guard on |S|^k for the exhaustive oracle
DEFAULT_CODEBOOK_CAP = 1_000_000

#: codebooks up to this size are scored by one matrix product; larger ones
#: (from 8-PAM at k = 4 on) by the two-level kernel, which holds no m^k array
_GEMM_LIMIT = 2048

_RANK_TOL = 1e-10

#: elements of the (problems x codewords) distance block of one product, and
#: of the (problems x candidates) block of the residual recheck; 1 << 21 (a
#: 16 MB block) was slower on golden 2-PAM and kept 8.9 MB of workspace
_BLOCK_ELEMENTS = 1 << 15

#: elements of a (problems x top words) or (survivor pairs x bottom words)
#: block of the two-level kernel; 1 << 16 was slower on golden 4-PAM
_TWO_LEVEL_BLOCK = 1 << 15

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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
    """Cached codebook side of the product kernels for S^k.

    The one-product kernel of :func:`exhaustive_words` uses it for the whole
    codebook, the two-level kernel for the two half codebooks.

    Returns the float codebook (N, k); the features (n_f, N), n_f =
    k(k+1)/2 + k, rows w * vech(z z^T) (upper triangle, row-major, w = 1 on
    the diagonal and 2 off it) and then -2 z, all exact in float; and the
    column pairs of [Heff | y] whose products, summed over the rows, give
    [vech(G), c], where G = Heff^T Heff and c = Heff^T y.
    """
    zf = codebook(m, k).astype(float)
    iu, ju = np.triu_indices(k)
    w = np.where(iu == ju, 1.0, 2.0)
    feats = np.concatenate([zf[:, iu] * zf[:, ju] * w, -2.0 * zf], axis=1).T.copy()
    gram_idx = (np.concatenate([iu, np.arange(k)]), np.concatenate([ju, np.full(k, k)]))
    zf.setflags(write=False)
    feats.setflags(write=False)
    return zf, feats, gram_idx


def _residual_distances(heff: np.ndarray, y: np.ndarray, zf: np.ndarray) -> np.ndarray:
    """sum (y - Heff z)^2 for each problem of a block and each row z of ``zf``."""
    cand = np.einsum("bik,ck->bci", heff, zf)
    return np.sum((y[:, None, :] - cand) ** 2, axis=2)


def _flat_index(words: np.ndarray, m: int) -> np.ndarray:
    """Rows of ``codebook(m, k)`` holding the (n, k) words."""
    k = words.shape[1]
    return ((words + (m - 1)) // 2).astype(np.int64) @ m ** np.arange(k - 1, -1, -1)


def _residual_pick(heff: np.ndarray, y: np.ndarray, words: np.ndarray, m: int) -> np.ndarray:
    """Per problem, the row of ``words`` (c candidates, any order) of least
    sum (y - Heff z)^2, ties to the smallest flat index in ``codebook(m, k)``,
    as (b, k) int64 words; problems go in blocks of (b, c) within
    ``_BLOCK_ELEMENTS``."""
    flat = _flat_index(words, m)
    zf = words.astype(float)
    out = np.empty((heff.shape[0], words.shape[1]), dtype=np.int64)
    block = max(1, _BLOCK_ELEMENTS // words.shape[0])
    for off in range(0, heff.shape[0], block):
        res = _residual_distances(heff[off:off + block], y[off:off + block], zf)
        out[off:off + block] = words[np.lexsort((np.broadcast_to(flat, res.shape), res))[:, 0]]
    return out


def _slack(heff: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """The rounding bound E of both product kernels, per problem of a batch.

    E = (4d(k + 1) + 2(k + 3)^2) eps A^2, with d rows in Heff, zmax = m - 1
    the largest symbol and A = ||y|| + zmax sum_i a_i, a_i the norm of
    column i of Heff.  The scores of either kernel and the residual form lie
    within E / 2 of the exact distances; for the two-level kernel see
    :func:`_two_level_words`.  For the one product, twice the textbook
    bounds of its dot products and sums give (2(d + k) + n_f + 8) eps S with
    n_f features and S = ||v||^2, v_i = |y_i| + zmax sum_a |Heff_ia|; a Gram
    entry enters with gamma_d sum_i |a_i b_i|, which holds for its d
    products summed in any order.  S <= A^2 by the triangle inequality, and
    E's constant is larger for every d, k >= 1.  A looser E only sends more
    problems to :func:`_residual_pick`, so no decision depends on it.
    """
    _, d, k = heff.shape
    # np.linalg.norm(heff, axis=1), without its two (b, d, k) temporaries
    sq = np.multiply(heff, heff, out=workspace("slack", heff.shape))
    a = np.linalg.norm(y, axis=1) + (m - 1) * np.sqrt(sq.sum(axis=1)).sum(axis=1)
    return (4 * d * (k + 1) + 2 * (k + 3) ** 2) * _EPS * a * a


def _gemm_terms(heff: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Problem side of the one-product kernel of :func:`exhaustive_words`.

    Returns lhs (b, n_f), rows [vech(G), c] with G = Heff^T Heff and
    c = Heff^T y in the order of the features of :func:`_codebook_features`,
    so that lhs @ features is ||y - Heff z||^2 - ||y||^2 for every word.
    Each entry is the sum over the d rows of the products of two columns of
    [Heff | y], formed for the whole batch with the problems along the last
    axis.  lhs is a view of a workspace, valid until the next call.
    """
    n, d, k = heff.shape
    rows, cols = _codebook_features(m, k)[2]
    hy = workspace("gemm.hy", (d, k + 1, n))
    hy[:, :k] = heff.transpose(1, 2, 0)
    hy[:, k] = y.T
    # the indices are in range; "raise" would copy through a buffer
    terms = np.take(hy, rows, axis=1, out=workspace("gemm.terms", (d, rows.size, n)), mode="clip")
    terms *= np.take(hy, cols, axis=1, out=workspace("gemm.cols", terms.shape), mode="clip")
    return terms.sum(axis=0, out=workspace("gemm.lhs", terms.shape[1:])).T


def exhaustive_words(heff: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """The ML word of each problem of a batch, as (b, k) int64 rows.

    ``heff`` is (b, d, k), ``y`` is (b, d) and the codebook is
    ``codebook(m, k)``.  :func:`_gemm_terms` gives each problem's
    [vech(Heff^T Heff), Heff^T y], and one product of those rows with the
    cached features of :func:`_codebook_features` gives
    ||y - Heff z||^2 - ||y||^2 for a block of problems and every word.
    argmin returns the first minimum, the lexicographic tie-break on the
    ordered codebook.  Blocks keep (b, N) within ``_BLOCK_ELEMENTS``, and
    each block's terms, slack and distances are formed on their own.
    The product loses accuracy to cancellation, so a problem whose scores
    without its best one (set to inf) reach within 2E of the best, E of
    :func:`_slack`, is re-decided by :func:`_residual_pick` over the
    codebook; every decision is the residual form's, bit for bit.

    Codebooks of more than ``_GEMM_LIMIT`` words go to
    :func:`_two_level_words`, which returns the same decisions.
    """
    n, _, k = heff.shape
    if k > 1 and m ** k > _GEMM_LIMIT:
        return _two_level_words(heff, y, m)
    feats = _codebook_features(m, k)[1]
    block = max(1, _BLOCK_ELEMENTS // feats.shape[1])
    best = np.empty(n, dtype=np.int64)
    near = np.empty(n, dtype=bool)
    for off in range(0, n, block):
        h, v = heff[off:off + block], y[off:off + block]
        lhs = _gemm_terms(h, v, m)
        dist = np.matmul(lhs, feats, out=workspace("gemm.dist", (lhs.shape[0], feats.shape[1])))
        at = np.argmin(dist, axis=1)
        pick = (np.arange(at.shape[0]), at)
        lim = dist[pick] + 2 * _slack(h, v, m)
        dist[pick] = np.inf
        best[off:off + block] = at
        # initial=inf: the same minimum by numpy's faster reduction loop
        near[off:off + block] = dist.min(axis=1, initial=np.inf) <= lim
    words = codebook(m, k)[best]
    if near.any():
        words[near] = _residual_pick(heff[near], y[near], codebook(m, k), m)
    return words


def _with_ones(feats: np.ndarray) -> np.ndarray:
    """[features; 1]: a row [vech(G), c, const] times it is the quadratic form plus const."""
    return np.vstack([feats, np.ones((1, feats.shape[1]))])


class _TwoLevelTerms(NamedTuple):
    """Per-problem terms of the two-level kernel; see :func:`_two_level_terms`."""

    tscore: np.ndarray  # T(z_t), (b, top words)
    base: np.ndarray  # T(z_t) + ||r_b||^2, (b, top words)
    head: np.ndarray  # [vech(R_bb^T R_bb), R_bb^T y_b, 0] in feature order, (b, n_b + 1)
    cross: np.ndarray  # R_bb^T R_bt, (b, k_b, k_t)
    slack: np.ndarray  # the error bound E, (b,)


def _two_level_terms(heff, y, m) -> _TwoLevelTerms:
    """Per-problem terms of the two-level kernel for a block of problems.

    With [Heff | y] = Q R and z = (z_b, z_t), ||y - Heff z||^2 is
    c + T(z_t) + ||r_b - R_bb z_b||^2, where (y_b, y_t) = Q^T y is the last
    column of R, T(z_t) = ||y_t - R_tt z_t||^2, r_b = y_b - R_bt z_t, and
    c = ||y||^2 - ||Q^T y||^2 does not depend on z.  Expanded,
    T = ||y_t||^2 - 2 <R_tt^T y_t, z_t> + z_t^T R_tt^T R_tt z_t, a row
    [vech(G), c, const] of Gram entries of the columns of R's bottom-right
    block times [features; 1] of the top half codebook; base = T + ||r_b||^2
    = ||Q^T y - R_t z_t||^2 (R_t the top columns of R) is the same with the
    Gram entries of all of R, and one product gives both for every top word.
    The bottom side keeps Gram entries only: :func:`_pair_rows` forms
    R_bb^T r_b = R_bb^T y_b - R_bb^T R_bt z_t for the pairs it is asked for.
    """
    b, d, k = heff.shape
    kb, kt = k // 2, k - k // 2
    hy = np.concatenate([heff, y[:, :, None]], axis=2, out=workspace("two_level.hy", (b, d, k + 1)))
    r = np.linalg.qr(hy, mode="r")
    if r.shape[1] < k:  # fewer rows than coefficients: pad R with zero rows
        r = np.concatenate([r, np.zeros((b, k - r.shape[1], k + 1))], axis=1)
    r = r[:, :k]  # row k holds ||y_perp||, part of the constant c
    gram = np.matmul(r.transpose(0, 2, 1), r, out=workspace("two_level.gram", (b, k + 1, k + 1)))
    low = r[:, kb:, kb:]
    gram_t = low.transpose(0, 2, 1) @ low
    _, feats_t, (rows, cols) = _codebook_features(m, kt)
    rows, cols = np.append(rows, kt), np.append(cols, kt)
    lhs = np.concatenate([gram_t[:, rows, cols], gram[:, rows + kb, cols + kb]])
    feats_t = _with_ones(feats_t)
    scores = np.matmul(lhs, feats_t, out=workspace("two_level.scores", (2 * b, feats_t.shape[1])))
    iu, ju = np.triu_indices(kb)
    head = np.concatenate([gram[:, iu, ju], gram[:, :kb, k], np.zeros((b, 1))], axis=1)
    return _TwoLevelTerms(scores[:b], scores[b:], head, gram[:, :kb, kb:k], _slack(heff, y, m))


def _pair_rows(terms: _TwoLevelTerms, zt, trial, top) -> np.ndarray:
    """Rows [vech(R_bb^T R_bb), R_bb^T r_b, base] of the (problem, top word) pairs.

    Times [features; 1] of the bottom half codebook, a row gives the scores
    base - 2 <R_bb^T r_b, z_b> + ||R_bb z_b||^2 of every bottom word.
    """
    rows = np.take(terms.head, trial, axis=0)
    kb = terms.cross.shape[1]
    rows[:, -kb - 1:-1] -= np.einsum("pij,pj->pi", np.take(terms.cross, trial, axis=0),
                                     np.take(zt, top, axis=0))
    rows[:, -1] = terms.base[trial, top]
    return rows


def _pair_scores(terms: _TwoLevelTerms, zt, trial, top, feats_b) -> np.ndarray:
    """:func:`_pair_rows` times [features; 1] of the bottom half codebook: the
    (pairs, bottom words) scores, a view of the kernel's pair workspace that
    the next call overwrites."""
    rows = _pair_rows(terms, zt, trial, top)
    return np.matmul(rows, feats_b, out=workspace("two_level.pairs", (len(rows), feats_b.shape[1])))


def _two_level_words(heff: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """:func:`exhaustive_words` by a two-level search over the half codebooks.

    The radius-pruned closest-point search of Agrell, Eriksson,
    Vardy & Zeger (IEEE Trans. IT 2002) with the alphabet box of Viterbo &
    Boutros (IEEE Trans. IT 1999), cut to two levels and batched over
    problems: for [Heff | y] = QR and the terms of :func:`_two_level_terms`,
    every top word is scored by T(z_t), a lower bound on its completions.
    The greedy leaf (the best top word and its best bottom word) gives a
    radius; only top words with T within the radius plus 2E survive, and
    each survivor is completed over all bottom words as
    T + ||r_b||^2 - 2 <R_bb^T r_b, z_b> + ||R_bb z_b||^2.  Every
    score is a product of per-problem rows with the cached features of a
    half codebook (:func:`_codebook_features`, with a row of ones for the
    constant), as in the one-product kernel: T and base for all top words
    of a block of problems in one product, the completions of a block of
    survivor pairs in another (:func:`_pair_rows`).

    With A and E as in :func:`_slack`, the computed scores (plus c), the
    computed T and the residual form sum (y - Heff z)^2 each lie within
    E / 2 = (2d(k + 1) + (k + 3)^2) eps A^2 of their exact values.  The
    first term is the Householder QR's backward error (Higham's bound with
    the constant taken as 2 units of roundoff); R keeps the column norms of
    [Heff | y], so every Gram entry of R's columns i, j is within k eps a_i a_j.
    The expansion then cancels terms of size up to A^2: taking gamma_n as
    n eps, the Gram entries, the pair coefficients R_bb^T r_b (k_t + 1 more
    roundings) and the two products of n_t + 1 and n_b + 1 terms
    (n_h = k_h(k_h + 3)/2 features per half) add at most
    (k + k_t + n_t + n_b + 2) eps A^2, and (k + 3)^2 is more than twice that
    for every k >= 2.  The residual form's error, (2k + d + 3) eps A^2 at
    first order, is also below E / 2.  So pruning past 2E never drops the residual
    form's argmin, and a problem whose second-best candidate lies within 2E
    of its best is re-decided by :func:`_residual_pick` over those
    candidates (:func:`_recheck`).  Problems go in blocks of
    ``_TWO_LEVEL_BLOCK // m^(k - k // 2)`` and survivor pairs in blocks of
    ``_TWO_LEVEL_BLOCK // m^(k // 2)``; nothing of size m^k is held.  A
    block's large arrays are views of the kernel's workspaces: the top-word
    scores and Gram entries of :func:`_two_level_terms` live until the
    block's last :func:`_recheck` returns, and each block of pair scores
    (:func:`_pair_scores`) until the next is scored.  On golden 4-PAM (128
    problems a block) they hold about 1.2 MB between calls.

    The halves are split per problem: :func:`_column_order` puts the k // 2
    columns of least norm after projection (sorted QR) at the bottom and the
    kernel runs on Heff with its columns in that order.  T(z_t) + c is the
    squared distance from y - Heff_t z_t to the span of the bottom columns,
    so with the weak ones there it loses least of each top word's distance
    and fewer top words survive the radius: on golden 4-PAM, 31 rather than
    55 per problem at 0 dB and 2.5 rather than 13.5 at 20 dB.  No order
    moves a decision.  E depends on d, k, ||y|| and the sum of the column
    norms only, which a permutation keeps (up to the rounding of that sum,
    which E's constant absorbs), so the pruning and near-tie arguments
    above hold for every order; a problem with one candidate within 2E of
    its best has that candidate as the residual form's argmin whatever the
    order, and the chosen word is put back in the original coordinates.
    :func:`_recheck` scores its candidates on the original Heff with the
    words in the original order, so near ties get the residual form's
    decision, rounding included, as with no reordering.
    """
    k = heff.shape[2]
    zb, feats_b = _codebook_features(m, k // 2)[:2]
    zt = _codebook_features(m, k - k // 2)[0]
    feats_b = _with_ones(feats_b)
    out = np.empty((heff.shape[0], k), dtype=np.int64)
    block = max(1, _TWO_LEVEL_BLOCK // zt.shape[0])
    for off in range(0, heff.shape[0], block):
        out[off:off + block] = _two_level_block(heff[off:off + block], y[off:off + block],
                                                m, zb, zt, feats_b)
    return out


def _column_order(heff: np.ndarray) -> np.ndarray:
    """Per-problem column order of the two-level kernel, by sorted QR, (b, k).

    The first k // 2 entries are the bottom columns, taken greedily as in
    the sorted QR of Wübben, Böhnke, Rinas, Kühn & Kammeyer (Electronics
    Letters 2001): each is the column of least norm after projecting out the
    columns already taken, read off the diagonal of the Schur complement of
    their block in Heff^T Heff.  The other columns follow in ascending order;
    they are the strong ones, and on top they tighten T(z_t).
    """
    b, _, k = heff.shape
    rows = np.arange(b)
    gram = np.matmul(heff.transpose(0, 2, 1), heff, out=workspace("two_level.order", (b, k, k)))
    step = workspace("two_level.step", gram.shape)
    rank = np.full((b, k), k)
    for s in range(k // 2):
        norms = np.where(rank == k, np.diagonal(gram, axis1=1, axis2=2), np.inf)
        j = np.argmin(norms, axis=1)
        rank[rows, j] = s
        col = gram[rows, j]
        # a zero pivot (a rank-deficient channel, or d < k) projects out nothing
        piv = np.where(norms[rows, j] > 0, norms[rows, j], np.inf)
        gram -= np.multiply(col[:, :, None], (col / piv[:, None])[:, None, :], out=step)
    # a permutation whatever argmin returned, even on non-finite input
    return np.argsort(rank, axis=1, kind="stable")


def _two_level_block(heff, y, m, zb, zt, feats_b):
    """The words of :func:`_two_level_words` for one block of problems, as floats."""
    order = _column_order(heff)
    b = heff.shape[0]
    rows = np.arange(b)
    # heff with its columns in ``order``: column c goes to the place inv[c]
    inv = np.empty_like(order)
    inv[rows[:, None], order] = np.arange(order.shape[1])
    ordered = workspace("two_level.heff", heff.shape)
    np.put_along_axis(ordered, inv[:, None, :], heff, axis=2)
    terms = _two_level_terms(ordered, y, m)
    t0 = np.argmin(terms.tscore, axis=1)
    radius = np.min(_pair_scores(terms, zt, rows, t0, feats_b), axis=1)
    keep = terms.tscore <= (radius + 2 * terms.slack)[:, None]
    keep[rows, t0] = True
    trial, top = np.nonzero(keep)
    n_pairs = trial.shape[0]
    step = max(1, _TWO_LEVEL_BLOCK // zb.shape[0])
    v1 = np.empty(n_pairs)
    v2 = np.empty(n_pairs)
    a1 = np.empty(n_pairs, dtype=np.int64)
    for off in range(0, n_pairs, step):
        s = _pair_scores(terms, zt, trial[off:off + step], top[off:off + step], feats_b)
        at = np.argmin(s, axis=1)
        pick = (np.arange(s.shape[0]), at)
        a1[off:off + step] = at
        v1[off:off + step] = s[pick]
        s[pick] = np.inf
        v2[off:off + step] = s.min(axis=1, initial=np.inf)
    starts = np.searchsorted(trial, rows)
    lo = np.minimum.reduceat(v1, starts)
    lim = lo + 2 * terms.slack
    within = (v1 <= lim[trial]).astype(np.int64) + (v2 <= lim[trial])
    near = np.add.reduceat(within, starts) > 1
    first = np.minimum.reduceat(np.where(v1 == lo[trial], np.arange(n_pairs), n_pairs), starts)
    words = np.empty((b, order.shape[1]))
    np.put_along_axis(words, order, np.concatenate([zb[a1[first]], zt[top[first]]], axis=1), 1)
    for p in np.flatnonzero(near):
        words[p] = _recheck(heff[p], y[p], m, terms, top[trial == p], feats_b, zb, zt, p,
                            order[p], lim[p], step)
    return words


def _recheck(heff, y, m, terms, tops, feats_b, zb, zt, p, order, lim, step):
    """:func:`_residual_pick` of one problem over its candidates scored within ``lim``.

    ``heff`` and ``y`` are the problem's own, in the original coordinates;
    the kernel's words come in ``order`` and are put back before scoring.
    """
    best = np.empty((0, order.size))
    for off in range(0, tops.shape[0], step):
        t = tops[off:off + step]
        i, j = np.nonzero(_pair_scores(terms, zt, np.full(t.shape[0], p), t, feats_b) <= lim)
        if i.size == 0:
            continue
        words = np.empty((i.size, order.size))
        words[:, order] = np.concatenate([zb[j], zt[t[i]]], axis=1)
        best = _residual_pick(heff[None], y[None], np.concatenate([best, words]), m)
    return best[0]


def orthogonal_words(heff: np.ndarray, y: np.ndarray, m: int, gram_error: float) -> np.ndarray:
    """The words of :func:`exhaustive_words` for channels of an orthogonal design.

    ``heff`` is (b, d, k) and ``y`` is (b, d); each Heff^T Heff must lie
    within ``gram_error`` g of g I in spectral norm, g = ||Heff||_F^2 / k.
    Then ||y - Heff z||^2 is g ||z - u||^2 + z^T (G - g I) z plus a constant,
    u = Heff^T y / g, and the decision splits into k scalar ones (Alamouti,
    IEEE JSAC 1998; Tarokh, Jafarkhani & Calderbank, IEEE Trans. IT 1999):
    z_i is the symbol nearest u_i, clamped to the box.  Returns the (b, k)
    int64 words; nothing of size m^k is formed.

    Decisions are the residual form's, bit for bit.  Moving z_i across the
    decision boundary b nearest to u_i (an even integer strictly inside the
    box) adds at least 4 g |u_i - b| to the exact distance, and moving it
    past b's two neighbouring symbols at least 6 g while |u_i - b| <= 1/2.
    With zmax = m - 1 and A = ||y|| + zmax k sqrt(g), at least ||y|| plus
    zmax times the sum of Heff's column norms, and gamma_n taken as n eps as
    in :func:`_two_level_words`, three errors can hide that gain:
    - the residual forms of the two words compared, each within
      (2k + d + 3) eps A^2 of its exact value;
    - the Gram term, which moves by at most 2k zmax^2 ``gram_error`` g
      <= 2 ``gram_error`` A^2 between two words, as k zmax^2 g <= A^2;
    - the computed u_i~, where g |u_i~ - u_i| <= d eps a_i ||y|| +
      (dk + 2) eps g |u_i~| is at most (2d + 2) eps A^2 plus a relative
      (dk + 2) eps of g |u_i~ - b|.
    With B = (2(2k + d + 3) eps + 2 ``gram_error``) A^2 from the first two,
    a coordinate with g |u_i~ - b| > B / 4 + (2d + 2) eps A^2 keeps its
    sliced symbol in the residual form's argmin, and one within it takes
    b - 1 or b + 1 there.  The test uses twice that bound,
    T = ((2k + 5d + 7) eps + ``gram_error``) A^2, which absorbs the rounding
    of g and A, with A^2 <= 2 (||y||^2 + zmax^2 k^2 g).  A trial with j
    coordinates within T is re-decided by :func:`_residual_pick` over those
    2^j words.  A trial with g = 0 has Heff = 0,
    where every word ties, and gets the first word; one with 2T >= g (noise
    some 10^6 times the signal, or a non-finite input) goes to
    :func:`exhaustive_words`.  Like the module's other bounds this one
    assumes no underflow.
    """
    n, d, k = heff.shape
    h2 = heff.reshape(n, -1)
    g = np.einsum("bi,bi->b", h2, h2) / k
    # g = 0 means Heff = 0, a trial _settle gives the first word
    u = (y[:, None, :] @ heff)[:, 0] / np.maximum(g, _TINY)[:, None]
    bound = np.rint(u / 2).clip(1 - m // 2, m // 2 - 1) * 2
    diff = u - bound
    words = (bound + np.copysign(1.0, diff)).astype(np.int64)
    slack = 2 * ((2 * k + 5 * d + 7) * _EPS + gram_error) * (
        np.einsum("bi,bi->b", y, y) + (m - 1) ** 2 * k * k * g)
    near = g[:, None] * np.abs(diff) <= slack[:, None]
    odd = ~(2 * slack < g)
    if near.any() or odd.any():
        _settle(heff, y, m, words, bound, near, odd, g)
    return words


def _settle(heff, y, m, words, bound, near, odd, g):
    """The trials of :func:`orthogonal_words` whose slicing is not final, in place."""
    for p in np.flatnonzero(near.any(axis=1) & ~odd):
        cols = np.flatnonzero(near[p])
        cand = np.repeat(words[p][None], 1 << cols.size, axis=0)
        cand[:, cols] = bound[p, cols].astype(np.int64) + grid_rows((-1, 1), cols.size)
        words[p] = _residual_pick(heff[p][None], y[p][None], cand, m)[0]
    words[g == 0] = 1 - m
    rest = np.flatnonzero(odd & (g != 0))
    if rest.size:
        words[rest] = exhaustive_words(heff[rest], y[rest], m)


def ml_decode_exhaustive(problem: DecodingProblem,
                         cap: int = DEFAULT_CODEBOOK_CAP) -> np.ndarray:
    """Brute-force ML decision over the full codebook S^k (:func:`exhaustive_words`).

    Exact ties are broken by lexicographic order on the coefficient vector
    where the float residual form is exact (integer channels); elsewhere the
    decision follows its rounding.  Raises CodebookTooLarge when |S|^k
    exceeds ``cap``.
    """
    total = problem.alphabet.m ** problem.Heff.shape[1]
    if total > cap:
        raise CodebookTooLarge(
            f"|S|^k = {total} exceeds the exhaustive-decoding cap {cap}")
    return exhaustive_words(problem.Heff[None], problem.y[None], problem.alphabet.m)[0]


def sphere_decode(problem: DecodingProblem) -> np.ndarray:
    """Depth-first sphere decoder over the alphabet box, exact ML output.

    QR-reduces the channel and walks symbols at each level in increasing
    partial-distance order, shrinking the radius at every leaf.  The first
    leaf reached is the alphabet-clamped Babai point, so the search always
    starts with a finite radius.  Output matches :func:`ml_decode_exhaustive`,
    lexicographic ties included where the distances are exact.

    Raises RankDeficientChannel when Heff is numerically rank deficient,
    which it always is with fewer rows than columns.
    """
    y, h = problem.y, problem.Heff
    k = h.shape[1]
    q, r = np.linalg.qr(h)
    diag = np.diag(r)
    if r.shape[0] < k or np.min(np.abs(diag)) <= _RANK_TOL * max(float(np.max(np.abs(r))), 1e-300):
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


def sphere_words(heff: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """:func:`sphere_decode` of each problem of a batch, as (b, k) int64 words.

    A trial whose channel :func:`sphere_decode` finds rank deficient (always
    so with fewer rows than columns) is decoded by :func:`exhaustive_words`,
    with no codebook cap, so it gets the exhaustive strategy's answer.
    """
    alphabet = PAMAlphabet(m)
    out = np.empty((heff.shape[0], heff.shape[2]), dtype=np.int64)
    for i in range(heff.shape[0]):
        try:
            out[i] = sphere_decode(DecodingProblem(y=y[i], Heff=heff[i], alphabet=alphabet))
        except RankDeficientChannel:
            out[i] = exhaustive_words(heff[i:i + 1], y[i:i + 1], m)[0]
    return out
