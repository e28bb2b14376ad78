"""Coset coding over ST codes: rates, message labels, ECDP estimation,
the eavesdropper-success bound, and design diagnostics.

Monte-Carlo estimation is chunked: every chunk of trials owns a generator
derived from (seed, snr-point index, chunk index), so results are
bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .channel import _real_expand, snr_to_sigma
from .decoder import (_EPS, DEFAULT_CODEBOOK_CAP, exhaustive_words, orthogonal_words,
                      sphere_words)
from .errors import CodebookTooLarge, NotASublattice
from .lattice import (ENUMERATION_CAP, IntegerLattice, _enumeration_basis, _integer_runs,
                      coset_label, coset_labels, shortest_shells)
from .stcode import PAMAlphabet, STCodeMap, first_coding_gain
from .workspace import workspace

#: trials per RNG chunk; fixed, since it is part of the random stream layout
CHUNK_TRIALS = 1024

_WILSON_Z = 1.959963984540054  # two-sided 95%

_EXPONENT_MODES = ("pow2n", "pow2")


# ---------------------------------------------------------------------------
# coset code and rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CosetCode:
    """An ST code map, a PAM alphabet, and a coefficient-space sublattice.

    The sublattice must live inside 2Z^k (every entry even): cosets are then
    constant on the odd-integer signaling grid, and a message is a coset of
    the sublattice itself, labeled by its :attr:`IntegerLattice.labels`.
    """

    map: STCodeMap
    alphabet: PAMAlphabet
    sub: IntegerLattice

    def __post_init__(self):
        if self.sub.k != self.map.k:
            raise ValueError("sublattice dimension does not match the code map")
        if np.any(self.sub.B % 2 != 0):
            raise NotASublattice("sublattice generators must have even entries "
                                 "(the lattice must be contained in 2Z^k)")

    @property
    def index(self) -> int:
        """Number of cosets inside 2Z^k, exactly: |det sub| / 2^k, as the
        even entries put sub inside 2Z^k."""
        return abs(self.sub.det) >> self.map.k


@dataclass(frozen=True)
class RateReport:
    """Total, information, and confusion rates in bits per channel use."""

    r: float
    r_i: float
    r_c: float
    index: int
    log2_codebook: float


def rates(code: CosetCode) -> RateReport:
    """Rate split of a coset code: r = r_i + r_c.

    r is log2 of the codebook size per channel use, r_i is log2 of the coset
    count per channel use, and the confusion rate r_c is the difference
    (log2 of the average number of representatives per coset).
    """
    n_uses = code.map.T
    log2_codebook = code.map.k * math.log2(code.alphabet.m)
    r = log2_codebook / n_uses
    r_i = math.log2(code.index) / n_uses
    return RateReport(r=r, r_i=r_i, r_c=r - r_i, index=code.index,
                      log2_codebook=log2_codebook)


def message_of(code: CosetCode, z) -> tuple:
    """Coset label of a signaling word modulo the sublattice; equal labels
    mean equal messages.

    z must lie on the alphabet grid (odd integers, ValueError otherwise).
    Labels of z and z' coincide exactly when z - z' is a sublattice vector.
    """
    zv = np.asarray(z)
    syms = code.alphabet.symbols
    if zv.shape != (code.map.k,) or np.any(np.abs(zv) > syms[-1]) or np.any(zv % 2 != 1):
        raise ValueError("invalid symbol vector for this alphabet")
    return coset_label(zv, code.sub)


# ---------------------------------------------------------------------------
# Wilson interval and curve containers
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (isinstance(successes, bool) or not isinstance(successes, (int, np.integer))
            or not 0 <= successes <= trials):
        raise ValueError("successes must be an integer in [0, trials]")
    z2 = _WILSON_Z * _WILSON_Z
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    hw = _WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = max(0.0, center - hw)
    hi = min(1.0, center + hw)
    # the interval brackets the estimate mathematically; guard rounding dust
    return min(lo, p), max(hi, p)


@dataclass(frozen=True)
class ECDPPoint:
    snr_db: float
    estimate: float
    trials: int
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ECDPCurve:
    points: tuple

    def estimates(self) -> list[float]:
        return [p.estimate for p in self.points]


# ---------------------------------------------------------------------------
# Monte-Carlo engine
# ---------------------------------------------------------------------------

def _chunk_rng(seed: int, point_idx: int, chunk_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), int(point_idx), int(chunk_idx)])
    return np.random.default_rng(ss)


class _CosetTests(NamedTuple):
    """The message tests of a job's codes; see :func:`_coset_tests`."""

    u: np.ndarray | None  # stacked rows (r, k), float; None without stacked codes
    d: np.ndarray | None  # their moduli (r,), float
    group: np.ndarray | None  # (r, stacked codes), 1 where the code owns the row
    stacked: list  # positions of the codes in the stacked product
    wide: list  # (position, u, d) of each code labeled by coset_labels


def _coset_tests(labels, m: int) -> _CosetTests:
    """The message tests of :func:`_simulate_chunk`, prepared once per job.

    ``labels`` holds each code's sublattice :attr:`IntegerLattice.labels`
    (U, d).  The labels (U z) mod d of z_hat and z agree exactly when
    U D = 0 mod d for D = z_hat - z, that is when D lies in the sublattice.
    D is even, so rows with d_i <= 2 hold for every D and are dropped.  As
    |D_i| <= 2(m - 1) and 0 <= U_ij < d_k, each entry of U D is an integer
    of magnitude at most 2k (m - 1)(d_k - 1).  Operators with int64 entries
    and that bound below 2^53 stack their rows into one float64 product,
    exact in any summation order; the others (object dtype, or past the
    bound) are tested one at a time by :func:`coset_labels`, exactly.
    """
    rows, mods, owner, stacked, wide = [], [], [], [], []
    for pos, (u, d) in enumerate(labels):
        if u.dtype != np.int64 or 2 * u.shape[1] * (m - 1) * (int(d[-1]) - 1) >= 1 << 53:
            wide.append((pos, u, d))
            continue
        keep = d > 2
        rows.append(u[keep])
        mods.append(d[keep])
        owner += [len(stacked)] * int(keep.sum())
        stacked.append(pos)
    if not stacked:
        return _CosetTests(None, None, None, stacked, wide)
    group = (np.array(owner)[:, None] == np.arange(len(stacked))).astype(float)
    return _CosetTests(np.concatenate(rows).astype(float), np.concatenate(mods).astype(float),
                       group, stacked, wide)


def _message_successes(tests: _CosetTests, diff: np.ndarray) -> list[int]:
    """Trials whose z_hat - z (int64, trials x k) lies in each code's
    sublattice.  A stacked code fails where one of its rows leaves a nonzero
    remainder, so where the sum of its |remainders| is nonzero; a wide code
    where one of its :func:`coset_labels` is nonzero."""
    n = diff.shape[0]
    counts = [0] * (len(tests.stacked) + len(tests.wide))
    if tests.stacked:
        rem = np.abs(np.fmod(diff.astype(float) @ tests.u.T, tests.d))
        for pos, fails in zip(tests.stacked, np.count_nonzero(rem @ tests.group, axis=0)):
            counts[pos] = n - int(fails)
    for pos, u, d in tests.wide:
        counts[pos] = n - int(np.count_nonzero(coset_labels(diff, u, d).any(axis=1)))
    return counts


@lru_cache(maxsize=8)
def _channel_map(code_map: STCodeMap) -> np.ndarray:
    """W (2 n_t, 2 T k) that takes a trial's channel draws to its Heff in one product.

    Heff stacks H_b M_t over the T column blocks M_t of the code map, H_b the
    real expansion of the complex channel.  That is linear in the draws
    (Re h_ij, Im h_ij), so row (j, q) of W is the real expansion of a
    one-row channel whose only entry h_j is 1 (q = 0) or i (q = 1), times the
    blocks laid side by side: columns (p, t, a) give row p of the 2-row
    expansion applied to column a of M_t.  For alamouti every column of M_t,
    and so of W, has one nonzero entry, and Heff is bit for bit the
    expansion times M_t.
    """
    n_t, t_uses, k = code_map.n, code_map.T, code_map.k
    blocks = code_map.M.reshape(t_uses, 2 * n_t, k).transpose(1, 0, 2).reshape(2 * n_t, -1)
    unit = np.eye(2 * n_t).reshape(2 * n_t, 1, n_t, 2)
    return (_real_expand(unit[..., 0] + 1j * unit[..., 1]) @ blocks).reshape(2 * n_t, -1)


def _effective_channels(code_map: STCodeMap, draws: np.ndarray) -> np.ndarray:
    """Heff (trials, 2 T n_r, k) of channel draws (trials, n_r, n_t, 2), rows
    ordered (use, receive antenna, real/imaginary), by one product with
    :func:`_channel_map`."""
    n, n_r = draws.shape[:2]
    return (draws.reshape(-1, 2 * code_map.n) @ _channel_map(code_map)).reshape(
        n, n_r, 2, code_map.T, code_map.k).transpose(0, 3, 1, 2, 4).reshape(n, -1, code_map.k)


@lru_cache(maxsize=8)
def _design_gram_error(code_map: STCodeMap) -> float | None:
    """Bound on ||Heff^T Heff - g I||_2 / g for every Heff of
    :func:`_effective_channels`, g = ||Heff||_F^2 / k, when the code map is an
    orthogonal design; None when it is not.

    Row r of :func:`_channel_map` holds the block A_r (2T x k) that the draw
    h_r multiplies, and one receive antenna's Heff is sum_r h_r A_r.  Its
    Gram matrix is g I for every channel exactly when A_r^T A_r = c_r I and
    A_q^T A_r + A_r^T A_q = 0 for q != r, tested here in exact integer
    arithmetic on the stored floats scaled by a common power of two; a map that is a design only up to
    rounding is left to the product kernels.  For a design, Heff computed in
    floats is H_0 + E, where H_0^T H_0 = g_0 I and each entry of E is within
    gamma_t of the sum of |h_r A_r| over its t = 2 n_t products.  As
    tr(A_q^T A_r) = 0 for q != r, ||E||_F <= rho ||H_0||_F with
    rho = t sqrt(t) eps, and then ||Heff^T Heff - g I||_2 <= 5 rho sqrt(k) g
    (twice 2 rho sqrt(k) g_0 at first order, g_0 within a relative
    2 rho sqrt(k) of g).  Alamouti gives 80 eps.
    """
    k, t = code_map.k, 2 * code_map.n
    ratios = [v.as_integer_ratio() for v in _channel_map(code_map).ravel().tolist()]
    den = max(d for _, d in ratios)  # a power of two: every entry is an integer over it
    blocks = np.array([n * (den // d) for n, d in ratios], dtype=object).reshape(t, -1, k)

    def gram(q, r):
        return blocks[q].T @ blocks[r]

    for q in range(t):
        g = gram(q, q)
        if np.any(g != g[0, 0] * np.eye(k, dtype=object)):
            return None
        if any(np.any(gram(q, r) + gram(r, q) != 0) for r in range(q)):
            return None
    return 5 * t * math.sqrt(t * k) * _EPS


def _simulate_chunk(code_map: STCodeMap, alphabet: PAMAlphabet, tests, n_r: int, seed: int,
                    decode, sigma_sq: float, point_idx: int, chunk_idx: int,
                    n_trials: int) -> tuple[int, ...]:
    """Run one chunk of trials; returns (word successes, *message successes).

    Draw order is fixed: symbol indices, channel block, noise block.  Heff
    is one product of the channel draws with :func:`_channel_map`, and
    ``decode(heff, y, m)`` (from :func:`_resolve_decoder`) returns the
    decoded words.  Both success tests read D = z_hat - z: the word is
    right when D = 0, the message when D lies in the code's sublattice, the
    same predicate as equal coset labels (:func:`_message_successes`;
    ``tests`` comes from :func:`_coset_tests`).
    """
    rng = _chunk_rng(seed, point_idx, chunk_idx)
    m = alphabet.m
    k = code_map.k
    n_t = code_map.n
    t_uses = code_map.T

    sym_idx = rng.integers(0, m, size=(n_trials, k))
    hblock = rng.standard_normal((n_trials, n_r, n_t, 2))
    noise = rng.standard_normal((n_trials, 2 * n_r * t_uses)) * math.sqrt(sigma_sq / 2.0)

    z = alphabet.symbols[sym_idx]
    heff = _effective_channels(code_map, hblock)
    y = np.einsum("bik,bk->bi", heff, z.astype(float)) + noise

    diff = decode(heff, y, m) - z
    word = n_trials - int(np.count_nonzero(diff.any(axis=1)))
    return (word, *_message_successes(tests, diff))


def _check_count(name: str, value, low: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")


def _resolve_decoder(decoder: str, code_map: STCodeMap, m: int):
    """The job's decode function: :func:`sphere_words` for ``sphere``;
    otherwise :func:`orthogonal_words` bound to :func:`_design_gram_error`
    for an orthogonal design, and for any other map :func:`exhaustive_words`
    up to ``DEFAULT_CODEBOOK_CAP`` words and :func:`sphere_words` past it."""
    if decoder not in ("auto", "sphere", "exhaustive"):
        raise ValueError("decoder must be one of auto|sphere|exhaustive")
    words = m ** code_map.k
    if decoder == "exhaustive" and words > DEFAULT_CODEBOOK_CAP:
        raise CodebookTooLarge(f"|S|^k = {words} exceeds the exhaustive-decoding "
                               f"cap {DEFAULT_CODEBOOK_CAP}; use the sphere decoder")
    if decoder == "sphere":
        return sphere_words
    if (gram_error := _design_gram_error(code_map)) is not None:
        return partial(orthogonal_words, gram_error=gram_error)
    return exhaustive_words if words <= DEFAULT_CODEBOOK_CAP else sphere_words


def _curve(snr_db_list, successes, trials: int) -> ECDPCurve:
    return ECDPCurve(points=tuple(
        ECDPPoint(float(snr_db), count / trials, trials, *wilson_interval(count, trials))
        for snr_db, count in zip(snr_db_list, successes)))


def simulate_curves(code_map: STCodeMap, alphabet: PAMAlphabet, codes, snr_db_list,
                    trials: int, seed: int, *, workers: int = 1, decoder: str = "auto",
                    n_r: int = 2) -> tuple[ECDPCurve, tuple[ECDPCurve, ...]]:
    """Bob's CER and one ECDP curve per coset code, from one pass of trials.

    Every code in ``codes`` must use ``code_map`` and ``alphabet``.  The
    draws and ML decisions of a trial depend on the code map, the alphabet,
    the SNR point and the seed only; each code's sublattice enters at the
    message test, whether z_hat - z lies in it.
    Raises ValueError before any draw when a code's map or alphabet differs
    from the run's, an SNR is not finite, ``trials``, ``workers`` or ``n_r``
    is not an integer >= 1, or ``seed`` is not an integer >= 0 (a numpy
    integer seed runs the stream of the equal int).

    ``decoder`` is ``auto``, ``exhaustive`` or ``sphere``; ``auto`` is
    ``exhaustive`` up to ``DEFAULT_CODEBOOK_CAP`` words and for an
    orthogonal design at any size, ``sphere`` otherwise, and ``exhaustive``
    past the cap raises CodebookTooLarge.  The job's decode function is
    resolved once (:func:`_resolve_decoder`).  ``exhaustive`` decodes an
    orthogonal design such as alamouti, whose Heff^T Heff is g I for every
    channel (decided once per map from the blocks of its channel map), by
    per-coordinate slicing at any m (:func:`orthogonal_words`, ~0.1-0.5 us
    per trial in chunks of 64-1024), and every other map by the batched product kernels of
    :func:`exhaustive_words`.  Both give the residual form's decisions,
    lexicographic ties included.
    Each sublattice's label operator is its cached
    :attr:`IntegerLattice.labels`, so later jobs on it reuse it.

    The job splits into one task per SNR point and chunk of
    ``CHUNK_TRIALS`` trials.  With ``workers > 1`` it runs on a pool of
    ``min(workers, tasks)`` processes, except that a job runs in process
    when it has one task, or when it decodes with the batched kernels (any
    decoder but :func:`sphere_words`) and holds at most ``CHUNK_TRIALS``
    trials in all (trials times SNR points): starting and stopping a pool
    costs ~11 ms, more than such a job takes.  The per-trial sphere decoder
    costs 0.3 ms (golden, 20 dB) to 1.3 s (8-PAM, -10 dB) per trial and
    pools from two tasks.  ``numpy.random`` is imported just before the
    pool starts: forked workers then inherit it, where each would otherwise
    import it again (~15 ms) on its first draw.  Results do not depend on
    ``workers``.
    """
    _check_count("trials", trials)
    _check_count("seed", seed, 0)
    _check_count("workers", workers)
    _check_count("n_r", n_r)
    for code in codes:
        if code.alphabet.m != alphabet.m or not np.array_equal(code.map.M, code_map.M):
            raise ValueError("every code must use the run's code map and alphabet")
    if not all(math.isfinite(snr_db) for snr_db in snr_db_list):
        raise ValueError("SNR values must be finite")
    decode = _resolve_decoder(decoder, code_map, alphabet.m)
    tests = _coset_tests([code.sub.labels for code in codes], alphabet.m)
    chunk = partial(_simulate_chunk, code_map, alphabet, tests, n_r, seed, decode)
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    sigmas = [snr_to_sigma(snr_db, code_map, alphabet).sigma_sq for snr_db in snr_db_list]
    tasks = [(sigma_sq, point_idx, chunk_idx, min(CHUNK_TRIALS, trials - chunk_idx * CHUNK_TRIALS))
             for point_idx, sigma_sq in enumerate(sigmas) for chunk_idx in range(n_chunks)]
    small = decode is not sphere_words and trials * len(snr_db_list) <= CHUNK_TRIALS
    if workers > 1 and len(tasks) > 1 and not small:
        # imported here: multiprocessing and concurrent.futures add ~2.1 MB of
        # RSS that serial runs never use, and numpy.random ~2.4 MB that analyze
        # and bound never use
        import numpy.random  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(chunk, *zip(*tasks)))
    else:
        results = [chunk(*task) for task in tasks]

    counts = np.array(results, dtype=np.int64).reshape(
        len(snr_db_list), n_chunks, 1 + len(codes)).sum(axis=1).T.tolist()
    cer = _curve(snr_db_list, [trials - c for c in counts[0]], trials)
    return cer, tuple(_curve(snr_db_list, c, trials) for c in counts[1:])


def ecdp_monte_carlo(code: CosetCode, snr_db_list, trials: int, seed: int, *,
                     workers: int = 1, decoder: str = "auto",
                     n_r: int = 2) -> ECDPCurve:
    """Estimate the eavesdropper's correct message-decoding probability.

    Per trial: draw a uniform signaling word and a fresh Rayleigh channel,
    add noise calibrated from the SNR, ML-decode, and count success when the
    decoded word lies in the transmitted word's coset.  Estimates come with
    95% Wilson intervals.
    """
    return simulate_curves(code.map, code.alphabet, [code], snr_db_list, trials, seed,
                           workers=workers, decoder=decoder, n_r=n_r)[1][0]


def bob_cer_monte_carlo(code_map: STCodeMap, alphabet: PAMAlphabet, snr_db_list,
                        trials: int, seed: int, *, workers: int = 1,
                        decoder: str = "auto", n_r: int = 2) -> ECDPCurve:
    """Codeword error rate of plain ML decoding (no coset structure).

    Uses the same per-trial draws as :func:`ecdp_monte_carlo` for the same
    seed, so message errors are pathwise a subset of word errors.
    """
    return simulate_curves(code_map, alphabet, [], snr_db_list, trials, seed,
                           workers=workers, decoder=decoder, n_r=n_r)[0]


# ---------------------------------------------------------------------------
# eavesdropper-success bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    sigma_e_sq: float
    exponent_mode: str
    value: float
    truncation_r_sq: float
    points_used: int
    #: share of ``value`` from points with ||x||^2 in (R/2, R], R the
    #: truncation: near 0 once the truncation holds the sum
    outer_share: float = 0.0


def _det_form(u, v):
    """(Re, Im) of u00 v11 - u01 v10 for 2x2 codewords vectorized along
    axis 0 (column-major, Re/Im interleaved), in real arithmetic: det X(u)
    at v = u, and det X(u + v) - det X(u) - det X(v) is the sum of both
    orders."""
    return (u[0] * v[6] - u[1] * v[7] - u[4] * v[2] + u[5] * v[3],
            u[0] * v[7] + u[1] * v[6] - u[4] * v[3] - u[5] * v[2])


#: :func:`_det_form`'s four products per part: part p (0 Re, 1 Im) is
#: sum_j u[_DET_U[j]] * _DET_SIGN[p, j] * v[_DET_V[p, j]]
_DET_U = [0, 1, 4, 5]
_DET_V = np.array([[6, 7, 2, 3], [7, 6, 3, 2]])
_DET_SIGN = np.array([[1, -1, -1, 1], [1, 1, -1, -1]])


def _short_first(basis: np.ndarray) -> np.ndarray:
    """``basis`` with its columns in ascending squared norm, ties kept in
    order.  The enumeration's last level, whose runs the bound sums in
    closed form, then steps along the shortest column, and the fewest
    partial vectors survive the levels above it."""
    return basis[:, np.argsort(np.einsum("ij,ij->j", basis, basis), kind="stable")]


def _bound_terms(code: CosetCode, trunc: float, cap: int):
    """(||x||^2 as int64, |det X|^2) of one point x of each +-pair of the
    sublattice with 0 < ||x||^2 <= trunc, one pair of arrays per block of
    the enumeration's level-0 runs, read off without forming their points
    or codewords.

    The basis :func:`_enumeration_basis` picks is enumerated with its
    columns shortest first (:func:`_short_first`).  A run's points are
    x = x_c + u b_0, with b_0 the first column and x_c the point at the
    run's rounded center (z_0 = c), so
    ||x||^2 = ||x_c||^2 + u (2 <x_c, b_0> + u ||b_0||^2) and
    det X = alpha + beta u + det0 u^2, where alpha = det X_c, det0 is the
    determinant of b_0's codeword and beta the mixed term.  Centering keeps
    alpha and beta near the size of the run's own determinants, which
    limits float cancellation.  One float product of the coefficients
    gives, per run, the codeword factors of alpha (:data:`_DET_U`) and
    beta; each point then gathers its run's alpha and beta once.  The norms
    are exact: int64 modulo 2^64, as :func:`_fincke_pohst_runs` carries the
    partial norms, and a point within the radius has a norm below 2^62.
    A block's float arrays ([runs.Z; c], the products with the codeword
    factors and each point's coefficients) are views of workspaces, valid
    until the generator resumes; the arrays it yields are fresh.
    """
    basis = _short_first(_enumeration_basis(code.sub, trunc))
    gram = basis.T @ basis  # int64: exact modulo 2^64
    blocks = _integer_runs(basis[None], [trunc], cap, gram[None])
    b00 = gram[0, 0]
    mb = code.map.M @ basis
    y0 = mb[:, 0]
    eye = np.eye(len(y0))
    lin = np.add(_det_form(eye, y0[:, None]), _det_form(y0[:, None], eye))  # beta = lin @ X_c
    w = np.vstack([mb[_DET_U], (mb[_DET_V] * _DET_SIGN[..., None]).reshape(8, -1),
                   lin @ mb])[:, ::-1]  # columns s-1 .. 0, matching [runs.Z; c]
    det0 = np.array(_det_form(y0, y0))[:, None]
    limit = math.floor(trunc)
    for block, runs in enumerate(blocks):
        n, counts = len(runs.counts), runs.counts
        c = np.rint(-runs.proj / runs.r00).astype(np.int64)
        inner_p = gram[0, 1:][::-1] @ runs.Z  # <x_p, b_0> of the partial vectors x_p
        inner_c = inner_p + b00 * c
        norm_c = runs.norms + c * (inner_p + inner_c)
        zc = workspace("bound.zc", (len(gram), n))  # [runs.Z; c] as floats
        zc[:-1] = runs.Z
        zc[-1] = c
        y = np.matmul(w, zc, out=workspace("bound.y", (len(w), n)))
        coef = np.empty((4, n))  # (Re, Im) of alpha, then of beta, per run
        prods = y[4:12].reshape(2, 4, n)
        prods *= y[:4]
        prods.sum(axis=1, out=coef[:2])
        coef[2:] = y[12:]

        rep = np.arange(n).repeat(counts)  # the run of each point
        u = np.arange(len(rep))
        u += (runs.lo - c - (counts.cumsum() - counts))[rep]
        norms = norm_c[rep] + u * (2 * inner_c[rep] + b00 * u)
        keep = norms <= limit
        if block == 0:
            keep[0] = False  # x = 0: the zero partial vector's run starts at z_0 = c = 0
        if not keep.all():
            rep, u, norms = rep[keep], u[keep], norms[keep]
        det = coef.take(rep, axis=1, out=workspace("bound.det", (4, len(rep))), mode="clip")
        uf = u.astype(float)
        det[2:] += det0 * uf
        det[2:] *= uf
        det[:2] += det[2:]
        det[:2] *= det[:2]
        yield norms, det[0] + det[1]


def _reciprocal_power(base: np.ndarray, e: int) -> np.ndarray:
    """base^-e for an integer e >= 1, in place: a reciprocal, then squarings
    and products by binary powering (two squarings for e = 4), at about half
    the cost of ``base ** -e``."""
    x = np.reciprocal(base, out=base)
    acc = None
    while e > 1:
        if e & 1:
            acc = x.copy() if acc is None else np.multiply(acc, x, out=acc)
        np.multiply(x, x, out=x)
        e >>= 1
    return x if acc is None else np.multiply(acc, x, out=acc)


def _gamma(sigma_e_sq: float, mode: str) -> float:
    """sigma_e^-2n (pow2n, n = 2) or sigma_e^-2 (pow2); inf past the float range."""
    power = sigma_e_sq * sigma_e_sq if mode == "pow2n" else sigma_e_sq
    return 1.0 / power if power else math.inf


def ecdp_bound_reports(code: CosetCode, sigmas, modes,
                       truncation_r_sq: float | None = None, n_r: int = 2,
                       cap: int = ENUMERATION_CAP) -> list[BoundReport]:
    """Truncated determinant-sum bound on the eavesdropper's success.

    One report per (sigma_e^2, exponent mode) pair, sigmas outermost.  Sums
    det(I + gamma X X*)^-(n_r + T) over the codewords X = M x of the nonzero
    sublattice points x with ||X||_F^2 = ||x||^2 at most ``truncation_r_sq``
    (default: four times the first coding gain).  Each mode selects
    gamma = sigma_e^(-2n) ("pow2n") or sigma_e^(-2) ("pow2"); past the float
    range gamma is infinite and every term its limit 0.  Because
    constant factors are dropped, values are comparable across sublattices
    at fixed parameters, not in absolute terms, and only once the
    truncation holds the sum (gamma * truncation_r_sq >> 1).  At large
    sigma_e^2 and the default radius the value is a partial sum dominated
    by the number of points inside the radius, and its order across
    sublattices can change with the radius.  The integer sublattice is
    enumerated once, with an exact radius test; for 2x2 codewords (the only
    size accepted) each term is (1 + gamma ||x||^2 + gamma^2 |det X|^2)^-(n_r + 2),
    with ||x||^2 and |det X|^2 read off the enumeration's last level in
    closed form (:func:`_bound_terms`).  Each term is even in x, so one point of each
    +-pair is enumerated and the sum doubled; ``points_used`` counts both
    signs.  The terms come in fixed-size blocks of the enumeration and are
    summed as they come, so memory stays flat in the truncation.
    ``outer_share`` is the share of each value from the outer shell
    truncation_r_sq / 2 < ||x||^2 <= truncation_r_sq (0 for a value of 0):
    a sum the truncation holds has a small one.
    """
    if code.map.n != 2:
        raise ValueError("the bound is implemented for 2x2 codewords only")
    if any(mode not in _EXPONENT_MODES for mode in modes):
        raise ValueError(f"exponent_mode must be one of {_EXPONENT_MODES}")
    if not all(0 < sigma_e_sq < math.inf for sigma_e_sq in sigmas):
        raise ValueError("sigma_e_sq must be positive and finite")
    _check_count("n_r", n_r)
    too_short = "truncation radius must exceed the first coding gain"
    if truncation_r_sq is None:
        trunc = 4.0 * first_coding_gain(code.map, code.sub)
    else:
        trunc = float(truncation_r_sq)
        if not trunc > 0:
            raise ValueError(too_short)
    keys = [(float(sigma_e_sq), mode) for sigma_e_sq in sigmas for mode in modes]
    gammas = np.array([_gamma(sigma_e_sq, mode) for sigma_e_sq, mode in keys])
    finite = gammas < math.inf  # an infinite gamma's terms are their limit 0
    gamma = gammas[finite, None]
    sums = np.zeros((len(keys), 2))  # (whole ball, outer shell) per report
    points, least = 0, math.inf  # points of one sign, least norm
    for norms, det_sq in _bound_terms(code, trunc, cap):
        if not len(norms):
            continue
        points += len(norms)
        least = min(least, int(norms.min()))
        with np.errstate(over="ignore"):  # a term past floats is its limit 0
            base = det_sq * gamma
            base += norms
            base *= gamma
            base += 1.0
        terms = _reciprocal_power(base, n_r + 2)
        # row by row, so each report's sums do not depend on the others
        sums[finite, 0] += terms.sum(axis=1)
        sums[finite, 1] += (terms * (2 * norms > trunc)).sum(axis=1)
    # trunc > lambda_1^2 exactly when a point shorter than trunc was enumerated
    if not least < trunc:
        raise ValueError(too_short)
    return [BoundReport(sigma_e_sq, mode, 2.0 * whole, trunc, 2 * points,
                        outer / whole if whole else 0.0)
            for (sigma_e_sq, mode), (whole, outer) in zip(keys, sums.tolist())]


def ecdp_bound_report(code: CosetCode, sigma_e_sq: float,
                      truncation_r_sq: float | None = None, n_r: int = 2,
                      exponent_mode: str = "pow2n",
                      cap: int = ENUMERATION_CAP) -> BoundReport:
    """The one report of :func:`ecdp_bound_reports` for one sigma_e^2 and mode."""
    return ecdp_bound_reports(code, [sigma_e_sq], [exponent_mode], truncation_r_sq,
                              n_r, cap)[0]


def ecdp_bound(code: CosetCode, sigma_e_sq: float,
               truncation_r_sq: float | None = None, n_r: int = 2,
               exponent_mode: str = "pow2n", cap: int = ENUMERATION_CAP) -> float:
    """Value of :func:`ecdp_bound_report`."""
    return ecdp_bound_report(code, sigma_e_sq, truncation_r_sq, n_r,
                             exponent_mode, cap).value


# ---------------------------------------------------------------------------
# design diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignReport:
    index: int
    wr: bool
    lambda1_sq: int
    first_coding_gain: int
    rates: RateReport


def design_reports(codes) -> list[DesignReport]:
    """One table row of diagnostics per coset code, read off one exact
    :func:`shortest_shells` call for all of their sublattices (the map is an
    isometry: coding gain = lambda_1^2)."""
    return [DesignReport(index=code.index, wr=rank == code.sub.k, lambda1_sq=l1,
                         first_coding_gain=l1, rates=rates(code))
            for code, (l1, rank) in zip(codes, shortest_shells([c.sub for c in codes]))]


def design_report(code: CosetCode) -> DesignReport:
    """The one row of :func:`design_reports` for one coset code."""
    return design_reports([code])[0]
