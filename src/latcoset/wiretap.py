"""Coset coding over ST codes: rates, message labels, ECDP estimation,
the eavesdropper-success bound, and design diagnostics.

Monte-Carlo estimation is chunked: every chunk of trials owns a generator
derived from (seed, snr-point index, chunk index), so results are
bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import _real_expand, snr_to_sigma
from .decoder import (DEFAULT_CODEBOOK_CAP, DecodingProblem, codebook,
                      exhaustive_argmin, ml_decode_exhaustive, sphere_decode)
from .errors import CodebookTooLarge, NotASublattice, RankDeficientChannel
from .lattice import (ENUMERATION_CAP, IntegerLattice, RealLattice,
                      coset_label, coset_labels, enumerate_shorter_than,
                      index_in_superlattice, is_well_rounded, label_operator,
                      successive_minima)
from .stcode import PAMAlphabet, STCodeMap, codeword_matrices, first_coding_gain

#: trials per RNG chunk; fixed, since it is part of the random stream layout
CHUNK_TRIALS = 1024

#: codebook-size threshold below which the vectorized exhaustive ML decoder
#: is used for simulation ("auto" strategy); beyond it the sphere decoder runs.
#: Golden 4-PAM (65 536 words) would decode faster exhaustively at low SNR:
#: on a 2-core host with 1 BLAS thread, 1024 trials took 137 and 144
#: us/trial at 0 and 20 dB, against 410 and 65 us/trial for the sphere
#: decoder.  But its cached features and distance blocks raise the peak RSS
#: from 40 to 102 MB, so the limit stays below that codebook.
EXHAUSTIVE_LIMIT = 4096

_WILSON_Z = 1.959963984540054  # two-sided 95%

_EXPONENT_MODES = ("pow2n", "pow2")


# ---------------------------------------------------------------------------
# coset code and rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CosetCode:
    """An ST code map, a PAM alphabet, and a coefficient-space sublattice.

    The sublattice must live inside 2Z^k (every entry even): cosets are then
    constant on the odd-integer signaling grid.
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

    @cached_property
    def half_sub(self) -> IntegerLattice:
        """The sublattice scaled by 1/2, acting on (z - 1)/2 coordinates."""
        return IntegerLattice(self.B_half)

    @property
    def B_half(self) -> np.ndarray:
        return self.sub.B // 2

    @cached_property
    def index(self) -> int:
        """Number of cosets inside 2Z^k, exactly."""
        two_zk = IntegerLattice(2 * np.eye(self.map.k, dtype=np.int64))
        return index_in_superlattice(self.sub, two_zk)


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
    """Coset label of a signaling word; equal labels mean equal messages.

    z must lie on the alphabet grid.  Labels of z and z' coincide exactly
    when z - z' is a sublattice vector.
    """
    zv = np.asarray(z)
    syms = code.alphabet.symbols
    if zv.shape != (code.map.k,) or np.any(np.abs(zv) > syms[-1]) or np.any(zv % 2 == 0):
        raise ValueError("invalid symbol vector for this alphabet")
    t = (zv.astype(np.int64) - 1) // 2
    return coset_label(t, code.half_sub)


# ---------------------------------------------------------------------------
# Wilson interval and curve containers
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
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


def _decode_one(problem: DecodingProblem) -> np.ndarray:
    """Sphere decoding, or the exhaustive ML decision on a rank-deficient channel."""
    try:
        return sphere_decode(problem)
    except RankDeficientChannel:
        return ml_decode_exhaustive(problem)


def _simulate_chunk(code_map: STCodeMap, alphabet: PAMAlphabet, labeler, sigma_sq: float,
                    n_r: int, n_trials: int, rng: np.random.Generator,
                    strategy: str) -> tuple[int, int]:
    """Run one chunk of trials; returns (message successes, word successes).

    Draw order is fixed: symbol indices, channel block, noise block.
    ``labeler`` is the half sublattice's :func:`label_operator`; when it is
    None, message success equals word success.
    """
    m = alphabet.m
    k = code_map.k
    n_t = code_map.n
    t_uses = code_map.T

    sym_idx = rng.integers(0, m, size=(n_trials, k))
    hblock = rng.standard_normal((n_trials, n_r, n_t, 2))
    noise = rng.standard_normal((n_trials, 2 * n_r * t_uses)) * math.sqrt(sigma_sq / 2.0)

    z = alphabet.symbols[sym_idx]
    mb = code_map.M.reshape(t_uses, 2 * n_t, k)
    r4 = _real_expand(hblock[..., 0] + 1j * hblock[..., 1])
    heff = np.einsum("bij,tjk->btik", r4, mb).reshape(n_trials, 2 * n_r * t_uses, k)
    y = np.einsum("bik,bk->bi", heff, z.astype(float)) + noise

    if strategy == "exhaustive":
        zhat = codebook(m, k)[exhaustive_argmin(heff, y, m)]
    else:
        zhat = np.array([_decode_one(DecodingProblem(y=y[i], Heff=heff[i], alphabet=alphabet))
                         for i in range(n_trials)])
    word_succ = int(np.count_nonzero(np.all(zhat == z, axis=1)))
    if labeler is None:
        return word_succ, word_succ
    labels = coset_labels((np.concatenate([zhat, z]) - 1) // 2, *labeler)
    same = np.all(labels[:n_trials] == labels[n_trials:], axis=1)
    return int(np.count_nonzero(same)), word_succ


def _chunk_task(args):
    (code_map, alphabet, labeler, sigma_sq, n_r, seed,
     point_idx, chunk_idx, n_trials, strategy) = args
    rng = _chunk_rng(seed, point_idx, chunk_idx)
    return _simulate_chunk(code_map, alphabet, labeler, sigma_sq, n_r,
                           n_trials, rng, strategy)


def _resolve_strategy(decoder: str, m: int, k: int) -> str:
    if decoder not in ("auto", "sphere", "exhaustive"):
        raise ValueError("decoder must be one of auto|sphere|exhaustive")
    if decoder == "exhaustive" and m ** k > DEFAULT_CODEBOOK_CAP:
        raise CodebookTooLarge(f"|S|^k = {m ** k} exceeds the exhaustive-decoding "
                               f"cap {DEFAULT_CODEBOOK_CAP}; use the sphere decoder")
    if decoder != "auto":
        return decoder
    return "exhaustive" if m ** k <= EXHAUSTIVE_LIMIT else "sphere"


def _run_curve(code_map: STCodeMap, alphabet: PAMAlphabet, labeler,
               snr_db_list, trials: int, seed: int, workers: int,
               decoder: str, n_r: int, metric: str) -> ECDPCurve:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    strategy = _resolve_strategy(decoder, alphabet.m, code_map.k)
    tasks = []
    for point_idx, _ in enumerate(snr_db_list):
        sigma_sq = snr_to_sigma(snr_db_list[point_idx], code_map, alphabet).sigma_sq
        n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
        for chunk_idx in range(n_chunks):
            n = min(CHUNK_TRIALS, trials - chunk_idx * CHUNK_TRIALS)
            tasks.append((code_map, alphabet, labeler, sigma_sq, n_r, seed,
                          point_idx, chunk_idx, n, strategy))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_task, tasks, chunksize=4))
    else:
        results = [_chunk_task(t) for t in tasks]

    points = []
    pos = 0
    for point_idx, snr_db in enumerate(snr_db_list):
        n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
        msg = word = 0
        for _ in range(n_chunks):
            msg += results[pos][0]
            word += results[pos][1]
            pos += 1
        if metric == "message_success":
            count = msg
        elif metric == "word_error":
            count = trials - word
        else:
            raise ValueError(f"unknown metric {metric!r}")
        lo, hi = wilson_interval(count, trials)
        points.append(ECDPPoint(snr_db=float(snr_db), estimate=count / trials,
                                trials=trials, ci_low=lo, ci_high=hi))
    return ECDPCurve(points=tuple(points))


def ecdp_monte_carlo(code: CosetCode, snr_db_list, trials: int, seed: int, *,
                     workers: int = 1, decoder: str = "auto",
                     n_r: int = 2) -> ECDPCurve:
    """Estimate the eavesdropper's correct message-decoding probability.

    Per trial: draw a uniform signaling word and a fresh Rayleigh channel,
    add noise calibrated from the SNR, ML-decode, and count success when the
    decoded word lies in the transmitted word's coset.  Estimates come with
    95% Wilson intervals.
    """
    return _run_curve(code.map, code.alphabet, label_operator(code.half_sub),
                      snr_db_list, trials, seed, workers, decoder, n_r,
                      "message_success")


def bob_cer_monte_carlo(code_map: STCodeMap, alphabet: PAMAlphabet, snr_db_list,
                        trials: int, seed: int, *, workers: int = 1,
                        decoder: str = "auto", n_r: int = 2) -> ECDPCurve:
    """Codeword error rate of plain ML decoding (no coset structure).

    Uses the same per-trial draws as :func:`ecdp_monte_carlo` for the same
    seed, so message errors are pathwise a subset of word errors.
    """
    return _run_curve(code_map, alphabet, None, snr_db_list, trials,
                      seed, workers, decoder, n_r, "word_error")


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


def ecdp_bound_report(code: CosetCode, sigma_e_sq: float,
                      truncation_r_sq: float | None = None, n_r: int = 2,
                      exponent_mode: str = "pow2n",
                      cap: int = ENUMERATION_CAP) -> BoundReport:
    """Truncated determinant-sum bound on the eavesdropper's success.

    Sums det(I + gamma X X*)^-(n_r + T) over nonzero mapped sublattice
    points with squared Frobenius norm at most ``truncation_r_sq`` (default:
    four times the first coding gain).  ``exponent_mode`` selects
    gamma = sigma_e^(-2n) ("pow2n") or sigma_e^(-2) ("pow2").  Because
    constant factors are dropped, values are comparable across sublattices
    at fixed parameters, not in absolute terms, and only once the
    truncation holds the sum (gamma * truncation_r_sq >> 1).  At large
    sigma_e^2 and the default radius the value is a partial sum dominated
    by the number of points inside the radius, and its order across
    sublattices can change with the radius.
    """
    if exponent_mode not in _EXPONENT_MODES:
        raise ValueError(f"exponent_mode must be one of {_EXPONENT_MODES}")
    if sigma_e_sq <= 0:
        raise ValueError("sigma_e_sq must be positive")
    fcg = float(first_coding_gain(code.map, code.sub))
    trunc = 4.0 * fcg if truncation_r_sq is None else float(truncation_r_sq)
    if trunc <= fcg:
        raise ValueError("truncation radius must exceed the first coding gain")
    n = code.map.n
    t_uses = code.map.T
    lat = RealLattice(code.map.M @ code.sub.B.astype(float))
    pts = enumerate_shorter_than(lat, trunc, cap=cap)
    cw = codeword_matrices(pts, n, t_uses)
    gamma = float(sigma_e_sq) ** (-n) if exponent_mode == "pow2n" else 1.0 / float(sigma_e_sq)
    gram = cw @ np.conj(np.transpose(cw, (0, 2, 1)))
    dets = np.linalg.det(np.eye(n)[None, :, :] + gamma * gram).real
    value = float(np.sum(dets ** (-(n_r + t_uses))))
    return BoundReport(sigma_e_sq=float(sigma_e_sq), exponent_mode=exponent_mode,
                       value=value, truncation_r_sq=trunc,
                       points_used=int(pts.shape[0]))


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
    first_coding_gain: float
    rates: RateReport


def design_report(code: CosetCode) -> DesignReport:
    """One table row of diagnostics for a coset code."""
    sm = successive_minima(code.sub)
    return DesignReport(index=code.index,
                        wr=is_well_rounded(code.sub),
                        lambda1_sq=sm.lambda1_sq,
                        first_coding_gain=first_coding_gain(code.map, code.sub),
                        rates=rates(code))
