"""Quasi-static Rayleigh MIMO channel: sampling, real expansion, transmission.

Every random operation takes an explicit numpy Generator so that runs are
reproducible and parallel workers can use independently derived streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stcode import Codeword, PAMAlphabet, STCodeMap


@dataclass(frozen=True)
class ChannelParams:
    """Antenna counts and fading scale; defaults to the symmetric 2x2 case."""

    n_t: int = 2
    n_r: int = 2
    T: int = 2
    sigma_h: float = 1.0

    def __post_init__(self):
        if min(self.n_t, self.n_r, self.T) < 1:
            raise ValueError("antenna counts and block length must be positive")
        if self.sigma_h <= 0:
            raise ValueError("sigma_h must be positive")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One complex fading matrix, held fixed for a full codeword."""

    H: np.ndarray

    def __post_init__(self):
        h = np.array(self.H, dtype=complex)
        if h.ndim != 2 or not np.all(np.isfinite(h.view(float))):
            raise ValueError("H must be a finite complex matrix")
        h.setflags(write=False)
        object.__setattr__(self, "H", h)


@dataclass(frozen=True)
class NoiseModel:
    """Per-complex-entry noise variance sigma^2 (split evenly over Re/Im)."""

    sigma_sq: float

    def __post_init__(self):
        if not 0 < self.sigma_sq < math.inf:  # a NaN fails too
            raise ValueError("sigma_sq must be positive and finite")


def sample_channel(params: ChannelParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw H with independent Re/Im entries ~ Normal(0, sigma_h^2).

    Draw order is fixed: one (n_r, n_t, 2) standard-normal block, last axis
    holding (real, imaginary).
    """
    g = rng.standard_normal((params.n_r, params.n_t, 2)) * params.sigma_h
    return ChannelRealization(g[..., 0] + 1j * g[..., 1])


def _real_expand(h: np.ndarray) -> np.ndarray:
    """2x2-block real form of complex matrices: h -> [[Re, -Im], [Im, Re]].

    Acts on the last two axes; leading axes are a batch.
    """
    *batch, n_r, n_t = h.shape
    out = np.empty((*batch, 2 * n_r, 2 * n_t))
    out[..., 0::2, 0::2] = h.real
    out[..., 0::2, 1::2] = -h.imag
    out[..., 1::2, 0::2] = h.imag
    out[..., 1::2, 1::2] = h.real
    return out


def realify(channel, T: int) -> np.ndarray:
    """Real-equivalent channel matrix acting on vectorized codewords.

    Satisfies realify(H, T) @ vectorize(X) == vectorize(H @ X) for every
    complex n_t x T matrix X (block diagonal over the T columns).
    """
    h = channel.H if isinstance(channel, ChannelRealization) else np.asarray(channel, dtype=complex)
    return np.kron(np.eye(T), _real_expand(h))


def transmit(channel: ChannelRealization, x: Codeword, noise: NoiseModel,
             rng: np.random.Generator) -> np.ndarray:
    """One channel use block: Y = H X + N with complex Gaussian noise.

    Noise entries have variance sigma^2 per complex entry, i.e. sigma^2/2
    on each of the real and imaginary parts.
    """
    h = channel.H
    n_r = h.shape[0]
    t = x.Z.shape[1]
    g = rng.standard_normal((n_r, t, 2)) * math.sqrt(noise.sigma_sq / 2.0)
    return h @ x.Z + g[..., 0] + 1j * g[..., 1]


def snr_to_sigma(snr_db: float, code_map: STCodeMap, alphabet: PAMAlphabet) -> NoiseModel:
    """Noise variance from SNR in dB.

    SNR is defined as E_s / sigma^2 where E_s is the average transmit energy
    per channel use, E_s = E||M z||^2 / T = trace(M^T M) (m^2-1)/3 / T for
    uniform PAM coefficients.  Fading gain is not included (sigma_h is
    normalized separately).  Raises ValueError where sigma^2 leaves the float
    range: past it at very low SNR, 0 at very high SNR.  A numpy scalar SNR
    is taken as the equal Python float.
    """
    es = alphabet.mean_square * float(np.trace(code_map.M.T @ code_map.M)) / code_map.T
    try:
        sigma_sq = es * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        sigma_sq = math.inf
    if sigma_sq == math.inf:
        raise ValueError(f"the noise variance at {snr_db} dB is past the float range")
    return NoiseModel(sigma_sq=sigma_sq)
