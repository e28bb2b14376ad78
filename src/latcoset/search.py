"""Randomized search for well-rounded sublattices of 2Z^k with a given index.

Candidates are sampled in Hermite normal form (lower triangular, diagonal
product equal to the target index, residues reduced), which reaches every
sublattice of that index.  Feasible means well-rounded; candidates are
ranked by their shortest-vector norm with a lexicographic tie-break so the
winner does not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleCandidate
from .lattice import IntegerLattice, shortest_shell

_PRIME_LIMIT = 10 ** 6


@dataclass(frozen=True)
class SearchConfig:
    k: int
    target_index: int
    budget: int
    seed: int
    hill_climb: bool = False

    def __post_init__(self):
        if self.k < 1 or self.target_index < 1:
            raise ValueError("dimension and index must be positive")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class SearchReport:
    evaluated: int
    feasible: int
    best_lambda1_sq: int
    best_is_wr: bool


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n and d <= _PRIME_LIMIT:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _random_composition(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Uniform composition of ``total`` into ``parts`` nonnegative parts."""
    if total == 0:
        return [0] * parts
    bars = rng.choice(total + parts - 1, size=parts - 1, replace=False) if parts > 1 else []
    bars = sorted(int(b) for b in bars)
    prev = -1
    sizes = []
    for b in bars:
        sizes.append(b - prev - 1)
        prev = b
    sizes.append(total + parts - 2 - prev)
    return sizes


def _random_diag(k: int, n: int, rng: np.random.Generator) -> list[int]:
    diag = [1] * k
    for p, e in _factorize(n):
        for i, exp in enumerate(_random_composition(e, k, rng)):
            diag[i] *= p ** exp
    return diag


def _random_hnf(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular Hermite form with det n, residues uniform mod d_row."""
    diag = _random_diag(k, n, rng)
    h = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        h[i, i] = diag[i]
        for j in range(i):
            if diag[i] > 1:
                h[i, j] = rng.integers(0, diag[i])
    return h


def _random_unimodular(k: int, rng: np.random.Generator) -> np.ndarray:
    """Product of a few elementary column operations; keeps entries small."""
    v = np.eye(k, dtype=np.int64)
    for _ in range(2 * k):
        i, j = rng.integers(0, k, size=2)
        if i == j:
            continue
        f = int(rng.integers(0, 2)) * 2 - 1  # -1 or +1
        v[:, j] += f * v[:, i]
    for j in range(k):
        if rng.integers(0, 2):
            v[:, j] = -v[:, j]
    return v


def random_sublattice_with_index(k: int, n: int, rng: np.random.Generator) -> IntegerLattice:
    """A random sublattice of 2Z^k with index exactly n.

    Sampled as 2 H V with H a random Hermite-form matrix of determinant n
    and V a small random unimodular matrix.  Sampling is not uniform over
    sublattices, only a heuristic that reaches all of them.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    h = _random_hnf(k, n, rng)
    v = _random_unimodular(k, rng)
    return IntegerLattice(2 * (h @ v))


def _candidate_key(l1: int, basis: np.ndarray) -> tuple:
    # larger shortest vector wins; ties go to the lexicographically
    # smallest flattened basis so the winner is schedule independent
    return (-l1, tuple(int(x) for x in basis.ravel()))


def _balanced_diagonal(k: int, n: int) -> np.ndarray | None:
    """diag(d, ..., d) with d^k = n, when n is a perfect k-th power."""
    d = round(n ** (1.0 / k))
    for cand in (d - 1, d, d + 1):
        if cand >= 1 and cand ** k == n:
            return np.diag([cand] * k).astype(np.int64)
    return None


def search_wr_sublattice(cfg: SearchConfig) -> tuple[IntegerLattice, SearchReport]:
    """Randomized search for a well-rounded sublattice of 2Z^k.

    Spends the budget on random Hermite-form restarts (seeded with the
    balanced diagonal lattice when the index is a perfect k-th power),
    keeping the well-rounded candidate with maximal lambda_1^2.  With
    ``hill_climb`` half the budget refines the incumbent by elementary
    index-preserving basis moves, climbing on (lambda_1^2, shell rank).
    Deterministic for a fixed seed.  Raises NoFeasibleCandidate when no
    well-rounded candidate shows up; the exception carries the best
    non-WR lattice and the report.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))
    k, n = cfg.k, cfg.target_index

    best_wr = None   # (key, lattice, l1, rank)
    best_any = None  # ((-l1, -rank, lex), lattice, l1, rank) for climbing and fallback
    feasible = 0
    remaining = cfg.budget

    def consider(lat: IntegerLattice) -> tuple[int, int]:
        nonlocal best_wr, best_any, feasible, remaining
        l1, rank = shortest_shell(lat)
        remaining -= 1
        climb_key = (-l1, -rank) + _candidate_key(l1, lat.B)[1:]
        if best_any is None or climb_key < best_any[0]:
            best_any = (climb_key, lat, l1, rank)
        if rank == k:
            feasible += 1
            key = _candidate_key(l1, lat.B)
            if best_wr is None or key < best_wr[0]:
                best_wr = (key, lat, l1, rank)
        return l1, rank

    diag = _balanced_diagonal(k, n)
    if diag is not None and remaining > 0:
        consider(IntegerLattice(2 * diag))

    restart_budget = remaining if not cfg.hill_climb else (remaining + 1) // 2
    for _ in range(restart_budget):
        consider(random_sublattice_with_index(k, n, rng))

    if cfg.hill_climb:
        _, current, cur_l1, cur_rank = best_wr if best_wr is not None else best_any
        while remaining > 0:
            i, j = rng.integers(0, k, size=2)
            if i == j:
                continue
            coeff = int(rng.integers(0, 2)) * 2 - 1
            b = current.B.copy()
            b[j, :] += coeff * b[i, :]  # left elementary op: same index
            trial = IntegerLattice(b)
            l1, rank = consider(trial)
            if (l1, rank) > (cur_l1, cur_rank):
                current, cur_l1, cur_rank = trial, l1, rank

    if best_wr is not None:
        _, lat, l1, _ = best_wr
        return lat, SearchReport(evaluated=cfg.budget, feasible=feasible,
                                 best_lambda1_sq=l1, best_is_wr=True)
    _, lat, l1, _ = best_any
    report = SearchReport(evaluated=cfg.budget, feasible=0,
                          best_lambda1_sq=l1, best_is_wr=False)
    raise NoFeasibleCandidate(
        f"no well-rounded sublattice of index {n} found within {cfg.budget} "
        f"candidates (best non-WR lambda_1^2 = {l1})", best=lat, report=report)
