"""Randomized search for well-rounded sublattices of 2Z^k with a given index.

Candidates are sampled in Hermite normal form (lower triangular, diagonal
product equal to the target index, residues reduced).  That reaches every
sublattice of the index when the index factors fully below ``_PRIME_LIMIT``;
a cofactor left composite past it is never split across the diagonal, so
the sublattices that split it are never drawn.  Feasible means
well-rounded; candidates are ranked by their shortest-vector norm with a
lexicographic tie-break so the winner does not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NoFeasibleCandidate
from .lattice import (IntegerLattice, _half_shorter_than, _minkowski_radius_sq,
                      independent_rows, shortest_shell)

_PRIME_LIMIT = 10 ** 6

_INT64_MAX = (1 << 63) - 1

#: restart candidates drawn, then evaluated together
_BLOCK = 256

#: int64 elements in one membership product of a block, which bounds its
#: transient memory
_BLOCK_ELEMENTS = 1 << 16

#: points (both signs) of the short-vector table of Z^k, past which a block's
#: candidates are enumerated one by one instead
_TABLE_CAP = 1 << 16


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) exactly, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


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
        if self.hill_climb and self.k < 2:
            # every move of a 1 x 1 basis has i == j, so none spends budget
            raise ValueError("hill climbing needs k >= 2")
        # every Hermite form of det n has a diagonal entry d >= n^(1/k), and
        # its basis holds 2d
        n, k = int(self.target_index), int(self.k)
        root = _iroot(n, k)
        if 2 * (root + (root ** k < n)) > _INT64_MAX:
            raise ValueError(f"index too large for k = {self.k}: "
                             "no basis of that index fits in int64")


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


def _random_diag(k: int, factors: list[tuple[int, int]], rng: np.random.Generator) -> list[int]:
    diag = [1] * k
    for p, e in factors:
        for i, exp in enumerate(_random_composition(e, k, rng)):
            diag[i] *= p ** exp
    return diag


def _random_hnf(k: int, factors: list[tuple[int, int]], rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular Hermite form with det the product of ``factors``
    (as :func:`_factorize` gives them), residues uniform mod d_row.

    Raises CapacityError when a basis entry 2 d_row would not fit in int64.
    """
    diag = _random_diag(k, factors, rng)
    if 2 * max(diag) > _INT64_MAX:
        raise CapacityError(f"a Hermite form diagonal entry {max(diag)} doubles past int64")
    h = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        h[i, i] = diag[i]
        for j in range(i):
            if diag[i] > 1:
                h[i, j] = rng.integers(0, diag[i])
    return h


def _random_unimodular(k: int, rng: np.random.Generator) -> tuple[list, list]:
    """The draws of a small random unimodular V: a few elementary column
    operations (i, j, f), v_j += f v_i, then the columns to negate.
    :func:`_candidate_basis` applies them; entries stay small."""
    moves = []
    for _ in range(2 * k):
        i, j = rng.integers(0, k, size=2)
        if i == j:
            continue
        f = int(rng.integers(0, 2)) * 2 - 1  # -1 or +1
        moves.append((int(i), int(j), f))
    flips = [j for j in range(k) if rng.integers(0, 2)]
    return moves, flips


def _candidate_basis(h: np.ndarray, draws: tuple[list, list]) -> np.ndarray:
    """The basis 2 H V, with V from :func:`_random_unimodular`'s draws.

    Exact: the column operations run on Python integers, and CapacityError
    is raised when an entry does not fit in int64.
    """
    moves, flips = draws
    cols = h.T.tolist()
    for i, j, f in moves:
        cols[j] = [a + f * b for a, b in zip(cols[j], cols[i])]
    for j in flips:
        cols[j] = [-a for a in cols[j]]
    if any(not -_INT64_MAX <= 2 * a <= _INT64_MAX for col in cols for a in col):
        raise CapacityError("a candidate basis entry does not fit in int64")
    return 2 * np.array(cols, dtype=np.int64).T


def random_sublattice_with_index(k: int, n: int, rng: np.random.Generator) -> IntegerLattice:
    """A random sublattice of 2Z^k with index exactly n.

    Sampled as 2 H V with H a random Hermite-form matrix of determinant n
    and V a small random unimodular matrix.  Sampling is not uniform over
    sublattices, only a heuristic that reaches all of them, except where
    n keeps a composite cofactor past ``_PRIME_LIMIT`` after trial division:
    that cofactor always lands whole on one diagonal entry.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    h = _random_hnf(k, _factorize(n), rng)
    return IntegerLattice(_candidate_basis(h, _random_unimodular(k, rng)))


@lru_cache(maxsize=4)
def _short_vectors(k: int, r: int) -> tuple[np.ndarray, list] | None:
    """The vectors u of Z^k with 4||u||^2 <= r, one of each +-pair, sorted by
    norm, and the (norm, start, stop) rows of each shell; None when 2Z^k has
    more than ``_TABLE_CAP`` points in that ball."""
    try:
        u = _half_shorter_than(IntegerLattice(2 * np.eye(k, dtype=np.int64)), r,
                               _TABLE_CAP) // 2
    except CapacityError:
        return None
    norms = np.sum(u * u, axis=1)
    order = np.argsort(norms, kind="stable")
    u, norms = u[order], norms[order]
    u.setflags(write=False)
    levels, starts = np.unique(norms, return_index=True)
    stops = np.append(starts[1:], len(u))
    return u, list(zip(levels.tolist(), starts.tolist(), stops.tolist()))


def _shell_hits(ops: np.ndarray, n: int, table: tuple[np.ndarray, list]) -> list[tuple[int, int]]:
    """(lambda_1^2, shell rank) of each lattice of a block from its
    membership operator: 2u lies in lattice b exactly when ops[b] u = 0
    (mod n).

    The block is tested against the short-vector ``table`` of
    :func:`_short_vectors` a norm shell at a time; a lattice leaves at its
    first shell with a hit, which gives lambda_1^2, and the rank of its hits
    there is the shell rank.  The caller makes sure the table reaches every
    lattice's shortest vectors and that int64 holds every product sum.
    """
    u, shells = table
    b, k = ops.shape[:2]
    out = [None] * b
    active = np.arange(b)
    for norm, start, stop in shells:
        a, shell = ops[active], u[start:stop]
        step = max(1, _BLOCK_ELEMENTS // (len(active) * k))
        hits = np.concatenate([np.all(a @ shell[c:c + step].T % n == 0, axis=1)
                               for c in range(0, len(shell), step)], axis=1)
        found = hits.any(axis=1)
        for row in np.flatnonzero(found):
            out[active[row]] = (4 * norm, len(independent_rows(shell[hits[row]], k)))
        active = active[~found]
        if not len(active):
            break
    return out


def _adjugates(ms: np.ndarray) -> np.ndarray:
    """+-adj(M) for each nonsingular M of the stack: fraction-free
    Gauss-Jordan elimination of [M | I] with row pivoting (Bareiss 1968).
    Entries stay minors of the row-permuted [M | I] and products within the
    square of the largest, which the caller bounds; the sign is that of the
    row permutation."""
    b, k = ms.shape[:2]
    a = np.concatenate([ms, np.broadcast_to(np.eye(k, dtype=np.int64), ms.shape)], axis=2)
    prev = np.ones((b, 1, 1), dtype=np.int64)
    for s in range(k):
        pivot = s + np.argmax(a[:, s:, s] != 0, axis=1)
        moved = np.flatnonzero(pivot != s)
        if len(moved):
            a[moved, s], a[moved, pivot[moved]] = a[moved, pivot[moved]], a[moved, s]
        row = a[:, s, s:].copy()
        p = row[:, :1, None]
        a[:, :, s:] = (p * a[:, :, s:] - a[:, :, s, None] * row[:, None]) // prev
        a[:, s, s:] = row
        prev = p
    return a[:, :, k:]


def _block_shells(ms: np.ndarray, n: int) -> list[tuple[int, int]]:
    """(lambda_1^2, shell rank) of the lattice 2M for each integer basis M
    of |det M| = n in the stack ``ms``, exactly; the values
    :func:`shortest_shell` gives.

    2u lies in the lattice of 2M exactly when adj(M) u = 0 (mod n)
    (:func:`_adjugates`, :func:`_shell_hits`).  The table's radius is the
    block's largest min(shortest column of 2M, Minkowski ceiling), so it
    holds every shortest vector.  Each 2M is enumerated by
    :func:`shortest_shell` instead when the table would pass ``_TABLE_CAP``
    or int64 cannot be shown to hold the arithmetic.
    """
    k = ms.shape[1]
    sq = ms.astype(float) ** 2
    # Hadamard: h^2, the smaller product of M's squared row or column norms,
    # bounds every squared minor of [M | I], so elimination stays within h^2,
    # column norms within k h^2 and membership sums within k^1.5 h^2 (table
    # vectors are no longer than a column); float error is far below 2x
    h_sq = np.minimum(sq.sum(axis=2).prod(axis=1), sq.sum(axis=1).prod(axis=1)).max()
    table = None
    if k * k * h_sq < 2.0 ** 62:
        col = int((ms * ms).sum(axis=1).min(axis=1).max())
        table = _short_vectors(k, min(4 * col, _minkowski_radius_sq(k, n << k)))
    if table is None:
        return [shortest_shell(IntegerLattice(2 * m)) for m in ms]
    return _shell_hits(_adjugates(ms) % n, n, table)


def _climb_moves(k: int, count: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """The next ``count`` hill-climb moves (i, j, f), row j += f row i; a
    draw with i == j is skipped and costs no budget."""
    moves = []
    while len(moves) < count:
        i, j = rng.integers(0, k, size=2)
        if i == j:
            continue
        moves.append((int(i), int(j), int(rng.integers(0, 2)) * 2 - 1))
    return moves


def _climb_trials(m: np.ndarray, moves: list) -> np.ndarray:
    """The stack of E M for the hill-climb moves E = (i, j, f) of the
    incumbent 2M, row j += f row i, which keeps the index.  The entries of
    2M fit in int64, so no row sum wraps; CapacityError is raised when an
    entry of some 2EM does not fit."""
    i, j, f = (np.array(x) for x in zip(*moves))
    rows = m[j] + f[:, None] * m[i]
    if np.abs(rows).max() > _INT64_MAX // 2:
        raise CapacityError("a candidate basis entry does not fit in int64")
    trials = np.repeat(m[None], len(moves), axis=0)
    trials[np.arange(len(moves)), j] = rows
    return trials


def _lex(basis: np.ndarray) -> tuple:
    # ties go to the lexicographically smallest flattened basis so the
    # winner is schedule independent
    return tuple(int(x) for x in basis.ravel())


def _balanced_diagonal(k: int, n: int) -> np.ndarray | None:
    """diag(d, ..., d) with d^k = n, when n is a perfect k-th power."""
    d = _iroot(n, k)
    return np.diag([d] * k).astype(np.int64) if d ** k == n else None


def search_wr_sublattice(cfg: SearchConfig) -> tuple[IntegerLattice, SearchReport]:
    """Randomized search for a well-rounded sublattice of 2Z^k.

    Spends the budget on random Hermite-form restarts (seeded with the
    balanced diagonal lattice when the index is a perfect k-th power),
    keeping the well-rounded candidate with maximal lambda_1^2.  With
    ``hill_climb`` half the budget refines the incumbent by elementary
    index-preserving basis moves, climbing on (lambda_1^2, shell rank).
    Restarts and moves are drawn a block at a time and each block's
    shortest shells are found at once (:func:`_block_shells`), restarts on
    their Hermite forms and moves on the trial bases; after a trial is
    accepted the rest of its block is evaluated again, so the result is
    that of a move-by-move climb.
    Deterministic for a fixed seed.  Raises NoFeasibleCandidate when no
    well-rounded candidate shows up; the exception carries the best non-WR
    lattice and the report.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))
    k, n = int(cfg.k), int(cfg.target_index)

    best_wr = None   # ((-l1, lex), basis, l1, rank)
    best_any = None  # ((-l1, -rank, lex), basis, l1, rank) for climbing and fallback
    feasible = 0
    remaining = cfg.budget

    def consider(l1: int, rank: int, basis_of) -> None:
        """Count one candidate and keep it where it beats an incumbent.

        ``basis_of()`` gives the candidate's basis.  It is called only when
        (lambda_1^2, rank) reaches an incumbent's, where the basis breaks
        the tie or is kept.
        """
        nonlocal best_wr, best_any, feasible, remaining
        remaining -= 1
        basis = lex = None
        if best_any is None or (-l1, -rank) <= best_any[0][:2]:
            basis = basis_of()
            lex = _lex(basis)
            if best_any is None or (-l1, -rank, lex) < best_any[0]:
                best_any = ((-l1, -rank, lex), basis, l1, rank)
        if rank == k:
            feasible += 1
            if best_wr is None or -l1 <= best_wr[0][0]:
                if basis is None:
                    basis = basis_of()
                    lex = _lex(basis)
                if best_wr is None or (-l1, lex) < best_wr[0]:
                    best_wr = ((-l1, lex), basis, l1, rank)

    diag = _balanced_diagonal(k, n)
    if diag is not None and remaining > 0:
        balanced = IntegerLattice(2 * diag)
        consider(*shortest_shell(balanced), lambda: balanced.B)

    factors = _factorize(n)
    restart_budget = remaining if not cfg.hill_climb else (remaining + 1) // 2
    for start in range(0, restart_budget, _BLOCK):
        draws = [(_random_hnf(k, factors, rng), _random_unimodular(k, rng))
                 for _ in range(min(_BLOCK, restart_budget - start))]
        shells = _block_shells(np.array([h for h, _ in draws]), n)
        for (h, v), (l1, rank) in zip(draws, shells):
            consider(l1, rank, lambda h=h, v=v: _candidate_basis(h, v))

    if cfg.hill_climb:
        _, current, cur_l1, cur_rank = best_wr if best_wr is not None else best_any
        m = current // 2
        while remaining > 0:
            moves = _climb_moves(k, min(_BLOCK, remaining), rng)
            done = 0
            while done < len(moves):  # evaluated against the current incumbent
                trials = _climb_trials(m, moves[done:])
                for trial, (l1, rank) in zip(trials, _block_shells(trials, n)):
                    done += 1
                    consider(l1, rank, lambda trial=trial: 2 * trial)
                    if (l1, rank) > (cur_l1, cur_rank):  # the rest is evaluated anew
                        m, cur_l1, cur_rank = trial, l1, rank
                        break

    if best_wr is not None:
        _, basis, l1, _ = best_wr
        return IntegerLattice(basis), SearchReport(evaluated=cfg.budget, feasible=feasible,
                                                   best_lambda1_sq=l1, best_is_wr=True)
    _, basis, l1, _ = best_any
    report = SearchReport(evaluated=cfg.budget, feasible=0,
                          best_lambda1_sq=l1, best_is_wr=False)
    raise NoFeasibleCandidate(
        f"no well-rounded sublattice of index {n} found within {cfg.budget} "
        f"candidates (best non-WR lambda_1^2 = {l1})", best=IntegerLattice(basis), report=report)
