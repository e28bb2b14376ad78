"""Randomized search for well-rounded sublattices of 2Z^k with a given index.

Candidates are sampled in Hermite normal form (lower triangular, diagonal
product equal to the target index, residues reduced), which reaches every
sublattice of that index.  Feasible means well-rounded; candidates are
ranked by their shortest-vector norm with a lexicographic tie-break so the
winner does not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NoFeasibleCandidate
from .lattice import (IntegerLattice, _half_shorter_than, _minkowski_radius_sq,
                      independent_rows, label_operator, shortest_shell)

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
    sublattices, only a heuristic that reaches all of them.
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


def _shell_hits(ops: np.ndarray, mods, table: tuple[np.ndarray, list]) -> list[tuple[int, int]]:
    """(lambda_1^2, shell rank) of each lattice of a block from its
    membership operator: 2u lies in lattice b exactly when ops[b] u = 0
    modulo ``mods`` row by row (``mods`` broadcasts against the products,
    block x k x vectors).

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
        hits = np.concatenate([np.all(a @ shell[c:c + step].T % mods == 0, axis=1)
                               for c in range(0, len(shell), step)], axis=1)
        found = hits.any(axis=1)
        for row in np.flatnonzero(found):
            out[active[row]] = (4 * norm, len(independent_rows(shell[hits[row]], k)))
        active = active[~found]
        if not len(active):
            break
    return out


def _hnf_shells(hs: np.ndarray, n: int) -> list[tuple[int, int]]:
    """(lambda_1^2, shell rank) of the lattice 2H for each lower-triangular
    Hermite form H of det n (residues 0 <= h_ij < h_ii) in the stack ``hs``,
    exactly; the values :func:`shortest_shell` gives.

    2u lies in the lattice of 2H exactly when adj(H) u = 0 (mod n), and
    adj(H) = n H^-1 comes out of forward substitution; :func:`_shell_hits`
    tests the block.  The table's radius is the block's largest
    per-candidate radius min(shortest column of 2H, Minkowski ceiling), so
    it holds every shortest vector.  When the table would pass
    ``_TABLE_CAP``, or int64 cannot be shown to hold the arithmetic, each 2H
    is enumerated by :func:`shortest_shell`.
    """
    k = hs.shape[1]
    table = None
    # |adj(H)_ij| <= 2^(k-2) n for such H, so every sum below, and every
    # squared column norm, stays within 2^k n^2 in magnitude
    if n * n << k <= _INT64_MAX:
        col = int((hs * hs).sum(axis=1).min(axis=1).max())
        table = _short_vectors(k, min(4 * col, _minkowski_radius_sq(k, n << k)))
    if table is None:
        return [shortest_shell(IntegerLattice(2 * h)) for h in hs]
    adj = np.zeros_like(hs)
    for i in range(k):  # row i of H adj(H) = n I
        adj[:, i] = -np.einsum("bm,bmj->bj", hs[:, i, :i], adj[:, :i])
        adj[:, i, i] += n
        adj[:, i] //= hs[:, i, i, None]
    adj %= n
    return _shell_hits(adj, n, table)


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


def _moved_basis(c: np.ndarray, move: tuple[int, int, int]) -> np.ndarray:
    """The basis E C of a hill-climb move (i, j, f): row j of C plus f times
    row i, a left elementary operation, so the index is kept.

    Exact, as :func:`_candidate_basis`, which makes the move on the columns
    of C^T / 2: CapacityError is raised when an entry does not fit in int64.
    """
    return _candidate_basis((c // 2).T, ([move], [])).T


def _climb_shells(c: np.ndarray, op: tuple[np.ndarray, np.ndarray], n: int,
                  moves: list) -> list[tuple[int, int]]:
    """(lambda_1^2, shell rank) of the lattice of E C for each hill-climb
    move E in ``moves`` (see :func:`_moved_basis`), exactly; the values
    :func:`shortest_shell` gives.

    C = 2M with M of det +-n, and ``op`` is (U mod d_k, d) of M's Smith
    form U M V = D (:func:`label_operator`).  2u lies in the lattice of 2EM
    exactly when (U E^-1 u)_r = 0 (mod d_r) for every row r, and U E^-1 is
    U with column i less f times column j; :func:`_shell_hits` tests the
    block.  The table's radius is the largest min(shortest column of 2EM,
    Minkowski ceiling) of the moves.  When U is not int64, the table would
    pass ``_TABLE_CAP``, or int64 cannot be shown to hold the arithmetic,
    each E C is formed and enumerated by :func:`shortest_shell`.
    """
    u_op, d = op
    k = len(d)
    m = c // 2
    i, j, f = (np.array(x) for x in zip(*moves))
    table = None
    big = int(np.abs(m).max())
    # entries of EM are at most 2 big, so every column norm below stays
    # within (k + 4) big^2, and no E C can pass int64
    if u_op.dtype == np.int64 and (k + 4) * big * big <= _INT64_MAX:
        row = m[j] + f[:, None] * m[i]  # row j of each EM
        norms = (m * m).sum(axis=0) - m[j] * m[j] + row * row
        r = min(4 * int(norms.min(axis=1).max()), _minkowski_radius_sq(k, n << k))
        if k * int(d[-1]) * math.isqrt(r // 4) <= _INT64_MAX:
            table = _short_vectors(k, r)
    if table is None:
        return [shortest_shell(IntegerLattice(_moved_basis(c, mv))) for mv in moves]
    ops = np.repeat(u_op[None], len(moves), axis=0)
    ops[np.arange(len(moves)), :, i] = (u_op[:, i] - f * u_op[:, j]).T % d[-1]
    return _shell_hits(ops, d[:, None], table)


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
    keeping the well-rounded candidate with maximal lambda_1^2.  Restarts
    are drawn in blocks and each block's shortest shells are read off the
    Hermite forms at once (:func:`_hnf_shells`).  With ``hill_climb`` half
    the budget refines the incumbent by elementary index-preserving basis
    moves, climbing on (lambda_1^2, shell rank).  The moves are drawn a
    block at a time and evaluated against the incumbent at once
    (:func:`_climb_shells`); after a trial is accepted the rest of its block
    is evaluated again, so the result is that of a move-by-move climb.
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
        shells = _hnf_shells(np.array([h for h, _ in draws]), n)
        for (h, v), (l1, rank) in zip(draws, shells):
            consider(l1, rank, lambda h=h, v=v: _candidate_basis(h, v))

    if cfg.hill_climb:
        _, current, cur_l1, cur_rank = best_wr if best_wr is not None else best_any
        op = label_operator(IntegerLattice(current // 2))
        while remaining > 0:
            moves = _climb_moves(k, min(_BLOCK, remaining), rng)
            done = 0
            while done < len(moves):  # evaluated against the current incumbent
                for move, (l1, rank) in zip(moves[done:],
                                            _climb_shells(current, op, n, moves[done:])):
                    done += 1
                    consider(l1, rank, lambda c=current, mv=move: _moved_basis(c, mv))
                    if (l1, rank) > (cur_l1, cur_rank):  # the rest is evaluated anew
                        current, cur_l1, cur_rank = _moved_basis(current, move), l1, rank
                        op = label_operator(IntegerLattice(current // 2))
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
