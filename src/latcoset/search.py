"""Randomized search for well-rounded sublattices of 2Z^k with a given index.

Every candidate source runs the same block steps: one vectorized draw, one
elimination for the adjugates, one membership pass for the shortest shells,
ranks read from hit counts, and one incumbent update.  Python sees a block's
candidates only where three or more shell vectors hit, to rank them.
Restarts come in two stages.  The shell stage draws k vectors of one norm
shell of Z^k, from Hermite's ceiling on lambda_1^2 down (odd norms only for
odd n), and keeps the draws of index n: each has k independent vectors of
that norm, so it is well-rounded exactly when it holds no shorter vector.
Hermite restarts then draw lower triangular Hermite forms (diagonal product
equal to the index, residues reduced).  That reaches every sublattice of
the index when it factors fully below ``_PRIME_LIMIT``; a cofactor left
composite past it is never split across the diagonal, so the sublattices
that split it are never drawn.  Feasible means well-rounded; candidates are
ranked by their shortest-vector norm with a lexicographic tie-break so the
winner does not depend on evaluation order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NoFeasibleCandidate
from .lattice import (IntegerLattice, _bareiss, _half_shorter_than, _minkowski_radius_sq,
                      independent_rows, shortest_shells)

_PRIME_LIMIT = 10 ** 6

_INT64_MAX = (1 << 63) - 1

#: restart candidates drawn, then evaluated together
_BLOCK = 256

#: int64 elements in one membership product of a block, which bounds its
#: transient memory
_BLOCK_ELEMENTS = 1 << 16

#: points (both signs) of the short-vector table of Z^k, past which a search
#: has no table and enumerates its blocks instead
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
        for name in ("k", "target_index", "budget", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not isinstance(self.hill_climb, (bool, np.bool_)):
            raise ValueError(f"hill_climb must be a bool, not {self.hill_climb!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.k < 1 or self.target_index < 1:
            raise ValueError("dimension and index must be positive")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.hill_climb and self.k < 2:
            # a move adds a multiple of one row to another
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


def _hermite_forms(k: int, factors: list[tuple[int, int]], count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """``count`` lower-triangular Hermite forms with det the product of
    ``factors`` (as :func:`_factorize` gives them): each prime's exponents a
    uniform composition over the diagonal, residues uniform mod d_row.

    The diagonal is formed on Python integers; CapacityError is raised when
    a basis entry 2 d_row would not fit in int64.
    """
    diag = np.ones((count, k), dtype=object)
    for p, e in factors:
        # stars and bars: the first k - 1 of e + k - 1 shuffled slots are the bars
        bars = np.sort(np.argsort(rng.random((count, e + k - 1)), axis=1)[:, :k - 1], axis=1)
        exps = np.diff(bars, axis=1, prepend=-1, append=e + k - 1) - 1
        diag *= np.array([p ** j for j in range(e + 1)], dtype=object)[exps]
    top = diag.max()
    if 2 * top > _INT64_MAX:
        raise CapacityError(f"a Hermite form diagonal entry {top} doubles past int64")
    diag = diag.astype(np.int64)
    residues = rng.integers(0, diag[:, :, None], size=(count, k, k))
    return np.tril(residues, -1) + diag[:, :, None] * np.eye(k, dtype=np.int64)


def random_sublattice_with_index(k: int, n: int, rng: np.random.Generator) -> IntegerLattice:
    """A random sublattice of 2Z^k with index exactly n.

    Returned as 2H with H a random Hermite form of determinant n, drawn as
    the search's Hermite restarts are (:func:`_hermite_forms`).  Sampling is
    not uniform over sublattices, only a heuristic that reaches all of them,
    except where n keeps a composite cofactor past ``_PRIME_LIMIT`` after
    trial division: that cofactor always lands whole on one diagonal entry.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    return IntegerLattice(2 * _hermite_forms(k, _factorize(n), 1, rng)[0])


#: gamma_k^k = a / b, Hermite's constant to the k-th power, exact for k <= 8
#: (Conway & Sloane, SPLAG, ch. 1)
_HERMITE_POWER = {1: (1, 1), 2: (4, 3), 3: (2, 1), 4: (4, 1), 5: (8, 1), 6: (64, 3),
                  7: (64, 1), 8: (256, 1)}


def _hermite_ceiling(k: int, n: int) -> int:
    """The largest multiple of 4 that Hermite's bound allows as lambda_1^2 of
    an index-n sublattice of 2Z^k (det 2^k n).

    lambda_1^(2k) <= gamma_k^k 4^k n^2, so L = 4m with b m^k <= a n^2; exact,
    in integers, for k <= 8.  Past k = 8, Minkowski's radius rounded down to
    a multiple of 4.
    """
    if k not in _HERMITE_POWER:
        return _minkowski_radius_sq(k, n << k) // 4 * 4
    a, b = _HERMITE_POWER[k]
    return 4 * _iroot(a * n * n // b, k)


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


def _shell_hits(ops: np.ndarray, n: int,
                table: tuple[np.ndarray, list]) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_1^2, shell rank) of each lattice of a block, as two int64
    arrays, from its membership operator: 2u lies in lattice b exactly when
    ops[b] u = 0 (mod n).

    The block is tested against the short-vector ``table`` of
    :func:`_short_vectors` a norm shell at a time; a lattice leaves at its
    first shell with a hit, which gives lambda_1^2, and the rank of its hits
    there is the shell rank.  One or two hits are independent, so their
    count is their rank: the table holds one vector of each +-pair and a
    shell's vectors share one norm, so two of them are parallel only when
    equal up to sign.  Only three or more hits are ranked, by
    :func:`independent_rows` once per hit pattern (a block repeats few).
    The caller makes sure the table reaches every lattice's shortest vectors
    and that int64 holds every product sum.
    """
    u, shells = table
    b, k = ops.shape[:2]
    l1, rank = np.zeros(b, dtype=np.int64), np.zeros(b, dtype=np.int64)
    active = np.arange(b)
    for norm, start, stop in shells:
        a, shell = ops[active], u[start:stop]
        step = max(1, _BLOCK_ELEMENTS // (len(active) * k))
        hits = np.concatenate([np.all(a @ shell[c:c + step].T % n == 0, axis=1)
                               for c in range(0, len(shell), step)], axis=1)
        count = hits.sum(axis=1)
        found = count > 0
        l1[active[found]] = 4 * norm
        rank[active[found]] = count[found]
        ranks = {}
        for row in np.flatnonzero(count > 2):
            key = hits[row].tobytes()
            if key not in ranks:
                ranks[key] = len(independent_rows(shell[hits[row]], k))
            rank[active[row]] = ranks[key]
        active = active[~found]
        if not len(active):
            break
    return l1, rank


def _adjugates(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(+-adj(M), |det M|) for each M of the stack, from one
    :func:`_bareiss` elimination of [M | I].  Entries stay minors of the
    permuted [M | I] and products within the square of the largest, which
    the caller bounds.  A singular M reads det 0 and adjugate 0."""
    k = ms.shape[1]
    a = np.concatenate([ms, np.broadcast_to(np.eye(k, dtype=np.int64), ms.shape)], axis=2)
    rank, pivot = _bareiss(a, k)
    return a[:, :, k:], np.where(rank == k, np.abs(pivot), 0)


def _block_shells(ms: np.ndarray, n: int,
                  table: tuple[np.ndarray, list] | None) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_1^2, shell rank) of the lattice 2M for each integer basis M
    of |det M| = n in the stack ``ms``, exactly, as two arrays; the values
    :func:`shortest_shell` gives.

    2u lies in the lattice of 2M exactly when adj(M) u = 0 (mod n)
    (:func:`_adjugates`, :func:`_shell_hits`), tested against ``table``,
    which must hold every shortest vector (the search passes the table of
    :func:`_hermite_ceiling`, or None where it would pass ``_TABLE_CAP``).
    Without a table, or when int64 cannot be shown to hold the arithmetic,
    the block's lattices 2M are enumerated together by
    :func:`shortest_shells` instead; their arrays are of Python integers,
    since lambda_1^2 of such a lattice may pass int64.
    """
    k = ms.shape[1]
    sq = ms.astype(float) ** 2
    # Hadamard: h^2, the smaller product of M's squared row or column norms,
    # bounds every squared minor of [M | I], so elimination stays within h^2
    # and membership sums within k^1.5 h^2 (operator entries are below
    # n <= h, and a vector of the ceiling table has ||u||^2 <= k n^(2/k));
    # float error is far below 2x
    h_sq = np.minimum(sq.sum(axis=2).prod(axis=1), sq.sum(axis=1).prod(axis=1)).max()
    if table is None or k * k * h_sq >= 2.0 ** 62:
        shells = np.array(shortest_shells([IntegerLattice(2 * m) for m in ms]), dtype=object)
        return shells[:, 0], shells[:, 1]
    return _shell_hits(_adjugates(ms)[0] % n, n, table)


def _shell_bases(shell: np.ndarray, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The bases M of ``_BLOCK`` draws of k vectors of one norm shell of Z^k
    (one of each +-pair, with replacement) as columns, kept in draw order
    where |det M| = n, and their membership operators adj(M) mod n for
    :func:`_shell_hits`, from the one elimination that gave the
    determinants.  Negating a column leaves the lattice as it is, so no sign
    is drawn.  The caller makes sure int64 holds the elimination."""
    k = shell.shape[1]
    ms = shell[rng.integers(0, len(shell), size=(_BLOCK, k))].transpose(0, 2, 1)
    adj, det = _adjugates(ms)
    return ms[det == n], adj[det == n] % n


def _climb_moves(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The next ``count`` hill-climb moves as rows (i, j, f), row j += f row
    i: i uniform on 0..k-1, j uniform on the other k - 1 rows and f = +-1,
    three draws for the whole block."""
    i = rng.integers(0, k, size=count)
    j = (i + rng.integers(1, k, size=count)) % k
    return np.stack([i, j, 2 * rng.integers(0, 2, size=count) - 1], axis=1)


def _climb_trials(m: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The stack of E M for the hill-climb moves E = (i, j, f), rows of
    ``moves``, of the incumbent 2M, row j += f row i, which keeps the index.
    The entries of 2M fit in int64, so no row sum wraps; CapacityError is
    raised when an entry of some 2EM does not fit."""
    i, j, f = moves.T
    rows = m[j] + f[:, None] * m[i]
    if np.abs(rows).max() > _INT64_MAX // 2:
        raise CapacityError("a candidate basis entry does not fit in int64")
    trials = np.repeat(m[None], len(moves), axis=0)
    trials[np.arange(len(moves)), j] = rows
    return trials


def _best(incumbent: tuple | None, ms: np.ndarray, l1: np.ndarray,
          rank: np.ndarray) -> tuple:
    """The better of ``incumbent`` (lambda_1^2, rank, basis 2M), or None,
    and the best candidate 2M of a nonempty block: the largest
    (lambda_1^2, rank), ties to the lexicographically smallest flattened
    basis (M and 2M sort alike), so the winner is schedule independent."""
    top = np.flatnonzero(l1 == l1.max())
    top = top[rank[top] == rank[top].max()]
    row = top[np.lexsort(ms[top].reshape(len(top), -1).T[::-1])[0]]
    best = (int(l1[row]), int(rank[row]), 2 * ms[row])
    if incumbent is None:
        return best
    return min(incumbent, best, key=lambda c: (-c[0], -c[1], c[2].ravel().tolist()))


def search_wr_sublattice(cfg: SearchConfig) -> tuple[IntegerLattice, SearchReport]:
    """Randomized search for a well-rounded sublattice of 2Z^k.

    Spends the budget on random restarts (seeded with the balanced diagonal
    lattice, a block of one, when the index is a perfect k-th power),
    keeping the well-rounded candidate with maximal lambda_1^2.  The shell
    stage spends at most half the restarts: one block of
    :func:`_shell_bases` draws per norm shell of the :func:`_hermite_ceiling`
    table (odd norms only for odd n), from the top down, until a shell gives
    a well-rounded lattice of its own norm.  Hermite restarts
    (:func:`_hermite_forms`) spend the rest.  With ``hill_climb`` half the
    budget refines the incumbent by elementary index-preserving basis moves
    (:func:`_climb_moves`), climbing on (lambda_1^2, shell rank).  Each
    block's shortest shells are found at once and its candidates kept in one
    step (:func:`_best`): each incumbent is the least key over all
    candidates, so a block's best against it is the result of a
    one-by-one pass.  A climb block is consumed up to its first trial that
    beats the incumbent and the rest is evaluated again, so the result is
    that of a move-by-move climb.
    Deterministic for a fixed seed.  Raises NoFeasibleCandidate when no
    well-rounded candidate shows up; the exception carries the best non-WR
    lattice and the report.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))
    k, n = int(cfg.k), int(cfg.target_index)

    best_wr = None   # (l1, rank, basis)
    best_any = None  # (l1, rank, basis) for climbing and fallback
    feasible = 0
    remaining = cfg.budget

    def keep(ms: np.ndarray, l1: np.ndarray, rank: np.ndarray) -> None:
        """Count a block of candidates 2M and keep its best where they beat
        the incumbents."""
        nonlocal best_wr, best_any, feasible, remaining
        remaining -= len(ms)
        best_any = _best(best_any, ms, l1, rank)
        wr = rank == k
        if wr.any():
            feasible += int(wr.sum())
            best_wr = _best(best_wr, ms[wr], l1[wr], rank[wr])

    # Hermite's ceiling bounds lambda_1^2 of every index-n lattice, so its
    # table serves every block; the axis points alone pass the table cap
    # when 2k n^(1/k) does
    root, table = _iroot(n, k), None
    if 2 * k * root <= _TABLE_CAP:
        table = _short_vectors(k, _hermite_ceiling(k, n))

    if root ** k == n:  # the balanced diagonal diag(root, ..., root)
        diag = root * np.eye(k, dtype=np.int64)[None]
        keep(diag, *_block_shells(diag, n, table))

    # the shell stage: k vectors of one norm shell of Z^k, from the ceiling
    # down, on at most half the restarts; a draw of another index is no
    # candidate and costs nothing
    restarts = remaining if not cfg.hill_climb else (remaining + 1) // 2
    share = restarts // 2
    for norm, start, stop in reversed(table[1] if table is not None else []):
        if share == 0 or norm ** k < n * n:  # Hadamard: |det M| <= norm^(k/2)
            break
        # at an even norm every column is even-weight mod 2, so det M is
        # even; columns of norm ``norm`` meet _block_shells' Hadamard bound
        if n % 2 and norm % 2 == 0 or k * k * norm ** k >= 1 << 62:
            continue
        ms, ops = (x[:share] for x in _shell_bases(table[0][start:stop], n, rng))
        if not len(ms):
            continue
        share -= len(ms)
        restarts -= len(ms)
        l1, rank = _shell_hits(ops, n, table)
        keep(ms, l1, rank)
        if np.any((l1 == 4 * norm) & (rank == k)):  # well-rounded at the shell's own norm
            break

    factors = _factorize(n)
    for start in range(0, restarts, _BLOCK):
        hs = _hermite_forms(k, factors, min(_BLOCK, restarts - start), rng)
        keep(hs, *_block_shells(hs, n, table))

    if cfg.hill_climb:
        cur_l1, cur_rank, current = best_wr if best_wr is not None else best_any
        m = current // 2
        while remaining > 0:
            moves = _climb_moves(k, min(_BLOCK, remaining), rng)
            while len(moves):  # evaluated against the current incumbent
                trials = _climb_trials(m, moves)
                l1, rank = _block_shells(trials, n, table)
                better = (l1 > cur_l1) | (l1 == cur_l1) & (rank > cur_rank)
                # the block is consumed up to its first better trial; the
                # rest is evaluated anew
                done = int(np.argmax(better)) + 1 if better.any() else len(moves)
                keep(trials[:done], l1[:done], rank[:done])
                if better[done - 1]:
                    m, cur_l1, cur_rank = trials[done - 1], l1[done - 1], rank[done - 1]
                moves = moves[done:]

    if best_wr is not None:
        l1, _, basis = best_wr
        return IntegerLattice(basis), SearchReport(evaluated=cfg.budget, feasible=feasible,
                                                   best_lambda1_sq=l1, best_is_wr=True)
    l1, _, basis = best_any
    report = SearchReport(evaluated=cfg.budget, feasible=0,
                          best_lambda1_sq=l1, best_is_wr=False)
    raise NoFeasibleCandidate(
        f"no well-rounded sublattice of index {n} found within {cfg.budget} "
        f"candidates (best non-WR lambda_1^2 = {l1})", best=IntegerLattice(basis), report=report)
