import collections
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latcoset.lattice as lattice
import latcoset.search as search
from latcoset import (CapacityError, IntegerLattice, NoFeasibleCandidate, SearchConfig,
                      index_in_superlattice, is_well_rounded,
                      random_sublattice_with_index, search_wr_sublattice,
                      successive_minima, volume)
from latcoset.catalog import builtin_sublattice
from latcoset.cli import main as cli_main
from latcoset.lattice import (_minkowski_radius_sq, enumerate_shorter_than, independent_rows,
                              int_det, shortest_shell)


def two_zk(k):
    return IntegerLattice(2 * np.eye(k, dtype=np.int64))


class TestRandomSublattice:
    def test_index_one_is_cube(self):
        lat = random_sublattice_with_index(4, 1, np.random.default_rng(0))
        assert index_in_superlattice(lat, two_zk(4)) == 1

    def test_exact_index_many_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lat = random_sublattice_with_index(4, 32, rng)
            assert index_in_superlattice(lat, two_zk(4)) == 32

    def test_exact_index_with_prime_factors(self):
        rng = np.random.default_rng(2)
        for n in [6, 45, 103996]:
            lat = random_sublattice_with_index(4, n, rng)
            assert index_in_superlattice(lat, two_zk(4)) == n

    def test_reproducible(self):
        a = random_sublattice_with_index(4, 32, np.random.default_rng(7))
        b = random_sublattice_with_index(4, 32, np.random.default_rng(7))
        assert np.array_equal(a.B, b.B)


class TestSearch:
    def test_returns_wr_with_exact_index(self):
        lat, rep = search_wr_sublattice(SearchConfig(k=4, target_index=32,
                                                     budget=3000, seed=0))
        assert rep.best_is_wr
        assert is_well_rounded(lat)
        assert index_in_superlattice(lat, two_zk(4)) == 32
        assert successive_minima(lat).lambda_sq[0] == rep.best_lambda1_sq

    def test_perfect_power_seeds_diagonal(self):
        # n = 2^4: the balanced diagonal diag(4,...) is evaluated first,
        # so even budget 1 yields a WR candidate with lambda_1^2 = 16
        lat, rep = search_wr_sublattice(SearchConfig(k=4, target_index=16,
                                                     budget=1, seed=3))
        assert rep.best_is_wr and rep.best_lambda1_sq == 16

    def test_deterministic(self):
        cfg = SearchConfig(k=4, target_index=16, budget=500, seed=9)
        a, ra = search_wr_sublattice(cfg)
        b, rb = search_wr_sublattice(cfg)
        assert np.array_equal(a.B, b.B) and ra == rb

    def test_infeasible_run_deterministic(self):
        # index 3 in 2Z^2 has four sublattices and none is well-rounded, so
        # every budget and seed ends infeasible
        census = sorted(shortest_shell(IntegerLattice(2 * h)) for h in _all_hnfs(2, 3))
        assert census == [(4, 1), (4, 1), (8, 1), (8, 1)]
        cfg = SearchConfig(k=2, target_index=3, budget=40, seed=0)
        reports = []
        for _ in range(2):
            with pytest.raises(NoFeasibleCandidate) as err:
                search_wr_sublattice(cfg)
            reports.append((err.value.report, err.value.best.B.tolist()))
        assert reports[0] == reports[1]

    def test_hill_climb_mode(self):
        cfg = SearchConfig(k=4, target_index=256, budget=2000, seed=1,
                           hill_climb=True)
        lat, rep = search_wr_sublattice(cfg)
        assert rep.best_is_wr
        assert rep.best_lambda1_sq >= 64
        assert index_in_superlattice(lat, two_zk(4)) == 256

    def test_minkowski_ceiling(self):
        for seed in range(3):
            lat, rep = search_wr_sublattice(SearchConfig(k=4, target_index=32,
                                                         budget=1000, seed=seed))
            n = lat.k
            ceiling = (4 / math.pi) * math.gamma(n / 2 + 1) ** (2 / n) \
                * volume(lat) ** (2 / n)
            assert rep.best_lambda1_sq <= ceiling * (1 + 1e-9)

    def test_no_feasible_candidate(self):
        # a single random candidate at index 32 is almost never well-rounded;
        # seed 0's first draw is not (deterministic)
        with pytest.raises(NoFeasibleCandidate) as err:
            search_wr_sublattice(SearchConfig(k=4, target_index=32,
                                              budget=1, seed=0))
        assert err.value.report.feasible == 0
        assert err.value.best is not None
        assert err.value.report.best_lambda1_sq > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(k=4, target_index=0, budget=10, seed=0)
        with pytest.raises(ValueError):
            SearchConfig(k=4, target_index=32, budget=0, seed=0)

    @pytest.mark.parametrize("field,value", [
        ("target_index", 32.5), ("k", 4.7), ("budget", True), ("k", True), ("seed", 1.0),
        ("target_index", "32"), ("seed", -1), ("hill_climb", "false"), ("hill_climb", 1)])
    def test_config_rejects_non_integers_and_negative_seed(self, field, value):
        # 32.5 used to search index 32, 4.7 dimension 4, and budget True to
        # report "within True candidates"; seed -1 died in numpy, and
        # hill_climb "false" climbed
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{"k": 4, "target_index": 32, "budget": 10, "seed": 0, field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = SearchConfig(k=np.int64(2), target_index=np.int32(3), budget=np.uint8(5),
                           seed=np.int16(1), hill_climb=np.bool_(False))
        with pytest.raises(NoFeasibleCandidate):
            search_wr_sublattice(cfg)

    def test_index_32_solved_at_its_ceiling_on_every_seed(self):
        # the shell stage's first level holds the one lambda_1^2 = 32 lattice
        for seed in range(50):
            _, rep = search_wr_sublattice(SearchConfig(k=4, target_index=32, budget=400,
                                                       seed=seed))
            assert rep.best_is_wr and rep.best_lambda1_sq == 32, seed

    def test_hill_climb_needs_two_dimensions(self):
        # a 1 x 1 basis has no row to add to another
        with pytest.raises(ValueError, match="k >= 2"):
            SearchConfig(k=1, target_index=4, budget=4, seed=0, hill_climb=True)
        SearchConfig(k=1, target_index=4, budget=4, seed=0)
        SearchConfig(k=2, target_index=4, budget=4, seed=0, hill_climb=True)


def _outcome(cfg):
    """(best basis, report) of a search, whether or not it found a WR lattice."""
    try:
        lat, rep = search_wr_sublattice(cfg)
    except NoFeasibleCandidate as err:
        lat, rep = err.best, err.report
    return lat.B.tolist(), rep


def _sequential_search(cfg):
    """The search one candidate at a time: the search's own block draws
    (shell stage, Hermite restarts, climb moves), but each candidate's
    shortest shell enumerated on its own and the best key kept, as the block
    evaluation must reproduce."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    k, n = cfg.k, cfg.target_index
    best_wr = best_any = None
    feasible = 0

    def consider(lat):
        nonlocal best_wr, best_any, feasible
        l1, rank = shortest_shell(lat)
        lex = tuple(int(x) for x in lat.B.ravel())
        if best_any is None or (-l1, -rank, lex) < best_any[0]:
            best_any = ((-l1, -rank, lex), lat, l1)
        if rank == k:
            feasible += 1
            if best_wr is None or (-l1, lex) < best_wr[0]:
                best_wr = ((-l1, lex), lat, l1)
        return l1, rank

    remaining = cfg.budget
    d = round(n ** (1 / k))
    if d ** k == n:
        consider(IntegerLattice(2 * d * np.eye(k, dtype=np.int64)))
        remaining -= 1
    restarts = remaining if not cfg.hill_climb else (remaining + 1) // 2
    remaining -= restarts
    share = restarts // 2
    u, shells = search._short_vectors(k, search._hermite_ceiling(k, n))
    for norm, start, stop in reversed(shells):
        if share == 0 or norm ** k < n * n:
            break
        if n % 2 and norm % 2 == 0:  # every draw has an even determinant
            continue
        got = [consider(IntegerLattice(2 * m))
               for m in search._shell_bases(u[start:stop], n, rng)[0][:share]]
        share -= len(got)
        restarts -= len(got)
        if (4 * norm, k) in got:
            break
    for start in range(0, restarts, search._BLOCK):
        for h in search._hermite_forms(k, search._factorize(n),
                                       min(search._BLOCK, restarts - start), rng):
            consider(IntegerLattice(2 * h))
    if cfg.hill_climb:
        _, current, _ = best_wr if best_wr is not None else best_any
        cur = shortest_shell(current)
        while remaining > 0:
            for i, j, f in search._climb_moves(k, min(search._BLOCK, remaining), rng):
                b = current.B.copy()
                b[j, :] += f * b[i, :]
                trial = IntegerLattice(b)
                got = consider(trial)
                remaining -= 1
                if got > cur:
                    current, cur = trial, got
    _, lat, l1 = best_wr if best_wr is not None else best_any
    report = search.SearchReport(evaluated=cfg.budget, feasible=feasible,
                                 best_lambda1_sq=l1, best_is_wr=best_wr is not None)
    return lat.B.tolist(), report


def ceiling_table(k, n):
    """The search's short-vector table at index n in 2Z^k: Hermite's ceiling
    (None past ``_TABLE_CAP``)."""
    return search._short_vectors(k, search._hermite_ceiling(k, n))


def _pairs(shells):
    """The (lambda_1^2, rank) tuples of a block's two arrays."""
    l1, rank = shells
    assert l1.shape == rank.shape == (len(l1),)
    return list(zip(l1.tolist(), rank.tolist()))


def _diagonals(k, n):
    """Every k-tuple of positive integers with product n."""
    if k == 1:
        return [(n,)]
    return [(d,) + rest for d in range(1, n + 1) if n % d == 0
            for rest in _diagonals(k - 1, n // d)]


def _all_hnfs(k, n):
    """Every lower-triangular Hermite form of det n, residues 0 <= h_ij < h_ii."""
    rows, cols = np.tril_indices(k, -1)
    out = []
    for diag in _diagonals(k, n):
        residues = np.indices([diag[i] for i in rows]).reshape(len(rows), -1).T
        h = np.zeros((len(residues), k, k), dtype=np.int64)
        h[:, range(k), range(k)] = diag
        h[:, rows, cols] = residues
        out.append(h)
    return np.concatenate(out)


def _unimodular_mix(m, rng, moves=8):
    """M V for a few random elementary column moves V: the same lattice, on
    a basis that is no Hermite form."""
    m, k = m.copy(), len(m)
    for _ in range(moves if k > 1 else 0):
        i, j = rng.choice(k, size=2, replace=False)
        m[:, j] += (2 * int(rng.integers(0, 2)) - 1) * m[:, i]
    return m


class TestBlockEvaluation:
    @settings(max_examples=120, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 4, 6]), n=st.sampled_from([1, 31, 32, 105, 256]),
           seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 6))
    def test_matches_enumeration_on_random_hnfs(self, k, n, seed, size):
        rng = np.random.default_rng(seed)
        hs = search._hermite_forms(k, search._factorize(n), size, rng)
        expected = [shortest_shell(IntegerLattice(2 * h)) for h in hs]
        assert _pairs(search._block_shells(hs, n, ceiling_table(k, n))) == expected

    @pytest.mark.parametrize("k,n", [(2, 25), (2, 32), (3, 16), (4, 8)])
    def test_matches_enumeration_on_every_hnf(self, monkeypatch, k, n):
        hs = _all_hnfs(k, n)
        expected = [shortest_shell(IntegerLattice(2 * h)) for h in hs]
        assert any(rank == k for _, rank in expected)
        # the table path alone: no per-candidate enumeration
        monkeypatch.setattr(search, "shortest_shells", None)
        assert _pairs(search._block_shells(hs, n, ceiling_table(k, n))) == expected

    @settings(max_examples=120, deadline=None)
    @given(k=st.sampled_from([2, 3, 4, 6]), n=st.sampled_from([1, 31, 32, 105, 256]),
           seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 8),
           climbed=st.integers(0, 6))
    def test_climb_matches_enumeration_on_random_moves(self, k, n, seed, size, climbed):
        rng = np.random.default_rng(seed)
        m = random_sublattice_with_index(k, n, rng).B // 2
        for mv in search._climb_moves(k, climbed, rng):  # an incumbent past a few climbs
            m = search._climb_trials(m, mv[None])[0]
        trials = search._climb_trials(m, search._climb_moves(k, size, rng))
        expected = [shortest_shell(IntegerLattice(2 * t)) for t in trials]
        assert _pairs(search._block_shells(trials, n, ceiling_table(k, n))) == expected

    @pytest.mark.parametrize("k,n", [(2, 32), (3, 105), (4, 32), (4, 256), (6, 105)])
    def test_climb_matches_enumeration_on_every_move(self, monkeypatch, k, n):
        rng = np.random.default_rng(k * n)
        moves = np.array([(i, j, f) for i in range(k) for j in range(k) if i != j
                          for f in (-1, 1)])
        for _ in range(3):
            trials = search._climb_trials(random_sublattice_with_index(k, n, rng).B // 2, moves)
            expected = [shortest_shell(IntegerLattice(2 * t)) for t in trials]
            # the table path alone: no per-trial enumeration
            with monkeypatch.context() as patch:
                patch.setattr(search, "shortest_shells", None)
                assert _pairs(search._block_shells(trials, n, ceiling_table(k, n))) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_matches_enumeration_on_non_hermite_stacks(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        for n in [1, 32, 105, 256]:
            hs = search._hermite_forms(k, search._factorize(n), 25, rng)
            ms = [_unimodular_mix(h, rng) for h in hs[:20]]
            for h in hs[20:] if k > 1 else []:
                h[-1, 0] = 0
                ms.append(h[::-1])  # a zero leading entry, so rows are pivoted
            ms = np.array(ms)
            expected = [shortest_shell(IntegerLattice(2 * m)) for m in ms]
            assert _pairs(search._block_shells(ms, n, ceiling_table(k, n))) == expected
            with monkeypatch.context() as patch:  # the table path alone
                patch.setattr(search, "shortest_shells", None)
                assert _pairs(search._block_shells(ms, n, ceiling_table(k, n))) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_past_hadamard_bound_falls_back(self, monkeypatch, k):
        def hadamard_sq(m):
            return min(math.prod(sum(x * x for x in r) for r in m.tolist()),
                       math.prod(sum(x * x for x in c) for c in m.T.tolist()))

        for n in [32, 105, 256]:
            # grow a Hermite form by index-preserving row moves until k^2 h^2
            # first reaches 2^62
            under = search._hermite_forms(k, search._factorize(n), 1, np.random.default_rng(k))[0]
            s = 0
            while k * k * hadamard_sq(past := search._climb_trials(
                    under, np.array([(s % k, (s + 1) % k, 1)]))[0]) < 1 << 62:
                under, s = past, s + 1
            expected = [shortest_shell(IntegerLattice(2 * m)) for m in (under, past)]
            calls = []
            real = search.shortest_shells
            with monkeypatch.context() as patch:
                patch.setattr(search, "shortest_shells",
                              lambda lats: calls.append(lats) or real(lats))
                table = ceiling_table(k, n)
                assert _pairs(search._block_shells(under[None], n, table)) == expected[:1]
                assert calls == []
                assert _pairs(search._block_shells(past[None], n, table)) == expected[1:]
                assert len(calls) == 1
                # a block past the bound: one enumeration of all its lattices
                assert _pairs(search._block_shells(np.stack([past, past, under]), n, table)) == \
                    expected[1:] * 2 + expected[:1]
                assert len(calls) == 2 and len(calls[1]) == 3

    @pytest.mark.parametrize("k,n", [(4, 32), (16, 2)])
    def test_block_without_a_table_is_enumerated_once(self, monkeypatch, k, n):
        # no table is built for the block: the caller's table, or one
        # shortest_shells enumeration of all its lattices
        hs = search._hermite_forms(k, search._factorize(n), 40, np.random.default_rng(n))
        expected = lattice.shortest_shells([IntegerLattice(2 * h) for h in hs])
        tables, calls = [], []
        real = search.shortest_shells
        monkeypatch.setattr(search, "_short_vectors", lambda *a: tables.append(a))
        monkeypatch.setattr(search, "shortest_shells",
                            lambda lats: calls.append(len(lats)) or real(lats))
        assert _pairs(search._block_shells(hs, n, None)) == expected
        assert tables == [] and calls == [40]

    @pytest.mark.parametrize("n", [30030, 10 ** 5])
    def test_block_past_the_table_cap_is_enumerated_once(self, monkeypatch, n):
        # the table of Minkowski's radius would pass _TABLE_CAP: the block's
        # lattices are enumerated together, one enumeration for each width of
        # the bases the gate picks (a few Hermite forms are reduced to a
        # narrower head)
        rng = np.random.default_rng(n)
        hs = search._hermite_forms(4, search._factorize(n), 40, rng)
        assert search._short_vectors(4, _minkowski_radius_sq(4, n << 4)) is None
        assert ceiling_table(4, n) is None
        expected = [shortest_shell(IntegerLattice(2 * h)) for h in hs]
        runs = []
        real = lattice._fincke_pohst_runs
        monkeypatch.setattr(lattice, "_fincke_pohst_runs",
                            lambda *args: runs.append(len(args[0])) or real(*args))
        assert _pairs(search._block_shells(hs, n, ceiling_table(4, n))) == expected

        def width(h):
            lat = IntegerLattice(2 * h)
            r = min(lattice._min_column_norm(lat.B), _minkowski_radius_sq(4, abs(lat.det)))
            return lattice._enumeration_basis(lat, r).shape[1]

        widths = collections.Counter(map(width, hs))
        assert sorted(runs) == sorted(widths.values()) and widths[4] > 30

    def test_climb_trial_past_int64_raises(self):
        m = np.array([[2 ** 61, 0], [2 ** 61, 1]], dtype=np.int64)
        moves = np.array([(1, 0, -1), (0, 1, 1)])
        assert search._climb_trials(m, moves[:1])[0].tolist() == [[0, -1], [2 ** 61, 1]]
        with pytest.raises(CapacityError, match="int64"):
            search._climb_trials(m, moves)

    @pytest.mark.parametrize("hill_climb", [False, True])
    @pytest.mark.parametrize("index", [32, 256])
    def test_matches_sequential_search(self, index, hill_climb):
        for seed in range(4):
            cfg = SearchConfig(k=4, target_index=index, budget=300, seed=seed,
                               hill_climb=hill_climb)
            assert _outcome(cfg) == _sequential_search(cfg)

    def test_search_wr_shape_matches_sequential_search(self, capsys):
        # the benchmark's search op: k = 4, index 32, budget 400, with and
        # without climbing; the stdout digest was taken before the block's
        # ranks were read from hit counts and its incumbents updated once
        outs = []
        for seed in range(4):
            for hill_climb in (False, True):
                cfg = SearchConfig(k=4, target_index=32, budget=400, seed=seed,
                                   hill_climb=hill_climb)
                assert _outcome(cfg) == _sequential_search(cfg)
                assert cli_main(["search", "--k", "4", "--index", "32", "--budget", "400",
                                 "--seed", str(seed)] + ["--hill-climb"] * hill_climb) == 0
                outs.append(capsys.readouterr().out)
        assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == (
            "4d575710345bfe4c9a8c898c6bc2087567f931424a5627bd38237d649b7f964e")

    def test_tie_heavy_blocks_keep_the_smallest_basis(self, monkeypatch):
        # most rows of each Hermite block are the lambda_1^2 = 32 lattice of
        # index 32 under distinct bases, so they tie on (32, 4) within and
        # across blocks; the shell stage draws nothing
        top = np.array([[-2, 2, 0, 0], [-2, 0, 0, 2], [-2, 0, 2, 0], [2, 0, 0, 2]]).T
        real, blocks = search._hermite_forms, []

        def tie_heavy(k, factors, count, rng):
            local = np.random.default_rng(len(blocks))
            ties = count * 3 // 4
            ms = np.concatenate([[_unimodular_mix(top, local) for _ in range(ties)],
                                 real(k, factors, count - ties, local)])
            blocks.append(ms[local.permutation(count)])
            return blocks[-1]

        monkeypatch.setattr(search, "_hermite_forms", tie_heavy)
        monkeypatch.setattr(search, "_shell_bases",
                            lambda shell, n, rng: (np.zeros((0, 4, 4), dtype=np.int64),) * 2)
        for hill_climb in (False, True):
            cfg = SearchConfig(k=4, target_index=32, budget=400, seed=0, hill_climb=hill_climb)
            blocks.clear()
            basis, rep = _outcome(cfg)
            ms = np.concatenate(blocks)
            blocks.clear()  # the reference draws the same blocks
            assert (basis, rep) == _sequential_search(cfg)
            assert rep.best_is_wr and rep.best_lambda1_sq == 32
            shells = [shortest_shell(IntegerLattice(2 * m)) for m in ms]
            tied = [m.ravel().tolist() for m, s in zip(ms, shells) if s == (32, 4)]
            assert len(tied) > len(ms) // 2 and len({tuple(t) for t in tied}) > 50
            assert tied[0] != min(tied)
            if not hill_climb:  # every candidate is a Hermite row
                assert rep.feasible == sum(rank == 4 for _, rank in shells)
                assert (np.array(basis) // 2).ravel().tolist() == min(tied)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 6), n=st.sampled_from([1, 2, 3, 8, 31, 32, 105]),
           seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 16))
    def test_ranks_are_the_ranks_of_the_hits(self, k, n, seed, size):
        # a rank read from a count of 1 or 2 hits is their rank too
        rng = np.random.default_rng(seed)
        ms = np.array([_unimodular_mix(h, rng, moves=2)
                       for h in search._hermite_forms(k, search._factorize(n), size, rng)])
        table = search._short_vectors(k, search._hermite_ceiling(k, n))
        l1, rank = search._shell_hits(search._adjugates(ms)[0] % n, n, table)
        u, shells = table
        for m, a, r in zip(ms, l1.tolist(), rank.tolist()):
            for norm, start, stop in shells:
                # u lies in the lattice of M when M^-1 u is integral
                x = np.linalg.solve(m.astype(float), u[start:stop].T.astype(float))
                hits = np.all(np.abs(x - np.round(x)) < 1e-6, axis=0)
                assert hits.any() == (4 * norm == a), (m, norm)
                if 4 * norm == a:
                    assert r == len(independent_rows(u[start:stop][hits]))
                    break

    def test_one_or_two_hits_are_not_eliminated(self, monkeypatch):
        sizes, ranks = [], collections.Counter()
        real_rows, real_hits = search.independent_rows, search._shell_hits
        monkeypatch.setattr(search, "independent_rows",
                            lambda rows, limit=None: sizes.append(len(rows)) or
                            real_rows(rows, limit))

        def counted(*args):
            out = real_hits(*args)
            ranks.update(out[1].tolist())
            return out

        monkeypatch.setattr(search, "_shell_hits", counted)
        for k, n in [(4, 32), (3, 105), (6, 8)]:
            for hill_climb in (False, True):
                _outcome(SearchConfig(k=k, target_index=n, budget=400, seed=1,
                                      hill_climb=hill_climb))
        assert ranks[1] and ranks[2] and sizes
        assert min(sizes) >= 3

    @pytest.mark.parametrize("k", [3, 6])
    def test_long_climb_matches_sequential_search(self, monkeypatch, k):
        # budget 1100 gives the climb 550 moves, three blocks; at k = 6 seeds
        # 0 and 2 accept a trial mid-block, so the rest of that block is
        # evaluated again against the new incumbent
        evaluated = []
        real = search._climb_trials
        monkeypatch.setattr(search, "_climb_trials",
                            lambda m, moves: evaluated.append(len(moves)) or real(m, moves))
        reevaluated = 0
        for seed in range(3):
            evaluated.clear()
            cfg = SearchConfig(k=k, target_index=105, budget=1100, seed=seed,
                               hill_climb=True)
            assert _outcome(cfg) == _sequential_search(cfg)
            blocks = math.ceil(550 / search._BLOCK)
            assert len(evaluated) >= blocks
            reevaluated += len(evaluated) - blocks
        if k == 6:
            assert reevaluated > 0

    def test_restarts_make_no_per_candidate_enumeration(self, monkeypatch):
        calls = []
        for module, name in [(lattice, "shortest_shell"), (lattice, "shortest_shells"),
                             (search, "shortest_shells")]:
            monkeypatch.setattr(module, name, lambda *a, real=getattr(module, name):
                                calls.append(a) or real(*a))
        assert not hasattr(search, "shortest_shell")
        _outcome(SearchConfig(k=4, target_index=256, budget=600, seed=0))
        assert calls == []  # the seeded diagonal is ranked as a block of one
        _outcome(SearchConfig(k=4, target_index=32, budget=600, seed=0))
        assert calls == []
        _outcome(SearchConfig(k=4, target_index=32, budget=600, seed=0, hill_climb=True))
        assert calls == []  # the hill-climb trials are evaluated in blocks too

    @pytest.mark.parametrize("k,hill_climb,digest", [
        (16, False, "efcd8ee50ac01598bed4a12142655ca7e7c8d2cd2ae020a1b6464dc06f8c7a46"),
        (16, True, "a9ac069528e2fa77256ddc415e4429c693efd854603927ed8dd509407e51cfac"),
        (24, False, "f60284e7ef2729138aa67ede6735c67264b8cf52cc2aee9fcbd5e8934812219f"),
        (24, True, "77e82b5c860465768b2db49e8e5dbe819b11b42f3971c0738755458fcfcfd0ad"),
    ], ids=["k16", "k16-climb", "k24", "k24-climb"])
    def test_high_dimension_index_2_unchanged(self, k, hill_climb, digest):
        # digests of the best lattice's JSON, taken when the shell stage and
        # block Hermite draws replaced the sampler of 2HV (the climbing ones
        # when climb moves were drawn a block at a time); every index-2
        # sublattice has lambda_1^2 = 4
        with pytest.raises(NoFeasibleCandidate) as err:
            search_wr_sublattice(SearchConfig(k=k, target_index=2, budget=300, seed=0,
                                              hill_climb=hill_climb))
        assert err.value.report == search.SearchReport(
            evaluated=300, feasible=0, best_lambda1_sq=4, best_is_wr=False)
        assert hashlib.sha256(err.value.best.to_json().encode()).hexdigest() == digest

    def test_cli_outputs_pinned(self, capsys):
        # the table path (exits 0 and 1), the table-cap fallback (k = 3 at
        # 10^5), the int64 fallback (k = 3 at 10^9; both at k = 2 past 10^6),
        # the exact reduction of bases whose Gram matrix floats cannot hold
        # (k = 3 at 10^9 and the large primes) and exit 4 (k = 4 at 2^70); the
        # digest was taken when climb moves were drawn a block at a time and
        # odd indices stopped drawing even-norm shells
        runs = []
        for k, index, budget, climb in [(4, 32, 400, False), (4, 32, 400, True),
                                        (4, 105, 400, True), (6, 8, 400, True),
                                        (3, 10 ** 5, 300, True), (3, 10 ** 9, 300, True),
                                        (2, 1000003, 300, True), (2, 2 ** 31 - 1, 300, False),
                                        (4, 999983000003, 300, False), (4, 2 ** 70, 400, False)]:
            argv = ["search", "--k", str(k), "--index", str(index), "--budget", str(budget),
                    "--seed", "0"] + ["--hill-climb"] * climb
            code = cli_main(argv)
            out = capsys.readouterr()
            runs.append([argv, code, out.out, out.err])
        assert [code for _, code, _, _ in runs] == [0, 0, 1, 1, 1, 0, 1, 1, 1, 4]
        assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == (
            "3b7bbb7ba066b2223bb99180f6497122f51aeeaeb21f0141c1d8012816189493")

    def test_index_factorized_once_per_search(self, monkeypatch):
        calls = []
        real = search._factorize
        monkeypatch.setattr(search, "_factorize", lambda n: calls.append(n) or real(n))
        _outcome(SearchConfig(k=4, target_index=105, budget=300, seed=0))
        assert calls == [105]

    @pytest.mark.parametrize("k,index", [(4, 10 ** 400), (1, 2 ** 62), (2, (2 ** 62 - 1) ** 2 + 1)],
                             ids=["k4-1e400", "k1-2^62", "k2-(2^62-1)^2+1"])
    def test_index_past_int64_rejected(self, k, index):
        with pytest.raises(ValueError, match="int64"):
            SearchConfig(k=k, target_index=index, budget=10, seed=0)

    @pytest.mark.parametrize("k,index", [(1, 2 ** 62 - 1), (2, (2 ** 62 - 1) ** 2), (4, 2 ** 70)],
                             ids=["k1-2^62-1", "k2-(2^62-1)^2", "k4-2^70"])
    def test_index_with_int64_bases_accepted(self, k, index):
        SearchConfig(k=k, target_index=index, budget=10, seed=0)


#: gamma_k^k for k <= 8 (Conway & Sloane, SPLAG, ch. 1)
_GAMMA_POWER = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2), 4: Fraction(4),
                5: Fraction(8), 6: Fraction(64, 3), 7: Fraction(64), 8: Fraction(256)}


class TestHermiteCeiling:
    def test_equality_case_and_index_256(self):
        # 32^4 = 4 * 512^2: at (4, 32) Hermite's bound holds with equality
        assert search._hermite_ceiling(4, 32) == 32
        assert search._hermite_ceiling(4, 256) == 88

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_fraction_reference(self, k):
        for n in list(range(1, 200)) + [2 ** 40 + 1, 3 ** 30, 10 ** 15, 999983000003]:
            bound = _GAMMA_POWER[k] * (2 ** k * n) ** 2  # lambda_1^(2k) <= gamma_k^k det^2
            lo, hi = 0, 1  # bisect the largest m with (4m)^k <= bound
            while (4 * hi) ** k <= bound:
                hi *= 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if (4 * mid) ** k <= bound else (lo, mid)
            assert search._hermite_ceiling(k, n) == 4 * lo, (k, n)

    @pytest.mark.parametrize("k,n", [(9, 1), (9, 7), (12, 2), (16, 2), (24, 5)])
    def test_minkowski_past_dimension_8(self, k, n):
        assert search._hermite_ceiling(k, n) == _minkowski_radius_sq(k, n << k) // 4 * 4


class TestRestartDraws:
    def test_adjugates_give_exact_determinants(self):
        rng = np.random.default_rng(4)
        for k in [1, 2, 3, 4, 6]:
            ms = rng.integers(-3, 4, size=(300, k, k))
            ms[::3, :, -1] = ms[::3, :, 0]  # singular: two equal columns
            ms[1::7] = 0
            adj, det = search._adjugates(ms)
            assert det.tolist() == [abs(int_det(m)) for m in ms]
            for m, a, d in zip(ms, adj, det):
                if d:
                    assert abs(a @ m).tolist() == (d * np.eye(k, dtype=np.int64)).tolist()
                else:
                    assert not a.any()

    @pytest.mark.parametrize("k,n", [(4, 32), (4, 256), (3, 8), (2, 32), (4, 8), (6, 8)])
    def test_candidates_have_the_index_and_its_shells(self, monkeypatch, k, n):
        rng = np.random.default_rng(k * n)
        table = search._short_vectors(k, search._hermite_ceiling(k, n))
        u, shells = table
        drawn = [search._shell_bases(u[start:stop], n, rng)
                 for norm, start, stop in shells if norm ** k >= n * n]
        shell_ms, shell_ops = (np.concatenate(x) for x in zip(*drawn))
        # the shell stage ranks its draws with the operators that selected them
        assert _pairs(search._shell_hits(shell_ops, n, table)) == \
            [shortest_shell(IntegerLattice(2 * m)) for m in shell_ms]
        hermite_ms = search._hermite_forms(k, search._factorize(n), 64, rng)
        assert len(shell_ms) > 0
        for ms in (shell_ms, hermite_ms):
            two = two_zk(k)
            assert all(index_in_superlattice(IntegerLattice(2 * m), two) == n for m in ms)
            expected = [shortest_shell(IntegerLattice(2 * m)) for m in ms]
            assert _pairs(search._block_shells(ms, n, table)) == expected
            with monkeypatch.context() as patch:  # the table path alone
                patch.setattr(search, "shortest_shells", None)
                # the search's ceiling table, and one past it: a lattice
                # leaves at its first shell with a hit
                assert _pairs(search._block_shells(ms, n, table)) == expected
                wider = search._short_vectors(k, search._hermite_ceiling(k, n) + 8)
                assert _pairs(search._block_shells(ms, n, wider)) == expected
        # a shell draw has k independent columns of its shell's norm
        for norm, start, stop in shells:
            for m in search._shell_bases(u[start:stop], n, rng)[0]:
                assert (m * m).sum(axis=0).tolist() == [norm] * k

    @pytest.mark.parametrize("k,n", [(4, 105), (3, 105)])
    def test_odd_index_draws_no_even_norm_block(self, monkeypatch, k, n):
        # an even-norm column is even-weight mod 2, so k of them have an even det
        norms = []
        real = search._shell_bases
        monkeypatch.setattr(search, "_shell_bases",
                            lambda shell, *a: norms.append(int(shell[0] @ shell[0])) or
                            real(shell, *a))
        _outcome(SearchConfig(k=k, target_index=n, budget=400, seed=0))
        assert norms and all(norm % 2 for norm in norms), norms

    @pytest.mark.parametrize("k,n", [(4, 32), (4, 105)])
    def test_one_elimination_per_shell_stage_block(self, monkeypatch, k, n):
        counts = collections.Counter()
        for name in ("_bareiss", "_shell_bases", "_hermite_forms"):
            monkeypatch.setattr(search, name, lambda *a, name=name, real=getattr(search, name):
                                counts.update([name]) or real(*a))
        _outcome(SearchConfig(k=k, target_index=n, budget=400, seed=0))
        assert counts["_shell_bases"] > 0
        # a shell-stage block keeps its draws' adjugates; a Hermite block has one
        assert counts["_bareiss"] == counts["_shell_bases"] + counts["_hermite_forms"]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_climb_moves_are_uniform(self, k):
        draws = []

        class Counted:
            def integers(self, *args, **kwargs):
                draws.append(args)
                return rng.integers(*args, **kwargs)

        rng, count = np.random.default_rng(k), 10 ** 5
        moves = search._climb_moves(k, count, Counted())
        assert len(draws) == 3 and moves.shape == (count, 3)
        i, j, f = moves.T
        assert not np.any(i == j)
        if k == 2:
            assert np.array_equal(j, 1 - i)
        # every ordered pair i != j and each sign: Binomial(count, p) counts,
        # each within 5 standard deviations of its mean
        pairs = np.unique(i * k + j, return_counts=True)
        signs = np.unique(f, return_counts=True)
        assert pairs[0].tolist() == [a * k + b for a in range(k) for b in range(k) if a != b]
        assert signs[0].tolist() == [-1, 1]
        for (_, hits), p in [(pairs, 1 / (k * (k - 1))), (signs, 1 / 2)]:
            assert np.all(np.abs(hits - count * p) < 5 * math.sqrt(count * p * (1 - p))), hits

    def test_hermite_draws_reach_every_diagonal_uniformly(self):
        rng = np.random.default_rng(5)
        hs = np.concatenate([search._hermite_forms(4, search._factorize(32), 256, rng)
                             for _ in range(80)])
        assert all(int_det(h) == 32 for h in hs[:500])
        assert not np.triu(hs, 1).any()
        assert np.all((0 <= np.tril(hs, -1)) & (np.tril(hs, -1) < hs.diagonal(axis1=1, axis2=2)[:, :, None]))
        diagonals = collections.Counter(map(tuple, hs.diagonal(axis1=1, axis2=2).tolist()))
        assert set(diagonals) == set(_diagonals(4, 32)) and len(diagonals) == 56
        # each prime's exponents are a uniform composition: 1/56 of the draws each
        mean = len(hs) / 56
        assert all(abs(c - mean) < 5 * math.sqrt(mean) for c in diagonals.values())

    def test_hermite_diagonal_past_int64_raises(self):
        rng = np.random.default_rng(0)
        h = search._hermite_forms(1, [(2, 61)], 1, rng)
        assert h.tolist() == [[[2 ** 61]]]
        with pytest.raises(CapacityError, match=f"{2 ** 62} doubles past int64"):
            search._hermite_forms(1, [(2, 62)], 1, rng)
        with pytest.raises(CapacityError, match="doubles past int64"):
            search._hermite_forms(4, search._factorize(2 ** 70), 256, rng)

    def test_index_32_census(self, monkeypatch):
        # all 97 155 Hermite forms of index 32 in 2Z^4 (the Gaussian binomial
        # [8 choose 3] at q = 2): 333 are well-rounded, one of them at
        # lambda_1^2 = 32, Hermite's ceiling, with L3's 24 minimal vectors
        hs = _all_hnfs(4, 32)
        assert len(hs) == 97155
        monkeypatch.setattr(search, "shortest_shells", None)
        shells = [s for c in range(0, len(hs), 8192)
                  for s in _pairs(search._block_shells(hs[c:c + 8192], 32, ceiling_table(4, 32)))]
        wr = collections.Counter(l1 for l1, rank in shells if rank == 4)
        assert wr == {24: 324, 28: 8, 32: 1}
        (top,) = [h for h, (l1, rank) in zip(hs, shells) if l1 == 32]
        minimal = enumerate_shorter_than(IntegerLattice(2 * top), 32)
        assert len(minimal) == 24
        assert len(enumerate_shorter_than(builtin_sublattice("L3"), 32)) == 24
        assert search._hermite_ceiling(4, 32) == 32
