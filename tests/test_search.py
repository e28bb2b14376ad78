import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latcoset.search as search
from latcoset import (CapacityError, IntegerLattice, NoFeasibleCandidate, SearchConfig,
                      index_in_superlattice, is_well_rounded,
                      random_sublattice_with_index, search_wr_sublattice,
                      successive_minima, volume)
from latcoset.cli import main as cli_main
from latcoset.lattice import shortest_shell


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
        cfg = SearchConfig(k=4, target_index=32, budget=3, seed=0)
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

    def test_hill_climb_needs_two_dimensions(self):
        # every move of a 1 x 1 basis has i == j and spends no budget
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
    """The search one candidate at a time: sample 2HV, enumerate its shortest
    shell and keep the best key, as the block evaluation must reproduce."""
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
    for _ in range(restarts):
        consider(random_sublattice_with_index(k, n, rng))
    remaining -= restarts
    if cfg.hill_climb:
        _, current, _ = best_wr if best_wr is not None else best_any
        cur = shortest_shell(current)
        while remaining > 0:
            i, j = rng.integers(0, k, size=2)
            if i == j:
                continue
            coeff = int(rng.integers(0, 2)) * 2 - 1
            b = current.B.copy()
            b[j, :] += coeff * b[i, :]
            trial = IntegerLattice(b)
            got = consider(trial)
            remaining -= 1
            if got > cur:
                current, cur = trial, got
    _, lat, l1 = best_wr if best_wr is not None else best_any
    report = search.SearchReport(evaluated=cfg.budget, feasible=feasible,
                                 best_lambda1_sq=l1, best_is_wr=best_wr is not None)
    return lat.B.tolist(), report


def _all_hnfs(k, n):
    """Every lower-triangular Hermite form of det n, residues 0 <= h_ij < h_ii."""
    out = []
    for diag in itertools.product(range(1, n + 1), repeat=k):
        if math.prod(diag) != n:
            continue
        below = [(i, j) for i in range(k) for j in range(i)]
        for res in itertools.product(*(range(diag[i]) for i, _ in below)):
            h = np.diag(diag).astype(np.int64)
            for (i, j), r in zip(below, res):
                h[i, j] = r
            out.append(h)
    return np.array(out)


class TestBlockEvaluation:
    @settings(max_examples=120, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 4, 6]), n=st.sampled_from([1, 31, 32, 105, 256]),
           seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 6))
    def test_matches_enumeration_on_random_hnfs(self, k, n, seed, size):
        rng = np.random.default_rng(seed)
        hs = np.array([search._random_hnf(k, search._factorize(n), rng) for _ in range(size)])
        assert search._block_shells(hs, n) == [shortest_shell(IntegerLattice(2 * h)) for h in hs]

    @pytest.mark.parametrize("k,n", [(2, 25), (2, 32), (3, 16), (4, 8)])
    def test_matches_enumeration_on_every_hnf(self, monkeypatch, k, n):
        hs = _all_hnfs(k, n)
        expected = [shortest_shell(IntegerLattice(2 * h)) for h in hs]
        assert any(rank == k for _, rank in expected)
        # the table path alone: no per-candidate enumeration
        monkeypatch.setattr(search, "shortest_shell", None)
        assert search._block_shells(hs, n) == expected

    @settings(max_examples=120, deadline=None)
    @given(k=st.sampled_from([2, 3, 4, 6]), n=st.sampled_from([1, 31, 32, 105, 256]),
           seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 8),
           climbed=st.integers(0, 6))
    def test_climb_matches_enumeration_on_random_moves(self, k, n, seed, size, climbed):
        rng = np.random.default_rng(seed)
        m = random_sublattice_with_index(k, n, rng).B // 2
        for mv in search._climb_moves(k, climbed, rng):  # an incumbent past a few climbs
            m = search._climb_trials(m, [mv])[0]
        trials = search._climb_trials(m, search._climb_moves(k, size, rng))
        expected = [shortest_shell(IntegerLattice(2 * t)) for t in trials]
        assert search._block_shells(trials, n) == expected

    @pytest.mark.parametrize("k,n", [(2, 32), (3, 105), (4, 32), (4, 256), (6, 105)])
    def test_climb_matches_enumeration_on_every_move(self, monkeypatch, k, n):
        rng = np.random.default_rng(k * n)
        moves = [(i, j, f) for i in range(k) for j in range(k) if i != j for f in (-1, 1)]
        for _ in range(3):
            trials = search._climb_trials(random_sublattice_with_index(k, n, rng).B // 2, moves)
            expected = [shortest_shell(IntegerLattice(2 * t)) for t in trials]
            # the table path alone: no per-trial enumeration
            with monkeypatch.context() as patch:
                patch.setattr(search, "shortest_shell", None)
                assert search._block_shells(trials, n) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_matches_enumeration_on_non_hermite_stacks(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        for n in [1, 32, 105, 256]:
            ms = [random_sublattice_with_index(k, n, rng).B // 2 for _ in range(20)]  # 2HV / 2
            for _ in range(5 if k > 1 else 0):
                h = search._random_hnf(k, search._factorize(n), rng)
                h[-1, 0] = 0
                ms.append(h[::-1])  # a zero leading entry, so rows are pivoted
            ms = np.array(ms)
            expected = [shortest_shell(IntegerLattice(2 * m)) for m in ms]
            assert search._block_shells(ms, n) == expected
            with monkeypatch.context() as patch:  # the table path alone
                patch.setattr(search, "shortest_shell", None)
                assert search._block_shells(ms, n) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_past_hadamard_bound_falls_back(self, monkeypatch, k):
        def hadamard_sq(m):
            return min(math.prod(sum(x * x for x in r) for r in m.tolist()),
                       math.prod(sum(x * x for x in c) for c in m.T.tolist()))

        for n in [32, 105, 256]:
            # grow a Hermite form by index-preserving row moves until k^2 h^2
            # first reaches 2^62
            under = search._random_hnf(k, search._factorize(n), np.random.default_rng(k))
            s = 0
            while k * k * hadamard_sq(past := search._climb_trials(
                    under, [(s % k, (s + 1) % k, 1)])[0]) < 1 << 62:
                under, s = past, s + 1
            expected = [shortest_shell(IntegerLattice(2 * m)) for m in (under, past)]
            calls = []
            real = search.shortest_shell
            with monkeypatch.context() as patch:
                patch.setattr(search, "shortest_shell",
                              lambda lat: calls.append(lat) or real(lat))
                assert search._block_shells(under[None], n) == expected[:1]
                assert calls == []
                assert search._block_shells(past[None], n) == expected[1:]
                assert len(calls) == 1

    def test_climb_trial_past_int64_raises(self):
        m = np.array([[2 ** 61, 0], [2 ** 61, 1]], dtype=np.int64)
        assert search._climb_trials(m, [(1, 0, -1)])[0].tolist() == [[0, -1], [2 ** 61, 1]]
        with pytest.raises(CapacityError, match="int64"):
            search._climb_trials(m, [(1, 0, -1), (0, 1, 1)])

    @pytest.mark.parametrize("hill_climb", [False, True])
    @pytest.mark.parametrize("index", [32, 256])
    def test_matches_sequential_search(self, index, hill_climb):
        for seed in range(4):
            cfg = SearchConfig(k=4, target_index=index, budget=300, seed=seed,
                               hill_climb=hill_climb)
            assert _outcome(cfg) == _sequential_search(cfg)

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
        real = search.shortest_shell
        monkeypatch.setattr(search, "shortest_shell",
                            lambda lat, *a: calls.append(lat) or real(lat, *a))
        _outcome(SearchConfig(k=4, target_index=256, budget=600, seed=0))
        assert len(calls) == 1  # the seeded diagonal
        calls.clear()
        _outcome(SearchConfig(k=4, target_index=32, budget=600, seed=0))
        assert calls == []
        _outcome(SearchConfig(k=4, target_index=32, budget=600, seed=0, hill_climb=True))
        assert calls == []  # the hill-climb trials are evaluated in blocks too

    @pytest.mark.parametrize("k,hill_climb,digest", [
        (16, False, "f276b5661771a05872c09569269d1b24b17393062a4c3bf8e21853df3cd0c241"),
        (16, True, "41220e51422ad17412cec86db9521cc45c9473c336f8ac3f82aece484c538d72"),
        (24, False, "9c4e4ad56e45f33db3b932af58d97fa78173ec06f8bcec63cdffde28d6b672b0"),
        (24, True, "00061c8eecf7ca2692ad8048573805cbd9b65c8f76d52085094cde6d97f4598d"),
    ], ids=["k16", "k16-climb", "k24", "k24-climb"])
    def test_high_dimension_index_2_unchanged(self, k, hill_climb, digest):
        # digests of the best lattice's JSON from the per-candidate search;
        # every index-2 sublattice the sampler reaches has lambda_1^2 = 4
        with pytest.raises(NoFeasibleCandidate) as err:
            search_wr_sublattice(SearchConfig(k=k, target_index=2, budget=300, seed=0,
                                              hill_climb=hill_climb))
        assert err.value.report == search.SearchReport(
            evaluated=300, feasible=0, best_lambda1_sq=4, best_is_wr=False)
        assert hashlib.sha256(err.value.best.to_json().encode()).hexdigest() == digest

    def test_cli_outputs_pinned(self, capsys):
        # the table path (exits 0 and 1), the table-cap fallback (k = 3 at
        # 10^5), the int64 fallback (k = 3 at 10^9; both at k = 2 past 10^6)
        # and exit 4; the digest was taken before the block kernel replaced
        # the Hermite-only and Smith-form evaluators
        runs = []
        for k, index, budget, climb in [(4, 32, 400, False), (4, 32, 400, True),
                                        (4, 105, 400, True), (6, 8, 400, True),
                                        (3, 10 ** 5, 300, True), (3, 10 ** 9, 300, True),
                                        (2, 1000003, 300, True), (2, 2 ** 31 - 1, 300, False),
                                        (4, 999983000003, 300, False)]:
            argv = ["search", "--k", str(k), "--index", str(index), "--budget", str(budget),
                    "--seed", "0"] + ["--hill-climb"] * climb
            code = cli_main(argv)
            out = capsys.readouterr()
            runs.append([argv, code, out.out, out.err])
        assert [code for _, code, _, _ in runs] == [0, 0, 1, 1, 1, 0, 1, 4, 4]
        assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == (
            "0b1ba8421f283e3fdad5e7b160efd9194ee5340e600003206f60c719108f4f8f")

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
