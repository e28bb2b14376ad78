from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import latcoset.decoder as decoder
import latcoset.wiretap as wiretap
from latcoset import (ChannelParams, CodebookTooLarge, CosetCode, DecodingProblem,
                      IntegerLattice, PAMAlphabet, RankDeficientChannel,
                      alamouti_map, ecdp_monte_carlo, golden_map,
                      ml_decode_exhaustive, realify, sample_channel,
                      snr_to_sigma, sphere_decode)
from latcoset.decoder import (_codebook_features, _gemm_terms, _pair_rows, _residual_distances,
                              _residual_pick, _slack, _two_level_terms, _two_level_words,
                              _with_ones, codebook, exhaustive_words, orthogonal_words,
                              sphere_words)
from latcoset.stcode import grid_rows


def random_problem(rng, code_map, m, sigma_sq=1.0):
    alphabet = PAMAlphabet(m)
    h = sample_channel(ChannelParams(), rng)
    heff = realify(h, code_map.T) @ code_map.M
    z = alphabet.symbols[rng.integers(0, m, code_map.k)]
    y = heff @ z + rng.standard_normal(heff.shape[0]) * np.sqrt(sigma_sq / 2)
    return DecodingProblem(y=y, Heff=heff, alphabet=alphabet), z


class TestExhaustive:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        p, z = random_problem(rng, alamouti_map(), 4, sigma_sq=0.0)
        p = DecodingProblem(y=p.Heff @ z, Heff=p.Heff, alphabet=p.alphabet)
        assert np.array_equal(ml_decode_exhaustive(p), z)

    def test_identity_channel_rounding(self):
        p = DecodingProblem(y=np.array([0.9, -1.2]), Heff=np.eye(2),
                            alphabet=PAMAlphabet(2))
        assert ml_decode_exhaustive(p).tolist() == [1, -1]

    def test_codebook_guard(self):
        p = DecodingProblem(y=np.zeros(8), Heff=np.eye(8), alphabet=PAMAlphabet(10))
        with pytest.raises(CodebookTooLarge):
            ml_decode_exhaustive(p)

    def test_codebook_order_is_lexicographic(self):
        grid = codebook(2, 3)
        assert grid.tolist()[:3] == [[-1, -1, -1], [-1, -1, 1], [-1, 1, -1]]

    def test_split_path_matches_direct(self):
        rng = np.random.default_rng(1)
        alphabet = PAMAlphabet(4)
        for _ in range(20):
            h = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            direct = ml_decode_exhaustive(
                DecodingProblem(y=y, Heff=h, alphabet=alphabet))
            assert np.array_equal(_two_level_words(h[None], y[None], 4)[0], direct)

    def test_split_path_exact_ties_pick_the_lexicographically_first_word(self):
        # 10-PAM, k = 8: the lifted cap runs the two-level kernel.  Heff = h I
        # and y = 2h put every coordinate midway between the symbols 1 and 3,
        # so the 256 words of {1,3}^8 tie exactly; the kernel's sums round
        # them apart.
        h = 2.0 ** 30 + 11
        p = DecodingProblem(y=np.full(8, 2 * h), Heff=h * np.eye(8),
                            alphabet=PAMAlphabet(10))
        assert ml_decode_exhaustive(p, cap=10 ** 9).tolist() == [1] * 8
        assert sphere_decode(p).tolist() == [1] * 8


def residual_argmin(heff, y, m):
    """First argmin of sum (y - Heff z)^2 over the codebook, one problem at a time."""
    zf = codebook(m, heff.shape[2]).astype(float)
    return np.array([np.argmin(np.sum((yi - zf @ hi.T) ** 2, axis=1))
                     for hi, yi in zip(heff, y)])


def residual_words(heff, y, m):
    """The codebook words of :func:`residual_argmin`."""
    return codebook(m, heff.shape[2])[residual_argmin(heff, y, m)]


def exact_distances(heff, y, words):
    """sum (y - Heff z)^2 for each row z of ``words``, in exact rationals."""
    den = max(Fraction(float(v)).denominator for v in np.concatenate([heff.ravel(), y]))
    hi = np.array([[int(Fraction(float(v)) * den) for v in row] for row in heff], dtype=object)
    yi = np.array([int(Fraction(float(v)) * den) for v in y], dtype=object)
    r = yi[None, :] - words.astype(np.int64).astype(object) @ hi.T
    return [Fraction(int(v), den * den) for v in (r * r).sum(axis=1)]


def exact_perp_norm(heff, y):
    """||y||^2 - ||P y||^2 in exact rationals, P the projection onto Heff's columns.

    Zero when Heff has no more rows than columns (full row rank assumed).
    """
    d, k = heff.shape
    if d <= k:
        return Fraction(0)
    h = [[Fraction(float(v)) for v in row] for row in heff]
    yv = [Fraction(float(v)) for v in y]
    # the normal equations (H^T H) x = H^T y, by Gauss-Jordan elimination
    aug = [[sum(h[r][i] * h[r][j] for r in range(d)) for j in range(k)]
           + [sum(h[r][i] * yv[r] for r in range(d))] for i in range(k)]
    hty = [row[k] for row in aug]
    for i in range(k):
        piv = next(r for r in range(i, k) if aug[r][i] != 0)
        aug[i], aug[piv] = aug[piv], aug[i]
        for r in range(k):
            if r != i and aug[r][i] != 0:
                f = aug[r][i] / aug[i][i]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[i])]
    return sum(v * v for v in yv) - sum(hty[i] * aug[i][k] / aug[i][i] for i in range(k))


def check_two_level_bound(heff, y, m, rng):
    """The two-level scores (plus c) and the residual form lie within E/2 of the
    exact distances, and T(z_t) + c at most E/2 above any completion of z_t;
    checked on the greedy top word and two random ones of each problem."""
    k = heff.shape[2]
    zb, zt = (codebook(m, half).astype(float) for half in (k // 2, k - k // 2))
    feats_b = _with_ones(_codebook_features(m, k // 2)[1])
    terms = _two_level_terms(heff, y, m)
    for p in range(heff.shape[0]):
        # the kernel's scores and T drop c = ||y||^2 - ||Q^T y||^2
        c = exact_perp_norm(heff[p], y[p])
        half = Fraction(float(terms.slack[p])) / 2
        for t in [int(np.argmin(terms.tscore[p])), *rng.integers(0, zt.shape[0], 2)]:
            words = np.concatenate([zb, np.repeat(zt[t][None], zb.shape[0], axis=0)], axis=1)
            exact = exact_distances(heff[p], y[p], words)
            scores = (_pair_rows(terms, zt, np.array([p]), np.array([t])) @ feats_b)[0]
            residual = _residual_distances(heff[p][None], y[p][None], words)[0]
            tscore = Fraction(float(terms.tscore[p, t])) + c
            for s, f, e in zip(scores, residual, exact):
                assert abs(Fraction(float(s)) + c - e) <= half
                assert abs(Fraction(float(f)) - e) <= half
                assert tscore <= e + half


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(code=st.sampled_from(["alamouti", "golden"]), m=st.sampled_from([2, 4]),
           n=st.integers(1, 6), snr_db=st.sampled_from([-60.0, 0.0, 20.0]),
           integer=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    # golden 4-PAM goes to the two-level kernel in blocks of 128 problems,
    # alamouti 8-PAM (4096 words) in one block of 256
    @example(code="golden", m=4, n=130, snr_db=-60.0, integer=False, seed=11)
    @example(code="golden", m=4, n=130, snr_db=0.0, integer=True, seed=12)
    @example(code="alamouti", m=8, n=130, snr_db=0.0, integer=False, seed=13)
    @example(code="alamouti", m=8, n=130, snr_db=20.0, integer=True, seed=14)
    def test_matches_residual_argmin(self, code, m, n, snr_db, integer, seed):
        # integer channels with half-integer outputs are full of exact ties
        rng = np.random.default_rng(seed)
        code_map = alamouti_map() if code == "alamouti" else golden_map()
        if integer:
            heff = rng.integers(-2, 3, (n, 8, code_map.k)).astype(float)
            y = rng.integers(-6, 7, (n, 8)) / 2.0
        else:
            problems = [random_problem(rng, code_map, m, sigma_sq=10 ** (-snr_db / 10))[0]
                        for _ in range(n)]
            heff = np.array([p.Heff for p in problems])
            y = np.array([p.y for p in problems])
        assert np.array_equal(exhaustive_words(heff, y, m), residual_words(heff, y, m))

    def test_exact_ties_pick_the_lexicographically_first_word(self):
        # Heff = h I, y = 2h: every coordinate is midway between the symbols 1
        # and 3, and (y - h)^2 = (y - 3h)^2 = h^2 exactly, so (1,1), (1,3),
        # (3,1) and (3,3) tie.  The product form rounds h^2 and h y apart and
        # splits some of these ties; the recheck must restore the first word.
        h = 2.0 ** 30 + np.arange(1, 64, 2)
        heff = h[:, None, None] * np.eye(2)
        y = 2.0 * np.repeat(h[:, None], 2, axis=1)
        got = exhaustive_words(heff, y, 4)
        assert np.array_equal(got, np.ones((len(h), 2), dtype=np.int64))

    @pytest.mark.parametrize("m,k", [(2, 8), (4, 4), (4, 2)])
    def test_residual_pick_ignores_candidate_order(self, m, k):
        # integer channels with half-integer outputs tie exactly: the smallest
        # flat index wins whatever the order of the candidates
        rng = np.random.default_rng(m + k)
        heff = rng.integers(-2, 3, (40, 8, k)).astype(float)
        y = rng.integers(-6, 7, (40, 8)) / 2.0
        words = codebook(m, k)
        want = residual_words(heff, y, m)
        for cand in (words, words[::-1], rng.permutation(words)):
            assert np.array_equal(_residual_pick(heff, y, cand, m), want)
        # Heff = I and y = 2: every word of {1, 3}^k ties, and (1, ..., 1) comes first
        tied = rng.permutation(grid_rows((1, 3), k))
        got = _residual_pick(np.eye(k)[None], np.full((1, k), 2.0), tied, 4)
        assert got.tolist() == [[1] * k]

    @pytest.mark.parametrize("code,m", [("alamouti", 4), ("golden", 2)])
    @pytest.mark.parametrize("snr_db", range(-60, 61, 20))
    def test_gemm_error_bound_against_exact_distances(self, code, m, snr_db):
        # the product's scores drop ||y||^2; both lie within E/2 of the exact values
        rng = np.random.default_rng(snr_db + 200)
        code_map = alamouti_map() if code == "alamouti" else golden_map()
        problems = [random_problem(rng, code_map, m, sigma_sq=10 ** (-snr_db / 10))[0]
                    for _ in range(3)]
        heff = np.array([p.Heff for p in problems])
        y = np.array([p.y for p in problems])
        zf, feats = _codebook_features(m, code_map.k)[:2]
        slack = _slack(heff, y, m)
        scores = _gemm_terms(heff, y, m) @ feats
        residual = _residual_distances(heff, y, zf)
        words = codebook(m, code_map.k)
        for p in range(len(problems)):
            exact = exact_distances(heff[p], y[p], words)
            y_sq = sum(Fraction(float(v)) ** 2 for v in y[p])
            half = Fraction(float(slack[p])) / 2
            for s, f, e in zip(scores[p], residual[p], exact):
                assert abs(Fraction(float(s)) - (e - y_sq)) <= half
                assert abs(Fraction(float(f)) - e) <= half

    @pytest.mark.parametrize("snr_db", range(-60, 61, 20))
    def test_two_level_error_bound_against_exact_distances(self, snr_db):
        # golden rows have d = k = 8, so the kernel's scores carry no constant
        rng = np.random.default_rng(snr_db + 100)
        problems = [random_problem(rng, golden_map(), 4, sigma_sq=10 ** (-snr_db / 10))[0]
                    for _ in range(3)]
        heff = np.array([p.Heff for p in problems])
        y = np.array([p.y for p in problems])
        check_two_level_bound(heff, y, 4, rng)

    @pytest.mark.parametrize("case", ["alamouti 8-PAM", "k=5 6-PAM", "golden 4-PAM n_r=1"])
    @pytest.mark.parametrize("snr_db", range(-60, 61, 20))
    def test_two_level_error_bound_other_shapes(self, case, snr_db):
        # halves 2/2 with d = 8 > k + 1 (a constant c > 0), halves 2/3 (a direct
        # kernel call, d = 6 = k + 1) and halves 4/4 with d = 4 < k
        rng = np.random.default_rng(snr_db + 300)
        if case == "k=5 6-PAM":
            m, k = 6, 5
            heff = rng.standard_normal((3, 6, k))
        else:
            code_map, m, n_r = ((alamouti_map(), 8, 2) if case == "alamouti 8-PAM"
                                else (golden_map(), 4, 1))
            k = code_map.k
            heff = np.array([realify(sample_channel(ChannelParams(n_r=n_r), rng), code_map.T)
                             @ code_map.M for _ in range(3)])
        z = PAMAlphabet(m).symbols[rng.integers(0, m, (3, k))]
        noise = np.sqrt(10 ** (-snr_db / 10) / 2) * rng.standard_normal(heff.shape[:2])
        check_two_level_bound(heff, np.einsum("bik,bk->bi", heff, z) + noise, m, rng)

    @pytest.mark.parametrize("n_r", [1, 3])
    def test_two_level_any_row_count(self, n_r):
        # golden rows: d = 4 < k = 8 pads R with zero rows, d = 12 > k drops ||y_perp||
        rng = np.random.default_rng(n_r)
        code_map = golden_map()
        heff = np.array([realify(sample_channel(ChannelParams(n_r=n_r), rng), code_map.T)
                         @ code_map.M for _ in range(20)])
        z = rng.choice([-3, -1, 1, 3], (20, 8))
        y = np.einsum("bik,bk->bi", heff, z) + rng.standard_normal(heff.shape[:2])
        assert np.array_equal(exhaustive_words(heff, y, 4), residual_words(heff, y, 4))

    def test_forced_exhaustive_cap_raises_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(wiretap, "_chunk_rng", no_draw)
        code = CosetCode(map=golden_map(), alphabet=PAMAlphabet(8),
                         sub=IntegerLattice(2 * np.eye(8, dtype=np.int64)))
        with pytest.raises(CodebookTooLarge):
            ecdp_monte_carlo(code, [0.0], 1, 0, decoder="exhaustive")


def golden_trials(rng, n, snr_db, m=4, n_r=2):
    """Heff and y of ``n`` golden trials as the Monte-Carlo engine forms them."""
    code_map = golden_map()
    heff = wiretap._effective_channels(code_map, rng.standard_normal((n, n_r, 2, 2)))
    z = PAMAlphabet(m).symbols[rng.integers(0, m, (n, 8))].astype(float)
    sigma_sq = snr_to_sigma(snr_db, code_map, PAMAlphabet(m)).sigma_sq
    y = (np.einsum("bik,bk->bi", heff, z)
         + np.sqrt(sigma_sq / 2) * rng.standard_normal((n, 4 * n_r)))
    return heff, y


def fixed_order(make):
    """A stand-in for :func:`decoder._column_order` giving ``make(b, k)``."""
    return lambda heff: make(heff.shape[0], heff.shape[2])


COLUMN_ORDERS = {
    "identity": fixed_order(lambda b, k: np.tile(np.arange(k), (b, 1))),
    "reversed": fixed_order(lambda b, k: np.tile(np.arange(k)[::-1], (b, 1))),
    "random": fixed_order(lambda b, k: np.random.default_rng(b).permuted(
        np.tile(np.arange(k), (b, 1)), axis=1)),
}


class TestColumnOrder:
    @pytest.mark.parametrize("case,seed", [("golden -60 dB", 21), ("golden 0 dB", 22),
                                           ("golden 20 dB", 23), ("golden integer", 24),
                                           ("alamouti 8-PAM integer", 25)])
    def test_any_order_gives_the_same_decisions(self, case, seed, monkeypatch):
        # 130 golden problems cross the kernel's block boundary at 128; the
        # integer channels with half-integer outputs are full of exact ties
        rng = np.random.default_rng(seed)
        if case.endswith("integer"):
            m, k = (4, 8) if case.startswith("golden") else (8, 4)
            heff = rng.integers(-2, 3, (130, 8, k)).astype(float)
            y = rng.integers(-6, 7, (130, 8)) / 2.0
        else:
            m = 4
            heff, y = golden_trials(rng, 130, float(case.split()[1]))
        want = residual_words(heff, y, m)
        assert np.array_equal(exhaustive_words(heff, y, m), want)
        for name, order in COLUMN_ORDERS.items():
            monkeypatch.setattr(decoder, "_column_order", order)
            assert np.array_equal(exhaustive_words(heff, y, m), want), name

    def test_bottom_columns_are_the_weak_ones_after_projection(self):
        # norms 2, 2.5, 1.5 and 3.04, but column 3 is 0.5 away from the span
        # of column 2: sorted QR takes 2 and then 3, where sorting the norms
        # would take 2 and 0; the top columns keep ascending order
        heff = np.zeros((1, 4, 4))
        heff[0, 2, 0], heff[0, 3, 1], heff[0, 0, 2] = 2.0, 2.5, 1.5
        heff[0, :2, 3] = 3.0, 0.5
        assert decoder._column_order(heff).tolist() == [[2, 3, 0, 1]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("order", [None, *COLUMN_ORDERS])
    def test_edge_channels(self, order, monkeypatch):
        # golden with n_r = 1 (d = 4 < k), zero channels, a zero column and
        # duplicate columns: zero pivots in the order, ties in the decisions
        if order is not None:
            monkeypatch.setattr(decoder, "_column_order", COLUMN_ORDERS[order])
        rng = np.random.default_rng(8)
        heff, y = golden_trials(rng, 12, 0.0, n_r=1)
        assert np.array_equal(exhaustive_words(heff, y, 4), residual_words(heff, y, 4))
        heff, y = golden_trials(rng, 12, 10.0)
        heff[:3] = 0.0
        y[0] = 0.0
        heff[3, :, 5] = 0.0
        heff[4:8, :, 2] = heff[4:8, :, 6]
        heff[6:12, :, 1] = heff[6:12, :, 0]
        heff[10:12, :, 7] = heff[10:12, :, 0]
        got = exhaustive_words(heff, y, 4)
        assert got[:3].tolist() == [[-3] * 8] * 3
        # swapping the symbols of duplicate columns ties in exact arithmetic,
        # so the reference is the kernel's own residual form, rounding included
        assert np.array_equal(got, _residual_pick(heff, y, codebook(4, 8), 4))
        # integer duplicates tie exactly: the first word of the tie in any arithmetic
        heff = rng.integers(-2, 3, (12, 8, 8)).astype(float)
        heff[:, :, 4:] = heff[:, :, :4]
        y = rng.integers(-6, 7, (12, 8)) / 2.0
        assert np.array_equal(exhaustive_words(heff, y, 4), residual_words(heff, y, 4))

    @pytest.mark.parametrize("snr_db,completed", [(0.0, 7967), (20.0, 590)])
    def test_completion_count(self, snr_db, completed, monkeypatch):
        # (problem, top word) pairs completed over the bottom words on one
        # 256-trial golden 4-PAM batch, the greedy leaves and rechecks
        # included; the fixed order 0..7 completed 12 275 and 1 635
        rows = []
        pair_rows = decoder._pair_rows

        def spy(terms, zt, trial, top):
            rows.append(len(trial))
            return pair_rows(terms, zt, trial, top)

        monkeypatch.setattr(decoder, "_pair_rows", spy)
        heff, y = golden_trials(np.random.default_rng(2026), 256, snr_db)
        decoder.exhaustive_words(heff, y, 4)
        assert sum(rows) == completed


def quaternion_block(a, b, c, d):
    """Real 4x4 orthogonal design: columns orthogonal, each of norm a^2 + b^2 + c^2 + d^2."""
    return np.array([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]], float)


def oracle_words(heff, y, m):
    """:func:`ml_decode_exhaustive` of each problem."""
    alphabet = PAMAlphabet(m)
    return np.array([ml_decode_exhaustive(DecodingProblem(y=yi, Heff=hi, alphabet=alphabet))
                     for hi, yi in zip(heff, y)])


def alamouti_channels(rng, n, n_r):
    """Heff of ``n`` alamouti trials as the Monte-Carlo engine forms them."""
    return wiretap._effective_channels(alamouti_map(), rng.standard_normal((n, n_r, 2, 2)))


ALAMOUTI_GRAM_ERROR = wiretap._design_gram_error(alamouti_map())


def count_settles(monkeypatch) -> list:
    """Record the trials that :func:`orthogonal_words` does not settle by slicing."""
    calls = []
    settle = decoder._settle

    def spy(heff, y, m, words, bound, near, odd, g):
        calls.append((near.any(axis=1) & ~odd, odd))
        return settle(heff, y, m, words, bound, near, odd, g)

    monkeypatch.setattr(decoder, "_settle", spy)
    return calls


class TestOrthogonalWords:
    # Integer designs have exact Gram matrices (gram_error 0) and exact
    # distances; y = Heff v puts u = Heff^T y / g exactly at v.
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    def test_u_exactly_on_boundaries_ties_to_the_first_word(self, n_r, monkeypatch):
        calls = count_settles(monkeypatch)
        blocks = [quaternion_block(1, 2, -1, 1), quaternion_block(0, 1, 3, -2),
                  quaternion_block(2, 0, 0, 1)][:n_r]
        heff = np.vstack(blocks)[None]
        for v, want in [((0, 2, -2, 1), [-1, 1, -3, 1]), ((0, 0, 0, 0), [-1, -1, -1, -1]),
                        ((2, 3, -1, -2), [1, 3, -1, -3])]:
            y = heff @ np.array(v, float)
            assert orthogonal_words(heff, y, 4, 0.0).tolist() == [want]
            assert oracle_words(heff, y, 4).tolist() == [want]
        assert [near.tolist() for near, _ in calls] == [[True]] * 3

    @pytest.mark.parametrize("side", [-1, 1])
    def test_u_one_ulp_from_a_boundary(self, side):
        # g = 4 is a power of two, so u is exactly 2 +- 1 ulp and 0 on the others
        heff = quaternion_block(1, 1, 1, 1)[None]
        v = np.array([np.nextafter(2.0, side * np.inf), 0.0, np.nextafter(-2.0, -side * np.inf),
                      0.0])
        y = heff @ v
        assert np.array_equal((y @ heff[0]) / 4, v[None])
        got = orthogonal_words(heff, y, 4, 0.0)
        assert got.tolist() == [[2 + side, -1, -2 - side, -1]]
        assert np.array_equal(got, oracle_words(heff, y, 4))

    def test_u_outside_the_box_is_clamped(self):
        heff = np.stack([quaternion_block(1, 2, -1, 1), quaternion_block(3, 0, 1, 1)])
        v = np.array([[7.0, -9.0, 100.0, 0.5], [-3.5, 3.5, -1e6, 4.0]])
        y = np.einsum("bik,bk->bi", heff, v)
        got = orthogonal_words(heff, y, 4, 0.0)
        assert got.tolist() == [[3, -3, 3, 1], [-3, 3, -3, 3]]
        assert np.array_equal(got, oracle_words(heff, y, 4))

    @pytest.mark.parametrize("m", [2, 4, 8, 30])
    def test_zero_channel_gets_the_first_word(self, m):
        rng = np.random.default_rng(m)
        heff = alamouti_channels(rng, 6, 2)
        heff[[1, 4]] = 0.0
        y = rng.standard_normal((6, 8))
        y[4] = 0.0
        got = orthogonal_words(heff, y, m, ALAMOUTI_GRAM_ERROR)
        assert got[[1, 4]].tolist() == [[1 - m] * 4] * 2
        assert np.array_equal(got, oracle_words(heff, y, m))

    @pytest.mark.parametrize("m", [2, 4, 8, 30])
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    def test_matches_the_oracle(self, n_r, m):
        # a third of the trials on near-boundary points: y = Heff v, v even or odd
        rng = np.random.default_rng(10 * n_r + m)
        n = 12 if m == 30 else 40
        heff = alamouti_channels(rng, n, n_r)
        z = PAMAlphabet(m).symbols[rng.integers(0, m, (n, 4))].astype(float)
        sigma = np.sqrt(10.0 ** (-rng.choice([-20, 0, 10, 30], n) / 10) / 2)[:, None]
        y = np.einsum("bik,bk->bi", heff, z) + sigma * rng.standard_normal((n, 2 * 2 * n_r))
        v = rng.integers(-m, m + 1, (n // 3, 4)).astype(float)
        y[:n // 3] = np.einsum("bik,bk->bi", heff[:n // 3], v)
        got = orthogonal_words(heff, y, m, ALAMOUTI_GRAM_ERROR)
        assert np.array_equal(got, oracle_words(heff, y, m))

    def test_noise_far_above_the_channel_goes_to_the_product_kernels(self, monkeypatch):
        calls = count_settles(monkeypatch)
        rng = np.random.default_rng(5)
        heff = alamouti_channels(rng, 8, 2)
        heff[:3] *= 1e-9
        y = rng.standard_normal((8, 8))
        got = orthogonal_words(heff, y, 4, ALAMOUTI_GRAM_ERROR)
        assert calls[0][1].tolist() == [True] * 3 + [False] * 5
        assert np.array_equal(got, oracle_words(heff, y, 4))

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([2, 4, 6, 8]), n_r=st.integers(1, 3), n=st.integers(1, 8),
           snr_db=st.sampled_from([-60.0, -10.0, 0.0, 10.0, 40.0]),
           on_grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_matches_the_oracle(self, m, n_r, n, snr_db, on_grid, seed):
        # on_grid: y = Heff v for integer v, u on boundaries and symbols to a few ulps
        rng = np.random.default_rng(seed)
        heff = alamouti_channels(rng, n, n_r)
        if on_grid:
            v = rng.integers(-m, m + 1, (n, 4)).astype(float)
            y = np.einsum("bik,bk->bi", heff, v)
        else:
            z = PAMAlphabet(m).symbols[rng.integers(0, m, (n, 4))].astype(float)
            y = (np.einsum("bik,bk->bi", heff, z)
                 + np.sqrt(10 ** (-snr_db / 10) / 2) * rng.standard_normal((n, 4 * n_r)))
        got = orthogonal_words(heff, y, m, ALAMOUTI_GRAM_ERROR)
        assert np.array_equal(got, oracle_words(heff, y, m))


def quaternion_channels(rng, n, n_r):
    """``n`` integer orthogonal-design channels of ``n_r`` stacked quaternion blocks."""
    return np.array([np.vstack([quaternion_block(*rng.integers(-3, 4, 4)) for _ in range(n_r)])
                     for _ in range(n)])


class TestRoutesAgree:
    # integer channels with y = Heff v, v integer, or half-integer outputs:
    # full of exact ties, which every route must settle to the same word

    @pytest.mark.parametrize("n_r", [1, 2])
    def test_sliced_and_exhaustive(self, n_r):
        rng = np.random.default_rng(30 + n_r)
        heff = quaternion_channels(rng, 60, n_r)
        y = np.einsum("bik,bk->bi", heff, rng.integers(-4, 5, (60, 4)).astype(float))
        y[30:] = rng.integers(-6, 7, (30, 4 * n_r)) / 2.0
        got = orthogonal_words(heff, y, 4, 0.0)
        assert np.array_equal(got, exhaustive_words(heff, y, 4))
        assert np.array_equal(got, residual_words(heff, y, 4))

    def test_one_product_and_two_level(self, monkeypatch):
        rng = np.random.default_rng(33)
        heff = rng.integers(-2, 3, (150, 8, 8)).astype(float)
        y = rng.integers(-6, 7, (150, 8)) / 2.0
        gemm = exhaustive_words(heff, y, 2)
        monkeypatch.setattr(decoder, "_GEMM_LIMIT", 1)
        assert np.array_equal(exhaustive_words(heff, y, 2), gemm)
        assert np.array_equal(gemm, residual_words(heff, y, 2))

    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from(["alamouti", "golden"]), m=st.sampled_from([2, 4]),
           n_r=st.sampled_from([1, 2]), on_grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_box_search_and_residual_argmin(self, code, m, n_r, on_grid, seed):
        # integer orthogonal-design channels for alamouti, integer 8-column
        # ones for golden (4 rows for 8 columns with n_r = 1: all rank
        # deficient), with y = Heff v, v integer, or half-integer y
        rng = np.random.default_rng(seed)
        k = 4 if code == "alamouti" else 8
        if code == "alamouti":
            heff = quaternion_channels(rng, 16, n_r)
        else:
            heff = rng.integers(-2, 3, (16, 4 * n_r, 8)).astype(float)
        if on_grid:
            y = np.einsum("bik,bk->bi", heff, rng.integers(-m, m + 1, (16, k)).astype(float))
        else:
            y = rng.integers(-6, 7, (16, 4 * n_r)) / 2.0
        assert np.array_equal(sphere_words(heff, y, m), residual_words(heff, y, m))

    def test_sphere_and_exhaustive_on_one_receive_antenna(self):
        # golden with n_r = 1: 4 rows for 8 coefficients, so every trial is
        # rank deficient and goes to the two-level kernel
        rng = np.random.default_rng(34)
        heff = rng.integers(-2, 3, (12, 4, 8)).astype(float)
        y = rng.integers(-6, 7, (12, 4)) / 2.0
        got = sphere_words(heff, y, 4)
        assert np.array_equal(got, exhaustive_words(heff, y, 4))
        assert np.array_equal(got, residual_words(heff, y, 4))


class TestSphere:
    def test_noiseless(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, z = random_problem(rng, alamouti_map(), 4, sigma_sq=0.0)
            p = DecodingProblem(y=p.Heff @ z, Heff=p.Heff, alphabet=p.alphabet)
            assert np.array_equal(sphere_decode(p), z)

    def test_oracle_equivalence_alamouti(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p, _ = random_problem(rng, alamouti_map(), 4, sigma_sq=1.0)
            assert np.array_equal(sphere_decode(p), ml_decode_exhaustive(p))

    def test_oracle_equivalence_golden_4pam(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, _ = random_problem(rng, golden_map(), 4, sigma_sq=1.0)
            assert np.array_equal(sphere_decode(p), ml_decode_exhaustive(p))

    def test_oracle_equivalence_golden_10pam_lifted_cap(self):
        # 10^8-word codebook: oracle runs in split mode with the cap lifted
        rng = np.random.default_rng(5)
        from latcoset.channel import snr_to_sigma
        sigma_sq = snr_to_sigma(15.0, golden_map(), PAMAlphabet(10)).sigma_sq
        for _ in range(2):
            p, _ = random_problem(rng, golden_map(), 10, sigma_sq=sigma_sq)
            oracle = ml_decode_exhaustive(p, cap=10 ** 9)
            assert np.array_equal(sphere_decode(p), oracle)

    def test_tie_breaking_lexicographic(self):
        # midpoint of two symbols: both routes must pick the smaller word
        alphabet = PAMAlphabet(2)
        p = DecodingProblem(y=np.array([0.0, 0.0]), Heff=np.eye(2), alphabet=alphabet)
        expected = np.array([-1, -1])
        assert np.array_equal(ml_decode_exhaustive(p), expected)
        assert np.array_equal(sphere_decode(p), expected)

    def test_tie_breaking_partial(self):
        alphabet = PAMAlphabet(4)
        heff = np.diag([1.0, 0.5])
        y = np.array([2.0, 1.0])  # first coordinate midway between 1 and 3
        expected = ml_decode_exhaustive(
            DecodingProblem(y=y, Heff=heff, alphabet=alphabet))
        got = sphere_decode(DecodingProblem(y=y, Heff=heff, alphabet=alphabet))
        assert np.array_equal(got, expected)
        assert expected.tolist() == [1, 1]

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        p, _ = random_problem(rng, alamouti_map(), 4)
        base = sphere_decode(p)
        scaled = DecodingProblem(y=7.5 * p.y, Heff=7.5 * p.Heff, alphabet=p.alphabet)
        assert np.array_equal(sphere_decode(scaled), base)

    def test_fewer_rows_than_coefficients_is_rank_deficient(self):
        with pytest.raises(RankDeficientChannel):
            sphere_decode(DecodingProblem(y=np.zeros(4), Heff=np.ones((4, 8)),
                                          alphabet=PAMAlphabet(4)))

    def test_rank_deficiency_detected(self):
        heff = np.zeros((8, 4))
        heff[:, :3] = np.random.default_rng(7).standard_normal((8, 3))
        with pytest.raises(RankDeficientChannel):
            sphere_decode(DecodingProblem(y=np.zeros(8), Heff=heff,
                                          alphabet=PAMAlphabet(4)))

    def test_a_budget_of_one_node_sends_every_trial_to_the_exhaustive_kernel(self, monkeypatch):
        rng = np.random.default_rng(9)
        heff, y = golden_trials(rng, 40, 0.0)
        want = exhaustive_words(heff, y, 4)
        fallen = []
        monkeypatch.setattr(decoder, "_NODE_BUDGET", 1)
        monkeypatch.setattr(decoder, "exhaustive_words",
                            lambda h, v, m: fallen.append(len(h)) or exhaustive_words(h, v, m))
        assert np.array_equal(sphere_words(heff, y, 4), want)
        assert fallen == [40]

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            DecodingProblem(y=np.zeros(7), Heff=np.eye(8), alphabet=PAMAlphabet(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["y", "Heff"])
    def test_non_finite_problems_are_refused(self, bad, where):
        y, heff = np.zeros(4), np.eye(4)
        (y if where == "y" else heff)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            DecodingProblem(y=y, Heff=heff, alphabet=PAMAlphabet(2))
