"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8 and 9 stay red; each failure text gives the measured cause.

- Criterion 8 (L1 > L2 > L3 at disjoint CIs): the WR pair is ordered the
  other way below 0 dB (L2 < L3 with disjoint CIs at 1e6 trials).  The
  exact ECDP orders L2 > L3 from 0 dB up, by +1.8e-4, +8.3e-5 and +2.0e-5
  at 0, 2.5 and 5 dB; disjoint CIs at 0 dB need ~9e7 trials per curve.
- Criterion 9 (bound ordering at sigma_E^2 = 100): the Alamouti pow2
  clause holds once the truncation holds the sum; the Alamouti pow2n
  clause cannot hold at any truncation (equal-covolume sums agree to ~40
  digits); the golden partial sums at R = 64 follow the point counts and
  reorder with every R.

The ``test_supplementary_*`` tests pin the measured behavior next to them.
"""

import itertools
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from latcoset import (CosetCode, NoFeasibleCandidate, PAMAlphabet,
                      SearchConfig, alamouti_map, bob_cer_monte_carlo,
                      builtin_sublattice, design_report, ecdp_bound,
                      ecdp_bound_report, ecdp_monte_carlo, golden_map,
                      message_of, min_determinant, rates,
                      search_wr_sublattice)

TRIALS = 100_000
SCAN_SNRS = [-5.0, -2.5, 0.0, 2.5, 5.0]


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def coset(map_name, lattice_name, m):
    cm = alamouti_map() if map_name == "alamouti" else golden_map()
    return CosetCode(map=cm, alphabet=PAMAlphabet(m),
                     sub=builtin_sublattice(lattice_name))


def low_snr_floor(code):
    """Exact sigma -> infinity limit of the ECDP for an orthogonal code map.

    The ML decision tends to a uniformly drawn corner of the PAM box (see
    criterion 7), so the limit is the corners' mean coset multiplicity over
    the m^k words of the codebook, counted with ``message_of``.
    """
    syms = code.alphabet.symbols
    words = list(itertools.product(syms, repeat=code.map.k))
    multiplicity = Counter(message_of(code, w) for w in words)
    corners = list(itertools.product([syms[0], syms[-1]], repeat=code.map.k))
    hits = sum(multiplicity[message_of(code, c)] for c in corners)
    return Fraction(hits, len(corners) * len(words))


@pytest.fixture(scope="module")
def alamouti_scan():
    """Shared 1e5-trial ECDP scan of L1, L2, L3 over 0 +- 5 dB (criterion 8
    and the WR-separation supplement)."""
    out = {}
    for name in ["L1", "L2", "L3"]:
        out[name] = ecdp_monte_carlo(coset("alamouti", name, 4), SCAN_SNRS,
                                     TRIALS, seed=11).points
    return out


def test_criterion_01_k4_catalog():
    t0 = time.perf_counter()
    expected = {"L1": (32, False, 16), "L2": (32, True, 24),
                "L3": (32, True, 32), "L4": (256, True, 64),
                "L5": (256, True, 80)}
    got = {}
    for name in expected:
        rep = design_report(coset("alamouti", name, 4))
        got[name] = (rep.index, rep.wr, rep.lambda1_sq)
    rates_ok = True
    for name in ["L1", "L2", "L3"]:
        r = rates(coset("alamouti", name, 4))
        rates_ok &= (r.r, r.r_i, r.r_c) == (4.0, 2.5, 1.5)
        r8 = rates(coset("alamouti", name, 8))
        rates_ok &= (r8.r, r8.r_i, r8.r_c) == (6.0, 2.5, 3.5)
    for name in ["L4", "L5"]:
        r8 = rates(coset("alamouti", name, 8))
        rates_ok &= (r8.r, r8.r_i, r8.r_c) == (6.0, 4.0, 2.0)
    elapsed = time.perf_counter() - t0
    ok = got == expected and rates_ok and elapsed < 1.0
    assert report(1, ok, f"k=4 catalog diagnostics {got == expected}, rates {rates_ok}, "
                         f"runtime {elapsed:.2f}s < 1s")


def test_criterion_02_k8_index32_catalog():
    t0 = time.perf_counter()
    expected = {"L'1": (32, False, 4), "L'2": (32, True, 12),
                "L'3": (32, True, 16)}
    got = {name: None for name in expected}
    for name in expected:
        rep = design_report(coset("golden", name, 2))
        got[name] = (rep.index, rep.wr, rep.lambda1_sq)
    rates_ok = True
    for name in expected:
        for m, want in [(2, (4.0, 2.5, 1.5)), (4, (8.0, 2.5, 5.5)),
                        (8, (12.0, 2.5, 9.5))]:
            r = rates(coset("golden", name, m))
            rates_ok &= (round(r.r, 9), round(r.r_i, 9), round(r.r_c, 9)) == want
    elapsed = time.perf_counter() - t0
    ok = got == expected and rates_ok and elapsed < 5.0
    assert report(2, ok, f"k=8 index-32 diagnostics {got == expected}, rates {rates_ok}, "
                         f"runtime {elapsed:.2f}s < 5s")


def test_criterion_03_k8_mixed_index_catalog():
    # exact determinants agree with the catalog's nominal indices, so no
    # discrepancy needs reporting; lambda and WR come from enumeration
    expected_idx = {"M1": 64, "M2": 2 ** 14, "M3": 103996}
    expected_l1 = {"M1": 16, "M2": 64, "M3": 104}
    ok = True
    detail = []
    for name in expected_idx:
        rep = design_report(coset("golden", name, 4))
        ok &= rep.index == expected_idx[name]
        ok &= rep.wr is True
        ok &= rep.lambda1_sq == expected_l1[name]
        detail.append(f"{name}:(idx={rep.index},wr={rep.wr},l1={rep.lambda1_sq})")
    r1 = rates(coset("golden", "M1", 4))
    ok &= (r1.r, r1.r_i, r1.r_c) == (8.0, 3.0, 5.0)
    r2 = rates(coset("golden", "M2", 8))
    ok &= (r2.r, r2.r_i, r2.r_c) == (12.0, 7.0, 5.0)
    r3 = rates(coset("golden", "M3", 10))
    ok &= round(r3.r, 2) == 13.29 and round(r3.r_i, 2) == 8.33
    ok &= abs(r3.r_c - 4.96) <= 0.01  # nominal r_c subtracts the rounded r, r_i
    assert report(3, ok, "; ".join(detail) + f"; M3 rates ({r3.r:.4f}, "
                                             f"{r3.r_i:.4f}, {r3.r_c:.4f})")


def test_criterion_04_minimum_determinants():
    alam = min_determinant(alamouti_map(), 2)
    gold = min_determinant(golden_map(), 2)
    ok = abs(alam - 0.25) < 1e-12 and abs(gold - 0.2) <= 1e-9
    assert report(4, ok, f"alamouti {alam!r}, golden {gold!r}")


def test_criterion_05_orthonormality():
    dev_a = float(np.max(np.abs(alamouti_map().M.T @ alamouti_map().M - np.eye(4))))
    dev_g = float(np.max(np.abs(golden_map().M.T @ golden_map().M - np.eye(8))))
    ok = dev_a < 1e-12 and dev_g < 1e-12
    assert report(5, ok, f"max deviations {dev_a:.2e}, {dev_g:.2e}")


def test_criterion_06_decoder_oracle_equivalence():
    from latcoset import (ChannelParams, DecodingProblem, ml_decode_exhaustive,
                          realify, sample_channel, sphere_decode)
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    params = ChannelParams()

    def run_batch(code_map, m, count):
        alphabet = PAMAlphabet(m)
        agree = 0
        for _ in range(count):
            h = sample_channel(params, rng)
            heff = realify(h, code_map.T) @ code_map.M
            z = alphabet.symbols[rng.integers(0, m, code_map.k)]
            y = heff @ z + rng.standard_normal(heff.shape[0]) * np.sqrt(0.5)
            p = DecodingProblem(y=y, Heff=heff, alphabet=alphabet)
            if np.array_equal(sphere_decode(p), ml_decode_exhaustive(p)):
                agree += 1
        return agree

    alam = run_batch(alamouti_map(), 4, 10_000)
    gold = run_batch(golden_map(), 4, 100)
    elapsed = time.perf_counter() - t0
    ok = alam == 10_000 and gold == 100 and elapsed < 60.0
    assert report(6, ok, f"alamouti {alam}/10000, golden {gold}/100, "
                         f"runtime {elapsed:.1f}s < 60s")


def test_criterion_07_ecdp_limits():
    """ECDP tends to its random-guess floor at low SNR and to 1 at high SNR.

    The Monte Carlo draws a uniform *word* z (not a uniform coset) and counts
    a success when the ML decision lies in z's coset.  As sigma -> infinity,
    ||y - Heff z'||^2 = ||y||^2 - 2<Heff^T y, z'> + ||Heff z'||^2 is ruled by
    the linear term, so the decision tends to the corner word
    (m-1)*sign(Heff^T y).  For Alamouti Heff^T Heff = ||H||_F^2/2 * I, so
    Heff^T y is isotropic given H and all 2^k corners are equally likely,
    independently of z.  The floor is therefore the mean multiplicity of the
    corners' cosets divided by m^k (``low_snr_floor``).  It equals 1/index
    only when every coset appears equally often in the box: L1 and L3 (half
    lattices with Smith invariants (2,2,2,4)) hold each of their 32 cosets 8
    times, but L2 (invariants (1,1,2,16)) holds them 6, 8 or 10 times, and
    its corners' cosets average 8.5 words: 8.5/256 = 17/512.

    The excess over the floor shrinks like sqrt(SNR): at 1e5 trials it is
    still +0.014 (L1) and +0.009 (L3) at -20 dB under the pinned
    ``snr_to_sigma`` convention, against 3 half-widths of ~0.0035.  At
    -60 dB the extrapolated excess is below a tenth of a half-width.
    """
    t0 = time.perf_counter()
    code = coset("alamouti", "L2", 4)
    floor = low_snr_floor(code)
    curve = ecdp_monte_carlo(code, [-60.0, 40.0], TRIALS, seed=7)
    low, high = curve.points
    hw_low = (low.ci_high - low.ci_low) / 2
    hw_high = (high.ci_high - high.ci_low) / 2
    low_ok = abs(low.estimate - float(floor)) <= 3 * hw_low
    high_ok = abs(high.estimate - 1.0) <= 3 * hw_high
    elapsed = time.perf_counter() - t0
    ok = low_ok and high_ok and elapsed < 600.0
    assert report(
        7, ok,
        f"-60dB: {low.estimate:.5f} vs floor {floor}={float(floor):.6f} "
        f"within 3hw={3 * hw_low:.5f}: {low_ok}; "
        f"+40dB: {high.estimate:.5f} within {3 * hw_high:.5f} of 1: {high_ok}; "
        f"runtime {elapsed:.0f}s < 600s")


def test_criterion_08_wr_ordering(alamouti_scan):
    rows = []
    any_full_separation = False
    for i, snr in enumerate(SCAN_SNRS):
        p1, p2, p3 = (alamouti_scan[n][i] for n in ["L1", "L2", "L3"])
        sep12 = p1.ci_low > p2.ci_high
        sep23 = p2.ci_low > p3.ci_high
        any_full_separation |= (sep12 and sep23)
        rows.append(f"{snr}dB: L1={p1.estimate:.4f} L2={p2.estimate:.4f} "
                    f"L3={p3.estimate:.4f} sep(L1>L2)={sep12} sep(L2>L3)={sep23}")
    assert report(
        8, any_full_separation,
        "need one scanned point with L1>L2>L3 at disjoint CIs; " + "; ".join(rows)
        + " (at 1e6 trials, seed 123, the WR pair is ordered the other way "
          "below 0 dB with disjoint CIs: -10 dB L2 0.0503 < L3 0.0575, -5 dB "
          "L2 0.0934 < L3 0.0952. The exact ECDP (ROADMAP item 1) orders "
          "L2 > L3 only from 0 dB up: L2 - L3 is +1.8e-4, +8.3e-5 and "
          "+2.0e-5 at 0, 2.5 and 5 dB, and negative below 0 dB. Disjoint CIs "
          "at 0 dB need ~9e7 trials per curve, so the trial count against "
          "the gap, not the decoder or the catalog, keeps this red. The WR "
          "vs non-WR separation L1 > {L2, L3} is asserted in the supplement)")


def test_criterion_09_bound_orderings():
    """The bound orders L1 > L2 > L3 (and L'1 > L'2 > L'3) at sigma_E^2 = 100.

    Within each family all three sublattices have index 32, hence equal
    covolume, so the comparison is decided by the sum, not by density, and
    only once the truncation holds it.  Alamouti is evaluated at R = 1000
    (~1e4 points): at R = 200 the pow2 sum (gamma = 1/100) still misses ~7%
    and follows the point counts inside the ball (364, 404, 408); converged
    (R = 1000, 3000, 6000 agree) it reads 17.820 > 17.365 > 17.360.  The
    pow2n clause (gamma = 1e-4) cannot hold at any R: by Poisson summation
    over the dual lattice, equal-covolume sums agree to ~40 digits (the
    shortest dual vector of the three, L1's of length 1/8, gives a
    correction of order exp(-2*pi*(1/8)*sqrt(2/gamma)) ~ e^-111).  The golden partial sums at
    R = 64 follow the point counts and reorder with every R in 64..180.
    Measured with the cap raised, no enumeration reaches convergence: at
    R = 2048 L'1 takes 8.7e9 points in 344 s and its pow2 ``outer_share`` is
    still 0.175, and the pow2n ``outer_share`` stays ~0.93 through R = 1024
    (gamma R = 0.1, every term still ~1, points growing as R^4).  So both
    golden clauses stay at R = 64 and stay red.
    """
    partial = ("partial sum, follows the point count; reorders with every R; "
               "unconverged where measured: L'1 at R = 2048 takes 8.7e9 points "
               "(344 s) with pow2 outer_share still 0.175, and pow2n outer_share "
               "stays ~0.93 through R = 1024")
    causes = {
        ("alamouti", "pow2"): "converged sum",
        ("alamouti", "pow2n"): "equal-covolume sums agree to ~40 digits "
                               "(Poisson, dual correction ~e^-111); no "
                               "truncation can order them",
        ("golden", "pow2n"): partial,
        ("golden", "pow2"): partial,
    }
    rows = []
    ok = True
    for fam, names, trunc in [("alamouti", ["L1", "L2", "L3"], 1000.0),
                              ("golden", ["L'1", "L'2", "L'3"], 64.0)]:
        for mode in ["pow2n", "pow2"]:
            reps = [ecdp_bound_report(coset(fam, n, 4), 100.0,
                                      truncation_r_sq=trunc, exponent_mode=mode)
                    for n in names]
            vals = [r.value for r in reps]
            descending = vals[0] > vals[1] > vals[2]
            ok &= descending
            rows.append(f"{fam}/{mode} at R={trunc:g}: " +
                        " ".join(f"{v:.6g}" for v in vals) + " over " +
                        "/".join(str(r.points_used) for r in reps) +
                        f" points desc={descending} ({causes[fam, mode]})")
    assert report(9, ok, "; ".join(rows))


def test_criterion_10_reliability_invariance(tmp_path):
    # Bob's CER through the CLI is byte-identical across attached sublattices
    outs = []
    for tag, lat in [("a", "L1"), ("b", "L3")]:
        path = tmp_path / f"cer_{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "latcoset.cli", "simulate", "--code",
             "alamouti", "--pam", "4", "--metric", "cer", "--lattices", lat,
             "--snr", "0:20:10", "--trials", "4000", "--seed", "10",
             "--out", str(path)], capture_output=True)
        assert proc.returncode == 0
        outs.append(path.read_bytes())
    bitwise_equal = outs[0] == outs[1]

    # message error rate <= codeword error rate pathwise at every SNR
    snrs = [0.0, 10.0, 20.0]
    cer = bob_cer_monte_carlo(alamouti_map(), PAMAlphabet(4), snrs, 4000,
                              seed=10).points
    dominated = True
    for name in ["L1", "L2", "L3"]:
        ecdp = ecdp_monte_carlo(coset("alamouti", name, 4), snrs, 4000,
                                seed=10).points
        for pe, pc in zip(ecdp, cer):
            dominated &= (1 - pe.estimate) <= pc.estimate + 1e-12
    ok = bitwise_equal and dominated
    assert report(10, ok, f"CER bitwise-invariant across sublattices: "
                          f"{bitwise_equal}; MER <= CER at every SNR: {dominated}")


def test_criterion_11_search_parity():
    t0 = time.perf_counter()
    results = {}
    for n, floor in [(32, 24), (256, 64)]:
        wins = 0
        for seed in range(10):
            try:
                _, rep = search_wr_sublattice(
                    SearchConfig(k=4, target_index=n, budget=10_000, seed=seed))
                wins += rep.best_is_wr and rep.best_lambda1_sq >= floor
            except NoFeasibleCandidate:
                pass
        results[n] = wins
    elapsed = time.perf_counter() - t0
    ok = results[32] >= 9 and results[256] >= 9 and elapsed < 120.0
    assert report(11, ok, f"index 32: {results[32]}/10 reach 24; index 256: "
                          f"{results[256]}/10 reach 64; runtime {elapsed:.0f}s "
                          f"< 120s")


def test_criterion_12_determinism(tmp_path):
    def run(args, out_name):
        path = tmp_path / out_name
        proc = subprocess.run([sys.executable, "-m", "latcoset.cli"] + args +
                              ["--out", str(path)], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return path.read_bytes(), proc.stdout

    checks = {}
    analyze = ["analyze", "--code", "alamouti", "--pam", "4",
               "--lattices", "L1,L2,L3,L4,L5"]
    checks["analyze"] = run(analyze, "a1.csv")[0] == run(analyze, "a2.csv")[0]

    sim = ["simulate", "--code", "alamouti", "--pam", "4", "--lattices", "L2",
           "--snr", "0:10:5", "--trials", "2100", "--seed", "5"]
    s1 = run(sim + ["--workers", "1"], "s1.csv")[0]
    s2 = run(sim + ["--workers", "1"], "s2.csv")[0]
    s3 = run(sim + ["--workers", "3"], "s3.csv")[0]
    checks["simulate"] = s1 == s2 == s3

    bound = ["bound", "--code", "alamouti", "--pam", "4", "--lattices",
             "L1,L3", "--sigma-e-sq", "3,10,100"]
    checks["bound"] = run(bound, "b1.csv")[0] == run(bound, "b2.csv")[0]

    search = ["search", "--k", "4", "--index", "32", "--budget", "400",
              "--seed", "3"]
    r1 = run(search, "l1.json")
    r2 = run(search, "l2.json")
    checks["search"] = r1 == r2

    ok = all(checks.values())
    assert report(12, ok, ", ".join(f"{k}={v}" for k, v in checks.items()))


# ---------------------------------------------------------------------------
# supplements: the measured true behavior behind the red criteria
# ---------------------------------------------------------------------------

def test_supplementary_floor_convergence_deeper():
    """Criterion 7's low-SNR clause already holds 20 dB shallower: at -40 dB
    L2's estimate falls within 3 Wilson half-widths of its exact floor
    17/512 (``low_snr_floor``; not 1/32, since L2's cosets are not equally
    populated in the 4-PAM box)."""
    code = coset("alamouti", "L2", 4)
    floor = float(low_snr_floor(code))
    p = ecdp_monte_carlo(code, [-40.0], TRIALS, seed=7).points[0]
    hw = (p.ci_high - p.ci_low) / 2
    print(f"SUPPLEMENT (criterion 7): -40dB estimate {p.estimate:.5f}, "
          f"|est - {floor:.6f}| = {abs(p.estimate - floor):.5f} <= {3 * hw:.5f}")
    assert abs(p.estimate - floor) <= 3 * hw


def test_supplementary_low_snr_floor_exact():
    """The premises and values of criterion 7's floor: Alamouti's effective
    channel is orthogonal, Heff^T Heff = ||H||_F^2/2 * I, and the corner
    floor is 1/32 for the equally populated L1 and L3 but 17/512 for L2."""
    from latcoset import ChannelParams, realify, sample_channel
    rng = np.random.default_rng(0)
    cm = alamouti_map()
    for _ in range(10):
        h = sample_channel(ChannelParams(), rng).H
        heff = realify(h, cm.T) @ cm.M
        gain = np.linalg.norm(h) ** 2 / 2
        assert np.allclose(heff.T @ heff, gain * np.eye(cm.k), atol=1e-12)
    floors = {n: low_snr_floor(coset("alamouti", n, 4))
              for n in ["L1", "L2", "L3"]}
    assert floors == {"L1": Fraction(1, 32), "L2": Fraction(17, 512),
                      "L3": Fraction(1, 32)}


def test_supplementary_ecdp_floor_is_lower_bound(alamouti_scan):
    """Every estimate respects the 1/index lower bound (module invariant)."""
    for name, pts in alamouti_scan.items():
        for p in pts:
            hw = (p.ci_high - p.ci_low) / 2
            assert p.estimate >= 1 / 32 - 3 * hw


def test_supplementary_wr_vs_non_wr_separation(alamouti_scan):
    """Criterion 8's qualitative claim: the non-WR lattice L1 is strictly
    worse (higher ECDP) than both WR lattices, with disjoint 95% CIs, at
    every scanned point at or below 0 dB."""
    separated = []
    for i, snr in enumerate(SCAN_SNRS):
        if snr > 0:
            continue
        p1, p2, p3 = (alamouti_scan[n][i] for n in ["L1", "L2", "L3"])
        sep = p1.ci_low > p2.ci_high and p1.ci_low > p3.ci_high
        separated.append(sep)
        print(f"SUPPLEMENT (criterion 8): {snr}dB L1 {p1.estimate:.4f} vs "
              f"L2 {p2.estimate:.4f} / L3 {p3.estimate:.4f}, disjoint={sep}")
    assert all(separated)


def test_supplementary_bound_ordering_discriminative():
    """Criterion 9's ordering holds robustly once gamma*lambda_1^2 >~ 1."""
    settings = [("alamouti", ["L1", "L2", "L3"], 200.0, "pow2n", 3.0),
                ("alamouti", ["L1", "L2", "L3"], 200.0, "pow2", 10.0),
                ("golden", ["L'1", "L'2", "L'3"], 64.0, "pow2n", 2.0),
                ("golden", ["L'1", "L'2", "L'3"], 64.0, "pow2", 4.0)]
    for fam, names, trunc, mode, sigma in settings:
        vals = [ecdp_bound(coset(fam, n, 4), sigma, truncation_r_sq=trunc,
                           exponent_mode=mode) for n in names]
        print(f"SUPPLEMENT (criterion 9): {fam}/{mode} at sigma_e_sq={sigma}: "
              + " ".join(f"{v:.4g}" for v in vals))
        assert vals[0] > vals[1] > vals[2]


def test_supplementary_bound_golden_partial_sums():
    """Criterion 9's golden cause, measured: at sigma_E^2 = 100 (pow2) and
    R = 64 most of each golden sum comes from the outer shell
    32 < ||x||^2 <= 64 (``outer_share`` 0.881 / 0.844 / 0.826), so the sum is
    far from converged; the Alamouti sums at R = 1000 take 0.3% or less from
    their outer shell."""
    for fam, names, trunc, converged in [
            ("golden", ["L'1", "L'2", "L'3"], 64.0, False),
            ("alamouti", ["L1", "L2", "L3"], 1000.0, True)]:
        shares = [ecdp_bound_report(coset(fam, n, 4), 100.0, truncation_r_sq=trunc,
                                    exponent_mode="pow2").outer_share for n in names]
        print(f"SUPPLEMENT (criterion 9): {fam}/pow2 at R={trunc:g}: outer_share "
              + " ".join(f"{s:.3f}" for s in shares))
        assert all(s < 0.01 for s in shares) if converged else all(s > 0.8 for s in shares)
