"""Per-layer probes: each op's job replayed through latcoset's public API.

For every traced op the benchmark records, under the op's span:

* ``cli.main`` -- the CLI invocation itself;
* ``api`` -- the same job through the public call the CLI makes
  (``ecdp_monte_carlo``, ``search_wr_sublattice``, ``design_report``,
  ``ecdp_bound_report``), so ``cli.overhead_ms`` is the difference;
* probe steps on the op's own inputs, one child span per public call:

  - trial probe: ``sample_channel`` + ``transmit``, ``realify``,
    ``ml_decode_exhaustive`` or ``sphere_decode``, then ``message_of``
  - candidate probe: ``random_sublattice_with_index``, ``IntegerLattice``,
    ``enumerate_shorter_than`` at the Minkowski radius; then
    ``is_well_rounded`` on the lattice the search returned
  - analyze probe: ``index_in_superlattice``, ``successive_minima``,
    ``smith_normal_form``, ``first_coding_gain`` (``design_report`` is the api)
  - bound probe: ``enumerate_shorter_than`` on ``RealLattice(M B)``
    (``ecdp_bound_report`` is the api)

Only names in ``latcoset.__all__`` are used, so private helpers may change
freely underneath.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from latcoset import (ChannelParams, CosetCode, DecodingProblem, IntegerLattice,
                      NoFeasibleCandidate, PAMAlphabet, RankDeficientChannel,
                      RealLattice, SearchConfig, builtin_sublattice,
                      code_map_by_name, design_report, ecdp_bound_report,
                      ecdp_monte_carlo, enumerate_shorter_than,
                      first_coding_gain, index_in_superlattice, is_well_rounded,
                      message_of, ml_decode_exhaustive, random_sublattice_with_index,
                      realify, sample_channel, search_wr_sublattice,
                      smith_normal_form, snr_to_sigma, sphere_decode,
                      successive_minima, transmit, vectorize)

from stats import scaling_eff
from workloads import (ALAMOUTI, ANALYZE, BOUND_LATTICES, BOUND_MODES,
                       BOUND_TRUNCATION, GOLDEN, SEARCH_FLOOR, WORKLOADS)

SPECS = {"alamouti": ALAMOUTI, "golden": GOLDEN}
PAM = 4

#: probe sizes per traced op
TRIALS_PER_OP = {"alamouti": 30, "golden": 20}
CANDIDATES_PER_OP = 20

#: probe groups each workload exercises; the others run once as "aux"
OWNED = {"ecdp-alamouti": ("alamouti",), "ecdp-golden": ("golden",),
         "search-wr": ("search",), "analyze-bound": ("analyze", "bound")}


def arg(op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def _code(code_name: str, lattice: str) -> CosetCode:
    return CosetCode(map=code_map_by_name(code_name), alphabet=PAMAlphabet(PAM),
                     sub=builtin_sublattice(lattice))


# ---------------------------------------------------------------------------
# api replays (the job the CLI op runs)
# ---------------------------------------------------------------------------

def api(tr, op):
    """The op's job through the public call the CLI makes, under an ``api`` span.

    Returns the searched lattice for a search op, else None.
    """
    with tr.span("api"):
        if op.command == "simulate":
            spec = SPECS[arg(op, "--code")]
            trials, seed = int(arg(op, "--trials")), int(arg(op, "--seed"))
            for lattice in spec["lattices"]:
                code = _code(spec["code"], lattice)
                with tr.span("wiretap.ecdp", trials=trials * len(spec["snr_points"])):
                    ecdp_monte_carlo(code, list(spec["snr_points"]), trials, seed,
                                     workers=spec["workers"])
        elif op.command == "search":
            return _api_search(tr, op)
        elif op.command == "analyze":
            for lattice in ANALYZE[arg(op, "--code")]:
                code = _code(arg(op, "--code"), lattice)
                with tr.span("wiretap.design_report"):
                    design_report(code)
        else:
            sigma = float(arg(op, "--sigma-e-sq"))
            for lattice in BOUND_LATTICES:
                code = _code("golden", lattice)
                for mode in BOUND_MODES:
                    with tr.span("wiretap.bound") as c:
                        rep = ecdp_bound_report(code, sigma, float(BOUND_TRUNCATION),
                                                exponent_mode=mode)
                        c["points"] = rep.points_used


def _api_search(tr, op) -> IntegerLattice:
    cfg = SearchConfig(k=int(arg(op, "--k")), target_index=int(arg(op, "--index")),
                       budget=int(arg(op, "--budget")), seed=int(arg(op, "--seed")),
                       hill_climb="--hill-climb" in op.argv)
    with tr.span("search.run", hill_climb=cfg.hill_climb, budget=cfg.budget) as c:
        try:
            lat, rep = search_wr_sublattice(cfg)
        except NoFeasibleCandidate as exc:
            lat, rep = exc.best, exc.report
    c.update(feasible=rep.feasible, evaluated=rep.evaluated,
             solved=rep.best_is_wr and rep.best_lambda1_sq >= SEARCH_FLOOR)
    return lat


# ---------------------------------------------------------------------------
# probes (the op's inner steps, one public call per span)
# ---------------------------------------------------------------------------

def probe(tr, op, searched=None):
    """The op's inner steps; ``searched`` is what :func:`api` returned for a search op."""
    if op.command == "simulate":
        spec = SPECS[arg(op, "--code")]
        _trial_probe(tr, spec, int(arg(op, "--seed")), TRIALS_PER_OP[spec["code"]])
    elif op.command == "search":
        _candidate_probe(tr, int(arg(op, "--k")), int(arg(op, "--index")),
                         int(arg(op, "--seed")))
        # the search's result, not each candidate: on skewed random candidates
        # successive minima can take seconds, which the search itself never pays
        with tr.span("lattice.is_wr"):
            is_well_rounded(searched)
    elif op.command == "analyze":
        _analyze_probe(tr, arg(op, "--code"))
    else:
        _bound_probe(tr)


def _trial_probe(tr, spec: dict, seed: int, n_trials: int):
    """Per-trial steps; alamouti decodes exhaustively, golden with the sphere decoder."""
    golden = spec["code"] == "golden"
    tag = ".golden4" if golden else ""
    rng = np.random.default_rng([seed, n_trials])
    codes = [_code(spec["code"], lat) for lat in spec["lattices"]]
    params = ChannelParams(n_r=2)
    for i in range(n_trials):
        code = codes[i % len(codes)]
        snr = spec["snr_points"][i % len(spec["snr_points"])]
        alphabet = code.alphabet
        noise = snr_to_sigma(snr, code.map, alphabet)
        with tr.span("channel.draw" + tag):
            z = alphabet.symbols[rng.integers(0, alphabet.m, size=code.map.k)]
            channel = sample_channel(params, rng)
            y_c = transmit(channel, code.map.codeword(z), noise, rng)
        with tr.span("channel.realify" + tag):
            heff = realify(channel, code.map.T) @ code.map.M
            y = vectorize(y_c)
        problem = DecodingProblem(y=y, Heff=heff, alphabet=alphabet)
        if golden:
            with tr.span(f"decoder.sphere.{snr:g}db"):
                try:
                    zhat = sphere_decode(problem)
                except RankDeficientChannel:
                    continue  # measure-zero event; the trial is dropped
        else:
            with tr.span("decoder.exhaustive"):
                zhat = ml_decode_exhaustive(problem)
        with tr.span("wiretap.label" + tag, calls=2) as c:
            c["same_coset"] = message_of(code, zhat) == message_of(code, z)


def minkowski_radius_sq(k: int, det: int) -> int:
    """Squared radius that Minkowski's first theorem guarantees holds a shortest vector."""
    bound = (4.0 / math.pi) * math.gamma(k / 2.0 + 1.0) ** (2.0 / k) * float(det) ** (2.0 / k)
    return int(math.ceil(bound))


def _candidate_probe(tr, k: int, index: int, seed: int):
    rng = np.random.default_rng([seed, CANDIDATES_PER_OP])
    for _ in range(CANDIDATES_PER_OP):
        with tr.span("search.sample"):
            lat = random_sublattice_with_index(k, index, rng)
        with tr.span("lattice.construct"):
            lat = IntegerLattice(lat.B)
        r_sq = minkowski_radius_sq(k, abs(lat.det))
        with tr.span("lattice.enum_small") as c:
            c["points"] = len(enumerate_shorter_than(lat, r_sq))


def _analyze_probe(tr, code_name: str):
    code_map = code_map_by_name(code_name)
    for lattice in ANALYZE[code_name]:
        sub = builtin_sublattice(lattice)
        two_zk = IntegerLattice(2 * np.eye(sub.k, dtype=np.int64))
        with tr.span("lattice.index"):
            index_in_superlattice(sub, two_zk)
        with tr.span("lattice.minima"):
            successive_minima(sub)
        with tr.span("lattice.snf"):
            smith_normal_form(sub.B)
        with tr.span("stcode.coding_gain"):
            first_coding_gain(code_map, sub)


def _bound_probe(tr):
    code_map = code_map_by_name("golden")
    for lattice in BOUND_LATTICES:
        sub = builtin_sublattice(lattice)
        real = RealLattice(code_map.M @ sub.B.astype(float))
        with tr.span("lattice.enum_large") as c:
            c["points"] = len(enumerate_shorter_than(real, float(BOUND_TRUNCATION)))


# ---------------------------------------------------------------------------
# aux probes and calibrations (once per traced run)
# ---------------------------------------------------------------------------

def _first_ops(workload: str, seed: int, pred, n: int):
    """The first n ops of a workload's stream that match pred."""
    ops = WORKLOADS[workload].ops(seed)
    out = []
    for op in ops:
        if pred(op):
            out.append(op)
            if len(out) == n:
                return out


def aux(tr, workload: str, seed: int):
    """Probe groups the workload does not exercise, on their owners' inputs."""
    owned = OWNED[workload]
    with tr.span("aux"):
        for group, source in (("alamouti", "ecdp-alamouti"), ("golden", "ecdp-golden")):
            if group not in owned:
                op, = _first_ops(source, seed, lambda o: True, 1)
                probe(tr, op)
        if "search" not in owned:
            for hill in (False, True):
                for op in _first_ops("search-wr", seed,
                                     lambda o: ("--hill-climb" in o.argv) == hill, 2):
                    probe(tr, op, api(tr, op))
        if "analyze" not in owned:
            for op in _first_ops("analyze-bound", seed, lambda o: o.command != "bound", 2):
                api(tr, op)
                probe(tr, op)
        if "bound" not in owned:
            op, = _first_ops("analyze-bound", seed, lambda o: o.command == "bound", 1)
            api(tr, op)
            probe(tr, op)


#: forced-decoder Monte-Carlo runs: (code, lattice, snr, decoder, trials)
CALIBRATIONS = {
    "alamouti4.exhaustive": ("alamouti", "L2", 0.0, "exhaustive", 1024),
    "alamouti4.sphere": ("alamouti", "L2", 0.0, "sphere", 256),
    "golden4.sphere.0db": ("golden", "L'2", 0.0, "sphere", 128),
    "golden4.sphere.20db": ("golden", "L'2", 20.0, "sphere", 256),
    "golden4.exhaustive": ("golden", "L'2", 0.0, "exhaustive", 32),
}
POOL_TRIALS = 256


def calibrate(tr, seed: int):
    """Per-trial cost of each decoder strategy, and the pool's scaling on a golden op."""
    with tr.span("calibrate"):
        for name, (code_name, lattice, snr, decoder, trials) in CALIBRATIONS.items():
            code = _code(code_name, lattice)
            ecdp_monte_carlo(code, [snr], 1, seed, decoder=decoder)  # fill caches
            with tr.span("wiretap.trial." + name, trials=trials):
                ecdp_monte_carlo(code, [snr], trials, seed, decoder=decoder)
        code = _code("golden", GOLDEN["lattices"][0])
        for workers in (1, GOLDEN["workers"]):
            with tr.span(f"wiretap.pool.w{workers}", workers=workers):
                ecdp_monte_carlo(code, list(GOLDEN["snr_points"]), POOL_TRIALS, seed,
                                 workers=workers)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def _select(spans, name):
    return [s for s in spans if s["name"] == name]


def _us_per(spans, name, count_key=None):
    sel = _select(spans, name)
    n = sum(s["counts"][count_key] for s in sel) if count_key else len(sel)
    return 1e6 * sum(s["self"] for s in sel) / n


def _search_candidate_us(spans):
    runs = _select(spans, "search.run")
    plain = [s for s in runs if not s["counts"]["hill_climb"]]
    climbs = [s for s in runs if s["counts"]["hill_climb"]]
    restart_us = 1e6 * sum(s["dur"] for s in plain) / sum(s["counts"]["budget"] for s in plain)
    # a hill-climb search spends ceil(budget/2) candidates on restarts first
    climb_time = sum(s["dur"] - 1e-6 * restart_us * ((s["counts"]["budget"] + 1) // 2)
                     for s in climbs)
    climb_steps = sum(s["counts"]["budget"] // 2 for s in climbs)
    return restart_us, 1e6 * climb_time / climb_steps


def _ratio(spans, name, num, den):
    sel = _select(spans, name)
    return sum(s["counts"][num] for s in sel) / sum(s["counts"][den] for s in sel)


def layer_metrics(spans, untraced_throughput: float, traced_throughput: float):
    """Every per-layer metric as {name: (value, unit)}, plus the bases of the ratios."""
    restart_us, climb_us = _search_candidate_us(spans)
    runs = _select(spans, "search.run")
    pool = {w: _select(spans, f"wiretap.pool.w{w}")[0]["dur"] for w in (1, GOLDEN["workers"])}
    small = _select(spans, "lattice.enum_small")
    large = _select(spans, "lattice.enum_large")
    bounds = _select(spans, "wiretap.bound")
    m = {
        "channel.draw.us_per_trial": (_us_per(spans, "channel.draw"), "us"),
        "channel.realify.us_per_trial": (_us_per(spans, "channel.realify"), "us"),
        "decoder.exhaustive.us_per_call": (_us_per(spans, "decoder.exhaustive"), "us"),
        "decoder.sphere.us_per_call.0db": (_us_per(spans, "decoder.sphere.0db"), "us"),
        "decoder.sphere.us_per_call.20db": (_us_per(spans, "decoder.sphere.20db"), "us"),
        "wiretap.label.us_per_call": (_us_per(spans, "wiretap.label", "calls"), "us"),
        "wiretap.pool.scaling_eff": (
            scaling_eff(pool[1], pool[GOLDEN["workers"]], GOLDEN["workers"]), "ratio"),
        "search.sample.us_per_call": (_us_per(spans, "search.sample"), "us"),
        "search.candidate_us.restart": (restart_us, "us"),
        "search.candidate_us.hill_climb": (climb_us, "us"),
        "search.feasible_ratio": (_ratio(spans, "search.run", "feasible", "evaluated"), "ratio"),
        "search.solved_ratio": (sum(s["counts"]["solved"] for s in runs) / len(runs), "ratio"),
        "lattice.construct.us_per_call": (_us_per(spans, "lattice.construct"), "us"),
        "lattice.enum_small.us_per_call": (_us_per(spans, "lattice.enum_small"), "us"),
        "lattice.enum_small.points_per_call": (
            sum(s["counts"]["points"] for s in small) / len(small), "count"),
        "lattice.is_wr.us_per_call": (_us_per(spans, "lattice.is_wr"), "us"),
        "lattice.enum_large.points_per_s": (
            sum(s["counts"]["points"] for s in large) / sum(s["self"] for s in large), "1/s"),
        "wiretap.bound.us_per_call": (_us_per(spans, "wiretap.bound"), "us"),
        "wiretap.bound.points": (
            sum(s["counts"]["points"] for s in bounds) / len(bounds), "count"),
        "lattice.minima.us_per_call": (_us_per(spans, "lattice.minima"), "us"),
        "lattice.snf.us_per_call": (_us_per(spans, "lattice.snf"), "us"),
        "lattice.index.us_per_call": (_us_per(spans, "lattice.index"), "us"),
        "stcode.coding_gain.us_per_call": (_us_per(spans, "stcode.coding_gain"), "us"),
        "wiretap.design_report.us_per_call": (_us_per(spans, "wiretap.design_report"), "us"),
    }
    for name in CALIBRATIONS:
        m["wiretap.trial_us." + name] = (_us_per(spans, "wiretap.trial." + name, "trials"), "us")

    # cli.main minus the api replay of the same job, per traced op
    by_op = {}
    for s in spans:
        if s["name"] in ("cli.main", "api") and s["op"] is not None:
            by_op.setdefault(s["op"], {})[s["name"]] = s["dur"]
    m["cli.overhead_ms"] = (1e3 * statistics.median(
        d["cli.main"] - d["api"] for d in by_op.values()), "ms")
    m["trace.overhead_ratio"] = (untraced_throughput / traced_throughput, "ratio")

    bases = {
        "search.feasible_ratio": {"feasible": sum(s["counts"]["feasible"] for s in runs),
                                  "evaluated": sum(s["counts"]["evaluated"] for s in runs)},
        "search.solved_ratio": {"solved": sum(s["counts"]["solved"] for s in runs),
                                "searches": len(runs)},
        "wiretap.pool.scaling_eff": {"serial_s": pool[1],
                                     "pool_s": pool[GOLDEN["workers"]],
                                     "workers": GOLDEN["workers"],
                                     "trials": POOL_TRIALS * len(GOLDEN["snr_points"])},
        "cli.overhead_ms": {"ops": len(by_op)},
        "trace.overhead_ratio": {"untraced_units_per_s": untraced_throughput,
                                 "traced_units_per_s": traced_throughput},
    }
    return m, bases
