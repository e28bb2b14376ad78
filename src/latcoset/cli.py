"""Command-line frontend: analyze | simulate | bound | search.

Every command is a deterministic function of its configuration and seed;
CSV outputs carry a version comment line and stable schemas:

  analyze   name,index,wr,lambda1_sq,r,r_i,r_c
  simulate  snr_db,ecdp,trials,ci_low,ci_high     (cer for --metric cer)
  bound     name,sigma_e_sq,exponent_mode,bound,truncation_r_sq,points_used
  search    lattice JSON ({"k": ..., "basis": [...]}) plus a report line

Exit codes: 0 ok, 2 configuration error, 3 lattice-containment failure,
4 enumeration capacity exceeded, 1 search found no feasible candidate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


from . import __version__
from .catalog import NAMES, builtin_sublattice, canonical_name
from .errors import (CapacityError, CodebookTooLarge, NoFeasibleCandidate,
                     NotASublattice, SingularMatrix)
from .lattice import IntegerLattice
from .search import SearchConfig, search_wr_sublattice
from .stcode import PAMAlphabet, code_map_by_name
from .wiretap import (CosetCode, bob_cer_monte_carlo, design_report,
                      ecdp_bound_report, ecdp_monte_carlo)

_VERSION_LINE = f"# latcoset v{__version__}"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _parse_float_list(text: str) -> list[float]:
    """Comma list ("0,5,10") or inclusive range ("start:stop:step")."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 10))
            v += step
        return out
    return [float(p) for p in text.split(",") if p.strip()]


def _load_lattice(source: str) -> tuple[str, IntegerLattice]:
    if source.lower().endswith(".json"):
        path = Path(source)
        if not path.exists():
            raise ValueError(f"lattice file not found: {source}")
        return path.stem, IntegerLattice.from_json(path.read_text())
    return canonical_name(source), builtin_sublattice(source)


def _file_tag(name: str) -> str:
    return name.replace("'", "p").lower()


def _coset_code(args, name: str, lat: IntegerLattice) -> CosetCode:
    code_map = code_map_by_name(args.code)
    if lat.k != code_map.k:
        raise ValueError(f"lattice {name} has dimension {lat.k}, "
                         f"but code {args.code!r} needs k = {code_map.k}")
    return CosetCode(map=code_map, alphabet=PAMAlphabet(args.pam), sub=lat)


def _write_text(out, text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _curve_csv(curve, value_col: str) -> str:
    lines = [_VERSION_LINE, f"snr_db,{value_col},trials,ci_low,ci_high"]
    for p in curve.points:
        lines.append(",".join([_fmt(p.snr_db), _fmt(p.estimate), str(p.trials),
                               _fmt(p.ci_low), _fmt(p.ci_high)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    lines = [_VERSION_LINE, "name,index,wr,lambda1_sq,r,r_i,r_c"]
    for source in args.lattices:
        name, lat = _load_lattice(source)
        rep = design_report(_coset_code(args, name, lat))
        lines.append(",".join([name, str(rep.index), _fmt(rep.wr),
                               str(rep.lambda1_sq), _fmt(rep.rates.r),
                               _fmt(rep.rates.r_i), _fmt(rep.rates.r_c)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    snr = args.snr
    code_map = code_map_by_name(args.code)
    alphabet = PAMAlphabet(args.pam)

    outputs = []  # (lattice name, csv text)
    if args.metric == "cer":
        curve = bob_cer_monte_carlo(code_map, alphabet, snr, args.trials,
                                    args.seed, workers=args.workers,
                                    decoder=args.decoder, n_r=args.n_r)
        csv = _curve_csv(curve, "cer")
        names = [(_load_lattice(s)[0]) for s in args.lattices] if args.lattices else [None]
        for name in names:
            outputs.append((name, csv))
    else:
        if not args.lattices:
            raise ValueError("simulate --metric ecdp needs at least one lattice")
        for source in args.lattices:
            name, lat = _load_lattice(source)
            code = _coset_code(args, name, lat)
            curve = ecdp_monte_carlo(code, snr, args.trials, args.seed,
                                     workers=args.workers, decoder=args.decoder,
                                     n_r=args.n_r)
            outputs.append((name, _curve_csv(curve, "ecdp")))

    if args.out is None:
        for name, csv in outputs:
            if name is not None:
                sys.stdout.write(f"# lattice={name}\n")
            sys.stdout.write(csv)
        return 0
    out = Path(args.out)
    single_file = len(outputs) == 1 and out.suffix == ".csv"
    if single_file:
        out.write_text(outputs[0][1])
        return 0
    out.mkdir(parents=True, exist_ok=True)
    for name, csv in outputs:
        tag = _file_tag(name) if name else "all"
        fname = f"{args.metric}_{args.code}_{args.pam}pam_{tag}.csv"
        (out / fname).write_text(csv)
    return 0


def cmd_bound(args) -> int:
    if args.sigma_e_sq:
        sigmas = args.sigma_e_sq
    elif args.snr:
        from .channel import snr_to_sigma
        code_map = code_map_by_name(args.code)
        alphabet = PAMAlphabet(args.pam)
        sigmas = [snr_to_sigma(s, code_map, alphabet).sigma_sq for s in args.snr]
    else:
        raise ValueError("bound needs --sigma-e-sq or --snr")
    modes = ["pow2n", "pow2"] if args.exponent_mode == "both" else [args.exponent_mode]

    lines = [_VERSION_LINE,
             "name,sigma_e_sq,exponent_mode,bound,truncation_r_sq,points_used"]
    for source in args.lattices:
        name, lat = _load_lattice(source)
        code = _coset_code(args, name, lat)
        for sig in sigmas:
            for mode in modes:
                rep = ecdp_bound_report(code, sig, truncation_r_sq=args.truncation,
                                        n_r=args.n_r, exponent_mode=mode)
                lines.append(",".join([name, _fmt(rep.sigma_e_sq), mode,
                                       _fmt(rep.value), _fmt(rep.truncation_r_sq),
                                       str(rep.points_used)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_search(args) -> int:
    cfg = SearchConfig(k=args.k, target_index=args.index, budget=args.budget,
                       seed=args.seed, hill_climb=args.hill_climb)
    lat, report = search_wr_sublattice(cfg)
    report_json = json.dumps({
        "k": cfg.k, "target_index": cfg.target_index, "budget": cfg.budget,
        "seed": cfg.seed, "evaluated": report.evaluated,
        "feasible": report.feasible, "best_lambda1_sq": report.best_lambda1_sq,
        "well_rounded": report.best_is_wr,
    }, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(lat.to_json() + "\n")
        sys.stdout.write(report_json + "\n")
    else:
        sys.stdout.write(json.dumps({"report": json.loads(report_json),
                                     "lattice": json.loads(lat.to_json())},
                                    sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with flag defaults")
    p.add_argument("--out", help="output path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcoset",
        description="Lattice coset coding: analysis, simulation, bounds, search")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="design-report table per lattice")
    pa.add_argument("--code", choices=["alamouti", "golden"])
    pa.add_argument("--pam", type=int)
    pa.add_argument("--lattices", help=f"comma list of names ({', '.join(NAMES)}) "
                                       "or .json paths")
    _add_common(pa)

    ps = sub.add_parser("simulate", help="Monte-Carlo curves (CSV)")
    ps.add_argument("--code", choices=["alamouti", "golden"])
    ps.add_argument("--pam", type=int)
    ps.add_argument("--lattices")
    ps.add_argument("--snr", help="comma list or start:stop:step, in dB")
    ps.add_argument("--trials", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--workers", type=int)
    ps.add_argument("--metric", choices=["ecdp", "cer"])
    ps.add_argument("--decoder", choices=["auto", "sphere", "exhaustive"])
    ps.add_argument("--n-r", dest="n_r", type=int)
    _add_common(ps)

    pb = sub.add_parser("bound", help="eavesdropper-success bound (CSV)")
    pb.add_argument("--code", choices=["alamouti", "golden"])
    pb.add_argument("--pam", type=int)
    pb.add_argument("--lattices")
    pb.add_argument("--sigma-e-sq", dest="sigma_e_sq")
    pb.add_argument("--snr")
    pb.add_argument("--truncation", type=float)
    pb.add_argument("--exponent-mode", dest="exponent_mode",
                    choices=["pow2n", "pow2", "both"])
    pb.add_argument("--n-r", dest="n_r", type=int)
    _add_common(pb)

    pq = sub.add_parser("search", help="well-rounded sublattice search")
    pq.add_argument("--k", type=int)
    pq.add_argument("--index", type=int)
    pq.add_argument("--budget", type=int)
    pq.add_argument("--seed", type=int)
    pq.add_argument("--hill-climb", dest="hill_climb", action="store_const", const=True)
    _add_common(pq)

    return parser


_DEFAULTS = {
    "analyze": {"pam": 4},
    "simulate": {"pam": 4, "snr": "0:20:5", "trials": 1000, "seed": 0,
                 "workers": 1, "metric": "ecdp", "decoder": "auto", "n_r": 2},
    "bound": {"pam": 4, "exponent_mode": "both", "n_r": 2,
              "sigma_e_sq": None, "snr": None, "truncation": None},
    "search": {"budget": 10000, "seed": 0, "hill_climb": False},
}

_LIST_KEYS = {"lattices": str, "snr": float, "sigma_e_sq": float}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {args.config}")
        config = json.loads(path.read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        if "snr_db_list" in config:  # accepted alias for "snr"
            config.setdefault("snr", config.pop("snr_db_list"))
    merged = dict(vars(args))
    defaults = _DEFAULTS.get(args.command, {})
    for key, value in merged.items():
        if value is None:
            if key in config:
                merged[key] = config[key]
            elif key in defaults:
                merged[key] = defaults[key]
    # normalize list-valued fields that may arrive as strings
    if merged.get("lattices") is not None and isinstance(merged["lattices"], str):
        merged["lattices"] = [s.strip() for s in merged["lattices"].split(",") if s.strip()]
    if merged.get("snr") is not None and isinstance(merged["snr"], str):
        merged["snr"] = _parse_float_list(merged["snr"])
    if merged.get("sigma_e_sq") is not None and isinstance(merged["sigma_e_sq"], str):
        merged["sigma_e_sq"] = _parse_float_list(merged["sigma_e_sq"])
    return argparse.Namespace(**merged)


def _validate(args: argparse.Namespace):
    cmd = args.command
    if cmd in ("analyze", "simulate", "bound"):
        if not args.code:
            raise ValueError("--code is required")
        if args.pam is None or args.pam < 2 or args.pam % 2 != 0:
            raise ValueError("--pam must be an even integer >= 2")
        if cmd != "simulate" or args.metric != "cer":
            if not args.lattices:
                raise ValueError("--lattices is required")
    if cmd == "simulate":
        if args.trials is None or args.trials < 1:
            raise ValueError("--trials must be >= 1")
        if args.seed is None or args.seed < 0:
            raise ValueError("--seed must be a nonnegative integer")
        if args.workers is None or args.workers < 1:
            raise ValueError("--workers must be >= 1")
    if cmd == "search":
        if not args.k or args.k < 1:
            raise ValueError("--k must be >= 1")
        if args.index is None or args.index < 1:
            raise ValueError("--index must be >= 1")
        if args.budget is None or args.budget < 1:
            raise ValueError("--budget must be >= 1")
        if args.seed is None or args.seed < 0:
            raise ValueError("--seed must be a nonnegative integer")


_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate,
             "bound": cmd_bound, "search": cmd_search}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        _validate(args)
        return _COMMANDS[args.command](args)
    except NotASublattice as exc:
        print(f"latcoset: lattice containment error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"latcoset: {exc}\nhint: lower --truncation or split the sweep",
              file=sys.stderr)
        return 4
    except NoFeasibleCandidate as exc:
        rep = exc.report
        print(f"latcoset: {exc}", file=sys.stderr)
        if rep is not None:
            print(json.dumps({"feasible": rep.feasible, "evaluated": rep.evaluated,
                              "best_lambda1_sq": rep.best_lambda1_sq,
                              "well_rounded": rep.best_is_wr}, sort_keys=True))
        return 1
    except (ValueError, KeyError, SingularMatrix, CodebookTooLarge, OSError,
            json.JSONDecodeError) as exc:
        print(f"latcoset: configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
