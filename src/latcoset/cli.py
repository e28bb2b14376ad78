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
import math
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__
from .catalog import NAMES, builtin_sublattice, canonical_name
from .errors import (CapacityError, CodebookTooLarge, NoFeasibleCandidate,
                     NotASublattice, SingularMatrix)
from .lattice import IntegerLattice
from .search import SearchConfig, search_wr_sublattice
from .stcode import PAMAlphabet, code_map_by_name
from .wiretap import CosetCode, design_reports, ecdp_bound_reports, simulate_curves

_VERSION_LINE = f"# latcoset v{__version__}"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return repr(x)
    return str(x)


#: most values one start:stop:step range may list
_RANGE_POINTS = 10 ** 6


def _parse_float_list(text: str) -> list[float]:
    """Comma list ("0,5,10") or inclusive range ("start:stop:step").

    A range lists start + i step, each rounded to 10 decimals, for i = 0, 1,
    ... while the value is at most stop + 1e-9.  A step that does not move
    the start, and a range of more than ``_RANGE_POINTS`` values, raise
    ValueError.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range must be start:stop:step")
        start, stop, step = _finite([float(p) for p in parts])
        if step <= 0:
            raise ValueError("range step must be positive")
        if start + step == start:
            raise ValueError(f"range step {step!r} does not advance its start {start!r}")
        end = stop + 1e-9
        span = (end - start) / step  # inf where the range passes the float range
        if not span < _RANGE_POINTS:
            raise ValueError(f"range lists more than {_RANGE_POINTS} values")
        n = max(0, math.floor(span) + 1)
        # the division can round across a value either way
        while n and start + (n - 1) * step > end:
            n -= 1
        while start + n * step <= end:
            n += 1
        return [round(start + i * step, 10) for i in range(n)]
    return _finite([float(p) for p in text.split(",") if p.strip()])


def _is_finite(value) -> bool:
    """True for an int or float (not a bool) that is a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite(values: list) -> list:
    if not all(_is_finite(v) for v in values):
        raise ValueError(f"expected finite numbers, got {values!r}")
    return values


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
    named = []
    try:
        for source in args.lattices:
            name, lat = _load_lattice(source)
            named.append((name, _coset_code(args, name, lat)))
    finally:  # the lattices before one that fails to load report their errors first
        reports = design_reports([code for _, code in named])
    for (name, _), rep in zip(named, reports):
        lines.append(",".join([name, str(rep.index), _fmt(rep.wr),
                               str(rep.lambda1_sq), _fmt(rep.rates.r),
                               _fmt(rep.rates.r_i), _fmt(rep.rates.r_c)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    code_map = code_map_by_name(args.code)
    loaded = [_load_lattice(s) for s in args.lattices or []]
    codes = ([] if args.metric == "cer"
             else [_coset_code(args, name, lat) for name, lat in loaded])
    # one curve per lattice (one CER curve without lattices), and its file in
    # an output directory
    names = [name for name, _ in loaded] or [None]
    fnames = [f"{args.metric}_{args.code}_{args.pam}pam_{_file_tag(n) if n else 'all'}.csv"
              for n in names]
    out = None if args.out is None else Path(args.out)
    single_file = out is not None and len(names) == 1 and out.suffix == ".csv"
    if out is not None and not single_file and len(set(fnames)) < len(fnames):
        clash = next(f for f in fnames if fnames.count(f) > 1)
        raise ValueError(f"two --lattices would write one file, {out / clash}")
    cer, ecdps = simulate_curves(code_map, PAMAlphabet(args.pam), codes, args.snr,
                                 args.trials, args.seed, workers=args.workers,
                                 decoder=args.decoder, n_r=args.n_r)
    if args.metric == "cer":
        csvs = [_curve_csv(cer, "cer")] * len(names)
    else:
        csvs = [_curve_csv(curve, "ecdp") for curve in ecdps]

    if out is None:
        for name, csv in zip(names, csvs):
            if name is not None:
                sys.stdout.write(f"# lattice={name}\n")
            sys.stdout.write(csv)
    elif single_file:
        out.write_text(csvs[0])
    else:
        out.mkdir(parents=True, exist_ok=True)
        for fname, csv in zip(fnames, csvs):
            (out / fname).write_text(csv)
    return 0


def cmd_bound(args) -> int:
    if args.sigma_e_sq is not None:
        sigmas = args.sigma_e_sq
    else:
        from .channel import snr_to_sigma
        code_map = code_map_by_name(args.code)
        alphabet = PAMAlphabet(args.pam)
        sigmas = [snr_to_sigma(s, code_map, alphabet).sigma_sq for s in args.snr]
    modes = ["pow2n", "pow2"] if args.exponent_mode == "both" else [args.exponent_mode]

    lines = [_VERSION_LINE,
             "name,sigma_e_sq,exponent_mode,bound,truncation_r_sq,points_used"]
    for source in args.lattices:
        name, lat = _load_lattice(source)
        for rep in ecdp_bound_reports(_coset_code(args, name, lat), sigmas, modes,
                                      args.truncation, args.n_r):
            lines.append(",".join([name, _fmt(rep.sigma_e_sq), rep.exponent_mode,
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


@lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each command's flag actions by destination."""
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

    flags = {name: {a.dest: a for a in p._actions} for name, p in sub.choices.items()}
    return parser, flags


_DEFAULTS = {
    "analyze": {"pam": 4},
    "simulate": {"pam": 4, "snr": "0:20:5", "trials": 1000, "seed": 0,
                 "workers": 1, "metric": "ecdp", "decoder": "auto", "n_r": 2},
    "bound": {"pam": 4, "exponent_mode": "both", "n_r": 2,
              "sigma_e_sq": None, "snr": None, "truncation": None},
    "search": {"budget": 10000, "seed": 0, "hill_climb": False},
}


#: string flags whose config value may also be a JSON list
_LIST_FLAGS = ("lattices", "snr", "sigma_e_sq")


def _config_value(action: argparse.Action, value):
    """``value`` from a config file, if it has the type ``action``'s flag parses to."""
    if action.choices is not None:
        ok, what = value in action.choices, f"one of {', '.join(action.choices)}"
    elif action.const is not None:  # a store_const switch
        ok, what = type(value) is bool, "a boolean"
    elif action.type is int:
        ok, what = type(value) is int, "an integer"
    elif action.type is float:
        ok, what = _is_finite(value), "a finite number"
    elif action.dest in _LIST_FLAGS:
        ok, what = isinstance(value, (str, list)), "a string or a list"
    else:
        ok, what = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"config value {action.dest!r} must be {what}, not {value!r}")
    return value


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
    flags = _build_parser()[1][args.command]
    for key, value in merged.items():
        if value is None:
            if key in config:
                merged[key] = _config_value(flags[key], config[key])
            elif key in defaults:
                merged[key] = defaults[key]
    # normalize list-valued fields that may arrive as strings
    lattices = merged.get("lattices")
    if isinstance(lattices, str):
        merged["lattices"] = [s.strip() for s in lattices.split(",") if s.strip()]
    elif lattices is not None and not all(isinstance(s, str) for s in lattices):
        raise ValueError(f"lattices must be names or paths, not {lattices!r}")
    for key in ("snr", "sigma_e_sq"):
        value = merged.get(key)
        if value is not None:
            merged[key] = _parse_float_list(value) if isinstance(value, str) else _finite(value)
            if not merged[key]:
                raise ValueError(f"--{key.replace('_', '-')} lists no value: {value!r}")
    return argparse.Namespace(**merged)


def _validate(args: argparse.Namespace):
    """Checks no library call makes: --code, --lattices, one noise flag, a finite --truncation."""
    cmd = args.command
    if cmd in ("analyze", "simulate", "bound"):
        if not args.code:
            raise ValueError("--code is required")
        if not args.lattices and (cmd != "simulate" or args.metric != "cer"):
            raise ValueError("--lattices is required")
    if cmd == "bound":
        if (args.sigma_e_sq is None) == (args.snr is None):
            raise ValueError("bound needs exactly one of --sigma-e-sq and --snr")
        if args.truncation is not None and not _is_finite(args.truncation):
            raise ValueError(f"--truncation must be finite, not {args.truncation!r}")


#: the input to change when a command's enumeration or int64 arithmetic runs out
_CAPACITY_HINTS = {"analyze": "analyze lattices with smaller bases (--lattices)",
                   "bound": "lower --truncation",
                   "search": "lower --index"}

_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate,
             "bound": cmd_bound, "search": cmd_search}


def main(argv=None) -> int:
    args = _build_parser()[0].parse_args(argv)
    try:
        args = _merge_config(args)
        _validate(args)
        return _COMMANDS[args.command](args)
    except NotASublattice as exc:
        print(f"latcoset: lattice containment error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        hint = _CAPACITY_HINTS.get(args.command)
        print(f"latcoset: {exc}" + (f"\nhint: {hint}" if hint else ""), file=sys.stderr)
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
