"""Tests of the benchmark's own arithmetic and rules.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402
from stats import (beyond, classify, covered, fail_ratio, op_tail,  # noqa: E402
                   percentile, scaling_eff, self_time, tail_percentile)
from workloads import WORKLOADS  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_nearest_rank_percentile():
    vals = list(range(1, 101))
    assert percentile(vals, 50) == 50
    assert percentile(vals, 90) == 90
    assert percentile(vals, 99) == 99
    assert percentile([3.0], 50) == 3.0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail_percentile(100) == 90
    assert beyond(100, 90) == 10 and beyond(100, 91) == 9
    assert tail_percentile(1000) == 99
    assert tail_percentile(66) == 84
    assert beyond(66, 84) >= 10 > beyond(66, 85)


def test_tail_falls_back_to_p50_with_too_few_ops():
    for n in (1, 5, 19):
        assert tail_percentile(n) == 50
    tail = op_tail([0.4, 0.1, 0.3, 0.2, 0.5])
    assert tail["percentile"] == 50 and tail["value"] == 0.3
    assert tail["ops"] == 5


def test_op_tail_reports_counts():
    tail = op_tail([float(i) for i in range(1, 201)])
    assert tail == {"percentile": 95, "value": 190.0, "ops": 200, "beyond": 10}


# -- span self time ----------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    # overlapping children count once; parts outside the parent are clipped
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert self_time(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert self_time(0, 10, [(9, 12)]) == 9
    assert self_time(0, 10, []) == 10


def test_tracer_nesting_and_self_times():
    tr = Tracer()
    with tr.span("op", op=7):
        with tr.span("cli.main"):
            pass
        with tr.span("probe", points=3) as c:
            c["extra"] = 1
    spans = tr.with_self_times()
    op, cli, probe = spans
    assert cli["parent"] == 0 and probe["parent"] == 0 and op["parent"] is None
    assert cli["op"] == probe["op"] == 7
    assert probe["counts"] == {"points": 3, "extra": 1}
    children = cli["dur"] + probe["dur"]
    assert op["self"] == pytest.approx(op["dur"] - children, abs=1e-9)
    assert cli["self"] == cli["dur"]


# -- pool scaling --------------------------------------------------------------

def test_scaling_eff():
    assert scaling_eff(4.0, 2.0, 2) == 1.0
    assert scaling_eff(4.0, 4.0, 2) == 0.5
    assert scaling_eff(3.0, 4.0, 2) == 0.375  # the pool is slower than one process
    with pytest.raises(ValueError):
        scaling_eff(1.0, 0.0, 2)


# -- fail_ratio base -------------------------------------------------------------

def test_search_exit_1_is_unsolved_not_failed():
    assert classify("search", 1, True) == "unsolved"
    assert classify("search", 1, False) == "failed"
    assert classify("simulate", 1, True) == "failed"
    assert classify("bound", 4, True) == "failed"
    assert classify("analyze", None, True) == "failed"  # exception
    assert classify("analyze", 0, False) == "failed"    # output check
    assert classify("search", 0, True) == "ok"


def test_fail_ratio_counts_unsolved_as_attempted():
    assert fail_ratio(["ok", "unsolved", "unsolved", "failed"]) == 0.25
    assert fail_ratio(["unsolved"] * 3) == 0.0
    with pytest.raises(ValueError):
        fail_ratio([])


# -- workloads ---------------------------------------------------------------------

def test_streams_are_seeded_and_cycle():
    for w in WORKLOADS.values():
        a, b, c = w.ops(5), w.ops(5), w.ops(6)
        first = [next(a) for _ in range(4 * w.cycle)]
        assert first == [next(b) for _ in range(4 * w.cycle)]
        assert first != [next(c) for _ in range(4 * w.cycle)]
        shapes = [(op.command, op.units) for op in first]
        assert shapes[:w.cycle] * 4 == shapes


# -- output checks -----------------------------------------------------------------

def test_bound_rows_compare_points_exactly_and_bound_to_1e9():
    from checks import _bound_matches
    ref = [["L'1", "0.5", "pow2n", 4.0e-07, "128.0", 133718]]
    assert _bound_matches([["L'1", "0.5", "pow2n", 4.0e-07 * (1 + 5e-10), "128.0", 133718]], ref)
    assert not _bound_matches([["L'1", "0.5", "pow2n", 4.0e-07 * (1 + 5e-9), "128.0", 133718]], ref)
    assert not _bound_matches([["L'1", "0.5", "pow2n", 4.0e-07, "128.0", 133717]], ref)
    assert not _bound_matches([], ref)


# -- public-API-only rule ----------------------------------------------------------

def _latcoset_uses(tree):
    """(kind, module, name) of every import from latcoset and attribute of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latcoset":
            for alias in node.names:
                yield "from", node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "latcoset":
                    yield "import", alias.name, ""
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "latcoset"):
            yield "attr", "latcoset", node.attr


def _violations(tree, public) -> list[str]:
    bad = []
    for kind, module, name in _latcoset_uses(tree):
        dunder = name.startswith("__") and name.endswith("__")
        ok = {
            "from": (module == "latcoset" and name in public)
            or (module == "latcoset.cli" and name == "main"),
            "import": module == "latcoset",
            "attr": dunder or name in public,
        }[kind]
        if not ok or (name.startswith("_") and not dunder):
            bad.append(f"{kind} {module} {name}")
    return bad


def test_benchmark_uses_only_public_latcoset_names():
    import latcoset
    public = set(latcoset.__all__)
    bad = [f"{path.name}: {v}" for path in sorted(HERE.glob("*.py"))
           for v in _violations(ast.parse(path.read_text()), public)]
    assert not bad, bad


def test_public_api_rule_catches_underscore_imports():
    import latcoset
    src = ("from latcoset.wiretap import _label_tuple\n"
           "from latcoset import _x\n"
           "from latcoset.decoder import ml_decode_exhaustive\n"
           "import latcoset.lattice\n"
           "latcoset._int_rank\n"
           "from latcoset import message_of\nfrom latcoset.cli import main\n"
           "latcoset.__file__\n")
    assert _violations(ast.parse(src), set(latcoset.__all__)) == [
        "from latcoset.wiretap _label_tuple", "from latcoset _x",
        "from latcoset.decoder ml_decode_exhaustive", "import latcoset.lattice ",
        "attr latcoset _int_rank"]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
