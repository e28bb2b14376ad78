import json
import subprocess
import sys

import numpy as np
import pytest

import latcoset.lattice as lattice
from latcoset import IntegerLattice
from latcoset.catalog import builtin_sublattice
from latcoset.cli import _build_parser, _parse_float_list, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestAnalyze:
    def test_k4_catalog_block(self, capsys):
        code, out, _ = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1,L2,L3"], capsys)
        assert code == 0
        assert out.startswith("# latcoset v")
        rows = parse_csv(out)
        assert [(r["name"], r["index"], r["wr"], r["lambda1_sq"]) for r in rows] == [
            ("L1", "32", "no", "16"), ("L2", "32", "yes", "24"),
            ("L3", "32", "yes", "32")]
        assert all((r["r"], r["r_i"], r["r_c"]) == ("4.0", "2.5", "1.5")
                   for r in rows)

    def test_golden_2pam_rates(self, capsys):
        code, out, _ = run_cli(["analyze", "--code", "golden", "--pam", "2",
                                "--lattices", "L'1,L'2,L'3"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert all((r["r"], r["r_i"], r["r_c"]) == ("4.0", "2.5", "1.5")
                   for r in rows)

    def test_unknown_lattice_exits_2(self, capsys):
        code, _, err = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L99"], capsys)
        assert code == 2
        assert "L99" in err

    def test_dimension_mismatch_exits_2(self, capsys):
        code, _, _ = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                              "--lattices", "M1"], capsys)
        assert code == 2

    def test_json_lattice_input(self, tmp_path, capsys):
        path = tmp_path / "lat.json"
        path.write_text(IntegerLattice(2 * np.diag([4, 2, 2, 2])).to_json())
        code, out, _ = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", str(path)], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["index"], row["wr"], row["lambda1_sq"]) == ("32", "no", "16")

    def test_int64_norm_overflow_exits_4(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(IntegerLattice(2 ** 33 * np.eye(4, dtype=np.int64)).to_json())
        code, _, err = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", str(path)], capsys)
        assert code == 4
        assert "int64" in err

    def test_basis_entry_past_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"k": 4, "basis": [
            [2 ** 63 if i == j == 0 else 2 * (i == j) for i in range(4)]
            for j in range(4)]}))
        code, _, err = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", str(path)], capsys)
        assert code == 2
        assert "int64" in err

    def test_non_object_lattice_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", str(path)], capsys)
        assert code == 2
        assert "object" in err

    def test_boolean_lattice_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"k": 4, "basis": [[true, 0, 0, 0], [0, 2, 0, 0], '
                        '[0, 0, 2, 0], [0, 0, 0, 2]]}')
        code, _, err = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                "--lattices", str(path)], capsys)
        assert code == 2
        assert "integers" in err

    def test_odd_entry_lattice_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(IntegerLattice(np.diag([1, 2, 2, 2])).to_json())
        code, _, _ = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                              "--lattices", str(path)], capsys)
        assert code == 3

    def test_one_enumeration_for_all_lattices(self, capsys, monkeypatch):
        calls = []
        real = lattice._fincke_pohst_runs

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lattice, "_fincke_pohst_runs", counted)
        code, out, _ = run_cli(["analyze", "--code", "golden", "--pam", "4",
                                "--lattices", "L'1,L'2,L'3,M1,M2,M3"], capsys)
        assert code == 0
        assert [(r["name"], r["wr"], r["lambda1_sq"]) for r in parse_csv(out)] == [
            ("L'1", "no", "4"), ("L'2", "yes", "12"), ("L'3", "yes", "16"),
            ("M1", "yes", "16"), ("M2", "yes", "64"), ("M3", "yes", "104")]
        assert len(calls) == 1 and len(calls[0][0]) == 6  # one stack of six Gram matrices

    @pytest.mark.parametrize("bad", ["missing.json", "L99", "M1"])
    def test_the_first_lattice_in_error_is_reported(self, bad, tmp_path, capsys):
        # as when the lattices were analyzed one at a time: the radius of
        # 2^33 I_4 reaches exact int64 norms (exit 4), and a lattice that
        # does not load, or does not fit the code, exits 2
        huge = tmp_path / "huge.json"
        huge.write_text(IntegerLattice(2 ** 33 * np.eye(4, dtype=np.int64)).to_json())
        bad = str(tmp_path / bad) if bad.endswith(".json") else bad
        for order, expected in [([huge, bad], 4), ([bad, huge], 2)]:
            code, out, err = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                      "--lattices", ",".join(["L1", *map(str, order)])],
                                     capsys)
            assert (code, out) == (expected, "")
            assert ("int64" in err) == (expected == 4)


class TestSimulate:
    def test_basic_curve(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                              "--lattices", "L2", "--snr", "0:10:5",
                              "--trials", "500", "--seed", "1",
                              "--out", str(out_file)], capsys)
        assert code == 0
        text = out_file.read_text()
        assert text.splitlines()[1] == "snr_db,ecdp,trials,ci_low,ci_high"
        rows = parse_csv(text)
        assert [r["snr_db"] for r in rows] == ["-0.0", "5.0", "10.0"] or \
               [r["snr_db"] for r in rows] == ["0.0", "5.0", "10.0"]
        assert all(0.0 <= float(r["ecdp"]) <= 1.0 for r in rows)

    def test_rank_deficient_trials_past_the_exhaustive_cap(self, capsys):
        # golden 6-PAM has 6^8 > 10^6 words, and with one receive antenna every
        # trial's channel is rank deficient, so each falls back to the kernel
        code, out, err = run_cli(["simulate", "--code", "golden", "--pam", "6",
                                  "--n-r", "1", "--metric", "cer", "--trials", "2",
                                  "--snr", "0"], capsys)
        assert code == 0, err
        assert [r["trials"] for r in parse_csv(out)] == ["2"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--code", "alamouti", "--pam", "4", "--lattices",
                "L2", "--snr", "5", "--trials", "600", "--seed", "3"]
        texts = []
        for name in ["a.csv", "b.csv"]:
            path = tmp_path / name
            assert run_cli(args + ["--out", str(path)], capsys)[0] == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_worker_invariance(self, tmp_path, capsys):
        base = ["simulate", "--code", "alamouti", "--pam", "4", "--lattices",
                "L2", "--snr", "5", "--trials", "2100", "--seed", "3"]
        outs = []
        for name, workers in [("w1.csv", "1"), ("w2.csv", "2")]:
            path = tmp_path / name
            assert run_cli(base + ["--workers", workers, "--out", str(path)],
                           capsys)[0] == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_trials_exits_2(self, capsys):
        code, _, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                              "--lattices", "L2", "--snr", "0",
                              "--trials", "0", "--seed", "1"], capsys)
        assert code == 2

    def test_forced_exhaustive_past_cap_exits_2(self, capsys):
        code, _, err = run_cli(["simulate", "--code", "golden", "--pam", "8",
                                "--lattices", "L'1", "--snr", "0", "--trials", "1",
                                "--decoder", "exhaustive"], capsys)
        assert code == 2
        assert "configuration error" in err and "cap" in err

    def test_cer_independent_of_lattice(self, tmp_path, capsys):
        outs = []
        for name, lat in [("c1.csv", "L1"), ("c2.csv", "L3")]:
            path = tmp_path / name
            code, _, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                                  "--metric", "cer", "--lattices", lat,
                                  "--snr", "10", "--trials", "500",
                                  "--seed", "2", "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        out_dir = tmp_path / "both"
        code, _, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                              "--metric", "cer", "--lattices", "L1,L3",
                              "--snr", "10", "--trials", "500",
                              "--seed", "2", "--out", str(out_dir)], capsys)
        assert code == 0
        assert [p.read_bytes() for p in sorted(out_dir.iterdir())] == outs

    def test_one_run_matches_single_lattice_runs(self, tmp_path, capsys):
        base = ["simulate", "--code", "alamouti", "--pam", "4", "--snr", "0,5",
                "--trials", "1500", "--seed", "6"]
        assert run_cli(base + ["--lattices", "L1,L2,L3",
                               "--out", str(tmp_path / "all")], capsys)[0] == 0
        for name in ["L1", "L2", "L3"]:
            one = tmp_path / name
            assert run_cli(base + ["--lattices", name, "--out", str(one)], capsys)[0] == 0
            fname = f"ecdp_alamouti_4pam_{name.lower()}.csv"
            assert (tmp_path / "all" / fname).read_bytes() == (one / fname).read_bytes()

    def test_bad_lattice_exits_2_before_any_trial(self, monkeypatch, capsys):
        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr("latcoset.wiretap._chunk_rng", no_draw)
        for metric in ["ecdp", "cer"]:
            code, _, err = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                                    "--metric", metric, "--lattices", "L1,L99",
                                    "--snr", "0", "--trials", "10"], capsys)
            assert code == 2
            assert "L99" in err

    @pytest.mark.parametrize("st_code,lattices", [("alamouti", "a/x.json,b/x.json"),
                                                  ("golden", "LP1.json,L'1"),
                                                  ("alamouti", "L2,L1,L1")])
    def test_lattices_sharing_a_file_exit_2_before_any_trial(self, monkeypatch, capsys,
                                                             tmp_path, st_code, lattices):
        # no curve may overwrite another's file
        for path, name in [("a/x.json", "L1"), ("b/x.json", "L3"), ("LP1.json", "L'1")]:
            (tmp_path / path).parent.mkdir(exist_ok=True)
            (tmp_path / path).write_text(builtin_sublattice(name).to_json())

        def no_chunk(*args):
            raise AssertionError("a chunk was simulated")

        monkeypatch.setattr("latcoset.wiretap._simulate_chunk", no_chunk)
        sources = ",".join(str(tmp_path / s) if s.endswith(".json") else s
                           for s in lattices.split(","))
        for metric in ["ecdp", "cer"]:
            out = tmp_path / f"out_{metric}"
            code, _, err = run_cli(["simulate", "--code", st_code, "--metric", metric,
                                    "--lattices", sources, "--snr", "0", "--trials", "50",
                                    "--out", str(out)], capsys)
            assert code == 2
            assert "configuration error" in err and "would write one file" in err
            assert not out.exists()

    def test_full_sweep_point_count_and_floor(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                              "--lattices", "L2", "--snr=-20:30:5",
                              "--trials", "800", "--seed", "4",
                              "--out", str(out_file)], capsys)
        assert code == 0
        rows = parse_csv(out_file.read_text())
        assert len(rows) == 11
        for r in rows:
            hw = (float(r["ci_high"]) - float(r["ci_low"])) / 2
            assert 1 / 32 - 3 * hw <= float(r["ecdp"]) <= 1.0

    def test_multiple_lattices_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        code, _, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                              "--lattices", "L1,L2", "--snr", "5",
                              "--trials", "300", "--seed", "1",
                              "--out", str(out_dir)], capsys)
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "ecdp_alamouti_4pam_l1.csv", "ecdp_alamouti_4pam_l2.csv"]


class TestBound:
    def test_ordering_l1_l3(self, capsys):
        code, out, _ = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1,L3", "--sigma-e-sq", "100",
                                "--exponent-mode", "pow2",
                                "--truncation", "200"], capsys)
        assert code == 0
        rows = parse_csv(out)
        vals = {r["name"]: float(r["bound"]) for r in rows}
        assert vals["L1"] > vals["L3"]

    def test_gamma_zero_equals_count(self, capsys):
        code, out, _ = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1", "--sigma-e-sq", "1e12",
                                "--exponent-mode", "pow2n",
                                "--truncation", "200"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["bound"]) == pytest.approx(float(row["points_used"]),
                                                    rel=1e-6)

    def test_default_truncation_applied(self, capsys):
        code, out, _ = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1", "--sigma-e-sq", "10"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert all(float(r["truncation_r_sq"]) == 64.0 for r in rows)
        assert {r["exponent_mode"] for r in rows} == {"pow2n", "pow2"}

    def test_one_enumeration_per_lattice(self, capsys, monkeypatch):
        calls = []
        real = lattice._fincke_pohst_runs

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lattice, "_fincke_pohst_runs", counted)
        code, out, _ = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1,L2,L3", "--sigma-e-sq", "1,10,100",
                                "--truncation", "100"], capsys)
        assert code == 0
        assert [(r["name"], r["sigma_e_sq"], r["exponent_mode"]) for r in parse_csv(out)] == [
            (name, sigma, mode) for name in ["L1", "L2", "L3"]
            for sigma in ["1.0", "10.0", "100.0"] for mode in ["pow2n", "pow2"]]
        # the bound's own enumeration only: no shortest shell at a given truncation
        assert len(calls) == 3

    @pytest.mark.parametrize("sigma", ["1e-200", "1e-320"])
    def test_sigma_past_floats_gives_the_zero_limit(self, sigma, capsys):
        code, out, err = run_cli(["bound", "--code", "golden", "--lattices", "L'2",
                                  "--sigma-e-sq", sigma, "--truncation", "20"], capsys)
        assert (code, err) == (0, "")
        rows = parse_csv(out)
        assert [(r["exponent_mode"], r["bound"]) for r in rows] == [
            ("pow2n", "0.0"), ("pow2", "0.0")]
        assert {r["points_used"] for r in rows} == {"120"}

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    @pytest.mark.parametrize("n_r", [0, 2.5, True])
    def test_bad_receive_antennas_exit_2(self, command, n_r, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_r": n_r}))
        argv = [command, "--code", "alamouti", "--lattices", "L1", "--config", str(path)]
        argv += ["--sigma-e-sq", "10"] if command == "bound" else ["--trials", "10"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "configuration error" in err and "n_r" in err

    def test_sigma_and_snr_together_exit_2(self, tmp_path, capsys):
        bound = ["bound", "--code", "alamouti", "--pam", "4", "--lattices", "L1"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"snr": "0"}))
        for argv in (bound + ["--snr", "0", "--sigma-e-sq", "1"],
                     bound + ["--sigma-e-sq", "1", "--config", str(path)],
                     bound):  # and neither
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert "exactly one of --sigma-e-sq and --snr" in err

    def test_catalog_bases_are_enumerated_unreduced(self, capsys, monkeypatch):
        # every catalog basis and its half pass the float gate of
        # lattice._enumeration_basis, so no exact reduction runs
        def refused(vectors):
            raise AssertionError("a catalog basis was reduced")

        monkeypatch.setattr(lattice, "_integral_lll", refused)
        golden = ["--code", "golden", "--lattices", "L'1,L'2,L'3"]
        for argv in (["analyze", "--code", "alamouti", "--lattices", "L1,L2,L3,L4,L5"],
                     ["analyze", "--code", "golden", "--lattices", "L'1,L'2,L'3,M1,M2,M3"],
                     ["bound", *golden, "--sigma-e-sq", "0.5"],
                     ["bound", *golden, "--sigma-e-sq", "0.5", "--truncation", "128"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "") and parse_csv(out)

    def test_capacity_exits_4(self, capsys):
        code, _, err = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1", "--sigma-e-sq", "10",
                                "--truncation", "100000000"], capsys)
        assert code == 4
        assert "hint: lower --truncation\n" in err


class TestSearchCmd:
    def test_search_writes_lattice_and_report(self, tmp_path, capsys):
        out_file = tmp_path / "lat.json"
        code, out, _ = run_cli(["search", "--k", "4", "--index", "16",
                                "--budget", "50", "--seed", "1",
                                "--out", str(out_file)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["well_rounded"] is True
        lat = IntegerLattice.from_json(out_file.read_text())
        assert lat.k == 4

    def test_zero_index_exits_2(self, capsys):
        code, _, _ = run_cli(["search", "--k", "4", "--index", "0",
                              "--budget", "10", "--seed", "1"], capsys)
        assert code == 2

    def test_index_past_int64_exits_2(self, capsys):
        code, out, err = run_cli(["search", "--k", "4", "--index", str(10 ** 400),
                                  "--budget", "10", "--seed", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "int64" in err

    def test_capacity_exits_4_with_a_search_hint(self, capsys):
        code, _, err = run_cli(["search", "--k", "4", "--index", str(2 ** 70),
                                "--budget", "400", "--seed", "0"], capsys)
        assert code == 4
        assert "hint: lower --index\n" in err
        assert "truncation" not in err

    def test_hill_climb_in_one_dimension_exits_2(self):
        # a subprocess with a timeout, so a climb that spends no budget fails
        # the test instead of hanging it
        proc = subprocess.run([sys.executable, "-m", "latcoset.cli", "search", "--k", "1",
                               "--index", "4", "--budget", "4", "--seed", "0",
                               "--hill-climb"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "configuration error" in proc.stderr and "k >= 2" in proc.stderr

    def test_combined_stdout(self, capsys):
        code, out, _ = run_cli(["search", "--k", "4", "--index", "16",
                                "--budget", "20", "--seed", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"lattice", "report"}


class TestConfigFile:
    def test_config_equivalent_to_flags(self, tmp_path, capsys):
        cfg = {"code": "alamouti", "pam": 4, "lattices": "L1,L2,L3"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        _, out_cfg, _ = run_cli(["analyze", "--config", str(path)], capsys)
        _, out_flags, _ = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                                   "--lattices", "L1,L2,L3"], capsys)
        assert out_cfg == out_flags

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = {"code": "alamouti", "pam": 4, "lattices": "L1"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        _, out, _ = run_cli(["analyze", "--config", str(path),
                             "--lattices", "L2"], capsys)
        assert parse_csv(out)[0]["name"] == "L2"

    def test_missing_config_exits_2(self, capsys):
        code, _, _ = run_cli(["analyze", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command,cfg", [
        ("simulate", {"trials": "10"}),
        ("simulate", {"seed": 1.5}),
        ("simulate", {"workers": True}),
        ("simulate", {"snr": [0, None]}),
        ("simulate", {"decoder": "fast"}),
        ("analyze", {"lattices": 5}),
        ("analyze", {"lattices": ["L1", 2]}),
        ("bound", {"truncation": "64"}),
        ("bound", {"truncation": 10 ** 400}),
        ("simulate", {"snr": [10 ** 400]}),
        ("search", {"hill_climb": 1}),
        ("simulate", {"snr": []}),
    ])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"code": "alamouti", "pam": 4, "lattices": "L2",
                                    "snr": "0", "trials": 10, "sigma_e_sq": "10",
                                    **cfg}))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert repr(next(iter(cfg.values()))) in err

    def test_config_lists_match_flags(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"code": "alamouti", "pam": 4, "lattices": ["L1", "L3"],
                                    "snr": [0, 5.0], "trials": 40, "seed": 3}))
        _, out_cfg, _ = run_cli(["simulate", "--config", str(path)], capsys)
        _, out_flags, _ = run_cli(["simulate", "--code", "alamouti", "--pam", "4",
                                   "--lattices", "L1,L3", "--snr", "0,5",
                                   "--trials", "40", "--seed", "3"], capsys)
        assert out_cfg == out_flags


class TestNumericInputs:
    SIMULATE = ["simulate", "--code", "alamouti", "--pam", "4", "--lattices", "L2",
                "--trials", "10"]
    BOUND = ["bound", "--code", "alamouti", "--pam", "4", "--lattices", "L2"]

    @pytest.mark.parametrize("args", [
        SIMULATE + ["--snr", "0", "--n-r", "0"],
        BOUND + ["--sigma-e-sq", "10", "--n-r", "0"],
        SIMULATE + ["--snr", "nan"],
        SIMULATE + ["--snr", "0:10:inf"],
        BOUND + ["--sigma-e-sq", "nan"],
        SIMULATE + ["--snr", ","],
        SIMULATE + ["--snr", "5:0:1"],
        BOUND + ["--sigma-e-sq", "10", "--truncation", "inf"],
        # a noise variance past the float range (10 ** 400 overflows)
        ["simulate", "--code", "alamouti", "--lattices", "L1", "--snr=-4000"],
        ["bound", "--code", "golden", "--lattices", "L'1", "--snr=-4000"],
        # single values, each checked by the library call that takes it
        SIMULATE + ["--snr", "0", "--trials", "0"],
        SIMULATE + ["--snr", "0", "--workers", "0"],
        SIMULATE + ["--snr", "0", "--seed", "-1"],
        SIMULATE + ["--snr", "0", "--pam", "3"],
        SIMULATE + ["--snr", "0", "--metric", "cer", "--pam", "0"],
        BOUND + ["--sigma-e-sq", "10", "--pam", "5"],
        BOUND + ["--snr", "0", "--pam", "5"],
        ["analyze", "--code", "alamouti", "--lattices", "L1", "--pam", "3"],
        ["search", "--index", "32"],
        ["search", "--k", "0", "--index", "32"],
        ["search", "--k", "4"],
        ["search", "--k", "4", "--index", "0"],
        ["search", "--k", "4", "--index", "32", "--budget", "0"],
        ["search", "--k", "4", "--index", "32", "--seed", "-1"],
    ])
    def test_bad_value_exits_2(self, monkeypatch, capsys, args):
        def no_work(*args):
            raise AssertionError("a trial or a search started")

        monkeypatch.setattr("latcoset.wiretap._chunk_rng", no_work)
        monkeypatch.setattr("latcoset.cli.search_wr_sublattice", no_work)
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    @pytest.mark.parametrize("text", ["1e17:2e17:1", "0:1e17:1"])
    def test_range_whose_step_stops_advancing_exits_2(self, text):
        # the step is lost in the start (1e17 + 1 == 1e17), or would be once
        # the values pass 2^53: a range that listed by repeated addition
        # never ended, so this runs in its own process with a timeout
        proc = subprocess.run(
            [sys.executable, "-m", "latcoset.cli", "simulate", "--code", "alamouti",
             "--lattices", "L1", "--trials", "10", f"--snr={text}"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "configuration error" in proc.stderr

    @pytest.mark.parametrize("text,count,head,last", [
        ("-5:5:2.5", 5, [-5.0, -2.5, 0.0], 5.0),
        ("0:20:5", 5, [0.0, 5.0, 10.0], 20.0),
        ("0:30:0.1", 301, [0.0, 0.1, 0.2], 30.0),
        ("0:100:0.01", 10001, [0.0, 0.01, 0.02], 100.0),
        ("-60:60:0.7", 172, [-60.0, -59.3, -58.6], 59.7),
        ("0.1:0.3:0.1", 3, [0.1, 0.2, 0.3], 0.3),
    ])
    def test_range_values(self, text, count, head, last):
        values = _parse_float_list(text)
        assert len(values) == count
        assert values[:3] == head and values[-1] == last
        # the values of the former listing by repeated addition, bit for bit
        start, stop, step = map(float, text.split(":"))
        summed, v = [], start
        while v <= stop + 1e-9:
            summed.append(round(v, 10))
            v += step
        assert [x.hex() for x in values] == [x.hex() for x in summed]

    def test_range_point_limit(self):
        assert len(_parse_float_list("0:999999:1")) == 10 ** 6
        with pytest.raises(ValueError, match="more than 1000000 values"):
            _parse_float_list("0:1000000:1")
        with pytest.raises(ValueError, match="does not advance"):
            _parse_float_list("1e17:2e17:1")

    @pytest.mark.parametrize("text", ["nan", "0,inf", "-inf,5", "nan:10:5", "0:10:nan"])
    def test_float_list_rejects_non_finite(self, text):
        with pytest.raises(ValueError):
            _parse_float_list(text)


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_successive_calls_parse_their_own_arguments(self, capsys):
        base = ["analyze", "--code", "alamouti", "--pam", "4", "--lattices"]
        assert [parse_csv(run_cli(base + [name], capsys)[1])[0]["name"]
                for name in ["L1", "L3", "L1"]] == ["L1", "L3", "L1"]
        code, out, _ = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1", "--sigma-e-sq", "10",
                                "--exponent-mode", "pow2"], capsys)
        assert code == 0
        assert [r["exponent_mode"] for r in parse_csv(out)] == ["pow2"]
        _, out, _ = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                             "--lattices", "L1", "--sigma-e-sq", "10"], capsys)
        assert [r["exponent_mode"] for r in parse_csv(out)] == ["pow2n", "pow2"]


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latcoset.cli", "analyze", "--code",
             "alamouti", "--pam", "4", "--lattices", "L1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "L1,32,no,16" in proc.stdout

    def test_analyze_and_bound_leave_numpy_random_unimported(self):
        # only simulate and search draw; the others must not pay for the module
        script = ("import sys\n"
                  "from latcoset.cli import main\n"
                  "assert main(['analyze', '--code', 'golden', '--pam', '4',"
                  " '--lattices', \"L'1,L'2\"]) == 0\n"
                  "assert main(['bound', '--code', 'golden', '--lattices', \"L'2\","
                  " '--sigma-e-sq', '10', '--truncation', '40']) == 0\n"
                  "assert 'numpy.random' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
