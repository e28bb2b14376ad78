import json
import subprocess
import sys

import numpy as np
import pytest

from latcoset import IntegerLattice
from latcoset.cli import main


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

    def test_odd_entry_lattice_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(IntegerLattice(np.diag([1, 2, 2, 2])).to_json())
        code, _, _ = run_cli(["analyze", "--code", "alamouti", "--pam", "4",
                              "--lattices", str(path)], capsys)
        assert code == 3


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

    def test_capacity_exits_4(self, capsys):
        code, _, err = run_cli(["bound", "--code", "alamouti", "--pam", "4",
                                "--lattices", "L1", "--sigma-e-sq", "10",
                                "--truncation", "100000000"], capsys)
        assert code == 4
        assert "truncation" in err


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


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latcoset.cli", "analyze", "--code",
             "alamouti", "--pam", "4", "--lattices", "L1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "L1,32,no,16" in proc.stdout
