import csv
import json
import os
import signal
import time
from pathlib import Path

import pytest

from kinex.cli import build_parser, main

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def fixed_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def run(argv, tmp_path, name="out"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


class TestHelpGolden:
    def test_main_help(self):
        assert build_parser().format_help() == (DATA / "help_main.txt").read_text()

    @pytest.mark.parametrize("sub", ["simulate", "pde", "study"])
    def test_subcommand_help(self, sub):
        parser = build_parser()
        choices = parser._subparsers._group_actions[0].choices
        assert choices[sub].format_help() == (DATA / f"help_{sub}.txt").read_text()


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "1"])
        assert exc.value.code == 2

    def test_unknown_study_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--study", "bogus"])
        assert exc.value.code == 2

    def test_runtime_error_is_one(self, tmp_path):
        code, _ = run(["pde", "--dt", "1.5", "--t", "2"], tmp_path)
        assert code == 1

    def test_success_is_zero(self, tmp_path):
        code, out = run(["simulate", "--n", "100", "--t", "2", "--seed", "3"], tmp_path)
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()


class TestSimulate:
    def test_identical_bytes_for_identical_flags(self, tmp_path):
        argv = ["simulate", "--n", "300", "--t", "3", "--seed", "11", "--snapshots", "1,3", "--write-snapshots"]
        _, out_a = run(argv, tmp_path, "a")
        _, out_b = run(argv, tmp_path, "b")
        for name in ("summary.csv", "snapshots.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_records_event_count(self, tmp_path):
        _, out = run(["simulate", "--n", "100", "--t", "4", "--seed", "1"], tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["event_count"] > 0
        assert manifest["seed"] == 1
        assert "config_sha256" in manifest

    def test_config_file_with_flag_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 150\nseed = 4\nt = 2\n")
        code = main(["simulate", "--config", str(conf), "--seed", "9", "--out", str(tmp_path / "o")])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["n"] == 150  # from file
        assert manifest["seed"] == 9  # flag wins

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("volume = 11\n")
        code = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_kinex_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KINEX_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--n", "50", "--t", "1"]) == 0
        assert (tmp_path / "envout" / "summary.csv").exists()


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--n", "10", "--t", "inf"], "t_final"),
            (["simulate", "--n", "10", "--t", "2", "--snapshots", "1,x"], "'x'"),
            (["simulate", "--n", "10", "--t", "2", "--snapshots", "nan"], "snapshot"),
        ],
        ids=["t-inf", "snapshot-token", "snapshot-nan"],
    )
    def test_one_line_error_without_delay(self, argv, named, tmp_path, capsys):
        def hung(signum, frame):
            raise TimeoutError("kinex did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            start = time.perf_counter()
            code, _ = run(argv, tmp_path)
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert code == 1
        assert elapsed < 1.0
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("kinex: error:") and named in lines[0], err


class TestPde:
    def test_equilibrium_entropy_floor(self, tmp_path):
        code, out = run(["pde", "--init", "equilibrium", "--t", "5"], tmp_path)
        assert code == 0
        with open(out / "diagnostics.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(float(r["entropy_rel"]) < 1e-10 for r in rows)

    def test_random_initial_condition_entropy_decreases(self, tmp_path):
        code, out = run(
            ["pde", "--m1", "5", "--dx", "0.05", "--dt", "0.05", "--t", "2", "--init", "random:42"],
            tmp_path,
        )
        assert code == 0
        with open(out / "diagnostics.csv") as f:
            rows = list(csv.DictReader(f))
        entropies = [float(r["entropy_rel"]) for r in rows]
        assert all(b < a for a, b in zip(entropies, entropies[1:]))

    def test_writes_final_density_with_sidecar(self, tmp_path):
        code, out = run(["pde", "--init", "uniform:0,2", "--t", "1", "--dx", "0.02"], tmp_path)
        assert code == 0
        sidecar = json.loads((out / "final_density.csv.json").read_text())
        assert sidecar["n_cells"] == 1000
        assert abs(sidecar["m1"] - 1.0) < 1e-3


class TestStudy:
    def test_chaos_study_writes_report(self, tmp_path):
        code, out = run(
            ["study", "--study", "chaos", "--n-list", "100,400", "--replicas", "10", "--t", "1.0", "--seed", "2"],
            tmp_path,
        )
        report = json.loads((out / "report.json").read_text())
        assert "checks" in report and "w1_decreasing_in_n" in report["checks"]
        assert code == (0 if report["passed"] else 1)
        assert (out / "series.csv").exists() and (out / "manifest.json").exists()
