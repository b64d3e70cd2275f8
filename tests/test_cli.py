import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kinex
from kinex import experiments as ex
from kinex import kinetic1d as k1
from kinex import particle as pt
from kinex.cli import build_parser, main
from kinex.kinetic1d import _MAX_CELL_STEPS, Equilibrium, Grid1D, save_density, uniform_density

DATA = Path(__file__).parent / "data"
SRC = Path(kinex.__file__).parents[1]


def numpy_blas() -> str:
    """Name of numpy's BLAS library, '' when this numpy cannot report it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


@pytest.fixture(autouse=True)
def fixed_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def run(argv, tmp_path, name="out"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


def one_line_error(capsys) -> str:
    """The single `kinex: error:` line on stderr, with no traceback."""
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kinex: error:"), err
    return lines[0]


class TestHelpGolden:
    def test_main_help(self):
        assert build_parser().format_help() == (DATA / "help_main.txt").read_text()

    @pytest.mark.parametrize("sub", ["simulate", "pde", "study"])
    def test_subcommand_help(self, sub):
        parser = build_parser()
        choices = parser._subparsers._group_actions[0].choices
        assert choices[sub].format_help() == (DATA / f"help_{sub}.txt").read_text()


class TestExitCodes:
    def test_usage_error_is_two(self, tmp_path, capsys):
        code, _ = run(["simulate", "--n", "1"], tmp_path)
        assert code == 2
        assert "n='1'" in one_line_error(capsys)

    def test_unknown_study_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--study", "bogus"])
        assert exc.value.code == 2

    def test_runtime_error_is_one(self, tmp_path, capsys):
        code, _ = run(["pde", "--dt", "1.5", "--t", "2"], tmp_path)
        assert code == 1
        # named as unstable, although the default cadence 0.25 is below dt too
        assert "dt = 1.5 exceeds the unit loss rate" in one_line_error(capsys)

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
        assert code == 2

    def test_file_input_is_hashed(self, tmp_path):
        path = tmp_path / "balances.txt"
        manifests = []
        for k, text in enumerate(("1\n2\n3\n4\n", "4\n3\n2\n1\n")):  # same flags, new file bytes
            path.write_text(text)
            code, out = run(["simulate", "--n", "4", "--t", "1", "--init", f"file:{path}"], tmp_path, f"o{k}")
            assert code == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
            assert manifests[-1]["init_sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert manifests[0]["config_sha256"] != manifests[1]["config_sha256"]

    def test_kinex_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KINEX_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--n", "50", "--t", "1"]) == 0
        assert (tmp_path / "envout" / "summary.csv").exists()


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, code, named",
        [
            (["simulate", "--n", "10", "--t", "inf"], 2, "t='inf'"),
            (["simulate", "--n", "10", "--t", "2", "--snapshots", "1,x"], 2, "'x'"),
            (["simulate", "--n", "10", "--t", "2", "--snapshots", "nan"], 1, "snapshot"),
            (["simulate", "--n", "10", "--t", "2", "--init", "constant:abc"], 1, "'abc'"),
            (["simulate", "--n", "10", "--t", "2", "--init", "exponential:-1"], 1, "'-1'"),
            (["study", "--study", "chaos", "--n-list", "100,abc", "--replicas", "10"], 2, "'abc'"),
            (["pde", "--t", "1", "--init", "uniform:abc"], 1, "'abc'"),
            (["pde", "--t", "1", "--snapshot-every", "0"], 2, "snapshot_every='0'"),
            (["pde", "--t", "1", "--snapshot-every", "-1"], 2, "snapshot_every='-1'"),
            (["pde", "--t", "1", "--dt", "nan"], 2, "dt='nan'"),
            (["pde", "--t", "nan"], 2, "t='nan'"),
            (["pde", "--t", "1", "--dx", "0"], 2, "dx='0'"),
            (["pde", "--t", "1e-9"], 1, "1e-09"),
            (["pde", "--dt", "0.05", "--t", "0.03"], 1, "t_final = 0.03"),
            (["simulate", "--n", "10", "--t", "1", "--seed", "-1"], 2, "seed='-1'"),
            (["study", "--study", "chaos", "--n-list", "100,200", "--replicas", "10", "--seed", "-1"], 2, "seed='-1'"),
            (["pde", "--t", "1", "--init", "random:-1"], 1, "'-1'"),
            (["pde", "--x-max", "3", "--t", "30"], 1, "tail_mass=0.00464"),
            (["pde", "--dx", "0.05", "--t", "1", "--init", "uniform:0,0.125"], 1,
             "[0.0, 0.125] are not cell edges of dx=0.05"),
            (["study", "--study", "figure1", "--t", "5"], 1, "figure1 takes no t"),
            (["study", "--study", "chaos", "--n-list", "100", "--replicas", "10", "--t", "0.5"], 2,
             "two population sizes"),
            (["study", "--study", "chaos", "--n-list", "200,100", "--replicas", "10"], 2, "strictly increasing"),
            (["study", "--study", "chaos", "--replicas", "5"], 2, "replicas='5': need an integer >= 10"),
            (["pde", "--m1", "1e300", "--t", "1"], 1, "2e+303 cells exceeds the limit of 4194304"),
            (["pde", "--dx", "0.05", "--t", "1", "--snapshot-every", "1e-300"], 1,
             "snapshot_every=1e-300 is below dt=0.05"),
        ],
        ids=[
            "t-inf", "snapshot-token", "snapshot-nan", "constant-token", "exponential-negative",
            "n-list-token", "uniform-token", "snapshot-every-zero", "snapshot-every-negative",
            "dt-nan", "t-nan", "dx-zero", "t-below-half-step", "t-below-step",
            "simulate-seed-negative", "study-seed-negative", "pde-random-seed-negative",
            "truncation-leak", "start-mass", "study-chaos-only-flag", "chaos-one-size",
            "chaos-sizes-not-increasing", "chaos-replicas-below-ten", "grid-too-large",
            "snapshot-every-below-dt",
        ],
    )
    def test_one_line_error_without_delay(self, argv, code, named, tmp_path, capsys):
        """A converter's refusal is a usage error (2); a library or runtime refusal is 1."""
        def hung(signum, frame):
            raise TimeoutError("kinex did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            start = time.perf_counter()
            got, out = run(argv, tmp_path)
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert got == code
        assert elapsed < 1.0
        assert not out.exists()  # a refused run leaves no output directory
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("kinex: error:") and named in lines[0], err

    @pytest.mark.parametrize("n", [pt._MAX_AGENTS + 1, 10**20], ids=["cap-plus-one", "21-digit"])
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--t", "1", "--n", "{n}"],
         ["study", "--study", "chaos", "--replicas", "10", "--t", "1", "--n-list", "100,{n}"]],
        ids=["simulate", "chaos"],
    )
    def test_agent_cap(self, argv, n, tmp_path, capsys, monkeypatch):
        """Too many agents are refused before any balance is drawn or the chaos PDE is solved."""
        def not_reached(*args, **kwargs):
            pytest.fail("the run started before the agent count was checked")

        monkeypatch.setattr(pt, "make_initial", not_reached)
        monkeypatch.setattr(ex, "solve", not_reached)
        code, out = run([arg.format(n=n) for arg in argv], tmp_path)
        assert code == 1
        assert not out.exists()
        assert f"a population of {n} agents exceeds the limit of {pt._MAX_AGENTS} agents" in one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--n", "100", "--t", "1e300"],
             f"4.95e+301 expected events exceed the limit of {pt._MAX_EVENTS:.3g} events"),
            (["pde", "--dx", "0.05", "--t", "1e300"],
             f"2e+301 steps of 400 cells exceed the limit of {_MAX_CELL_STEPS:.7g} cell updates"),
            (["study", "--study", "chaos", "--n-list", "100000,1000000", "--replicas", "10", "--t", "100"],
             "10 replicas of 2 population sizes: 5.5e+08 expected events exceed the limit"),
            (["study", "--study", "chaos", "--replicas", "1000000000000"],
             f"1000000000000 replicas per population size exceed the limit of {ex._MAX_REPLICAS}"),
            (["study", "--study", "chaos", "--replicas", "10", "--t", "0.01",
              "--n-list", ",".join(map(str, range(2, ex._MAX_CHAOS_RUNS // 10 + 3)))],
             f"{ex._MAX_CHAOS_RUNS // 10 + 1} population sizes x 10 replicas = {ex._MAX_CHAOS_RUNS + 10} "
             f"simulate runs exceed the limit of {ex._MAX_CHAOS_RUNS}"),
        ],
        ids=["simulate-events", "pde-cell-steps", "chaos-events", "chaos-replicas", "chaos-runs"],
    )
    def test_work_cap(self, argv, named, tmp_path, capsys, monkeypatch):
        """Work over a cap is refused in under 1 s, before any balance, observer or PDE step."""
        def not_reached(*args, **kwargs):
            pytest.fail("the run started before its work was checked")

        for target in ("kinex.particle.make_initial", "kinex.experiments.solve", "kinex.cli.solve",
                       "kinex.cli.TrajectoryObserver"):
            monkeypatch.setattr(target, not_reached)
        start = time.perf_counter()
        code, out = run(argv, tmp_path)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert not out.exists()
        assert named in one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--n", "100", "--snapshots", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"], None),
            (["--n", "100", "--snapshots", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"],
             "100 agents x 11 snapshot times = 1100 kept balances exceed the limit of 1000"),
            (["--n", "1001"], "1001 agents x 1 snapshot times = 1001 kept balances exceed the limit of 1000"),
            (["--n", "1001", "--write-snapshots"], "1001 agents x 1 snapshot times"),
            (["--n", "100", "--snapshots", "0,0.5,1", "--write-snapshots"], None),
        ],
        ids=["at-cap", "times-over-cap", "agents-over-cap", "rows-over-cap", "rows-under-cap"],
    )
    def test_snapshot_cap(self, argv, named, tmp_path, capsys, monkeypatch):
        """Agents x kept snapshots over the cap are refused before the initial state is drawn."""
        monkeypatch.setattr(pt, "_MAX_SNAPSHOT_VALUES", 1000)
        if named is None:
            code, out = run(["simulate", "--t", "1", *argv], tmp_path)
            assert code == 0
            if "--write-snapshots" in argv:
                assert len((out / "snapshots.csv").read_text().splitlines()) == 1 + 300
            return
        monkeypatch.setattr(pt, "make_initial", lambda *args: pytest.fail("the initial state was drawn"))
        code, out = run(["simulate", "--t", "1", *argv], tmp_path)
        assert code == 1
        assert not out.exists()
        assert named in one_line_error(capsys)

    def test_snapshot_cap_at_full_size(self, tmp_path, capsys, monkeypatch):
        """10^6 agents at 11 snapshot times pass the agent and event caps, not the snapshot cap."""
        monkeypatch.setattr(pt, "make_initial", lambda *args: pytest.fail("the initial state was drawn"))
        code, out = run(["simulate", "--n", "1000000", "--t", "10", "--snapshots", "0,1,2,3,4,5,6,7,8,9,10"],
                        tmp_path)
        assert code == 1
        assert not out.exists()
        assert ("1000000 agents x 11 snapshot times = 11000000 kept balances exceed the limit of 10000000"
                in one_line_error(capsys))

    def test_simulate_checks_the_snapshot_cap(self, monkeypatch):
        """The library refuses the kept snapshots too, not only the CLI; coupled runs keep none."""
        monkeypatch.setattr(pt, "_MAX_SNAPSHOT_VALUES", 100)
        config = pt.SimConfig(n_agents=50, t_final=1.0, snapshot_times=(0.0, 0.5, 1.0))
        with pytest.raises(pt.ConfigError, match="50 agents x 3 snapshot times"):
            pt.simulate(config, pt.make_initial("constant:1", 50))
        pairs = pt.CoupledPairs.build(pt.make_initial("constant:1", 50), 1.0, seed=0)
        assert pt.simulate_coupled(config, pairs).times.size == 3

    def test_negative_seed_in_config_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = -1\n")
        code, _ = run(["simulate", "--n", "10", "--t", "1", "--config", str(conf)], tmp_path)
        assert code == 2
        assert "seed='-1'" in one_line_error(capsys)

    def test_bad_clock_scale_in_config_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("clock_scale = bogus\n")
        code, _ = run(["simulate", "--n", "10", "--t", "1", "--config", str(conf)], tmp_path)
        assert code == 2
        assert "'bogus'" in one_line_error(capsys)

    def test_study_key_in_config_file(self, tmp_path, capsys):
        """--study is required and names the study, so a study = line is not a config key."""
        conf = tmp_path / "run.conf"
        conf.write_text("study = bogus\n")
        code, out = run(["study", "--study", "entropy", "--config", str(conf)], tmp_path)
        assert code == 2
        assert "unknown config key 'study'" in one_line_error(capsys)
        assert not out.exists()

    def test_config_line_without_equals(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n 10\n")
        code, out = run(["simulate", "--config", str(conf)], tmp_path)
        assert code == 2
        assert "expected key=value" in one_line_error(capsys)
        assert not out.exists()

    def test_config_file_not_utf8(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"n = 10\xff\xfe\n")
        code, out = run(["simulate", "--config", str(conf)], tmp_path)
        assert code == 2
        assert f"{conf}: config file is not UTF-8 text" in one_line_error(capsys)
        assert not out.exists()

    # every key a converter checks, once per subcommand: (command, key, bad value, other flags)
    TWINS = [
        ("simulate", "n", "1", []),
        ("simulate", "t", "-2", []),
        ("simulate", "seed", "abc", []),
        ("simulate", "snapshots", "1,x", []),
        ("simulate", "clock_scale", "bogus", []),
        ("pde", "m1", "0", []),
        ("pde", "dx", "nan", []),
        ("pde", "dt", "-1", []),
        ("pde", "t", "inf", []),
        ("pde", "x_max", "0", []),
        ("pde", "snapshot_every", "x", []),
        ("study", "seed", "-1", ["--study", "chaos"]),
        ("study", "n_list", "100,abc", ["--study", "chaos"]),
        ("study", "replicas", "ten", ["--study", "chaos"]),
        ("study", "t", "0", ["--study", "chaos"]),
    ]

    @pytest.mark.parametrize("command, key, bad, rest", TWINS, ids=[f"{c}-{k}" for c, k, _, _ in TWINS])
    def test_flag_and_config_line_refused_alike(self, command, key, bad, rest, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {bad}\n")
        results = []
        for name, given in (("flag", [f"--{key.replace('_', '-')}", bad]), ("file", ["--config", str(conf)])):
            code, out = run([command, *rest, *given], tmp_path, name)
            results.append((code, one_line_error(capsys), out.exists()))
        assert results[0] == results[1], results  # same code, same line, same (absent) directory
        code, line, wrote = results[0]
        assert code == 2 and f"{key}={bad!r}" in line and not wrote

    def test_chaos_only_keys_in_config_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n_list = 50,200\nreplicas = 10\n")
        code, out = run(["study", "--study", "entropy", "--config", str(conf)], tmp_path)
        assert code == 1
        assert "takes no n_list, replicas" in one_line_error(capsys)
        assert not out.exists()  # refused before any work

    @pytest.mark.parametrize("case", ["short", "long", "token", "nan", "no-x-max", "half-mass"])
    def test_bad_density_file(self, case, tmp_path, capsys):
        path = tmp_path / "density.csv"
        save_density(Equilibrium(1.0).on_grid(Grid1D.from_spacing(20.0, 0.05)).normalized(), str(path))
        rows = path.read_text().splitlines()  # header + 400 rows
        if case == "short":
            rows = rows[:50]
        elif case == "long":
            rows.append(rows[-1])
        elif case == "token":
            rows[7] = "0.325,abc"
        elif case == "nan":
            rows[7] = "0.325,nan"
        elif case == "half-mass":
            rows[1:] = [f"{x},{float(v) / 2!r}" for x, v in (row.split(",") for row in rows[1:])]
        else:
            sidecar = json.loads(Path(f"{path}.json").read_text())
            del sidecar["x_max"]
            Path(f"{path}.json").write_text(json.dumps(sidecar))
        path.write_text("\n".join(rows) + "\n")
        code, _ = run(["pde", "--dx", "0.05", "--t", "1", "--init", f"file:{path}"], tmp_path)
        assert code == 1
        assert str(path) in one_line_error(capsys)

    def test_density_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "density.csv"
        save_density(Equilibrium(1.0).on_grid(Grid1D.from_spacing(20.0, 0.05)).normalized(), str(path))
        rows = path.read_bytes().splitlines()
        rows[7] = b"0.325,\xff\xfe"
        path.write_bytes(b"\n".join(rows) + b"\n")
        code, out = run(["pde", "--dx", "0.05", "--t", "1", "--init", f"file:{path}"], tmp_path)
        assert code == 1
        assert f"{path}: density CSV is not UTF-8 text" in one_line_error(capsys)
        assert not out.exists()

    def test_bad_balance_file(self, tmp_path, capsys):
        path = tmp_path / "balances.txt"
        path.write_text("1.0\nabc\n2.0\n")
        code, _ = run(["simulate", "--n", "3", "--t", "1", "--init", f"file:{path}"], tmp_path)
        assert code == 1
        assert str(path) in one_line_error(capsys)


class TestPde:
    def test_defaults(self, tmp_path):
        """t = 5 lies inside the horizon x_max/m1 - log(1e6), about 6.2, of the default x_max = 20 m1."""
        code, out = run(["pde"], tmp_path)
        assert code == 0
        with open(out / "diagnostics.csv") as f:
            assert len(list(csv.DictReader(f))) == 21  # t = 0, 0.25, ..., 5

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

    def test_mean_below_laplace_range(self, tmp_path):
        """A mean below 0.6 puts the observer's lam0 = 0.6/m1 above 1, with damping C = m1."""
        code, out = run(["pde", "--m1", "0.5", "--dx", "0.05", "--t", "1"], tmp_path)
        assert code == 0
        with open(out / "diagnostics.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(0.0 < float(r["laplace_sup"]) <= 1.0 + 5e-3 for r in rows)

    def test_writes_final_density_with_sidecar(self, tmp_path):
        code, out = run(["pde", "--init", "uniform:0,2", "--t", "1", "--dx", "0.02"], tmp_path)
        assert code == 0
        sidecar = json.loads((out / "final_density.csv.json").read_text())
        assert sidecar["n_cells"] == 1000
        assert abs(sidecar["m1"] - 1.0) < 1e-3

    def test_file_input_grid_and_hash(self, tmp_path):
        """The manifest records the file's grid, not the flags', and hashes file and sidecar."""
        path = tmp_path / "density.csv"
        grid = Grid1D.from_spacing(25.0, 0.1)
        manifests = []
        for k, b in enumerate((2.0, 3.0)):  # same flags, new file bytes
            save_density(uniform_density(grid, 0.0, b), str(path))
            # the flag grid (x_max 20, dx 0.7) is not even valid; the file's is used
            code, out = run(["pde", "--t", "1", "--dx", "0.7", "--init", f"file:{path}"], tmp_path, f"o{k}")
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["x_max"], manifest["dx"]) == (grid.x_max, grid.dx)
            assert manifest["init_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["init_sidecar_sha256"] == hashlib.sha256(Path(f"{path}.json").read_bytes()).hexdigest()
            manifests.append(manifest)
        assert manifests[0]["config_sha256"] != manifests[1]["config_sha256"]


class TestGoldenArtifacts:
    """SHA-256 of every file eight runs write, manifest included.

    Any change to an artifact's bytes fails here; update a hash only for an
    intended change of output. The pde start has 120 zero cells and the
    pde_reference start (the benchmark's pde run, M = 10^4) 3003, so the
    first record of each takes the D = +inf branch. figure1, contraction and
    chaos_full run at full size; contraction's first coupled run and every
    second chaos replica go through a forked child, so in chaos_full the
    20 replicas at N = 10^4 are split over both processes. No run reaches
    BLAS, so each hash holds under every OpenBLAS kernel (TestCrossKernel).
    The hashes do depend on numpy's own SIMD dispatch: on a CPU without
    AVX512, numpy's exp, log, power, expm1 and log1p round differently,
    and the pde, pde_reference, figure1, chaos, chaos_full and entropy
    hashes change.
    """

    CASES = {
        "simulate": (
            ["simulate", "--n", "200", "--t", "5", "--seed", "7", "--snapshots", "0,2.5,5", "--write-snapshots"],
            {
                "manifest.json": "09cb3b73a170a70dd8f729969a50effd249dc161822e777ad7de8b55ee8bf196",
                "snapshots.csv": "94d3688acc5011622e3046137fb4baae2a95e2d5b42641e7ae16adaa38b3586a",
                "summary.csv": "a016528b930a23519282452b5390f309788e320865870736d6c2e04c6306a7c9",
            },
        ),
        "pde": (
            ["pde", "--dx", "0.05", "--t", "1", "--init", "random:42"],
            {
                "diagnostics.csv": "eb6bb66463390870e9b194424b2200fd180c2ddc7fd84f721f27c61677d58266",
                "final_density.csv": "e1cc12b4d89141a47d2c1c44015d7fc1fbf924fcfafdbad05c28f239debcf1a9",
                "final_density.csv.json": "543cb58578275c0833cea3ea3ed2b4b90ebeafa2554168613b9ebd618d8cf273",
                "manifest.json": "3d730d58a52478c5b0c95568075bba71df491f8b7bda6a3d6934d862762f7b85",
            },
        ),
        "pde_reference": (  # 41 records at M = 10^4
            ["pde", "--m1", "5", "--dx", "0.01", "--dt", "0.05", "--t", "10", "--init", "random:19"],
            {
                "diagnostics.csv": "d038d11f798b271758c037e5d9fe56f37edc5918d57f02001da63bb6a636c752",
                "final_density.csv": "5b769b77e808d8862c4dfaf2de3fc5a7baa5208421b57366c24753ffca601c27",
                "final_density.csv.json": "6a675029b80d31c1ac47111937a1b114ce30bfc2e23cc22ced21ae62364b30e8",
                "manifest.json": "04452afeb4a3edd9abc182d41794706cd158789fcf4808aa3d4a9ef60a930d0b",
            },
        ),
        "chaos": (
            ["study", "--study", "chaos", "--n-list", "50,200", "--replicas", "10", "--t", "1"],
            {
                "manifest.json": "8c2cb4353fd4df4d9d7e6a4ef4504c0950b06bc0ec3829677798b94f394c1601",
                "report.json": "120fbc198e33872be41058561c8c6107a73c14622cc7df69137d219347829bbf",
                "series.csv": "2468a36d562d9c4b6b693f54fbdb688c9b9b5287f4c9f39a04b1415309c7bc75",
            },
        ),
        "figure1": (
            ["study", "--study", "figure1", "--seed", "0"],
            {
                "manifest.json": "671d6077cab8d14d8e9b00d6b7f113d5fcc5ce0a3b61c05ff82a65ea855ccc56",
                "report.json": "7bdb440b5dca38c984e8a2bbff840c9d7b5cdc7611f9c8c5d7f1b0dd6221b575",
                "series.csv": "82d79f542ab8406af9aa1b1503af9a0a27672be29dd6e3d1bb83689097a43c24",
            },
        ),
        "chaos_full": (
            ["study", "--study", "chaos", "--seed", "0"],
            {
                "manifest.json": "25295f877b33ee0c1b253f28b58ff906fde191aa01cc105eb339d2acfc647148",
                "report.json": "607d0509fac0d79654c63b5e40d0b94b9c75410f59202bf65fc5e9fca0af0a83",
                "series.csv": "20d4ed05473eac28263316a874898c76d3c2c6c05d64fc95380760461b632b9d",
            },
        ),
        "contraction": (
            ["study", "--study", "contraction", "--seed", "0"],
            {
                "manifest.json": "b75e09093f8373f2b337041ef20fdfeeda5e448f186189df1128a194e3d37604",
                "report.json": "c31429bf4cf8ab91bfc09bb6d20e585c349904721a126fc070429b6d28d40fcc",
                "series.csv": "c619d424e68971b375eede5ec1bfa6b24515ad744b731d9597eecd4575d9b32c",
            },
        ),
        "entropy": (  # a record at each of its 201 steps, and the mean in its conservation check
            ["study", "--study", "entropy"],
            {
                "manifest.json": "b3716416df1313928ac5a777dc4c5933445191ebeb906caad7429c1ee2a19a97",
                "report.json": "c9889e233ef8cbff6e6538b9b09bd140da54e3a5a56d172552f82d43d6897ec4",
                "series.csv": "1a1121c4a173c130c52d06913fe27f37c40bceef2d132f9ee355e892f1435b43",
            },
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_artifact_hashes(self, case, tmp_path):
        argv, expected = self.CASES[case]
        code, out = run(argv, tmp_path)
        assert code == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == expected


class TestTables:
    """Every CSV table has the same bytes however many rows go to one write, and its own line ends.

    Rows per table: final_density.csv 1024 (--x-max 20.48 at dx 0.02),
    diagnostics.csv 3, summary.csv 9, snapshots.csv 12 and series.csv 3, so
    each block size, 1, 3 and the default 1024, divides some table's rows.
    """

    RUNS = (
        ["pde", "--dx", "0.02", "--x-max", "20.48", "--t", "1", "--snapshot-every", "0.5"],
        ["simulate", "--n", "4", "--t", "1", "--snapshots", "0,0.5,1", "--write-snapshots"],
        ["study", "--study", "chaos", "--n-list", "20,40,80", "--replicas", "10", "--t", "0.5"],
    )
    CRLF = {"diagnostics.csv", "final_density.csv"}
    ROWS = {"final_density.csv": 1024, "diagnostics.csv": 3, "summary.csv": 9, "snapshots.csv": 12,
            "series.csv": 3}

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
    def test_block_size_and_line_ends(self, argv, tmp_path, monkeypatch):
        tables = {}
        for block in (1, 3, None):
            with monkeypatch.context() as mp:
                if block is not None:
                    mp.setattr(k1, "_CSV_BLOCK", block)
                code, out = run(argv, tmp_path, f"block{block}")
            assert code in (0, 1)  # 1: a check of the toy study failed; its artifacts are written all the same
            tables[block] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert tables[1] == tables[3] == tables[None] and tables[None]
        for name, data in tables[None].items():
            lines = data.count(b"\n")
            assert lines == self.ROWS[name] + 1 and data.endswith(b"\n")
            assert data.count(b"\r\n") == (lines if name in self.CRLF else 0), name


class TestCrossKernel:
    """The golden runs, contraction made small, write the same bytes under every OpenBLAS kernel.

    OPENBLAS_CORETYPE forces the kernel of one process, and each kernel sums
    a dot product in its own order, so an artifact path that reaches BLAS
    shows up here as a byte difference.
    """

    # the contraction PDE stays on its M = 2000 grid, for 100 steps instead of 1000
    MAIN = ("import sys; from kinex import cli, experiments; "
            "experiments.CONTRACTION.update(t_final=2.0, coupled_n=2000, coupled_t=2.0); "
            "sys.exit(cli.main(sys.argv[1:]))")
    CASES = {name: argv for name, (argv, _) in TestGoldenArtifacts.CASES.items()}

    @pytest.mark.skipif("openblas" not in numpy_blas(), reason="numpy's BLAS is not OpenBLAS")
    @pytest.mark.parametrize("case", list(CASES))
    def test_same_bytes_under_every_kernel(self, case, tmp_path):
        digests = {}
        for kernel in ("default", "Haswell", "Prescott"):
            env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
            if kernel != "default":
                env["OPENBLAS_CORETYPE"] = kernel
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
            out = tmp_path / kernel
            proc = subprocess.run([sys.executable, "-c", self.MAIN, *self.CASES[case], "--out", str(out)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode in (0, 1) and out.is_dir(), proc.stderr
            digests[kernel] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert all(d == digests["default"] for d in digests.values()), digests


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
