import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import kinex
from kinex import experiments as ex
from kinex import particle as pt
from kinex.cli import main
from kinex.errors import ConfigError, DataError, KinexError
from kinex.kinetic1d import Equilibrium, Grid1D

from conftest import Recorder, record_forks, running

SRC = str(Path(kinex.__file__).parents[1])


class TestFitHelpers:
    def test_linear_fit_exact_line(self):
        x = np.linspace(0, 5, 20)
        slope, intercept, r2, se = ex.linear_fit(x, 3 * x - 2)
        assert slope == pytest.approx(3.0) and intercept == pytest.approx(-2.0)
        assert r2 == pytest.approx(1.0)
        assert se == pytest.approx(0, abs=1e-12)

    def test_exponential_rate(self):
        t = np.linspace(0, 4, 30)
        rate, r2, se = ex.exponential_rate(t, 5 * np.exp(-0.7 * t))
        assert rate == pytest.approx(0.7, rel=1e-10)
        assert r2 == pytest.approx(1.0)
        assert se < 1e-10

    def test_exponential_rate_rejects_nonpositive(self):
        with pytest.raises(DataError):
            ex.exponential_rate([0, 1], [1.0, -1.0])


class TestRandomPositiveDensity:
    def test_normalization_and_mean(self):
        grid = Grid1D.from_spacing(100.0, 0.01)
        q = ex.random_positive_density(grid, 5.0, seed=42)
        assert q.mass == pytest.approx(1.0, abs=1e-12)
        assert q.mean == pytest.approx(5.0, abs=1e-8)
        assert q.values.min() >= 0.0

    def test_seeded_reproducibility(self):
        grid = Grid1D.from_spacing(100.0, 0.02)
        a = ex.random_positive_density(grid, 5.0, seed=7)
        b = ex.random_positive_density(grid, 5.0, seed=7)
        c = ex.random_positive_density(grid, 5.0, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


class TestEntropyDecayStudy:
    def test_reference_configuration(self):
        report = ex.entropy_decay_study()
        assert report.passed, report.checks
        assert report.checks["entropy_strictly_decreasing"]["passed"]
        assert report.checks["semilog_fit_r2"]["r2"] > 0.95
        theta = report.checks["eep_exponent_finite"]["theta_hat"]
        assert theta is not None and math.isfinite(theta)

    def test_eep_table_monotone_in_time(self):
        report = ex.entropy_decay_study(seed=7)
        rows = [r for r in report.series_rows if math.isfinite(r[2])]
        entropy = np.array([r[1] for r in rows])
        dissip = np.array([r[2] for r in rows])
        assert np.all(np.diff(entropy) < 0)
        assert np.all(np.diff(dissip) < 0)

    def test_artifacts_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ex.ENTROPY, "dx", 0.05)
        monkeypatch.setitem(ex.ENTROPY, "t_final", 4.0)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ex.entropy_decay_study(seed=3).write_artifacts(str(out_a))
        ex.entropy_decay_study(seed=3).write_artifacts(str(out_b))
        for name in ("report.json", "series.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert "config_sha256" in manifest


class TestContractionStudy:
    def test_equilibrium_start_stays_at_zero_distance(self):
        from kinex.diagnostics import wasserstein2
        from kinex.kinetic1d import solve

        grid = Grid1D.from_spacing(20.0, 0.01)
        q0 = Equilibrium(1.0).on_grid(grid).normalized()
        rec = Recorder()
        solve(q0, 5.0, 0.05, snapshot_times=np.arange(0.0, 5.1, 1.0), observers=(rec,))
        for snap in rec.snapshots:
            assert wasserstein2(snap.normalized(), q0) < 1e-4

    def test_small_configuration(self, monkeypatch):
        for key, value in (("t_final", 10.0), ("coupled_n", 20_000), ("coupled_t", 6.0)):
            monkeypatch.setitem(ex.CONTRACTION, key, value)
        report = ex.contraction_study(seed=1)
        assert report.passed, report.checks
        assert 0.30 <= report.rates["coupled_msd_rate"]["value"] <= 0.36


# the contraction PDE stays on its M = 2000 grid, for 100 steps instead of 1000
SMALL_CONTRACTION = {"t_final": 2.0, "coupled_n": 2000, "coupled_t": 2.0}


def in_child_only(monkeypatch, name, action):
    """Make the child's calls of pt.<name> call action(); this process's calls run as before."""
    parent, real = os.getpid(), getattr(pt, name)

    def patched(config, state):
        return real(config, state) if os.getpid() == parent else action()

    monkeypatch.setattr(pt, name, patched)


class TestForkedCoupledRun:
    """contraction_study's first coupled run goes to one forked child (experiments._in_child)."""

    @pytest.fixture(autouse=True)
    def small(self, monkeypatch, no_child_left):
        for key, value in SMALL_CONTRACTION.items():
            monkeypatch.setitem(ex.CONTRACTION, key, value)

    @pytest.mark.parametrize("error", [DataError, ConfigError])
    def test_child_error_reraised(self, error, monkeypatch):
        def fail():
            raise error("drift 1e-3 in the child")

        in_child_only(monkeypatch, "simulate_coupled", fail)
        with pytest.raises(error) as info:
            ex.contraction_study(seed=0)
        assert type(info.value) is error and str(info.value) == "drift 1e-3 in the child"

    def test_parent_error_kills_and_reaps_the_child(self, monkeypatch):
        def pde_fails(report):
            raise DataError("the PDE route failed")

        forks = record_forks(monkeypatch)
        in_child_only(monkeypatch, "simulate_coupled", lambda: time.sleep(60))
        monkeypatch.setattr(ex, "_pde_envelope", pde_fails)
        start = time.perf_counter()
        with pytest.raises(DataError, match="the PDE route failed"):
            ex.contraction_study(seed=0)
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(forks[0], 0)

    def test_killed_child_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        in_child_only(monkeypatch, "simulate_coupled", lambda: os.kill(os.getpid(), signal.SIGKILL))
        code = main(["study", "--study", "contraction", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "kinex: error: the forked run ended without a result (signal 9)\n"
        assert not (tmp_path / "out").exists()

    def test_helper_passes_result_and_exception(self):
        with ex._in_child(divmod, 7, 2) as wait:
            assert wait() == (3, 1)
        with pytest.raises(ZeroDivisionError):
            with ex._in_child(divmod, 7, 0) as wait:
                wait()
        with pytest.raises(KinexError, match=r"^the forked run ended without a result \(exit code 1\)$"):
            with ex._in_child(threading.Lock) as wait:  # a lock does not pickle
                wait()

    def test_one_fork_whatever_the_cpu_count(self, tmp_path, monkeypatch):
        artifacts = {}
        for cpus in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            forks = record_forks(monkeypatch)
            out = tmp_path / f"cpus{cpus}"
            main(["study", "--study", "contraction", "--out", str(out)])
            assert len(forks) == 1
            artifacts[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert artifacts[1] == artifacts[64] and len(artifacts[1]) == 3

    def test_same_bytes_without_fork(self, tmp_path, monkeypatch):
        """Where os has no fork, the first coupled run runs in this process and writes the same bytes."""
        runs = {}
        for how in ("forked", "in_process"):
            if how == "in_process":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / how
            code = main(["study", "--study", "contraction", "--out", str(out)])
            runs[how] = code, {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs["forked"] == runs["in_process"] and len(runs["forked"][1]) == 3

    def test_child_sees_patched_constant(self, monkeypatch):
        """The forked study reports what the same study run in one process reports."""
        monkeypatch.setitem(ex.CONTRACTION, "coupled_t", 1.0)
        forked = ex.contraction_study(seed=2)
        monkeypatch.delattr(os, "fork")
        sequential = ex.contraction_study(seed=2)
        assert forked.checks == sequential.checks
        assert forked.rates == sequential.rates
        np.testing.assert_array_equal(forked.series_rows, sequential.series_rows)  # NaN equals NaN here
        # the child ran to the patched coupled_t = 1: the PDE times 1.5 and 2 have no msd
        msd = np.array([row[3] for row in forked.series_rows])
        assert np.isfinite(msd[:3]).all() and np.isnan(msd[3:]).all() and msd.size == 5


# the golden chaos case, and one of 33 replicas: the child runs 16 of them, this process 17
CHAOS_GOLDEN = ("--n-list", "50,200", "--replicas", "10", "--t", "1")
CHAOS_ODD = ("--n-list", "50,100,200", "--replicas", "11", "--t", "1")

# a chaos study whose every simulate call first sleeps 0.1 s, and which prints the forked
# child's pid: the child's 100 replicas would take 10 s
ORPHAN_MAIN = """
import os, sys, time
from kinex import cli, particle as pt

real_fork, real_simulate = os.fork, pt.simulate

def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid

def slow_simulate(config, state):
    time.sleep(0.1)
    return real_simulate(config, state)

os.fork, pt.simulate = fork, slow_simulate
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.usefixtures("no_child_left")
class TestForkedChaosReplicas:
    """chaos_scaling runs every second replica in one forked child (experiments._in_child)."""

    @staticmethod
    def study(tmp_path, name, options) -> tuple[int, dict]:
        out = tmp_path / name
        code = main(["study", "--study", "chaos", *options, "--out", str(out)])
        return code, {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize("options", [CHAOS_GOLDEN, CHAOS_ODD], ids=["golden", "odd"])
    def test_same_bytes_without_fork(self, options, tmp_path, monkeypatch):
        """Where os has no fork, the child's replicas run in this process and write the same bytes."""
        forked = self.study(tmp_path, "forked", options)
        monkeypatch.delattr(os, "fork")
        assert self.study(tmp_path, "in_process", options) == forked and len(forked[1]) == 3

    def test_this_process_runs_every_second_replica(self, monkeypatch):
        parent, real, sizes = os.getpid(), pt.simulate, []

        def recording(config, state):
            if os.getpid() == parent:
                sizes.append(config.n_agents)
            return real(config, state)

        monkeypatch.setattr(pt, "simulate", recording)
        ex.chaos_scaling(seed=0, n_list=(50, 100, 200), replicas=11, t_eval=1.0)
        assert sizes == ([50] * 11 + [100] * 11 + [200] * 11)[0::2]

    def test_one_fork_whatever_the_cpu_count(self, tmp_path, monkeypatch):
        artifacts = {}
        for cpus in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            forks = record_forks(monkeypatch)
            artifacts[cpus] = self.study(tmp_path, f"cpus{cpus}", CHAOS_GOLDEN)
            assert len(forks) == 1
        assert artifacts[1] == artifacts[64]

    @pytest.mark.parametrize("error", [DataError, ConfigError])
    def test_child_error_reraised(self, error, monkeypatch):
        def fail():
            raise error("W1 refused in the child")

        in_child_only(monkeypatch, "simulate", fail)
        with pytest.raises(error) as info:
            ex.chaos_scaling(seed=0, n_list=(50, 200), replicas=10, t_eval=1.0)
        assert type(info.value) is error and str(info.value) == "W1 refused in the child"

    def test_parent_error_kills_and_reaps_the_child(self, monkeypatch):
        parent, real = os.getpid(), pt.simulate

        def simulate(config, state):
            if os.getpid() == parent:
                raise DataError("a replica failed in this process")
            time.sleep(60)
            return real(config, state)

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(pt, "simulate", simulate)
        start = time.perf_counter()
        with pytest.raises(DataError, match="a replica failed in this process"):
            ex.chaos_scaling(seed=0, n_list=(50, 200), replicas=10, t_eval=1.0)
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(forks[0], 0)

    def test_child_leaves_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed study leaves no orphan: its child sees the parent gone between two replicas."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
        argv = ["study", "--study", "chaos", "--n-list", "50,200", "--replicas", "100", "--t", "1",
                "--out", str(tmp_path / "out")]
        proc = subprocess.Popen([sys.executable, "-c", ORPHAN_MAIN, *argv], env=env, stdout=subprocess.PIPE)
        child = None
        try:
            child = int(proc.stdout.readline())
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2.0
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not running(child)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)


class TestChaosScaling:
    def test_small_study_passes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = ex.chaos_scaling(seed=3, n_list=(100, 400, 1600), replicas=12, t_eval=2.0)
        assert report.checks["w1_decreasing_in_n"]["passed"], report.checks
        assert -0.6 <= report.rates["sampling_slope_t0"]["value"] <= -0.4

    def test_deterministic_given_seed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = ex.chaos_scaling(seed=5, n_list=(50, 200), replicas=10, t_eval=1.0)
            b = ex.chaos_scaling(seed=5, n_list=(50, 200), replicas=10, t_eval=1.0)
        assert a.series_rows == b.series_rows

    def test_manifest_params_are_machine_independent(self):
        # nothing hashed into config_sha256 may depend on the host, such as its core count
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = ex.chaos_scaling(seed=5, n_list=(50, 200), replicas=10, t_eval=1.0)
        assert set(report.params) == {"n_list", "t_eval", "replicas", "seed", "dx", "dt", "q0_mean"}

    def test_config_guards(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ex.chaos_scaling(n_list=(100, 100))
        with pytest.raises(ConfigError, match="two population sizes"):
            ex.chaos_scaling(n_list=(100,))
        with pytest.raises(ConfigError, match="10 replicas"):
            ex.chaos_scaling(replicas=3)

    def test_mean_drift_guard(self, monkeypatch):
        # a domain far too short for the support makes the PDE mean drift
        monkeypatch.setattr(ex, "_CHAOS_X_MAX", 4.0)
        with pytest.raises(DataError):
            ex.chaos_scaling(seed=1, n_list=(50, 100), replicas=10, t_eval=1.5)


class TestFigure1Study:
    def test_reduced_horizon_run(self, monkeypatch):
        monkeypatch.setitem(ex.FIGURE1, "t_final", 200.0)
        report = ex.figure1_reproduction(seed=1)
        assert report.passed, report.checks
        assert report.checks["mean_conserved"]["value"] == pytest.approx(10.0, abs=1e-9)
        assert report.series_columns[0] == "x"
