import errno
import json
import math
import os
import re
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
    """contraction_study's first coupled run goes to one forked child (_fork._in_child)."""

    @pytest.fixture(autouse=True)
    def small(self, monkeypatch):
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

    @pytest.mark.parametrize("message, ignored", [
        ("This process (pid=12) is multi-threaded, use of fork() may lead to deadlocks in the child.", True),
        ("some other deprecation", False)], ids=["threaded_fork", "other"])
    def test_only_the_threaded_fork_warning_is_ignored(self, message, ignored, monkeypatch):
        """Python >= 3.12 warns at os.fork while OpenBLAS's threads are alive; that message alone is ignored."""
        real_fork = os.fork

        def warning_fork():
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if ignored:
                with ex._in_child(divmod, 7, 2) as wait:
                    assert wait() == (3, 1)
            else:
                with pytest.raises(DeprecationWarning, match=message):
                    with ex._in_child(divmod, 7, 2):
                        pass

    def test_fork_beside_a_thread_records_no_warning(self):
        """Only Python >= 3.12 warns here (a second thread runs), and the helper ignores that warning."""
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with ex._in_child(divmod, 7, 2) as wait:
                    assert wait() == (3, 1)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []

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


# the golden chaos case, and one of 33 replicas
CHAOS_GOLDEN = ("--n-list", "50,200", "--replicas", "10", "--t", "1")
CHAOS_ODD = ("--n-list", "50,100,200", "--replicas", "11", "--t", "1")

# a study that prints its forked child's pid and is slowed at one point: every simulate
# call sleeps 0.1 s (the chaos child's replicas would take 20 s), or every simulate_coupled
# call or the PDE solve 60 s
ORPHAN_MAIN = """
import os, sys, time
from kinex import cli, experiments as ex, particle as pt

real_fork, slow = os.fork, sys.argv[1]
module = ex if slow == "solve" else pt
real = getattr(module, slow)

def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid

def slowed(*args):
    time.sleep(0.1 if slow == "simulate" else 60)
    return real(*args)

os.fork = fork
setattr(module, slow, slowed)
sys.exit(cli.main(sys.argv[2:]))
"""


def state(pid: int) -> str:
    """The state letter of a process in /proc/<pid>/stat ("S": sleeping, as on a pipe read)."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()[0]


def orphan(tmp_path, slow: str, study: list, before_kill=lambda child: None):
    """SIGKILL a subprocess study (slowed at slow) once its child is forked; the child must go."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    argv = ["study", "--study", *study, "--out", str(tmp_path / "out")]
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_MAIN, slow, *argv], env=env, stdout=subprocess.PIPE)
    child = None
    try:
        child = int(proc.stdout.readline())
        before_kill(child)
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


# a chaos study whose child runs 200 replicas
CHAOS_ORPHAN = ["chaos", "--n-list", "50,200", "--replicas", "100", "--t", "1"]


def job_seeds(seed: int, n_list: tuple, replicas: int) -> list:
    """The simulate seed of each chaos job, in replica order."""
    return [int(child.generate_state(1)[0]) for group in pt.spawn_seeds(seed, len(n_list))
            for child in group.spawn(replicas)]


def slow_child(monkeypatch, seconds: float, perturb: float = 1.0) -> list:
    """Make the child's simulate calls sleep (and scale its starts); returns this process's seeds."""
    parent, real, seeds = os.getpid(), pt.simulate, []

    def simulate(config, state):
        if os.getpid() == parent:
            seeds.append(config.seed)
            return real(config, state)
        time.sleep(seconds)
        return real(config, pt.WealthVector(state.balances * perturb))

    monkeypatch.setattr(pt, "simulate", simulate)
    return seeds


def child_ignores_this_process(monkeypatch):
    """The forked child reads this process's claim (shared slot 0) as 0, so it runs every job."""
    parent, real = os.getpid(), np.frombuffer

    class Claims(np.ndarray):
        def __getitem__(self, i):
            return 0 if i == 0 and os.getpid() != parent else super().__getitem__(i)

    def frombuffer(buffer, dtype=float, count=-1, offset=0):
        view = real(buffer, dtype, count, offset)
        return view.view(Claims) if view.dtype == np.int64 else view

    monkeypatch.setattr(np, "frombuffer", frombuffer)


class TestForkedChaosReplicas:
    """chaos_scaling forks one child before its PDE solve (_fork._in_child); the child
    takes replicas from the back of the job list, this process from the front after the solve."""

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

    def test_child_claims_every_job_before_the_solve_ends(self, tmp_path, monkeypatch):
        parent, real_solve, real_simulate, sizes = os.getpid(), ex.solve, pt.simulate, []

        def slow_solve(*args):
            time.sleep(1.5)
            return real_solve(*args)

        def recording(config, state):
            if os.getpid() == parent:
                sizes.append(config.n_agents)
            return real_simulate(config, state)

        monkeypatch.setattr(ex, "solve", slow_solve)
        monkeypatch.setattr(pt, "simulate", recording)
        forked = self.study(tmp_path, "forked", CHAOS_GOLDEN)
        assert sizes == []  # the child ran all 20, and waited on "ready" for q_t
        monkeypatch.setattr(ex, "solve", real_solve)
        monkeypatch.delattr(os, "fork")
        assert self.study(tmp_path, "in_process", CHAOS_GOLDEN) == forked and len(forked[1]) == 3

    def test_every_index_runs_at_least_once(self, tmp_path, monkeypatch):
        parent, real, log = os.getpid(), pt.simulate, tmp_path / "ran.txt"

        def recording(config, state):
            with open(log, "a") as f:
                f.write(f"{os.getpid() == parent} {config.seed}\n")
            return real(config, state)

        monkeypatch.setattr(pt, "simulate", recording)
        ex.chaos_scaling(seed=0, n_list=(50, 100, 200), replicas=11, t_eval=1.0)
        index = {s: k for k, s in enumerate(job_seeds(0, (50, 100, 200), 11))}
        ran = {"True": [], "False": []}
        for line in log.read_text().splitlines():
            here, seed = line.split()
            ran[here].append(index[int(seed)])
        mine, theirs = ran["True"], ran["False"]
        assert mine == list(range(len(mine)))  # from the front
        assert theirs == list(range(32, 32 - len(theirs), -1))  # from the back, largest sizes first
        assert set(mine) | set(theirs) == set(range(33))
        assert len(set(mine) & set(theirs)) <= 1  # only where the two met

    def test_a_job_run_twice_gives_equal_pairs(self, tmp_path, monkeypatch):
        forked_seeds = slow_child(monkeypatch, 0.02)
        child_ignores_this_process(monkeypatch)
        forked = self.study(tmp_path, "forked", CHAOS_GOLDEN)
        assert forked_seeds  # each job this process ran, the child ran too
        monkeypatch.delattr(os, "fork")
        assert self.study(tmp_path, "in_process", CHAOS_GOLDEN) == forked

    def test_a_perturbed_duplicate_is_one_error(self, tmp_path, capsys, monkeypatch):
        slow_child(monkeypatch, 0.02, perturb=1.5)
        child_ignores_this_process(monkeypatch)
        code = main(["study", "--study", "chaos", *CHAOS_GOLDEN, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"kinex: error: replica \d+ gave \(.*\) in this process but \(.*\) in the forked child\n",
                            err), err
        assert not (tmp_path / "out").exists()

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
        """The child dies before the solve ends, so "ready" is written to a dead child."""
        def fail():
            raise error("W1 refused in the child")

        def solve_after_the_child(*args):
            deadline = time.monotonic() + 10
            while running(forks[0]) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not running(forks[0])
            return real_solve(*args)

        forks, real_solve = record_forks(monkeypatch), ex.solve
        in_child_only(monkeypatch, "simulate", fail)
        monkeypatch.setattr(ex, "solve", solve_after_the_child)
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

    def test_drift_error_kills_and_reaps_a_waiting_child(self, monkeypatch):
        def slow_solve(*args):
            time.sleep(0.5)  # the child's 20 small replicas are done: it waits on "ready"
            assert running(forks[0])
            return real_solve(*args)

        forks, real_solve = record_forks(monkeypatch), ex.solve
        monkeypatch.setattr(ex, "solve", slow_solve)
        monkeypatch.setattr(ex, "_CHAOS_X_MAX", 4.0)  # the PDE mean drifts on so short a domain
        with pytest.raises(DataError, match="PDE mean drifted"):
            ex.chaos_scaling(seed=1, n_list=(50, 100), replicas=10, t_eval=1.5)
        assert len(forks) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(forks[0], 0)

    def test_child_leaves_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed study leaves no orphan: amid its replicas, its child reads EOF on "alive" and exits."""
        orphan(tmp_path, "simulate", CHAOS_ORPHAN)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the child's state from /proc")
    def test_waiting_child_leaves_when_the_parent_is_killed(self, tmp_path):
        """A child that ran out of jobs and waits on "ready" reads EOF on "alive" once its parent is killed."""
        def wait_until_blocked(child):
            deadline = time.monotonic() + 20
            while state(child) != "S" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert state(child) == "S"

        orphan(tmp_path, "solve", CHAOS_ORPHAN, wait_until_blocked)


def test_contraction_child_leaves_when_the_parent_is_killed(tmp_path):
    """A SIGKILLed contraction study leaves no orphan: its child, asleep in its coupled run, reads EOF on "alive"."""
    orphan(tmp_path, "simulate_coupled", ["contraction"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists this process's descriptors in /proc")
@pytest.mark.parametrize("argv", [["simulate", "--n", "10000", "--t", "80"], ["study", "--study", "contraction"],
                                  ["study", "--study", "chaos", *CHAOS_GOLDEN]], ids=["producer", "contraction", "chaos"])
def test_failed_fork_is_one_error_line_and_closes_what_it_opened(argv, tmp_path, capsys, monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    before = sorted(os.listdir("/proc/self/fd"))
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert code == 1
    assert capsys.readouterr().err == f"kinex: i/o error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    assert not (tmp_path / "out").exists()


# a CLI run that appends to the file sys.argv[1] the name of every module that a process
# other than this one imports: a forked child must import nothing (_fork._in_child)
IMPORTS_MAIN = """
import os, sys
from kinex import cli

parent, record = os.getpid(), os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT)

class Recorder:
    def find_spec(self, name, path=None, target=None):
        if os.getpid() != parent:
            os.write(record, (name + "\\n").encode())
        return None

sys.meta_path.insert(0, Recorder())
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv", [["simulate", "--n", "10000", "--t", "80"], ["study", "--study", "contraction"],
                                  ["study", "--study", "chaos", *CHAOS_GOLDEN]], ids=["producer", "contraction", "chaos"])
def test_no_forked_child_imports_a_module(argv, tmp_path):
    """Each forked child, the producer's round schedule included, imports no module; each run is a fresh interpreter."""
    record = tmp_path / "imports.txt"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", IMPORTS_MAIN, str(record), *argv, "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert record.read_text() == ""


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
