import math
import signal
import sys
import threading
import time
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from kinex import diagnostics, kinetic1d
from kinex.diagnostics import TrajectoryObserver
from kinex.errors import ConfigError, DataError, DomainError, StabilityError
from kinex.kinetic1d import (
    Equilibrium,
    Grid1D,
    GridDensity1D,
    gain,
    load_density,
    rhs,
    save_density,
    self_convolution,
    solve,
    step_euler,
    uniform_density,
)
from conftest import Recorder, compact_random_density
from oracles import dirac_density, direct_self_convolution
from oracles.moments import m2_closed_form


def gain_quadrature_oracle(density_fn, x):
    """Adaptive quadrature of the defining double integral of the gain term."""
    import warnings

    def conv(m):
        return integrate.quad(lambda z: density_fn(z) * density_fn(m - z), 0.0, m)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(lambda m: conv(m) / m, x, 80.0, limit=200)
    return value


class TestGrid:
    def test_nodes_are_midpoints(self):
        g = Grid1D(2.0, 16)
        assert g.dx == 0.125
        assert np.allclose(g.nodes, (np.arange(16) + 0.5) * 0.125)

    def test_from_spacing_rejects_incommensurate(self):
        with pytest.raises(ConfigError):
            Grid1D.from_spacing(1.0, 0.3)

    def test_too_few_cells(self):
        with pytest.raises(ConfigError):
            Grid1D(1.0, 8)

    def test_too_many_cells(self):
        """Refused with a named error before numpy tries to allocate the nodes."""
        Grid1D(20.0, 2**22)
        with pytest.raises(ConfigError, match="4194305 cells exceeds the limit of 4194304"):
            Grid1D(20.0, 2**22 + 1)
        with pytest.raises(ConfigError, match="inf cells"):
            Grid1D.from_spacing(1e308, 1e-300)  # round() would overflow

    def test_density_validation(self):
        g = Grid1D(2.0, 16)
        with pytest.raises(DataError):
            GridDensity1D(g, np.ones(15))
        with pytest.raises(DataError):
            GridDensity1D(g, np.full(16, np.nan))
        with pytest.raises(DomainError):
            GridDensity1D(g, np.full(16, -1.0))

    @pytest.mark.parametrize("a, b", [(0.0, 0.125), (0.0, 0.13), (0.01, 0.1)])
    def test_uniform_bounds_off_cell_edges(self, a, b):
        # midpoint sampling would give these starts mass 0.8, 1.154 and 1.111
        grid = Grid1D.from_spacing(20.0, 0.05)
        with pytest.raises(ConfigError, match=r"not cell edges of dx=0\.05"):
            uniform_density(grid, a, b)
        assert uniform_density(grid, 0.05, 0.15).mass == pytest.approx(1.0, abs=1e-12)


class TestGain:
    def test_equilibrium_fixed_point(self):
        grid = Grid1D.from_spacing(20.0, 0.005)
        q = Equilibrium(1.0).on_grid(grid)
        residual = np.max(np.abs(gain(q).values - q.values))
        assert residual <= 5 * grid.dx

    def test_equilibrium_against_quadrature_oracle(self, grid_coarse):
        q = Equilibrium(1.0).on_grid(grid_coarse)
        g = gain(q)
        for idx in np.linspace(5, grid_coarse.n_cells - 40, 10, dtype=int):
            x = grid_coarse.nodes[idx]
            oracle = gain_quadrature_oracle(lambda z: math.exp(-z), x)
            assert abs(g.values[idx] - oracle) < 5e-4

    def test_uniform_analytic_values(self, grid_fine, uniform02):
        # piecewise closed form: ln2 - x/4 on [0,2], ln(4/x) + (x-4)/4 on [2,4]
        g = gain(uniform02)
        x = grid_fine.nodes
        inner = x < 2.0
        outer = (x > 2.0) & (x < 4.0)
        assert abs(g.values[0] - (math.log(2.0) - x[0] / 4)) < 1e-4
        assert np.max(np.abs(g.values[inner] - (np.log(2.0) - x[inner] / 4))) < 1e-3
        assert np.max(np.abs(g.values[outer] - (np.log(4 / x[outer]) + (x[outer] - 4) / 4))) < 1e-3

    def test_uniform_quadrature_oracle(self):
        grid = Grid1D.from_spacing(20.0, 0.02)
        q = uniform_density(grid, 0.0, 2.0)
        g = gain(q)

        def u02(z):
            return 0.5 if 0.0 <= z < 2.0 else 0.0

        for x_target in (0.5, 1.7, 3.1):
            idx = int(x_target / grid.dx)
            oracle = gain_quadrature_oracle(u02, grid.nodes[idx])
            assert abs(g.values[idx] - oracle) < 1e-3

    def test_spike_becomes_uniform(self):
        grid = Grid1D.from_spacing(8.0, 0.01)
        q = dirac_density(grid, 2.0)
        a = q.mean
        g = gain(q)
        inside = grid.nodes < 2 * a
        assert np.max(np.abs(g.values[inside] - 1.0 / (2 * a))) < 1e-12
        assert np.all(g.values[grid.nodes > 2 * a + grid.dx] == 0.0)

    def test_mass_is_squared(self, grid_fine):
        q = compact_random_density(grid_fine, seed=3)
        sub = GridDensity1D(grid_fine, 0.95 * q.values)  # sub-probability, inside the mass gate
        assert abs(gain(sub).mass - sub.mass**2) < 1e-12

    def test_monotone_nonincreasing(self, grid_fine):
        for seed in range(5):
            q = compact_random_density(grid_fine, seed)
            g = gain(q)
            assert np.all(np.diff(g.values) <= 1e-15)

    def test_rejects_wild_mass(self, grid_fine, exp1):
        with pytest.raises(DomainError):
            gain(GridDensity1D(grid_fine, 0.5 * exp1.values))  # mass 0.5

    def test_negative_input_rejected_at_construction(self, grid_fine):
        values = np.ones(grid_fine.n_cells)
        values[3] = -0.5
        with pytest.raises(DomainError):
            GridDensity1D(grid_fine, values)

    def test_fft_matches_direct(self):
        for n_cells in (64, 256, 512):
            grid = Grid1D(20.0, n_cells)
            q = Equilibrium(1.0).on_grid(grid)
            direct = direct_self_convolution(q.values) * grid.dx
            assert np.max(np.abs(direct - self_convolution(q))) < 1e-12
            # the BLAS-free sum against BLAS, cell by cell: positive terms, relative error ~ M * eps
            reference = np.convolve(q.values, q.values) * grid.dx
            assert np.all(np.abs(direct - reference) <= 1e-12 * reference)

    @pytest.mark.parametrize(
        "cells", [list(range(5, 40)), [3, 4, 9, 30, 31, 32, 60]], ids=["interval", "gapped"]
    )
    def test_support_mask_zeroes_outside_sumset(self, cells):
        grid = Grid1D(20.0, 64)
        values = np.zeros(grid.n_cells)
        values[cells] = np.random.default_rng(5).uniform(0.5, 1.5, len(cells))
        q = GridDensity1D(grid, values)
        sumset = sorted({i + j for i in cells for j in cells})
        outside = np.setdiff1d(np.arange(2 * grid.n_cells - 1), sumset)
        for c in (self_convolution(q), direct_self_convolution(values)):
            assert np.all(c[outside] == 0.0)
            assert np.all(c[sumset] > 0.0)

    def test_refinement_halves_residual(self):
        residuals = []
        for dx in (0.01, 0.005):
            grid = Grid1D.from_spacing(20.0, dx)
            q = Equilibrium(1.0).on_grid(grid)
            residuals.append(np.max(np.abs(gain(q).values - q.values)))
        assert residuals[0] / residuals[1] >= 1.8


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts kinetic1d._fft_square calls."""
    calls = []
    square = kinetic1d._fft_square
    monkeypatch.setattr(kinetic1d, "_fft_square", lambda v: calls.append(v.size) or square(v))
    return calls


class TestConvolutionCache:
    @pytest.mark.parametrize("n_cells", [400, 8192])
    def test_record_and_next_step_share_one_fft(self, n_cells, fft_calls):
        """Each record's dissipation(q) and the next step_euler(q) convolve q once.

        D convolves by the step's FFT on every grid; an interval support
        keeps it one FFT (no indicator) per convolution. N steps and N + 1
        records convolve each of the N + 1 states once: a finite record
        convolves q and the next step reuses it, a +inf record (the hull
        rule needs no convolution) leaves it to the step, and the last
        state, positive everywhere by then, is convolved by its record.
        """
        grid = Grid1D(16.0, n_cells)
        n_steps, dt = 6, 0.1
        observer = TrajectoryObserver()
        solve(uniform_density(grid, 0.0, 2.0), n_steps * dt, dt,
              snapshot_times=np.arange(n_steps + 1) * dt, observers=(observer,))
        assert len(observer.records) == n_steps + 1
        assert len(fft_calls) == n_steps + 1

    def test_result_is_read_only(self, grid_fine, exp1):
        c = self_convolution(exp1)
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert self_convolution(exp1) is c

    def test_keyed_by_identity_not_values(self, grid_fine, fft_calls):
        """Each density keeps its own q*q: an equal-valued twin convolves again, and another density evicts none."""
        q = compact_random_density(grid_fine, seed=3)
        c = self_convolution(q)
        twin = GridDensity1D(grid_fine, q.values)  # equal values, another object
        c_twin = self_convolution(twin)
        assert c_twin is not c and np.array_equal(c_twin, c)
        other = compact_random_density(grid_fine, seed=4)
        c_other = self_convolution(other)
        assert self_convolution(q) is c and self_convolution(other) is c_other
        assert not np.array_equal(c_other, c)
        assert len(fft_calls) == 3  # one per density: no call was served another density's result


class TestRhs:
    def test_equilibrium_residual_small(self, grid_coarse):
        q = Equilibrium(1.0).on_grid(grid_coarse)
        assert np.max(np.abs(rhs(q))) <= 5 * grid_coarse.dx

    def test_integrals_vanish(self, grid_fine):
        q = compact_random_density(grid_fine, seed=11)
        r = rhs(q)
        dx = grid_fine.dx
        assert abs(np.sum(r) * dx) < 1e-12  # mass conservation
        assert abs(np.sum(grid_fine.nodes * r) * dx) < 1e-12  # mean conservation


class TestStepEuler:
    def test_fixed_point(self, exp1):
        stepped = step_euler(exp1, 0.5)
        assert np.max(np.abs(stepped.values - exp1.values)) <= 5 * exp1.grid.dx

    def test_mass_preserved_one_step(self, uniform02):
        stepped = step_euler(uniform02, 0.1)
        assert abs(stepped.mass - uniform02.mass) < 1e-12

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_dt_guard(self, uniform02, dt):
        with pytest.raises(ConfigError):
            step_euler(uniform02, dt)

    def test_dt_above_one_is_a_stability_error(self, uniform02):
        with pytest.raises(StabilityError):
            step_euler(uniform02, 1.5)

    def test_step_never_negative(self):
        # the unclipped update q + dt*(Q+[q] - q) stays >= 0 for 0 < dt <= 1
        # (proof in the step_euler docstring), including at the extremes of
        # dt and on densities with zeros and magnitudes down to 1e-300
        rng = np.random.default_rng(2104)
        grid = Grid1D(10.0, 64)
        dts = [1.0, 1.0 - 2.0**-53, np.nextafter(0.0, 1.0)]
        for _ in range(200):
            values = rng.random(grid.n_cells) * 10.0 ** rng.integers(-300, 1, grid.n_cells)
            values[rng.random(grid.n_cells) < 0.3] = 0.0
            values[rng.integers(grid.n_cells)] = 1.0
            q = GridDensity1D(grid, values).normalized()
            for dt in (*dts, rng.random()):
                assert (q.values + dt * rhs(q)).min() >= 0.0

    def test_never_negative_along_solve(self, uniform02):
        rec = Recorder()
        solve(uniform02, 2.0, 0.5, snapshot_times=np.arange(0, 2.1, 0.5), observers=(rec,))
        for snap in rec.snapshots:
            assert snap.values.min() >= 0.0


class TestSolve:
    @pytest.mark.parametrize(
        "dt, error",
        [(math.nan, ConfigError), (0.0, ConfigError), (-0.1, ConfigError), (1.5, StabilityError),
         (math.inf, StabilityError)],
    )
    def test_dt_guard(self, uniform02, dt, error):
        with pytest.raises(error):
            solve(uniform02, 1.0, dt)

    def test_horizon_shorter_than_step(self, uniform02):
        with pytest.raises(ConfigError, match="shorter than one step"):
            solve(uniform02, 0.03, 0.05)  # used to step on to t = 0.05
        rec = Recorder()
        solve(uniform02, 0.05, 0.05, observers=(rec,))
        assert rec.times == [0.0, 0.05]

    def test_equilibrium_stationary(self, exp1):
        # the normalized grid exponential is an exact discrete fixed point up
        # to the truncation leak, which the quadratic mass flow amplifies
        # like e^t: short horizons are near-exact, t = 10 stays small
        q0 = exp1.normalized()
        assert np.max(np.abs(solve(q0, 2.0, 0.05).final.values - q0.values)) < 1e-8
        assert np.max(np.abs(solve(q0, 10.0, 0.05).final.values - q0.values)) < 1e-4

    def test_uniform_relaxes_to_equilibrium(self):
        from kinex.diagnostics import wasserstein1

        # x_max = 40: the truncation leak is amplified like e^t by the
        # quadratic mass flow, so long horizons need more headroom
        grid = Grid1D.from_spacing(40.0, 0.01)
        q0 = uniform_density(grid, 0.0, 2.0)
        eq = Equilibrium(1.0).on_grid(grid).normalized()
        traj = solve(q0, 30.0, 0.05)
        assert wasserstein1(traj.final.normalized(), eq) < 1e-2

    def test_m2_matches_closed_form(self, uniform02):
        times = np.arange(0.0, 10.5, 1.0)
        rec = Recorder()
        solve(uniform02, 10.0, 0.01, snapshot_times=times, observers=(rec,))
        m2 = np.array([s.moment(2) for s in rec.snapshots])
        expected = m2_closed_form(np.array(rec.times), uniform02.mean, uniform02.moment(2))
        assert np.max(np.abs(m2 - expected) / expected) < 0.01

    def test_conservation_budgets(self, uniform02):
        traj = solve(uniform02, 10.0, 0.05)
        assert abs(traj.final.mass - uniform02.mass) < 1e-6
        assert abs(traj.final.mean - uniform02.mean) < 1e-4

    def test_snapshots_never_alias_live_state(self, uniform02):
        # densities are immutable, so a recorded snapshot can never change
        # under further stepping, and its buffer rejects writes
        rec = Recorder()
        solve(uniform02, 1.0, 0.5, snapshot_times=[0.5], observers=(rec,))
        mid = rec.snapshots[-1]
        frozen = mid.values.copy()
        solve(mid, 1.0, 0.5)
        assert np.array_equal(mid.values, frozen)
        with pytest.raises(ValueError):
            mid.values[0] = 99.0

    def test_keeps_no_density_but_the_final_one(self, uniform02, monkeypatch):
        """After solve returns, the densities alive are final and those an observer kept."""
        made = []
        init = GridDensity1D.__init__

        def tracked(self, *args):
            init(self, *args)
            made.append(weakref.ref(self))

        monkeypatch.setattr(GridDensity1D, "__init__", tracked)
        observer = TrajectoryObserver()
        kept = []

        def keep_mid(t, q):
            if abs(t - 0.5) < 1e-9:
                kept.append(q)

        traj = solve(uniform02, 1.0, 0.05, snapshot_times=np.arange(0.0, 1.01, 0.25),
                     observers=(observer, keep_mid))
        assert len(made) > 40  # each of the 20 steps makes its gain and its new state
        alive = {id(q) for q in (ref() for ref in made) if q is not None}
        assert alive == {id(traj.final), id(kept[0]), id(observer._eq)}

    def test_snapshot_window_validated(self, uniform02):
        with pytest.raises(ConfigError):
            solve(uniform02, 1.0, 0.5, snapshot_times=[2.0])


@pytest.fixture
def deadline():
    """Fails a test still running after 20 s, so a solve that never returns cannot hang the suite."""
    def hung(signum, frame):
        raise TimeoutError("the test did not finish within 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def sequential_values(q0, n_steps, dt):
    """The values of every state of a solve, stepped one after the other on this thread."""
    states = [q0]
    for _ in range(n_steps):
        states.append(step_euler(states[-1], dt))
    return [q.values for q in states]


class TestRecordThread:
    """solve runs each record on one worker thread while it takes the next Euler steps."""

    def test_records_match_a_sequential_run_and_never_overlap(self, uniform02, deadline):
        n_steps, dt, every = 40, 0.05, 4
        expected = sequential_values(uniform02, n_steps, dt)
        rec, spans, threads = Recorder(), [], set()

        def timed(t, q):
            start = time.perf_counter()
            threads.add(threading.get_ident())
            rec(t, q)
            time.sleep(0.002)  # long enough for the next steps to run beside it
            spans.append((start, time.perf_counter()))

        solve(uniform02, n_steps * dt, dt, snapshot_times=np.arange(0, n_steps + 1, every) * dt,
              observers=(timed,))
        steps = range(0, n_steps + 1, every)
        assert rec.times == [k * dt for k in steps]
        assert all(np.array_equal(q.values, expected[k]) for k, q in zip(steps, rec.snapshots))
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert len(threads) == 1 and threading.get_ident() not in threads

    def test_concurrent_solves_see_their_own_states(self, uniform02, deadline):
        """Four solves at once, switching threads every microsecond: each record holds its sequential state."""
        n_steps, dt = 20, 0.05
        expected = sequential_values(uniform02, n_steps, dt)
        recorders = [Recorder() for _ in range(4)]
        runs = [threading.Thread(target=solve, args=(uniform02, n_steps * dt, dt),
                                 kwargs={"snapshot_times": np.arange(n_steps + 1) * dt, "observers": (rec,)})
                for rec in recorders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=15)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        for rec in recorders:
            assert len(rec.snapshots) == n_steps + 1
            assert all(np.array_equal(q.values, values) for q, values in zip(rec.snapshots, expected))

    def test_record_gets_its_state_convolved(self, uniform02, monkeypatch, deadline):
        """A state that a step follows reaches its record with q*q made, so no two threads convolve it."""
        step, started, convolved = kinetic1d.step_euler, threading.Semaphore(0), []

        def step_after_record_start(q, dt):  # the step cannot convolve q before its record looks
            assert started.acquire(timeout=10)
            return step(q, dt)

        def look(t, q):
            convolved.append("self_convolution" in q._memo)
            started.release()

        monkeypatch.setattr(kinetic1d, "step_euler", step_after_record_start)
        solve(uniform02, 0.5, 0.05, snapshot_times=np.arange(11) * 0.05, observers=(look,))
        assert convolved == [True] * 10 + [False]  # the last state has no step after it

    @pytest.mark.parametrize("fail_at", [0, 3, 8])
    def test_record_error_ends_the_solve(self, uniform02, fail_at, deadline):
        """solve raises a record's error; no later record runs, and the record thread is gone."""
        class RecordError(Exception):
            pass

        seen = []

        def failing(t, q):
            seen.append(t)
            if len(seen) == fail_at + 1:
                raise RecordError(t)

        times = [k * 0.25 for k in range(9)]
        before = threading.active_count()
        with pytest.raises(RecordError) as err:
            solve(uniform02, 2.0, 0.05, snapshot_times=times, observers=(failing,))
        assert err.value.args == (times[fail_at],)
        assert seen == times[: fail_at + 1]
        assert threading.active_count() == before

    def test_record_error_beats_a_later_step_error(self, uniform02, monkeypatch, deadline):
        """The record at t = 0.25 fails after the step that follows it has failed: its error is raised."""
        class RecordError(Exception):
            pass

        class StepError(Exception):
            pass

        step, calls, stepped = kinetic1d.step_euler, [], threading.Event()

        def failing_step(q, dt):
            calls.append(dt)
            if len(calls) == 6:  # the step after the record at step 5
                stepped.set()
                raise StepError
            return step(q, dt)

        def failing_record(t, q):
            if t == 0.25:
                assert stepped.wait(10), "the next step did not run beside the record"
                raise RecordError

        monkeypatch.setattr(kinetic1d, "step_euler", failing_step)
        before = threading.active_count()
        with pytest.raises(RecordError) as err:
            solve(uniform02, 1.0, 0.05, snapshot_times=[0.0, 0.25, 0.5], observers=(failing_record,))
        assert isinstance(err.value.__context__, StepError)
        assert threading.active_count() == before

    def test_infinite_dissipation_without_catch_warnings(self, uniform02, monkeypatch):
        """A compact start's t = 0 record holds D = +inf; no record enters the process-wide catch_warnings."""
        def process_wide(*args, **kwargs):
            raise AssertionError("warnings.catch_warnings changes the filters of every thread")

        monkeypatch.setattr(diagnostics, "warnings", SimpleNamespace(warn=warnings.warn, catch_warnings=process_wide))
        observer = TrajectoryObserver()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(uniform02, 0.5, 0.05, snapshot_times=[0.0, 0.25, 0.5], observers=(observer,))
        assert [r.D == math.inf for r in observer.records] == [True, False, False]
        assert not [w for w in caught if "D[q] = +inf" in str(w.message)]


def test_density_csv_roundtrip(tmp_path, uniform02):
    path = str(tmp_path / "density.csv")
    save_density(uniform02, path)
    back = load_density(path)
    assert back.grid == uniform02.grid
    assert np.array_equal(back.values, uniform02.values)
