"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion pins its tolerance and its runtime budget. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time
import warnings

import numpy as np
import pytest

from kinex import diagnostics as dg
from kinex import experiments as ex
from kinex import particle as pt
from kinex.kinetic1d import (
    Equilibrium,
    Grid1D,
    GridDensity1D,
    gain,
    solve,
    uniform_density,
)

from conftest import Recorder
from oracles import dissipation as dissipation_oracle
from oracles import gap_ratio_quadrature
from oracles import spectral as sp
from oracles.entropy import entropy_sandwich
from oracles.moments import MomentVector, integrate_moments, m2_closed_form, relaxation_rate


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"{label}: {elapsed:.1f}s over budget {self.seconds}s"
        return elapsed


def report(number, label, elapsed):
    print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {label}")


def test_criterion_01_equilibrium_fixed_point():
    budget = Budget(10)
    residuals = {}
    for dx in (0.005, 0.0025):
        grid = Grid1D.from_spacing(20.0, dx)
        q = Equilibrium(1.0).on_grid(grid)
        residuals[dx] = float(np.max(np.abs(gain(q) - q.values)))
    assert residuals[0.005] <= 5 * 0.005
    assert residuals[0.005] / residuals[0.0025] >= 1.8
    report(1, f"gain fixed point residual {residuals[0.005]:.2e} <= 5dx, refinement x{residuals[0.005]/residuals[0.0025]:.2f}", budget.check("c1"))


def test_criterion_02_moment_law_three_ways():
    budget = Budget(120)
    targets = (1.0, 3.0, 10.0)
    expected = {t: m2_closed_form(t, 10.0, 100.0) for t in targets}

    # moment ODE
    series = integrate_moments(MomentVector.of_dirac(10.0, 2), 10.0, 0.01)
    for t in targets:
        idx = int(round(t / 0.01))
        assert abs(series.component(2)[idx] - expected[t]) / expected[t] < 0.01

    # PDE: grid chosen so that x = 10 is a cell midpoint (dx = 20/399)
    grid = Grid1D(200.0, 3990)
    values = np.zeros(grid.n_cells)
    values[199] = 1.0 / grid.dx
    assert grid.nodes[199] == pytest.approx(10.0, abs=1e-12)
    rec = Recorder()
    solve(GridDensity1D(grid, values), 10.0, 0.01, snapshot_times=targets, observers=(rec,))
    for t, snap in zip(rec.times, rec.snapshots):
        assert abs(snap.moment(2) - expected[round(t, 6)]) / expected[round(t, 6)] < 0.01

    # particle ensemble: 100 independent runs at N = 1000
    values = np.empty((100, 3))
    for r, seq in enumerate(pt.spawn_seeds(2024, 100)):
        config = pt.SimConfig(
            n_agents=1000, t_final=10.0, seed=int(seq.generate_state(1)[0]), snapshot_times=targets
        )
        run = pt.simulate(config, pt.make_initial("constant:10", 1000))
        values[r] = [s.moment(2) for s in run.snapshots]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / 10.0
    for k, t in enumerate(targets):
        assert abs(mean[k] - expected[t]) <= 3 * se[k]
    report(2, "m2(t) = 200 - 100 exp(-t/3) via ODE, PDE (1%), ensemble (3 SE)", budget.check("c2"))


def test_criterion_03_moment_relaxation_rates():
    budget = Budget(1)
    for k in (2, 3, 4):
        start = MomentVector.of_equilibrium(1.0, k).values.copy()
        start[k] *= 1.5
        series = integrate_moments(MomentVector(start), 6.0, 0.005)
        gap = np.abs(series.component(k) - math.factorial(k))
        rate = -np.polyfit(series.times, np.log(gap), 1)[0]
        assert abs(rate - relaxation_rate(k)) <= 0.02 * relaxation_rate(k)
    report(3, "moment relaxation rates (k-1)/(k+1) within 2% for k = 2, 3, 4", budget.check("c3"))


def test_criterion_04_spectral_gap():
    budget = Budget(30)
    mode2 = sp.LaguerreSpectrum.single_mode(2)
    assert abs(sp.gap_ratio(mode2) - 3.0) < 1e-10
    assert abs(gap_ratio_quadrature(mode2) - 3.0) < 1e-6
    rng = np.random.default_rng(17)
    coeffs = np.zeros((10_000, 20))
    coeffs[:, 2:] = rng.standard_normal((10_000, 18))
    n = np.arange(20)
    ratios = (coeffs**2).sum(axis=1) / (coeffs**2 / (n + 1)).sum(axis=1)
    assert ratios.min() >= 3.0
    for row in coeffs[::500]:
        assert sp.gap_ratio(sp.LaguerreSpectrum(row)) >= 3.0
    report(4, f"gap ratio 3 at the quadratic mode; 10^4 random spectra >= 3 (min {ratios.min():.4f})", budget.check("c4"))


def test_criterion_05_linearized_decay():
    budget = Budget(60)
    matrix = sp.operator_matrix()
    off = matrix - np.diag(np.diag(matrix))
    assert np.max(np.abs(off)) < 1e-8  # mandatory gate for n, m <= 8
    assert sp.diagonal_action_gate()
    mode2 = sp.LaguerreSpectrum.single_mode(2)
    for t in (0.5, 1.0, 3.0, 7.0):
        norm = sp.evolve_linearized(mode2, t).norm()
        assert abs(norm - math.exp(-t / 3.0)) < 1e-8
    report(5, f"diagonal gate (max offdiag {np.max(np.abs(off)):.1e}) and exp(-t/3) decay to 1e-8", budget.check("c5"))


def test_criterion_06_w2_contraction():
    budget = Budget(300)
    grid = Grid1D.from_spacing(20.0, 0.01)
    q0 = uniform_density(grid, 0.0, 2.0)
    equilibrium = Equilibrium(1.0).on_grid(grid).normalized()
    times = np.arange(0.0, 20.1, 0.5)
    rec = Recorder()
    solve(q0, 20.0, 0.02, snapshot_times=times, observers=(rec,))
    w0 = dg.wasserstein2(q0, equilibrium)
    worst = 0.0
    for t, snap in zip(rec.times, rec.snapshots):
        ratio = dg.wasserstein2(snap.normalized(), equilibrium) / (w0 * math.exp(-t / 6.0))
        worst = max(worst, ratio)
    assert worst <= 1.05

    n = 100_000
    primary = pt.make_initial("constant:6", n)
    pairs = pt.CoupledPairs.build(primary, 5.0, seed=11)
    config = pt.SimConfig(
        n_agents=n, t_final=10.0, seed=11, snapshot_times=tuple(np.arange(0.0, 10.25, 0.25))
    )
    series = pt.simulate_coupled(config, pairs)
    decaying = series.decaying_part()
    rate = -np.polyfit(series.times, np.log(decaying), 1)[0]
    assert 0.30 <= rate <= 0.36
    report(6, f"W2 envelope ratio {worst:.3f} <= 1.05; coupled msd rate {rate:.4f} in [0.30, 0.36]", budget.check("c6"))


def test_criterion_07_entropy_dissipation_identity():
    budget = Budget(300)
    grid = Grid1D.from_spacing(20.0, 0.05)  # M = 400
    q0 = uniform_density(grid, 0.0, 2.0)
    times = np.arange(0.4, 5.11, 0.1)
    rec = Recorder()
    solve(q0, 5.2, 0.005, snapshot_times=times, observers=(rec,))
    eq = Equilibrium(1.0).on_grid(grid)
    entropy = np.array([dg.relative_entropy(s, eq) for s in rec.snapshots])
    ts = np.asarray(rec.times)
    dissip = np.array([dissipation_oracle(s, "decomposed") for s in rec.snapshots])
    fd = (entropy[2:] - entropy[:-2]) / (ts[2:] - ts[:-2])
    inner = (ts[1:-1] >= 0.5) & (ts[1:-1] <= 5.0)
    rel = np.abs(fd + dissip[1:-1] / 4.0) / (dissip[1:-1] / 4.0)
    assert np.max(rel[inner]) < 0.02

    grid48 = Grid1D(8.0, 48)
    x = grid48.nodes
    q = GridDensity1D(grid48, x * np.exp(-x)).normalized()
    brute = dissipation_oracle(q, "brute")
    decomposed = dissipation_oracle(q, "decomposed")
    assert abs(decomposed - brute) / brute < 1e-8
    report(7, f"d/dt entropy = -D/4 within {100*np.max(rel[inner]):.2f}%; methods agree to {abs(decomposed-brute)/brute:.1e}", budget.check("c7"))


def test_criterion_08_entropy_monotone_reference_run():
    budget = Budget(300)
    result = ex.entropy_decay_study(seed=42)
    assert result.params == {"seed": 42, "m1": 5.0, "dt": 0.05, "dx": 0.01, "t_final": 10.0}
    assert result.checks["entropy_strictly_decreasing"]["passed"]
    r2 = result.checks["semilog_fit_r2"]["r2"]
    assert r2 > 0.95
    report(8, f"entropy strictly decreasing at dt=0.05 dx=0.01 m1=5; semilog R^2 = {r2:.4f}", budget.check("c8"))


def test_criterion_09_histogram_reproduction():
    budget = Budget(120)
    result = ex.figure1_reproduction(seed=0)
    assert result.passed, result.checks
    w1 = result.checks["w1_vs_exponential"]["value"]
    m2 = result.checks["second_moment_band"]["value"]
    assert w1 < 0.2
    assert abs(result.checks["mean_conserved"]["value"] - 10.0) < 1e-9
    assert 190.0 <= m2 <= 210.0
    report(9, f"N=10^4 T=1000: W1 = {w1:.3f} < 0.2, mean = 10, m2 = {m2:.1f}", budget.check("c9"))


def test_criterion_10_propagation_of_chaos():
    budget = Budget(600)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = ex.chaos_scaling(seed=5, n_list=(100, 1000, 10_000), replicas=20, t_eval=5.0)
    check = result.checks["w1_decreasing_in_n"]
    assert check["passed"], check
    means = check["means"]
    report(10, f"E[W1] strictly decreasing with separated bands: {means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}", budget.check("c10"))


def test_criterion_11_pairwise_solver():
    budget = Budget(60)
    from oracles import kinetic2d as k2

    grid = Grid1D.from_spacing(20.0, 0.1)
    rng = np.random.default_rng(8)
    f0 = k2.PairDensityGrid(grid, rng.random((grid.n_cells, grid.n_cells)))

    once = k2.lplus(f0)
    assert np.max(np.abs(k2.lplus(once).values - once.values)) < 1e-12

    before = k2.DiagonalProfile(f0).interior()
    after = k2.DiagonalProfile(k2.step2d(f0, 0.3)).interior()
    g_drift = float(np.max(np.abs(after - before) / np.maximum(before, 1e-300)))
    assert g_drift < 1e-10

    f, target, dt = f0, once, 0.01
    times, sups = [], []
    for step in range(1, 151):
        f = k2.step2d(f, dt)
        times.append(step * dt)
        sups.append(np.max(np.abs(f.values - target.values)))
    rate = -np.polyfit(times, np.log(sups), 1)[0]
    assert abs(rate - 1.0) <= 0.05

    grid32 = Grid1D(4.0, 32)
    sym_gap = 0.0
    for _ in range(10):
        phi = rng.standard_normal((32, 32))
        psi = rng.standard_normal((32, 32))
        lhs, rhs = k2.micro_reversibility_check(phi, psi, grid32)
        sym_gap = max(sym_gap, abs(lhs - rhs))
    assert sym_gap < 1e-12
    report(11, f"g drift {g_drift:.1e}; decay rate {rate:.3f}; projector and kernel symmetric to 1e-12", budget.check("c11"))


def test_criterion_12_property_suites():
    budget = Budget(120)
    grid48 = Grid1D(8.0, 48)
    rng = np.random.default_rng(99)
    for _ in range(1000):
        mu = GridDensity1D(grid48, rng.random(48) + 0.02).normalized()
        nu = GridDensity1D(grid48, rng.random(48) + 0.02).normalized()
        c = float(rng.uniform(2.0, 8.0))
        lower, middle, upper = entropy_sandwich(mu, nu, c)
        assert lower <= middle + 1e-12 <= upper + 2e-12

    grid = Grid1D.from_spacing(20.0, 0.01)
    q0 = uniform_density(grid, 0.0, 2.0)
    rec = Recorder()
    solve(q0, 8.0, 0.05, snapshot_times=np.arange(0.0, 8.1, 0.5), observers=(rec,))
    worst_g = 0.0
    for snap in rec.snapshots:
        worst_g = max(worst_g, dg.laplace_check(snap, 0.6, 1.0))
        h = gain(snap)
        assert np.all(np.diff(h) <= 1e-15)
    assert worst_g <= 1.0 + 5e-3
    report(12, f"10^3 entropy sandwiches ordered; sup G = {worst_g:.5f} <= 1.005; h monotone at every snapshot", budget.check("c12"))


def test_criterion_13_eep_artifact():
    # replaces the unattainable constants of the entropy-entropy dissipation
    # inequality: the study must exist, report a finite fitted exponent, and
    # its (entropy, D) table must be monotone along the trajectory
    budget = Budget(300)
    result = ex.entropy_decay_study(seed=42)
    info = result.checks["eep_exponent_finite"]
    assert info["passed"]
    rows = [r for r in result.series_rows if math.isfinite(r[2])]
    entropy = np.array([r[1] for r in rows])
    dissip = np.array([r[2] for r in rows])
    assert np.all(np.diff(entropy) < 0)
    assert np.all(np.diff(dissip) < 0)
    report(13, f"entropy-dissipation study: theta_hat = {info['theta_hat']:.3f}, table monotone", budget.check("c13"))
