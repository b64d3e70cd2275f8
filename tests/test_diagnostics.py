import math

import numpy as np
import pytest
from scipy import integrate

from kinex import diagnostics as dg
from kinex import experiments as ex
from kinex.errors import ConfigError, DomainError
from kinex.kinetic1d import Equilibrium, Grid1D, GridDensity1D, gain, solve, uniform_density

from conftest import compact_random_density
from oracles import diagonal_average, dirac_density, touches_positive_diagonal
from oracles import dissipation as dissipation_oracle
from oracles.entropy import derived_densities, entropy_sandwich, phi_weighted_entropy_bound


@pytest.fixture
def grid48():
    return Grid1D(8.0, 48)


def positive_density(grid, seed, floor=0.05):
    rng = np.random.default_rng(seed)
    return GridDensity1D(grid, rng.random(grid.n_cells) + floor).normalized()


class TestRelativeEntropy:
    def test_identical_is_zero(self, exp1):
        assert dg.relative_entropy(exp1, exp1) == 0.0

    def test_exponential_pair_closed_form(self):
        # direct integral of p log(p/r) for Exp(5) against Exp(1): 4 - log 5
        grid = Grid1D.from_spacing(200.0, 0.01)
        p = Equilibrium(5.0).on_grid(grid)
        r = Equilibrium(1.0).on_grid(grid)
        expected = 4.0 - math.log(5.0)
        assert dg.relative_entropy(p, r) == pytest.approx(expected, abs=1e-5)
        oracle, _ = integrate.quad(
            lambda x: 0.2 * math.exp(-x / 5) * (math.log(0.2) + 4 * x / 5), 0, 400, limit=200
        )
        assert oracle == pytest.approx(expected, abs=1e-9)

    def test_absolute_continuity_sentinel(self, grid48):
        p = positive_density(grid48, 0)
        r_values = p.values.copy()
        r_values[10] = 0.0
        r = GridDensity1D(grid48, r_values)
        with pytest.warns(UserWarning, match="absolute continuity"):
            assert dg.relative_entropy(p, r) == math.inf

    def test_nonincreasing_along_trajectory(self, uniform02, exp1):
        traj = solve(uniform02, 5.0, 0.05, snapshot_times=np.arange(0, 5.1, 0.5))
        values = [dg.relative_entropy(s, exp1) for s in traj.snapshots]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestDissipation:
    def test_equilibrium_vanishes(self, grid48):
        q = Equilibrium(1.5).on_grid(grid48).normalized()
        assert abs(dissipation_oracle(q, "decomposed")) < 1e-10
        assert abs(dissipation_oracle(q, "brute")) < 1e-10

    def test_uniform_on_support_grid_trivial(self):
        # on its own support grid the pair density is diagonal-flat, so all
        # evaluations agree at zero exactly
        grid = Grid1D(2.0, 48)
        q = uniform_density(grid, 0.0, 2.0)
        d_dec = dissipation_oracle(q, "decomposed")
        d_bru = dissipation_oracle(q, "brute")
        assert abs(d_dec - d_bru) <= 1e-8 * max(abs(d_bru), 1e-12)
        assert abs(d_dec) < 1e-12

    def test_methods_agree_on_positive_density(self, grid48):
        x = grid48.nodes
        q = GridDensity1D(grid48, x * np.exp(-x)).normalized()
        reference = dissipation_oracle(q, "brute")
        assert reference > 0
        for method in ("decomposed", "decomposed3"):
            assert dissipation_oracle(q, method) == pytest.approx(reference, rel=1e-8)
        assert dg.dissipation(q) == pytest.approx(reference, rel=1e-8)

    def test_methods_agree_on_random_densities(self, grid48):
        for seed in range(5):
            q = positive_density(grid48, seed)
            reference = dissipation_oracle(q, "brute")
            for method in ("decomposed", "decomposed3"):
                assert dissipation_oracle(q, method) == pytest.approx(reference, rel=1e-8)
            assert dg.dissipation(q) == pytest.approx(reference, rel=1e-8)

    def test_nonnegative(self, grid48):
        assert all(dg.dissipation(positive_density(grid48, s)) >= 0 for s in range(20))

    def test_infinite_for_unreachable_support(self, grid_fine):
        q = uniform_density(grid_fine, 0.0, 2.0)  # zero beyond 2 on a [0,20] grid
        with pytest.warns(UserWarning, match="inf"):
            assert dg.dissipation(q) == math.inf

    def test_zero_cell_check_matches_index_matrix(self):
        # the hull rule against the literal formula on the exact q (x) q:
        # does any diagonal z .. z + M - 1 of a zero cell z carry positive g?
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(300):
            n = int(rng.integers(16, 65))
            v = rng.random(n) * (rng.random(n) > rng.random())
            if rng.random() < 0.5:
                v[n - 1] = 0.0  # window ends on the last diagonal 2M - 2
            cases.append(v)
        only_last = np.zeros(16)
        only_last[-1] = 1.0  # zeros everywhere, yet no zero cell sees diagonal 30
        first_two = np.zeros(16)
        first_two[:2] = 1.0  # only zero cell 2 sees a positive diagonal: its first
        cases += [only_last, first_two, np.ones(16)]
        outcomes = set()
        for v in cases:
            if not v.any():
                continue
            q = GridDensity1D(Grid1D(8.0, v.size), v)
            g, _ = diagonal_average(q)
            expected = touches_positive_diagonal(q.values, g)
            assert dg._check_positive_where_needed(q.values) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.filterwarnings("ignore:q vanishes")
    @pytest.mark.parametrize(
        "start, every",
        [(lambda grid: ex.random_positive_density(grid, 1.0, 42), 0.25),  # the golden pde run
         (lambda grid: uniform_density(grid, 0.0, 2.0), 0.05)],
        ids=["golden-random-42", "uniform-0-2"],
    )
    def test_fft_path_matches_direct_sum_oracle(self, start, every):
        """At every record, D from the one FFT and the hull rule matches the exact direct sum."""
        grid = Grid1D.from_spacing(20.0, 0.05)  # M = 400
        traj = solve(start(grid), 1.0, 0.05, snapshot_times=np.arange(0.0, 1.0 + 1e-9, every))
        library = np.array([dg.dissipation(q) for q in traj.snapshots])
        oracle = np.array([dissipation_oracle(q, "decomposed") for q in traj.snapshots])
        infinite = np.isinf(oracle)
        assert np.array_equal(np.isinf(library), infinite)
        assert infinite[0] and not infinite[-1]
        finite = ~infinite
        assert np.all(np.abs(library[finite] - oracle[finite]) <= 1e-10 * oracle[finite])


class TestPhiWeightedBound:
    def test_phi_one_gives_gain_reference(self, grid48):
        q = positive_density(grid48, 3)
        phi = np.ones(grid48.n_cells) / q.mass
        lhs, rhs = phi_weighted_entropy_bound(q, phi)
        assert lhs <= rhs + 1e-9
        # H with phi = 1 is the gain h up to the clipped corner diagonals
        h = gain(q).values
        dd = derived_densities(q)
        assert np.max(np.abs(dd.h.values - h)) == 0.0

    def test_phi_x_gives_tail_profile(self, grid48):
        q = positive_density(grid48, 4)
        phi = grid48.nodes / q.mean
        lhs, rhs = phi_weighted_entropy_bound(q, phi)
        assert lhs <= rhs + 1e-9

    def test_phi_x_weight_reproduces_m(self):
        # the weight profile built with phi = x is the tail integral of h,
        # evaluated at nodes as the mean of the adjacent edge values
        from kinex.kinetic1d import solve, uniform_density

        grid = Grid1D.from_spacing(20.0, 0.02)
        q = solve(uniform_density(grid, 0.0, 2.0), 1.0, 0.01).final.normalized()
        g, _ = diagonal_average(q)
        i = np.arange(grid.n_cells)
        H = g[i[:, None] + i[None, :]] @ (grid.nodes * grid.dx)
        dd = derived_densities(q)
        m_nodes = 0.5 * (dd.m[:-1] + dd.m[1:])
        assert np.max(np.abs(H - m_nodes)) < 1e-12

    def test_equilibrium_is_tight(self):
        grid = Grid1D.from_spacing(25.0, 0.025)
        q = Equilibrium(1.0).on_grid(grid).normalized()
        phi = np.ones(grid.n_cells) / q.mass
        lhs, rhs = phi_weighted_entropy_bound(q, phi)
        assert abs(lhs) < 1e-5 and abs(rhs) < 1e-5

    def test_random_densities_ordered(self, grid48):
        rng = np.random.default_rng(9)
        for seed in range(10):
            q = positive_density(grid48, seed + 100)
            raw = rng.random(grid48.n_cells)
            phi = raw / float(np.sum(raw * q.values) * grid48.dx)
            lhs, rhs = phi_weighted_entropy_bound(q, phi)
            assert lhs <= rhs + 1e-9

    def test_size_guard(self):
        q = Equilibrium(1.0).on_grid(Grid1D(20.0, 4096))
        with pytest.raises(ConfigError, match="O\\(M\\^2\\)"):
            phi_weighted_entropy_bound(q, np.ones(q.grid.n_cells) / q.mass)

    def test_normalization_guard(self, grid48):
        q = positive_density(grid48, 5)
        with pytest.raises(DomainError):
            phi_weighted_entropy_bound(q, np.ones(grid48.n_cells) * 3.0)


class TestEntropySandwich:
    def test_equal_measures_all_zero(self, grid48):
        q = positive_density(grid48, 0)
        lower, middle, upper = entropy_sandwich(q, q, 2.0)
        assert lower == middle == upper == 0.0

    def test_exponential_pair_regional_oracle(self):
        grid = Grid1D.from_spacing(60.0, 0.01)
        mu = Equilibrium(2.0).on_grid(grid).normalized()
        nu = Equilibrium(1.0).on_grid(grid).normalized()
        lower, middle, upper = entropy_sandwich(mu, nu, 2.0)
        assert lower <= middle <= upper
        # independent regional evaluation
        m, v, dx = mu.values, nu.values, grid.dx
        r = m / v
        low, high = r < 0.5, r > 2.0
        mid = ~(low | high)
        tail = np.where(m > 0, m * np.log(np.where(m > 0, r, 1.0)), 0.0)
        lower_oracle = ((m - v)[mid] ** 2 / v[mid]).sum() / 4 * dx + v[low].sum() / 8 * dx + tail[high].sum() / 4 * dx
        upper_oracle = ((m - v)[mid] ** 2 / v[mid]).sum() * dx + v[low].sum() * dx + tail[high].sum() * dx
        assert lower == pytest.approx(lower_oracle, rel=1e-12)
        assert upper == pytest.approx(upper_oracle, rel=1e-12)
        assert middle == pytest.approx(1 - math.log(2), rel=1e-3)  # entropy of Exp(2) vs Exp(1)

    def test_random_pairs_never_violated(self, grid48):
        rng = np.random.default_rng(77)
        for _ in range(200):
            mu = positive_density(grid48, int(rng.integers(1 << 30)))
            nu = positive_density(grid48, int(rng.integers(1 << 30)))
            c = float(rng.uniform(2.0, 6.0))
            lower, middle, upper = entropy_sandwich(mu, nu, c)
            assert lower <= middle + 1e-12 <= upper + 2e-12

    def test_c_guard(self, grid48):
        q = positive_density(grid48, 1)
        with pytest.raises(DomainError):
            entropy_sandwich(q, q, 1.5)


class TestLaplace:
    def test_exponential_closed_form(self):
        grid = Grid1D.from_spacing(40.0, 0.005)
        q = Equilibrium(1.0).on_grid(grid).normalized()
        lams, G = dg.laplace_profile(q, 0.6, 1.0)
        # F = 1/(1 - lam) so (1 - lam) F is identically one
        assert np.max(np.abs(G - 1.0)) < 1e-4

    def test_sup_bounded_along_trajectory(self, uniform02):
        traj = solve(uniform02, 8.0, 0.05, snapshot_times=np.arange(0, 8.1, 0.5))
        sups = [dg.laplace_check(s, 0.6, 1.0) for s in traj.snapshots]
        assert max(sups) <= 1.0 + 5e-3

    def test_concentrated_mass_strictly_below_one(self, grid_fine):
        q = dirac_density(grid_fine, 0.1)
        lams, G = dg.laplace_profile(q, 0.6, 1.0)
        assert np.all(G[1:] < 1.0)  # strict for every positive lambda

    def test_config_guard(self, exp1):
        with pytest.raises(ConfigError):
            dg.laplace_check(exp1.normalized(), 0.6, 2.0)  # C * lam0 >= 1


class TestWasserstein:
    def test_point_masses(self):
        assert dg.wasserstein1(np.array([3.0]), np.array([7.5])) == 4.5
        assert dg.wasserstein2(np.array([3.0]), np.array([7.5])) == 4.5

    def test_identical_zero(self, exp1):
        q = exp1.normalized()
        assert dg.wasserstein1(q, q) == 0.0
        assert dg.wasserstein2(q, q) == 0.0

    def test_exponential_pair_value(self):
        # integral of the CDF gap between Exp(2) and Exp(1) is exactly 1
        grid = Grid1D.from_spacing(60.0, 0.005)
        p = Equilibrium(1.0).on_grid(grid).normalized()
        r = Equilibrium(2.0).on_grid(grid).normalized()
        assert dg.wasserstein1(p, r) == pytest.approx(1.0, abs=1e-4)

    def test_translation_is_shift(self):
        grid = Grid1D.from_spacing(30.0, 0.01)
        q = Equilibrium(1.0).on_grid(grid).normalized()
        shifted = np.concatenate((np.zeros(250), q.values[:-250]))
        qs = GridDensity1D(grid, shifted).normalized()
        assert dg.wasserstein2(q, qs) == pytest.approx(2.5, abs=1e-6)

    def test_triangle_inequality_on_samples(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b, c = (rng.exponential(1.0, 60) for _ in range(3))
            assert dg.wasserstein1(a, c) <= dg.wasserstein1(a, b) + dg.wasserstein1(b, c) + 1e-12

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        a, b = rng.exponential(1.0, 100), rng.exponential(2.0, 80)
        assert dg.wasserstein1(a, b) == pytest.approx(dg.wasserstein1(b, a), rel=1e-12)
        assert dg.wasserstein1(a, b) > 0

    def test_sample_against_grid(self):
        rng = np.random.default_rng(6)
        samples = rng.exponential(1.0, 100_000)
        grid = Grid1D.from_spacing(40.0, 0.005)
        q = Equilibrium(1.0).on_grid(grid).normalized()
        assert dg.wasserstein1(samples, q) < 0.02
        # W2 against a 1e5-atom staircase converges slowly in the u-grid
        # (heavy-tail quantile wiggles); the half-resolution check flags it
        with pytest.warns(UserWarning, match="u-grid not converged"):
            assert dg.wasserstein2(samples, q) < 0.05

    def test_w2_grid_pair_needs_no_warning(self, recwarn):
        grid = Grid1D.from_spacing(40.0, 0.005)
        p = Equilibrium(1.0).on_grid(grid).normalized()
        r = Equilibrium(1.3).on_grid(grid).normalized()
        assert dg.wasserstein2(p, r) == pytest.approx(0.3 * math.sqrt(2), rel=1e-3)
        assert not [w for w in recwarn if "u-grid" in str(w.message)]

    def test_mass_guard(self, grid_fine):
        bad = GridDensity1D(grid_fine, np.full(grid_fine.n_cells, 0.01))
        with pytest.raises(DomainError):
            dg.wasserstein1(bad, bad)
        with pytest.raises(DomainError):  # bad's measure is cached now and checked again
            dg.wasserstein2(bad, bad)

    def test_reused_equilibrium_matches_fresh_bit_for_bit(self, uniform02, monkeypatch):
        """W1 and W2 against one reused equilibrium equal those against a new one, exactly."""
        grid = uniform02.grid
        snapshots = solve(uniform02, 1.5, 0.05, snapshot_times=(0.5, 1.0, 1.5)).snapshots
        fresh = []
        for q in snapshots:
            eq_new = Equilibrium(1.0).on_grid(grid).normalized()
            fresh.append((dg.wasserstein1(q, eq_new), dg.wasserstein2(q, eq_new)))
        built = []
        measure = dg._Measure
        monkeypatch.setattr(dg, "_Measure", lambda obj: built.append(obj) or measure(obj))
        eq = Equilibrium(1.0).on_grid(grid).normalized()
        for q, expected in zip(snapshots, fresh):
            assert (dg.wasserstein1(q, eq), dg.wasserstein2(q, eq)) == expected
        assert sum(obj is eq for obj in built) == 1  # its CDF and quantiles were built once

    def test_measure_cache_is_keyed_by_identity(self, exp1):
        q = exp1.normalized()
        measure = dg._density_measure(q)
        assert dg._density_measure(q) is measure
        assert dg._density_measure(GridDensity1D(q.grid, q.values)) is not measure
        assert len(dg._recent_measures) == dg._MEASURE_SLOTS


class TestEntropyDissipationIdentity:
    def test_derivative_matches_quarter_d(self):
        grid = Grid1D.from_spacing(20.0, 0.05)
        q0 = uniform_density(grid, 0.0, 2.0)
        times = np.arange(0.4, 2.21, 0.1)
        traj = solve(q0, 2.3, 0.005, snapshot_times=times)
        eq = Equilibrium(1.0).on_grid(grid)
        entropy = np.array([dg.relative_entropy(s, eq) for s in traj.snapshots])
        ts = np.asarray(traj.times)
        dissip = np.array([dissipation_oracle(s, "decomposed") for s in traj.snapshots])
        fd = (entropy[2:] - entropy[:-2]) / (ts[2:] - ts[:-2])
        rel = np.abs(fd + dissip[1:-1] / 4) / (dissip[1:-1] / 4)
        assert np.max(rel) < 0.02


class TestDerivedDensities:
    def test_profiles_monotone_and_normalized(self, grid_fine):
        q = compact_random_density(grid_fine, seed=21)
        dd = derived_densities(q)
        assert np.all(np.diff(dd.h.values) <= 1e-15)
        assert np.all(np.diff(dd.m) <= 1e-15)
        assert np.all(np.diff(dd.m, 2) >= -1e-12)  # convex
        assert dd.m[0] == pytest.approx(dd.h.mass, abs=1e-12)
        assert dd.h.mean == pytest.approx(q.mean * q.mass, rel=1e-12)

    def test_tail_entropy_identity(self):
        # integral of h log(h/m) equals integral of h log(h e^x) for mean-1
        # input; needs a fine grid since both sides carry O(dx^2) error
        grid = Grid1D.from_spacing(30.0, 1e-4)
        x = grid.nodes
        q = GridDensity1D(grid, 4 * x * np.exp(-2 * x))  # mean 1, smooth
        dd = derived_densities(q)
        h = dd.h.values
        m_nodes = 0.5 * (dd.m[:-1] + dd.m[1:])
        dx = grid.dx
        lhs = float(np.sum(h * np.log(np.maximum(h, 1e-300) / np.maximum(m_nodes, 1e-300))) * dx)
        rhs = float(np.sum(h * (np.log(np.maximum(h, 1e-300)) + x)) * dx)
        assert abs(lhs - rhs) < 1e-8


class TestEepStudy:
    def test_equilibrium_skips_fit(self):
        grid = Grid1D.from_spacing(20.0, 0.02)
        q = Equilibrium(1.0).on_grid(grid).normalized()
        observer = dg.TrajectoryObserver(wasserstein=False)
        solve(q, 1.0, 0.05, snapshot_times=[0.0, 0.5, 1.0], observers=(observer,))
        study = dg.eep_study(observer.records)
        assert study.theta_hat is None

    def test_positive_association_from_uniform(self, uniform02):
        observer = dg.TrajectoryObserver(wasserstein=False)
        solve(uniform02, 10.0, 0.05, snapshot_times=np.arange(0, 10.1, 0.5), observers=(observer,))
        study = dg.eep_study(observer.records)
        assert study.theta_hat is not None and study.theta_hat > 0
        assert study.n_dropped >= 1  # the compact start has infinite dissipation
        assert np.all(np.diff(study.entropies) < 0)


def test_records_csv(tmp_path):
    rec = dg.DiagnosticsRecord(0.0, 1.0, 1.0, 2.0, 0.1, 0.4, 0.01, 0.02, 1.0, 0.0)
    path = tmp_path / "records.csv"
    dg.write_records_csv([rec], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(dg.RECORD_COLUMNS)
    assert [float(tok) for tok in lines[1].split(",")] == rec.row()


def test_observer_scales_laplace_with_mean():
    # a mean-5 run must not blow up the damped transform: parameters scale
    from kinex.experiments import random_positive_density

    grid = Grid1D.from_spacing(100.0, 0.05)
    q0 = random_positive_density(grid, 5.0, seed=3)
    observer = dg.TrajectoryObserver(wasserstein=False)
    solve(q0, 4.0, 0.05, snapshot_times=np.arange(0.0, 4.1, 1.0), observers=(observer,))
    sups = [r.laplace_sup for r in observer.records]
    assert max(sups) <= 1.0 + 5e-3
    assert observer.lam0 == pytest.approx(0.12)
    assert observer.laplace_C == pytest.approx(5.0, rel=1e-6)


def test_observer_reads_one_cdf_per_record(uniform02, monkeypatch):
    """The mass check, W1 and W2 of a record share one CDF of q; the equilibrium's is built once."""
    calls = []
    cdf_points = GridDensity1D.cdf_points
    monkeypatch.setattr(GridDensity1D, "cdf_points", lambda q: calls.append(q) or cdf_points(q))
    monkeypatch.setattr(dg, "_recent_measures", (), raising=False)
    observer = dg.TrajectoryObserver()
    solve(uniform02, 1.0, 0.05, snapshot_times=np.arange(0.0, 1.01, 0.25), observers=(observer,))
    assert len(observer.records) == 5
    assert len(calls) == 5 + 1
