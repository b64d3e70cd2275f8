import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from kinex import diagnostics as dg
from kinex import experiments as ex
from kinex.errors import ConfigError, DomainError, KinexError
from kinex.kinetic1d import Equilibrium, Grid1D, GridDensity1D, gain, solve, uniform_density

from conftest import Recorder, compact_random_density
from oracles import diagonal_average, dirac_density, touches_positive_diagonal
from oracles import dissipation as dissipation_oracle
from oracles import records as plain
from oracles import wasserstein as w2_oracle
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
        rec = Recorder()
        solve(uniform02, 5.0, 0.05, snapshot_times=np.arange(0, 5.1, 0.5), observers=(rec,))
        values = [dg.relative_entropy(s, exp1) for s in rec.snapshots]
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

    def test_negative_within_rounding_bound_reads_zero(self, grid48, monkeypatch):
        """The bound is 2 * eps * M * size: a negative D just inside reads 0, one just past raises."""
        q = positive_density(grid48, 0)
        unit = np.finfo(float).eps * q.grid.n_cells * 30.0
        monkeypatch.setattr(dg, "_diagonal_sums", lambda q: (-1.98 * unit, 30.0))
        assert dg.dissipation(q) == 0.0
        monkeypatch.setattr(dg, "_diagonal_sums", lambda q: (-2.02 * unit, 30.0))
        with pytest.raises(KinexError, match="negative"):
            dg.dissipation(q)

    def test_equilibrium_rounding_negative_reads_zero(self, grid48):
        """At equilibrium t1 and t2 are themselves rounding-level: D's bound scales with the four terms."""
        q = Equilibrium(1.5).on_grid(grid48).normalized()
        value, size = dg._diagonal_sums(q)
        assert value < 0 and size > 1.0
        assert dg.dissipation(q) == 0.0

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
        rec = Recorder()
        solve(start(grid), 1.0, 0.05, snapshot_times=np.arange(0.0, 1.0 + 1e-9, every), observers=(rec,))
        library = np.array([dg.dissipation(q) for q in rec.snapshots])
        oracle = np.array([dissipation_oracle(q, "decomposed") for q in rec.snapshots])
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
        h = gain(q)
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
        q = solve(uniform_density(grid, 0.0, 2.0), 1.0, 0.01).normalized()
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
        rec = Recorder()
        solve(uniform02, 8.0, 0.05, snapshot_times=np.arange(0, 8.1, 0.5), observers=(rec,))
        sups = [dg.laplace_check(s, 0.6, 1.0) for s in rec.snapshots]
        assert max(sups) <= 1.0 + 5e-3

    def test_concentrated_mass_strictly_below_one(self, grid_fine):
        q = dirac_density(grid_fine, 0.1)
        lams, G = dg.laplace_profile(q, 0.6, 1.0)
        assert np.all(G[1:] < 1.0)  # strict for every positive lambda

    def test_config_guard(self, exp1):
        with pytest.raises(ConfigError):
            dg.laplace_check(exp1.normalized(), 0.6, 2.0)  # C * lam0 >= 1
        with pytest.raises(ConfigError):
            dg.laplace_check(exp1.normalized(), 0.0, 1.0)

    def test_lam0_above_one_when_damping_allows(self):
        """The observer's range for a mean below 0.6: lam0 = 0.6/m1 > 1 with C = m1."""
        q = Equilibrium(0.5).on_grid(Grid1D.from_spacing(20.0, 0.01)).normalized()
        lams, G = dg.laplace_profile(q, 1.2, 0.5)
        assert lams[-1] == 1.2 and np.max(np.abs(G - 1.0)) < 1e-3


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
        # a 1e5-atom staircase against the grid: exact, as the merged breakpoints are
        w2 = dg.wasserstein2(samples, q)
        assert w2 < 0.05 and w2 == pytest.approx(w2_oracle.wasserstein2(samples, q), rel=1e-12)

    def test_w2_exponential_pair_value(self):
        # W2 between Exp(1) and Exp(1.3) is 0.3 * sqrt(2): the quantiles differ by 0.3 * (-log(1 - u))
        grid = Grid1D.from_spacing(40.0, 0.005)
        p = Equilibrium(1.0).on_grid(grid).normalized()
        r = Equilibrium(1.3).on_grid(grid).normalized()
        assert dg.wasserstein2(p, r) == pytest.approx(0.3 * math.sqrt(2), rel=1e-3)

    def test_mass_guard(self, grid_fine):
        bad = GridDensity1D(grid_fine, np.full(grid_fine.n_cells, 0.01))
        with pytest.raises(DomainError):
            dg.wasserstein1(bad, bad)
        with pytest.raises(DomainError):  # the first argument's measure is built and checked per call
            dg.wasserstein2(bad, bad)

    def test_w2_refuses_a_sample_whose_second_moment_overflows(self, exp1):
        huge = np.array([1e200, 2e200, 3e200])
        for p, r in ((huge, exp1.normalized()), (exp1.normalized(), huge), (huge, huge)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's overflow warning would raise here, before the refusal
                with pytest.raises(DomainError, match="finite second moments"):
                    dg.wasserstein2(p, r)

    def test_reused_equilibrium_matches_fresh_bit_for_bit(self, uniform02, monkeypatch):
        """W1 and W2 against one reused equilibrium equal those against a new one, exactly."""
        grid = uniform02.grid
        rec = Recorder()
        solve(uniform02, 1.5, 0.05, snapshot_times=(0.5, 1.0, 1.5), observers=(rec,))
        snapshots = rec.snapshots
        fresh = []
        for q in snapshots:
            eq_new = Equilibrium(1.0).on_grid(grid).normalized()
            fresh.append((dg.wasserstein1(q, eq_new), dg.wasserstein2(q, eq_new)))
        built = []
        measure = dg._Measure
        monkeypatch.setattr(dg, "_Measure", lambda obj: built.append(obj) or measure(obj))
        eq = Equilibrium(1.0).on_grid(grid).normalized()
        for q, expected in zip(snapshots, fresh):
            q._memo["measure"] = dg._Measure(q)  # one CDF of q for both, as a record shares it
            assert (dg.wasserstein1(q, eq), dg.wasserstein2(q, eq)) == expected
            del q._memo["measure"]
        assert sum(obj is eq for obj in built) == 1  # its CDF was built once
        assert all(sum(obj is q for obj in built) == 1 for q in snapshots)

    def test_measure_cache_is_keyed_by_identity(self, exp1):
        """A reference keeps its measure in its own memo, which either side reads; a new density builds its own."""
        q = exp1.normalized()
        assert dg._measure(q) is not dg._measure(q)  # not kept without keep
        measure = dg._measure(q, keep=True)
        assert dg._measure(q, keep=True) is measure and q._memo["measure"] is measure
        assert dg._measure(GridDensity1D(q.grid, q.values), keep=True) is not measure
        assert dg._measure(q) is measure


@pytest.fixture(scope="module")
def contraction_states():
    """The contraction study's PDE route at t = 0, 5 and 20, normalized, and its equilibrium."""
    grid = Grid1D.from_spacing(20.0, 0.01)
    rec = Recorder()
    solve(uniform_density(grid, 0.0, 2.0), 20.0, 0.02, snapshot_times=(0.0, 5.0, 20.0), observers=(rec,))
    return [q.normalized() for q in rec.snapshots], Equilibrium(1.0).on_grid(grid).normalized()


class TestW2ClosedForm:
    """W2 equals the independent merge of oracles.wasserstein to 1e-12 relative."""

    def test_contraction_route(self, contraction_states):
        states, eq = contraction_states
        assert np.count_nonzero(states[0].values == 0) == 1800  # the uniform[0, 2] start
        for q in states:
            assert dg.wasserstein2(q, eq) == pytest.approx(w2_oracle.wasserstein2(q, eq), rel=1e-12)

    def test_pde_start_with_zero_cells_and_a_flat_top(self):
        grid = Grid1D.from_spacing(100.0, 0.01)  # the pde reference run, M = 10^4
        q0 = ex.random_positive_density(grid, 5.0, 19)
        rec = Recorder()
        solve(q0, 2.0, 0.05, snapshot_times=(2.0,), observers=(rec,))
        q2 = rec.snapshots[0]
        eq = Equilibrium(q0.mean).on_grid(grid).normalized()
        assert np.count_nonzero(q0.values == 0) > 2900
        cum = q2.cdf_points()[1]
        assert np.count_nonzero(cum / cum[-1] == 1.0) > 900  # F reaches 1.0 well before x_max
        for q in (q0, q2):
            assert dg.wasserstein2(q, eq) == pytest.approx(w2_oracle.wasserstein2(q, eq), rel=1e-12)

    def test_samples_and_another_grid(self, exp1):
        rng = np.random.default_rng(11)
        a, b, q = rng.exponential(1.0, 1000), rng.exponential(1.3, 700), exp1.normalized()
        other = Equilibrium(1.2).on_grid(Grid1D(25.0, 700)).normalized()
        for p, r in ((a, q), (q, a), (a, b), (b, a), (a, a[::-1]), (q, other), (other, a)):
            assert dg.wasserstein2(p, r) == pytest.approx(w2_oracle.wasserstein2(p, r), rel=1e-12, abs=0.0)

    def test_the_midpoint_rule_is_no_oracle(self, contraction_states):
        """The u-grid midpoint rule W2 used before approaches the closed form from below, slowly."""
        q, eq = contraction_states[0][-1], contraction_states[1]
        exact = dg.wasserstein2(q, eq)
        grids = [w2_oracle.midpoint_wasserstein2(q, eq, 1 << k) for k in (16, 18, 20, 22)]
        assert grids == sorted(grids) and grids[-1] < exact
        assert 1e-4 < 1.0 - grids[-1] / exact < 2e-4  # still 1.4e-4 off at 2^22 points


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestRecordFormsBitForBit:
    """Each record quantity equals its plain form (oracles.records) to the bit."""

    @staticmethod
    def assert_same_bits(q, eq):
        lams, G = dg.laplace_profile(q, 0.6, 1.0)
        plain_lams, plain_G = plain.laplace_profile(q, 0.6, 1.0)
        assert bits(lams) == bits(plain_lams) and bits(G) == bits(plain_G)
        assert bits(dg.wasserstein1(q, eq)) == bits(plain.wasserstein1(q, eq))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dg, "_xlogy", plain.xlogy)
            masked = (dg.relative_entropy(q, eq), dg.dissipation(q))
        assert bits([dg.relative_entropy(q, eq), dg.dissipation(q)]) == bits(masked)

    @pytest.mark.filterwarnings("ignore:q vanishes")
    @pytest.mark.parametrize("start", ["random:42", "uniform:0,2"])
    def test_solve_trajectory(self, start):
        grid = Grid1D.from_spacing(20.0, 0.05)  # M = 400
        q0 = (ex.random_positive_density(grid, 1.0, 42) if start == "random:42"
              else uniform_density(grid, 0.0, 2.0))
        rec = Recorder()
        solve(q0, 1.0, 0.05, snapshot_times=np.arange(0.0, 1.0 + 1e-9, 0.25), observers=(rec,))
        eq = Equilibrium(1.0).on_grid(grid).normalized()
        assert any(dg._check_positive_where_needed(q.values) for q in rec.snapshots)
        assert not dg._check_positive_where_needed(rec.snapshots[-1].values)
        for q in rec.snapshots:
            self.assert_same_bits(q, eq)

    def test_xlogy_both_branches(self):
        rng = np.random.default_rng(3)
        y = rng.random(500) + 0.1
        for x in (rng.random(500) + 1e-3, rng.random(500) * (rng.random(500) > 0.3), np.zeros(500)):
            assert bits(dg._xlogy(x, y)) == bits(plain.xlogy(x, y))

    @pytest.mark.filterwarnings("ignore:q vanishes")
    def test_densities_with_zero_cells(self, grid_fine):
        eq = Equilibrium(1.0).on_grid(grid_fine).normalized()
        compact = compact_random_density(grid_fine, seed=5)
        assert dg.dissipation(compact) == math.inf  # zeros beyond the support: D = +inf
        for q in (compact, uniform_density(grid_fine, 0.0, 2.0)):
            assert np.any(q.values == 0)
            self.assert_same_bits(q, eq)
        grid = Grid1D(8.0, 48)
        holes = positive_density(grid, 2).values.copy()
        holes[[5, 6, 30]] = 0.0  # interior zero cells
        only_last = np.zeros(48)
        only_last[-1] = 1.0  # zeros everywhere, yet D is finite: the masked _xlogy in all of D's sums
        for values, infinite in ((holes, True), (only_last, False)):
            q = GridDensity1D(grid, values).normalized()
            assert (dg.dissipation(q) == math.inf) == infinite
            self.assert_same_bits(q, Equilibrium(1.0).on_grid(grid).normalized())

    @pytest.mark.parametrize(
        "pair",
        ["sample-sample", "sample-grid", "grid-sample", "one-grid", "equal-distinct-grids",
         "positive-equal-distinct-grids", "other-spacing", "spacing-other", "sample-fine-grid", "fine-grid-sample",
         "fine-grid-other-spacing", "other-spacing-fine-grid"],
    )
    def test_w1_matches_plain_form(self, pair, grid_fine):
        rng = np.random.default_rng(12)
        grid = Grid1D(20.0, 400)
        q = compact_random_density(grid, seed=13)  # zero cells past its support
        fine = compact_random_density(grid_fine, seed=9)
        eq = Equilibrium(1.0).on_grid(grid).normalized()
        # on grids equal to grid but other objects, where the breakpoints are merged
        distinct, distinct_eq = (Equilibrium(m).on_grid(Grid1D(20.0, 400)).normalized() for m in (1.3, 1.0))
        other = Equilibrium(1.2).on_grid(Grid1D(25.0, 700)).normalized()  # breakpoints merged
        a, b = rng.exponential(1.0, 300), rng.exponential(1.5, 200)
        p, r = {
            "sample-sample": (a, b),
            "sample-grid": (a, q),
            "grid-sample": (q, a),
            "one-grid": (q, eq),
            "equal-distinct-grids": (q, distinct_eq),
            "positive-equal-distinct-grids": (distinct, eq),
            "other-spacing": (q, other),
            "spacing-other": (other, q),
            "sample-fine-grid": (a, fine),
            "fine-grid-sample": (fine, a),
            "fine-grid-other-spacing": (fine, other),
            "other-spacing-fine-grid": (other, fine),
        }[pair]
        if "distinct" in pair:
            assert p.grid == r.grid and p.grid is not r.grid
        assert bits(dg.wasserstein1(p, r)) == bits(plain.wasserstein1(p, r))

    @pytest.mark.parametrize("m, rows", [(400, 64), (10_000, 6), (20_000, 3), (40_000, 1)])
    def test_laplace_passes(self, m, rows):
        """All lambdas in one pass, rows that do not divide 64 (a last pass of fewer), one lambda per pass."""
        assert dg._laplace_rows(m) == rows
        q = ex.random_positive_density(Grid1D(50.0, m), 1.0, 7)
        assert bits(dg.laplace_profile(q, 0.6, 1.0)[1]) == bits(plain.laplace_profile(q, 0.6, 1.0)[1])


class TestEntropyDissipationIdentity:
    def test_derivative_matches_quarter_d(self):
        grid = Grid1D.from_spacing(20.0, 0.05)
        q0 = uniform_density(grid, 0.0, 2.0)
        times = np.arange(0.4, 2.21, 0.1)
        rec = Recorder()
        solve(q0, 2.3, 0.005, snapshot_times=times, observers=(rec,))
        eq = Equilibrium(1.0).on_grid(grid)
        entropy = np.array([dg.relative_entropy(s, eq) for s in rec.snapshots])
        ts = np.asarray(rec.times)
        dissip = np.array([dissipation_oracle(s, "decomposed") for s in rec.snapshots])
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
    """The bytes as written: CRLF line ends, and each cell reads back to its field's float bit for bit."""
    recs = [dg.DiagnosticsRecord(0.0, 1.0, 1.0, 2.0, 0.1, 0.4, 0.01, 0.02, 1.0, 0.0),
            dg.DiagnosticsRecord(0.1 + 0.2, 1 / 3, np.float64(2 / 3), 5e-324, -0.0, math.inf, 1e-300,
                                 np.float64(7.0) / 3, math.nan, 1.0000000000000002)]
    path = tmp_path / "records.csv"
    dg.write_records_csv(recs, str(path))
    data = path.read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == 3 and data.endswith(b"\r\n")
    header, *rows = data.decode().split("\r\n")[:-1]
    assert header == "time,mass,mean,m2,entropy_rel,D,W1,W2,laplace_sup,tail_mass" == ",".join(dg.RECORD_COLUMNS)
    for row, rec in zip(rows, recs, strict=True):
        assert [float(tok).hex() for tok in row.split(",")] == [float(x).hex() for x in rec.row()]


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


def test_observer_builds_the_reference_cdf_once(uniform02, monkeypatch):
    """The mass check, W1 and W2 of a record read one CDF of q; the equilibrium's is built once."""
    calls = []
    cdf_points = GridDensity1D.cdf_points
    monkeypatch.setattr(GridDensity1D, "cdf_points", lambda q: calls.append(q) or cdf_points(q))
    observer = dg.TrajectoryObserver()
    solve(uniform02, 1.0, 0.05, snapshot_times=np.arange(0.0, 1.01, 0.25), observers=(observer,))
    assert len(observer.records) == 5
    assert sum(q is observer._eq for q in calls) == 1
    assert len(calls) == 5 + 1
    assert all("measure" not in q._memo for q in calls if q is not observer._eq)  # it leaves with its record
