import math

import numpy as np
import pytest
from scipy import integrate

from kinex.errors import DomainError, KinexError
from kinex.kinetic1d import Equilibrium, Grid1D, GridDensity1D, solve, uniform_density

from conftest import Recorder
from oracles import gap_ratio_quadrature, norm_weighted
from oracles import spectral as sp


def explicit_laguerre(n, x):
    """Direct evaluation of the explicit binomial sum (oracle for small n)."""
    return sum(math.comb(n, k) * (-1) ** k / math.factorial(k) * x**k for k in range(n + 1))


class TestLaguerreEval:
    def test_first_members(self):
        x = np.linspace(0.0, 10.0, 7)
        table = sp.laguerre_table(1, x)
        assert np.array_equal(table[0], np.ones_like(x))
        assert np.allclose(table[1], 1.0 - x, atol=0)

    def test_degree_two_closed_form(self):
        x = np.linspace(0.0, 8.0, 9)
        assert np.allclose(sp.laguerre_table(2, x)[2], (x**2 - 4 * x + 2) / 2, rtol=1e-15)
        assert sp.laguerre_table(2, 0.0)[2, 0] == 1.0

    @pytest.mark.parametrize("n", range(7))
    def test_matches_explicit_sum(self, n):
        xs = (0.0, 0.3, 1.0, 4.5, 9.0)
        table = sp.laguerre_table(n, xs)
        for x, value in zip(xs, table[n]):
            assert value == pytest.approx(explicit_laguerre(n, x), rel=1e-12, abs=1e-12)

    def test_orthonormality_by_quadrature(self):
        x, w = sp.quadrature_nodes()
        table = sp.laguerre_table(10, x)
        gram = (table * w) @ table.T
        assert np.max(np.abs(gram - np.eye(11))) < 1e-10

    def test_orthonormality_independent_oracle(self):
        for n, m in [(2, 2), (2, 3), (5, 5), (4, 7)]:
            val, _ = integrate.quad(
                lambda t: explicit_laguerre(n, t) * explicit_laguerre(m, t) * math.exp(-t), 0, 60
            )
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-9)

    def test_degree_guard(self):
        x = np.linspace(0.0, 4.0, 5)
        with pytest.raises(DomainError):
            sp.laguerre_table(201, x)
        with pytest.raises(DomainError):
            sp.laguerre_table(-1, x)


class TestGapRatio:
    def test_mode_two_is_three(self):
        spec = sp.LaguerreSpectrum.single_mode(2)
        assert abs(sp.gap_ratio(spec) - 3.0) < 1e-10
        assert abs(gap_ratio_quadrature(spec) - 3.0) < 1e-6

    def test_mode_three_is_four(self):
        spec = sp.LaguerreSpectrum.single_mode(3)
        assert abs(sp.gap_ratio(spec) - 4.0) < 1e-10
        assert abs(gap_ratio_quadrature(spec) - 4.0) < 1e-6

    def test_identity_matches_quadrature_on_mixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            coeffs = np.concatenate(([0.0, 0.0], rng.standard_normal(10)))
            spec = sp.LaguerreSpectrum(coeffs)
            assert sp.gap_ratio(spec) == pytest.approx(gap_ratio_quadrature(spec), rel=1e-9)

    def test_infimum_property(self):
        rng = np.random.default_rng(11)
        coeffs = np.zeros((10_000, 18))
        coeffs[:, 2:] = rng.standard_normal((10_000, 16))
        n = np.arange(18)
        ratios = (coeffs**2).sum(axis=1) / (coeffs**2 / (n + 1)).sum(axis=1)
        assert ratios.min() >= 3.0
        for row in coeffs[:50]:
            assert sp.gap_ratio(sp.LaguerreSpectrum(row)) >= 3.0

    def test_equality_only_at_mode_two(self):
        mixed = sp.LaguerreSpectrum(np.array([0.0, 0.0, 1.0, 0.01]))
        assert sp.gap_ratio(mixed) > 3.0

    def test_guards(self):
        with pytest.raises(DomainError):
            sp.gap_ratio(sp.LaguerreSpectrum(np.zeros(5)))
        with pytest.raises(DomainError):
            sp.gap_ratio(sp.LaguerreSpectrum(np.array([1.0, 0.0, 1.0])))


class TestOperatorGate:
    def test_offdiagonal_vanishes(self):
        matrix = sp.operator_matrix()
        off = matrix - np.diag(np.diag(matrix))
        assert np.max(np.abs(off)) < 1e-8

    def test_diagonal_rates(self):
        matrix = sp.operator_matrix()
        degrees = np.arange(2, sp.GATE_DEGREE + 1)
        assert np.max(np.abs(np.diag(matrix) + sp.mode_rate(degrees))) < 1e-6

    def test_gate_passes(self):
        assert sp.diagonal_action_gate() is True


class TestEvolve:
    def test_identity_at_time_zero(self):
        spec = sp.LaguerreSpectrum(np.array([0.0, 0.0, 0.7, -0.3, 0.1]))
        out = sp.evolve_linearized(spec, 0.0)
        assert np.array_equal(out.coefficients, spec.coefficients)

    def test_slowest_mode_rate(self):
        spec = sp.LaguerreSpectrum.single_mode(2)
        out = sp.evolve_linearized(spec, 3.0)
        assert out.norm() == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_two_mode_norm(self):
        spec = sp.LaguerreSpectrum(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
        out = sp.evolve_linearized(spec, 2.0)
        expected = math.exp(-2 * 2 / 3.0) + math.exp(-2 * (4 / 6.0) * 2)
        assert out.norm() ** 2 == pytest.approx(expected, rel=1e-12)

    def test_envelope_and_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            coeffs = np.concatenate(([0.0, 0.0], rng.standard_normal(12)))
            spec = sp.LaguerreSpectrum(coeffs)
            previous = spec.norm()
            for t in (0.5, 1.0, 2.0, 4.0):
                now = sp.evolve_linearized(spec, t).norm()
                assert now <= spec.norm() * math.exp(-t / 3.0) + 1e-12
                assert now <= previous + 1e-12
                previous = now

    def test_failed_gate_raises(self, monkeypatch):
        # off-diagonal entries 1e-6, far above the 1e-8 gate tolerance
        rates = sp.mode_rate(np.arange(2, sp.GATE_DEGREE + 1))
        near_diagonal = np.diag(-rates) + 1e-6 * (1.0 - np.eye(rates.size))
        monkeypatch.setattr(sp, "operator_matrix", lambda: near_diagonal)
        sp.diagonal_action_gate.cache_clear()
        try:
            assert sp.diagonal_action_gate() is False
            with pytest.raises(KinexError, match="gate failed"):
                sp.evolve_linearized(sp.LaguerreSpectrum.single_mode(2), 1.0)
        finally:
            sp.diagonal_action_gate.cache_clear()

    def test_requires_admissible(self):
        with pytest.raises(DomainError):
            sp.evolve_linearized(sp.LaguerreSpectrum(np.array([1.0, 0.0, 1.0])), 1.0)


class TestProjection:
    def test_parseval_smooth_function(self):
        a0, _ = integrate.quad(lambda t: math.cos(t) * math.exp(-t), 0, 100)
        a1, _ = integrate.quad(lambda t: math.cos(t) * (1 - t) * math.exp(-t), 0, 100)

        def h(x):
            return np.cos(x) - a0 - a1 * (1 - x)

        spec = sp.project_function(h, n_max=64)
        assert abs(spec.norm() ** 2 - norm_weighted(h) ** 2) < 1e-8
        assert abs(spec.coefficients[0]) < 1e-10 and abs(spec.coefficients[1]) < 1e-10

    def test_equilibrium_projects_to_zero(self):
        grid = Grid1D.from_spacing(40.0, 0.001)
        q = Equilibrium(1.0).on_grid(grid)
        spec = sp.project_perturbation(q)
        assert np.max(np.abs(spec.coefficients)) < 1e-6

    def test_recovers_planted_mode(self):
        grid = Grid1D.from_spacing(40.0, 1e-4)
        x = grid.nodes
        values = np.exp(-x) * (1.0 + 0.01 * (x**2 - 4 * x + 2) / 2)
        q = GridDensity1D(grid, values)
        spec = sp.project_perturbation(q, n_max=16)
        assert spec.coefficients[2] == pytest.approx(0.01, abs=1e-8)
        others = np.delete(spec.coefficients, 2)
        assert np.max(np.abs(others)) < 1e-8

    def test_mean_guard(self):
        grid = Grid1D.from_spacing(40.0, 0.01)
        q = Equilibrium(2.0).on_grid(grid)
        with pytest.raises(DomainError):
            sp.project_perturbation(q)

    def test_residue_warning_on_coarse_grid(self):
        grid = Grid1D.from_spacing(20.0, 0.01)
        q0 = uniform_density(grid, 0.0, 2.0)
        qt = solve(q0, 5.0, 0.05).normalized()
        with pytest.warns(UserWarning, match="conserved-mode residue"):
            spec = sp.project_perturbation(qt)
        assert spec.coefficients[0] == 0.0 and spec.coefficients[1] == 0.0

    def test_pde_decay_rate_of_slowest_mode(self):
        import warnings

        grid = Grid1D.from_spacing(20.0, 0.01)
        q0 = uniform_density(grid, 0.0, 2.0)
        times = np.arange(5.0, 15.1, 0.5)
        rec = Recorder()
        solve(q0, 15.0, 0.01, snapshot_times=times, observers=(rec,))
        alphas = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for snap in rec.snapshots:
                alphas.append(sp.project_perturbation(snap.normalized(), n_max=16).coefficients[2])
        rate = -np.polyfit(rec.times, np.log(np.abs(alphas)), 1)[0]
        assert 0.32 <= rate <= 0.35
