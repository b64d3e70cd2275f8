import math

import numpy as np
import pytest

from kinex.errors import ConfigError, DomainError

from oracles.moments import (
    MomentVector,
    integrate_moments,
    m2_closed_form,
    moment_rhs,
    relaxation_rate,
)


class TestRhs:
    def test_mass_and_mean_conserved(self):
        m = MomentVector([1.0, 3.0, 20.0])
        d = moment_rhs(m)
        assert d[0] == 0.0
        assert d[1] == 0.0

    def test_second_moment_equation(self):
        # closed form -m2/3 + 2 m1^2 / 3
        for m1, m2 in [(1.0, 5.0), (10.0, 100.0), (2.0, 9.0)]:
            d = moment_rhs(MomentVector([1.0, m1, m2]))
            assert d[2] == pytest.approx(-m2 / 3 + 2 * m1**2 / 3, rel=1e-14)

    def test_third_moment_symbolic_expansion(self):
        # expanding the binomial sum by hand: m3' = -m3/2 + (3/2) m1 m2
        rng = np.random.default_rng(0)
        for _ in range(10):
            m1, m2, m3 = rng.uniform(0.5, 5.0, 3)
            d = moment_rhs(MomentVector([1.0, m1, m2, m3]))
            assert d[3] == pytest.approx(-m3 / 2 + 1.5 * m1 * m2, rel=1e-13)

    def test_third_moment_steady_state(self):
        # m1 = 1, m2 = 2: stationary m3 solves 0 = -m3/2 + 3, i.e. m3 = 6 = 3!
        d = moment_rhs(MomentVector([1.0, 1.0, 2.0, 6.0]))
        assert abs(d[3]) < 1e-14

    def test_triangular_structure(self):
        base = MomentVector([1.0, 1.0, 2.0, 6.0, 24.0])
        d0 = moment_rhs(base)
        bumped = base.values.copy()
        bumped[4] += 100.0
        d1 = moment_rhs(MomentVector(bumped))
        assert np.array_equal(d0[:4], d1[:4])  # lower moments untouched

    def test_m0_guard(self):
        with pytest.raises(DomainError):
            moment_rhs(MomentVector([0.0, 1.0, 1.0]))


class TestIntegrate:
    def test_dirac_at_ten_closed_form(self):
        series = integrate_moments(MomentVector.of_dirac(10.0, 2), 10.0, 0.01)
        expected = m2_closed_form(series.times, 10.0, 100.0)
        assert np.max(np.abs(series.component(2) - expected)) < 1e-8

    def test_mass_and_mean_constant(self):
        series = integrate_moments(MomentVector.of_dirac(3.0, 6), 20.0, 0.01)
        assert np.max(np.abs(series.component(0) - 1.0)) < 1e-12
        assert np.max(np.abs(series.component(1) - 3.0)) < 1e-12

    @pytest.mark.parametrize("m1", [1.0, 2.5])
    def test_limit_is_exponential_moments(self, m1):
        series = integrate_moments(MomentVector.of_dirac(m1, 8), 120.0, 0.01)
        final = series.values[-1]
        for k in range(9):
            assert final[k] == pytest.approx(math.factorial(k) * m1**k, rel=1e-6)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_relaxation_rate(self, k):
        # isolate the order-k mode: lower moments start at their limits, so
        # the inhomogeneous part of the order-k equation is constant in time
        start = MomentVector.of_equilibrium(1.0, k)
        values = start.values.copy()
        values[k] *= 1.5
        series = integrate_moments(MomentVector(values), 6.0, 0.005)
        star = math.factorial(k)
        gap = np.abs(series.component(k) - star)
        rate = -np.polyfit(series.times, np.log(gap), 1)[0]
        assert abs(rate - relaxation_rate(k)) <= 0.02 * relaxation_rate(k)

    def test_order_cap(self):
        with pytest.raises(ConfigError):
            MomentVector(np.ones(25))

    def test_cauchy_schwarz_chain(self):
        series = integrate_moments(MomentVector.of_dirac(1.0, 8), 5.0, 0.01)
        final = series.values[-1]
        for k in range(1, 8):
            assert final[k] ** 2 <= final[k - 1] * final[k + 1] * (1 + 1e-12)


def test_equilibrium_constructor():
    m = MomentVector.of_equilibrium(2.0, 4)
    assert m.values.tolist() == [1.0, 2.0, 8.0, 48.0, 384.0]
    assert np.allclose(moment_rhs(m), 0.0, atol=1e-12)
