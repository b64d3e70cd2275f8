import math

import numpy as np
import pytest

from kinex.errors import ConfigError, DomainError
from kinex.kinetic1d import Equilibrium, Grid1D, gain, uniform_density

from conftest import compact_random_density
from oracles import kinetic2d as k2


@pytest.fixture
def grid200():
    return Grid1D.from_spacing(20.0, 0.1)


def random_pair_density(grid, seed):
    rng = np.random.default_rng(seed)
    return k2.PairDensityGrid(grid, rng.random((grid.n_cells, grid.n_cells)))


class TestLplus:
    def test_exponential_product_is_fixed(self, grid200):
        f = k2.PairDensityGrid.product(Equilibrium(1.0).on_grid(grid200))
        assert np.max(np.abs(k2.lplus(f).values - f.values)) < 1e-14

    def test_uniform_square_flat_region(self):
        grid = Grid1D(2.0, 100)
        q = uniform_density(grid, 0.0, 1.0)
        f = k2.PairDensityGrid.product(q)
        out = k2.lplus(f)
        d = int(round(0.5 / grid.dx)) - 1  # diagonal through x + y = 0.5
        on_diag = [out.values[i, d - i] for i in range(d + 1)]
        assert np.allclose(on_diag, 1.0, atol=1e-12)

    def test_idempotent(self, grid200):
        f = random_pair_density(grid200, 1)
        once = k2.lplus(f)
        twice = k2.lplus(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_mass_conserved_exactly(self, grid200):
        f = random_pair_density(grid200, 2)
        assert k2.lplus(f).mass == pytest.approx(f.mass, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(ConfigError):
            k2.PairDensityGrid(Grid1D(10.0, 600), np.zeros((600, 600)))


class TestStep2d:
    def test_diagonal_constant_is_stationary(self, grid200):
        lam = k2._diag_index(grid200.n_cells) * grid200.dx
        f = k2.PairDensityGrid(grid200, np.exp(-lam))
        stepped = k2.step2d(f, 0.5)
        assert np.max(np.abs(stepped.values - f.values)) < 1e-14

    def test_profile_conserved_per_step(self, grid200):
        f = random_pair_density(grid200, 3)
        before = k2.DiagonalProfile(f).interior()
        after = k2.DiagonalProfile(k2.step2d(f, 0.3)).interior()
        assert np.max(np.abs(after - before) / np.maximum(before, 1e-300)) < 1e-10

    def test_exact_exponential_bracket(self, grid200):
        f0 = random_pair_density(grid200, 4)
        target = k2.lplus(f0)
        dt = 0.25
        f = f0
        sup0 = np.max(np.abs(f0.values - target.values))
        for n in range(1, 9):
            f = k2.step2d(f, dt)
            sup = np.max(np.abs(f.values - target.values))
            assert sup == pytest.approx((1 - dt) ** n * sup0, rel=1e-12)

    def test_decay_rate_fit(self, grid200):
        f = random_pair_density(grid200, 5)
        target = k2.lplus(f)
        dt = 0.01
        times, sups = [], []
        for n in range(1, 201):
            f = k2.step2d(f, dt)
            times.append(n * dt)
            sups.append(np.max(np.abs(f.values - target.values)))
        rate = -np.polyfit(times, np.log(sups), 1)[0]
        assert abs(rate - 1.0) <= 0.05

    def test_l2_and_entropy_decay_each_step(self, grid200):
        f = random_pair_density(grid200, 6)
        for _ in range(5):
            nxt = k2.step2d(f, 0.4)
            assert nxt.l2_norm() <= f.l2_norm() + 1e-12
            assert nxt.entropy() <= f.entropy() + 1e-12
            f = nxt

    def test_dt_guard(self, grid200):
        with pytest.raises(ConfigError):
            k2.step2d(random_pair_density(grid200, 7), 1.5)


class TestMarginalizeGain:
    def test_equilibrium_fixed_point(self):
        grid = Grid1D.from_spacing(25.0, 0.05)
        q = Equilibrium(1.0).on_grid(grid)
        out = k2.marginalize_gain(q)
        assert np.max(np.abs(out.values - q.values)) <= 5 * grid.dx

    def test_uniform_value_at_origin(self):
        grid = Grid1D.from_spacing(20.0, 0.05)
        q = uniform_density(grid, 0.0, 2.0)
        out = k2.marginalize_gain(q)
        assert out.values[0] == pytest.approx(math.log(2.0), abs=0.05)

    def test_bridges_to_gain_operator(self):
        grid = Grid1D.from_spacing(25.0, 0.05)
        for q in (
            Equilibrium(1.0).on_grid(grid),
            uniform_density(grid, 0.0, 2.0),
            compact_random_density(grid, seed=9),
        ):
            direct = gain(q)
            bridged = k2.marginalize_gain(q)
            assert np.max(np.abs(bridged.values - direct)) < 1e-10

    def test_gain_consistency_is_two_sided(self):
        # the bridge really exercises the 2-D machinery: breaking the
        # projection convention would show up as a mismatch, so assert the
        # agreement is not an artifact of comparing zeros
        grid = Grid1D.from_spacing(25.0, 0.05)
        q = compact_random_density(grid, seed=13)
        bridged = k2.marginalize_gain(q)
        assert bridged.mass > 0.9
        assert np.max(np.abs(bridged.values - gain(q))) < 1e-10


class TestMicroReversibility:
    def test_constants_give_total_weight(self):
        grid = Grid1D(4.0, 32)
        ones = np.ones((32, 32))
        lhs, rhs = k2.micro_reversibility_check(ones, ones, grid)
        assert lhs == pytest.approx(16.0, abs=1e-12)
        assert rhs == pytest.approx(16.0, abs=1e-12)

    def test_random_pairs_symmetric(self):
        grid = Grid1D(4.0, 32)
        rng = np.random.default_rng(0)
        for _ in range(20):
            phi = rng.standard_normal((32, 32))
            psi = rng.standard_normal((32, 32))
            lhs, rhs = k2.micro_reversibility_check(phi, psi, grid)
            assert abs(lhs - rhs) < 1e-12

    def test_shape_guard(self):
        grid = Grid1D(4.0, 32)
        from kinex.errors import DataError

        with pytest.raises(DataError):
            k2.micro_reversibility_check(np.ones((32, 32)), np.ones((16, 16)), grid)

    def test_entropy_decays_under_flow(self, grid200):
        f = random_pair_density(grid200, 8)
        stepped = k2.step2d(f, 0.5)
        assert stepped.entropy() < f.entropy()


def test_pair_density_guards():
    grid = Grid1D(4.0, 16)
    with pytest.raises(DomainError):
        k2.PairDensityGrid(grid, -np.ones((16, 16)))
