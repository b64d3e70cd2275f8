import hashlib

import numpy as np
import pytest

from kinex import particle as pt
from kinex.errors import ConfigError, DataError, DomainError
from kinex.moments import m2_closed_form


class TestExchangeStep:
    def test_worked_example(self):
        state = pt.WealthVector([4.0, 6.0])
        out = pt.exchange_step(state, 0, 1, 0.3)
        assert out.balances.tolist() == [3.0, 7.0]

    def test_boundary_fraction(self):
        out = pt.exchange_step(pt.WealthVector([2.5, 4.0]), 0, 1, 0.0)
        assert out.balances.tolist() == [0.0, 6.5]

    def test_conserves_pair_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, u = rng.random(3) * [10, 10, 1]
            out = pt.exchange_step(pt.WealthVector([a, b, 1.0]), 0, 1, u)
            assert out.balances[0] + out.balances[1] == pytest.approx(a + b, abs=1e-12)
            assert out.balances[2] == 1.0

    def test_guards(self):
        state = pt.WealthVector([1.0, 2.0])
        with pytest.raises(DomainError):
            pt.exchange_step(state, 1, 1, 0.5)
        with pytest.raises(DomainError):
            pt.exchange_step(state, 0, 1, 1.5)
        with pytest.raises(DomainError):
            pt.exchange_step(state, 0, 5, 0.5)

    def test_pure_no_mutation(self):
        state = pt.WealthVector([4.0, 6.0])
        pt.exchange_step(state, 0, 1, 0.25)
        assert state.balances.tolist() == [4.0, 6.0]


class TestWealthVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            pt.WealthVector([-1.0, 2.0])
        with pytest.raises(DataError):
            pt.WealthVector([np.nan, 1.0])

    def test_total_cached(self):
        w = pt.WealthVector([1.0, 2.5, 3.5])
        assert w.total == 7.0
        assert w.mean() == pytest.approx(7.0 / 3)


class TestSimulate:
    def test_two_agents_conserve_total(self):
        config = pt.SimConfig(n_agents=2, t_final=50.0, seed=1, snapshot_times=(10.0, 50.0))
        traj = pt.simulate(config, pt.make_initial("constant:10", 2))
        for snap in traj.snapshots:
            assert snap.total == pytest.approx(20.0, abs=1e-9)

    def test_bit_identical_given_seed(self):
        config = pt.SimConfig(n_agents=500, t_final=4.0, seed=9, snapshot_times=(1.0, 4.0))
        init = pt.make_initial("constant:10", 500)
        a = pt.simulate(config, init)
        b = pt.simulate(config, init)
        assert a.event_count == b.event_count
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.balances, sb.balances)

    def test_snapshot_placement_does_not_move_the_stream(self):
        init = pt.make_initial("constant:10", 500)
        sparse = pt.simulate(pt.SimConfig(n_agents=500, t_final=4.0, seed=9, snapshot_times=(4.0,)), init)
        dense = pt.simulate(
            pt.SimConfig(n_agents=500, t_final=4.0, seed=9, snapshot_times=tuple(np.arange(0.5, 4.5, 0.5))),
            init,
        )
        assert np.array_equal(sparse.final.balances, dense.final.balances)

    def test_event_rate_pairwise(self):
        config = pt.SimConfig(n_agents=200, t_final=40.0, seed=3)
        traj = pt.simulate(config, pt.make_initial("constant:1", 200))
        expected = 40.0 * 199 / 2
        assert abs(traj.event_count - expected) < 5 * np.sqrt(expected)

    def test_event_rate_global(self):
        config = pt.SimConfig(n_agents=200, t_final=40.0, seed=3, clock_scale="global")
        traj = pt.simulate(config, pt.make_initial("constant:1", 200))
        expected = 40.0 * 200
        assert abs(traj.event_count - expected) < 5 * np.sqrt(expected)

    def test_balances_stay_nonnegative(self):
        config = pt.SimConfig(n_agents=100, t_final=20.0, seed=5)
        traj = pt.simulate(config, pt.make_initial("exponential:2", 100, np.random.SeedSequence(8)))
        assert traj.final.balances.min() >= 0.0

    def test_conservation_drift_tiny(self):
        config = pt.SimConfig(n_agents=100, t_final=6000.0, seed=6)  # ~3e5 events
        traj = pt.simulate(config, pt.make_initial("constant:10", 100))
        assert abs(traj.final.balances.sum() - 1000.0) < 1e-9 * 1000.0

    def test_second_moment_tracks_ode(self):
        # 30-replica ensemble stays within 5 standard errors of the closed form
        targets = (1.0, 3.0, 8.0)
        values = np.empty((30, 3))
        for r, seq in enumerate(pt.spawn_seeds(123, 30)):
            config = pt.SimConfig(
                n_agents=1000,
                t_final=8.0,
                seed=int(seq.generate_state(1)[0]),
                snapshot_times=targets,
            )
            traj = pt.simulate(config, pt.make_initial("constant:10", 1000))
            values[r] = [s.moment(2) for s in traj.snapshots]
        mean = values.mean(axis=0)
        se = values.std(axis=0, ddof=1) / np.sqrt(30)
        for k, t in enumerate(targets):
            assert abs(mean[k] - m2_closed_form(t, 10.0, 100.0)) < 5 * se[k]

    def test_self_check_runs_every_batch(self, monkeypatch):
        # a negative tolerance fails any check, so a run far below a million events must still check
        monkeypatch.setattr(pt, "_SELF_CHECK_RTOL", -1.0)
        with pytest.raises(DataError, match="conservation drift"):
            pt.simulate(pt.SimConfig(n_agents=10, t_final=1.0), pt.make_initial("constant:1", 10))

    def test_config_guards(self):
        with pytest.raises(ConfigError):
            pt.SimConfig(n_agents=1, t_final=1.0)
        with pytest.raises(ConfigError):
            pt.SimConfig(n_agents=10, t_final=-1.0)
        with pytest.raises(ConfigError):
            pt.SimConfig(n_agents=10, t_final=float("inf"))
        with pytest.raises(ConfigError):
            pt.SimConfig(n_agents=10, t_final=1.0, snapshot_times=(float("nan"),))
        with pytest.raises(ConfigError):
            pt.SimConfig(n_agents=10, t_final=1.0, snapshot_times=(2.0,))
        with pytest.raises(ConfigError):
            pt.SimConfig(n_agents=10, t_final=1.0, clock_scale="warp")
        with pytest.raises(ConfigError):
            pt.simulate(pt.SimConfig(n_agents=10, t_final=1.0), pt.make_initial("constant:1", 5))

    def test_initial_from_file(self, tmp_path):
        path = tmp_path / "balances.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        init = pt.make_initial(f"file:{path}", 3)
        assert init.balances.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError):
            pt.make_initial(f"file:{path}", 4)


class TestCoupled:
    def test_identical_populations_never_separate(self):
        init = pt.make_initial("exponential:1", 400, np.random.SeedSequence(1))
        pairs = pt.CoupledPairs(init, init.copy())
        config = pt.SimConfig(n_agents=400, t_final=3.0, seed=2, snapshot_times=(1.0, 2.0, 3.0))
        series = pt.simulate_coupled(config, pairs)
        assert np.all(series.msd == 0.0)

    def test_single_event_algebra(self):
        # shared fraction u: the coordinate differences jump to
        # (u (d_i + d_j), (1 - u) (d_i + d_j)) exactly
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.random(4) * 10
            m = rng.random(4) * 10
            u = float(rng.random())
            new_p = pt.exchange_step(pt.WealthVector(p), 1, 3, u)
            new_m = pt.exchange_step(pt.WealthVector(m), 1, 3, u)
            d = p - m
            new_d = new_p.balances - new_m.balances
            assert new_d[1] == pytest.approx(u * (d[1] + d[3]), abs=1e-12)
            assert new_d[3] == pytest.approx((1 - u) * (d[1] + d[3]), abs=1e-12)

    def test_mean_offset_and_floor(self):
        primary = pt.make_initial("constant:6", 2000)
        pairs = pt.CoupledPairs.build(primary, 5.0, seed=4)
        config = pt.SimConfig(n_agents=2000, t_final=1.0, seed=4, snapshot_times=(1.0,))
        series = pt.simulate_coupled(config, pairs)
        s = primary.total - pairs.mirror.total
        assert series.mean_offset == pytest.approx(s / 2000)
        assert series.msd_floor == pytest.approx(2 * s**2 / (2000 * 2001))

    def test_contraction_rate(self):
        n = 50_000
        primary = pt.make_initial("constant:6", n)
        pairs = pt.CoupledPairs.build(primary, 5.0, seed=11)
        config = pt.SimConfig(
            n_agents=n, t_final=8.0, seed=11, snapshot_times=tuple(np.arange(0.0, 8.25, 0.25))
        )
        series = pt.simulate_coupled(config, pairs)
        decaying = series.decaying_part()
        assert np.all(decaying > 0)
        rate = -np.polyfit(series.times, np.log(decaying), 1)[0]
        assert 0.30 <= rate <= 0.36

    def test_length_mismatch_guard(self):
        with pytest.raises(ConfigError):
            pt.CoupledPairs(pt.make_initial("constant:1", 10), pt.make_initial("constant:1", 9))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class TestGoldenStreams:
    """Event counts and state hashes pinned from the per-event reference loop.

    Any change to the event kernel must reproduce these bit for bit: the
    draw order per batch is the reproducibility contract.
    """

    @pytest.mark.parametrize(
        "kwargs, init, events, final_sha, snaps_sha",
        [
            (  # smallest population
                dict(n_agents=2, t_final=50.0, seed=1, snapshot_times=(10.0, 50.0)), "constant:10", 23,
                "f03a6e4924d178889e648980ce3327b2a972a8209e6276899c5312f2b59bb022",
                "40eb73dbc52fd139362a6b2cfde96d4a28f5de7d64b233ffa7f34a41186b6f20",
            ),
            (
                dict(n_agents=200, t_final=10.0, seed=3, clock_scale="global", snapshot_times=(5.0,)),
                "constant:1", 1985,
                "b9f89140cba08768eee9b06d96c9dd4d4e9d2ea6a7e8d6d0469e1a162222fe46",
                "d1ec67af7add453786ac7fa8d2b0c9d2c668a7dc1d641d8d3a0330e1a5f60fa1",
            ),
            (  # snapshots exactly at 0 and at t_final
                dict(n_agents=50, t_final=5.0, seed=4, snapshot_times=(0.0, 2.5, 5.0)), "exponential:2", 111,
                "a5b2c4e83fe655c7b7c3780dfea88c111b473839a28f4de13a9e7065fc9bf8a5",
                "4c965ed3d71e03209d0880b2b9c20f469b7fa405c23a4af33fe38a43e9a90fe8",
            ),
            (  # dense snapshots across about three draw batches
                dict(n_agents=1000, t_final=200.0, seed=7, snapshot_times=tuple(np.arange(0.0, 200.5, 0.5))),
                "constant:10", 100263,
                "17ec3b59006392517a714c1b0b8b24835896c061b4d492b7798db9658b16f70c",
                "094db9a3d9dbc26c5000926bfe76d0938dae8edbbbfbda7b2bf202644f4d8166",
            ),
            (  # no snapshots
                dict(n_agents=100, t_final=2000.0, seed=8), "constant:1", 99167,
                "d7090406ba92fc4e6c80bd0ca7fb757748640a798be0ec24c14c4ca3eef39a7b",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
        ],
    )
    def test_simulate(self, kwargs, init, events, final_sha, snaps_sha):
        n = kwargs["n_agents"]
        traj = pt.simulate(pt.SimConfig(**kwargs), pt.make_initial(init, n, np.random.SeedSequence(n)))
        assert traj.event_count == events
        assert _digest([traj.final.balances]) == final_sha
        assert _digest([traj.times] + [s.balances for s in traj.snapshots]) == snaps_sha

    @pytest.mark.parametrize(
        "kwargs, m1, events, msd_sha",
        [
            (
                dict(n_agents=300, t_final=3.0, seed=2, snapshot_times=tuple(np.arange(0.0, 3.25, 0.25))), 5.0, 490,
                "e46e7dc4c3ab65d4f67dc396cafe6cd0434d1cbc0d975db856605da00195b166",
            ),
            (
                dict(n_agents=2000, t_final=40.0, seed=5, snapshot_times=tuple(np.arange(0.0, 41.0, 1.0))), 2.0, 40347,
                "978658708c6931ae5ba3205d417815cdc66eb9769cb6fdfdf12813da8d57875b",
            ),
        ],
    )
    def test_simulate_coupled(self, kwargs, m1, events, msd_sha):
        n = kwargs["n_agents"]
        pairs = pt.CoupledPairs.build(pt.make_initial("constant:6", n), m1, seed=kwargs["seed"])
        series = pt.simulate_coupled(pt.SimConfig(**kwargs), pairs)
        assert series.event_count == events
        assert _digest([series.times, series.msd]) == msd_sha


class TestHistogram:
    def test_point_mass(self):
        h = pt.empirical_histogram(pt.WealthVector(np.full(50, 10.0)), 1.0)
        assert h.values[10] == 1.0
        assert h.mass == pytest.approx(1.0)

    def test_counting(self):
        h = pt.empirical_histogram(pt.WealthVector([0.5, 0.5, 1.5, 3.5]), 1.0)
        assert h.values[:4].tolist() == [0.5, 0.25, 0.0, 0.25]

    def test_mass_one_for_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            state = pt.WealthVector(rng.exponential(3.0, 500))
            h = pt.empirical_histogram(state, 0.25)
            assert h.mass == pytest.approx(1.0, abs=1e-12)

    def test_bin_width_guard(self):
        with pytest.raises(DomainError):
            pt.empirical_histogram(pt.WealthVector([1.0]), 0.0)


def test_spawned_seeds_are_distinct():
    seeds = [int(s.generate_state(1)[0]) for s in pt.spawn_seeds(7, 64)]
    assert len(set(seeds)) == 64
