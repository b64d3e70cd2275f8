import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import kinex
from kinex import particle as pt
from kinex.cli import main
from kinex.errors import ConfigError, DataError, DomainError

from conftest import record_forks, running
from oracles import exchange_step
from oracles.moments import m2_closed_form


class TestExchangeStep:
    def test_worked_example(self):
        state = pt.WealthVector([4.0, 6.0])
        out = exchange_step(state, 0, 1, 0.3)
        assert out.balances.tolist() == [3.0, 7.0]

    def test_boundary_fraction(self):
        out = exchange_step(pt.WealthVector([2.5, 4.0]), 0, 1, 0.0)
        assert out.balances.tolist() == [0.0, 6.5]

    def test_conserves_pair_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, u = rng.random(3) * [10, 10, 1]
            out = exchange_step(pt.WealthVector([a, b, 1.0]), 0, 1, u)
            assert out.balances[0] + out.balances[1] == pytest.approx(a + b, abs=1e-12)
            assert out.balances[2] == 1.0

    def test_guards(self):
        state = pt.WealthVector([1.0, 2.0])
        with pytest.raises(DomainError):
            exchange_step(state, 1, 1, 0.5)
        with pytest.raises(DomainError):
            exchange_step(state, 0, 1, 1.5)
        with pytest.raises(DomainError):
            exchange_step(state, 0, 5, 0.5)

    def test_pure_no_mutation(self):
        state = pt.WealthVector([4.0, 6.0])
        exchange_step(state, 0, 1, 0.25)
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

    @pytest.mark.parametrize("coupled", [False, True], ids=["simulate", "simulate_coupled"])
    def test_self_check_runs_every_batch(self, coupled, monkeypatch):
        # a balance changed behind the kernel's back must show in the fresh sum taken
        # at the end of the first batch, not only at the end of the run
        apply, apply_rounds, corrupted = pt._apply, pt._apply_rounds, []

        def corrupt(bal):
            if not corrupted:
                bal[0] += 1.0
                corrupted.append(True)

        def corrupting_apply(bal, ii, jj, uu):
            apply(bal, ii, jj, uu)
            corrupt(bal)

        def corrupting_rounds(arrays, ii, jj, uu, first):
            apply_rounds(arrays, ii, jj, uu, first)
            corrupt(arrays[0])

        monkeypatch.setattr(pt, "_apply", corrupting_apply)
        monkeypatch.setattr(pt, "_apply_rounds", corrupting_rounds)
        config = pt.SimConfig(n_agents=10, t_final=10_000.0, snapshot_times=(1.0,))  # ~45 000 events
        init = pt.make_initial("constant:1", 10)
        for in_place_from in (2, 10**9):  # balances applied in rounds, then in a list
            monkeypatch.setattr(pt, "_IN_PLACE_AGENTS", in_place_from)
            corrupted.clear()
            with pytest.raises(DataError, match=f"conservation drift 1.000e\\+00 after {pt._BATCH} events"):
                if coupled:
                    pt.simulate_coupled(config, pt.CoupledPairs(init, pt.WealthVector(init.balances)))
                else:
                    pt.simulate(config, init)

    def test_self_check_sees_a_small_drift_in_a_list(self, monkeypatch):
        # the list path sums its balances with builtin sum: at its largest N its rounding must
        # stay far enough under the 1e-9 bound that a drift of 1e-8 of the total still shows
        n, apply, corrupted = pt._IN_PLACE_AGENTS - 1, pt._apply, []
        init = pt.make_initial("exponential:1", n, np.random.SeedSequence(0))
        config = pt.SimConfig(n_agents=n, t_final=2.0)  # ~10 000 events, one batch
        pt.simulate(config, init)  # no drift: no error

        def corrupting_apply(bal, ii, jj, uu):
            apply(bal, ii, jj, uu)
            if not corrupted:
                bal[0] += 1e-8 * init.total
                corrupted.append(True)

        monkeypatch.setattr(pt, "_apply", corrupting_apply)
        with pytest.raises(DataError, match="conservation drift"):
            pt.simulate(config, init)

    @pytest.mark.parametrize("coupled", [False, True], ids=["simulate", "simulate_coupled"])
    def test_list_and_rounds_state_agree(self, coupled, monkeypatch):
        # the list loop and the rounds must apply the very same float operations
        config = pt.SimConfig(n_agents=300, t_final=250.0, seed=5, snapshot_times=(0.0, 1.0, 1.0, 123.4, 250.0))
        init = pt.make_initial("exponential:2", 300, np.random.SeedSequence(1))
        runs = []
        for in_place_from in (2, 10**9):
            monkeypatch.setattr(pt, "_IN_PLACE_AGENTS", in_place_from)
            if coupled:
                series = pt.simulate_coupled(config, pt.CoupledPairs.build(init, 3.0, seed=2))
                runs.append((series.event_count, series.msd.tolist()))
            else:
                traj = pt.simulate(config, init)
                runs.append((traj.event_count, [s.balances.tolist() for s in [*traj.snapshots, traj.final]]))
        assert runs[0][0] > pt._BATCH
        assert runs[0] == runs[1]

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
        pairs = pt.CoupledPairs(init, pt.WealthVector(init.balances))
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
            new_p = exchange_step(pt.WealthVector(p), 1, 3, u)
            new_m = exchange_step(pt.WealthVector(m), 1, 3, u)
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


class TestApplyRounds:
    """_apply_rounds gives every array the bytes that _apply gives a list, and leaves first at its sentinel."""

    @staticmethod
    def events(n: int, count: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, count)
        jj = rng.integers(0, n - 1, count)
        jj += jj >= ii
        return ii, jj, rng.random(count)

    @staticmethod
    def compare(n: int, ii, jj, uu, populations: int):
        rng = np.random.default_rng(n)
        arrays = tuple(rng.exponential(2.0, n) for _ in range(populations))
        expected = []
        for arr in arrays:
            bal = arr.tolist()
            pt._apply(bal, ii.data, jj.data, uu.data)
            expected.append(np.array(bal).tobytes())
        first = np.full(n, pt._ROUND_EVENTS, np.int32)
        pt._apply_rounds(arrays, ii, jj, uu, first)
        assert [arr.tobytes() for arr in arrays] == expected
        assert np.all(first == pt._ROUND_EVENTS)

    @pytest.mark.parametrize("populations", [1, 2])
    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_small_populations(self, n, populations):
        # at N = 2 every round holds one event, at N = 10 a few; across one chunk edge
        self.compare(n, *self.events(n, pt._ROUND_EVENTS + 7), populations)

    @pytest.mark.parametrize("populations", [1, 2])
    def test_repeated_pair(self, populations):
        ii = np.array([3, 5, 3, 5, 3, 7, 3])
        jj = np.array([5, 3, 5, 3, 5, 3, 5])
        uu = np.random.default_rng(1).random(7)
        self.compare(8, ii, jj, uu, populations)

    @pytest.mark.parametrize("populations", [1, 2])
    @pytest.mark.parametrize("count", [0, 1, pt._ROUND_EVENTS - 1, pt._ROUND_EVENTS + 1, 3 * pt._ROUND_EVENTS])
    def test_segment_lengths(self, count, populations):
        self.compare(500, *self.events(500, count, seed=count), populations)

    @pytest.mark.parametrize("populations", [1, 2])
    @pytest.mark.parametrize("count", [pt._TAIL_EVENTS, pt._TAIL_EVENTS + 1])
    def test_segment_within_the_tail(self, count, populations):
        """A segment of at most _TAIL_EVENTS events is all tail; one event more takes a round first."""
        ii, jj, uu = self.events(500, count, seed=count)
        pieces = list(pt._rounds(ii, jj, uu, np.full(500, pt._ROUND_EVENTS, np.int32)))
        assert len(pieces) == 1 + (count > pt._TAIL_EVENTS)
        assert 0 < len(pieces[-1][0]) <= pt._TAIL_EVENTS
        self.compare(500, ii, jj, uu, populations)

    @pytest.mark.parametrize("populations", [1, 2])
    def test_tail_holds_a_repeated_pair(self, populations):
        """A chunk ends in 2 * _TAIL_EVENTS events of one pair, one per round, so its tail is that pair's last events.

        The next chunk of the segment starts after the tail.
        """
        n, chunk, pair = 1000, pt._chunk(1000), 2 * pt._TAIL_EVENTS
        ii, jj, uu = self.events(n, chunk + 100, seed=5)
        ii[chunk - pair : chunk], jj[chunk - pair : chunk] = [3, 5] * pt._TAIL_EVENTS, [5, 3] * pt._TAIL_EVENTS
        first = np.full(n, pt._ROUND_EVENTS, np.int32)
        *rounds, tail = pt._rounds(ii[:chunk], jj[:chunk], uu[:chunk], first)
        assert len(rounds) > pt._TAIL_EVENTS
        assert [t.tolist() for t in tail] == [e[chunk - pt._TAIL_EVENTS : chunk].tolist() for e in (ii, jj, uu)]
        assert np.all(first == pt._ROUND_EVENTS)
        self.compare(n, ii, jj, uu, populations)

    def test_coupled_run_cut_inside_a_chunk(self, monkeypatch):
        """N = 30 000 in rounds against the list loop, with a snapshot between two chunk edges."""
        n, seed = 30_000, 3
        assert n >= pt._IN_PLACE_AGENTS
        scale = 1.0 / pt.SimConfig(n_agents=n, t_final=1.0).total_rate()
        times = next(pt._draws(np.random.default_rng(np.random.SeedSequence(seed)), n, scale))[0]
        cut = float(times[pt._ROUND_EVENTS + pt._ROUND_EVENTS // 2])
        config = pt.SimConfig(n_agents=n, t_final=3.0, seed=seed, snapshot_times=(0.0, cut, 1.0, 3.0))
        pairs = pt.CoupledPairs.build(pt.make_initial("exponential:1", n, np.random.SeedSequence(2)), 1.0, seed)
        runs = []
        for in_place_from in (n, n + 1):
            monkeypatch.setattr(pt, "_IN_PLACE_AGENTS", in_place_from)
            series = pt.simulate_coupled(config, pairs)
            runs.append((series.event_count, series.times.tobytes(), series.msd.tobytes()))
        assert runs[0][0] > pt._BATCH
        assert runs[0] == runs[1]


class TestScheduledRounds:
    """Chunks that the draw producer put in round order (_producer._schedule) give the bytes of _apply."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("populations", [1, 2])
    @pytest.mark.parametrize("n", [10_000, 30_000])
    def test_one_batch(self, n, populations, stride):
        """Every chunk edge of a batch: scheduled chunks side by side (stride 1), and beside chunks in rounds.

        A scheduled chunk holds its rounds, then its tail: its last piece,
        of at most _TAIL_EVENTS events in drawn order.
        """
        from kinex._producer import _schedule

        chunk = pt._chunk(n)
        _, ii, jj, uu = next(pt._draws(np.random.default_rng(n), n, 1.0))
        rng = np.random.default_rng(1)
        arrays = tuple(rng.exponential(2.0, n) for _ in range(populations))
        expected = []
        for arr in arrays:
            bal = arr.tolist()
            pt._apply(bal, ii.data, jj.data, uu.data)
            expected.append(np.array(bal).tobytes())
        first = np.full(n, pt._ROUND_EVENTS, np.int32)
        events = ii.copy(), jj.copy(), uu.copy()
        counts, ends = np.zeros(pt._BATCH // chunk, np.int16), np.zeros(pt._BATCH, np.int16)
        _schedule(*events, counts, ends, first, chunk, stride)
        assert [count > 0 for count in counts] == [c % stride == stride - 1 for c in range(len(counts))]
        assert np.all(first == pt._ROUND_EVENTS)
        at = 0
        for lo in range(0, pt._BATCH, chunk):  # each chunk keeps its own events, reordered where scheduled
            drawn, held = (list(zip(*(e[lo : lo + chunk].tolist() for e in group))) for group in ((ii, jj, uu), events))
            assert sorted(drawn) == sorted(held) and (drawn != held) == (counts[lo // chunk] > 0)
            if counts[lo // chunk]:
                at += counts[lo // chunk]
                tail = held[ends[at - 2] :]
                assert len(tail) <= pt._TAIL_EVENTS and tail == [e for e in drawn if e in tail]
        pt._apply_rounds(arrays, *events, first, counts, ends)
        assert [arr.tobytes() for arr in arrays] == expected
        assert np.all(first == pt._ROUND_EVENTS)

    @pytest.mark.parametrize("n", [10_000, 30_000])
    def test_simulate_cut_inside_a_scheduled_chunk(self, n, monkeypatch):
        """Five batches through the producer, its threshold lowered to 2, against the same run without fork and in a list.

        Cuts: one at the last event of batch 1, one inside batch 2's first
        chunk that the producer would schedule, and t_final inside batch 4;
        only batches 0, 1 and 3 come scheduled.
        """
        monkeypatch.setattr(pt, "_PRODUCER_BATCHES", 2)
        seed, chunk = 6, pt._chunk(n)
        scale = 1.0 / pt.SimConfig(n_agents=n, t_final=1.0).total_rate()
        draws = pt._draws(np.random.default_rng(np.random.SeedSequence(seed)), n, scale)
        times = [next(draws)[0] for _ in range(5)]
        inside = (pt._PRODUCER_STRIDE - 1) * chunk + chunk // 2
        last = pt._BATCH // 2
        config = pt.SimConfig(n_agents=n, t_final=float(times[4][last]), seed=seed,
                              snapshot_times=(float(times[1][-1]), float(times[2][inside])))
        init = pt.make_initial("exponential:2", n, np.random.SeedSequence(3))
        apply_rounds, calls = pt._apply_rounds, []

        def recording(arrays, ii, jj, uu, first, *plan):
            calls.append((len(ii), bool(plan) and bool(plan[0].any())))
            apply_rounds(arrays, ii, jj, uu, first, *plan)

        monkeypatch.setattr(pt, "_apply_rounds", recording)
        forks = record_forks(monkeypatch)
        forked = TestDrawProducer.outcome(pt.simulate(config, init))
        assert len(forks) == 1
        whole = (pt._BATCH, True)
        assert calls == [whole, whole, (0, False), (inside + 1, False), (pt._BATCH - inside - 1, False), whole,
                         (last + 1, False)]
        monkeypatch.delattr(os, "fork")
        assert TestDrawProducer.outcome(pt.simulate(config, init)) == forked
        monkeypatch.setattr(pt, "_IN_PLACE_AGENTS", 10**9)
        assert TestDrawProducer.outcome(pt.simulate(config, init)) == forked


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# one below the rounds threshold, so the list loop: four draw batches, with cuts inside the first and the second
LIST_LOOP_AT_ITS_LARGEST = (
    dict(n_agents=9_999, t_final=20.0, seed=9, snapshot_times=(5.0, 12.5)), "constant:10", 100063,
    "93ed5b89aec673a9805ef5c278d3e8e219d76726d1f7cd59f80a8b335042df5e",
    "14dfe4cfab1163ed2b98327e8d75b63373dec9a1e887b60e0a1219d0c3d497a2",
)


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
            (  # large enough for the in-place kernel, across two draw batches
                dict(n_agents=40_000, t_final=2.0, seed=12, snapshot_times=(0.5, 1.0, 1.0, 2.0)),
                "exponential:1", 39905,
                "aa19d02a42a21b107399407880d1faae7f29b5dffdebe2b2eee5666933b82c5d",
                "2d052156a39a0cad0a3b67eed63ab74cef3f8edeb96722aa402b9e46450318b8",
            ),
            (  # repeated snapshot times: zero-event segments
                dict(n_agents=40, t_final=3.0, seed=6, snapshot_times=(1.0, 1.0, 2.0, 2.0, 3.0)),
                "exponential:3", 59,
                "a187571071d0e3fcdd3940f96d87c618bf2a982276de03006fc7a7bde53fcc2f",
                "6dd3bf12d62e89206886a9f1373a2a1c3795dfb748e7ba420e16c85a6d796f4c",
            ),
            (  # the figure1 population and start, in numpy rounds across four draw batches
                dict(n_agents=10_000, t_final=20.0, seed=9), "constant:10", 100072,
                "42f0af6723633f61347207440dde2179d7702122cab9c86c9f492f50d825d9da",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            LIST_LOOP_AT_ITS_LARGEST,
        ],
    )
    def test_simulate(self, kwargs, init, events, final_sha, snaps_sha):
        n = kwargs["n_agents"]
        traj = pt.simulate(pt.SimConfig(**kwargs), pt.make_initial(init, n, np.random.SeedSequence(n)))
        assert traj.event_count == events
        assert _digest([traj.final.balances]) == final_sha
        assert _digest([traj.times] + [s.balances for s in traj.snapshots]) == snaps_sha

    def test_list_loop_at_its_largest_matches_rounds(self, monkeypatch):
        """The pinned N = _IN_PLACE_AGENTS - 1 run goes through the list loop; in rounds its draws give the same bytes."""
        kwargs, init, events, final_sha, snaps_sha = LIST_LOOP_AT_ITS_LARGEST
        n = kwargs["n_agents"]
        assert n == pt._IN_PLACE_AGENTS - 1
        apply_rounds, calls = pt._apply_rounds, []
        monkeypatch.setattr(pt, "_apply_rounds", lambda *args: calls.append(1) or apply_rounds(*args))
        runs = []
        for in_place_from in (pt._IN_PLACE_AGENTS, n):  # the list loop, then the rounds
            monkeypatch.setattr(pt, "_IN_PLACE_AGENTS", in_place_from)
            traj = pt.simulate(pt.SimConfig(**kwargs), pt.make_initial(init, n, np.random.SeedSequence(n)))
            runs.append((traj.event_count, _digest([traj.final.balances]),
                         _digest([traj.times] + [s.balances for s in traj.snapshots]), bool(calls)))
        assert runs == [(events, final_sha, snaps_sha, False), (events, final_sha, snaps_sha, True)]

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
            (  # the contraction study's population, across two draw batches
                dict(n_agents=100_000, t_final=1.0, seed=13, snapshot_times=tuple(np.arange(0.0, 1.25, 0.25))),
                5.0, 49874,
                "db4bac09fd05f92c251b7ebeaa2b8a97ced9fe6d01a7b13146d920f586ee7e2c",
            ),
        ],
    )
    def test_simulate_coupled(self, kwargs, m1, events, msd_sha):
        n = kwargs["n_agents"]
        pairs = pt.CoupledPairs.build(pt.make_initial("constant:6", n), m1, seed=kwargs["seed"])
        series = pt.simulate_coupled(pt.SimConfig(**kwargs), pairs)
        assert series.event_count == events
        assert _digest([series.times, series.msd]) == msd_sha


# 12.2 expected batches at the figure1 population: the shortest run that forks a producer
LONG = dict(n_agents=10_000, t_final=80.0, seed=5)

# a long simulate that prints its producer's pid once the first batch is in, then sleeps:
# by then the producer has filled both slots and waits on the "free" pipe
PRODUCER_MAIN = """
import os, sys, time
from kinex import cli, particle as pt

real_fork, real_rounds, pids = os.fork, pt._apply_rounds, []

def fork():
    pid = real_fork()
    if pid:
        pids.append(pid)
    return pid

def apply_rounds(arrays, ii, jj, uu, first, *plan):
    if pids:
        print(pids.pop(), flush=True)
        time.sleep(60)
    real_rounds(arrays, ii, jj, uu, first, *plan)

os.fork, pt._apply_rounds = fork, apply_rounds
sys.exit(cli.main(sys.argv[1:]))
"""


class TestDrawProducer:
    """A long single-population run takes its draws from one forked producer (_producer._produced)."""

    @staticmethod
    def outcome(traj: pt.ParticleTrajectory) -> tuple:
        return traj.event_count, traj.times, [s.balances.tobytes() for s in [*traj.snapshots, traj.final]]

    @pytest.mark.parametrize("n, t_final", [(1000, 262.0), (40_000, 6.6)], ids=["list", "rounds"])
    def test_same_bytes_without_fork(self, n, t_final, monkeypatch):
        """About four batches through the producer (threshold lowered to 2), then in this process."""
        assert (n >= pt._IN_PLACE_AGENTS) == (n == 40_000)
        monkeypatch.setattr(pt, "_PRODUCER_BATCHES", 2)
        seed = 4
        scale = 1.0 / pt.SimConfig(n_agents=n, t_final=t_final).total_rate()
        first = next(pt._draws(np.random.default_rng(np.random.SeedSequence(seed)), n, scale))[0]
        # due past the first batch's last event, so it is cut at the start of the second
        past = float(np.nextafter(first[-1], np.inf))
        config = pt.SimConfig(n_agents=n, t_final=t_final, seed=seed, snapshot_times=(0.0, 1.0, past, t_final))
        init = pt.make_initial("exponential:2", n, np.random.SeedSequence(1))
        forks = record_forks(monkeypatch)
        forked = self.outcome(pt.simulate(config, init))
        assert len(forks) == 1 and forked[0] > 3 * pt._BATCH
        monkeypatch.delattr(os, "fork")
        assert self.outcome(pt.simulate(config, init)) == forked

    def test_one_fork_for_a_long_run(self, monkeypatch):
        forks = record_forks(monkeypatch)
        traj = pt.simulate(pt.SimConfig(**LONG), pt.make_initial("constant:10", LONG["n_agents"]))
        assert len(forks) == 1 and traj.event_count > pt._PRODUCER_BATCHES * pt._BATCH

    def test_no_fork_under_the_threshold(self, monkeypatch):
        config = pt.SimConfig(**{**LONG, "t_final": 78.0})
        assert config.total_rate() * config.t_final < pt._PRODUCER_BATCHES * pt._BATCH
        forks = record_forks(monkeypatch)
        pt.simulate(config, pt.make_initial("constant:10", LONG["n_agents"]))
        assert forks == []

    def test_no_fork_for_a_coupled_run(self, monkeypatch):
        monkeypatch.setattr(pt, "_PRODUCER_BATCHES", 1)
        config = pt.SimConfig(n_agents=2000, t_final=40.0, seed=5, snapshot_times=(0.0, 20.0, 40.0))
        init = pt.make_initial("constant:6", 2000)
        forks = record_forks(monkeypatch)
        pt.simulate_coupled(config, pt.CoupledPairs.build(init, 2.0, seed=5))
        assert forks == []
        pt.simulate(config, init)  # the same run with one population forks
        assert len(forks) == 1

    def test_no_fork_beside_another_thread(self, monkeypatch):
        monkeypatch.setattr(pt, "_PRODUCER_BATCHES", 1)
        config = pt.SimConfig(n_agents=1000, t_final=150.0, seed=5)
        init = pt.make_initial("constant:1", 1000)
        forks, release = record_forks(monkeypatch), threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            beside = pt.simulate(config, init)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and forks == []
        assert self.outcome(pt.simulate(config, init)) == self.outcome(beside) and len(forks) == 1

    def test_error_mid_run_reaps_the_producer(self, monkeypatch):
        apply_rounds, calls = pt._apply_rounds, []

        def failing_rounds(arrays, ii, jj, uu, first, *plan):
            calls.append(True)
            if len(calls) == 3:
                raise DataError("an event went wrong")
            apply_rounds(arrays, ii, jj, uu, first, *plan)

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(pt, "_apply_rounds", failing_rounds)
        with pytest.raises(DataError, match="an event went wrong") as info:
            pt.simulate(pt.SimConfig(**LONG), pt.make_initial("constant:10", LONG["n_agents"]))
        assert len(forks) == 1
        with pytest.raises(ProcessLookupError):  # reaped, though info's traceback still holds _run's frame
            os.kill(forks[0], 0)
        assert info.traceback

    def test_producer_error_is_raised_here(self, monkeypatch):
        """An error in the producer after its first batch reaches simulate's caller with its type and message."""
        parent, draws = os.getpid(), pt._draws

        def failing_draws(rng, n, scale):
            batches = draws(rng, n, scale)
            yield next(batches)
            if os.getpid() != parent:
                raise DataError("a draw went wrong in the producer")
            yield from batches

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(pt, "_draws", failing_draws)
        with pytest.raises(DataError) as info:
            pt.simulate(pt.SimConfig(**LONG), pt.make_initial("constant:10", LONG["n_agents"]))
        assert len(forks) == 1
        assert type(info.value) is DataError and str(info.value) == "a draw went wrong in the producer"

    def test_killed_producer_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        apply_rounds, forks = pt._apply_rounds, record_forks(monkeypatch)

        def rounds_after_kill(arrays, ii, jj, uu, first, *plan):
            if forks:  # the first batch is here: kill its producer
                os.kill(forks.pop(), signal.SIGKILL)
            apply_rounds(arrays, ii, jj, uu, first, *plan)

        monkeypatch.setattr(pt, "_apply_rounds", rounds_after_kill)
        code = main(["simulate", "--n", "10000", "--t", "80", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "kinex: error: the forked run ended without a result (signal 9)\n"
        assert not (tmp_path / "out").exists()

    def test_producer_leaves_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed simulate leaves no producer: it reads EOF on the "alive" pipe its parent held."""
        src = str(Path(kinex.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["simulate", "--n", "10000", "--t", "1000", "--out", str(tmp_path / "out")]
        proc = subprocess.Popen([sys.executable, "-c", PRODUCER_MAIN, *argv], env=env, stdout=subprocess.PIPE)
        producer = None
        try:
            producer = int(proc.stdout.readline())
            time.sleep(0.2)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2.0
            while running(producer) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not running(producer)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            if producer is not None and running(producer):
                os.kill(producer, signal.SIGKILL)
        assert not (tmp_path / "out").exists()


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
