"""Event-driven simulation of the N-agent uniform reshuffling dynamics.

Events arrive on an exponential clock; at each one an unordered pair of
agents pools its money and splits it by a fresh Uniform[0,1] fraction. The
default clock gives every unordered pair rate 1/N (total rate (N-1)/2), so
a single agent jumps at rate (N-1)/N -> 1, matching the unit-rate limit
process; clock_scale="global" switches to a total rate of N for
comparison.

Randomness comes from one PCG64 stream per run, consumed in fixed-size
batches in a fixed draw order (waiting times, first index, second index,
uniform fraction), so the event stream is a pure function of the seed and
is unaffected by snapshot placement. Ensemble members should use
spawn_seeds() for documented, collision-free sub-seeds.

The coupled mode advances a second population through the very same
events (same pair, same uniform fraction) to expose the pathwise
squared-difference contraction; see simulate_coupled. A long
single-population run takes its batches from one producer, forked by
_fork._in_child, that draws them ahead of the event loop (see _run); the
events are the same.
Below _IN_PLACE_AGENTS agents the loop applies events one by one to
Python lists (_apply); from there on _apply_rounds applies them in numpy,
a round of events on disjoint agents at a time, and hands each chunk's last
few events to _apply; the producer puts some chunks in round order ahead
of the loop (_producer._schedule). All give every agent the same float
operations in the same order, so the bits agree.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .kinetic1d import Grid1D, GridDensity1D

_BATCH = 1 << 15
_PRODUCER_BATCHES = 12  # see _run
_SELF_CHECK_RTOL = 1e-9
_IN_PLACE_AGENTS = 10_000  # see _run
# events per chunk of _apply_rounds from 3e4 agents on, half that below (_chunk): chunks of 1024/2048/4096/8192
# ran 67/57/60/68 ns/event at N = 1e4 and 51/46/43/40 at 1e5 with the tail below, 89/73/67/73 and 62/54/46/42
# without it (one population, best of 11 on one host); a whole batch ran 132 and 30 without it, and at 1e4 4096
# put figure1's peak RSS 0.4 MB above 2048
_ROUND_EVENTS = 4096
_PRODUCER_STRIDE = 3  # the producer schedules every 3rd chunk of a batch; every 2nd is no faster (see _run)
# _rounds hands a chunk's last events to _apply once at most this many remain. At N = 1e4 one numpy round took
# 21 µs for up to 64 events, and _apply on memoryviews 0.27-0.32 µs per event: they cross at about 70 events
_TAIL_EVENTS = 64
# A larger population is refused before numpy would try to allocate it.
_MAX_AGENTS = 10**6
# More expected events (total rate x time) are refused before the first draw; 20x figure1's.
_MAX_EVENTS = 10**8
# More kept balances (agents x snapshot times) are refused before the first draw: simulate
# copies the state at every snapshot, and simulate --write-snapshots writes one row per value
_MAX_SNAPSHOT_VALUES = 10**7


def _chunk(n: int) -> int:
    """Events per chunk of _apply_rounds at n agents."""
    return _ROUND_EVENTS if n >= 30_000 else _ROUND_EVENTS // 2


class WealthVector:
    """Nonnegative balances of the N agents; the total is cached and conserved."""

    def __init__(self, balances):
        balances = np.asarray(balances, dtype=float)
        if balances.ndim != 1 or balances.size < 1:
            raise DataError("balances must be a nonempty 1-D array")
        if not np.all(np.isfinite(balances)):
            raise DataError("balances must be finite")
        if balances.min() < 0:
            raise DomainError(f"negative balance {balances.min()}")
        self.balances = balances.copy()
        self.total = float(balances.sum())

    @property
    def n_agents(self) -> int:
        return self.balances.size

    def mean(self) -> float:
        return self.total / self.n_agents

    def moment(self, k: int) -> float:
        return float(np.mean(self.balances**k))


@dataclass
class SimConfig:
    """Run parameters for simulate()/simulate_coupled()."""

    n_agents: int
    t_final: float
    seed: int = 0
    snapshot_times: tuple = ()
    clock_scale: str = "pairwise"  # or "global"

    def __post_init__(self):
        _check_n_agents(self.n_agents)
        if not 0 < self.t_final < np.inf:
            raise ConfigError(f"t_final must be positive and finite, got {self.t_final}")
        if self.clock_scale not in ("pairwise", "global"):
            raise ConfigError(f"clock_scale must be 'pairwise' or 'global', got {self.clock_scale!r}")
        _check_events(self.total_rate() * self.t_final, f"a run of {self.n_agents} agents to t = {self.t_final:g}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(0 <= t <= self.t_final for t in times) or list(times) != sorted(times):
            raise ConfigError("snapshot times must be sorted and within [0, t_final]")
        self.snapshot_times = times

    def total_rate(self) -> float:
        if self.clock_scale == "global":
            return float(self.n_agents)
        return (self.n_agents - 1) / 2.0


def _check_n_agents(n: int) -> None:
    """Refuse a population of fewer than 2 or more than _MAX_AGENTS agents."""
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if n > _MAX_AGENTS:
        raise ConfigError(f"a population of {n} agents exceeds the limit of {_MAX_AGENTS} agents")


def _check_events(expected: float, what: str) -> None:
    """Refuse work of more than _MAX_EVENTS expected events; what names the work."""
    if expected > _MAX_EVENTS:
        raise ConfigError(f"{what}: {expected:.3g} expected events exceed the limit of {_MAX_EVENTS:.3g} events")


def _check_snapshots(n: int, kept: int) -> None:
    """Refuse kept snapshots of more than _MAX_SNAPSHOT_VALUES balances in all."""
    if n * kept > _MAX_SNAPSHOT_VALUES:
        raise ConfigError(f"{n} agents x {kept} snapshot times = {n * kept} kept balances exceed the limit of "
                          f"{_MAX_SNAPSHOT_VALUES}")


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Documented sub-seed derivation for ensembles: SeedSequence(seed).spawn(n)."""
    return np.random.SeedSequence(seed).spawn(n)


def make_initial(spec: str, n: int, seed_seq=None) -> WealthVector:
    """Build an initial state from a spec string.

    constant:<v>      every agent holds v dollars
    exponential:<m>   iid exponential with mean m (needs a seed sequence)
    file:<path>       one balance per line
    """
    kind, _, arg = spec.partition(":")
    if kind in ("constant", "exponential"):
        try:
            value = float(arg)
        except ValueError:
            raise ConfigError(f"bad number {arg!r} in initial condition {spec!r}") from None
    if kind == "constant":
        return WealthVector(np.full(n, value))
    if kind == "exponential":
        if seed_seq is None:
            raise ConfigError("exponential initial condition needs a seed")
        if not 0 < value < np.inf:
            raise ConfigError(f"exponential mean must be positive and finite, got {arg!r}")
        rng = np.random.default_rng(seed_seq)
        return WealthVector(rng.exponential(value, n))
    if kind == "file":
        try:
            values = np.loadtxt(arg, dtype=float, ndmin=1)
        except ValueError as exc:
            raise DataError(f"{arg}: expected one balance per line ({exc})") from None
        if values.size != n:
            raise ConfigError(f"file holds {values.size} balances, expected {n}")
        return WealthVector(values)
    raise ConfigError(f"unknown initial condition {spec!r}")


@dataclass
class ParticleTrajectory:
    times: list[float] = field(default_factory=list)
    snapshots: list[WealthVector] = field(default_factory=list)
    final: WealthVector | None = None
    event_count: int = 0


def _apply(bal: list | memoryview, ii: memoryview, jj: memoryview, uu: memoryview) -> None:
    """Apply the events (i, j, u) in order: agents i and j split their pool u : 1-u.

    bal is a list of floats or a float64 memoryview; both yield and take Python floats.
    """
    for i, j, u in zip(ii, jj, uu):
        pool = bal[i] + bal[j]
        share = u * pool
        bal[i] = share
        bal[j] = pool - share


def _rounds(a: np.ndarray, b: np.ndarray, u: np.ndarray, first: np.ndarray):
    """Yield one chunk's events (a, b, u) as rounds, each an (a, b, u) of events on disjoint agents, then its tail.

    np.minimum.at leaves in first[k] the position of agent k's earliest
    remaining event, and a round holds every event that comes first for
    both its agents. Those events touch disjoint agents and every earlier
    event of theirs is in an earlier round. Once at most _TAIL_EVENTS
    events remain, the rounds stop and those events, still in drawn order,
    come last as the tail: no event of a round comes after a tail event on
    a shared agent, since it would not have been first for that agent. So
    applying the rounds in turn, then the tail in order, gives each agent
    _apply's float operations in _apply's order. Only the agents decide the
    rounds, never a balance. first (one int32 per agent) holds
    _ROUND_EVENTS, past every position, on entry and after the last round.
    """
    pos = np.arange(len(a), dtype=np.int32)
    while len(pos) > _TAIL_EVENTS:
        np.minimum.at(first, a, pos)
        np.minimum.at(first, b, pos)
        ready = (first[a] == pos) & (first[b] == pos)
        first[a] = first[b] = _ROUND_EVENTS
        # by index: a mask this irregular is slower to select by
        go, rest = np.flatnonzero(ready), np.flatnonzero(~ready)
        yield a.take(go), b.take(go), u.take(go)
        a, b, u, pos = a.take(rest), b.take(rest), u.take(rest), pos.take(rest)
    if len(pos):
        yield a, b, u


def _apply_rounds(arrays: tuple, ii: np.ndarray, jj: np.ndarray, uu: np.ndarray, first: np.ndarray,
                  counts: np.ndarray | None = None, ends: np.ndarray | None = None) -> None:
    """Apply the events (i, j, u) in order to every array, a round of independent events at a time.

    The rounds and tail of each chunk of _chunk(N) events come from
    _rounds, which needs first (see there), or, where counts[c] > 0, from
    the draw producer (_producer._schedule): chunk c is then in that order,
    and the next counts[c] values of ends end its pieces, each a contiguous
    slice. A piece of at most _TAIL_EVENTS events, so every tail, goes to
    _apply, on memoryviews of the arrays (no copy), in order; that keeps
    the bits of a round too, whose events touch disjoint agents.
    """
    chunk, planned, at = _chunk(len(first)), [] if counts is None else counts.tolist(), 0
    for c, lo in enumerate(range(0, len(ii), chunk)):
        a, b, u = ii[lo : lo + chunk], jj[lo : lo + chunk], uu[lo : lo + chunk]
        if c < len(planned) and planned[c]:
            bounds = [0, *ends[at : at + planned[c]].tolist()]
            at += planned[c]
            rounds = ((a[s:e], b[s:e], u[s:e]) for s, e in zip(bounds, bounds[1:]))
        else:
            rounds = _rounds(a, b, u, first)
        for ra, rb, ru in rounds:
            if len(ra) > _TAIL_EVENTS:
                for bal in arrays:
                    pool = bal[ra] + bal[rb]
                    share = ru * pool
                    bal[ra] = share
                    bal[rb] = pool - share
            else:
                events = ra.data, rb.data, ru.data
                for bal in arrays:
                    _apply(bal.data, *events)


def _draws(rng: np.random.Generator, n: int, scale: float):
    """Yield each batch's (times, ii, jj, uu) in the fixed draw order."""
    t = 0.0
    while True:
        dts = rng.exponential(scale, _BATCH)
        ii = rng.integers(0, n, _BATCH)
        jj = rng.integers(0, n - 1, _BATCH)
        uu = rng.random(_BATCH)
        jj += jj >= ii
        # sequential sums, rounded exactly like t += dt event by event
        times = np.cumsum(np.concatenate(([t], dts)))[1:]
        yield times, ii, jj, uu
        t = times[-1]


def _run(config: SimConfig, balances: np.ndarray, mirror: np.ndarray | None, on_snapshot) -> int:
    """Drive the event loop; calls on_snapshot(t) at each requested time.

    Each batch of draws is cut at t_final and at every due snapshot, so a
    snapshot sees exactly the events at or before its time; a snapshot at or
    after the batch's last event waits for the next batch. Returns the
    executed event count. From _IN_PLACE_AGENTS agents on, a segment goes
    to _apply_rounds, which updates the arrays in place; below that it is
    read through memoryviews of the draw arrays (no copy; they yield the
    same Python ints and floats) and applied to a list of the primary, then
    of the mirror (the two never interact), copied back at each snapshot.
    Rounds, rounds without the tail (_TAIL_EVENTS = 0) and list, ns/event
    (8 batches, best of 3 in each of 3 runs, 2-vCPU x86): one population
    208/231/108 at N = 1e3, 96/108/108 at 3e3, 54/64/106 at 1e4, 39/44/113
    at 3e4, 40/45/173 at 1e5; two populations 244/263/213 at 1e3,
    113/128/209 at 3e3, 69/82/207 at 1e4, 53/59/247 at 3e4, 57/60/368 at
    1e5. The switch sits at 1e4, above both crossovers. After every batch
    the total is checked afresh; a list is summed by builtin sum (43 µs at
    N = 1e4, against 214 µs for np.sum of a copy). Its rounding is at most
    (N - 1) 2^-53 relative for nonnegative balances: 1.1e-12 just below
    _IN_PLACE_AGENTS, 900x under _SELF_CHECK_RTOL.

    A run with one population and at least _PRODUCER_BATCHES expected
    batches draws in a producer (_producer._produced) if os has fork and no
    other Python thread runs, so never in a forked child, where _in_child's
    orphan thread runs; the rest draw in process (_draws). Producer vs
    in-process wall at N = 1e4 (20 alternating pairs, 2-vCPU x86): 4 batches
    +13%, 8 -1%, 12 -8%, 16 -18%, 32 -10%, against a fixed 6.8 ms for fork,
    first batch and reap. In rounds, the producer also puts every
    _PRODUCER_STRIDE-th chunk of a batch that holds no cut in round order,
    its tail last: at N = 1e4 (one batch, best of 15) that costs it 45
    ns/event of the chunk (59 without the tail), and applying the chunk then
    costs 17, against 52 in rounds (63 without the tail). simulate at
    figure1's size (N = 1e4 to t = 1000, 5.0e6 events, median of 5, without
    the tail): list 0.380 s, rounds in process 0.308, rounds beside a
    producer 0.238, and with every 2nd, 3rd or 4th chunk scheduled 0.202,
    0.185 or 0.197. With the tail (median of 10, on a host that ran the same
    code about 2x slower), every 3rd chunk 0.387 s against 0.423 without the
    tail, and every 2nd 0.390, where the producer is the slower side: the
    loop waits on "ready" 0.086 s in all, against 0.011 s at every 3rd.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = config.n_agents
    scale = 1.0 / config.total_rate()
    arrays = (balances,) if mirror is None else (balances, mirror)
    rounds = n >= _IN_PLACE_AGENTS
    pops = [] if rounds else [arr.tolist() for arr in arrays]
    first = np.full(n, _ROUND_EVENTS, np.int32) if rounds else None

    def flush():
        for arr, pop in zip(arrays, pops):
            arr[:] = np.fromiter(pop, float, n)

    total0 = float(balances.sum())
    snaps = config.snapshot_times
    cut_times = np.array([*snaps, config.t_final])
    snap_idx = 0
    events = 0
    forked = (mirror is None and config.total_rate() * config.t_final >= _PRODUCER_BATCHES * _BATCH
              and hasattr(os, "fork") and threading.active_count() == 1)
    batches = _draws(rng, n, scale)
    if forked:
        from ._producer import _produced  # only runs that fork a producer compile it

        batches = _produced(batches, n, cut_times)
    with contextlib.closing(batches):
        for times, ii, jj, uu, *plan in batches:
            start = 0
            # the cuts due in this batch, plus the first one at or past its last event
            due = cut_times[snap_idx : np.searchsorted(cut_times, times[-1]) + 1]
            for stop in np.searchsorted(times, due, side="right").tolist():
                if rounds:
                    _apply_rounds(arrays, ii[start:stop], jj[start:stop], uu[start:stop], first, *plan)
                else:
                    segment = ii[start:stop].data, jj[start:stop].data, uu[start:stop].data
                    for pop in pops:
                        _apply(pop, *segment)
                start = stop
                if stop == _BATCH or snap_idx == len(snaps):
                    break
                flush()
                on_snapshot(snaps[snap_idx])
                snap_idx += 1
            events += start
            fresh = float(np.sum(balances)) if rounds else sum(pops[0])
            if abs(fresh - total0) > _SELF_CHECK_RTOL * max(abs(total0), 1.0):
                raise DataError(f"conservation drift {fresh - total0:.3e} after {events} events")
            if start < _BATCH:
                break
    flush()
    return events


def simulate(config: SimConfig, initial: WealthVector) -> ParticleTrajectory:
    """Run the reshuffling dynamics, snapshotting deep copies of the state.

    Each snapshot reflects the latest event at or before the requested
    time. Identical config and seed reproduce the event stream bit for bit.
    More than _MAX_SNAPSHOT_VALUES kept balances are refused up front.
    """
    if initial.n_agents != config.n_agents:
        raise ConfigError(f"initial state has {initial.n_agents} agents, config says {config.n_agents}")
    _check_snapshots(config.n_agents, len(config.snapshot_times))
    traj = ParticleTrajectory()
    work = initial.balances.copy()

    def on_snapshot(t: float):
        traj.times.append(t)
        traj.snapshots.append(WealthVector(work))

    traj.event_count = _run(config, work, None, on_snapshot)
    traj.final = WealthVector(work)
    return traj


@dataclass
class CoupledPairs:
    """Primary population plus a mirror carrying the stationary law.

    The mirror is drawn iid exponential with the given mean.
    """

    primary: WealthVector
    mirror: WealthVector

    def __post_init__(self):
        if self.primary.n_agents != self.mirror.n_agents:
            raise ConfigError("primary and mirror must have equal length")

    @classmethod
    def build(cls, primary: WealthVector, m1: float, seed: int) -> "CoupledPairs":
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        mirror = WealthVector(rng.exponential(m1, primary.n_agents))
        return cls(primary, mirror)


@dataclass
class CoupledSeries:
    times: np.ndarray
    msd: np.ndarray  # mean squared coordinate difference per snapshot
    mean_offset: float  # conserved difference of the population means
    msd_floor: float  # exact fixed point 2 S^2 / (N (N+1)) implied by the offset
    event_count: int = 0

    def decaying_part(self) -> np.ndarray:
        return self.msd - self.msd_floor


def simulate_coupled(config: SimConfig, pairs: CoupledPairs) -> CoupledSeries:
    """Advance primary and mirror through shared events; record E[(X - X~)^2].

    Both totals are conserved, so the difference of means S/N is a run
    constant; the squared-difference average relaxes at rate (N+1)/(3N)
    toward the exact floor 2 S^2 / (N (N+1)). The decaying_part() of the
    returned series is what contracts like exp(-t/3).
    """
    if pairs.primary.n_agents != config.n_agents:
        raise ConfigError("pair size does not match the configured agent count")
    if not config.snapshot_times:
        raise ConfigError("coupled runs need snapshot times to record the series")
    n = config.n_agents
    prim = pairs.primary.balances.copy()
    mirr = pairs.mirror.balances.copy()
    s_total = float(prim.sum() - mirr.sum())
    times, msd = [], []

    def on_snapshot(t: float):
        times.append(t)
        diff = prim - mirr
        diff *= diff
        msd.append(float(np.mean(diff)))

    events = _run(config, prim, mirr, on_snapshot)
    return CoupledSeries(
        times=np.array(times),
        msd=np.array(msd),
        mean_offset=s_total / n,
        msd_floor=2.0 * s_total**2 / (n * (n + 1.0)),
        event_count=events,
    )


def empirical_histogram(state: WealthVector, bin_width: float) -> GridDensity1D:
    """Density-normalized histogram with cells of the given width."""
    if not bin_width > 0:
        raise DomainError(f"bin width must be positive, got {bin_width}")
    n_bins = max(16, int(np.max(state.balances) / bin_width) + 1)
    counts = np.bincount(
        np.minimum((state.balances / bin_width).astype(int), n_bins - 1), minlength=n_bins
    )
    grid = Grid1D(n_bins * bin_width, n_bins)
    return GridDensity1D(grid, counts / (state.n_agents * bin_width))
