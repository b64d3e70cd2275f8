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
Python lists (_apply); from there on it applies them in numpy, a round of
events on disjoint agents at a time (_apply_rounds). Both give every
agent the same float operations in the same order, so the bits agree.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .kinetic1d import Grid1D, GridDensity1D

_BATCH = 1 << 15
_PRODUCER_BATCHES = 12  # see _run
_SELF_CHECK_RTOL = 1e-9
_IN_PLACE_AGENTS = 30_000  # see _run
# events per chunk of _apply_rounds; 2048-4096 ran fastest at N = 3e4 and 1e5, a whole batch 1.8-2.2x slower
_ROUND_EVENTS = 4096
# A larger population is refused before numpy would try to allocate it.
_MAX_AGENTS = 10**6
# More expected events (total rate x time) are refused before the first draw; 20x figure1's.
_MAX_EVENTS = 10**8
# More kept balances (agents x snapshot times) are refused before the first draw: simulate
# copies the state at every snapshot, and simulate --write-snapshots writes one row per value
_MAX_SNAPSHOT_VALUES = 10**7


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


def _apply(bal: list, ii: memoryview, jj: memoryview, uu: memoryview) -> None:
    """Apply the events (i, j, u) in order: agents i and j split their pool u : 1-u."""
    for i, j, u in zip(ii, jj, uu):
        pool = bal[i] + bal[j]
        share = u * pool
        bal[i] = share
        bal[j] = pool - share


def _apply_rounds(arrays: tuple, ii: np.ndarray, jj: np.ndarray, uu: np.ndarray, first: np.ndarray) -> None:
    """Apply the events (i, j, u) in order to every array, a round of independent events at a time.

    Per chunk of _ROUND_EVENTS events, np.minimum.at leaves in first[k] the
    position of agent k's earliest remaining event, and a round applies
    every event that comes first for both its agents. Those events touch
    disjoint agents and every earlier event of theirs is applied, so each
    agent gets _apply's float operations in _apply's order. first (one
    int32 per agent) holds _ROUND_EVENTS, past every position, on entry and
    on return.
    """
    for lo in range(0, len(ii), _ROUND_EVENTS):
        a, b, u = ii[lo : lo + _ROUND_EVENTS], jj[lo : lo + _ROUND_EVENTS], uu[lo : lo + _ROUND_EVENTS]
        pos = np.arange(len(a), dtype=np.int32)
        while len(pos):
            np.minimum.at(first, a, pos)
            np.minimum.at(first, b, pos)
            ready = (first[a] == pos) & (first[b] == pos)
            first[a] = first[b] = _ROUND_EVENTS
            ra, rb, ru = a[ready], b[ready], u[ready]
            for bal in arrays:
                pool = bal[ra] + bal[rb]
                share = ru * pool
                bal[ra] = share
                bal[rb] = pool - share
            rest = ~ready
            a, b, u, pos = a[rest], b[rest], u[rest], pos[rest]


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


def _produced(rng: np.random.Generator, n: int, scale: float):
    """Yield the batches of _draws(rng, n, scale) from one forked producer, two slots ahead.

    The producer is _fork._in_child's child. A slot of the shared mapping
    is refilled only after one byte on the "free" pipe, sent when the loop
    asks for the next batch; one byte on "ready" hands a filled slot over.
    EOF on "ready" means the producer ended, and wait() raises why.
    Closing the generator kills and reaps the producer.
    """
    import mmap  # only runs that fork a producer load these

    from ._fork import _in_child

    shared = mmap.mmap(-1, 2 * 4 * 8 * _BATCH)
    slots = [[np.frombuffer(shared, kind, _BATCH, 8 * _BATCH * (4 * s + k))
              for k, kind in enumerate((np.float64, np.int64, np.int64, np.float64))] for s in (0, 1)]
    fds = ready_r, ready_w, free_r, free_w = *os.pipe(), *os.pipe()

    def produce():
        for k, batch in enumerate(_draws(rng, n, scale)):
            if k > 1:
                os.read(free_r, 1)
            for slot, values in zip(slots[k % 2], batch):
                slot[:] = values
            os.write(ready_w, b"r")

    try:
        with _in_child(produce) as wait:
            os.close(ready_w)  # so the producer's end is the last: EOF once it ends
            fds = ready_r, free_r, free_w
            for k in itertools.count():
                if not os.read(ready_r, 1):
                    wait()  # produce never returns: this raises its exception, or one KinexError
                yield slots[k % 2]
                os.write(free_w, b"f")  # this process holds free_r: no BrokenPipeError
    finally:
        for fd in fds:
            os.close(fd)


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
    Rounds over list ns/event (8 batches, best of 3, 2-vCPU x86):
    one population 254/78 at N = 1e3, 133/78 at 3e3, 79/77 at 1e4, 50/85
    at 3e4, 35/132 at 1e5; two populations 287/161 at 1e3, 145/154 at 3e3,
    86/150 at 1e4, 59/175 at 3e4, 44/234 at 1e5. The switch stays at 3e4,
    above both crossovers. After every batch the total is checked afresh; a
    list is summed by builtin sum (43 µs at N = 1e4, against 214 µs for
    np.sum of a copy). Its rounding is at most (N - 1) 2^-53 relative for
    nonnegative balances: 1.1e-12 at N = 1e4 and 3.3e-12 just below
    _IN_PLACE_AGENTS, 300x or more under _SELF_CHECK_RTOL.

    A run with one population and at least _PRODUCER_BATCHES expected
    batches draws in a producer (_produced) if os has fork and no other
    Python thread runs, so never in a forked child, where _in_child's
    orphan thread runs; the rest draw in process (_draws). Producer vs
    in-process wall at N = 1e4 (20 alternating pairs, 2-vCPU x86): 4 batches
    +13%, 8 -1%, 12 -8%, 16 -18%, 32 -10%, against a fixed 6.8 ms for fork,
    first batch and reap.
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
    with contextlib.closing(_produced(rng, n, scale) if forked else _draws(rng, n, scale)) as batches:
        for times, ii, jj, uu in batches:
            start = 0
            # the cuts due in this batch, plus the first one at or past its last event
            due = cut_times[snap_idx : np.searchsorted(cut_times, times[-1]) + 1]
            for stop in np.searchsorted(times, due, side="right").tolist():
                if rounds:
                    _apply_rounds(arrays, ii[start:stop], jj[start:stop], uu[start:stop], first)
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
