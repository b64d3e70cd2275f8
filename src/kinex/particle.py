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
squared-difference contraction; see simulate_coupled. The event loop reads
each segment's draws straight from the numpy buffers, so no draw is
copied; see _run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .kinetic1d import Grid1D, GridDensity1D

_BATCH = 1 << 15
_SELF_CHECK_RTOL = 1e-9
_IN_PLACE_AGENTS = 30_000  # see _run
# A larger population is refused before numpy would try to allocate it.
_MAX_AGENTS = 10**6


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
    """Apply the events (i, j, u) in order: agents i and j split their pool u : 1-u."""
    for i, j, u in zip(ii, jj, uu):
        pool = bal[i] + bal[j]
        share = u * pool
        bal[i] = share
        bal[j] = pool - share


def _run(config: SimConfig, balances: np.ndarray, mirror: np.ndarray | None, on_snapshot) -> int:
    """Drive the event loop; calls on_snapshot(t) at each requested time.

    Each batch of draws is cut at t_final and at every due snapshot, so a
    snapshot sees exactly the events at or before its time; a snapshot at or
    after the batch's last event waits for the next batch. A segment is read
    through memoryviews of the draw arrays (no copy; they yield the same
    Python ints and floats) and applied to the primary, then to the mirror:
    the two never interact. Returns the executed event count. The arrays
    are updated in place: from _IN_PLACE_AGENTS agents on through a
    memoryview, below that via a list copied back at each snapshot. List vs
    memoryview ns/event (2e5 events, best of 5, 2-vCPU x86), no snapshots:
    ~210/260 at N = 1e4, ~240/290 at 3e4, ~310/360 at 5e4, ~440/300 at 1e5;
    a snapshot every 5000 events: 407/253 at 3e4, 805/262 at 5e4. So the
    switch stays at 3e4. After every batch the total is checked afresh.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = config.n_agents
    scale = 1.0 / config.total_rate()
    arrays = (balances,) if mirror is None else (balances, mirror)
    in_place = n >= _IN_PLACE_AGENTS
    pops = [memoryview(arr) if in_place else arr.tolist() for arr in arrays]

    def flush():
        for arr, pop in zip(arrays, () if in_place else pops):
            arr[:] = np.fromiter(pop, float, n)

    total0 = float(balances.sum())
    snaps = config.snapshot_times
    cut_times = np.array([*snaps, config.t_final])
    snap_idx = 0
    t = 0.0
    events = 0
    while True:
        dts = rng.exponential(scale, _BATCH)
        ii = rng.integers(0, n, _BATCH)
        jj = rng.integers(0, n - 1, _BATCH)
        uu = rng.random(_BATCH)
        jj += jj >= ii
        # sequential sums, rounded exactly like t += dt event by event
        times = np.cumsum(np.concatenate(([t], dts)))[1:]
        start = 0
        # the cuts due in this batch, plus the first one at or past its last event
        due = cut_times[snap_idx : np.searchsorted(cut_times, times[-1]) + 1]
        for stop in np.searchsorted(times, due, side="right").tolist():
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
        fresh = float(np.sum(balances if in_place else np.fromiter(pops[0], float, n)))
        if abs(fresh - total0) > _SELF_CHECK_RTOL * max(abs(total0), 1.0):
            raise DataError(f"conservation drift {fresh - total0:.3e} after {events} events")
        if start < _BATCH:
            break
        t = times[-1]
    flush()
    return events


def simulate(config: SimConfig, initial: WealthVector) -> ParticleTrajectory:
    """Run the reshuffling dynamics, snapshotting deep copies of the state.

    Each snapshot reflects the latest event at or before the requested
    time. Identical config and seed reproduce the event stream bit for bit.
    """
    if initial.n_agents != config.n_agents:
        raise ConfigError(f"initial state has {initial.n_agents} agents, config says {config.n_agents}")
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
        msd.append(float(np.mean(diff * diff)))

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
