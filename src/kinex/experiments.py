"""End-to-end studies tying the modules together.

Each study returns a StudyReport holding per-check pass/fail, fitted rates
with confidence intervals, and the raw series; write_artifacts() emits
report.json, series.csv and manifest.json. A study's fixed parameters are
one module constant (FIGURE1, CONTRACTION, CHAOS, ENTROPY), and the
manifest records that constant next to the arguments the study takes:
`seed` everywhere, plus `n_list`, `replicas` and `t_eval` for the chaos
study. All randomness flows from explicit seeds through numpy SeedSequence
spawning, so a study re-run with the same arguments reproduces its
artifacts byte for byte.

Two studies fork one child each by _fork._in_child, which ends the
child if this process dies. The contraction study runs its first coupled
particle run in the child while this process runs the second and then
the PDE route. The chaos study forks before its PDE solve: the child
takes replicas from the back of the job list, this process from the
front once q_t is solved, and the results go back in replica order.
There is one child whatever the CPU count, every forked part is seeded,
and every artifact is the same to the byte as where os has no fork and
the parts run one after another.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import particle as pt
from ._fork import _from_both_ends, _in_child
from .diagnostics import (
    TrajectoryObserver,
    eep_study,
    linear_fit,
    relative_entropy,
    wasserstein1,
    wasserstein2,
)
from .errors import ConfigError, DataError
from .kinetic1d import Equilibrium, Grid1D, GridDensity1D, _write_table, solve, uniform_density

# ---------------------------------------------------------------------------
# fit helpers
# ---------------------------------------------------------------------------


def exponential_rate(times, values) -> tuple[float, float, float]:
    """Decay rate, R^2, and slope standard error of a semilog fit."""
    values = np.asarray(values, dtype=float)
    if (values <= 0).any():
        raise DataError("exponential fit needs positive values")
    log_values = np.log(values)
    slope, _, r2, se = linear_fit(times, log_values)
    return -slope, r2, se


# ---------------------------------------------------------------------------
# study report plumbing
# ---------------------------------------------------------------------------


def _write_json(path: str, obj: dict) -> None:
    """Write obj as JSON with sorted keys, indent 2, numpy scalars as floats, and a final newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=float)
        f.write("\n")


def write_manifest(out_dir: str, body: dict, hashed: dict, results: dict) -> None:
    """Write manifest.json: body, config_sha256 of the sorted JSON of hashed, results."""
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()
    _write_json(os.path.join(out_dir, "manifest.json"), {**body, "config_sha256": digest, **results})


@dataclass
class StudyReport:
    name: str
    params: dict
    checks: dict = field(default_factory=dict)  # name -> {"passed": bool, ...}
    rates: dict = field(default_factory=dict)  # name -> {"value":, "ci": [lo, hi]}
    run_info: dict = field(default_factory=dict)  # results recorded in the manifest, not hashed
    series_columns: list = field(default_factory=list)
    series_rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def add_check(self, name: str, passed: bool, **info):
        self.checks[name] = {"passed": bool(passed), **info}

    def add_rate(self, name: str, value: float, ci: tuple[float, float] | None = None):
        self.rates[name] = {"value": value, "ci": list(ci) if ci else None}

    def write_artifacts(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "report.json"),
                    {"study": self.name, "passed": self.passed, "checks": self.checks, "rates": self.rates})
        write_manifest(out_dir, {"study": self.name, "params": self.params}, self.params, self.run_info)
        _write_table(os.path.join(out_dir, "series.csv"), self.series_columns,
                     (map(float, row) for row in self.series_rows))


def _sample_from_density(q: GridDensity1D, n: int, rng: np.random.Generator) -> np.ndarray:
    """iid draws from a grid density via its piecewise-linear inverse CDF."""
    edges, cum = q.cdf_points()
    u = rng.random(n) * cum[-1]
    return np.interp(u, cum, edges)


# ---------------------------------------------------------------------------
# Figure-1 style reproduction: histogram versus the exponential law
# ---------------------------------------------------------------------------


FIGURE1 = {"n_agents": 10_000, "t_final": 1000.0, "start": 10.0, "bin_width": 1.0}


def figure1_reproduction(seed: int = 0) -> StudyReport:
    """Constant-start run whose final histogram must match Exp(start).

    Checks: W1(final empirical, exponential) < 0.2, empirical mean exactly
    conserved, second moment within the CLT band [190, 210] (for the
    10-dollar start).
    """
    report = StudyReport("figure1", {"seed": seed, **FIGURE1})
    n_agents, start, bin_width = FIGURE1["n_agents"], FIGURE1["start"], FIGURE1["bin_width"]
    config = pt.SimConfig(n_agents=n_agents, t_final=FIGURE1["t_final"], seed=seed)
    traj = pt.simulate(config, pt.make_initial(f"constant:{start}", n_agents))
    final = traj.final

    ref_grid = Grid1D.from_spacing(20 * start, min(0.02 * start, bin_width / 4))
    equilibrium = Equilibrium(start).on_grid(ref_grid).normalized()
    w1 = wasserstein1(final.balances, equilibrium)
    report.add_check("w1_vs_exponential", w1 < 0.02 * start, value=w1, bound=0.02 * start)
    report.add_check("mean_conserved", abs(final.mean() - start) < 1e-9, value=final.mean())
    m2 = final.moment(2)
    lo, hi = 1.9 * start**2, 2.1 * start**2
    report.add_check("second_moment_band", lo <= m2 <= hi, value=m2, band=[lo, hi])
    report.run_info["event_count"] = traj.event_count

    hist = pt.empirical_histogram(final, bin_width)
    overlay = Equilibrium(start).density(hist.grid.nodes)
    report.series_columns = ["x", "empirical_density", "equilibrium_density"]
    report.series_rows = [
        [x, e, o] for x, e, o in zip(hist.grid.nodes, hist.values, overlay)
    ]
    return report


# ---------------------------------------------------------------------------
# Wasserstein contraction: PDE envelope plus coupled-pair rate
# ---------------------------------------------------------------------------


CONTRACTION = {
    "t_final": 20.0, "dx": 0.01, "dt": 0.02, "coupled_n": 100_000, "coupled_m1": 5.0, "coupled_t": 10.0,
}


def _pde_envelope(report: StudyReport) -> tuple[list, list, np.ndarray]:
    """The PDE route's times, W2(q_t, q_inf) and envelope, and its check.

    Its own function, so the equilibrium and the CDF in its memo are freed
    when it returns.
    """
    t_final, dt = CONTRACTION["t_final"], CONTRACTION["dt"]
    grid = Grid1D.from_spacing(20.0, CONTRACTION["dx"])
    q0 = uniform_density(grid, 0.0, 2.0)
    equilibrium = Equilibrium(1.0).on_grid(grid).normalized()
    times, w2s = [], []

    def record(t: float, q: GridDensity1D) -> None:
        times.append(t)
        w2s.append(wasserstein2(q.normalized(), equilibrium))

    solve(q0, t_final, dt, snapshot_times=np.arange(0.0, t_final + 1e-9, 0.5), observers=(record,))
    w0 = wasserstein2(q0, equilibrium)
    envelope = w0 * np.exp(-np.asarray(times) / 6.0)
    worst = float(np.max(np.array(w2s) / envelope))
    report.add_check("pde_w2_envelope", worst <= 1.05, worst_ratio=worst, w2_initial=w0)
    return times, w2s, envelope


def contraction_study(seed: int = 0) -> StudyReport:
    """Two routes to the exp(-t/6) contraction toward equilibrium.

    PDE route: W2(q_t, q_inf) from a Uniform[0,2] start must stay under
    1.05 times the exponential envelope. Particle route: the coupled-pair
    mean squared difference must relax at a fitted rate in [0.30, 0.36]
    once its conserved-offset floor is subtracted, and its square root must
    respect the envelope when the means are matched.
    """
    report = StudyReport("contraction", {"seed": seed, **CONTRACTION})
    coupled_n, coupled_m1, coupled_t = (CONTRACTION[k] for k in ("coupled_n", "coupled_m1", "coupled_t"))
    snap = tuple(np.arange(0.0, coupled_t + 1e-9, 0.25))

    def coupled(start: float, run_seed: int) -> pt.CoupledSeries:
        """Primary at a constant start, mirror iid Exp(coupled_m1), through shared events."""
        pairs = pt.CoupledPairs.build(pt.make_initial(f"constant:{start}", coupled_n), coupled_m1, seed=run_seed)
        config = pt.SimConfig(n_agents=coupled_n, t_final=coupled_t, seed=run_seed, snapshot_times=snap)
        return pt.simulate_coupled(config, pairs)

    # coupled pairs: constant start one dollar above the mirror mean, run by one forked child
    # (before solve starts its record thread) while this process runs the rest; numpy loads
    # numpy.random on first use, so it is loaded here, as the child imports nothing
    import numpy.random  # noqa: F401

    with _in_child(coupled, coupled_m1 + 1, seed) as first_series:
        # envelope proxy needs matched means: restart from the mirror mean
        series2 = coupled(coupled_m1, seed + 1)
        proxy = np.sqrt(series2.msd)
        proxy_env = proxy[0] * np.exp(-series2.times / 6.0)
        worst_proxy = float(np.max(proxy / proxy_env))
        report.add_check("coupled_w2_proxy_envelope", worst_proxy <= 1.05, worst_ratio=worst_proxy)

        # after this process's coupled run: memory that solve's record thread frees stays with
        # that thread's malloc arena, which would otherwise add to the coupled run's peak
        times, w2s, envelope = _pde_envelope(report)
        series = first_series()
    decaying = series.decaying_part()
    keep = decaying > 0
    rate, r2, se = exponential_rate(series.times[keep], decaying[keep])
    report.add_rate("coupled_msd_rate", rate, ci=(rate - 2 * se, rate + 2 * se))
    report.add_check("coupled_rate_band", 0.30 <= rate <= 0.36, value=rate, r2=r2)

    report.series_columns = ["time", "w2_pde", "envelope", "coupled_msd", "coupled_msd_floor"]
    msd_at = np.interp(times, series.times, series.msd, right=math.nan)
    report.series_rows = [[*row, series.msd_floor] for row in zip(times, w2s, envelope, msd_at)]
    return report


# ---------------------------------------------------------------------------
# propagation of chaos: empirical measure versus the PDE in W1
# ---------------------------------------------------------------------------


CHAOS = {"dx": 0.01, "dt": 0.01}
# the start's domain; not a manifest param, which keeps the chaos manifest's bytes
_CHAOS_X_MAX = 20.0
# 500x the default 20 replicas
_MAX_REPLICAS = 10_000
# simulate runs, sizes x replicas (each costs about 2.6 ms, however short): every two-size
# study under the replica cap passes, and 333x the default 60 runs
_MAX_CHAOS_RUNS = 2 * _MAX_REPLICAS


def chaos_scaling(
    seed: int = 0,
    n_list: tuple = (100, 1000, 10_000),
    replicas: int = 20,
    t_eval: float = 5.0,
) -> StudyReport:
    """Expected W1 between the empirical measure and the PDE solution.

    Particles start iid from Equilibrium(1.0) on [0, 20], so the initial
    expected W1 follows the classical sampling rate ~ N^{-1/2} (checked as
    a log-log slope over at least two sizes); at t_eval the mean distance
    must decrease in N with non-overlapping +-2 SE bands.
    """
    n_list = tuple(int(n) for n in n_list)
    if list(n_list) != sorted(set(n_list)):
        raise ConfigError("n_list must be strictly increasing")
    if len(n_list) < 2:
        raise ConfigError(f"n_list needs at least two population sizes to fit a slope, got {n_list}")
    if replicas < 10:
        raise ConfigError("need at least 10 replicas per population size")
    if replicas > _MAX_REPLICAS:  # group.spawn(replicas) builds every child seed at once
        raise ConfigError(f"{replicas} replicas per population size exceed the limit of {_MAX_REPLICAS}")
    if len(n_list) * replicas > _MAX_CHAOS_RUNS:
        raise ConfigError(f"{len(n_list)} population sizes x {replicas} replicas = {len(n_list) * replicas} "
                          f"simulate runs exceed the limit of {_MAX_CHAOS_RUNS}")
    # sizes and events are refused here, before the PDE solve, not by a simulate call after it
    rates = [pt.SimConfig(n_agents=n, t_final=t_eval).total_rate() for n in n_list]
    pt._check_events(replicas * t_eval * sum(rates), f"{replicas} replicas of {len(n_list)} population sizes")
    q0 = Equilibrium(1.0).on_grid(Grid1D.from_spacing(_CHAOS_X_MAX, CHAOS["dx"])).normalized()
    report = StudyReport("chaos", {"seed": seed, "n_list": list(n_list), "replicas": replicas, "t_eval": t_eval,
                                   **CHAOS, "q0_mean": q0.mean})
    q0n = q0.normalized()
    # every replica's (size, seed) in replica order
    jobs = [(n, child) for n, group in zip(n_list, pt.spawn_seeds(seed, len(n_list)))
            for child in group.spawn(replicas)]

    def replica(k: int, q_t: GridDensity1D | None) -> tuple:
        """Job k's (w1_t0, w1_t), or (w1_t0, final balances) while q_t is None."""
        n, child = jobs[k]
        start = _sample_from_density(q0n, n, np.random.default_rng(child))
        sim = pt.SimConfig(n_agents=n, t_final=t_eval, seed=int(child.generate_state(1)[0]))
        final = pt.simulate(sim, pt.WealthVector(start)).final.balances
        return wasserstein1(start, q0n), final if q_t is None else wasserstein1(final, q_t)

    def solved() -> GridDensity1D:
        q_t = solve(q0, t_eval, CHAOS["dt"]).normalized()
        if abs(q_t.mean - q0.mean) > 1e-3:
            raise DataError(f"PDE mean drifted {q_t.mean - q0.mean:.2e}; check the grid")
        return q_t

    results = _from_both_ends(replica, len(jobs), q0.grid, solved)
    stats = {}
    for k, n in enumerate(n_list):
        # in replica order before any sum: the order of a numpy sum changes its bits
        w_init, w_final = zip(*results[k * replicas:(k + 1) * replicas])
        stats[n] = {
            "w1_t0_mean": float(np.mean(w_init)),
            "w1_mean": float(np.mean(w_final)),
            "w1_se": float(np.std(w_final, ddof=1) / math.sqrt(replicas)),
        }

    means = [stats[n]["w1_mean"] for n in n_list]
    ses = [stats[n]["w1_se"] for n in n_list]
    decreasing = all(
        means[k] - 2 * ses[k] > means[k + 1] + 2 * ses[k + 1] for k in range(len(means) - 1)
    )
    report.add_check("w1_decreasing_in_n", decreasing, means=means, ses=ses)

    log_n = np.log(n_list)
    log_w = np.log([stats[n]["w1_t0_mean"] for n in n_list])
    slope, _, r2, se = linear_fit(log_n, log_w)
    report.add_rate("sampling_slope_t0", slope, ci=(slope - 2 * se, slope + 2 * se))
    report.add_check("t0_sampling_rate", -0.6 <= slope <= -0.4, value=slope, r2=r2)

    report.series_columns = ["n_agents", "w1_t0_mean", "w1_mean", "w1_se"]
    report.series_rows = [
        [n, stats[n]["w1_t0_mean"], stats[n]["w1_mean"], stats[n]["w1_se"]] for n in n_list
    ]
    return report


# ---------------------------------------------------------------------------
# entropy decay at the published discretization
# ---------------------------------------------------------------------------


def random_positive_density(grid: Grid1D, mean: float, seed: int) -> GridDensity1D:
    """Seeded sum of three Gaussian bumps, clipped positive, mass 1, given mean.

    The bump mixture is rescaled in x (analytically, then resampled on the
    grid) until the discrete mean matches to 1e-9, then normalized to
    exact discrete mass 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = rng.uniform(0.5 * mean, 3.0 * mean, 3)
    widths = rng.uniform(0.2 * mean, 0.8 * mean, 3)
    weights = rng.uniform(0.5, 1.0, 3)

    def mixture(x):
        total = np.zeros_like(x)
        for c, s, w in zip(centers, widths, weights):
            total += w * np.exp(-0.5 * ((x - c) / s) ** 2)
        return np.maximum(total, 0.0)

    scale = 1.0
    for _ in range(60):
        values = mixture(grid.nodes * scale) * scale
        q = GridDensity1D(grid, values).normalized()
        if abs(q.mean - mean) < 1e-9:
            break
        scale *= q.mean / mean
    return q


ENTROPY = {"m1": 5.0, "dt": 0.05, "dx": 0.01, "t_final": 10.0}


def entropy_decay_study(seed: int = 42) -> StudyReport:
    """Relative-entropy relaxation at the reference discretization.

    Runs the forward Euler solver from a seeded random positive density
    with the requested mean, records entropy at every snapshot, fits the
    semilog series on the second half, and attaches the
    (entropy, dissipation) study with its fitted exponent (reported, never
    pass/fail: those constants are existential).
    """
    report = StudyReport("entropy", {"seed": seed, **ENTROPY})
    m1, dt, t_final = ENTROPY["m1"], ENTROPY["dt"], ENTROPY["t_final"]
    grid = Grid1D.from_spacing(20.0 * m1, ENTROPY["dx"])
    q0 = random_positive_density(grid, m1, seed)
    equilibrium = Equilibrium(q0.mean).on_grid(grid)
    # dissipation on a coarser cadence feeds the entropy-dissipation table
    observer = TrajectoryObserver(wasserstein=False)
    stride = max(1, int(round(0.25 / dt)))
    times, entropy = [], []

    def record(t: float, q: GridDensity1D) -> None:
        if len(times) % stride == 0:
            observer(t, q)
        times.append(t)
        entropy.append(relative_entropy(q, equilibrium))

    final = solve(q0, t_final, dt, snapshot_times=np.arange(0.0, t_final + 1e-9, dt), observers=(record,))
    times, entropy = np.array(times), np.array(entropy)
    dissipations = np.full(times.size, math.nan)
    dissipations[::stride] = [r.D for r in observer.records]
    strictly_decreasing = bool(np.all(np.diff(entropy) < 0))
    report.add_check("entropy_strictly_decreasing", strictly_decreasing, n_steps=len(entropy))

    fit_mask = times >= 0.2 * t_final
    rate, r2, se = exponential_rate(times[fit_mask], entropy[fit_mask])
    report.add_rate("entropy_semilog_rate", rate, ci=(rate - 2 * se, rate + 2 * se))
    report.add_check("semilog_fit_r2", r2 > 0.95, r2=r2, rate=rate)

    study = eep_study(observer.records)
    report.add_check(
        "eep_exponent_finite",
        study.theta_hat is not None and math.isfinite(study.theta_hat),
        theta_hat=study.theta_hat,
        dropped_pairs=study.n_dropped,
    )
    mass_drift = abs(final.mass - q0.mass)
    mean_drift = abs(final.mean - q0.mean)
    report.add_check("conservation_budget", mass_drift < 1e-6 and mean_drift < 1e-4,
                     mass_drift=mass_drift, mean_drift=mean_drift)

    report.series_columns = ["time", "entropy_rel", "dissipation"]
    report.series_rows = [[t, e, d] for t, e, d in zip(times, entropy, dissipations)]
    return report
