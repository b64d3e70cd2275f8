"""Command-line front end: simulate | pde | study.

Every run writes a manifest.json with the merged configuration, its SHA-256
hash, the seed, and (for particle runs) the executed event count, which is
enough to reproduce the outputs byte for byte. Flags override values from
an optional key=value config file. Output goes to --out, defaulting to the
KINEX_OUT environment variable or ./kinex-out.

Exit codes: 0 success, 1 runtime or acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from . import experiments as ex
from . import particle as pt
from .diagnostics import TrajectoryObserver, write_records_csv
from .errors import KinexError
from .kinetic1d import Equilibrium, Grid1D, GridDensity1D, load_density, save_density, solve, uniform_density

# --study name -> its function in experiments
_STUDIES = {
    "chaos": "chaos_scaling",
    "contraction": "contraction_study",
    "figure1": "figure1_reproduction",
    "entropy": "entropy_decay_study",
}


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; values stay strings."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KinexError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, schema: dict) -> dict:
    """Defaults, then config-file values, then explicitly given flags.

    schema maps key -> (default, converter); every file value and every
    given flag passes its converter, which also validates it. Parser
    options use None as the not-given sentinel so flag presence is
    detectable regardless of how main() was invoked.
    """
    merged = {key: default for key, (default, _) in schema.items()}
    fileconf = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in fileconf:
        if key not in schema:
            raise KinexError(f"unknown config key {key!r}")
    flags = [(key, getattr(args, key)) for key in schema if getattr(args, key) is not None]
    for key, raw in [*fileconf.items(), *flags]:
        try:
            merged[key] = schema[key][1](raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise KinexError(f"bad value {key}={raw!r}: {exc}") from exc
    return merged


def _out_dir(args) -> str:
    """The output path; a command creates it only before its first write, so a refused run leaves none."""
    return args.out or os.environ.get("KINEX_OUT") or "kinex-out"


def _parse_values(text: str, convert, what: str, count: int | None = None) -> tuple:
    """Comma-separated values; a bad token or count is a KinexError naming it."""
    values = []
    for tok in text.split(","):
        try:
            values.append(convert(tok))
        except ValueError:
            raise KinexError(f"bad {what} {tok!r} in {text!r}") from None
    if count is not None and len(values) != count:
        raise KinexError(f"expected {count} {what} value(s), got {text!r}")
    return tuple(values)


def _positive_float(raw) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise ValueError("need a finite number > 0")
    return value


def _seed(raw) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("need an integer >= 0")
    return value


def _population_sizes(raw) -> tuple:
    return _parse_values(raw, int, "population size")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need an integer >= 2, got {text}")
    return value


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


SIMULATE_SCHEMA = {
    "n": (1000, _positive_int),
    "t": (10.0, float),
    "init": ("constant:10", str),
    "seed": (0, _seed),
    "snapshots": (None, str),
    "clock_scale": ("pairwise", str),  # pt.SimConfig rejects all but pairwise | global
}

PDE_SCHEMA = {
    "m1": (1.0, _positive_float),
    "dx": (0.01, _positive_float),
    "dt": (0.05, _positive_float),
    "t": (10.0, _positive_float),
    "x_max": (None, _positive_float),
    "init": ("equilibrium", str),
    "snapshot_every": (0.25, _positive_float),
}

STUDY_SCHEMA = {
    "study": (None, str),
    "seed": (0, _seed),
    "n_list": (None, _population_sizes),
    "replicas": (None, int),
    "t": (None, _positive_float),
}
# STUDY_SCHEMA keys that only the chaos study reads -> chaos_scaling arguments
_CHAOS_ARGS = {"n_list": "n_list", "replicas": "replicas", "t": "t_eval"}


def _sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes: the manifest's record of a file: input."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def cmd_simulate(args) -> int:
    conf = _merge_config(args, SIMULATE_SCHEMA)
    out = _out_dir(args)
    snaps = (conf["t"],)
    if conf["snapshots"]:
        snaps = _parse_values(conf["snapshots"], float, "snapshot time")
    config = pt.SimConfig(
        n_agents=conf["n"],
        t_final=conf["t"],
        seed=conf["seed"],
        snapshot_times=snaps,
        clock_scale=conf["clock_scale"],
    )
    initial = pt.make_initial(conf["init"], conf["n"], np.random.SeedSequence(conf["seed"]))
    traj = pt.simulate(config, initial)

    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "summary.csv"), "w") as f:
        f.write("time,stat_name,value\n")
        for t, snap in zip(traj.times, traj.snapshots):
            for stat, value in (("mean", snap.mean()), ("m2", snap.moment(2)), ("total", snap.total)):
                f.write(f"{t!r},{stat},{value!r}\n")
    if args.write_snapshots:
        with open(os.path.join(out, "snapshots.csv"), "w") as f:
            f.write("time,agent_index,balance\n")
            for t, snap in zip(traj.times, traj.snapshots):
                for idx, balance in enumerate(snap.balances):
                    f.write(f"{t!r},{idx},{float(balance)!r}\n")
    manifest = {"command": "simulate", **conf, "snapshots": list(snaps)}
    if conf["init"].startswith("file:"):
        manifest["init_sha256"] = _sha256(conf["init"][5:])
    ex.write_manifest(out, manifest, manifest, {"event_count": traj.event_count})
    print(f"simulate: {traj.event_count} events, outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# pde
# ---------------------------------------------------------------------------


def _initial_density(spec: str, grid: Grid1D, m1: float) -> GridDensity1D:
    kind, _, arg = spec.partition(":")
    if kind == "equilibrium":
        return Equilibrium(m1).on_grid(grid).normalized()
    if kind == "uniform":
        a, b = _parse_values(arg, float, "uniform bound", 2)
        return uniform_density(grid, a, b)
    if kind == "random":
        (seed,) = _parse_values(arg, _seed, "random seed", 1)
        return ex.random_positive_density(grid, m1, seed)
    raise KinexError(f"unknown initial density {spec!r}")


def cmd_pde(args) -> int:
    conf = _merge_config(args, PDE_SCHEMA)
    out = _out_dir(args)
    x_max = conf["x_max"] if conf["x_max"] else 20.0 * conf["m1"]
    provenance = {}
    source = conf["init"]
    if source.startswith("file:"):  # the file's sidecar sets the grid, not the flags
        source = source[5:]
        q0 = load_density(source)
        provenance = dict(dx=q0.grid.dx, x_max=q0.grid.x_max, init_sha256=_sha256(source),
                          init_sidecar_sha256=_sha256(source + ".json"))
    else:
        q0 = _initial_density(source, Grid1D.from_spacing(x_max, conf["dx"]), conf["m1"])
    mass = q0.cdf_points()[1][-1]  # the cumulative mass the observer's W1/W2 check reads
    if abs(mass - 1.0) > 1e-6:
        raise KinexError(f"start density {source} has mass {mass:.7g}, not 1 +- 1e-6")
    observer = TrajectoryObserver()
    snap_times = np.arange(0.0, conf["t"] + 1e-9, conf["snapshot_every"])
    traj = solve(q0, conf["t"], conf["dt"], snapshot_times=snap_times, observers=(observer,))
    os.makedirs(out, exist_ok=True)
    write_records_csv(observer.records, os.path.join(out, "diagnostics.csv"))
    save_density(traj.final, os.path.join(out, "final_density.csv"))
    manifest = {"command": "pde", **conf, "x_max": x_max, **provenance}
    ex.write_manifest(out, manifest, manifest, {"n_steps": int(round(conf["t"] / conf["dt"]))})
    print(f"pde: {len(observer.records)} snapshots, outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def cmd_study(args) -> int:
    conf = _merge_config(args, STUDY_SCHEMA)
    name = conf["study"]
    given = [key for key in _CHAOS_ARGS if conf[key] is not None]
    if name != "chaos" and given:
        raise KinexError(f"study {name} takes no {', '.join(given)}; only the chaos study reads them")
    out = _out_dir(args)
    study = getattr(ex, _STUDIES[name])  # at call time, so a rebound attribute is the one run
    report = study(seed=conf["seed"], **{_CHAOS_ARGS[key]: conf[key] for key in given})
    report.write_artifacts(out)
    status = "pass" if report.passed else "FAIL"
    print(f"study {name}: {status}, artifacts in {out}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinex",
        description="Kinetic-exchange laboratory: reshuffling dynamics, mean-field PDE, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the N-agent reshuffling dynamics")
    sim.add_argument("--n", type=_positive_int, default=None, help="number of agents (>= 2)")
    sim.add_argument("--t", type=float, default=None, help="time horizon")
    sim.add_argument("--init", default=None, help="constant:<v> | exponential:<m> | file:<path>")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed")
    sim.add_argument("--snapshots", default=None, help="comma-separated snapshot times (default: t)")
    sim.add_argument("--clock-scale", dest="clock_scale", choices=["pairwise", "global"],
                     default=None, help="pair rate 1/N (total (N-1)/2) or total rate N")
    sim.add_argument("--write-snapshots", action="store_true", help="also write per-agent snapshot CSV")
    sim.add_argument("--config", default=None, help="key=value config file (flags win)")
    sim.add_argument("--out", default=None, help="output directory (default $KINEX_OUT or ./kinex-out)")
    sim.set_defaults(func=cmd_simulate)

    pde = sub.add_parser("pde", help="solve the mean-field equation with forward Euler")
    pde.add_argument("--m1", type=float, default=None, help="mean of the target equilibrium")
    pde.add_argument("--dx", type=float, default=None, help="cell width")
    pde.add_argument("--dt", type=float, default=None, help="Euler step (must be <= 1)")
    pde.add_argument("--t", type=float, default=None, help="time horizon")
    pde.add_argument("--x-max", dest="x_max", type=float, default=None, help="domain cutoff (default 20*m1)")
    pde.add_argument("--init", default=None,
                     help="equilibrium | uniform:<a>,<b> | random:<seed> | file:<path>")
    pde.add_argument("--snapshot-every", dest="snapshot_every", type=float, default=None,
                     help="diagnostics cadence")
    pde.add_argument("--config", default=None, help="key=value config file (flags win)")
    pde.add_argument("--out", default=None, help="output directory (default $KINEX_OUT or ./kinex-out)")
    pde.set_defaults(func=cmd_pde)

    study = sub.add_parser("study", help="run a scripted end-to-end study")
    study.add_argument("--study", choices=_STUDIES, required=True, help="which study to run")
    study.add_argument("--seed", type=int, default=None, help="base seed")
    study.add_argument("--n-list", dest="n_list", default=None,
                       help="population sizes for the chaos study")
    study.add_argument("--replicas", type=int, default=None, help="replicas per population size")
    study.add_argument("--t", type=float, default=None, help="evaluation time for the chaos study")
    # replicas run in order on one thread; the flag is still accepted, and
    # ignored, so command lines written for it (perfbench/selftest.py) parse
    study.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    study.add_argument("--config", default=None, help="key=value config file (flags win)")
    study.add_argument("--out", default=None, help="output directory (default $KINEX_OUT or ./kinex-out)")
    study.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KinexError as exc:
        print(f"kinex: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"kinex: i/o error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
