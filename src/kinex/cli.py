"""Command-line front end: simulate | pde | study.

Every run writes a manifest.json with the merged configuration, its SHA-256
hash, the seed, and (for particle runs) the executed event count, which is
enough to reproduce the outputs byte for byte. Flags override values from
an optional key=value config file. Output goes to --out, defaulting to the
KINEX_OUT environment variable or ./kinex-out.

Exit codes: 0 success; 1 runtime error (a refusal by the library, an I/O
failure, a failed check); 2 usage error (an argparse error, a value a schema
converter rejects from a flag or a config-file line alike, an unknown config
key, a config line without '=').
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from functools import partial
from itertools import chain, count, repeat

import numpy as np

from . import experiments as ex
from . import particle as pt
from .diagnostics import TrajectoryObserver, write_records_csv
from .errors import KinexError
from .kinetic1d import Equilibrium, Grid1D, GridDensity1D, _floats, _step_count, _write_table, load_density
from .kinetic1d import save_density, solve, uniform_density

# --study name -> its function in experiments
_STUDIES = {
    "chaos": "chaos_scaling",
    "contraction": "contraction_study",
    "figure1": "figure1_reproduction",
    "entropy": "entropy_decay_study",
}


class _UsageError(KinexError):
    """A bad command line or config file: a converter's refusal, an unknown key, a line without '='."""


def _read_config_file(path: str, schema: dict) -> dict:
    """UTF-8 key = value lines with keys from schema; '#' starts a comment; values stay strings."""
    out = {}
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{path}: config file is not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in schema:
            raise _UsageError(f"unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, schema: dict) -> dict:
    """Defaults, then config-file values, then explicitly given flags.

    schema maps key -> (default, converter, help); every file value and
    every given flag is a string that passes its converter, which also
    validates it, so a bad value reads the same from either source. Parser
    options use None as the not-given sentinel so flag presence is
    detectable regardless of how main() was invoked.
    """
    merged = {key: default for key, (default, _, _) in schema.items()}
    fileconf = _read_config_file(args.config, schema) if args.config else {}
    flags = [(key, getattr(args, key)) for key in schema if getattr(args, key) is not None]
    for key, raw in [*fileconf.items(), *flags]:
        try:
            merged[key] = schema[key][1](raw)
        except ValueError as exc:
            raise _UsageError(f"bad value {key}={raw!r}: {exc}") from exc
    return merged


def _out_dir(args) -> str:
    """The output path; a command creates it only before its first write, so a refused run leaves none."""
    return args.out or os.environ.get("KINEX_OUT") or "kinex-out"


def _parse_values(text: str, convert, what: str, count: int | None = None, error=ValueError) -> tuple:
    """Comma-separated values; a bad token or count raises error, naming it."""
    values = []
    for tok in text.split(","):
        try:
            values.append(convert(tok))
        except ValueError:
            raise error(f"bad {what} {tok!r} in {text!r}") from None
    if count is not None and len(values) != count:
        raise error(f"expected {count} {what} value(s), got {text!r}")
    return tuple(values)


def _positive_float(raw) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise ValueError("need a finite number > 0")
    return value


def _int_at_least(low: int):
    def convert(raw) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"need an integer >= {low}")
        return value
    return convert


def _population_sizes(raw) -> tuple:
    """Chaos population sizes: strictly increasing, and at least two, since the study fits a slope."""
    sizes = _parse_values(raw, int, "population size")
    if len(sizes) < 2:
        raise ValueError("need at least two population sizes to fit a slope")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("population sizes must be strictly increasing")
    return sizes


def _one_of(*names):
    """A converter that accepts only names; its metavar is the one argparse gives choices."""
    def convert(raw):
        if raw not in names:
            raise ValueError(f"need one of {', '.join(names)}")
        return raw
    convert.metavar = "{" + ",".join(names) + "}"
    return convert


# Each schema declares the config keys of one subcommand, and build_parser
# makes one --key-name flag per key.

SIMULATE_SCHEMA = {
    "n": (1000, _int_at_least(2), "number of agents (>= 2)"),
    "t": (10.0, _positive_float, "time horizon"),
    "init": ("constant:10", str, "constant:<v> | exponential:<m> | file:<path>"),
    "seed": (0, _int_at_least(0), "RNG seed"),
    "snapshots": (None, partial(_parse_values, convert=float, what="snapshot time"),
                  "comma-separated snapshot times (default: t)"),
    "clock_scale": ("pairwise", _one_of("pairwise", "global"), "pair rate 1/N (total (N-1)/2) or total rate N"),
}

PDE_SCHEMA = {
    "m1": (1.0, _positive_float, "mean of the target equilibrium"),
    "dx": (0.01, _positive_float, "cell width"),
    "dt": (0.05, _positive_float, "Euler step (must be <= 1)"),
    "t": (5.0, _positive_float, "time horizon"),
    "x_max": (None, _positive_float, "domain cutoff (default 20*m1)"),
    "init": ("equilibrium", str, "equilibrium | uniform:<a>,<b> | random:<seed> | file:<path>"),
    "snapshot_every": (0.25, _positive_float, "diagnostics cadence"),
}

STUDY_SCHEMA = {
    "seed": (0, _int_at_least(0), "base seed"),
    "n_list": (None, _population_sizes, "population sizes for the chaos study"),
    "replicas": (None, _int_at_least(10), "replicas per population size"),
    "t": (None, _positive_float, "evaluation time for the chaos study"),
}
# STUDY_SCHEMA keys that only the chaos study reads -> chaos_scaling arguments
_CHAOS_ARGS = {"n_list": "n_list", "replicas": "replicas", "t": "t_eval"}


def _sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes: the manifest's record of a file: input."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    conf = _merge_config(args, SIMULATE_SCHEMA)
    out = _out_dir(args)
    snaps = conf["snapshots"] or (conf["t"],)
    config = pt.SimConfig(
        n_agents=conf["n"],
        t_final=conf["t"],
        seed=conf["seed"],
        snapshot_times=snaps,
        clock_scale=conf["clock_scale"],
    )
    pt._check_snapshots(conf["n"], len(snaps))  # before the initial state is drawn; simulate checks it too
    initial = pt.make_initial(conf["init"], conf["n"], np.random.SeedSequence(conf["seed"]))
    traj = pt.simulate(config, initial)

    os.makedirs(out, exist_ok=True)
    pairs = list(zip(traj.times, traj.snapshots))
    stats = (((t, "mean", s.mean()), (t, "m2", s.moment(2)), (t, "total", s.total)) for t, s in pairs)
    _write_table(os.path.join(out, "summary.csv"), ("time", "stat_name", "value"), chain.from_iterable(stats))
    if args.write_snapshots:
        _write_table(os.path.join(out, "snapshots.csv"), ("time", "agent_index", "balance"),
                     chain.from_iterable(zip(repeat(t), count(), _floats(s.balances)) for t, s in pairs))
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
    if kind == "uniform":  # the spec is read as the run starts: a bad token is a runtime error
        a, b = _parse_values(arg, float, "uniform bound", 2, KinexError)
        return uniform_density(grid, a, b)
    if kind == "random":
        (seed,) = _parse_values(arg, _int_at_least(0), "random seed", 1, KinexError)
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
    every, dt = conf["snapshot_every"], conf["dt"]
    # an unstable dt is named as such, before the cadence is compared with it, and
    # the work cap is checked before the snapshot times are built
    n_steps = _step_count(conf["t"], dt, q0.grid.n_cells)
    if every < dt:
        raise KinexError(f"snapshot_every={every!r} is below dt={dt!r}; solve records at most once per Euler step")
    observer = TrajectoryObserver()
    snap_times = np.arange(0.0, conf["t"] + 1e-9, every)
    final = solve(q0, conf["t"], dt, snapshot_times=snap_times, observers=(observer,))
    os.makedirs(out, exist_ok=True)
    write_records_csv(observer.records, os.path.join(out, "diagnostics.csv"))
    save_density(final, os.path.join(out, "final_density.csv"))
    manifest = {"command": "pde", **conf, "x_max": x_max, **provenance}
    ex.write_manifest(out, manifest, manifest, {"n_steps": n_steps})
    print(f"pde: {len(observer.records)} snapshots, outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def cmd_study(args) -> int:
    conf = _merge_config(args, STUDY_SCHEMA)
    name = args.study
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
    pde = sub.add_parser("pde", help="solve the mean-field equation with forward Euler")
    study = sub.add_parser("study", help="run a scripted end-to-end study")
    study.add_argument("--study", choices=_STUDIES, required=True, help="which study to run")
    for cmd, schema, func in ((sim, SIMULATE_SCHEMA, cmd_simulate), (pde, PDE_SCHEMA, cmd_pde),
                              (study, STUDY_SCHEMA, cmd_study)):
        # no type=: a flag stays a string, and _merge_config converts it as it does a file value
        for key, (_, convert, text) in schema.items():
            cmd.add_argument("--" + key.replace("_", "-"), metavar=getattr(convert, "metavar", None), help=text)
        cmd.set_defaults(func=func)
    sim.add_argument("--write-snapshots", action="store_true", help="also write per-agent snapshot CSV")
    # replicas run in order on one thread; the flag is still accepted, and
    # ignored, so command lines written for it (perfbench/selftest.py) parse
    study.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    for cmd in (sim, pde, study):
        cmd.add_argument("--config", help="key=value config file (flags win)")
        cmd.add_argument("--out", help="output directory (default $KINEX_OUT or ./kinex-out)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KinexError as exc:
        print(f"kinex: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    except OSError as exc:
        print(f"kinex: i/o error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
