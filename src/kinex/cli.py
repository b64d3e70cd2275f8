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
import json
import os
import sys

import numpy as np

from . import experiments as ex
from . import particle as pt
from .diagnostics import TrajectoryObserver, write_records_csv
from .errors import KinexError
from .kinetic1d import Equilibrium, Grid1D, GridDensity1D, load_density, save_density, solve, uniform_density

_STUDIES = ("chaos", "contraction", "figure1", "entropy")


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

    schema maps key -> (default, converter); parser options use None as
    the not-given sentinel so flag presence is detectable regardless of
    how main() was invoked.
    """
    merged = {key: default for key, (default, _) in schema.items()}
    fileconf = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, raw in fileconf.items():
        if key not in schema:
            raise KinexError(f"unknown config key {key!r}")
        try:
            merged[key] = schema[key][1](raw)
        except KinexError:
            raise
        except Exception as exc:
            raise KinexError(f"bad config value {key}={raw!r}: {exc}") from exc
    for key in schema:
        given = getattr(args, key)
        if given is not None:
            merged[key] = given
    return merged


def _out_dir(args) -> str:
    out = args.out or os.environ.get("KINEX_OUT") or "kinex-out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out: str, config: dict, results: dict | None = None) -> None:
    blob = json.dumps(config, sort_keys=True).encode()
    payload = dict(config)
    payload["config_sha256"] = hashlib.sha256(blob).hexdigest()
    payload.update(results or {})
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _parse_snapshots(text: str | None, t_final: float) -> tuple:
    if not text:
        return (t_final,)
    times = []
    for tok in text.split(","):
        try:
            times.append(float(tok))
        except ValueError:
            raise KinexError(f"bad snapshot time {tok!r} in {text!r}") from None
    return tuple(times)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _clock_scale_value(raw: str) -> str:
    if raw not in ("pairwise", "global"):
        raise KinexError(f"clock_scale must be pairwise or global, got {raw!r}")
    return raw


SIMULATE_SCHEMA = {
    "n": (1000, lambda raw: _positive_int(raw)),
    "t": (10.0, float),
    "init": ("constant:10", str),
    "seed": (0, int),
    "snapshots": (None, str),
    "clock_scale": ("pairwise", _clock_scale_value),
}

PDE_SCHEMA = {
    "m1": (1.0, float),
    "dx": (0.01, float),
    "dt": (0.05, float),
    "t": (10.0, float),
    "x_max": (None, float),
    "init": ("equilibrium", str),
    "snapshot_every": (0.25, float),
}

STUDY_SCHEMA = {
    "study": (None, str),
    "seed": (0, int),
    "n_list": ("100,1000,10000", str),
    "replicas": (20, int),
    "t": (None, float),
}


def cmd_simulate(args) -> int:
    conf = _merge_config(args, SIMULATE_SCHEMA)
    out = _out_dir(args)
    snaps = _parse_snapshots(conf["snapshots"], conf["t"])
    config = pt.SimConfig(
        n_agents=conf["n"],
        t_final=conf["t"],
        seed=conf["seed"],
        snapshot_times=snaps,
        clock_scale=conf["clock_scale"],
    )
    initial = pt.make_initial(conf["init"], conf["n"], np.random.SeedSequence(conf["seed"]))
    traj = pt.simulate(config, initial)

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
    _write_manifest(
        out,
        {"command": "simulate", **conf, "snapshots": list(snaps)},
        {"event_count": traj.event_count},
    )
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
        a, b = (float(tok) for tok in arg.split(","))
        return uniform_density(grid, a, b)
    if kind == "random":
        return ex.random_positive_density(grid, m1, int(arg))
    if kind == "file":
        return load_density(arg)
    raise KinexError(f"unknown initial density {spec!r}")


def cmd_pde(args) -> int:
    conf = _merge_config(args, PDE_SCHEMA)
    out = _out_dir(args)
    x_max = conf["x_max"] if conf["x_max"] else 20.0 * conf["m1"]
    grid = Grid1D.from_spacing(x_max, conf["dx"])
    q0 = _initial_density(conf["init"], grid, conf["m1"])
    observer = TrajectoryObserver(m1=q0.mean)
    snap_times = np.arange(0.0, conf["t"] + 1e-9, conf["snapshot_every"])
    traj = solve(q0, conf["t"], conf["dt"], snapshot_times=snap_times, observers=(observer,))
    write_records_csv(observer.records, os.path.join(out, "diagnostics.csv"))
    save_density(traj.final, os.path.join(out, "final_density.csv"))
    _write_manifest(
        out,
        {"command": "pde", **conf, "x_max": x_max},
        {"n_steps": int(round(conf["t"] / conf["dt"]))},
    )
    print(f"pde: {len(observer.records)} snapshots, outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def cmd_study(args) -> int:
    conf = _merge_config(args, STUDY_SCHEMA)
    out = _out_dir(args)
    name = conf["study"]
    if name == "figure1":
        report = ex.figure1_reproduction(seed=conf["seed"])
    elif name == "contraction":
        report = ex.contraction_study(seed=conf["seed"])
    elif name == "chaos":
        n_list = tuple(int(tok) for tok in conf["n_list"].split(","))
        grid = Grid1D.from_spacing(20.0, 0.01)
        q0 = Equilibrium(1.0).on_grid(grid).normalized()
        config = ex.ChaosStudyConfig(
            n_list=n_list,
            replicas=conf["replicas"],
            seed=conf["seed"],
            t_eval=conf["t"] or 5.0,
        )
        report = ex.chaos_scaling(config, q0)
    else:
        report = ex.entropy_decay_study(seed=conf["seed"])
    report.write_artifacts(out)
    status = "pass" if report.passed else "FAIL"
    print(f"study {name}: {status}, artifacts in {out}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need an integer >= 2, got {text}")
    return value


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
