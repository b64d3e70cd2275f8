"""kinex benchmark: CLI wall time per workload, per-layer spans when traced.

Usage (from anywhere; paths are resolved against this checkout):

    python3 perfbench/run.py --workload figure1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each repetition runs one workload through ``kinex.cli.main`` in a fresh
interpreter (perfbench/child.py) with its output directory under
``.bench_run/`` in the checkout, which is removed afterwards. Repetitions
continue until ``--seconds`` is used up and the medians are reported.

--trace 0  end-to-end metrics: wall_s (one main() call), setup_s
           (interpreter start until kinex.cli is imported and the parser
           built), peak_rss_mb (ru_maxrss of the run's process). wall_s and
           setup_s are read at the reference host speed (PROBE_REFERENCE_S);
           the raw medians and probe times are printed too.
--trace 1  untraced and traced repetitions alternate; the traced ones give
           the per-layer metrics of perfbench/spans.py, and
           trace.overhead_s is traced minus untraced median wall_s.

Every repetition is checked (exit code, report.json checks, expected
artifacts, finite pde output, positive event counts, artifacts byte-identical
across repetitions and between traced and untraced runs); the check counts
give ``attempted``/``failed`` and check_fail_ratio. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
it show the input properties that set the cost and the artifact SHA-256.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUN_ROOT = os.path.join(ROOT, ".bench_run")

sys.path.insert(0, HERE)
from child import PDE_DX, PDE_M1  # noqa: E402
from spans import PER_LAYER  # noqa: E402

CHILD_TIMEOUT_S = 150.0
TOTAL_LIMIT_S = 150.0  # no repetition starts if it could end past this
SETUP_SAMPLES = 5  # setup-only interpreter starts per run, besides one per repetition
PROBE_SAMPLES = 2  # host-speed probes at the start of a run, besides one between repetitions
# host_speed_probe() time on a quiet 2-vCPU reference host. A shared host can run
# the same code up to 2x slower for minutes at a time, so each repetition's wall
# time is scaled by this over the mean of the probes just before and after it, and
# the setup median by this over the run's median probe.
PROBE_REFERENCE_S = 0.085
MIN_CYCLES = 2
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

STUDY_ARTIFACTS = ("manifest.json", "report.json", "series.csv")
PDE_ARTIFACTS = ("diagnostics.csv", "final_density.csv", "final_density.csv.json", "manifest.json")
PDE_RECORDS = 41  # t = 0, 0.25, ..., 10


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple[str, ...]
    expected_spans: tuple[str, ...]  # spans that must fire when traced

    def cli_args(self, seed: int) -> list[str]:
        """CLI arguments; for pde, seed is the start-density seed chosen by child.pde_start_seed."""
        if self.name == "pde":
            return ["pde", "--m1", f"{PDE_M1:g}", "--dx", f"{PDE_DX:g}", "--dt", "0.05", "--t", "10",
                    "--init", f"random:{seed}"]
        return ["study", "--study", self.name, "--seed", str(seed)]


def _solver_spans(m: int) -> tuple[str, ...]:
    """Spans of a kinetic1d solve on an M-cell grid."""
    return ("kinetic1d.solve", f"kinetic1d.step_euler.M{m}", f"kinetic1d.self_convolution.M{m}",
            f"kinetic1d.gain.M{m}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figure1", STUDY_ARTIFACTS,
            ("cli.main", "experiments.figure1_reproduction", "experiments.write_artifacts",
             "particle.simulate", "diagnostics.wasserstein1.sample"),
        ),
        Workload(
            "pde", PDE_ARTIFACTS,
            ("cli.main", *_solver_spans(10000), "kinetic1d.save_density", "diagnostics.observer",
             "diagnostics.dissipation.M10000", "diagnostics.wasserstein1.grid", "diagnostics.wasserstein2",
             "diagnostics.relative_entropy", "diagnostics.laplace_check"),
        ),
        Workload(
            "contraction", STUDY_ARTIFACTS,
            ("cli.main", "experiments.contraction_study", "experiments.write_artifacts",
             "particle.simulate_coupled", *_solver_spans(2000), "diagnostics.wasserstein2"),
        ),
        Workload(
            "chaos", STUDY_ARTIFACTS,
            ("cli.main", "experiments.chaos_scaling", "experiments.write_artifacts",
             "particle.simulate", *_solver_spans(2000), "diagnostics.wasserstein1.sample"),
        ),
    )
}


class HarnessError(RuntimeError):
    """The program cannot be started at all; no result is printed."""


@dataclass
class Rep:
    traced: bool
    ok: bool  # process and main() both returned 0
    setup_s: float | None = None
    result: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    digest: str | None = None
    event_count: int | None = None  # from manifest.json, when the study records it
    speed: float = 1.0  # PROBE_REFERENCE_S over the mean probe time around this repetition


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _spawn(result_path: str, flags: list[str], cli_args: list[str]) -> tuple[int, float | None, dict, str]:
    """Run child.py once; returns (exit code, setup_s, result, stderr tail)."""
    cmd = [sys.executable, CHILD, result_path, *flags, "--", *cli_args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        rc, err = -9, f"timed out after {CHILD_TIMEOUT_S} s"
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {}
    setup = result["ready_at"] - started if "ready_at" in result else None
    return rc, setup, result, err.strip()[-2000:]


def _setup_sample(work_dir: str, extra: list[str] = ()) -> tuple[float, dict]:
    rc, setup, result, err = _spawn(os.path.join(work_dir, "setup.json"), ["--setup-only", *extra], [])
    if rc != 0 or setup is None:
        raise HarnessError(f"kinex.cli could not be set up from {ROOT}/src: {err}")
    return setup, result


def _probe_sample(work_dir: str) -> float:
    rc, _, result, err = _spawn(os.path.join(work_dir, "probe.json"), ["--probe"], [])
    if rc != 0 or "probe_s" not in result:
        raise HarnessError(f"host speed probe failed: {err}")
    return result["probe_s"]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _portable_manifest(data: bytes) -> bytes:
    """Drop the fields that depend on os.cpu_count() (chaos: threads, config_sha256)."""
    obj = json.loads(data)
    params = obj.get("params")
    if isinstance(params, dict) and "threads" in params:
        del params["threads"]
        obj.pop("config_sha256", None)
        return json.dumps(obj, indent=2, sort_keys=True).encode()
    return data


def artifacts_digest(out_dir: str) -> str:
    """SHA-256 over (name, SHA-256 of content) of every artifact, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            data = f.read()
        if name == "manifest.json":
            data = _portable_manifest(data)
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _csv_floats(path: str) -> list[list[float]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return [[float(x) for x in row] for row in rows]


def _pde_checks(out_dir: str) -> dict[str, bool]:
    """41 diagnostics rows, all finite except D, which is +inf only at t = 0; finite final density."""
    checks = {"diagnostics_rows": False, "diagnostics_finite": False, "final_density_finite": False}
    try:
        rows = _csv_floats(os.path.join(out_dir, "diagnostics.csv"))
        density = _csv_floats(os.path.join(out_dir, "final_density.csv"))
    except (OSError, ValueError):
        return checks
    d_col = 5  # time,mass,mean,m2,entropy_rel,D,...
    checks["diagnostics_rows"] = len(rows) == PDE_RECORDS and all(len(r) == 10 for r in rows)
    checks["diagnostics_finite"] = bool(rows) and all(
        all(math.isfinite(x) for k, x in enumerate(r) if k != d_col)
        and r[d_col] >= 0
        and (math.isfinite(r[d_col]) or i == 0)
        for i, r in enumerate(rows)
    )
    checks["final_density_finite"] = bool(density) and all(
        len(r) == 2 and math.isfinite(r[0]) and math.isfinite(r[1]) and r[1] >= 0 for r in density
    )
    return checks


def _study_checks(out_dir: str) -> dict[str, bool]:
    try:
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
        passed = report["passed"] is True and bool(report["checks"]) and all(
            c["passed"] is True for c in report["checks"].values()
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        passed = False
    return {"report_checks_pass": passed}


def _manifest_event_count(out_dir: str) -> int | None:
    try:
        with open(os.path.join(out_dir, "manifest.json")) as f:
            return json.load(f).get("event_count")
    except (OSError, ValueError):
        return None


def check_rep(w: Workload, rep: Rep, out_dir: str) -> None:
    """Fill rep.checks (name -> passed), rep.digest and rep.event_count."""
    checks = {"exit_code": rep.ok}
    checks["artifacts_exist"] = all(os.path.isfile(os.path.join(out_dir, a)) for a in w.artifacts)
    checks.update(_pde_checks(out_dir) if w.name == "pde" else _study_checks(out_dir))
    rep.event_count = _manifest_event_count(out_dir)
    if w.name == "figure1":
        checks["events_positive"] = isinstance(rep.event_count, int) and rep.event_count > 0
    if rep.traced:
        layer = rep.result.get("per_layer", {})
        fired = set(rep.result.get("span_names", []))
        checks["spans_fired"] = set(w.expected_spans) <= fired
        checks["self_time_nonnegative"] = rep.result.get("self_time_min_s", -1.0) >= -1e-9
        checks["no_layer_errors"] = bool(layer) and all(
            v == 0 for k, v in layer.items() if k.endswith(".errors")
        )
        if any(name.startswith("particle.") for name in w.expected_spans):
            events = layer.get("particle.simulate.events", 0) + layer.get("particle.simulate_coupled.events", 0)
            checks["events_positive"] = events > 0
    try:
        rep.digest = artifacts_digest(out_dir)
    except (OSError, ValueError):
        rep.digest = None
    if not rep.ok:  # a failed or crashed command fails every check
        checks = dict.fromkeys(checks, False)
    rep.checks = checks


def cross_checks(w: Workload, reps: list[Rep]) -> list[tuple[str, bool]]:
    """Artifacts reproduce across repetitions and traced runs; traced events match untraced."""
    plain = [r for r in reps if not r.traced]
    ref = plain[0] if plain else None
    out = []
    for rep in reps:
        if rep is ref:
            continue
        name = "traced_artifacts_identical" if rep.traced else "artifacts_reproduce"
        out.append((name, ref.digest is not None and rep.digest == ref.digest))
        if rep.traced and w.name == "figure1":
            traced_events = rep.result.get("per_layer", {}).get("particle.simulate.events")
            out.append(("traced_events_match", rep.ok and traced_events == ref.event_count))
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, traced: bool, work_dir: str) -> dict:
    run_started = time.monotonic()
    # warm-up: fills bytecode caches, proves that kinex imports, picks the pde start density
    _, warm = _setup_sample(work_dir, ["--pde-seed", str(seed)] if w.name == "pde" else [])
    setups = [_setup_sample(work_dir)[0] for _ in range(SETUP_SAMPLES)]
    probes = [_probe_sample(work_dir) for _ in range(PROBE_SAMPLES)]
    cli_args = w.cli_args(warm.get("pde_init_seed", seed))
    modes = (False, True) if traced else (False,)

    reps: list[Rep] = []
    between: list[float] = []  # between[k] and between[k + 1] bracket reps[k]
    start = time.monotonic()
    cycles = 0
    while True:
        for mode in modes:
            between.append(_probe_sample(work_dir))
            rep_dir = os.path.join(work_dir, f"rep{len(reps)}")
            os.makedirs(rep_dir)
            out_dir = os.path.join(rep_dir, "out")
            flags = ["--trace"] if mode else []
            rc, setup, result, err = _spawn(os.path.join(rep_dir, "result.json"), flags, cli_args + ["--out", out_dir])
            rep = Rep(traced=mode, ok=rc == 0 and result.get("rc") == 0, setup_s=setup, result=result)
            if not rep.ok:
                print(f"perfbench: {w.name} repetition {len(reps)} failed (exit {rc}): "
                      f"{result.get('error') or err}", file=sys.stderr)
            check_rep(w, rep, out_dir)
            shutil.rmtree(rep_dir)
            reps.append(rep)
        cycles += 1
        now = time.monotonic()
        per_cycle = (now - start) / cycles
        if now - run_started + per_cycle > TOTAL_LIMIT_S:
            break
        if cycles >= MIN_CYCLES and now - start + per_cycle > seconds:
            break
    between.append(_probe_sample(work_dir))
    probes += between

    outcomes = [item for rep in reps for item in rep.checks.items()] + cross_checks(w, reps)
    plain = [r for r in reps if not r.traced and "wall_s" in r.result]
    for k, rep in enumerate(reps):
        rep.speed = 2 * PROBE_REFERENCE_S / (between[k] + between[k + 1])
    traced_reps = [r for r in reps if r.traced and "per_layer" in r.result]
    if not plain or (traced and not traced_reps):
        raise HarnessError(f"no repetition of {w.name} produced a result")
    walls = [r.result["wall_s"] for r in plain]
    setups += [r.setup_s for r in reps if r.setup_s is not None]
    probe = statistics.median(probes)
    summary = {
        "workload": w.name,
        "seed": seed,
        "repetitions": len(plain),
        "wall_samples_s": walls,
        "probe_samples_s": probes,
        "attempted": len(outcomes),
        "failed": sum(1 for _, ok in outcomes if not ok),
        "failed_checks": sorted({name for name, ok in outcomes if not ok}),
        "digest": next((r.digest for r in reps if r.digest is not None), None),
        "raw": {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups), "probe_s": probe},
        "end_to_end": {
            "wall_s": statistics.median([r.result["wall_s"] * r.speed for r in plain]),
            "setup_s": statistics.median(setups) * PROBE_REFERENCE_S / probe,
            "peak_rss_mb": statistics.median([r.result["maxrss_kb"] / 1024.0 for r in plain]),
        },
    }
    first = plain[0].result
    summary["inputs"] = {
        "cli_args": cli_args,
        "cpu_count": os.cpu_count(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "pde_zero_cells": warm.get("pde_zero_cells"),
        "event_count": next((r.event_count for r in reps if r.event_count is not None), None),
    }
    if traced:
        per_layer = {
            name: statistics.median([r.result["per_layer"][name] for r in traced_reps])
            for name, _, _ in PER_LAYER if name != "trace.overhead_s"
        }
        traced_wall = statistics.median([r.result["wall_s"] * r.speed for r in traced_reps])
        per_layer["trace.overhead_s"] = traced_wall - summary["end_to_end"]["wall_s"]
        summary["per_layer"] = per_layer
        summary["traced_wall_s"] = traced_wall
        summary["inputs"].update(traced_reps[0].result["cost_inputs"])
    return summary


def run_workload(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(RUN_ROOT, exist_ok=True)
    work_dir = os.path.join(RUN_ROOT, f"{w.name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        return measure(w, seed, seconds, traced, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass  # another run still uses it


def print_summary(s: dict, traced: bool) -> None:
    e2e = s["end_to_end"]
    ratio = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"workload {s['workload']} seed {s['seed']}: {s['repetitions']} untraced repetitions")
    print(f"  inputs {json.dumps(s['inputs'], sort_keys=True)}")
    print(f"  artifacts_sha256 {s['digest']}")
    raw = s["raw"]
    print(f"  raw wall_s samples {json.dumps(s['wall_samples_s'])}")
    print(f"  host probe samples {json.dumps(s['probe_samples_s'])}")
    print(
        f"  raw medians: wall_s {raw['wall_s']:.4f} s  setup_s {raw['setup_s']:.4f} s  "
        f"host probe {raw['probe_s']:.4f} s (reference {PROBE_REFERENCE_S} s)"
    )
    print(
        f"  wall_s {e2e['wall_s']:.4f} s  setup_s {e2e['setup_s']:.4f} s  "
        f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  "
        f"check_fail_ratio {ratio:g} ({s['failed']}/{s['attempted']})"
    )
    if s["failed_checks"]:
        print(f"  failed checks: {', '.join(s['failed_checks'])}")
    if traced:
        print(
            f"  traced wall_s {s['traced_wall_s']:.4f} s  "
            f"tracing overhead {s['per_layer']['trace.overhead_s']:+.4f} s"
        )


def _metrics(s: dict, traced: bool, prefix: str = "") -> dict:
    if traced:
        return {prefix + name: {"value": s["per_layer"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    return {prefix + name: {"value": s["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child, finally removes outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "kinex", "cli.py")):
        print(f"perfbench: no kinex sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(WORKLOADS[name], args.seed, args.seconds, traced))
            print_summary(summaries[-1], traced)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    metrics = {}
    for s in summaries:
        metrics.update(_metrics(s, traced, prefix=f"{s['workload']}." if len(summaries) > 1 else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
