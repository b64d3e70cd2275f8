"""Toy-size self-check of the benchmark harness; no timing thresholds.

Usage: python3 perfbench/selftest.py   (exit 0 when every check passes)

Checks the span arithmetic, the per-thread span stacks under a thread pool,
that BENCHMARK.json names exactly the metrics the harness prints, the
correctness checks on good and broken artifacts, and, on toy-size CLI runs
in fresh interpreters, that traced and untraced runs write identical
artifacts, that the expected spans fire with non-negative self time, and
that every rebound name in the kinex modules points at its traced wrapper.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

FAILURES: list[str] = []
PASSED = [0]


def check(name: str, ok: bool, detail: object = "") -> None:
    if ok:
        PASSED[0] += 1
    else:
        FAILURES.append(f"{name}: {detail}")


def check_span_arithmetic() -> None:
    check("union of overlapping intervals", spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4)
    check("union of nested intervals", spans.union_length([(0, 10), (2, 3)]) == 10)
    check("union of nothing", spans.union_length([]) == 0)
    parent = spans.Span("p", None, 0.0)
    parent.end = 10.0
    kids = []
    for start, end in ((1.0, 6.0), (2.0, 7.0), (9.0, 12.0)):  # two concurrent children, one overrunning
        kid = spans.Span("c", parent, start)
        kid.end = end
        kids.append(kid)
    selfs = spans.self_times([parent, *kids])
    check("self time subtracts the union of children", selfs[id(parent)] == 10.0 - 6.0 - 1.0, selfs[id(parent)])
    check("percentile nearest rank", spans._percentile([5, 1, 4, 2, 3], 0.9) == 5)


def check_thread_stacks() -> None:
    tracer = spans.Tracer()
    inner = tracer.wrap("toy.inner", lambda x: sum(range(20000)) + x)

    def outer_fn(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(n)))

    outer = tracer.wrap("toy.outer", outer_fn)
    outer(8)
    inner(0)  # a main-thread call after the pool is gone stays a child of nobody
    outer_span = next(s for s in tracer.spans if s.name == "toy.outer")
    workers = [s for s in tracer.spans if s.name == "toy.inner" and s.parent is outer_span]
    check("worker spans are adopted by the main thread's open span", len(workers) == 8, len(workers))
    check("a later root span has no parent", tracer.spans[-1].parent is None)
    selfs = spans.self_times(tracer.spans)
    check("self times non-negative under threads", min(selfs.values()) >= 0, min(selfs.values()))
    check("span stacks are left empty", not tracer._stack() and threading.active_count() == 1)


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check("workloads match", [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS))
    check(
        "end_to_end metrics match",
        [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
    )
    check(
        "per_layer metrics match",
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER,
    )


def check_correctness_checks(tmp: str) -> None:
    good = os.path.join(tmp, "good")
    os.makedirs(good)
    rows = ["time,mass,mean,m2,entropy_rel,D,W1,W2,laplace_sup,tail_mass"]
    rows += [f"{0.25 * i},1.0,5.0,30.0,0.1,{'inf' if i == 0 else 0.5},1.0,1.0,1.0,0.0" for i in range(41)]
    with open(os.path.join(good, "diagnostics.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(os.path.join(good, "final_density.csv"), "w") as f:
        f.write("x,value\n0.005,0.2\n0.015,0.1\n")
    check("good pde output passes", all(run._pde_checks(good).values()), run._pde_checks(good))
    bad = os.path.join(tmp, "bad")
    shutil.copytree(good, bad)
    with open(os.path.join(bad, "diagnostics.csv"), "a") as f:
        f.write("10.25,nan,5.0,30.0,0.1,0.5,1.0,1.0,1.0,0.0\n")
    checks = run._pde_checks(bad)
    check("extra NaN row fails", not checks["diagnostics_rows"] and not checks["diagnostics_finite"], checks)
    manifest = {"config_sha256": "x", "params": {"seed": 1, "threads": 7}, "study": "chaos"}
    portable = json.loads(run._portable_manifest(json.dumps(manifest).encode()))
    check("manifest drops cpu-dependent fields", portable == {"params": {"seed": 1}, "study": "chaos"}, portable)
    check("missing report fails", not run._study_checks(good)["report_checks_pass"])


TOY_RUNS = (
    (["simulate", "--n", "100", "--t", "5", "--seed", "3"], ("cli.main", "particle.simulate")),
    (
        ["pde", "--m1", "1", "--dx", "0.05", "--dt", "0.1", "--t", "1", "--init", "random:1"],
        ("cli.main", "kinetic1d.solve", "kinetic1d.step_euler.M400", "kinetic1d.gain.M400",
         "kinetic1d.self_convolution.M400", "diagnostics.observer", "diagnostics.dissipation.M400",
         "diagnostics.wasserstein1.grid", "diagnostics.wasserstein2", "kinetic1d.save_density",
         "experiments.random_positive_density"),
    ),
    (
        ["study", "--study", "chaos", "--n-list", "100,200", "--replicas", "10", "--t", "0.2", "--threads", "2"],
        ("cli.main", "experiments.chaos_scaling", "experiments.write_artifacts", "particle.simulate",
         "kinetic1d.solve", "diagnostics.wasserstein1.sample"),
    ),
)


def check_toy_runs(tmp: str) -> None:
    probe = run._probe_sample(tmp)
    check("host speed probe runs without kinex", probe > 0, probe)
    for k, (cli_args, expected) in enumerate(TOY_RUNS):
        digests = []
        for flags in ([], ["--trace"]):
            out = os.path.join(tmp, f"toy{k}{'t' if flags else ''}")
            rc, setup, result, err = run._spawn(out + ".json", flags, cli_args + ["--out", out])
            # toy sizes may fail a study's statistical checks (exit 1); no exception may escape
            check(f"{cli_args[0]} {flags} runs", rc in (0, 1) and result.get("error") is None, err)
            check(f"{cli_args[0]} {flags} setup measured", setup is not None and setup > 0, setup)
            digests.append(run.artifacts_digest(out) if os.path.isdir(out) else None)
        check(f"{cli_args[0]} traced artifacts identical", digests[0] is not None and digests[0] == digests[1])
        missing = set(expected) - set(result.get("span_names", []))
        check(f"{cli_args[0]} spans fire", not missing, sorted(missing))
        check(f"{cli_args[0]} self time non-negative", result.get("self_time_min_s", -1) >= 0)
        layer = result.get("per_layer", {})
        check(
            f"{cli_args[0]} per-layer keys",
            set(layer) == {name for name, _, _ in spans.PER_LAYER} - {"trace.overhead_s"},
            set(layer) ^ {name for name, _, _ in spans.PER_LAYER},
        )


def check_rebinding() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kinex.cli as cli
    from kinex import diagnostics, experiments, kinetic1d, particle

    tracer = spans.Tracer()
    names = tracer.install()
    check("span names cover the four layers and cli", {"cli.main", "particle.simulate", "kinetic1d.solve",
                                                       "diagnostics.dissipation", "experiments.chaos_scaling"}
          <= set(names))
    for mod, attr, owner in (
        (cli, "solve", kinetic1d), (experiments, "solve", kinetic1d), (cli, "save_density", kinetic1d),
        (experiments, "wasserstein1", diagnostics), (experiments, "wasserstein2", diagnostics),
        (experiments, "relative_entropy", diagnostics), (diagnostics, "gain", kinetic1d),
        (diagnostics, "self_convolution", kinetic1d), (cli.pt, "simulate", particle),
    ):
        obj = getattr(mod, attr)
        check(f"{mod.__name__}.{attr} traced", hasattr(obj, "__wrapped__") and obj is getattr(owner, attr))


def main() -> int:
    os.makedirs(run.RUN_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.RUN_ROOT)
    try:
        check_span_arithmetic()
        check_thread_stacks()
        check_benchmark_json()
        check_correctness_checks(tmp)
        check_toy_runs(tmp)
        check_rebinding()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(run.RUN_ROOT)
        except OSError:
            pass  # a benchmark run still uses it
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print(f"selftest: {PASSED[0]} passed, {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
