"""One fresh-interpreter run of the kinex CLI, started by run.py.

Usage: python3 perfbench/child.py RESULT_JSON [--trace] -- CLI_ARGS...
       python3 perfbench/child.py RESULT_JSON --setup-only [--pde-seed S] --
       python3 perfbench/child.py RESULT_JSON --probe --

Imports ``kinex.cli`` from the ``src`` directory next to this benchmark,
builds the parser, and stamps the monotonic clock; the parent subtracts its
own stamp taken before it started this process, which gives ``setup_s``.
It then times one ``kinex.cli.main(CLI_ARGS)`` call (``wall_s``), optionally
under the tracer, and writes a JSON result with the return code, the peak
RSS and, when traced, the per-layer metrics of the call. With
``--setup-only`` it stops after the stamp, optionally after choosing the
pde start density for benchmark seed S (see pde_start_seed). With
``--probe`` it only times host_speed_probe, without importing kinex.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# pde workload: mean and cell width of the start density, and its zero-cell count
# (3011 is that of random:42, the reference start; about 2.5% of seeds lie in the band)
PDE_M1 = 5.0
PDE_DX = 0.01
REFERENCE_ZERO_CELLS = 3011
ZERO_CELL_BAND = 50
STRIDE = 1000


def _bytes_under(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def pde_start_seed(seed: int) -> tuple[int, int]:
    """(init seed, zero cells) of the pde start density for benchmark seed S.

    The first of the seeds STRIDE*S, STRIDE*S + 1, ... whose start density
    has REFERENCE_ZERO_CELLS +- ZERO_CELL_BAND cells equal to zero. The
    first dissipation call costs O(M * zero cells) time and memory, so
    fixing the count keeps that cost the same on every seed.
    """
    from kinex import experiments
    from kinex.kinetic1d import Grid1D

    grid = Grid1D.from_spacing(20.0 * PDE_M1, PDE_DX)
    for init in range(STRIDE * seed, STRIDE * (seed + 1)):
        q0 = experiments.random_positive_density(grid, PDE_M1, init)
        zeros = int((q0.values == 0).sum())
        if abs(zeros - REFERENCE_ZERO_CELLS) <= ZERO_CELL_BAND:
            return init, zeros
    raise SystemExit(f"no pde start density with {REFERENCE_ZERO_CELLS} zero cells for seed {seed}")


def host_speed_probe() -> float:
    """Seconds for a fixed amount of work shaped like kinex's hot paths.

    A pure-Python loop of pairwise list updates (like the particle event
    loop) and numpy FFT convolutions (like the PDE step). It imports no
    kinex code, so no change to the program can move it; run.py divides by
    it to take out how fast the shared host happens to run at the time.
    """
    import numpy as np

    start = time.perf_counter()
    bal = [1.0] * 1000
    x = 12345
    for _ in range(200_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i, j = x % 1000, (x >> 10) % 1000
        pool = bal[i] + bal[j]
        bal[i] = 0.5 * pool
        bal[j] = pool - 0.5 * pool
    v = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(20):
        c = np.fft.irfft(np.fft.rfft(v, 1 << 16) ** 2, 1 << 16)
        np.cumsum(c[::-1])
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    result_path = argv[0]
    split = argv.index("--")
    flags, cli_args = argv[1:split], argv[split + 1 :]
    if "--probe" in flags:
        _write(result_path, {"probe_s": host_speed_probe()})
        return 0

    sys.path.insert(0, SRC)
    import kinex.cli

    kinex.cli.build_parser()
    ready_at = time.monotonic()
    if not os.path.abspath(kinex.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kinex imported from {kinex.cli.__file__}, not from {SRC}")
    result = {"ready_at": ready_at}
    if "--setup-only" in flags:
        if "--pde-seed" in flags:  # after the stamp: not part of setup_s
            seed = int(flags[flags.index("--pde-seed") + 1])
            result["pde_init_seed"], result["pde_zero_cells"] = pde_start_seed(seed)
        _write(result_path, result)
        return 0

    tracer = None
    if "--trace" in flags:
        import spans as span_trace  # perfbench/spans.py, first on sys.path

        tracer = span_trace.Tracer()
        tracer.install()

    error = None
    start = time.perf_counter()
    try:
        rc = kinex.cli.main(cli_args)
    except BaseException as exc:  # record any failure of the call as this run's result
        rc, error = -1, "".join(traceback.format_exception_only(type(exc), exc)).strip()
    wall = time.perf_counter() - start

    result.update(
        rc=rc,
        error=error,
        wall_s=wall,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=sys.version.split()[0],
        numpy=sys.modules["numpy"].__version__,
    )
    if tracer is not None:
        out_dir = cli_args[cli_args.index("--out") + 1]
        result["per_layer"] = span_trace.per_layer_metrics(tracer.spans, _bytes_under(out_dir))
        result["cost_inputs"] = span_trace.cost_inputs(tracer.spans)
        result["self_time_min_s"] = min(span_trace.self_times(tracer.spans).values(), default=0.0)
        result["span_names"] = sorted(
            {s.name for s in tracer.spans}
            | {f"{s.name}.M{s.attrs['m']}" for s in tracer.spans if "m" in s.attrs}
            | {f"{s.name}.{s.attrs['kind']}" for s in tracer.spans if "kind" in s.attrs}
        )
    _write(result_path, result)
    return 0 if rc == 0 else 1


def _write(path: str, result: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
