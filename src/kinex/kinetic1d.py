"""Deterministic solver for the mean-field wealth equation dq/dt = Q+[q] - q.

Densities live on a uniform midpoint grid over [0, x_max]. The gain term
Q+[q] is the law of U*(X+Y) for independent X, Y ~ q and U ~ Uniform[0,1];
on the grid it is computed as a discrete self-convolution c = q*q followed
by the tail integral of c(m)/m. Midpoint cells make both steps plain array
operations: the convolution of two midpoint-sampled densities lands exactly
on midpoints of the doubled domain, and the 1/m factor is evaluated at cell
centers so it never touches m = 0.

The self-convolution is one real FFT on every grid, for the gain and D[q]
alike; cells outside the sumset of q's support, where the exact
convolution is 0, are set to 0. No step calls BLAS, whose summation order
depends on the CPU. So for a given numpy version a run writes the same
bytes on every CPU that numpy dispatches to the same SIMD loops: without
AVX512 numpy's exp and log round differently (the start densities and
the diagnostics use them, a step does not), and without AVX2 so does the
FFT's complex square. Nothing is cached at module level: a density keeps
its q*q in its own memo, so a record's D[q] and the next Euler step share
one FFT.

Mass escaping beyond x_max is dropped, not renormalized, so conservation
stays an honest diagnostic (see TrajectoryObserver's tail_mass).

Every CSV table of kinex goes through _write_table: a header, str() cells,
_CSV_BLOCK rows per write; CRLF for a density and diagnostics.csv, else LF.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from itertools import chain, islice, starmap

import numpy as np

from .errors import ConfigError, DataError, DomainError, StabilityError

# Input values down to -_NEGATIVITY_CLIP are rounding noise and read as 0.
_NEGATIVITY_CLIP = 1e-14
# A larger grid is refused before numpy would try to allocate it.
_MAX_CELLS = 2**22
# More cell updates (cells x Euler steps) are refused before the first step; 50x the largest default run.
_MAX_CELL_STEPS = 10**8
# CSV rows per write, and floats per list: the whole density CSV as one string raised pde's peak by 1 MB.
_CSV_BLOCK = 1024


class Grid1D:
    """Uniform cell-midpoint grid on [0, x_max] with n_cells cells."""

    def __init__(self, x_max: float, n_cells: int):
        if not (x_max > 0) or n_cells < 16:
            raise ConfigError(f"need x_max > 0 and n_cells >= 16, got {x_max}, {n_cells}")
        if n_cells > _MAX_CELLS:
            raise ConfigError(f"a grid of {n_cells:.7g} cells exceeds the limit of {_MAX_CELLS} cells")
        self.x_max = float(x_max)
        self.n_cells = int(n_cells)
        self.dx = self.x_max / self.n_cells
        self.nodes = (np.arange(self.n_cells) + 0.5) * self.dx
        # the cell edges, one array for the CDF of every density on this grid (cdf_points)
        self.edges = np.arange(self.n_cells + 1) * self.dx
        self.edges.setflags(write=False)
        # m / dx at the 2M - 1 cells of q*q, last cell first: gain's shell divisor. It is made
        # with the grid: made at a solve's first step, amid the first record's temporaries,
        # it doubled the page faults of most pde runs (M = 10^4).
        self._shell_divisor = np.arange(2 * self.n_cells - 1, 0, -1, dtype=float)
        self._shell_divisor.setflags(write=False)

    @classmethod
    def from_spacing(cls, x_max: float, dx: float) -> "Grid1D":
        n = x_max / dx
        if n < math.inf:  # round() overflows at inf, a count __init__ refuses anyway
            n = round(n)
            if abs(n * dx - x_max) > 1e-9 * x_max:
                raise ConfigError(f"x_max={x_max} is not a multiple of dx={dx}")
        return cls(x_max, n)

    def __eq__(self, other):
        return (
            isinstance(other, Grid1D)
            and self.n_cells == other.n_cells
            and self.x_max == other.x_max
        )

    def __repr__(self):
        return f"Grid1D(x_max={self.x_max}, n_cells={self.n_cells})"


class GridDensity1D:
    """Nonnegative density values on a Grid1D, with cached discrete moments.

    Instances are treated as immutable: every operation returns a new
    density, so snapshots never alias solver state and _memo (name -> a
    value derived from this density, such as its q*q or its mean) never
    goes stale. A density owns its values, a read-only copy of its input
    in which values in [-1e-14, 0) read as 0 (step_euler refuses any value
    below 0 before it builds its new state).

    mass is computed when the density is built, since every step's gain
    checks it; mean is computed on first read, by the same expression,
    and kept in _memo. Only records, save_density and the studies read it.

    A step's new state copies the step's sum too. Keeping that sum without
    the copy, or building it in place in gain's array, doubled the page
    faults of most pde runs (M = 10^4, where the heap is then given back
    and faulted in again) and raised their peak by about 0.3 MB.
    """

    def __init__(self, grid: Grid1D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,):
            raise DataError(f"expected {grid.n_cells} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("density values must be finite")
        if values.min(initial=0.0) < -_NEGATIVITY_CLIP:
            raise DomainError(f"negative density value {values.min()}")
        self.grid = grid
        self.values = np.where(values < 0, 0.0, values)
        self.values.setflags(write=False)
        self.mass = float(np.sum(self.values) * grid.dx)
        self._memo: dict = {}

    @property
    def mean(self) -> float:
        """Discrete mean, sum of x q(x) dx, computed on first read and kept in _memo."""
        mean = self._memo.get("mean")
        if mean is None:  # two threads reading it first compute the same float
            mean = self._memo["mean"] = float(np.sum(self.grid.nodes * self.values) * self.grid.dx)
        return mean

    def moment(self, k: int) -> float:
        """Discrete k-th moment, sum of x^k q(x) dx."""
        return float(np.sum(self.grid.nodes**k * self.values) * self.grid.dx)

    def cdf_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-linear CDF: the grid's read-only cell edges and the cumulative masses (F(0)=0)."""
        return self.grid.edges, np.concatenate(([0.0], np.cumsum(self.values) * self.grid.dx))

    def normalized(self) -> "GridDensity1D":
        """Rescale to exact discrete mass 1."""
        if self.mass <= 0:
            raise DomainError("cannot normalize a zero-mass density")
        return GridDensity1D(self.grid, self.values / self.mass)

    def __repr__(self):
        return f"GridDensity1D(mass={self.mass:.6g}, mean={self.mean:.6g}, {self.grid!r})"


class Equilibrium:
    """Exponential stationary state with mean m1: density exp(-x/m1)/m1."""

    def __init__(self, m1: float):
        if not m1 > 0:
            raise DomainError(f"equilibrium mean must be positive, got {m1}")
        self.m1 = float(m1)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.exp(-x / self.m1) / self.m1, 0.0)

    def on_grid(self, grid: Grid1D) -> GridDensity1D:
        return GridDensity1D(grid, self.density(grid.nodes))


def uniform_density(grid: Grid1D, a: float, b: float) -> GridDensity1D:
    """Uniform[a, b] on the grid: the cells between a and b get 1/(b-a).

    a and b must be cell edges (multiples of dx to 1e-9 relative, as in
    Grid1D.from_spacing), so the cells cover [a, b] exactly and the mass is 1.
    """
    if not 0 <= a < b <= grid.x_max:
        raise ConfigError(f"need 0 <= a < b <= x_max, got [{a}, {b}]")
    if any(abs(round(v / grid.dx) * grid.dx - v) > 1e-9 * v for v in (a, b)):
        raise ConfigError(f"uniform bounds [{a}, {b}] are not cell edges of dx={grid.dx}")
    inside = (grid.nodes >= a) & (grid.nodes < b)
    return GridDensity1D(grid, inside / (b - a))


# ---------------------------------------------------------------------------
# gain operator and time stepping
# ---------------------------------------------------------------------------


def _fft_square(v: np.ndarray) -> np.ndarray:
    """The 2*len(v) - 1 values of the linear self-convolution of v, by one real FFT.

    A step's speed depends on glibc's trim threshold: the FFT's buffers
    (about 1 MB at M = 10^4) are freed every step, and under the default
    threshold they go back to the OS and are faulted in again (a bare solve
    at M = 10^4: 50 576 minor faults, against 754 once a 512 KiB block was
    freed once). What raises it now is the first record: the Laplace
    profile's buffer (480 KiB at M = 10^4), then W2's 512 KiB workspace.
    """
    n = 2 * v.size - 1
    nfft = 1 << (n - 1).bit_length()
    spectrum = np.fft.rfft(v, nfft)
    np.square(spectrum, out=spectrum)  # the ufunc that spectrum ** 2 calls, without a second spectrum
    return np.fft.irfft(spectrum, nfft)[:n]


def _hull(v: np.ndarray) -> tuple[int, int, int]:
    """(a, b, count): the first and last nonzero cells of v and how many cells are nonzero; (0, -1, 0) for none."""
    nonzero = v != 0
    count = int(np.count_nonzero(nonzero))
    if not count:
        return 0, -1, 0
    return int(nonzero.argmax()), v.size - 1 - int(nonzero[::-1].argmax()), count


def self_convolution(q: GridDensity1D) -> np.ndarray:
    """Discrete c = q*q on the doubled midpoint grid, c[k] at (k+1)*dx.

    Returns 2*n_cells - 1 values; sum(c)*dx equals mass(q)^2 up to FFT
    round-off. c is exactly 0 outside the sumset of the nonzero cells of q:
    [2a, 2b] when those form one interval [a, b], else the cells where the
    FFT of the 0/1 indicator rounds to a pair count of 0. Both masks zero all
    of c outside [2a, 2b], with a and b the first and last nonzero cells.

    The result is read-only and kept in q's memo, so a record's
    dissipation(q) and the next step_euler(q) share one FFT; it lives as
    long as q does. A density with equal values is another object with its
    own memo.
    """
    c = q._memo.get("self_convolution")
    if c is not None:
        return c
    v = q.values
    c = _fft_square(v)
    a, b, count = _hull(v)
    if count and b - a + 1 == count:
        c[: 2 * a] = 0.0
        c[2 * b + 1 :] = 0.0
    else:
        c[np.rint(_fft_square(v > 0)) == 0] = 0.0
    # convolution of nonnegative sequences; FFT round-off may dip below 0
    np.maximum(c, 0.0, out=c)
    c *= q.grid.dx
    c.setflags(write=False)
    q._memo["self_convolution"] = c
    return c


def gain(q: GridDensity1D) -> np.ndarray:
    """Grid values of the collision gain Q+[q]: law of U*(X+Y) for X, Y iid q, U ~ Uniform[0,1].

    The tail integral over m of c(m)/m, c = q*q; its mass is mass(q)^2 up
    to the tail past x_max. The values are nonincreasing and >= 0 by
    construction, not by a check: a reversed cumsum of shells clamped at 0.
    A non-finite value makes step_euler's new state non-finite, which
    GridDensity1D refuses.
    """
    if not 0.9 <= q.mass <= 1.1:
        raise DomainError(f"gain expects a (near-)probability density, mass={q.mass}")
    c = self_convolution(q)
    # c(m)/m * dx at m = (k+1) dx, last cell first; the cumsum writes a new array, because
    # numpy runs a cumsum into its own input without releasing the GIL, and a record waits
    tail = np.cumsum(np.divide(c[::-1], q.grid._shell_divisor))
    return tail[: -q.grid.n_cells - 1 : -1].copy()  # a view would keep the whole 2M - 1 cumsum alive


def _check_dt(dt: float) -> None:
    if dt > 1:
        raise StabilityError(f"dt = {dt} exceeds the unit loss rate; choose dt <= 1")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")


def _step_count(t_final: float, dt: float, n_cells: int) -> int:
    """round(t_final / dt) Euler steps, refused if unstable, below one step or over the work cap."""
    if not t_final > 0:
        raise ConfigError(f"t_final must be positive, got {t_final}")
    _check_dt(dt)
    if t_final < dt:
        raise ConfigError(f"t_final = {t_final} is shorter than one step dt = {dt}")
    n_steps = t_final / dt
    if n_steps < math.inf:  # round() overflows at inf, a count the cap refuses anyway
        n_steps = round(n_steps)
    if n_steps * n_cells > _MAX_CELL_STEPS:
        raise ConfigError(f"{n_steps:.7g} steps of {n_cells} cells exceed the limit of "
                          f"{_MAX_CELL_STEPS:.7g} cell updates")
    return n_steps


def step_euler(q: GridDensity1D, dt: float) -> GridDensity1D:
    """One forward Euler step q + dt*(Q+[q] - q).

    dt must lie in (0, 1]; the loss term has unit rate and dt > 1 makes the
    update a non-convex combination that can go negative.

    For 0 < dt <= 1 the step cannot go negative, even after rounding. Per
    cell q >= 0 and g = Q+[q] >= 0, by construction and not by a check
    (see gain), so g - q >= -q exactly; rounding is monotone and -q is
    representable, so fl(g - q) >= -q. With dt <= 1, dt * fl(g - q) lies
    between fl(g - q) and 0, so by the same argument fl(dt * fl(g - q))
    >= -q. Hence q + fl(dt * fl(g - q)) >= 0, before and after rounding,
    and no clipping is needed: a value below 0 in the new state is an
    error (DomainError), not rounding noise that the density would read
    as 0.
    """
    _check_dt(dt)
    new = q.values + dt * (gain(q) - q.values)
    if new.min(initial=0.0) < 0:
        raise DomainError(f"negative density value {new.min()} in a step's new state")
    return GridDensity1D(q.grid, new)


class _RecordThread:
    """The one worker thread of a solve: it runs each record (every observer, in order, on one (t, q)).

    One record is in flight at a time, and its error is raised on the
    solving thread. The thread lives as long as the solve: a new thread
    per record can be handed a second malloc arena before the last one's
    is released, and each arena keeps the memory its thread freed.

    The last (t, q) is held until the next is submitted, so a recorded q
    and its q*q stay put in the solving thread's heap for the steps between
    records, however short the record: freed as soon as a fast record
    ended, they let the heap's top pass glibc's trim threshold in the next
    steps, which gave the FFT's buffers back and faulted them in again
    (pde at M = 10^4: about twice the page faults).
    """

    def __init__(self, observers):
        self._observers = observers
        self._job = None  # (t, q) of the last record submitted; None stops the thread
        self._failure = None  # what the last record raised, until wait() raises it
        self._busy = False
        self._todo, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, name="kinex-record")
        self._thread.start()

    def _serve(self) -> None:
        while self._todo.acquire() and self._job is not None:
            try:
                for obs in self._observers:
                    obs(*self._job)
            except BaseException as exc:  # handed to the solving thread, which raises it
                self._failure = exc
            self._done.release()

    def wait(self) -> None:
        """Wait for the record in flight, if any, and raise the error it ended with."""
        if self._busy:
            self._done.acquire()
            self._busy = False
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise failure

    def submit(self, t: float, q: GridDensity1D) -> None:
        """Start the record of (t, q) once the one in flight is done."""
        self.wait()
        self._job = (t, q)
        self._busy = True
        self._todo.release()

    def close(self) -> None:
        """Wait for the record in flight, stop the thread, and raise that record's error."""
        try:
            self.wait()
        finally:
            self._job = None
            self._todo.release()
            self._thread.join()


def solve(q0: GridDensity1D, t_final: float, dt: float, snapshot_times=None, observers=()) -> GridDensity1D:
    """Integrate dq/dt = Q+[q] - q with forward Euler from q0; return the state at t_final.

    Each observer(t, q) sees the state at the last step time <= each
    snapshot time (default: t = 0 and t_final). solve keeps no state but
    the last, so after it returns the only densities alive are the final
    one and those an observer kept. t_final must be at least dt and is
    rounded to the nearest multiple of dt; a run over _MAX_CELL_STEPS cell
    updates is refused before the first step.

    A record (every observer, in order, on one (t, q)) runs on one worker
    thread while this thread takes the next Euler steps; numpy releases the
    GIL in its FFTs and array loops, and densities are immutable, so both
    threads compute what they would compute one after the other. One
    record is in flight at a time: solve waits for it before the next
    record starts and before it returns or raises, and re-raises the
    error a record ended with, in preference to an error of a later step.
    Before it hands q to a record that a step follows, solve convolves q
    itself, so the record's dissipation(q) and the step share that one FFT.
    A solve without observers starts no thread.

    q0 should carry discrete mass exactly 1 (use normalized()): the mass
    flow of the equation is m' = m^2 - m, so a sampling deficit epsilon
    grows like epsilon * e^t until the sanity gate in gain() trips. The
    same amplification acts on the truncation leak (~exp(-x_max/m1) per
    unit time once the tail is populated), which bounds usable horizons at
    roughly t < x_max/m1 - log(1/tolerance). Mass is deliberately never
    renormalized mid-run; TrajectoryObserver reports the loss as tail_mass.
    """
    n_steps = _step_count(t_final, dt, q0.grid.n_cells)
    if snapshot_times is None:
        snap_steps = {0, n_steps}
    else:
        snapshot_times = sorted(float(t) for t in snapshot_times)
        if snapshot_times and (snapshot_times[0] < 0 or snapshot_times[-1] > t_final + 1e-9):
            raise ConfigError("snapshot times must lie within [0, t_final]")
        snap_steps = {min(n_steps, int(math.floor(t / dt + 1e-9))) for t in snapshot_times}

    q = q0
    recorder = _RecordThread(observers) if observers else None
    try:
        for step in range(n_steps + 1):
            if step:
                q = step_euler(q, dt)
            if recorder is not None and step in snap_steps:
                if step < n_steps:
                    self_convolution(q)  # on this thread, before the record and the next step read it
                recorder.submit(step * dt, q)
    finally:
        if recorder is not None:
            recorder.close()  # a failed record's error replaces a later step's
    return q


# ---------------------------------------------------------------------------
# I/O: densities as CSV x,value with a JSON sidecar
# ---------------------------------------------------------------------------


def _floats(a: np.ndarray):
    """a's values as Python floats, listed _CSV_BLOCK at a time: a table's rows hold no whole copy of a."""
    return chain.from_iterable(a[lo : lo + _CSV_BLOCK].tolist() for lo in range(0, a.size, _CSV_BLOCK))


def _write_table(path: str, header, rows, end: str = "\n") -> None:
    """Write the header, then each row's cells as str() (a float's repr), _CSV_BLOCK rows per write.

    A row has as many cells as the header; every line ends in end.
    """
    line = ",".join(["{}"] * len(header)) + end
    rows = iter(rows)
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + end)
        while block := "".join(starmap(line.format, islice(rows, _CSV_BLOCK))):
            f.write(block)


def save_density(q: GridDensity1D, path: str) -> None:
    """Write q as x,value CSV rows (_write_table, CRLF) plus a .json sidecar.

    The sidecar's keys are not sorted: their written order is part of its bytes.
    """
    _write_table(path, ("x", "value"), zip(_floats(q.grid.nodes), _floats(q.values)), "\r\n")
    with open(path + ".json", "w") as f:
        json.dump({"x_max": q.grid.x_max, "n_cells": q.grid.n_cells, "m1": q.mean}, f, indent=2)
        f.write("\n")


def load_density(path: str) -> GridDensity1D:
    """Read a density written by save_density: x,value rows plus a .json sidecar.

    The CSV must hold exactly the sidecar's n_cells rows after its header;
    anything else is a DataError naming the file.
    """
    with open(path + ".json") as f:
        try:
            meta = json.load(f)
            grid = Grid1D(meta["x_max"], meta["n_cells"])
        except KeyError as exc:
            raise DataError(f"{path}.json: sidecar has no {exc} entry") from None
        except (ConfigError, TypeError, ValueError) as exc:
            raise DataError(f"{path}.json: bad sidecar: {exc}") from None
    with open(path, newline="", encoding="utf-8") as f:
        try:
            rows = list(csv.reader(f))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: density CSV is not UTF-8 text ({exc.reason})") from None
    if not rows or rows[0][:2] != ["x", "value"]:
        raise DataError(f"{path}: unexpected density CSV header {rows[:1]}")
    if len(rows) - 1 != grid.n_cells:
        raise DataError(f"{path}: {len(rows) - 1} data rows, but its sidecar says n_cells={grid.n_cells}")
    values = np.empty(grid.n_cells)
    for i, row in enumerate(rows[1:]):
        try:
            values[i] = float(row[1])
        except (IndexError, ValueError):
            raise DataError(f"{path}:{i + 2}: expected x,value with a numeric value, got {row}") from None
    try:
        return GridDensity1D(grid, values)
    except (DataError, DomainError) as exc:  # non-finite or negative values
        raise DataError(f"{path}: {exc}") from None
