"""Scalar functionals of the relaxation: entropy, dissipation, distances.

The dissipation functional D[q] has one evaluation: the two-term split
through the diagonal average g of q (x) q, with every 2-D sum reduced to
sums along diagonals after one FFT (kinetic1d.self_convolution on every
grid, shared with the next Euler step); +inf is decided from the hull
[2a, 2b] of the support sumset. The 1/(x+y) collision factor is realized
as 1/(count of in-range cells * dx) per anti-diagonal; the count equals
(x+y)/dx on every diagonal not clipped by the truncation at x_max. The
literal O(M^3) triple sum and the O(M^2) splits that cross-check it live
in tests/oracles/ on an exact direct sum of their own, so all evaluations
agree to rounding error.

Wasserstein distances use the one-dimensional coupling, both exact: W1
as the area between CDFs, W2 as the integral of the squared gap between
quantile functions, each on the merged breakpoints. The second argument
is the reference side: a grid density there keeps its CDF in its memo, so
a trajectory's equilibrium is built once. A record builds q's CDF once,
for its mass check, W1 and W2; a direct call builds it per call.

A record evaluates each functional in few numpy passes, with the floats
of its plain form (tests/oracles/records.py checks them bit for bit): W1
reads each CDF once on the breakpoints, which for two densities on one
Grid1D are the grid's edges, where the CDFs are their tables, as
np.interp returns a table value exactly at a breakpoint; x log y skips
its mask when every x is positive; the Laplace profile takes several
lambdas per pass through one buffer of at most 512 KiB; and the +inf
rule of D reads the support's hull without an index array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import _w2
from .errors import ConfigError, DataError, DomainError, KinexError
from .kinetic1d import Equilibrium, GridDensity1D, _hull, _write_table, self_convolution
from .kinetic1d import gain  # noqa: F401  unused here; perfbench/selftest.py checks the tracer rebinds it

_LAPLACE_POINTS = 64  # lambda grid of the damped Laplace transform
_LAPLACE_BUFFER = 1 << 16  # floats of laplace_profile's (rows, M) buffer: 512 KiB
_EPS = float(np.finfo(float).eps)
_D_ROUNDING = 2.0  # K of dissipation's bound K * eps * M * size on a negative D


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y) with the 0 * log 0 convention (x = 0 contributes 0).

    When every x is positive, the mask selects every cell, so x * np.log(y)
    is the masked form's product on the same values, cell for cell; the
    mask, its two gathers and the zeroed output are made only otherwise.
    """
    if x.size and x.min() > 0:
        return x * np.log(y)
    out = np.zeros_like(x, dtype=float)
    mask = x > 0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def relative_entropy(p: GridDensity1D, r: GridDensity1D) -> float:
    """Kullback-Leibler integral of p log(p / r) in nats.

    Cells where p > 0 but r = 0 violate absolute continuity; the result is
    then the +inf sentinel and a warning is emitted.
    """
    if p.grid != r.grid:
        raise ConfigError("relative_entropy needs a shared grid")
    pv, rv = p.values, r.values
    bad = (pv > 0) & (rv == 0)
    if bad.any():
        warnings.warn("absolute continuity violated; relative entropy is +inf", stacklevel=2)
        return math.inf
    return float((_xlogy(pv, pv) - _xlogy(pv, rv)).sum() * p.grid.dx)


# ---------------------------------------------------------------------------
# entropy dissipation D[q]
# ---------------------------------------------------------------------------


def _check_positive_where_needed(v: np.ndarray) -> bool:
    """True if q (x) q gives positive mass to a diagonal touching a q = 0 cell.

    Zero cell z touches diagonals [z, z + M - 1]; diagonal k has mass
    exactly when k is in the sumset S of the nonzero cells, the first and
    last of which are a and b. That window meets S exactly when it meets
    the hull [2a, 2b]:

    - S lies in [2a, 2b] and contains {a + j} and {j + b} over the nonzero
      cells j, so its consecutive elements lie at most b - a <= M - 1 apart;
    - so M consecutive diagonals that meet [2a, 2b] hold 2a or 2b, or lie
      inside it, where no gap of S can hold all M of them.

    The decision reads only where v is zero: exact, no round-off, no FFT.
    a, b and the count come from kinetic1d._hull, which makes no index
    array; the index of the zero cells is built only when one exists.
    """
    a, b, count = _hull(v)
    if count in (0, v.size):
        return False
    zero = np.flatnonzero(v == 0)
    return bool(((zero <= 2 * b) & (zero + v.size - 1 >= 2 * a)).any())


def dissipation(q: GridDensity1D) -> float:
    """Entropy dissipation D[q] >= 0 (relative entropy decays at rate D/4).

    One convolution gives the diagonal average g; the sums over the pair
    grid then reduce to sums along diagonals, O(M) after the convolution.

    q must be strictly positive wherever the collision redistributes mass;
    otherwise the functional is genuinely infinite and the +inf sentinel is
    returned with a warning. The result is checked for nonnegativity (the
    integrand is a sum of (a - b) log(a/b) terms). D = t1 + t2 adds four
    terms, 4m * sum q log q and -2 * sum g log g (t1), +2 * sum g log g and
    -4 * sum h log q (t2); near equilibrium each is far larger than D, and
    at equilibrium D, t1 and t2 are all 0. So D's rounding error scales
    with the size of the four terms, not with |t1| + |t2|, and with M, as
    h comes from a sequential cumsum of 2M - 1 values. A negative D down to
    _D_ROUNDING * eps * M * size reads as 0, where size is the sum of the
    four terms' magnitudes; one below it raises. The worst ratio
    D / (eps * M * size) measured was -0.10 (equilibria and uniform
    densities on their own support, where D is 0 but for rounding, M = 16
    to 262 144). No D came out negative on the pde reference run or in
    study entropy, and two of the 370 in the tier-1 tests did, at ratios
    down to -0.0005. K = _D_ROUNDING = 2 leaves 19x headroom.
    """
    if _check_positive_where_needed(q.values):
        warnings.warn("q vanishes where the gain is positive; D[q] = +inf", stacklevel=2)
        return math.inf
    value, size = _diagonal_sums(q)
    if value < -_D_ROUNDING * _EPS * q.grid.n_cells * size:
        raise KinexError(f"dissipation came out negative ({value}); integrand violated")
    return max(value, 0.0)


def _diagonal_sums(q: GridDensity1D) -> tuple[float, float]:
    """(D[q], size of its terms) as sums along diagonals; h_z is exactly 0 wherever q_z = 0.

    dissipation has returned +inf if a zero cell z touches the hull
    [2a, 2b] of the support sumset with a diagonal in [z, z + M). Else
    every g there is exactly 0, as self_convolution writes exact zeros
    outside [2a, 2b] (both of its support masks do), so the sequential
    cumsum gives suffix[z] == suffix[z + M] and h_z = 0 exactly.
    """
    n = q.grid.n_cells
    dx = q.grid.dx
    counts = np.minimum(np.arange(2 * n - 1) + 1, 2 * n - 1 - np.arange(2 * n - 1))
    g = self_convolution(q) / (counts * dx)  # average of q (x) q over each diagonal
    v = q.values
    dx2 = dx * dx
    sq_logq = float(_xlogy(v, v).sum() * dx)
    glogg = float(_xlogy(counts * g, g).sum() * dx2)
    # h_i = dx * sum_j g_{i+j}: sliding tail-window sums of g
    suffix = np.concatenate((np.cumsum(g[::-1])[::-1], [0.0]))
    h = dx * (suffix[:n] - suffix[n : 2 * n])
    hlogq = float(_xlogy(h, np.where(v > 0, v, 1.0)).sum() * dx)
    t1 = 2.0 * (2.0 * q.mass * sq_logq - glogg)
    t2 = 2.0 * glogg - 4.0 * hlogq
    return t1 + t2, 4.0 * (abs(q.mass * sq_logq) + abs(glogg) + abs(hlogq))


# ---------------------------------------------------------------------------
# Laplace-transform bound
# ---------------------------------------------------------------------------


def _laplace_rows(n_cells: int) -> int:
    """lambdas per pass of laplace_profile: its (rows, M) buffer holds at most _LAPLACE_BUFFER floats."""
    return max(1, min(_LAPLACE_POINTS, _LAPLACE_BUFFER // n_cells))


def laplace_profile(q: GridDensity1D, lam0: float, C: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(1 - C*lambda) * integral(exp(lambda x) q) on a lambda grid over [0, lam0].

    Returns (lambdas, G values). The transform is finite on the damped
    range, so lam0 > 0 and C * lam0 < 1 are required; with the observer's
    scale-invariant parameters (lam0 = 0.6/m1, C = m1), C * lam0 = 0.6 for
    every mean m1, and lam0 itself may exceed 1 when m1 < 0.6.

    Several lambdas go through one pass: a (rows, M) buffer takes
    lambda * x, then exp in place, then the product with q in place, and
    each row is summed along x. Every cell sees the operations and the
    operands of the form with one lambda at a time and three temporaries
    per lambda, and np.sum reduces each contiguous row of M values as it
    reduced the one lambda's array, so G keeps its bits.

    The buffer holds at most _LAPLACE_BUFFER floats (512 KiB): 6 rows at
    M = 10^4, 64 up to M = 1024, 1 above M = 32 768. Freeing a block mapped
    at or above glibc's mmap threshold raises it to the block's size, and
    the trim threshold to twice that. W2's 512 KiB workspace sets both
    after it in a record; 8 rows (625 KiB at M = 10^4) raised them past
    that, and pde's peak RSS by 0.3-0.5 MB on three of four benchmark seeds.
    """
    if not lam0 > 0:
        raise ConfigError(f"lam0 must be positive, got {lam0}")
    if not C * lam0 < 1:
        raise ConfigError(f"need C * lam0 < 1, got {C * lam0}")
    lams = np.linspace(0.0, lam0, _LAPLACE_POINTS)
    nodes, values, dx = q.grid.nodes, q.values, q.grid.dx
    rows = _laplace_rows(nodes.size)
    buffer = np.empty((rows, nodes.size))
    G = np.empty(_LAPLACE_POINTS)
    for lo in range(0, _LAPLACE_POINTS, rows):
        lam = lams[lo : lo + rows]
        T = buffer[: lam.size]
        np.multiply(lam[:, None], nodes, out=T)
        np.exp(T, out=T)
        T *= values
        G[lo : lo + lam.size] = (1.0 - C * lam) * (np.sum(T, axis=1) * dx)
    return lams, G


def laplace_check(q: GridDensity1D, lam0: float, C: float = 1.0) -> float:
    """Supremum of the damped Laplace transform over the lambda grid."""
    _, G = laplace_profile(q, lam0, C)
    return float(G.max())


# ---------------------------------------------------------------------------
# Wasserstein distances (1-D, exact coupling through CDFs)
# ---------------------------------------------------------------------------


class _Measure:
    """Common CDF/quantile view of a grid density or an empirical sample.

    The mass is not checked here; _measure checks it on every use.
    """

    def __init__(self, obj):
        if isinstance(obj, GridDensity1D):
            self.xs, cum = obj.cdf_points()
            self.mass = cum[-1]
            self.F = cum / self.mass
            self.F.setflags(write=False)
            self.step = False
        else:
            samples = np.sort(np.asarray(obj, dtype=float))
            if samples.ndim != 1 or samples.size == 0 or not np.all(np.isfinite(samples)):
                raise DataError("empirical input must be a nonempty finite 1-D sample")
            self.xs = samples
            self.mass = 1.0
            self.step = True
        self.xs.setflags(write=False)  # a kept measure is shared by every caller

    def cdf(self, breaks: np.ndarray) -> np.ndarray:
        """F at the sorted breakpoints, which hold xs; a sample's F is constant between them, read at the left ends."""
        if self.step:
            return np.searchsorted(self.xs, breaks[:-1], side="right") / self.xs.size
        return self.F if breaks is self.xs else np.interp(breaks, self.xs, self.F, left=0.0, right=1.0)

    def quantile_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, lo, hi): Q runs linearly from lo[k] to hi[k] on [u[k], u[k+1]]; a sample's Q is a step."""
        if self.step:
            return np.arange(self.xs.size + 1) / self.xs.size, self.xs, self.xs
        return self.F, self.xs[:-1], self.xs[1:]


def _measure(obj, keep: bool = False) -> _Measure:
    """The _Measure of obj, checked for mass 1: read from a grid density's memo, and with keep put there."""
    measure = obj._memo.get("measure") if isinstance(obj, GridDensity1D) else None
    if measure is None:
        measure = _Measure(obj)
        if keep and isinstance(obj, GridDensity1D):
            obj._memo["measure"] = measure
    if abs(measure.mass - 1.0) > 1e-6:
        raise DomainError(f"measure mass must be 1 +- 1e-6, got {measure.mass}")
    return measure


def wasserstein1(p, r) -> float:
    """Exact 1-D W1: area between the two CDFs on merged breakpoints.

    The breakpoints are the edges two densities on one Grid1D share, else
    the sorted union. Each CDF is read once on them; on the k intervals the
    gap runs linearly from the first k values of the two reads, at the left
    ends, to the last k, the left limits at the right ends (a sample's F
    holds to the next breakpoint). Reads of one length take one subtraction.
    """
    mp, mr = _measure(p), _measure(r, keep=True)
    if mp.xs is mr.xs:
        breaks = mp.xs
    else:  # np.union1d by np.unique's steps, which np.unique itself takes only after importing numpy.ma
        breaks = np.sort(np.concatenate((mp.xs, mr.xs)))
        breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    fp, fr = mp.cdf(breaks), mr.cdf(breaks)
    k = breaks.size - 1
    if fp.size == fr.size:
        d = fp - fr
        dl, dr = d[:k], d[d.size - k :]
    else:
        dl, dr = fp[:k] - fr[:k], fp[fp.size - k :] - fr[fr.size - k :]
    return _area(np.diff(breaks), dl, dr)


def _area(width: np.ndarray, dl: np.ndarray, dr: np.ndarray) -> float:
    """Area between two CDFs whose gap runs linearly from dl to dr over cells of these widths."""
    same = dl * dr >= 0
    seg = np.where(
        same,
        0.5 * (np.abs(dl) + np.abs(dr)),
        0.5 * (dl**2 + dr**2) / np.maximum(np.abs(dl - dr), 1e-300),
    )
    return float(np.sum(width * seg))


def wasserstein2(p, r) -> float:
    """Exact 1-D W2: W2^2 is the integral of (Q_p - Q_r)^2 on [0, 1] (Villani, Thm 2.18).

    Both quantiles are linear between the merged CDF values (kinex._w2). r
    keeps its measure in its memo. A sample's mean of x^2 may overflow; a
    grid density's second moment is finite.
    """
    mp, mr = _measure(p), _measure(r, keep=True)
    with np.errstate(over="ignore"):  # refused without numpy's warning; its error state is per thread
        if any(m.step and not np.isfinite(np.mean(m.xs**2)) for m in (mp, mr)):
            raise DomainError("wasserstein2 needs finite second moments")
    return math.sqrt(_w2.squared(mp.quantile_table(), mr.quantile_table()))


# ---------------------------------------------------------------------------
# records and trajectory observer
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    time: float
    mass: float
    mean: float
    m2: float
    entropy_rel: float
    D: float
    W1: float
    W2: float
    laplace_sup: float
    tail_mass: float

    def row(self) -> list[float]:
        return [getattr(self, c) for c in RECORD_COLUMNS]


# diagnostics.csv's header: the record's fields, in their order
RECORD_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def write_records_csv(records, path: str) -> None:
    """diagnostics.csv: RECORD_COLUMNS, then each record's row of floats, lines ending in CRLF."""
    _write_table(path, RECORD_COLUMNS, (map(float, rec.row()) for rec in records), "\r\n")


class TrajectoryObserver:
    """Collects a DiagnosticsRecord per snapshot of a kinetic1d solve.

    The equilibrium used for entropy and the Wasserstein targets is the
    exponential state with the initial density's (conserved) mean m1, read
    from the first record, and the damped-Laplace parameters scale with
    that mean (lambda up to 0.6/m1, damping m1), which is the
    scale-invariant transfer of the mean-1 bound: the exponential moment
    would diverge otherwise. The initial mass is remembered so tail_mass
    reports cumulative truncation loss.

    solve calls it on its one record thread, one record at a time, while
    the next Euler steps run; the records and their bytes are those of a
    sequential run. It enters no warnings.catch_warnings, whose filters are
    shared by every thread: a +inf D is decided by the hull rule
    (_check_positive_where_needed), and dissipation is called only for
    finite records, so it never warns.
    """

    def __init__(self, wasserstein: bool = True):
        self.wasserstein = wasserstein
        self.lam0: float | None = None
        self.laplace_C: float | None = None
        self.records: list[DiagnosticsRecord] = []
        self._mass0: float | None = None
        self._eq: GridDensity1D | None = None

    def __call__(self, t: float, q: GridDensity1D) -> None:
        if self._mass0 is None:
            self._mass0 = q.mass
            self.lam0 = 0.6 / q.mean
            self.laplace_C = q.mean
            self._eq = Equilibrium(q.mean).on_grid(q.grid).normalized()
        # early snapshots may have D = +inf (see the class docstring)
        d_val = math.inf if _check_positive_where_needed(q.values) else dissipation(q)
        entropy = relative_entropy(q, self._eq)
        laplace = laplace_check(q, self.lam0, self.laplace_C)
        # the distances last: before the entropy and the Laplace profile, the exact W2 read pde's
        # peak RSS 0.10-0.19 MB above the u-grid's on 5 of 7 benchmark seeds; last, 0.02-0.10 MB
        w1, w2 = self._distances(t, q) if self.wasserstein else (math.nan, math.nan)
        self.records.append(
            DiagnosticsRecord(
                time=t,
                mass=q.mass,
                mean=q.mean,
                m2=q.moment(2),
                entropy_rel=entropy,
                D=d_val,
                W1=w1,
                W2=w2,
                laplace_sup=laplace,
                tail_mass=self._mass0 - q.mass,
            )
        )

    def _distances(self, t: float, q: GridDensity1D) -> tuple[float, float]:
        """(W1, W2) against the equilibrium from one measure of q, in q's memo while they run."""
        measure = _Measure(q)
        if abs(measure.mass - 1.0) > 1e-6:
            raise DataError(
                f"density mass {measure.mass:.7g} at t={t:g} is not 1 +- 1e-6 as W1/W2 need: "
                f"tail_mass={self._mass0 - q.mass:.3g} has left the grid past "
                f"x_max={q.grid.x_max:g}; widen the grid or shorten the run"
            )
        q._memo["measure"] = measure
        try:
            return wasserstein1(q, self._eq), wasserstein2(q, self._eq)
        finally:
            del q._memo["measure"]


@dataclass
class EepStudy:
    """(entropy, dissipation) pairs along a trajectory and a log-log slope."""

    times: np.ndarray
    entropies: np.ndarray
    dissipations: np.ndarray
    theta_hat: float | None
    n_dropped: int


def eep_study(records) -> EepStudy:
    """Fit entropy ~ C * D^theta on the usable part of a diagnostics series.

    Pairs with nonfinite or nonpositive entries (the t = 0 snapshot of a
    compactly supported start has infinite dissipation) are dropped and
    counted. Constants are existential, so this reports a fitted exponent
    and draws no pass/fail conclusion. Near-equilibrium series (entropy
    below 1e-12) skip the fit.
    """
    t = np.array([r.time for r in records])
    e = np.array([r.entropy_rel for r in records])
    d = np.array([r.D for r in records])
    keep = np.isfinite(e) & np.isfinite(d) & (e > 1e-300) & (d > 1e-300)
    dropped = int(len(records) - keep.sum())
    t, e, d = t[keep], e[keep], d[keep]
    if e.size < 3 or e.max() < 1e-12:
        return EepStudy(t, e, d, None, dropped)
    return EepStudy(t, e, d, linear_fit(np.log(d), np.log(e))[0], dropped)


def linear_fit(x, y) -> tuple[float, float, float, float]:
    """Least-squares slope, intercept, R^2 and slope standard error, in closed form (no LAPACK)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(np.sum(dx * dx))
    slope = float(np.sum(dx * dy)) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum(dy**2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    dof = max(x.size - 2, 1)
    se = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return slope, intercept, r2, se
