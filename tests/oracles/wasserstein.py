"""W2 of two 1-D measures by an independent merge in plain Python, exact up to rounding.

W2^2 is the integral over u in [0, 1] of (Q_p(u) - Q_r(u))^2, with Q the
quantile functions. A grid density's Q is linear between the values of
its CDF table (the table of GridDensity1D.cdf_points over its mass), and a
sample's is the step function xs[k] on [k/n, (k+1)/n). So between two
consecutive values of the merged set of both tables' u-values both are
linear, the integrand is a quadratic, and Simpson's rule is exact for it.
Each interval is integrated on the segments of the two tables that hold
it, the last of each to start at or below its left end, which read the
limits of Q at the interval's ends. The merge is a sorted set, each
segment is found by bisection, and the sum is math.fsum. Beside it, the
midpoint rule on a u-grid that W2 used before it had a closed form, a
block of the grid at a time.
"""

import bisect
import math

import numpy as np

from kinex.kinetic1d import GridDensity1D


def _table(obj) -> tuple[list[float], list[float], list[float]]:
    """(u, lo, hi) as lists: Q runs linearly from lo[k] to hi[k] over [u[k], u[k + 1]]."""
    if isinstance(obj, GridDensity1D):
        edges, cum = obj.cdf_points()
        u = (cum / cum[-1]).tolist()
        xs = edges.tolist()
        return u, xs[:-1], xs[1:]
    xs = sorted(float(x) for x in obj)
    n = len(xs)
    return [k / n for k in range(n + 1)], xs, xs


def _quantile(table, k: int, v: float) -> float:
    u, lo, hi = table
    return lo[k] + (v - u[k]) / (u[k + 1] - u[k]) * (hi[k] - lo[k])


def wasserstein2(p, r) -> float:
    """W2(p, r) by Simpson's rule on every interval of the merged u-breakpoints."""
    tp, tr = _table(p), _table(r)
    breaks = sorted(set(tp[0]) | set(tr[0]))
    parts = []
    for a, b in zip(breaks, breaks[1:]):
        mid = 0.5 * (a + b)
        kp = bisect.bisect_right(tp[0], a) - 1  # no table value lies in (a, b)
        kr = bisect.bisect_right(tr[0], a) - 1
        ga, gm, gb = (_quantile(tp, kp, v) - _quantile(tr, kr, v) for v in (a, mid, b))
        parts.append((b - a) / 6.0 * (ga * ga + 4.0 * gm * gm + gb * gb))
    return math.sqrt(math.fsum(parts))


def midpoint_wasserstein2(p, r, n: int, block: int = 1 << 16) -> float:
    """The midpoint rule on the u-grid (arange(n) + 0.5) / n, with Q by np.interp of the CDF tables."""
    (up, xp), (ur, xr) = ((cum / cum[-1], edges) for edges, cum in (p.cdf_points(), r.cdf_points()))
    total = 0.0
    for lo in range(0, n, block):
        u = (np.arange(lo, min(lo + block, n)) + 0.5) / n
        gap = np.interp(u, up, xp) - np.interp(u, ur, xr)
        total += float(np.sum(gap * gap))
    return math.sqrt(total / n)
