"""A diagnostics record's functionals in their plain forms, as bit-for-bit references.

Each function writes the float operations of one record quantity as plain
expressions: the Laplace profile one lambda at a time with a fresh array
for each of exp(lambda x), its product with q and the sum; W1 with every
CDF value read at the merged breakpoints, on one grid too, by an np.interp
or searchsorted of its own; and x log y through a mask in every case.
kinex.diagnostics computes the same operations on the same operands in
fewer passes, so the two must agree byte for byte.
"""

import numpy as np

from kinex import diagnostics as dg
from kinex.errors import ConfigError
from kinex.kinetic1d import GridDensity1D


def xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y) with the 0 * log 0 convention, through the mask x > 0."""
    out = np.zeros_like(x, dtype=float)
    mask = x > 0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def laplace_profile(q, lam0: float, C: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(1 - C*lambda) * integral(exp(lambda x) q) on the lambda grid, one lambda at a time."""
    if not lam0 > 0 or not C * lam0 < 1:
        raise ConfigError(f"need lam0 > 0 and C * lam0 < 1, got {lam0}, {C}")
    lams = np.linspace(0.0, lam0, dg._LAPLACE_POINTS)
    dx = q.grid.dx
    G = np.empty(dg._LAPLACE_POINTS)
    for k, lam in enumerate(lams):
        G[k] = (1.0 - C * lam) * float(np.sum(np.exp(lam * q.grid.nodes) * q.values) * dx)
    return lams, G


def _points(obj) -> np.ndarray:
    """Where the CDF of obj may bend or jump: a grid density's cell edges, or the sample sorted."""
    if isinstance(obj, GridDensity1D):
        return obj.cdf_points()[0]
    return np.sort(np.asarray(obj, dtype=float))


def _cdf(obj, x: np.ndarray, side: str) -> np.ndarray:
    """F(x+) (side "right") or F(x-) (side "left"): np.interp on a grid density's table, searchsorted in a sample."""
    if isinstance(obj, GridDensity1D):  # continuous: both limits are F(x)
        edges, cum = obj.cdf_points()
        return np.interp(x, edges, cum / cum[-1], left=0.0, right=1.0)
    xs = _points(obj)
    return np.searchsorted(xs, x, side) / xs.size


def wasserstein1(p, r) -> float:
    """Exact 1-D W1 with both CDFs read at the merged breakpoints, on one grid too.

    On each merged interval [a, b] the gap runs linearly from F_p(a+) - F_r(a+)
    to F_p(b-) - F_r(b-), whether a CDF is linear there or a sample's constant.
    """
    breaks = np.sort(np.concatenate((_points(p), _points(r))))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    a, b = breaks[:-1], breaks[1:]
    dl = _cdf(p, a, "right") - _cdf(r, a, "right")
    dr = _cdf(p, b, "left") - _cdf(r, b, "left")
    same = dl * dr >= 0
    seg = np.where(
        same,
        0.5 * (np.abs(dl) + np.abs(dr)),
        0.5 * (dl**2 + dr**2) / np.maximum(np.abs(dl - dr), 1e-300),
    )
    return float(np.sum((b - a) * seg))
