"""A diagnostics record's functionals in their plain forms, as bit-for-bit references.

Each function writes the float operations of one record quantity as plain
expressions: the Laplace profile one lambda at a time with a fresh array
for each of exp(lambda x), its product with q and the sum; W1 with every
CDF value read by np.interp at the merged breakpoints, on one grid too; and
x log y through a mask in every case. kinex.diagnostics computes the same
operations on the same operands in fewer passes, so the two must agree
byte for byte.
"""

import numpy as np

from kinex import diagnostics as dg
from kinex.errors import ConfigError


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


def wasserstein1(p, r) -> float:
    """Exact 1-D W1 with both CDFs read by np.interp (or searchsorted) at the merged breakpoints."""
    mp, mr = dg._measure(p), dg._measure(r, keep=True)
    if mp.step or mr.step or not np.array_equal(mp.xs, mr.xs):
        breaks = np.sort(np.concatenate((mp.xs, mr.xs)))
        breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    else:
        breaks = mp.xs
    a, b = breaks[:-1], breaks[1:]
    dl = mp.cdf_right(a) - mr.cdf_right(a)
    if mp.step and mr.step:
        return float(np.sum((b - a) * np.abs(dl)))
    dr_p = mp.cdf_right(a) if mp.step else np.interp(b, mp.xs, mp.F, left=0.0, right=1.0)
    dr_r = mr.cdf_right(a) if mr.step else np.interp(b, mr.xs, mr.F, left=0.0, right=1.0)
    dr = dr_p - dr_r
    same = dl * dr >= 0
    seg = np.where(
        same,
        0.5 * (np.abs(dl) + np.abs(dr)),
        0.5 * (dl**2 + dr**2) / np.maximum(np.abs(dl - dr), 1e-300),
    )
    return float(np.sum((b - a) * seg))

