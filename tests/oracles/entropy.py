"""The paper's entropy inequalities, evaluated on the grid.

The derived densities h = Q+[q] and m (its tail mass profile), the Jensen
bound of the entropy of q against H = g * phi by the phi-weighted 2-D
form, and the three-region sandwich of a relative entropy. No CLI command
reaches them; the tests check the inequalities and identities of the
paper with them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from kinex.diagnostics import _xlogy
from kinex.errors import ConfigError, DomainError, KinexError
from kinex.kinetic1d import GridDensity1D, gain

from . import diagonal_average

_PAIR_GRID_LIMIT = 2048  # M cap of the O(M^2) sums in phi_weighted_entropy_bound


@dataclass
class DerivedDensities:
    """Gain h = Q+[q] and the tail mass profile m.

    ``h`` lives on the input grid, ``m`` on the cell edges 0, dx, ..., x_max
    so that m[0] is exactly the mass of h. h and m are nonincreasing by
    construction and the mean of h equals the mean of q (both conserved by
    the collision).
    """

    h: GridDensity1D
    m: np.ndarray


def derived_densities(q: GridDensity1D) -> DerivedDensities:
    h = gain(q)
    m = np.concatenate((np.cumsum(h.values[::-1])[::-1], [0.0])) * q.grid.dx
    return DerivedDensities(h, m)


def phi_weighted_entropy_bound(q: GridDensity1D, phi: np.ndarray) -> tuple[float, float]:
    """Jensen bound: entropy of q against H = g * phi versus the weighted 2-D form.

    phi is a nonnegative grid function normalized so that the integral of
    phi * q is 1 (to 1e-8). Returns (lhs, rhs) with lhs <= rhs guaranteed.
    """
    n = q.grid.n_cells
    if n > _PAIR_GRID_LIMIT:
        raise ConfigError(f"O(M^2) evaluation capped at M={_PAIR_GRID_LIMIT}")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (n,) or phi.min() < 0:
        raise DomainError("phi must be a nonnegative grid function")
    dx = q.grid.dx
    v = q.values
    if abs(float((phi * v).sum() * dx) - 1.0) > 1e-8:
        raise DomainError("phi must satisfy integral(phi * q) = 1 to 1e-8")

    g, _ = diagonal_average(q)  # exact, so g > 0 wherever f = q (x) q > 0 below
    i = np.arange(n)
    g2d = g[i[:, None] + i[None, :]]
    H = g2d @ phi * dx
    if ((v > 0) & (H == 0)).any():
        warnings.warn("H vanishes on the support of q; bound is +inf", stacklevel=2)
        return math.inf, math.inf
    lhs = float((_xlogy(v, np.where(v > 0, v, 1.0)) - _xlogy(v, np.where(H > 0, H, 1.0))).sum() * dx)

    f = np.outer(v, v)
    ratio = np.divide(f, g2d, out=np.ones_like(f), where=f > 0)
    rhs = float((_xlogy(f, ratio) * phi[None, :]).sum() * dx * dx)
    if not lhs <= rhs + 1e-9:
        raise KinexError(f"entropy bound violated: lhs={lhs} > rhs={rhs}")
    return lhs, rhs


def entropy_sandwich(mu: GridDensity1D, nu: GridDensity1D, C: float = 2.0) -> tuple[float, float, float]:
    """Three-region bracket of the relative entropy of mu against nu.

    For C >= 2 the middle value (the mass-corrected relative entropy, equal
    to the plain one when both inputs are probabilities) is bounded below
    and above by weighted combinations of a chi-square core, the nu-mass of
    the region where mu is tiny, and the tail of mu log(mu/nu). Ordering is
    guaranteed cell by cell.
    """
    if C < 2:
        raise DomainError(f"the bracket requires C >= 2, got {C}")
    if mu.grid != nu.grid:
        raise ConfigError("entropy_sandwich needs a shared grid")
    if (nu.values <= 0).any():
        raise DomainError("nu must be strictly positive on the grid")
    dx = mu.grid.dx
    m, v = mu.values, nu.values
    ratio = m / v

    low = ratio < 1.0 / C
    high = ratio > C
    mid = ~(low | high)

    chi2 = (m - v) ** 2 / v
    tail = _xlogy(m, np.where(m > 0, ratio, 1.0))

    lower = float((chi2[mid].sum() / (2 * C) + v[low].sum() / 8 + tail[high].sum() / 4) * dx)
    upper = float((chi2[mid].sum() * C / 2 + v[low].sum() + tail[high].sum()) * dx)
    phi_sum = tail + v - m  # nu * (r log r + 1 - r), the mass-corrected entropy
    middle = float(phi_sum.sum() * dx)
    if not (lower <= middle + 1e-12 and middle <= upper + 1e-12):
        raise KinexError(f"sandwich ordering violated: {lower}, {middle}, {upper}")
    return lower, middle, upper
