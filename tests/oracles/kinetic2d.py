"""Pairwise linear dynamics df/dt = L+[f] - f on a square grid.

L+ replaces f along each anti-diagonal x + y = const by its average, so
discretely it is an exact projection: the diagonals of the midpoint grid
are the index sets {(i, k - i)} and the average uses the count of in-range
cells. That convention makes idempotence, per-diagonal mass conservation
and the invariance of the diagonal profile exact statements rather than
approximate ones. Boundary diagonals with x + y > x_max are clipped by the
truncation and are excluded from the conservation assertions.

This module is a validator, not a production solver: grids are capped at
512 x 512.
"""

from __future__ import annotations

import numpy as np

from kinex.errors import ConfigError, DataError, DomainError
from kinex.kinetic1d import Grid1D, GridDensity1D

MAX_CELLS = 512


class PairDensityGrid:
    """Nonnegative density f(x, y) on the square of a shared 1-D grid."""

    def __init__(self, grid: Grid1D, values: np.ndarray):
        if grid.n_cells > MAX_CELLS:
            raise ConfigError(f"2-D grids capped at {MAX_CELLS} cells per axis")
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells, grid.n_cells):
            raise DataError(f"expected square {grid.n_cells}^2 array, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("pair density must be finite")
        if values.min() < -1e-14:
            raise DomainError(f"negative pair density {values.min()}")
        self.grid = grid
        self.values = np.where(values < 0, 0.0, values)
        self.values.setflags(write=False)
        self.mass = float(values.sum() * grid.dx**2)

    @classmethod
    def product(cls, q: GridDensity1D) -> "PairDensityGrid":
        """Independent pair f = q (x) q."""
        return cls(q.grid, np.outer(q.values, q.values))

    def entropy(self) -> float:
        """Plain entropy integral of f log f (0 log 0 = 0)."""
        v = self.values
        mask = v > 0
        return float(np.sum(v[mask] * np.log(v[mask])) * self.grid.dx**2)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2) * self.grid.dx**2))


def _diag_index(n: int) -> np.ndarray:
    i = np.arange(n)
    return i[:, None] + i[None, :]


def _diag_counts(n: int) -> np.ndarray:
    k = np.arange(2 * n - 1)
    return np.minimum(k + 1, 2 * n - 1 - k)


class DiagonalProfile:
    """Averages of a pair density along the lines x + y = lambda.

    values[k] is the mean of f over the in-range cells of diagonal k, whose
    midline is lambda = (k + 1) dx. For full diagonals (lambda <= x_max)
    this equals (1/lambda) * integral of f along the line, the conserved
    profile of the linear flow.
    """

    def __init__(self, f: PairDensityGrid):
        n = f.grid.n_cells
        d = _diag_index(n).ravel()
        sums = np.bincount(d, weights=f.values.ravel(), minlength=2 * n - 1)
        self.values = sums / _diag_counts(n)
        self.n_cells = n

    def interior(self) -> np.ndarray:
        """Values on the uncontaminated diagonals (lambda <= x_max)."""
        return self.values[: self.n_cells]


def lplus(f: PairDensityGrid) -> PairDensityGrid:
    """Projection onto anti-diagonal-constant functions (idempotent)."""
    profile = DiagonalProfile(f)
    return PairDensityGrid(f.grid, profile.values[_diag_index(f.grid.n_cells)])


def step2d(f: PairDensityGrid, dt: float) -> PairDensityGrid:
    """One forward Euler step f + dt (L+[f] - f); a convex mix for dt <= 1."""
    if not 0 < dt <= 1:
        raise ConfigError(f"dt must be in (0, 1], got {dt}")
    return PairDensityGrid(f.grid, (1.0 - dt) * f.values + dt * lplus(f).values)


def marginalize_gain(q: GridDensity1D) -> GridDensity1D:
    """Integrate L+[q (x) q] over the second variable.

    Algebraically identical to the 1-D gain operator; computed through the
    2-D machinery as a consistency bridge between the two formulations.
    Matches kinetic1d.gain exactly on full diagonals (the clipped corner
    diagonals carry the truncation tail).
    """
    f = PairDensityGrid.product(q)
    lp = lplus(f)
    return GridDensity1D(q.grid, lp.values.sum(axis=1) * q.grid.dx)


def micro_reversibility_check(phi: np.ndarray, psi: np.ndarray, grid: Grid1D) -> tuple[float, float]:
    """Both orderings of the weak-form pairing of the collision kernel.

    Returns (<phi, K psi>, <psi, K phi>) where K psi averages psi over the
    anti-diagonal through each point. Kernel symmetry makes the two sides
    equal; they are computed independently so the agreement is a real check.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = grid.n_cells
    if phi.shape != (n, n) or psi.shape != (n, n):
        raise DataError("test functions must live on the square grid")
    d = _diag_index(n)
    counts = _diag_counts(n)
    k_psi = (np.bincount(d.ravel(), weights=psi.ravel(), minlength=2 * n - 1) / counts)[d]
    k_phi = (np.bincount(d.ravel(), weights=phi.ravel(), minlength=2 * n - 1) / counts)[d]
    side_phi_psi = float(np.sum(phi * k_psi) * grid.dx**2)
    side_psi_phi = float(np.sum(psi * k_phi) * grid.dx**2)
    return side_phi_psi, side_psi_phi

