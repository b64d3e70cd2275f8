"""The forward Euler step of kinetic1d in its one-expression form, as a bit-for-bit reference.

Each function writes the step's float operations as plain expressions, with
a fresh array for every intermediate and no memo: the support's hull from
np.flatnonzero, the shells divided by a fresh np.arange, a reversed cumsum
and the update q + dt * (g - q) built through the public GridDensity1D
constructor. kinetic1d's step does the same operations in the same order
with fewer passes and temporaries, so the two must agree byte for byte.
"""

import numpy as np

from kinex.errors import DomainError
from kinex.kinetic1d import GridDensity1D, _check_dt


def fft_square(v: np.ndarray) -> np.ndarray:
    """The 2*len(v) - 1 values of the linear self-convolution of v, by one real FFT."""
    n = 2 * v.size - 1
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(v, nfft) ** 2, nfft)[:n]


def hull(v: np.ndarray) -> tuple[int, int, int]:
    """(first, last, count) of the nonzero cells of v; (0, -1, 0) when there are none."""
    nonzero = np.flatnonzero(v)
    if not nonzero.size:
        return 0, -1, 0
    return int(nonzero[0]), int(nonzero[-1]), int(nonzero.size)


def self_convolution(q: GridDensity1D) -> np.ndarray:
    v = q.values
    c = fft_square(v)
    nonzero = np.flatnonzero(v)
    if nonzero.size and nonzero[-1] - nonzero[0] + 1 == nonzero.size:
        c[: 2 * nonzero[0]] = 0.0
        c[2 * nonzero[-1] + 1 :] = 0.0
    else:
        c[np.rint(fft_square(v > 0)) == 0] = 0.0
    np.maximum(c, 0.0, out=c)
    c *= q.grid.dx
    return c


def gain(q: GridDensity1D) -> np.ndarray:
    if not 0.9 <= q.mass <= 1.1:
        raise DomainError(f"gain expects a (near-)probability density, mass={q.mass}")
    c = self_convolution(q)
    shells = c / np.arange(1, c.size + 1)
    tail = np.cumsum(shells[::-1])[::-1]
    return tail[: q.grid.n_cells].copy()


def step_euler(q: GridDensity1D, dt: float) -> GridDensity1D:
    _check_dt(dt)
    return GridDensity1D(q.grid, q.values + dt * (gain(q) - q.values))


def mean(q: GridDensity1D) -> float:
    """The discrete mean by the expression the density computed when it was built."""
    return float(np.sum(q.grid.nodes * q.values) * q.grid.dx)
