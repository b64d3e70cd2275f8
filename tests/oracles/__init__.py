"""Test-only oracles: slow reference evaluations and the models they check.

No CLI command runs anything in this package. This module holds slow
reference evaluations that cross-check the library's single paths: the
exact self-convolution q*q by a direct sum, the entropy dissipation D[q]
by literal sums over the pair grid on that exact q*q (with +inf read from
its exact zeros, where the library reads the support's hull), the spectral
gap ratio and the weighted-L2 norm by Gauss-Laguerre quadrature, and the
one-event reshuffle the particle kernel is checked against. Beside it:

- ``moments``: the closed moment hierarchy;
- ``spectral``: the Laguerre analysis of the linearized flow;
- ``kinetic2d``: the pair-density solver;
- ``entropy``: the paper's entropy inequalities on the grid;
- ``step``: the forward Euler step in its one-expression form.

Only small grids and spectra are fed to them.
"""

import math
import warnings

import numpy as np

from kinex import diagnostics as dg
from kinex.errors import ConfigError, DomainError, KinexError
from kinex.kinetic1d import Grid1D, GridDensity1D
from kinex.particle import WealthVector

from . import spectral as sp


def direct_self_convolution(v):
    """c_k = sum_i v_i v_{k-i} without BLAS, in one fixed summation order.

    The symmetric half sum c_k = 2 * sum_{i < k-i} v_i v_{k-i} + v_{k/2}^2,
    added shift by shift over the nonzero cells i in ascending order; a
    diagonal with no pair of nonzero cells stays exactly 0, and every other
    one is a sum of positive products, so it is positive.
    """
    m = v.size
    c = np.zeros(2 * m - 1)
    products = np.empty(m)
    for i in np.flatnonzero(v).tolist():
        row = np.multiply(v[i + 1 :], v[i], out=products[: m - i - 1])  # v_i v_j for j > i
        diagonals = c[2 * i + 1 : i + m]
        np.add(diagonals, row, out=diagonals)
    c *= 2.0
    c[::2] += v * v
    return c


def diagonal_average(q):
    """Exact average g_k of q (x) q over diagonal k and the in-range cell counts."""
    n = q.grid.n_cells
    counts = np.minimum(np.arange(2 * n - 1) + 1, 2 * n - 1 - np.arange(2 * n - 1))
    c = direct_self_convolution(q.values) * q.grid.dx
    return c / (counts * q.grid.dx), counts


def touches_positive_diagonal(v, g):
    """The index rule for D = +inf: some zero cell z has g > 0 on a diagonal in [z, z + M).

    The literal (zero cells) x M index matrix, as small grids afford it.
    """
    zero = np.flatnonzero(v == 0)
    return bool((g[zero[:, None] + np.arange(v.size)[None, :]] > 0).any())


def dissipation(q, method):
    """D[q] by the literal sums on the exact g, with +inf and sign checks of its own.

    "brute" is the triple sum over (diagonal, cell, cell), O(M^3);
    "decomposed" is the two-term split through the diagonal average g of
    q (x) q with literal 2-D sums, O(M^2); "decomposed3" splits its second
    term once more through the product h (x) h. D = +inf by the index rule
    on g's exact zeros.
    """
    g, counts = diagonal_average(q)
    if touches_positive_diagonal(q.values, g):
        warnings.warn("q vanishes where the gain is positive; D[q] = +inf", stacklevel=2)
        return math.inf
    value = _SUMS[method](q, g, counts)
    if value < -1e-9:
        raise KinexError(f"dissipation came out negative ({value}); integrand violated")
    return max(value, 0.0)


def _brute(q, g, counts):
    n, dx, v = q.grid.n_cells, q.grid.dx, q.values
    f = np.outer(v, v)
    i = np.arange(n)
    d = i[:, None] + i[None, :]
    total = 0.0
    logf = np.full_like(f, -np.inf)
    np.log(f, out=logf, where=f > 0)
    for k in range(2 * n - 1):
        cells = np.argwhere(d == k)
        fk = f[cells[:, 0], cells[:, 1]]
        lk = logf[cells[:, 0], cells[:, 1]]
        diff = fk[:, None] - fk[None, :]
        logs = np.where(np.isfinite(lk[:, None] - lk[None, :]), lk[:, None] - lk[None, :], 0.0)
        # (a - b) log(a/b) with a = b = 0 contributing 0
        both_zero = (fk[:, None] == 0) & (fk[None, :] == 0)
        term = np.where(both_zero, 0.0, diff * logs)
        total += term.sum() / (counts[k] * dx)
    return float(total * dx**3)


def _split_first_term(q, g):
    n, dx, v = q.grid.n_cells, q.grid.dx, q.values
    f = np.outer(v, v)
    i = np.arange(n)
    g2d = g[i[:, None] + i[None, :]]
    ratio_fg = np.divide(f, g2d, out=np.ones_like(f), where=f > 0)
    return f, g2d, 2.0 * float(dg._xlogy(f, ratio_fg).sum() * (dx * dx))


def _decomposed(q, g, counts):
    dx = q.grid.dx
    f, g2d, t1 = _split_first_term(q, g)
    ratio_gf = np.divide(g2d, f, out=np.ones_like(g2d), where=g2d > 0)
    t2 = 2.0 * float(dg._xlogy(g2d, ratio_gf).sum() * (dx * dx))
    return t1 + t2


def _decomposed3(q, g, counts):
    dx, v = q.grid.dx, q.values
    _, g2d, t1 = _split_first_term(q, g)
    h = g2d.sum(axis=1) * dx
    hh = np.outer(h, h)
    ratio_gh = np.divide(g2d, hh, out=np.ones_like(g2d), where=g2d > 0)
    t2 = 2.0 * float(dg._xlogy(g2d, ratio_gh).sum() * (dx * dx))
    ratio_hq = np.divide(h, v, out=np.ones_like(h), where=h > 0)
    t3 = 4.0 * float(dg._xlogy(h, ratio_hq).sum() * dx)
    return t1 + t2 + t3


_SUMS = {"brute": _brute, "decomposed": _decomposed, "decomposed3": _decomposed3}


def gap_ratio_quadrature(spectrum):
    """The gap ratio with both of its integrals evaluated by quadrature."""
    coeffs = spectrum.coefficients
    x, w = sp.quadrature_nodes()
    h = coeffs @ sp.laguerre_table(spectrum.n_max, x)
    antider = coeffs @ sp.laguerre_antiderivative_table(spectrum.n_max, x)
    return float(np.sum(w * h**2)) / float(np.sum(w * antider**2 / x))


def norm_weighted(h):
    """Weighted-L2 norm of a callable h by quadrature."""
    x, w = sp.quadrature_nodes()
    return float(np.sqrt(np.sum(w * np.asarray(h(x), dtype=float) ** 2)))


def exchange_step(state: WealthVector, i: int, j: int, u: float) -> WealthVector:
    """Apply one reshuffling event: agents i and j split their pool u : 1-u.

    Pure operation returning a new state; the pooled sum (hence the total)
    is conserved exactly because the second share is computed as the
    remainder.
    """
    if i == j:
        raise DomainError(f"exchange needs two distinct agents, got i = j = {i}")
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"the split fraction must lie in [0, 1], got {u}")
    n = state.n_agents
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"agent index out of range for N={n}")
    out = WealthVector(state.balances)
    pool = out.balances[i] + out.balances[j]
    out.balances[i] = u * pool
    out.balances[j] = pool - u * pool
    return out


def dirac_density(grid: Grid1D, x0: float) -> GridDensity1D:
    """One-hot cell approximation of a point mass at x0."""
    idx = int(x0 / grid.dx)
    if not 0 <= idx < grid.n_cells:
        raise ConfigError(f"x0={x0} outside the grid")
    values = np.zeros(grid.n_cells)
    values[idx] = 1.0 / grid.dx
    return GridDensity1D(grid, values)
