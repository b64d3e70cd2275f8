"""Test-only oracles: slow reference evaluations and the models they check.

No CLI command runs anything in this package. This module holds slow
reference evaluations that cross-check the library's single paths: the
entropy dissipation D[q] by literal sums over the pair grid, the spectral
gap ratio and the weighted-L2 norm by Gauss-Laguerre quadrature, and the
one-event reshuffle the particle kernel is checked against. Beside it:

- ``moments``: the closed moment hierarchy;
- ``spectral``: the Laguerre analysis of the linearized flow;
- ``kinetic2d``: the pair-density solver;
- ``entropy``: the paper's entropy inequalities on the grid.

Only small grids and spectra are fed to them.
"""

import numpy as np

from kinex import diagnostics as dg
from kinex.errors import ConfigError, DomainError
from kinex.kinetic1d import Grid1D, GridDensity1D
from kinex.particle import WealthVector

from . import spectral as sp


def dissipation(q, method):
    """D[q] by the literal sums, behind the library's +inf and sign checks.

    "brute" is the triple sum over (diagonal, cell, cell), O(M^3);
    "decomposed" is the two-term split through the diagonal average g of
    q (x) q with literal 2-D sums, O(M^2); "decomposed3" splits its second
    term once more through the product h (x) h.
    """
    return dg._checked_dissipation(q, _SUMS[method])


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
