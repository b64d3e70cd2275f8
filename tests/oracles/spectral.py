"""Laguerre-basis machinery for the dynamics linearized at the exponential state.

Everything here fixes the mean to 1, so the weight is exp(-x) and the
Laguerre polynomials L_n are an orthonormal basis of the weighted L^2
space. Perturbations h of the equilibrium that conserve mass and mean have
no L_0 or L_1 component; on that admissible subspace the linearized
collision operator acts diagonally with eigenvalue -(n-1)/(n+1), a fact
this module does not take on faith: evolve_linearized() is gated by a
quadrature of the operator's integral definition that must certify the
off-diagonal entries vanish (see operator_matrix / diagonal_action_gate),
and refuses to run if they do not.

All spectral integrals share one Gauss-Laguerre node table of
QUADRATURE_NODES points. The gap ratio is evaluated in its closed
coefficient form; the quadrature form that cross-checks it lives in
the package's __init__.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from kinex.errors import DomainError, KinexError

MAX_DEGREE = 200
DEFAULT_N_MAX = 64
QUADRATURE_NODES = 128

# Admissibility gate for the diagonal fast path of evolve_linearized; the
# quadrature check must beat this before the closed-form rates are trusted.
GATE_DEGREE = 8
GATE_OFFDIAG_TOL = 1e-8


@lru_cache(maxsize=1)
def quadrature_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Shared Gauss-Laguerre nodes and weights for integrals against exp(-x)."""
    x, w = np.polynomial.laguerre.laggauss(QUADRATURE_NODES)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def laguerre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Rows L_0(x) .. L_{n_max}(x), evaluated in one stable recurrence sweep."""
    if n_max < 0:
        raise DomainError(f"degree must be nonnegative, got {n_max}")
    if n_max > MAX_DEGREE:
        raise DomainError(f"degree capped at {MAX_DEGREE}, got {n_max}")
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1, x.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = 1.0 - x
    for k in range(1, n_max):
        table[k + 1] = ((2 * k + 1 - x) * table[k] - k * table[k - 1]) / (k + 1)
    return table


def laguerre_antiderivative_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Rows of H_n(x) = integral of L_n over [0, x], i.e. L_n - L_{n+1}."""
    table = laguerre_table(n_max + 1, x)
    return table[:-1] - table[1:]


class LaguerreSpectrum:
    """Coefficients of a perturbation in the orthonormal Laguerre basis."""

    def __init__(self, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim != 1 or coefficients.size < 3:
            raise DomainError("spectrum needs at least coefficients alpha_0..alpha_2")
        self.coefficients = coefficients

    @classmethod
    def single_mode(cls, n: int) -> "LaguerreSpectrum":
        """The unit-norm spectrum of L_n alone."""
        coeffs = np.zeros(max(n + 1, 3))
        coeffs[n] = 1.0
        return cls(coeffs)

    @property
    def n_max(self) -> int:
        return self.coefficients.size - 1

    def is_admissible(self) -> bool:
        """Orthogonal to span{1, x}: no alpha_0 or alpha_1 component."""
        return self.coefficients[0] == 0 and self.coefficients[1] == 0

    def norm(self) -> float:
        """Weighted-L2 norm via Parseval."""
        return float(np.sqrt(np.sum(self.coefficients**2)))


def mode_rate(n) -> np.ndarray:
    """Decay rate (n-1)/(n+1) of the n-th Laguerre mode."""
    n = np.asarray(n, dtype=float)
    return (n - 1.0) / (n + 1.0)


def gap_ratio(spectrum: LaguerreSpectrum) -> float:
    """Rayleigh-type ratio whose infimum over admissible h is 3.

    Ratio of the weighted-L2 norm squared of h to the integral of
    exp(-z)/z times the squared antiderivative of h, evaluated in the
    closed coefficient form sum(a_n^2) / sum(a_n^2/(n+1)).
    """
    coeffs = spectrum.coefficients
    if not spectrum.is_admissible():
        raise DomainError("gap_ratio needs alpha_0 = alpha_1 = 0")
    total = float(np.sum(coeffs**2))
    if total == 0.0:
        raise DomainError("gap_ratio undefined for the zero spectrum")
    n = np.arange(coeffs.size)
    return total / float(np.sum(coeffs**2 / (n + 1)))


# ---------------------------------------------------------------------------
# operator matrix via its integral definition (the anti-hallucination gate)
# ---------------------------------------------------------------------------


def operator_matrix() -> np.ndarray:
    """Matrix elements <L_m, A[L_n]>, 2 <= m, n <= GATE_DEGREE, of the linearized operator.

    Computed by nested quadrature of the operator's integral action on each
    basis polynomial (never using the claimed diagonal form):

        A[h](x) = 2 e^x I(x) - h(x) - <h, 1>,
        I(x) = integral over s >= x of e^{-s} H(s) / s,  H(s) = int_0^s h.

    The inner tail integral is evaluated with the shifted Gauss-Laguerre
    rule, which is exact because H(s)/s is again a polynomial.
    """
    x, w = quadrature_nodes()
    degrees = np.arange(2, GATE_DEGREE + 1)
    table = laguerre_table(GATE_DEGREE, x)

    # inner tail integrals I_n(x_j) = e^{-x_j} sum_i w_i H_n(x_j + u_i)/(x_j + u_i)
    shifted = x[:, None] + x[None, :]  # (outer node j, inner node i)
    Hn_shifted = laguerre_antiderivative_table(GATE_DEGREE, shifted.ravel())
    Hn_shifted = Hn_shifted.reshape(GATE_DEGREE + 1, *shifted.shape)
    inner = np.einsum("i,nji->nj", w, Hn_shifted / shifted[None, :, :])

    mean_component = table @ w  # <L_n, 1> in the weighted space
    matrix = np.empty((degrees.size, degrees.size))
    for col, n in enumerate(degrees):
        action = 2.0 * inner[n] - table[n] - mean_component[n]
        matrix[:, col] = (table[degrees] * w) @ action
    return matrix


@lru_cache(maxsize=1)
def diagonal_action_gate() -> bool:
    """Certify the operator is diagonal in the Laguerre basis (n, m <= 8).

    Returns True when every off-diagonal matrix element is below
    GATE_OFFDIAG_TOL and the diagonal matches -(n-1)/(n+1) to 1e-6.
    evolve_linearized consults this once per process.
    """
    matrix = operator_matrix()
    degrees = np.arange(2, GATE_DEGREE + 1)
    expected = np.diag(-mode_rate(degrees))
    off = matrix - np.diag(np.diag(matrix))
    return bool(
        np.max(np.abs(off)) < GATE_OFFDIAG_TOL
        and np.max(np.abs(np.diag(matrix) - np.diag(expected))) < 1e-6
    )


def evolve_linearized(spectrum: LaguerreSpectrum, t: float) -> LaguerreSpectrum:
    """Propagate an admissible perturbation for time t under the linear flow.

    Each mode decays as exp(-t (n-1)/(n+1)), trusted only once
    diagonal_action_gate() passes; a failed gate is a KinexError. The norm
    never increases and is bounded by the exp(-t/3) envelope.
    """
    if not spectrum.is_admissible():
        raise DomainError("evolve_linearized needs alpha_0 = alpha_1 = 0")
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if not diagonal_action_gate():
        raise KinexError(
            "diagonal action gate failed: the quadrature operator matrix is not diagonal "
            "with entries -(n-1)/(n+1), so the mode-wise decay rates are not certified"
        )
    coeffs = spectrum.coefficients
    n = np.arange(coeffs.size)
    return LaguerreSpectrum(coeffs * np.exp(-mode_rate(n) * t))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def project_function(h, n_max: int = DEFAULT_N_MAX) -> LaguerreSpectrum:
    """Laguerre coefficients of a callable h in the weighted space."""
    x, w = quadrature_nodes()
    hx = np.asarray(h(x), dtype=float)
    return LaguerreSpectrum(laguerre_table(n_max, x) @ (w * hx))


def project_perturbation(q, n_max: int = DEFAULT_N_MAX) -> LaguerreSpectrum:
    """Spectrum of the relative perturbation (q - q_inf)/q_inf of a grid density.

    Requires mean(q) = 1 to 1e-6 (the module fixes m1 = 1). The grid values
    are linearly interpolated at the quadrature nodes and treated as zero
    beyond the grid. Conservation makes alpha_0 and alpha_1 vanish up to
    discretization; they are zeroed, with a warning if they exceed 1e-6.
    """
    if abs(q.mean - 1.0) > 1e-6:
        raise DomainError(f"project_perturbation needs mean 1 +- 1e-6, got {q.mean}")

    def relative(x):
        return np.interp(x, q.grid.nodes, q.values, left=q.values[0], right=0.0) * np.exp(x) - 1.0

    coeffs = project_function(relative, n_max).coefficients
    if max(abs(coeffs[0]), abs(coeffs[1])) > 1e-6:
        warnings.warn(
            f"projected perturbation has conserved-mode residue "
            f"alpha_0={coeffs[0]:.2e}, alpha_1={coeffs[1]:.2e}; zeroing",
            stacklevel=2,
        )
    coeffs[0] = 0.0
    coeffs[1] = 0.0
    return LaguerreSpectrum(coeffs)
