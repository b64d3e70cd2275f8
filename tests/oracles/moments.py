"""Closed moment hierarchy of the reshuffling equation.

The k-th moment obeys m_k' = sum_{j<=k} C(k,j) m_j m_{k-j} / (k+1) - m_k,
a triangular ODE system: m_k' involves only moments of order <= k. Mass and
mean are conserved; every higher moment relaxes exponentially toward the
exponential-distribution value k! * m1^k. This module integrates the system
with RK4 and serves as the oracle the particle and PDE modules are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinex.errors import ConfigError, DomainError

# Binomials overflow the double mantissa well before k = 60; cap the order
# where the quadratic sums are still exactly representable.
MAX_ORDER = 20


class MomentVector:
    """Moments m_0..m_K of a nonnegative measure (m_0 first)."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise DomainError("moment vector must be a nonempty 1-D array")
        if values.size - 1 > MAX_ORDER:
            raise ConfigError(f"moment order capped at {MAX_ORDER} (binomial overflow)")
        self.values = values
        self.order = values.size - 1

    @classmethod
    def of_dirac(cls, x0: float, order: int) -> "MomentVector":
        return cls([x0**k for k in range(order + 1)])

    @classmethod
    def of_equilibrium(cls, m1: float, order: int) -> "MomentVector":
        return cls([math.factorial(k) * m1**k for k in range(order + 1)])

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def _binomial_rows(order: int) -> list[np.ndarray]:
    return [np.array([math.comb(k, j) for j in range(k + 1)], dtype=float) for k in range(order + 1)]


def moment_rhs(m: MomentVector | np.ndarray) -> np.ndarray:
    """Time derivative of (m_0, ..., m_K).

    For a probability input (m_0 = 1) the first two components vanish:
    total mass and mean are conserved.
    """
    values = m.values if isinstance(m, MomentVector) else np.asarray(m, dtype=float)
    if values[0] <= 0:
        raise DomainError("m_0 must be positive")
    order = values.size - 1
    rows = _binomial_rows(order)
    out = np.empty_like(values)
    for k in range(order + 1):
        conv = float(np.dot(rows[k] * values[: k + 1], values[k::-1]))
        out[k] = conv / (k + 1) - values[k]
    return out


@dataclass
class MomentSeries:
    times: np.ndarray
    values: np.ndarray  # shape (n_times, order + 1)

    def component(self, k: int) -> np.ndarray:
        return self.values[:, k]


def integrate_moments(m0: MomentVector, t_final: float, dt: float = 0.01) -> MomentSeries:
    """RK4 integration of the closed triangular system from m0 to t_final.

    The stiffest retained rate is (K-1)/(K+1) < 1, so the default dt
    resolves every mode comfortably; RK4 keeps this module trustworthy as
    an oracle (errors ~ dt^4).
    """
    if not 0 < dt <= 0.1:
        raise ConfigError(f"dt must be in (0, 0.1], got {dt}")
    n_steps = max(1, int(round(t_final / dt)))
    y = m0.values.copy()
    times = np.arange(n_steps + 1) * dt
    out = np.empty((n_steps + 1, y.size))
    out[0] = y
    for i in range(1, n_steps + 1):
        k1 = moment_rhs(y)
        k2 = moment_rhs(y + 0.5 * dt * k1)
        k3 = moment_rhs(y + 0.5 * dt * k2)
        k4 = moment_rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = y
    return MomentSeries(times, out)


def m2_closed_form(t, m1: float, m2_initial: float):
    """Second moment along the flow: 2 m1^2 + (m2(0) - 2 m1^2) exp(-t/3)."""
    t = np.asarray(t, dtype=float)
    star = 2.0 * m1**2
    return star + (m2_initial - star) * np.exp(-t / 3.0)


def relaxation_rate(k: int) -> float:
    """Exponential rate (k-1)/(k+1) of the order-k mode."""
    if k < 2:
        return 0.0
    return (k - 1) / (k + 1)
