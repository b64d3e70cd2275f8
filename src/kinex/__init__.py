"""kinex: a laboratory for the uniform money-reshuffling dynamics.

Stochastic N-agent simulation (particle), the mean-field equation solver
(kinetic1d), scalar convergence diagnostics (diagnostics), and scripted
end-to-end studies (experiments) behind one CLI (cli). The package holds
only what the CLI runs; the moment hierarchy, the Laguerre analysis and
the pair-density solver are test oracles in tests/oracles/.
"""

from .errors import ConfigError, DataError, DomainError, KinexError, StabilityError
from .kinetic1d import Equilibrium, Grid1D, GridDensity1D, gain, solve, step_euler

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DomainError",
    "Equilibrium",
    "Grid1D",
    "GridDensity1D",
    "KinexError",
    "StabilityError",
    "gain",
    "solve",
    "step_euler",
    "__version__",
]
