"""roughflow: rough-path numerics for fractional Brownian drivers.

Modules
-------
fbm         exact fBm sampling and covariance
increments  k-increments, the delta operator, Hoelder norms, sewing map
signature   exact piecewise-linear signatures, Chen identity, Levy area
controlled  rough drivers, controlled paths, second-order RDE scheme
liefields   exact polynomial vector fields, brackets, hypothesis checks
strichartz  nilpotent flow representation (permutation functionals, exp flow)
flows       Jacobian flows, Malliavin-derivative flows
norris      fourth-variation statistics, Hermite moments, dichotomy probe
densitylab  worked 3-d example system and Monte-Carlo density probes
cli         experiment runner with deterministic artifacts
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ConvergenceError,
    DomainError,
    FactorizationError,
    PreconditionError,
    RoughflowError,
    ValidationError,
)
from .fbm import HurstParam, SamplePath, TimeGrid, covariance, sample_fbm

__all__ = [
    "__version__",
    "BlowUpError",
    "ConvergenceError",
    "DomainError",
    "FactorizationError",
    "PreconditionError",
    "RoughflowError",
    "ValidationError",
    "HurstParam",
    "SamplePath",
    "TimeGrid",
    "covariance",
    "sample_fbm",
]
