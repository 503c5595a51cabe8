"""Chebyshev inertial acceleration for fixed-point iterations."""

from . import core, errors, experiments, problems, spectral, traceio
from .core import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .traceio import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *spectral.__all__,
    *problems.__all__,
    *traceio.__all__,
    *experiments.__all__,
    *errors.__all__,
    "__version__",
]
