"""Stochastic compositional optimization lab.

Implements the SCGD and SCSC two-timescale optimizers for nested
objectives of the form ``mean_i f_i(mean_j g_j(x))`` on a ball-
constrained domain, together with exact synthetic benchmarks, certified
minimizer oracles, closed-form reference bounds, coupled stability
measurement, and reproducible Monte Carlo studies.  The package exports
the ``__all__`` of each module below; ``cli`` and ``reporting`` load
only when imported.
"""

from . import core, experiments, optimizer, oracle, problems, stability
from .core import *
from .experiments import *
from .optimizer import *
from .oracle import *
from .problems import *
from .stability import *

__all__ = (core.__all__ + experiments.__all__ + optimizer.__all__ + oracle.__all__
           + problems.__all__ + stability.__all__)

__version__ = "0.1.0"
