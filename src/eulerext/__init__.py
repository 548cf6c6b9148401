"""Eulerian extensions of inhomogeneous random graphs.

Sample graphs with per-pair edge probabilities, make them Eulerian by
adding few complement edges via a three-phase procedure, cross-check
small cases against an exact oracle, evaluate the associated
concentration bounds, and run reproducible Monte Carlo batches.
"""

from . import bounds, experiment, extension, graph, models, oracle
from .graph import *
from .models import *
from .extension import *
from .oracle import *
from .bounds import *
from .experiment import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (graph, models, extension, oracle, bounds, experiment)
    for name in module.__all__
]
