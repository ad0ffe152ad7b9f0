"""Transductive regression on a fixed sample with stability-driven bounds.

The toolkit covers the uniform-partition setting: a full sample of m+u
points is fixed, m of them are drawn uniformly without replacement as the
labeled set, and a hypothesis is scored on the remaining u points.  It
provides exact solvers for several graph and kernel regressors, closed-form
swap-stability coefficients with a matching lower-bound instance, the
concentration and generalization bounds built on them, and a CLI that runs
partitioned experiments reproducibly from a single seed.
"""

from . import errors, core, graph, bounds, regressors, stability
from .errors import *
from .core import *
from .graph import *
from .bounds import *
from .regressors import *
from .stability import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *core.__all__, *graph.__all__, *bounds.__all__,
           *regressors.__all__, *stability.__all__]
