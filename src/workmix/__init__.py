"""Deterministic models of how work splits between people and machines.

Four complementary views of the same question, from coarse to fine:

* :mod:`workmix.aggregate` — a single adoption/reversion recurrence for the
  economy-wide automated share.
* :mod:`workmix.replicator` — two task categories whose shares respond to
  payoff gaps that drift over calendar time.
* :mod:`workmix.boundary` — a continuum of tasks indexed by complexity,
  split by a moving indifference threshold under a Beta task-mass.
* :mod:`workmix.lattice` — a finite task set delegated by exact payoff
  comparison, iterated to a fixed point on the allocation lattice.

:mod:`workmix.sweep` scans the continuous model over task-mass shapes and
improvement rates; :mod:`workmix.cli` exposes everything as a command-line
tool with CSV and SVG output.
"""

from . import aggregate, boundary, errors, lattice, numerics, replicator, sweep
from .aggregate import *
from .boundary import *
from .errors import *
from .lattice import *
from .numerics import *
from .replicator import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *numerics.__all__,
    *aggregate.__all__,
    *replicator.__all__,
    *boundary.__all__,
    *lattice.__all__,
    *sweep.__all__,
]
