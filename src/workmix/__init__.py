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

``import workmix`` runs only :mod:`workmix.errors`.  Every other submodule
is registered in ``sys.modules`` and bound on the package unexecuted, and
runs on the first read of one of its attributes, so a process compiles only
the modules it uses.  The package's public names are each module's own
``__all__``, served on first read.
"""

from . import errors
from .errors import *

__version__ = "0.1.0"

# The modules whose public names the package re-exports, in ``__all__`` order.
_EXPORTERS = ("errors", "numerics", "aggregate", "replicator", "boundary", "lattice", "sweep")


def _register(name: str):
    """``workmix.<name>``, in ``sys.modules`` but not run until first read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


numerics, aggregate, replicator, boundary, lattice, sweep, svgplot = map(
    _register, (*_EXPORTERS[1:], "svgplot")
)
del _register


def __getattr__(name: str):
    """``__all__``, or a public name read from the module that exports it."""
    if name == "__all__":
        return ["__version__", *(n for m in _EXPORTERS for n in globals()[m].__all__)]
    for module_name in _EXPORTERS[1:]:
        module = globals()[module_name]
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    public = __getattr__("__all__")  # first, as running a module binds its imports here
    return sorted({*globals(), "__all__", *public})
