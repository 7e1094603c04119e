"""The package's public names: one list, built from the modules' own."""

import workmix
from workmix import (
    aggregate,
    boundary,
    errors,
    lattice,
    numerics,
    replicator,
    sweep,
)

MODULES = (errors, numerics, aggregate, replicator, boundary, lattice, sweep)


def test_public_names_come_once_from_the_modules():
    names = workmix.__all__
    assert len(names) == len(set(names))
    module_names = set().union(*(module.__all__ for module in MODULES))
    assert set(names) == {"__version__"} | module_names
    for name in names:
        assert hasattr(workmix, name), name
