"""The package's public names, built from the modules' own, and the traced names."""

import ast
import importlib
from pathlib import Path

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


def _tracing_tables() -> dict:
    """The literal TRACED tables of bench/tracing.py, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tables = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRACED", "TRACED_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_resolves():
    tables = _tracing_tables()
    assert tables["TRACED"] and tables["TRACED_METHODS"]
    for module_name, attr in tables["TRACED"]:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    for module_name, cls_name, attr in tables["TRACED_METHODS"]:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{module_name}.{cls_name}.{attr}"
