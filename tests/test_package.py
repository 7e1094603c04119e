"""Public names from the modules' own; what each process runs; the traced names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    submodules = {module.__name__.split(".")[1] for module in MODULES}
    assert {"__all__", *names, *submodules} <= set(dir(workmix))


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from workmix import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(workmix.__all__)
    assert namespace["reg_inc_beta"] is numerics.reg_inc_beta


def _fresh(code: str) -> list[str]:
    """What ``code`` prints, run in a fresh interpreter on this checkout's sources."""
    src = str(Path(workmix.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# Prints the workmix modules that have run.  A registered module that has not
# run is still a lazy module; reading any attribute of it would run it.
_PRINT_EXECUTED = (
    "import sys, types\n"
    "print(*sorted(name for name, module in sys.modules.items()\n"
    "              if name.split('.')[0] == 'workmix' and type(module) is types.ModuleType))\n"
)


def test_import_runs_only_errors():
    assert _fresh("import workmix\n" + _PRINT_EXECUTED) == ["workmix", "workmix.errors"]


_TABLE_LATTICE = {"family": "table", "thetas": [0.2, 0.4], "human_values": [1.0, 1.0],
                  "machine_rows": [[0.5, 2.0], [2.0, 2.0]]}


@pytest.mark.parametrize("argv,models", [
    (["scenario", "paper-aggregate"], ["aggregate"]),
    (["scenario", "paper-boundary"], ["_frozen", "boundary", "numerics"]),
    (["verify"], ["_frozen", "_goldens", "aggregate", "boundary", "numerics", "replicator",
                  "sweep"]),
    (["list-scenarios", "--expand"], ["_frozen", "aggregate", "boundary", "numerics",
                                      "replicator", "sweep"]),
    # A table lattice runs no Beta code, and CSV output no chart code.
    (["run", _TABLE_LATTICE], ["_frozen", "lattice"]),
    (["run", {"family": "linear", "n_tasks": 10}], ["_frozen", "boundary", "lattice",
                                                    "numerics"]),
], ids=["paper-aggregate", "paper-boundary", "verify", "list-scenarios-expand", "table-lattice",
        "linear-lattice"])
def test_a_command_runs_only_the_modules_it_uses(tmp_path, argv, models):
    if argv[0] == "run":  # a lattice config with these params
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "lattice", "params": argv[1]}))
        argv = ["run", str(config)]
    code = (
        "import contextlib, io\n"
        "from workmix.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    ) + _PRINT_EXECUTED
    every_command = ["workmix", "workmix._argv", "workmix._calendar", "workmix.cli",
                     "workmix.errors"]
    assert _fresh(code) == sorted(every_command + [f"workmix.{name}" for name in models])


@pytest.mark.parametrize("argv", [
    ["scenario", "paper-aggregate"], ["scenario", "paper-boundary", "--format", "svg"],
    ["run", "{config}", "--precision=3"], ["verify"], ["list-scenarios", "--expand"],
    ["--help"], ["scenario", "--help"], ["frobnicate"], ["scenario", "paper-aggregate", "--bogus"],
], ids=["paper-aggregate", "paper-boundary-svg", "run", "verify", "list-scenarios-expand",
        "help", "scenario-help", "bad-command", "unknown-flag"])
def test_no_command_imports_argparse(tmp_path, argv):
    # Reading argv takes no argparse, so neither its gettext nor locale.
    config = tmp_path / "config.json"
    config.write_text('{"model": "aggregate", "scenario": "paper-aggregate"}')
    argv = [str(config) if word == "{config}" else word for word in argv]
    code = (
        "import contextlib, io, sys\n"
        "from workmix.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print(*sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    assert _fresh(code) == []


def test_no_module_uses_typing_namedtuple():
    # A typing.NamedTuple class takes about three times as long to create as a
    # collections.namedtuple one, in every process that runs its module.
    found = []
    for path in sorted(Path(workmix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module == "typing"
                    and any(alias.name == "NamedTuple" for alias in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "NamedTuple"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


def test_cli_import_registers_every_traced_module():
    # The benchmark's tracer reads each traced module from sys.modules when it
    # installs, before anything has run it.
    traced = sorted({module_name for module_name, _ in _tracing_tables()["TRACED"]})
    code = f"import sys, workmix.cli\nprint(*[n for n in {traced!r} if n not in sys.modules])"
    assert _fresh(code) == []


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
