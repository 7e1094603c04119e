"""Command-line front end: JSON scenario configs, CSV/SVG emission, goldens.

The commands, their arguments and their help lines are one table,
``_COMMANDS``, against which ``workmix._argv`` reads argv.  Exit codes: 0
success, 1 configuration/validation problem, 2 runtime failure.  Data goes to
stdout or ``--out``; diagnostics go to stderr.  All output is deterministic:
identical inputs produce identical bytes.

Everything the CLI knows about a model (its params schema, how to build and
run it, its CSV rows, its charts and its builtin scenario) lives in one
``_ModelSpec``; the functions below look the spec up by model name.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

# Nothing below reads a model attribute at import: each model module runs on
# its first read (see ``workmix/__init__.py``), so a command compiles only the
# models it uses.
from . import aggregate as agg
from . import boundary as bnd
from . import lattice as lat
from . import numerics
from . import replicator as rep
from . import sweep as swp
from . import svgplot
from ._calendar import HORIZON_YEARS, START_YEAR
from .errors import (
    ChartError,
    ComputationError,
    InputError,
    ParseError,
    ValidationError,
)

__all__ = [
    "OutputSpec",
    "ScenarioConfig",
    "RunResult",
    "load_config",
    "builtin_scenario",
    "scenario_names",
    "run_config",
    "emit_csv",
    "emit_svg",
    "verify_goldens",
    "main",
]

# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------

OutputSpec = namedtuple("OutputSpec", "format path precision", defaults=("csv", None, 6))
OutputSpec.__doc__ = "Where and how results are written."


class ScenarioConfig(namedtuple("ScenarioConfig", "model params output",
                                defaults=(OutputSpec(),))):
    """A validated scenario: model name, canonical params, output options.

    ``params`` is stored in canonical JSON-able form with every default
    filled in, so two configs describing the same run compare equal no
    matter how sparsely they were written.
    """

    __slots__ = ()

    def build(self) -> object:
        """Construct the typed parameter object for this model."""
        return _SPECS[self.model].build(self.params)


RunResult = namedtuple("RunResult", "model data config", defaults=(None,))
RunResult.__doc__ = "Computed output of one scenario, tagged with its model."


# ---------------------------------------------------------------------------
# Params schemas
# ---------------------------------------------------------------------------

_REQUIRED = object()


# One params key.  ``kind`` is a checker ``(value, label) -> value`` or, for a
# nested object, a tuple of keys.  ``minimum`` and ``maximum`` bound a number;
# ``maximum`` bounds a list's length.  ``attr`` is the key's attribute path on
# the model's typed object where it differs from the name; builtins are read
# from the ``DEFAULT_*`` objects through it.
_Key = namedtuple("_Key", "name kind default minimum maximum attr",
                  defaults=(_REQUIRED, None, None, None))


def _unchecked(value: object, label: str) -> object:
    return value


def _as_number(value: object, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{label} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{label} must be a finite number, got {value!r}")
    return _in_double_range(value, label)


def _as_int(value: object, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    return _in_double_range(value, label)


def _in_double_range(value: object, label: str) -> object:
    """Refuse, by name, an integer that a conversion to float would overflow."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValidationError(
            f"{label} must lie within the range of a double, "
            f"got an integer of {len(str(abs(value)))} digits"
        )
    return value


def _as_shape(value: object, label: str) -> float:
    """A Beta shape parameter, refused by name outside ``BetaShape``'s range."""
    value = _as_number(value, label)
    if value > 0:  # BetaShape and GridSpec refuse a value <= 0 in their own words
        numerics.check_tested_shape(value, label)
    return value


def _as_number_list(value: object, label: str, item: Callable = _as_number) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{label} must be a non-empty list of numbers")
    return [item(v, f"{label}[{i}]") for i, v in enumerate(value)]


def _as_shape_list(value: object, label: str) -> list:
    return _as_number_list(value, label, _as_shape)


def _as_rows(value: object, label: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{label} must be a non-empty list of rows")
    return [_as_number_list(row, f"{label}[{i}]") for i, row in enumerate(value)]


def _check(block: object, where: str, keys: tuple[_Key, ...], prefix: str = "") -> dict:
    """Strictly check ``block`` against ``keys``; return the merged dict.

    Every unknown key is an error, named, and so is every missing required
    key.  Defaults fill the rest; then each value passes its kind and its
    bounds.  Key errors name the block (``where``); value errors name the
    key, after ``prefix``.
    """
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object, got {type(block).__name__}")
    names = {key.name for key in keys}
    for name in block:
        if name not in names:
            raise ValidationError(f"unknown key {name!r} in {where}")
    for key in keys:
        if key.default is _REQUIRED and key.name not in block:
            raise ValidationError(f"missing required key {key.name!r} in {where}")
    checked = {}
    for key in keys:
        value = block.get(key.name, key.default)
        label = prefix + key.name
        if isinstance(key.kind, tuple):
            inner = f"{where}.{key.name}"
            value = _check(value, inner, key.kind, inner + ".")
        else:
            value = key.kind(value, label)
        if key.minimum is not None and value < key.minimum:
            raise ValidationError(f"{label} must be >= {key.minimum}, got {value}")
        if key.maximum is not None:
            if isinstance(value, list) and len(value) > key.maximum:
                raise ValidationError(
                    f"{label} must have at most {key.maximum} entries, got {len(value)}"
                )
            if not isinstance(value, list) and value > key.maximum:
                raise ValidationError(f"{label} must be <= {key.maximum}, got {value}")
        checked[key.name] = value
    return checked


def _read(obj: object, keys: tuple[_Key, ...]) -> dict:
    """Canonical params of a typed object, read through ``keys``."""
    params = {}
    for key in keys:
        value = obj
        for attr in (key.attr or key.name).split("."):
            value = getattr(value, attr, key.default)
        if isinstance(key.kind, tuple):
            value = _read(value, key.kind)
        elif isinstance(value, tuple):
            value = list(value)
        params[key.name] = value
    return params


def _keys(kind: object, *required: str, **optional: object) -> tuple[_Key, ...]:
    """Keys of one kind: the required ones by name, then the optional ones."""
    return tuple(_Key(name, kind) for name in required) + tuple(
        _Key(name, kind, default) for name, default in optional.items()
    )


# Size caps, which bound the time and memory of a run.  A lattice keeps one
# count per year and each task id once; the caps bound the scan, which
# compares every task every year: 10,000 tasks (of any family) over 1000 years.
_MAX_YEARS = 1000
_MAX_TASKS = 10_000
_MAX_SWEEP_CELLS = 10_000

_START_YEAR = _Key("start_year", _as_int, START_YEAR)
_HORIZON = (_START_YEAR, _Key("horizon_years", _as_int, HORIZON_YEARS,
                              minimum=1, maximum=_MAX_YEARS))
_CATEGORY = _keys(_as_number, "x0", "machine_intercept", "machine_growth", "human_payoff")

# Each lattice family: its keys, which sit between ``family`` and the stop
# rule, and the universe it builds from canonical params.  The Beta families
# default to the paper's calibrated boundary model on 1,000 tasks.
_FAMILIES = {
    "linear": (
        lambda: _beta_keys("alpha_m", "beta_m", "gamma"),
        lambda p: lat.linear_universe(
            _thetas(p), p["alpha_h"], p["beta_h"], p["alpha_m"], p["beta_m"], p["gamma"]
        ),
    ),
    "saturating": (
        lambda: (*_keys(_as_number, "limit_intercept", "limit_slope"), *_beta_keys()),
        lambda p: lat.saturating_universe(
            _thetas(p), lat.Line(p["alpha_h"], p["beta_h"]),
            lat.Line(p["limit_intercept"], -p["limit_slope"]),
        ),
    ),
    "table": (
        lambda: (
            _Key("thetas", _as_number_list, maximum=_MAX_TASKS),
            _Key("human_values", _as_number_list, maximum=_MAX_TASKS),
            _Key("machine_rows", _as_rows, maximum=_MAX_YEARS),
        ),
        lambda p: lat.table_universe(p["thetas"], p["human_values"], p["machine_rows"]),
    ),
}


def _beta_keys(*line: str) -> tuple[_Key, ...]:
    """n_tasks, the Beta shape, the human line, then ``line``'s coefficients."""
    calibration = bnd.DEFAULT_BOUNDARY
    return (
        _Key("n_tasks", _as_int, 1000, minimum=1, maximum=_MAX_TASKS),
        *_keys(_as_shape, p=calibration.shape.p, q=calibration.shape.q),
        *_keys(_as_number, **{name: getattr(calibration, name)
                              for name in ("alpha_h", "beta_h", *line)}),
    )


def _thetas(p: dict) -> Sequence[float]:
    return lat.beta_quantile_thetas(p["n_tasks"], numerics.BetaShape(p["p"], p["q"]))


def _lattice_keys(params: object) -> tuple[_Key, ...]:
    """The keys of a lattice block's family: ``family`` first, the stop rule last.

    The block and its family are checked before any other key.  A universe's
    own invariants (a negative saturating limit, duplicate or misshapen table
    data, gamma <= 0) surface when run_config builds it, with exit 1.
    """
    if not isinstance(params, dict):
        raise ValidationError("lattice params must be an object")
    family = params.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:  # a list family is unhashable
        *first, last = map(repr, _FAMILIES)
        raise ValidationError(
            f"lattice params require family {', '.join(first)}, or {last}, got {family!r}"
        )
    return _family_keys(family)


@functools.cache
def _family_keys(family: str) -> tuple[_Key, ...]:
    return (
        _Key("family", _unchecked),
        *_FAMILIES[family][0](),
        _Key("max_years", _as_int, 60, minimum=1, maximum=_MAX_YEARS),
        _Key("stability_window", _as_int, lat.DEFAULT_STABILITY_WINDOW, minimum=1),
    )


def _sweep_keys(params: object) -> tuple[_Key, ...]:
    """The sweep's keys: the quantities it holds fixed default to the paper's grid."""
    grid = swp.DEFAULT_GRID
    return (
        *_keys(_as_shape_list, "p_values", "q_values"),
        _Key("gamma_values", _as_number_list),
        _Key("horizon_years", _as_int, HORIZON_YEARS, maximum=_MAX_YEARS),
        *_keys(_as_number, initial_share_target=grid.initial_share_target,
               alpha_h=grid.alpha_h, beta_h=grid.beta_h, beta_m=grid.beta_m),
        _START_YEAR,
    )


# ---------------------------------------------------------------------------
# Building and running
# ---------------------------------------------------------------------------

def _with_horizon(make: Callable[..., object]) -> Callable[[dict], tuple[object, int]]:
    """Build a trajectory model as (typed params, horizon_years)."""
    return lambda params: (
        make(**{key: v for key, v in params.items() if key != "horizon_years"}),
        params["horizon_years"],
    )


def _replicator_run(params: dict) -> tuple[rep.ReplicatorParams, int]:
    """Build a replicator run, refusing a category whose step can leave [0, 1].

    The step x + r·x·(1 − x)·gap stays in [0, 1] for every x in [0, 1]
    exactly when |r·gap| <= 1.  r·gap is linear in t, and its computed value
    monotone in t (each rounding is), so the first and last years the run
    steps through bound it; the check evaluates the expression that guards
    ``simulate_replicator``, so every config admitted here runs.
    """
    horizon = params["horizon_years"]
    built = rep.ReplicatorParams(
        rep.CategoryParams(**params["routine"]), rep.CategoryParams(**params["complex"]),
        params["sensitivity"], params["w_routine"], params["start_year"],
    )
    for name in ("routine", "complex"):
        category = getattr(built, name)
        for t in (0, horizon - 1):
            value = built.sensitivity * category.payoff_gap(t)
            if abs(value) > 1.0:
                raise ValidationError(
                    f"sensitivity * {name} payoff gap (machine_intercept + machine_growth * t "
                    f"- human_payoff) must lie in [-1, 1] for t in [0, {horizon - 1}], "
                    f"got {value!r} at t={t}"
                )
    return built, horizon


def _sweep_grid(params: dict) -> swp.GridSpec:
    """Build a sweep's grid, refusing more than ``_MAX_SWEEP_CELLS`` cells."""
    cells = len(params["p_values"]) * len(params["q_values"]) * len(params["gamma_values"])
    if cells > _MAX_SWEEP_CELLS:
        raise ValidationError(
            f"p_values x q_values x gamma_values must give at most {_MAX_SWEEP_CELLS} "
            f"cells, got {cells}"
        )
    return swp.GridSpec(
        **{key: tuple(v) if isinstance(v, list) else v for key, v in params.items()}
    )


class LatticeRun(namedtuple("LatticeRun", "params")):
    """A lattice scenario: the universe recipe plus iteration controls."""

    __slots__ = ()

    def build_universe(self) -> lat.TaskUniverse:
        return _FAMILIES[self.params["family"]][1](self.params)

    def run(self) -> tuple[lat.DelegationTrace, int]:
        universe, p = self.build_universe(), self.params
        return lat.run_delegation(universe, p["max_years"], p["stability_window"]), len(universe)


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def _sweep_rows(cells: object, num: Callable[[float], str]) -> Iterable[str]:
    for cell in cells:
        year = "" if cell.cross50_year is None else str(cell.cross50_year)
        # Axis values render exactly as configured (5 stays 5, 2.0 stays 2.0).
        yield (
            f"{cell.p!r},{cell.q!r},{cell.gamma!r},{num(cell.alpha_m_used)},"
            f"{num(cell.final_share)},{year}"
        )


def _lattice_rows(data: object, num: Callable[[float], str]) -> Iterable[str]:
    trace, n_tasks = data
    for t, count in enumerate(trace.counts):
        yield f"{t},{count},{num(count / n_tasks)}"


# ---------------------------------------------------------------------------
# The model registry
# ---------------------------------------------------------------------------

# Everything the CLI knows about one model.  ``keys`` returns the schema of a
# params block (None for a builtin), built when asked for, so that defaults
# read from a model's ``DEFAULT_*`` object run that model only when it is
# used; only the lattice reads the block, whose family decides its keys.
# ``build`` turns canonical params into what ``run`` takes; ``load_config``
# calls it too, so a typed constructor's error surfaces at load time.
# ``rows`` renders the run's data under ``header``.  ``charts`` maps each
# chart kind the model allows to the name of the ``svgplot`` function that
# draws it, the default first.  ``builtin`` names a scenario and returns the
# ``DEFAULT_*`` object its params are read from.
_ModelSpec = namedtuple("_ModelSpec", "keys build run header rows charts builtin",
                        defaults=(None,))


# The lambdas look each model attribute up when called, so a function
# replaced on its module (by a test or a tracer) is the one that runs, and a
# model's module runs only when a command first uses it.
_SPECS = {
    "aggregate": _ModelSpec(
        keys=lambda params: (*_keys(_as_number, "alpha", "beta", "x0"), *_HORIZON),
        build=_with_horizon(lambda **params: agg.AggregateParams(**params)),
        run=lambda built: agg.simulate(*built),
        header="year,share",
        rows=lambda data, num: (f"{p.year},{num(p.share)}" for p in data),
        charts={"line": "share_line"},
        builtin=("paper-aggregate", lambda: agg.DEFAULT_AGGREGATE),
    ),
    "replicator": _ModelSpec(
        keys=lambda params: (
            _Key("routine", _CATEGORY),
            _Key("complex", _CATEGORY),
            *_keys(_as_number, "sensitivity", "w_routine"),
            *_HORIZON,
        ),
        build=_replicator_run,
        run=lambda built: rep.simulate_replicator(*built),
        header="year,x_routine,x_complex,x_total",
        rows=lambda data, num: (
            f"{p.year},{num(p.x_routine)},{num(p.x_complex)},{num(p.x_total)}"
            for p in data
        ),
        charts={"multi-line": "replicator_lines"},
        builtin=("paper-replicator", lambda: rep.DEFAULT_REPLICATOR),
    ),
    "boundary": _ModelSpec(
        keys=lambda params: (
            *_keys(_as_number, "alpha_h", "beta_h", "alpha_m", "beta_m", "gamma"),
            _Key("p", _as_shape, attr="shape.p"),
            _Key("q", _as_shape, attr="shape.q"),
            _START_YEAR,
            _Key("horizon_years", _as_int, HORIZON_YEARS, minimum=0, maximum=_MAX_YEARS),
        ),
        build=_with_horizon(
            lambda p, q, **rest: bnd.ContinuousParams(shape=numerics.BetaShape(p, q), **rest)
        ),
        run=lambda built: bnd.simulate_boundary(*built),
        header="year,theta,share",
        rows=lambda data, num: (
            f"{p.year},{num(p.theta)},{num(p.share)}" for p in data
        ),
        charts={"line": "share_line", "heatmap": "boundary_heatmap"},
        builtin=("paper-boundary", lambda: bnd.DEFAULT_BOUNDARY),
    ),
    "lattice": _ModelSpec(
        keys=_lattice_keys,
        build=LatticeRun,
        run=LatticeRun.run,
        header="t,automated_count,share",
        rows=_lattice_rows,
        charts={"line": "lattice_line"},
    ),
    "sweep": _ModelSpec(
        keys=_sweep_keys,
        build=_sweep_grid,
        run=lambda grid: swp.run_grid(grid),
        header="p,q,gamma,alpha_M,final_share,cross50_year",
        rows=_sweep_rows,
        charts={"heatmap": "sweep_heatmap"},
        builtin=("paper-grid", lambda: swp.DEFAULT_GRID),
    ),
}

_CHARTS = tuple(dict.fromkeys(chart for spec in _SPECS.values() for chart in spec.charts))

_BUILTINS = {spec.builtin[0]: (model, spec) for model, spec in _SPECS.items() if spec.builtin}


# ---------------------------------------------------------------------------
# Builtin scenarios and config loading
# ---------------------------------------------------------------------------

def scenario_names() -> list[str]:
    return list(_BUILTINS)


def builtin_scenario(name: str) -> ScenarioConfig:
    """Expand a builtin scenario name into a full configuration."""
    if name not in _BUILTINS:
        known = ", ".join(_BUILTINS)
        raise ValidationError(f"unknown scenario {name!r} (builtins: {known})")
    model, spec = _BUILTINS[name]
    return ScenarioConfig(model=model, params=_read(spec.builtin[1](), spec.keys(None)))


# CSV decimal places run from 0 to this, from a config or from --precision.
_MAX_PRECISION = 17


def _check_precision(precision: int, label: str) -> None:
    if not 0 <= precision <= _MAX_PRECISION:
        raise ValidationError(f"{label} must lie in [0, {_MAX_PRECISION}], got {precision}")


def _output_from_dict(block: dict) -> OutputSpec:
    merged = _check(block, "output", _keys(_unchecked, **OutputSpec._field_defaults))
    fmt = merged["format"]
    if fmt not in ("csv", "svg"):
        raise ValidationError(f"output.format must be 'csv' or 'svg', got {fmt!r}")
    precision = _as_int(merged["precision"], "output.precision")
    _check_precision(precision, "output.precision")
    path = merged["path"]
    if path is not None and not isinstance(path, str):
        raise ValidationError(f"output.path must be a string, got {path!r}")
    if path == "":
        raise ValidationError("output.path must not be empty")
    return OutputSpec(format=fmt, path=path, precision=precision)


def load_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    The document needs a ``model`` plus either a ``scenario`` name (expanded
    to its builtin parameters) or an explicit ``params`` block; an optional
    ``output`` block selects format, path, and precision.  Unknown keys
    anywhere are hard errors.
    """
    import json  # here, not at the top: builtins and verify never parse or print JSON

    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # the only other one: an integer literal over the digit limit
        raise ParseError(
            "config parse error: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ParseError("config parse error: arrays or objects nested too deeply") from None
    if not isinstance(document, dict):
        raise ValidationError("config must be a JSON object at top level")
    merged = _check(
        document, "config", _keys(_unchecked, "model", scenario=None, params=None, output=None)
    )
    model = merged["model"]
    spec = _SPECS.get(model) if isinstance(model, str) else None
    if spec is None:
        raise ValidationError(
            f"unknown model {model!r} (expected one of {', '.join(_SPECS)})"
        )
    scenario = merged["scenario"]
    params = merged["params"]
    if (scenario is None) == (params is None):
        raise ValidationError(
            "config must provide exactly one of 'scenario' or 'params'"
        )
    if scenario is not None:
        if not isinstance(scenario, str):
            raise ValidationError(f"scenario must be a string, got {scenario!r}")
        config = builtin_scenario(scenario)
        if config.model != model:
            raise ValidationError(
                f"scenario {scenario!r} belongs to model {config.model!r}, "
                f"config says {model!r}"
            )
        canonical = config.params
    else:
        canonical = _check(params, f"{model} params", spec.keys(params))
        spec.build(canonical)  # typed constructors validate; a lattice builds nothing
    output = OutputSpec() if merged["output"] is None else _output_from_dict(merged["output"])
    return ScenarioConfig(model=model, params=canonical, output=output)


# ---------------------------------------------------------------------------
# Running and emitting
# ---------------------------------------------------------------------------

def run_config(config: ScenarioConfig) -> RunResult:
    """Execute the configured scenario and wrap its output."""
    data = _SPECS[config.model].run(config.build())
    return RunResult(model=config.model, data=data, config=config)


def emit_csv(result: RunResult, precision: int = OutputSpec().precision) -> str:
    """Render a run as CSV with fixed-precision decimals.

    Headers are fixed per model; every row ends with a newline and carries
    no trailing whitespace, so output is byte-identical across runs.
    """
    _check_precision(precision, "precision")
    spec = _SPECS.get(result.model)
    if spec is None:
        raise ValidationError(f"unknown model {result.model!r}")

    fixed = f".{precision}f"

    def num(value: float) -> str:
        return format(value, fixed)

    return "\n".join([spec.header, *spec.rows(result.data, num)]) + "\n"


def emit_svg(result: RunResult, chart: str) -> str:
    """Render a run as a deterministic SVG chart on the fixed 720 x 480 canvas.

    Each model allows the charts its spec lists: aggregate/line,
    replicator/multi-line, boundary/line, boundary/heatmap (payoff advantage
    plus the boundary overlay), lattice/line, sweep/heatmap.  Anything else
    raises ChartError.
    """
    if chart not in _CHARTS:
        raise ChartError(f"unknown chart kind {chart!r} (expected {', '.join(_CHARTS)})")
    spec = _SPECS.get(result.model)
    render = spec.charts.get(chart) if spec is not None else None
    if render is None:
        raise ChartError(f"chart {chart!r} does not apply to model {result.model!r}")
    return getattr(svgplot, render)(result)


# ---------------------------------------------------------------------------
# Golden verification
# ---------------------------------------------------------------------------

def _scenario_csv(name: str, precision: int) -> str:
    """A builtin scenario's CSV, as the golden table's CSV rows compute it."""
    return emit_csv(run_config(builtin_scenario(name)), precision)


def verify_goldens() -> tuple[str, bool]:
    """Run every embedded golden check; returns (report text, all passed)."""
    from ._goldens import verify  # here: no other command compiles the table

    return verify(_scenario_csv)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# The command table (see ``workmix._argv``): each command's positional argument
# (or None), its help line and its flags.  A flag takes a str, an int or one
# of a tuple of values, or is a switch (bool).
_OUT = {"--out": (str, "write output to this path instead of stdout")}
_OUTPUT_FLAGS = {**_OUT, "--format": (("csv", "svg"), "output format"),
                 "--precision": (int, "decimal places for CSV numbers"),
                 "--chart": (_CHARTS, "chart kind for SVG output")}
_COMMANDS = {
    "run": ("config_path", "run a scenario from a JSON config file", _OUTPUT_FLAGS),
    "scenario": ("name", "run a builtin scenario by name", _OUTPUT_FLAGS),
    "list-scenarios": (None, "list builtin scenario names",
                       {"--expand": (bool, "print each scenario as a full JSON config"), **_OUT}),
    "verify": (None, "recompute embedded golden values and report pass/fail", _OUT),
}


def _write_output(document: str, path: str | None) -> None:
    """Write atomically so a failed run never leaves partial output.

    The document goes to a uniquely named file in the target's directory,
    which is renamed over the target; on any failure it is removed.  The
    file gets the permissions a plain ``open`` would give it.  An error
    names the target, never the temporary file.
    """
    if path is None:
        sys.stdout.write(document)
        return
    import errno
    import tempfile  # here, not at the top: it adds about 8 ms to every start-up

    umask = os.umask(0)
    os.umask(umask)
    try:
        # A directory is refused here: os.replace would report "dir/" as not
        # a directory and "." as busy.
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".workmix-")
        try:
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                os.fchmod(fd, 0o666 & ~umask)
                handle.write(document)
            os.replace(temp_path, path)
        except BaseException:
            os.unlink(temp_path)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _render(config: ScenarioConfig, args: object) -> tuple[str, str | None]:
    fmt = args.format or config.output.format
    if args.precision is not None and fmt != "csv":
        raise ValidationError(f"--precision needs CSV output, got format {fmt!r}")
    precision = (
        args.precision if args.precision is not None else config.output.precision
    )
    _check_precision(precision, "precision")
    if args.chart is not None and fmt != "svg":
        raise ValidationError(f"--chart needs SVG output, got format {fmt!r}")
    path = args.out if args.out is not None else config.output.path
    result = run_config(config)
    if fmt == "csv":
        return emit_csv(result, precision), path
    chart = args.chart or next(iter(_SPECS[config.model].charts))
    return emit_svg(result, chart), path


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from ._argv import read_argv  # here: a bare `import workmix.cli` reads no argv

    try:
        args = read_argv(sys.argv[1:] if argv is None else list(argv), _COMMANDS)
        if args is None:  # --help was printed
            return 0
        if args.out == "":
            raise ValidationError("--out must not be empty")
        if args.command in ("run", "scenario"):
            if args.command == "run":
                try:
                    with open(args.config_path, "r", encoding="utf-8") as handle:
                        text = handle.read()
                except OSError as exc:
                    raise OSError(
                        f"cannot read config {args.config_path!r}: {exc.strerror or exc}"
                    ) from None
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"cannot read config {args.config_path!r}: not UTF-8 "
                        f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
                    ) from None
                config = load_config(text)
            else:
                config = builtin_scenario(args.name)
            document, path = _render(config, args)
            _write_output(document, path)
        elif args.command == "list-scenarios":
            if args.expand:
                import json

                configs = {name: builtin_scenario(name) for name in _BUILTINS}
                expanded = {
                    name: {"model": config.model, "params": config.params}
                    for name, config in configs.items()
                }
                document = json.dumps(expanded, indent=2, sort_keys=True) + "\n"
            else:
                document = "\n".join(_BUILTINS) + "\n"
            _write_output(document, args.out)
        else:  # verify
            report, all_passed = verify_goldens()
            _write_output(report, args.out)
            if not all_passed:
                print("error: golden checks failed", file=sys.stderr)
                return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
