"""Command-line front end: JSON scenario configs, CSV/SVG emission, goldens.

Subcommands:

* ``run <config.json>``: execute a scenario described by a JSON document.
* ``scenario <name>``: execute one of the builtin scenarios by name.
* ``list-scenarios``: print the builtin names; ``--expand`` prints each one
  as a full JSON config that reloads to an identical configuration.
* ``verify``: recompute the embedded golden values and print a pass/fail
  table.

Exit codes: 0 success, 1 configuration/validation problem, 2 runtime
failure.  Data goes to stdout or ``--out``; diagnostics go to stderr.  All
output is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import aggregate as agg
from . import boundary as bnd
from . import lattice as lat
from . import replicator as rep
from . import sweep as swp
from . import svgplot
from .errors import (
    ChartError,
    ComputationError,
    InputError,
    ParseError,
    ValidationError,
)
from .numerics import BetaShape, bisect_root, inv_reg_inc_beta, oracle_beta_cdf, reg_inc_beta

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

_MODELS = ("aggregate", "replicator", "boundary", "lattice", "sweep")
_CHARTS = ("line", "multi-line", "heatmap")
_DEFAULT_DIMENSIONS = (720.0, 480.0)

_DEFAULT_CHART = {
    "aggregate": "line",
    "replicator": "multi-line",
    "boundary": "line",
    "lattice": "line",
    "sweep": "heatmap",
}


# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputSpec:
    """Where and how results are written."""

    format: str = "csv"
    path: str | None = None
    precision: int = 6


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: model name, canonical params, output options.

    ``params`` is stored in canonical JSON-able form with every default
    filled in, so two configs describing the same run compare equal no
    matter how sparsely they were written.
    """

    model: str
    params: dict
    output: OutputSpec = OutputSpec()

    def build(self) -> Any:
        """Construct the typed parameter object for this model."""
        return _BUILDERS[self.model](self.params)


def _require_keys(
    block: dict, where: str, required: dict[str, type], optional: dict[str, Any]
) -> dict:
    """Strict key validation: every unknown key is an error, named."""
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object, got {type(block).__name__}")
    for key in block:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in block:
            raise ValidationError(f"missing required key {key!r} in {where}")
    merged = dict(optional)
    merged.update(block)
    return merged


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{where} must be a finite number, got {value!r}")
    return value


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number_list(value: Any, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where} must be a non-empty list of numbers")
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


# --- aggregate -------------------------------------------------------------

def _aggregate_from_dict(params: dict) -> tuple[agg.AggregateParams, int]:
    merged = _require_keys(
        params,
        "aggregate params",
        required={"alpha": float, "beta": float, "x0": float},
        optional={"start_year": 2025, "horizon_years": 20},
    )
    bundle = agg.AggregateParams(
        alpha=_as_number(merged["alpha"], "alpha"),
        beta=_as_number(merged["beta"], "beta"),
        x0=_as_number(merged["x0"], "x0"),
        start_year=_as_int(merged["start_year"], "start_year"),
    )
    horizon = _as_int(merged["horizon_years"], "horizon_years")
    if horizon < 1:
        raise ValidationError(f"horizon_years must be >= 1, got {horizon}")
    return bundle, horizon


def _aggregate_to_dict(bundle: agg.AggregateParams, horizon: int) -> dict:
    return {
        "alpha": bundle.alpha,
        "beta": bundle.beta,
        "x0": bundle.x0,
        "start_year": bundle.start_year,
        "horizon_years": horizon,
    }


# --- replicator ------------------------------------------------------------

_CATEGORY_KEYS = {
    "x0": float,
    "machine_intercept": float,
    "machine_growth": float,
    "human_payoff": float,
}


def _category_from_dict(block: dict, where: str) -> rep.CategoryParams:
    merged = _require_keys(block, where, required=_CATEGORY_KEYS, optional={})
    return rep.CategoryParams(
        x0=_as_number(merged["x0"], f"{where}.x0"),
        machine_intercept=_as_number(
            merged["machine_intercept"], f"{where}.machine_intercept"
        ),
        machine_growth=_as_number(
            merged["machine_growth"], f"{where}.machine_growth"
        ),
        human_payoff=_as_number(merged["human_payoff"], f"{where}.human_payoff"),
    )


def _replicator_from_dict(params: dict) -> tuple[rep.ReplicatorParams, int]:
    merged = _require_keys(
        params,
        "replicator params",
        required={"routine": dict, "complex": dict, "sensitivity": float, "w_routine": float},
        optional={"start_year": 2025, "horizon_years": 20},
    )
    bundle = rep.ReplicatorParams(
        routine=_category_from_dict(merged["routine"], "replicator params.routine"),
        complex=_category_from_dict(merged["complex"], "replicator params.complex"),
        sensitivity=_as_number(merged["sensitivity"], "sensitivity"),
        w_routine=_as_number(merged["w_routine"], "w_routine"),
        start_year=_as_int(merged["start_year"], "start_year"),
    )
    horizon = _as_int(merged["horizon_years"], "horizon_years")
    if horizon < 1:
        raise ValidationError(f"horizon_years must be >= 1, got {horizon}")
    return bundle, horizon


def _category_to_dict(cat: rep.CategoryParams) -> dict:
    return {
        "x0": cat.x0,
        "machine_intercept": cat.machine_intercept,
        "machine_growth": cat.machine_growth,
        "human_payoff": cat.human_payoff,
    }


def _replicator_to_dict(bundle: rep.ReplicatorParams, horizon: int) -> dict:
    return {
        "routine": _category_to_dict(bundle.routine),
        "complex": _category_to_dict(bundle.complex),
        "sensitivity": bundle.sensitivity,
        "w_routine": bundle.w_routine,
        "start_year": bundle.start_year,
        "horizon_years": horizon,
    }


# --- boundary --------------------------------------------------------------

def _boundary_from_dict(params: dict) -> tuple[bnd.ContinuousParams, int]:
    merged = _require_keys(
        params,
        "boundary params",
        required={
            "alpha_h": float,
            "beta_h": float,
            "alpha_m": float,
            "beta_m": float,
            "gamma": float,
            "p": float,
            "q": float,
        },
        optional={"start_year": 2025, "horizon_years": 20},
    )
    bundle = bnd.ContinuousParams(
        alpha_h=_as_number(merged["alpha_h"], "alpha_h"),
        beta_h=_as_number(merged["beta_h"], "beta_h"),
        alpha_m=_as_number(merged["alpha_m"], "alpha_m"),
        beta_m=_as_number(merged["beta_m"], "beta_m"),
        gamma=_as_number(merged["gamma"], "gamma"),
        shape=BetaShape(
            _as_number(merged["p"], "p"), _as_number(merged["q"], "q")
        ),
        start_year=_as_int(merged["start_year"], "start_year"),
    )
    horizon = _as_int(merged["horizon_years"], "horizon_years")
    if horizon < 0:
        raise ValidationError(f"horizon_years must be >= 0, got {horizon}")
    return bundle, horizon


def _boundary_to_dict(bundle: bnd.ContinuousParams, horizon: int) -> dict:
    return {
        "alpha_h": bundle.alpha_h,
        "beta_h": bundle.beta_h,
        "alpha_m": bundle.alpha_m,
        "beta_m": bundle.beta_m,
        "gamma": bundle.gamma,
        "p": bundle.shape.p,
        "q": bundle.shape.q,
        "start_year": bundle.start_year,
        "horizon_years": horizon,
    }


# --- sweep -----------------------------------------------------------------

def _sweep_from_dict(params: dict) -> swp.GridSpec:
    merged = _require_keys(
        params,
        "sweep params",
        required={
            "p_values": list,
            "q_values": list,
            "gamma_values": list,
        },
        optional={
            "horizon_years": 20,
            "initial_share_target": 0.10,
            "alpha_h": 1.0,
            "beta_h": 1.5,
            "beta_m": 2.5,
            "start_year": 2025,
        },
    )
    return swp.GridSpec(
        p_values=tuple(_as_number_list(merged["p_values"], "p_values")),
        q_values=tuple(_as_number_list(merged["q_values"], "q_values")),
        gamma_values=tuple(_as_number_list(merged["gamma_values"], "gamma_values")),
        horizon_years=_as_int(merged["horizon_years"], "horizon_years"),
        initial_share_target=_as_number(
            merged["initial_share_target"], "initial_share_target"
        ),
        alpha_h=_as_number(merged["alpha_h"], "alpha_h"),
        beta_h=_as_number(merged["beta_h"], "beta_h"),
        beta_m=_as_number(merged["beta_m"], "beta_m"),
        start_year=_as_int(merged["start_year"], "start_year"),
    )


def _sweep_to_dict(grid: swp.GridSpec) -> dict:
    return {
        "p_values": list(grid.p_values),
        "q_values": list(grid.q_values),
        "gamma_values": list(grid.gamma_values),
        "horizon_years": grid.horizon_years,
        "initial_share_target": grid.initial_share_target,
        "alpha_h": grid.alpha_h,
        "beta_h": grid.beta_h,
        "beta_m": grid.beta_m,
        "start_year": grid.start_year,
    }


# --- lattice ---------------------------------------------------------------

@dataclass(frozen=True)
class LatticeRun:
    """A lattice scenario: the universe recipe plus iteration controls."""

    params: dict

    def build_universe(self) -> lat.TaskUniverse:
        p = self.params
        family = p["family"]
        if family == "linear":
            thetas = lat.beta_quantile_thetas(
                p["n_tasks"], BetaShape(p["p"], p["q"])
            )
            return lat.linear_universe(
                thetas, p["alpha_h"], p["beta_h"], p["alpha_m"], p["beta_m"], p["gamma"]
            )
        if family == "saturating":
            thetas = lat.beta_quantile_thetas(
                p["n_tasks"], BetaShape(p["p"], p["q"])
            )
            alpha_h, beta_h = p["alpha_h"], p["beta_h"]
            intercept, slope = p["limit_intercept"], p["limit_slope"]
            return lat.saturating_universe(
                thetas,
                lambda theta: alpha_h + beta_h * theta,
                lambda theta: intercept - slope * theta,
            )
        return lat.table_universe(p["thetas"], p["human_values"], p["machine_rows"])

    @property
    def max_years(self) -> int:
        return self.params["max_years"]

    @property
    def stability_window(self) -> int:
        return self.params["stability_window"]


def _lattice_from_dict(params: dict) -> dict:
    if not isinstance(params, dict):
        raise ValidationError("lattice params must be an object")
    family = params.get("family")
    if family not in ("linear", "saturating", "table"):
        raise ValidationError(
            "lattice params require family 'linear', 'saturating', or 'table', "
            f"got {family!r}"
        )
    controls = {"max_years": 60, "stability_window": 3}
    if family == "linear":
        merged = _require_keys(
            params,
            "lattice params",
            required={"family": str},
            optional={
                "n_tasks": 1000,
                "p": 2.0,
                "q": 5.0,
                "alpha_h": 1.0,
                "beta_h": 1.5,
                "alpha_m": 1.3704,
                "beta_m": 2.5,
                "gamma": 0.04336,
                **controls,
            },
        )
        for key in ("p", "q", "alpha_h", "beta_h", "alpha_m", "beta_m", "gamma"):
            merged[key] = _as_number(merged[key], key)
    elif family == "saturating":
        merged = _require_keys(
            params,
            "lattice params",
            required={
                "family": str,
                "limit_intercept": float,
                "limit_slope": float,
            },
            optional={
                "n_tasks": 1000,
                "p": 2.0,
                "q": 5.0,
                "alpha_h": 1.0,
                "beta_h": 1.5,
                **controls,
            },
        )
        for key in (
            "p", "q", "alpha_h", "beta_h", "limit_intercept", "limit_slope"
        ):
            merged[key] = _as_number(merged[key], key)
    else:
        merged = _require_keys(
            params,
            "lattice params",
            required={
                "family": str,
                "thetas": list,
                "human_values": list,
                "machine_rows": list,
            },
            optional=dict(controls),
        )
        merged["thetas"] = _as_number_list(merged["thetas"], "thetas")
        merged["human_values"] = _as_number_list(
            merged["human_values"], "human_values"
        )
        if not isinstance(merged["machine_rows"], list) or not merged["machine_rows"]:
            raise ValidationError("machine_rows must be a non-empty list of rows")
        merged["machine_rows"] = [
            _as_number_list(row, f"machine_rows[{i}]")
            for i, row in enumerate(merged["machine_rows"])
        ]
    if "n_tasks" in merged:
        n_tasks = _as_int(merged["n_tasks"], "n_tasks")
        if n_tasks < 1:
            raise ValidationError(f"n_tasks must be >= 1, got {n_tasks}")
    for key in ("max_years", "stability_window"):
        value = _as_int(merged[key], key)
        if value < 1:
            raise ValidationError(f"{key} must be >= 1, got {value}")
    # Checks keys, types and ranges only.  The universe's own invariants (a
    # negative saturating limit, duplicate or misshapen table data, gamma
    # <= 0) surface when run_config builds it, still before anything is
    # written, with the same message and exit code 1.
    return merged


_BUILDERS: dict[str, Callable[[dict], Any]] = {
    "aggregate": lambda d: _aggregate_from_dict(d),
    "replicator": lambda d: _replicator_from_dict(d),
    "boundary": lambda d: _boundary_from_dict(d),
    "sweep": lambda d: _sweep_from_dict(d),
    "lattice": LatticeRun,
}

_CANONICALIZERS: dict[str, Callable[[dict], dict]] = {
    "aggregate": lambda d: _aggregate_to_dict(*_aggregate_from_dict(d)),
    "replicator": lambda d: _replicator_to_dict(*_replicator_from_dict(d)),
    "boundary": lambda d: _boundary_to_dict(*_boundary_from_dict(d)),
    "sweep": lambda d: _sweep_to_dict(_sweep_from_dict(d)),
    "lattice": lambda d: _lattice_from_dict(d),
}


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------

_BUILTINS: dict[str, tuple[str, Callable[[], dict]]] = {
    "paper-aggregate": (
        "aggregate",
        lambda: _aggregate_to_dict(agg.DEFAULT_AGGREGATE, 20),
    ),
    "paper-replicator": (
        "replicator",
        lambda: _replicator_to_dict(rep.DEFAULT_REPLICATOR, 20),
    ),
    "paper-boundary": (
        "boundary",
        lambda: _boundary_to_dict(bnd.DEFAULT_BOUNDARY, 20),
    ),
    "paper-grid": ("sweep", lambda: _sweep_to_dict(swp.DEFAULT_GRID)),
}


def scenario_names() -> list[str]:
    return list(_BUILTINS)


def builtin_scenario(name: str) -> ScenarioConfig:
    """Expand a builtin scenario name into a full configuration."""
    if name not in _BUILTINS:
        known = ", ".join(_BUILTINS)
        raise ValidationError(f"unknown scenario {name!r} (builtins: {known})")
    model, params_fn = _BUILTINS[name]
    return ScenarioConfig(model=model, params=params_fn())


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _output_from_dict(block: dict) -> OutputSpec:
    merged = _require_keys(
        block,
        "output",
        required={},
        optional={"format": "csv", "path": None, "precision": 6},
    )
    fmt = merged["format"]
    if fmt not in ("csv", "svg"):
        raise ValidationError(f"output.format must be 'csv' or 'svg', got {fmt!r}")
    precision = _as_int(merged["precision"], "output.precision")
    if not 0 <= precision <= 17:
        raise ValidationError(
            f"output.precision must lie in [0, 17], got {precision}"
        )
    path = merged["path"]
    if path is not None and not isinstance(path, str):
        raise ValidationError(f"output.path must be a string, got {path!r}")
    return OutputSpec(format=fmt, path=path, precision=precision)


def load_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    The document needs a ``model`` plus either a ``scenario`` name (expanded
    to its builtin parameters) or an explicit ``params`` block; an optional
    ``output`` block selects format, path, and precision.  Unknown keys
    anywhere are hard errors.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(document, dict):
        raise ValidationError("config must be a JSON object at top level")
    merged = _require_keys(
        document,
        "config",
        required={"model": str},
        optional={"scenario": None, "params": None, "output": None},
    )
    model = merged["model"]
    if model not in _MODELS:
        raise ValidationError(
            f"unknown model {model!r} (expected one of {', '.join(_MODELS)})"
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
        canonical = _CANONICALIZERS[model](params)
    output = OutputSpec() if merged["output"] is None else _output_from_dict(merged["output"])
    return ScenarioConfig(model=model, params=canonical, output=output)


# ---------------------------------------------------------------------------
# Running and emitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    """Computed output of one scenario, tagged with its model."""

    model: str
    data: Any
    config: ScenarioConfig | None = None


def run_config(config: ScenarioConfig) -> RunResult:
    """Execute the configured scenario and wrap its output."""
    if config.model == "aggregate":
        params, horizon = config.build()
        data: Any = agg.simulate(params, horizon)
    elif config.model == "replicator":
        params, horizon = config.build()
        data = rep.simulate_replicator(params, horizon)
    elif config.model == "boundary":
        params, horizon = config.build()
        data = bnd.simulate_boundary(params, horizon)
    elif config.model == "sweep":
        data = swp.run_grid(config.build())
    else:
        run: LatticeRun = config.build()
        universe = run.build_universe()
        trace = lat.run_delegation(
            universe, run.max_years, run.stability_window
        )
        data = (trace, len(universe))
    return RunResult(model=config.model, data=data, config=config)


def _axis_value(value: Any) -> str:
    """Render a sweep axis value exactly as configured (5 stays 5, 2.0 stays 2.0)."""
    return repr(value)


def emit_csv(result: RunResult, precision: int = 6) -> str:
    """Render a run as CSV with fixed-precision decimals.

    Headers are fixed per model; every row ends with a newline and carries
    no trailing whitespace, so output is byte-identical across runs.
    """
    if precision < 0:
        raise ValidationError(f"precision must be >= 0, got {precision}")

    def num(value: float) -> str:
        return f"{value:.{precision}f}"

    rows: list[str]
    if result.model == "aggregate":
        rows = ["year,share"]
        rows += [f"{p.year},{num(p.share)}" for p in result.data]
    elif result.model == "replicator":
        rows = ["year,x_routine,x_complex,x_total"]
        rows += [
            f"{p.year},{num(p.x_routine)},{num(p.x_complex)},{num(p.x_total)}"
            for p in result.data
        ]
    elif result.model == "boundary":
        rows = ["year,theta,share"]
        rows += [f"{p.year},{num(p.theta)},{num(p.share)}" for p in result.data]
    elif result.model == "sweep":
        rows = ["p,q,gamma,alpha_M,final_share,cross50_year"]
        for cell in result.data:
            year = "" if cell.cross50_year is None else str(cell.cross50_year)
            rows.append(
                f"{_axis_value(cell.p)},{_axis_value(cell.q)},"
                f"{_axis_value(cell.gamma)},{num(cell.alpha_m_used)},"
                f"{num(cell.final_share)},{year}"
            )
    elif result.model == "lattice":
        trace, n_tasks = result.data
        rows = ["t,automated_count,share"]
        for t, allocation in enumerate(trace.iterations):
            rows.append(
                f"{t},{len(allocation.automated)},{num(allocation.fraction(n_tasks))}"
            )
    else:
        raise ValidationError(f"unknown model {result.model!r}")
    return "\n".join(rows) + "\n"


def _boundary_heatmap(result: RunResult, dimensions: tuple[float, float]) -> str:
    params, horizon = result.config.build()
    years = [params.start_year + t for t in range(horizon + 1)]
    thetas = [round(0.1 * j, 10) for j in range(11)]
    grid = bnd.advantage_grid(params, years, thetas)
    overlay = [
        (point.year, min(1.0, max(0.0, point.theta))) for point in result.data
    ]
    return svgplot.heatmap(
        [float(y) for y in years],
        thetas,
        grid,
        dimensions[0],
        dimensions[1],
        x_label="year",
        y_label="theta",
        overlay=overlay,
    )


def _sweep_heatmap(result: RunResult, dimensions: tuple[float, float]) -> str:
    cells = result.data
    q_values = sorted({cell.q for cell in cells})
    if len(q_values) != 1:
        raise ChartError(
            "sweep heatmap needs exactly one q value; "
            f"got {len(q_values)} (filter the grid first)"
        )
    p_values = sorted({cell.p for cell in cells})
    gamma_values = sorted({cell.gamma for cell in cells})
    lookup = {(cell.p, cell.gamma): cell.final_share for cell in cells}
    grid = [
        [lookup[(p, gamma)] for p in p_values] for gamma in gamma_values
    ]
    return svgplot.heatmap(
        [float(g) for g in gamma_values],
        [float(p) for p in p_values],
        grid,
        dimensions[0],
        dimensions[1],
        x_label="gamma",
        y_label="p",
    )


def emit_svg(
    result: RunResult,
    chart: str,
    dimensions: tuple[float, float] = _DEFAULT_DIMENSIONS,
) -> str:
    """Render a run as a deterministic SVG chart.

    Supported pairs: aggregate/line, replicator/multi-line, boundary/line,
    boundary/heatmap (payoff advantage plus the boundary overlay),
    sweep/heatmap, lattice/line.  Anything else raises ChartError.
    """
    if chart not in _CHARTS:
        raise ChartError(f"unknown chart kind {chart!r} (expected {', '.join(_CHARTS)})")
    model = result.model
    if model == "aggregate" and chart == "line":
        points = [(float(p.year), p.share) for p in result.data]
        return svgplot.line_chart(
            points, dimensions[0], dimensions[1], x_label="year", y_label="share"
        )
    if model == "replicator" and chart == "multi-line":
        series = [
            ("routine", [(float(p.year), p.x_routine) for p in result.data]),
            ("complex", [(float(p.year), p.x_complex) for p in result.data]),
            ("total", [(float(p.year), p.x_total) for p in result.data]),
        ]
        return svgplot.multi_line_chart(
            series, dimensions[0], dimensions[1], x_label="year", y_label="share"
        )
    if model == "boundary" and chart == "line":
        points = [(float(p.year), p.share) for p in result.data]
        return svgplot.line_chart(
            points, dimensions[0], dimensions[1], x_label="year", y_label="share"
        )
    if model == "boundary" and chart == "heatmap":
        return _boundary_heatmap(result, dimensions)
    if model == "sweep" and chart == "heatmap":
        return _sweep_heatmap(result, dimensions)
    if model == "lattice" and chart == "line":
        trace, n_tasks = result.data
        points = [
            (float(t), allocation.fraction(n_tasks))
            for t, allocation in enumerate(trace.iterations)
        ]
        return svgplot.line_chart(
            points, dimensions[0], dimensions[1], x_label="t", y_label="share"
        )
    raise ChartError(f"chart {chart!r} does not apply to model {model!r}")


# ---------------------------------------------------------------------------
# Golden verification
# ---------------------------------------------------------------------------

def _golden_checks() -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    shape25 = BetaShape(2.0, 5.0)

    def close(name: str, compute: Callable[[], float], want: float, tol: float):
        def check() -> tuple[bool, str]:
            got = compute()
            ok = abs(got - want) <= tol
            return ok, f"got {got:.10f}, want {want:.10f} within {tol:g}"

        return name, check

    def contains(name: str, compute: Callable[[], str], needle: str):
        def check() -> tuple[bool, str]:
            ok = needle in compute()
            return ok, f"expected substring {needle!r}"

        return name, check

    def equals(name: str, compute: Callable[[], Any], want: Any):
        def check() -> tuple[bool, str]:
            got = compute()
            return got == want, f"got {got!r}, want {want!r}"

        return name, check

    agg_defaults = agg.DEFAULT_AGGREGATE
    rep_defaults = rep.DEFAULT_REPLICATOR
    bnd_defaults = bnd.DEFAULT_BOUNDARY

    def boundary_sim(index: int, attr: str) -> float:
        return getattr(bnd.simulate_boundary(bnd_defaults, 20)[index], attr)

    def replicator_sim(index: int, attr: str) -> float:
        return getattr(rep.simulate_replicator(rep_defaults, 20)[index], attr)

    def calibrated() -> bnd.ContinuousParams:
        return bnd.calibrate(0.10, 0.599906, 20, 1.0, 1.5, 2.5, shape25)

    def sweep_cell(p: float, gamma: float) -> float:
        for cell in swp.run_grid(swp.DEFAULT_GRID):
            if cell.p == p and cell.gamma == gamma:
                return cell.final_share
        raise ComputationError(f"cell p={p} gamma={gamma} missing from grid")

    def scenario_csv(name: str, precision: int) -> str:
        return emit_csv(run_config(builtin_scenario(name)), precision)

    return [
        close("beta cdf at x=0.0926, shape (2,5)",
              lambda: reg_inc_beta(0.0926, shape25), 0.100009, 1e-5),
        close("beta cdf at x=0.3094, shape (2,5)",
              lambda: reg_inc_beta(0.3094, shape25), 0.599906, 1e-5),
        close("inverse beta cdf at 0.10, shape (2,5)",
              lambda: inv_reg_inc_beta(0.10, shape25), 0.0926, 5e-4),
        close("simpson oracle at x=0.0926, shape (2,5)",
              lambda: oracle_beta_cdf(0.0926, shape25, 10000), 0.100009, 1e-6),
        close("bisection root of cdf - 0.10",
              lambda: bisect_root(
                  lambda x: reg_inc_beta(x, shape25) - 0.10, 0.0, 1.0, 1e-12
              ),
              0.0926, 5e-4),
        close("aggregate one step from 0.10",
              lambda: agg.step(0.10, agg_defaults), 0.185, 1e-9),
        close("aggregate one step from 0.185",
              lambda: agg.step(0.185, agg_defaults), 0.25725, 1e-9),
        close("aggregate equilibrium",
              lambda: agg.equilibrium(agg_defaults), 0.6667, 5e-5),
        close("aggregate closed form t=10",
              lambda: agg.closed_form(10, agg_defaults), 0.5551045, 1e-6),
        close("aggregate closed form t=20",
              lambda: agg.closed_form(20, agg_defaults), 0.6447029, 1e-6),
        close("aggregate simulated share 2030",
              lambda: agg.simulate(agg_defaults, 20)[5].share, 0.41523, 5e-5),
        close("aggregate simulated share 2040",
              lambda: agg.simulate(agg_defaults, 20)[15].share, 0.61717, 5e-5),
        close("replicator routine step from 0.30",
              lambda: rep.replicator_step(0.30, 0, rep_defaults.routine, 0.2),
              0.3084, 1e-9),
        close("replicator complex step from 0.05",
              lambda: rep.replicator_step(0.05, 0, rep_defaults.complex, 0.2),
              0.04335, 1e-9),
        close("replicator routine share 2045",
              lambda: replicator_sim(20, "x_routine"), 0.873048, 1e-5),
        close("replicator complex share 2045",
              lambda: replicator_sim(20, "x_complex"), 0.006080, 1e-5),
        close("replicator total share 2045",
              lambda: replicator_sim(20, "x_total"), 0.526261, 1e-5),
        close("replicator routine share 2035",
              lambda: replicator_sim(10, "x_routine"), 0.498857, 1e-5),
        close("replicator total share 2035",
              lambda: replicator_sim(10, "x_total"), 0.304990, 1e-5),
        close("machine payoff at theta=0, t=0",
              lambda: bnd.payoff_machine(0.0, 0, bnd_defaults), 1.3704, 1e-9),
        close("payoff advantage at theta=0, t=0",
              lambda: bnd.payoff_machine(0.0, 0, bnd_defaults)
              - bnd.payoff_human(0.0, bnd_defaults),
              0.3704, 1e-4),
        close("payoff advantage at theta=1, t=0",
              lambda: bnd.payoff_machine(1.0, 0, bnd_defaults)
              - bnd.payoff_human(1.0, bnd_defaults),
              -3.6296, 1e-4),
        close("automation boundary t=0",
              lambda: bnd.automation_boundary(0, bnd_defaults), 0.0926, 5e-4),
        close("automation boundary t=10",
              lambda: bnd.automation_boundary(10, bnd_defaults), 0.2010, 5e-4),
        close("automation boundary t=20",
              lambda: bnd.automation_boundary(20, bnd_defaults), 0.3094, 5e-4),
        close("automated share t=0",
              lambda: bnd.automated_share(0, bnd_defaults), 0.100009, 1e-5),
        close("automated share t=20",
              lambda: bnd.automated_share(20, bnd_defaults), 0.599906, 1e-5),
        close("boundary trajectory theta 2030",
              lambda: boundary_sim(5, "theta"), 0.1468, 5e-4),
        close("boundary trajectory share 2030",
              lambda: boundary_sim(5, "share"), 0.216, 5e-4),
        close("boundary trajectory theta 2040",
              lambda: boundary_sim(15, "theta"), 0.2552, 5e-4),
        close("boundary trajectory share 2040",
              lambda: boundary_sim(15, "share"), 0.478, 5e-4),
        close("calibrated machine intercept",
              lambda: calibrated().alpha_m, 1.3704, 5e-4),
        close("calibrated improvement rate",
              lambda: calibrated().gamma, 0.04336, 5e-5),
        close("advantage grid entry (2025, theta=0.10)",
              lambda: bnd.advantage_grid(
                  bnd_defaults, [2025, 2045], [0.0, 0.10, 0.30]
              )[0][1],
              -0.0296, 1e-4),
        close("advantage grid entry (2045, theta=0.30)",
              lambda: bnd.advantage_grid(
                  bnd_defaults, [2025, 2045], [0.0, 0.10, 0.30]
              )[1][2],
              0.0376, 1e-4),
        close("sweep cell p=2.0 gamma=0.05",
              lambda: sweep_cell(2.0, 0.05), 0.667, 0.0015),
        close("sweep cell p=3.0 gamma=0.03",
              lambda: sweep_cell(3.0, 0.03), 0.398, 0.0015),
        close("sweep cell p=1.5 gamma=0.07",
              lambda: sweep_cell(1.5, 0.07), 0.856, 0.0015),
        equals("half-automation year, default boundary",
               lambda: swp.cross50(bnd_defaults, 20), 2041),
        contains("aggregate csv row 2026 at precision 4",
                 lambda: scenario_csv("paper-aggregate", 4), "2026,0.1850"),
        contains("aggregate csv row 2030 at precision 4",
                 lambda: scenario_csv("paper-aggregate", 4), "2030,0.4152"),
        contains("sweep csv axis row p=2.0 gamma=0.05",
                 lambda: scenario_csv("paper-grid", 4), "2.0,5,0.05"),
    ]


def verify_goldens() -> tuple[str, bool]:
    """Run every embedded golden check; returns (report text, all passed)."""
    lines = []
    passed = 0
    checks = _golden_checks()
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok  " if ok else "FAIL"
        if ok:
            passed += 1
        lines.append(f"{status} {name:<42} {detail}")
    lines.append(f"{passed}/{len(checks)} golden checks passed")
    return "\n".join(lines) + "\n", passed == len(checks)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="workmix", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=["csv", "svg"], help="output format")
        p.add_argument(
            "--precision", type=int, help="decimal places for CSV numbers"
        )
        p.add_argument(
            "--chart",
            choices=list(_CHARTS),
            help="chart kind for SVG output",
        )

    run_p = sub.add_parser("run", help="run a scenario from a JSON config file")
    run_p.add_argument("config_path")
    add_output_flags(run_p)

    scen_p = sub.add_parser("scenario", help="run a builtin scenario by name")
    scen_p.add_argument("name")
    add_output_flags(scen_p)

    list_p = sub.add_parser("list-scenarios", help="list builtin scenario names")
    list_p.add_argument(
        "--expand",
        action="store_true",
        help="print each scenario as a full JSON config",
    )
    list_p.add_argument("--out", help="write output to this path instead of stdout")

    verify_p = sub.add_parser(
        "verify", help="recompute embedded golden values and report pass/fail"
    )
    verify_p.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def _write_output(document: str, path: str | None) -> None:
    """Write atomically so a failed run never leaves partial output."""
    if path is None:
        sys.stdout.write(document)
        return
    temp_path = path + ".partial"
    with open(temp_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(document)
    os.replace(temp_path, path)


def _render(config: ScenarioConfig, args: argparse.Namespace) -> tuple[str, str | None]:
    fmt = args.format or config.output.format
    precision = (
        args.precision if args.precision is not None else config.output.precision
    )
    if not 0 <= precision <= 17:
        raise ValidationError(f"precision must lie in [0, 17], got {precision}")
    path = args.out or config.output.path
    result = run_config(config)
    if fmt == "csv":
        return emit_csv(result, precision), path
    chart = args.chart or _DEFAULT_CHART[config.model]
    return emit_svg(result, chart), path


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        if args.command == "run":
            try:
                with open(args.config_path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(
                    f"error: cannot read config {args.config_path!r}: {exc}",
                    file=sys.stderr,
                )
                return 2
            config = load_config(text)
            document, path = _render(config, args)
            _write_output(document, path)
        elif args.command == "scenario":
            config = builtin_scenario(args.name)
            document, path = _render(config, args)
            _write_output(document, path)
        elif args.command == "list-scenarios":
            if args.expand:
                expanded = {
                    name: {"model": _BUILTINS[name][0], "params": _BUILTINS[name][1]()}
                    for name in _BUILTINS
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
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
