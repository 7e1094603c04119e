"""Every frozen output and every refusal of the workmix CLI, each in one table, checked
by one runner.

``FROZEN`` maps an id to a catalogue ``Entry`` and its SHA-256: the benchmark's
catalogue (``bench/workloads.py``) with ``bench/digests.json``, plus ``_PINS``,
the outputs the catalogue lacks.  ``check`` runs an entry through
``cli.main(argv)`` in this process, then applies the benchmark's
``check_output`` (digest, then model invariants) and, for a lattice, its
``fixed_point_oracle`` bound.

``REFUSED`` maps an id, ``group/case``, to a ``Refusal``: an argv, a config
(None, a JSON value, raw text or raw bytes), the exit code and the one stderr
line, where ``{config}`` and ``{dir}`` stand for the config file and the run's
working directory.  ``check`` passes a refusal when the run exits with that
code, writes exactly that line to stderr and nothing to stdout, and leaves its
directory as it was set up.  Standard library only, so that
``PYTHONPATH=src python tests/frozen_outputs.py`` checks both tables without pytest.
"""

import contextlib
import functools
import importlib.util
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import workmix.cli as cli
from workmix.lattice import Line, beta_quantile_thetas, fixed_point_oracle
from workmix.numerics import BetaShape

_BENCH = Path(__file__).resolve().parent.parent / "bench"
# Imported by path under its own name, as the importlib docs show for a source file.
_spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CATALOGUE = {entry.id: entry for w in workloads.WORKLOADS.values() for entry in w.entries}
DIGESTS = json.loads((_BENCH / "digests.json").read_text())

_RUN = ("run", "{config}")
_P17 = ("--precision", "17")
_ONE_YEAR_BOUNDARY = {
    "model": "boundary",
    "params": {"alpha_h": 1.0, "beta_h": 1.5, "alpha_m": 1.3704, "beta_m": 2.5,
               "gamma": 0.04336, "p": 2.0, "q": 5.0, "horizon_years": 0},
}


def _pin(entry_id, argv, config=None):
    """A table entry for one CLI run; a ``scenario`` run's model is its builtin's."""
    model = config["model"] if config else cli.builtin_scenario(argv[1]).model
    return workloads.Entry(entry_id, model, "svg" if "svg" in argv else "csv", 1, config, argv)


def _svg(chart):
    return ("--format", "svg", "--chart", chart)


_PINS = [
    (_pin("pin/aggregate-line", ("scenario", "paper-aggregate") + _svg("line")),
     "334f3e0fe7df82e36ddd5c0da72698d367db3e89bd9d99f9f247c86e6ceaaf77"),
    (_pin("pin/replicator-multi-line", ("scenario", "paper-replicator") + _svg("multi-line")),
     "8d9672b0d2ff912273e39a5bdcceaaefee0cfdf867b7ca3dfe8fa4b75202f90f"),
    (_pin("pin/boundary-line", ("scenario", "paper-boundary") + _svg("line")),
     "09dc13ed37ef01908fb33ab69f43b695b7167aaa782eb537a30c9139bde3498a"),
    # Last row 60,994,0.994000: cut at max_years with 994 of 1,000 tasks automated,
    # though the fixed point (t = 71) automates all 1,000.
    (_pin("pin/lattice-default", _RUN, {"model": "lattice", "params": {"family": "linear"}}),
     "ac76d15bae4b3d0f3dd3203d451bd62a0ffc9889f9e2ecb9cf6f1f0fab93d89f"),
    # Last row 2.0,5,0.05,1.370381,0.666873,2039.
    (_pin("pin/sweep-axes-only", _RUN, {"model": "sweep", "params": {
        "p_values": [1.5, 2.0], "q_values": [5], "gamma_values": [0.03, 0.05]}}),
     "d44b5d046ec93f13a2fb59db4f619a3904f220e2293c891c228714eae88bac6c"),
    # One point: a single x tick, a zero-span x map and a padded flat y range.
    (_pin("pin/boundary-one-year-line", _RUN + _svg("line"), _ONE_YEAR_BOUNDARY),
     "c8b7e7318cdb458eab9480423652f995d1e86e14a2685e9fa10fbdeea74378a2"),
    # One year column: the cell edges of a single value.
    (_pin("pin/boundary-one-year-heatmap", _RUN + _svg("heatmap"), _ONE_YEAR_BOUNDARY),
     "e6db50f717795d6132c95c50d11cba7caa1d90c68545cf1776dbbf6b4931d89e"),
    # The share starts at its equilibrium and stays there.
    (_pin("pin/aggregate-flat-line", _RUN + _svg("line"), {
        "model": "aggregate", "params": {"alpha": 0.5, "beta": 0.5, "x0": 0.5}}),
     "ce960e05eed00911c7c4b4cd4fa075bc949fac5b009178c8d729d3b168985108"),
    (_pin("pin/sweep-one-cell-heatmap", _RUN + _svg("heatmap"), {"model": "sweep", "params": {
        "p_values": [2.0], "q_values": [5], "gamma_values": [0.05]}}),
     "08914347210b34a11ce1ebc5e1d838232735296e03f43e843f3409486b93b82a"),
]
# At 17 decimals a CSV prints each double exactly, so a change of one double in any
# computed value changes its bytes; at the default 6 it usually does not.
_PINS += [(_pin(f"precision-17/scenario-{name}", ("scenario", name) + _P17), digest)
          for name, digest in (
    ("paper-aggregate", "f2d7149b205436c2ef9938841cd53e67cf4feca22046abb278ec230a8980aa81"),
    ("paper-replicator", "10f1c37590ce5cfecf2c7bdf6737cd14d2adc0784a293a2e2b7d07079fea831a"),
    ("paper-boundary", "680960dd9c3a1a52333fa6fc5be67604444cba1774365fbf705ae1bead7d33a3"),
    ("paper-grid", "85de420bf3bd2b8baafd6c5aa2c268d45b2f5428eb489138a646a2bf44e1ddde"),
)]
_PINS += [(_pin(f"precision-17/sweep-grid/{tag}", _RUN + _P17,
                CATALOGUE[f"sweep-grid/{tag}"].config), digest) for tag, digest in (
    ("p0.8-q1-g0.01", "9b77646a595219c9484ad68f590752dd1a8a79b37106cf7bfba4a13d2333f6c4"),
    ("p0.8-q1-g0.015", "b6d7c9cc743428a8eb54e33f675427f3e6b82d292aaa4c32127bcffb1db04bbc"),
    ("p0.8-q2-g0.01", "36a4431da5fe691191bb133d65265ad8ea77765e755a4ac5e25daea68788a916"),
    ("p0.8-q2-g0.015", "46d80fc873ef97467044118abb83345150e91a4f0e80a43dbcd2b11e57afca65"),
    ("p1-q1-g0.01", "686c5482c63ba92e51682d0162d10f1d5379a66ef8e6e398e73d7131a60316a7"),
    ("p1-q1-g0.015", "ad7ea0c3bc83a99776e34561036bf20bf39b0ec0e31079ffeabb79fc0667bdd7"),
    ("p1-q2-g0.01", "89ce1c1faeec4fa783ae34091edfb24be2c1940340bc6e204aebff247b1b5ac9"),
    ("p1-q2-g0.015", "e0cc897d1f6d59065da5259bb9e1b217b4154595a2543b99887dea1c63f551ac"),
    ("p1.5-q1-g0.01", "ff8dee10b60ad46e6369228c085bcd44e523d93b05a7d93e3e754b7b7adff0da"),
    ("p1.5-q1-g0.015", "6e7a5caaa990ec5aee9dbd62b00e9205d3c20f8f116f876909e3b0d3a384bab5"),
    ("p1.5-q2-g0.01", "52e687d1f6ae501e87081c6523b4da7e4f64cedebe428737dc5a1320bf4b8318"),
    ("p1.5-q2-g0.015", "87a446776d7dfecbfef33b68e1ff69674df4be3698b01daf782c272bc406e180"),
)]

FROZEN = {entry_id: (entry, DIGESTS.get(entry_id)) for entry_id, entry in CATALOGUE.items()}
FROZEN.update((entry.id, (entry, digest)) for entry, digest in _PINS)


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

Refusal = namedtuple("Refusal", "argv config code line")
# A config that is an empty directory at {config} rather than a file.
DIRECTORY = object()
REFUSED = {}


def _refuse(row_id, argv, line, config=None, code=1):
    assert row_id not in REFUSED, row_id
    REFUSED[row_id] = Refusal(tuple(argv), config, code, line)


_AGGREGATE = ("scenario", "paper-aggregate")
_RUN_OUT = _RUN + ("--out", "out.csv")
_AGG = {"alpha": 0.1, "beta": 0.05, "x0": 0.1}
_CAT = {"x0": 0.3, "machine_intercept": 1.0, "machine_growth": 0.05, "human_payoff": 0.8}
_REP = {"routine": _CAT, "complex": _CAT, "sensitivity": 0.2, "w_routine": 0.6}
_BND = {"alpha_h": 1.0, "beta_h": 1.5, "alpha_m": 1.3704, "beta_m": 2.5,
        "gamma": 0.04336, "p": 2.0, "q": 5.0}
_SWP = {"p_values": [2.0], "q_values": [5], "gamma_values": [0.05]}
_TABLE = {"family": "table", "thetas": [0.2, 0.6], "human_values": [1.0, 1.0],
          "machine_rows": [[0.5, 0.2]]}
# The first of 20 Beta(2, 5) quantiles whose limit 1 - 2 theta is negative,
# as the error line prints it; its last digits follow ln B and the inverse.
_NEGATIVE_LIMIT_THETA = next(
    theta for theta in beta_quantile_thetas(20, BetaShape(2.0, 5.0)) if Line(1.0, -2.0)(theta) < 0
)
_AGG_TEXT = '{"model": "aggregate", "params": {"alpha": 0.1, "beta": 0.05, "x0": 0.1'
_MAX_DIGITS = sys.get_int_max_str_digits()
_SATURATING = {"family": "saturating", "n_tasks": 20, "limit_intercept": 1.0}


def _case(case_id, model, params, line, **document):
    """One single-fault config: the model, its params block, the stderr line."""
    return case_id, {"model": model, "params": params, **document}, line


# Configs that ``run {config} --out out.csv`` refuses with exit 1: (case, config, line).
_CONFIG_ERRORS = {
    "lattice-invariant": [
        _case("negative-limit", "lattice", dict(_SATURATING, limit_slope=2.0),
              f"error: machine limit is negative at theta={_NEGATIVE_LIMIT_THETA!r}; "
              "the saturating schedule would decrease in t"),
        _case("duplicate-thetas", "lattice", dict(_TABLE, thetas=[0.2, 0.2]),
              "error: table_universe requires distinct theta values"),
        _case("short-row", "lattice", dict(_TABLE, machine_rows=[[0.5, 0.2], [1.5]]),
              "error: machine_rows[1] has 1 entries, expected 2"),
        _case("zero-gamma", "lattice", {"family": "linear", "n_tasks": 20, "gamma": 0},
              "error: gamma must be positive, got 0"),
        _case("zero-p", "lattice", dict(_SATURATING, p=0, limit_slope=0.5),
              "error: beta shape parameters must be positive, got p=0, q=5.0"),
    ],
    # Every validation branch of loading.
    "config": [
        # config document
        ("parse-error", '{"model": ',
         "error: config parse error at line 1, column 11: Expecting value"),
        ("top-level-list", [1], "error: config must be a JSON object at top level"),
        ("missing-model", {"params": _AGG}, "error: missing required key 'model' in config"),
        _case("unknown-top-key", "aggregate", _AGG,
              "error: unknown key 'extra' in config", extra=1),
        _case("unknown-model", "quantum", _AGG,
              "error: unknown model 'quantum' (expected one of aggregate, "
              "replicator, boundary, lattice, sweep)"),
        _case("scenario-and-params", "aggregate", _AGG,
              "error: config must provide exactly one of 'scenario' or 'params'",
              scenario="paper-aggregate"),
        ("neither-scenario-nor-params", {"model": "aggregate"},
         "error: config must provide exactly one of 'scenario' or 'params'"),
        ("scenario-not-string", {"model": "aggregate", "scenario": 3},
         "error: scenario must be a string, got 3"),
        ("unknown-scenario", {"model": "aggregate", "scenario": "paper-unknown"},
         "error: unknown scenario 'paper-unknown' (builtins: paper-aggregate, "
         "paper-replicator, paper-boundary, paper-grid)"),
        ("scenario-model-mismatch", {"model": "aggregate", "scenario": "paper-grid"},
         "error: scenario 'paper-grid' belongs to model 'sweep', config says 'aggregate'"),
        # aggregate
        _case("aggregate-unknown-key", "aggregate", dict(_AGG, alpha2=9),
              "error: unknown key 'alpha2' in aggregate params"),
        _case("aggregate-missing-key", "aggregate", {"alpha": 0.1, "x0": 0.1},
              "error: missing required key 'beta' in aggregate params"),
        _case("aggregate-not-object", "aggregate", [0.1],
              "error: aggregate params must be an object, got list"),
        _case("aggregate-bool", "aggregate", dict(_AGG, alpha=True),
              "error: alpha must be a number, got True"),
        _case("aggregate-string", "aggregate", dict(_AGG, beta="0.05"),
              "error: beta must be a number, got '0.05'"),
        _case("aggregate-non-integer", "aggregate", dict(_AGG, start_year=2025.5),
              "error: start_year must be an integer, got 2025.5"),
        _case("aggregate-horizon", "aggregate", dict(_AGG, horizon_years=0),
              "error: horizon_years must be >= 1, got 0"),
        _case("aggregate-horizon-cap", "aggregate", dict(_AGG, horizon_years=10**8),
              "error: horizon_years must be <= 1000, got 100000000"),
        _case("aggregate-param-error", "aggregate", dict(_AGG, alpha=2),
              "error: alpha must lie in [0, 1], got 2"),
        # replicator
        _case("replicator-unknown-key", "replicator", dict(_REP, gamma=1),
              "error: unknown key 'gamma' in replicator params"),
        _case("replicator-missing-key", "replicator", {"routine": _CAT, "complex": _CAT},
              "error: missing required key 'sensitivity' in replicator params"),
        _case("replicator-nested-unknown-key", "replicator",
              dict(_REP, routine=dict(_CAT, slope=1)),
              "error: unknown key 'slope' in replicator params.routine"),
        _case("replicator-nested-missing-key", "replicator",
              dict(_REP, complex={"x0": 0.05}),
              "error: missing required key 'machine_intercept' in replicator params.complex"),
        _case("replicator-nested-not-object", "replicator", dict(_REP, routine=[1]),
              "error: replicator params.routine must be an object, got list"),
        _case("replicator-nested-number", "replicator",
              dict(_REP, complex=dict(_CAT, human_payoff="1.2")),
              "error: replicator params.complex.human_payoff must be a number, got '1.2'"),
        _case("replicator-horizon", "replicator", dict(_REP, horizon_years=0),
              "error: horizon_years must be >= 1, got 0"),
        _case("replicator-non-integer", "replicator", dict(_REP, horizon_years=True),
              "error: horizon_years must be an integer, got True"),
        _case("category-param-error", "replicator", dict(_REP, routine=dict(_CAT, x0=2)),
              "error: x0 must lie in [0, 1], got 2"),
        _case("replicator-param-error", "replicator", dict(_REP, sensitivity=0),
              "error: sensitivity must be positive, got 0"),
        _case("replicator-gap-at-start", "replicator", dict(_REP, sensitivity=1e300),
              "error: sensitivity * routine payoff gap (machine_intercept + machine_growth * t "
              "- human_payoff) must lie in [-1, 1] for t in [0, 19], "
              "got 1.9999999999999997e+299 at t=0"),
        _case("replicator-gap-at-end", "replicator",
              dict(_REP, routine=dict(_CAT, machine_growth=-1)),
              "error: sensitivity * routine payoff gap (machine_intercept + machine_growth * t "
              "- human_payoff) must lie in [-1, 1] for t in [0, 19], "
              "got -3.7600000000000002 at t=19"),
        _case("replicator-complex-gap", "replicator",
              dict(_REP, complex=dict(_CAT, human_payoff=-1e6), horizon_years=3),
              "error: sensitivity * complex payoff gap (machine_intercept + machine_growth * t "
              "- human_payoff) must lie in [-1, 1] for t in [0, 2], got 200000.2 at t=0"),
        # Shares at 0 never move, but the params would push any other share out.
        _case("replicator-gap-resting-shares", "replicator",
              dict(_REP, routine=dict(_CAT, x0=0), complex=dict(_CAT, x0=1), sensitivity=1e3),
              "error: sensitivity * routine payoff gap (machine_intercept + machine_growth * t "
              "- human_payoff) must lie in [-1, 1] for t in [0, 19], "
              "got 199.99999999999994 at t=0"),
        # boundary
        _case("boundary-unknown-key", "boundary", dict(_BND, delta=1),
              "error: unknown key 'delta' in boundary params"),
        _case("boundary-missing-key", "boundary", {k: v for k, v in _BND.items() if k != "q"},
              "error: missing required key 'q' in boundary params"),
        _case("boundary-string", "boundary", dict(_BND, p="2"),
              "error: p must be a number, got '2'"),
        _case("boundary-horizon", "boundary", dict(_BND, horizon_years=-1),
              "error: horizon_years must be >= 0, got -1"),
        _case("boundary-horizon-cap", "boundary", dict(_BND, horizon_years=1001),
              "error: horizon_years must be <= 1000, got 1001"),
        _case("boundary-param-error", "boundary", dict(_BND, gamma=0),
              "error: gamma must be positive, got 0"),
        _case("boundary-shape-error", "boundary", dict(_BND, q=-1),
              "error: beta shape parameters must be positive, got p=2.0, q=-1"),
        _case("boundary-shape-above-range", "boundary", dict(_BND, p=1e300),
              "error: p must lie in [0.001, 1000], the range of Beta shapes the CDF is "
              "tested on, got 1e+300"),
        _case("boundary-shape-below-range", "boundary", dict(_BND, q=5e-4),
              "error: q must lie in [0.001, 1000], the range of Beta shapes the CDF is "
              "tested on, got 0.0005"),
        # Coefficients whose difference or sum overflows would give theta_t = nan.
        _case("boundary-overflow-param-error", "boundary",
              dict(_BND, alpha_h=-1.7e308, alpha_m=1.7e308, beta_h=1.7e308, beta_m=1.7e308),
              "error: alpha_m - alpha_h must be finite, got inf"),
        _case("boundary-gap-overflow-param-error", "boundary",
              dict(_BND, alpha_h=1.7e308, alpha_m=-1.7e308, gamma=1.7e308),
              "error: alpha_m - alpha_h must be finite, got -inf"),
        # Admitted coefficients whose theta_t overflows: refused at the first such year.
        _case("boundary-theta-overflow", "boundary",
              dict(_BND, alpha_h=0, alpha_m=1.7e308, beta_h=1, beta_m=1, gamma=1.7e308),
              "error: theta_t = (alpha_m - alpha_h + gamma * t) / (beta_h + beta_m) must be "
              "finite, got inf at t=1"),
        _case("boundary-theta-subnormal-slopes", "boundary",
              dict(_BND, beta_h=5e-324, beta_m=5e-324),
              "error: theta_t = (alpha_m - alpha_h + gamma * t) / (beta_h + beta_m) must be "
              "finite, got inf at t=0"),
        _case("boundary-theta-negative-overflow", "boundary",
              dict(_BND, alpha_m=-1.0, beta_h=5e-324, beta_m=5e-324),
              "error: theta_t = (alpha_m - alpha_h + gamma * t) / (beta_h + beta_m) must be "
              "finite, got -inf at t=0"),
        # sweep
        _case("sweep-unknown-key", "sweep", dict(_SWP, r_values=[1]),
              "error: unknown key 'r_values' in sweep params"),
        _case("sweep-missing-key", "sweep", {"p_values": [2.0], "q_values": [5]},
              "error: missing required key 'gamma_values' in sweep params"),
        _case("sweep-empty-list", "sweep", dict(_SWP, p_values=[]),
              "error: p_values must be a non-empty list of numbers"),
        _case("sweep-not-list", "sweep", dict(_SWP, q_values=5),
              "error: q_values must be a non-empty list of numbers"),
        _case("sweep-list-element", "sweep", dict(_SWP, q_values=[5, "x"]),
              "error: q_values[1] must be a number, got 'x'"),
        _case("sweep-p-above-range", "sweep", dict(_SWP, p_values=[1e300]),
              "error: p_values[0] must lie in [0.001, 1000], the range of Beta shapes the "
              "CDF is tested on, got 1e+300"),
        _case("sweep-q-below-range", "sweep", dict(_SWP, q_values=[5, 1e-4]),
              "error: q_values[1] must lie in [0.001, 1000], the range of Beta shapes the "
              "CDF is tested on, got 0.0001"),
        _case("sweep-non-integer", "sweep", dict(_SWP, horizon_years=20.0),
              "error: horizon_years must be an integer, got 20.0"),
        _case("grid-param-error", "sweep", dict(_SWP, gamma_values=[0.05, 0.03]),
              "error: gamma_values must be strictly ascending, got (0.05, 0.03)"),
        _case("grid-horizon", "sweep", dict(_SWP, horizon_years=0),
              "error: horizon_years must be >= 1, got 0"),
        _case("sweep-horizon-cap", "sweep", dict(_SWP, horizon_years=5000),
              "error: horizon_years must be <= 1000, got 5000"),
        _case("sweep-cells-cap", "sweep",
              dict(_SWP, p_values=[1 + i / 100 for i in range(101)],
                   q_values=list(range(1, 101))),
              "error: p_values x q_values x gamma_values must give at most 10000 cells, "
              "got 10100"),
        # The cap is checked before the grid's own invariants.
        _case("sweep-cells-cap-before-order", "sweep",
              dict(_SWP, p_values=[2 - i / 100 for i in range(101)],
                   q_values=list(range(1, 101))),
              "error: p_values x q_values x gamma_values must give at most 10000 cells, "
              "got 10100"),
        _case("sweep-not-object", "sweep", "grid",
              "error: sweep params must be an object, got str"),
        _case("grid-overflow-param-error", "sweep", dict(_SWP, beta_h=1.7e308, beta_m=1.7e308),
              "error: beta_h + beta_m must be finite, got inf"),
        _case("grid-human-slope-param-error", "sweep", dict(_SWP, beta_h=0),
              "error: beta_h must be positive, got 0"),
        _case("grid-machine-slope-param-error", "sweep", dict(_SWP, beta_m=-1.0),
              "error: beta_m must be positive, got -1.0"),
        # Admitted at load: the recalibrated alpha_m overflows only when the grid runs.
        _case("sweep-intercept-overflow", "sweep",
              dict(_SWP, alpha_h=1.7e308, beta_h=0.85e308, beta_m=0.85e308,
                   initial_share_target=0.9),
              "error: the recalibrated intercept alpha_h + (beta_h + beta_m) * theta_0 "
              "overflows a double at p=2.0, q=5, where theta_0 is the Beta(p, q) quantile at "
              "initial_share_target"),
        _case("sweep-heatmap-axis-overflow", "sweep", dict(_SWP, gamma_values=[1e308, 1.7e308]),
              "error: heatmap gamma axis does not fit in a double: its cells must span "
              "a finite range", output={"format": "svg"}),
        # lattice
        _case("lattice-not-object", "lattice", [1], "error: lattice params must be an object"),
        _case("lattice-family", "lattice", {"family": "cubic"},
              "error: lattice params require family 'linear', 'saturating', or 'table', "
              "got 'cubic'"),
        _case("lattice-no-family", "lattice", {"n_tasks": 5},
              "error: lattice params require family 'linear', 'saturating', or 'table', "
              "got None"),
        _case("lattice-unknown-key", "lattice", {"family": "linear", "rows": 1},
              "error: unknown key 'rows' in lattice params"),
        _case("lattice-family-before-keys", "lattice", {"family": "cubic", "rows": 1},
              "error: lattice params require family 'linear', 'saturating', or 'table', "
              "got 'cubic'"),
        _case("lattice-foreign-key", "lattice", {"family": "table", "thetas": [0.5],
                                                 "human_values": [1], "machine_rows": [[1]],
                                                 "gamma": 0.1},
              "error: unknown key 'gamma' in lattice params"),
        _case("lattice-missing-key", "lattice", {"family": "saturating", "limit_intercept": 1},
              "error: missing required key 'limit_slope' in lattice params"),
        _case("lattice-number", "lattice", {"family": "linear", "alpha_m": None},
              "error: alpha_m must be a number, got None"),
        _case("lattice-rows-not-list", "lattice", dict(_TABLE, machine_rows={"0": [1]}),
              "error: machine_rows must be a non-empty list of rows"),
        _case("lattice-rows-empty", "lattice", dict(_TABLE, machine_rows=[]),
              "error: machine_rows must be a non-empty list of rows"),
        _case("lattice-row-not-list", "lattice", dict(_TABLE, machine_rows=[0.5]),
              "error: machine_rows[0] must be a non-empty list of numbers"),
        _case("lattice-row-element", "lattice", dict(_TABLE, machine_rows=[[0.5, "a"]]),
              "error: machine_rows[0][1] must be a number, got 'a'"),
        _case("lattice-thetas-element", "lattice", dict(_TABLE, thetas=[0.2, False]),
              "error: thetas[1] must be a number, got False"),
        _case("lattice-p-below-range", "lattice", {"family": "linear", "p": 5e-4},
              "error: p must lie in [0.001, 1000], the range of Beta shapes the CDF is "
              "tested on, got 0.0005"),
        _case("lattice-q-above-range", "lattice",
              {"family": "saturating", "limit_intercept": 1, "limit_slope": 0.5, "q": 2000},
              "error: q must lie in [0.001, 1000], the range of Beta shapes the CDF is "
              "tested on, got 2000"),
        _case("lattice-n-tasks", "lattice", {"family": "linear", "n_tasks": 0},
              "error: n_tasks must be >= 1, got 0"),
        _case("lattice-n-tasks-non-integer", "lattice", {"family": "linear", "n_tasks": 1.5},
              "error: n_tasks must be an integer, got 1.5"),
        _case("lattice-max-years", "lattice", dict(_TABLE, max_years=0),
              "error: max_years must be >= 1, got 0"),
        _case("lattice-max-years-cap", "lattice", dict(_TABLE, max_years=1001),
              "error: max_years must be <= 1000, got 1001"),
        _case("lattice-n-tasks-cap", "lattice", {"family": "linear", "n_tasks": 10**6},
              "error: n_tasks must be <= 10000, got 1000000"),
        _case("lattice-rows-cap", "lattice", dict(_TABLE, machine_rows=[[0.5, 0.2]] * 1001),
              "error: machine_rows must have at most 1000 entries, got 1001"),
        _case("lattice-thetas-cap", "lattice", dict(_TABLE, thetas=[0.5] * 10001),
              "error: thetas must have at most 10000 entries, got 10001"),
        _case("lattice-human-values-cap", "lattice", dict(_TABLE, human_values=[1.0] * 10001),
              "error: human_values must have at most 10000 entries, got 10001"),
        _case("lattice-stability-window", "lattice",
              {"family": "saturating", "limit_intercept": 1, "limit_slope": 0,
               "stability_window": -2},
              "error: stability_window must be >= 1, got -2"),
        # output block
        _case("output-not-object", "aggregate", _AGG,
              "error: output must be an object, got str", output="csv"),
        _case("output-unknown-key", "aggregate", _AGG,
              "error: unknown key 'formats' in output", output={"formats": "csv"}),
        _case("output-format", "aggregate", _AGG,
              "error: output.format must be 'csv' or 'svg', got 'png'",
              output={"format": "png"}),
        _case("output-precision-range", "aggregate", _AGG,
              "error: output.precision must lie in [0, 17], got 99",
              output={"precision": 99}),
        _case("output-precision-non-integer", "aggregate", _AGG,
              "error: output.precision must be an integer, got '3'",
              output={"precision": "3"}),
        _case("output-path", "aggregate", _AGG,
              "error: output.path must be a string, got 5", output={"path": 5}),
        _case("output-path-empty", "aggregate", _AGG,
              "error: output.path must not be empty", output={"path": ""}),
    ],
    "double-range": [
        _case(case_id, model, params, f"error: {label} must lie within the range of a double, "
              "got an integer of 401 digits")
        for case_id, model, params, label in (
            ("boundary-shape", "boundary", dict(_BND, p=10**400), "p"),
            ("lattice-linear", "lattice",
             {"family": "linear", "n_tasks": 5, "alpha_m": -10**400}, "alpha_m"),
            ("sweep-grid", "sweep", dict(_SWP, gamma_values=[0.05, 10**400]),
             "gamma_values[1]"),
            ("integer-field", "aggregate", dict(_AGG, start_year=10**400), "start_year"),
        )
    ],
    "digit-limit": [
        ("start-year", _AGG_TEXT + ', "start_year": ' + "1" * (_MAX_DIGITS + 1) + "}}",
         f"error: config parse error: an integer literal has more than {_MAX_DIGITS} digits"),
    ],
    "unhashable-family": [
        _case("list", "lattice", {"family": ["linear"]},
              "error: lattice params require family 'linear', 'saturating', or 'table', "
              "got ['linear']"),
    ],
    "deep-nesting": [
        ("arrays", "[" * 10**5 + "]" * 10**5,
         "error: config parse error: arrays or objects nested too deeply"),
    ],
    "no-partial-output": [
        _case("missing-key", "aggregate", {"alpha": 2},
              "error: missing required key 'beta' in aggregate params"),
    ],
}


for group, rows in _CONFIG_ERRORS.items():
    for case_id, config, line in rows:
        _refuse(f"{group}/{case_id}", _RUN_OUT, line, config)

_NOT_UTF8 = _AGG_TEXT.encode() + b'}, "note": "'
_refuse("not-utf8/byte-0xff", _RUN, "error: cannot read config '{config}': not UTF-8 "
        f"(byte 0xff at offset {len(_NOT_UTF8)})", _NOT_UTF8 + b'\xff"}')
_refuse("scalar-nan/alpha-h", _RUN, "error: alpha_h must be a finite number, got nan",
        {"model": "boundary", "params": dict(cli.builtin_scenario("paper-boundary").params,
                                             alpha_h=float("nan"))})
_refuse("list-infinity/gamma-values", _RUN, "error: gamma_values[1] must be a finite number, "
        "got inf", '{"model": "sweep", "params": {"p_values": [2.0], "q_values": [5], '
        '"gamma_values": [0.05, Infinity]}}')

# Exit codes: 2 for a file the CLI cannot read or write, 1 for anything it refuses.
_OTHER_CHART = "error: chart 'heatmap' does not apply to model 'aggregate'"
_refuse("exit-codes/missing-config", ("run", "{dir}/missing.json"), "error: cannot read config "
        "'{dir}/missing.json': [Errno 2] No such file or directory: '{dir}/missing.json'", code=2)
_refuse("exit-codes/bad-config", _RUN, "error: missing required key 'beta' in aggregate params",
        {"model": "aggregate", "params": {"alpha": 2}})
_refuse("exit-codes/unknown-scenario", ("scenario", "nope"), "error: unknown scenario 'nope' "
        "(builtins: paper-aggregate, paper-replicator, paper-boundary, paper-grid)")
_refuse("exit-codes/chart-of-another-model",
        _AGGREGATE + ("--chart", "heatmap", "--format", "svg"), _OTHER_CHART)
# The config stands for an existing output file, which a failed run leaves as it was.
_refuse("existing-file/chart-of-another-model",
        _AGGREGATE + ("--format", "svg", "--chart", "heatmap", "--out", "{config}"),
        _OTHER_CHART, "keep me\n")
_refuse("out-directory/existing", _AGGREGATE + ("--out", "{config}"),
        "error: cannot write '{config}': Is a directory", DIRECTORY, code=2)
_refuse("missing-out-directory/shares", _AGGREGATE + ("--out", "{dir}/missing/shares.csv"),
        "error: cannot write '{dir}/missing/shares.csv': No such file or directory", code=2)
# An empty --out neither falls back to output.path nor reaches a write.
for command in (_RUN, _AGGREGATE, ("list-scenarios",), ("verify",)):
    _refuse(f"empty-out/{command[0]}", command + ("--out", ""), "error: --out must not be empty",
            {"model": "aggregate", "scenario": "paper-aggregate", "output": {"path": "out.csv"}})
# theta_t stays finite, but the payoff advantage overflows from 2026 on.
_refuse("infinite-cell/boundary-heatmap",
        _RUN + ("--format", "svg", "--chart", "heatmap", "--out", "chart.svg"),
        "error: heatmap cell at year=2026.0, theta=0.0 must be finite, got inf",
        {"model": "boundary", "params": dict(_BND, alpha_h=1e308, alpha_m=1e308, gamma=1e308,
                                             beta_h=1, beta_m=1, horizon_years=1)})
_refuse("sweep-heatmap/two-q-values", _RUN + ("--format", "svg"),
        "error: sweep heatmap needs exactly one q value; got 2 (filter the grid first)",
        {"model": "sweep", "params": dict(_SWP, q_values=[3, 5])})
# --chart needs SVG output, and its mirror: --precision needs CSV output.
for case_id, argv, output in (
    ("scenario", _AGGREGATE + ("--chart", "heatmap"), None),
    ("run-csv-config", _RUN + ("--chart", "line"), {"format": "csv"}),
    ("run-csv-flag", _RUN + ("--format", "csv", "--chart", "line"), {"format": "svg"}),
    ("precision-svg-flag", _AGGREGATE + ("--format", "svg", "--precision", "3"), None),
    ("precision-svg-flag-out-of-range", _AGGREGATE + ("--format", "svg", "--precision", "18"),
     None),
    ("precision-svg-config", _RUN + ("--precision", "3"), {"format": "svg"}),
):
    _refuse(f"chart-needs-svg/{case_id}", argv + ("--out", "out.csv"),
            "error: --chart needs SVG output, got format 'csv'" if "--chart" in argv
            else "error: --precision needs CSV output, got format 'svg'",
            {"model": "aggregate", "params": _AGG, "output": output})
_refuse("precision-flag/18", _AGGREGATE + ("--precision", "18"),
        "error: precision must lie in [0, 17], got 18")

_COMMAND_CHOICES = "(choose from 'run', 'scenario', 'list-scenarios', 'verify')"
_BIG_PRECISION = "9" * 5000
# argv the CLI refuses, each with its one stderr line and exit 1.  The lines
# are argparse's, so the reader that replaced it says the same.
for case_id, argv, message in (
    ("no-command", [], "the following arguments are required: command"),
    ("no-command-after-option", ["--bogus"], "the following arguments are required: command"),
    ("no-name", ["scenario"], "the following arguments are required: name"),
    ("no-config-path", ["run"], "the following arguments are required: config_path"),
    ("bad-command", ["frobnicate"],
     f"argument command: invalid choice: 'frobnicate' {_COMMAND_CHOICES}"),
    ("bad-command-then-help", ["frobnicate", "--help"],
     f"argument command: invalid choice: 'frobnicate' {_COMMAND_CHOICES}"),
    ("dashes-as-command", ["--", *_AGGREGATE],
     f"argument command: invalid choice: '--' {_COMMAND_CHOICES}"),
    ("bad-format", [*_AGGREGATE, "--format", "x"],
     "argument --format: invalid choice: 'x' (choose from 'csv', 'svg')"),
    ("bad-chart", [*_AGGREGATE, "--format", "svg", "--chart", "pie"],
     "argument --chart: invalid choice: 'pie' (choose from 'line', 'multi-line', 'heatmap')"),
    ("bad-int", [*_AGGREGATE, "--precision", "x"], "argument --precision: invalid int value: 'x'"),
    ("int-over-digit-limit", [*_AGGREGATE, "--precision", _BIG_PRECISION],
     f"argument --precision: invalid int value: {_BIG_PRECISION!r}"),
    ("negative-precision", [*_AGGREGATE, "--precision", "-1"],
     "precision must lie in [0, 17], got -1"),
    ("bad-int-then-help", ["scenario", "--precision", "x", "--help"],
     "argument --precision: invalid int value: 'x'"),
    ("out-without-value", [*_AGGREGATE, "--out"], "argument --out: expected one argument"),
    ("out-before-flag", [*_AGGREGATE, "--out", "--format", "svg"],
     "argument --out: expected one argument"),
    ("out-before-option", [*_AGGREGATE, "--out", "-x"], "argument --out: expected one argument"),
    ("out-before-dashes", [*_AGGREGATE, "--out", "--", "x"],
     "argument --out: expected one argument"),
    ("unknown-flag", [*_AGGREGATE, "--bogus"], "unrecognized arguments: --bogus"),
    ("second-positional", [*_AGGREGATE, "b"], "unrecognized arguments: b"),
    ("verify-positional", ["verify", "b"], "unrecognized arguments: b"),
    ("unknown-flag-before-command", ["--bogus", *_AGGREGATE], "unrecognized arguments: --bogus"),
    ("unknown-in-order", ["--x", "verify", "--y", "b", "--z=3", "-p"],
     "unrecognized arguments: --x --y b --z=3 -p"),
    ("verify-dashes", ["verify", "--"], "unrecognized arguments: --"),
    ("dashes-apart-from-name", ["scenario", "a", "--bogus", "--", "b"],
     "unrecognized arguments: --bogus -- b"),
    ("flag-after-dashes", [*_AGGREGATE, "--", "--out", "x"], "unrecognized arguments: --out x"),
    ("switch-with-value", ["list-scenarios", "--expand=1"],
     "argument --expand: ignored explicit argument '1'"),
    ("help-with-value", ["--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    ("short-help-with-value", ["-help"], "argument -h/--help: ignored explicit argument 'elp'"),
    ("ambiguous", [*_AGGREGATE, "--=x"],
     "ambiguous option: --=x could match --help, --out, --format, --precision, --chart"),
):
    _refuse(f"argv/{case_id}", argv, f"error: {message}")
# The same refusals again, for the tests of the exit code and of the console script.
for row_id, same in (("usage/bad-command", "argv/bad-command"),
                     ("usage/no-command", "argv/no-command"),
                     ("console-script/bad-command", "argv/bad-command")):
    REFUSED[row_id] = REFUSED[same]

# Words that start with "-", each with whether argparse reads it as an argument
# rather than an option: "-" alone, and those its ^-\d+$|^-\d*\.\d+$ matches,
# where "$" also matches before a final newline and "\d" is any decimal digit
# (str.isdecimal: "-٣" is a number, the superscript "-²" is not).
DASH_WORDS = [
    ("-1", True), ("-0", True), ("-.5", True), ("-1.", False), ("-1e3", False),
    ("--1", False), ("-", True), ("-x", False), ("-.5.5", False), ("-1\n", True),
    ("-٣", True), ("-²", False),
]
for word, argument in DASH_WORDS:
    # A word read as an argument is a valid --out path, and a scenario that does not exist.
    if not argument:
        _refuse(f"dash-flag-value/{word!a}", _AGGREGATE + ("--out", word),
                "error: argument --out: expected one argument")
    _refuse(f"dash-positional/{word!a}", ("scenario", word),
            f"error: unknown scenario {word!r} (builtins: paper-aggregate, paper-replicator, "
            "paper-boundary, paper-grid)" if argument
            else "error: the following arguments are required: name")


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

# touched: the names in the working directory that the run added, removed or changed.
Outcome = namedtuple("Outcome", "code out err touched")


@functools.cache
def _workdir():
    """The working directory of every run: empty when a run starts, removed at exit."""
    return tempfile.TemporaryDirectory(prefix="workmix-runs-")


def run(argv, config=None):
    """The ``Outcome`` of ``cli.main(argv)`` run in an empty working directory, ``{dir}``.

    The config is written there first as ``config.json``, ``{config}``: text or
    bytes as they are, DIRECTORY as an empty directory, any other value as JSON.
    Stderr names both paths by their placeholders.
    """
    tmp, cwd = _workdir().name, os.getcwd()
    path = os.path.join(tmp, "config.json")
    out, err = io.StringIO(), io.StringIO()
    try:
        if config is DIRECTORY:
            os.mkdir(path)
        elif config is not None:
            text = config if isinstance(config, (str, bytes)) else json.dumps(config)
            Path(path).write_bytes(text if isinstance(text, bytes) else text.encode())
        before = _contents(tmp)
        os.chdir(tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{config}", path).replace("{dir}", tmp) for arg in argv])
        after = _contents(tmp)
    finally:
        os.chdir(cwd)
        for entry in os.scandir(tmp):
            (shutil.rmtree if entry.is_dir(follow_symlinks=False) else os.unlink)(entry.path)
    touched = sorted(name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name))
    err = err.getvalue().replace(path, "{config}").replace(tmp, "{dir}")
    return Outcome(code, out.getvalue(), err, touched)


def _contents(directory):
    """Each entry's bytes by name; a subdirectory's are its own contents."""
    return {entry.name: _contents(entry.path) if entry.is_dir() else Path(entry.path).read_bytes()
            for entry in os.scandir(directory)}


def refusal_fault(outcome, code=1, line=None):
    """None when the outcome is a clean refusal; otherwise how it differs from one.

    A clean refusal exits ``code``, writes nothing to stdout, leaves its working
    directory as it was set up, and writes one line to stderr: ``line`` itself,
    or any ``error: ...`` line when ``line`` is None.
    """
    err = outcome.err
    if line is None and err.startswith("error: ") and err.find("\n") == len(err) - 1:
        line = err[:-1]
    want = Outcome(code, "", "error: ...\n" if line is None else f"{line}\n", [])
    return "; ".join(f"{name} {got!r:.200}, want {wanted!r}"
                     for name, got, wanted in zip(Outcome._fields, outcome, want)
                     if got != wanted) or None


def check(entry_id):
    """None when the id's run is as its table says; otherwise a one-line reason."""
    if entry_id in REFUSED:
        row = REFUSED[entry_id]
        return refusal_fault(run(row.argv, row.config), row.code, row.line)
    entry, digest = FROZEN[entry_id]
    text = None if entry.config is None else entry.config_text()
    code, out, err, _ = run(entry.argv or _RUN, text)
    if code != 0 or err:
        return f"exit {code}: {err.strip()}"
    reason = workloads.check_output(entry, out.encode("utf-8"), {entry_id: digest})
    if reason is None and entry.model == "lattice":
        config = cli.load_config(entry.config_text())
        trace, n_tasks = cli.run_config(config).data
        universe = cli.LatticeRun(config.params).build_universe()
        oracle = fixed_point_oracle(universe).automated
        if len(universe) != n_tasks or not trace.final.automated <= oracle:
            return "the final allocation lies outside the fixed-point oracle"
    return reason


def main():
    failed = 0
    for table, what in ((FROZEN, "frozen outputs"), (REFUSED, "refusals")):
        table_failed = 0
        for entry_id in sorted(table):
            reason = check(entry_id)
            table_failed += reason is not None
            print(f"FAIL {entry_id}: {reason}" if reason else f"ok   {entry_id}")
        print(f"{len(table) - table_failed}/{len(table)} {what} match "
              f"on Python {platform.python_version()}")
        failed += table_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
