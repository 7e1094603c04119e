"""Workload catalogues, seeded schedules and output checks for the benchmark.

Every workload draws its operations from a finite catalogue that lives in
this file.  Each catalogue entry has a stable id, and ``digests.json`` holds
the SHA-256 of the output that entry produced when the catalogue was frozen.
The seed chooses the order of the entries; the program sees nothing but the
generated configs, argv and files.

Schedules are built from decks.  A deck is the whole catalogue in seeded
order; a run cycles through fresh decks until its time is up and ends on a
deck boundary, so every run measures the same mix of inputs whatever the
seed.  The entries differ in cost, and an earlier design in which the seed
also chose among variants moved the medians more than the machine did.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Iterator

# Shares must stay inside [0, 1]; the CSVs print 6 decimals by default.
_SHARE_COLUMNS = {
    "aggregate": ("share",),
    "replicator": ("x_routine", "x_complex", "x_total"),
    "boundary": ("share",),
    "sweep": ("final_share",),
    "lattice": ("share",),
}
_HEADERS = {
    "aggregate": "year,share",
    "replicator": "year,x_routine,x_complex,x_total",
    "boundary": "year,theta,share",
    "sweep": "p,q,gamma,alpha_M,final_share,cross50_year",
    "lattice": "t,automated_count,share",
}
# Models whose share must never fall from one row to the next.
_MONOTONE = ("boundary", "lattice")


@dataclass(frozen=True)
class Entry:
    """One catalogue input.

    ``config`` is the JSON document for ``run``/in-process entries (None
    for argv-only CLI entries such as ``verify``); ``argv`` holds the CLI
    arguments after ``python -m workmix.cli``, with ``{config}`` standing
    for the path of the written config file.  ``units`` is the work the
    entry represents: 1 for a CLI process, tasks for a lattice run, grid
    cells for a sweep.
    """

    id: str
    model: str | None
    output: str  # "csv", "svg", "verify" or "json"
    units: int
    config: dict | None = None
    argv: tuple[str, ...] = ()

    def config_text(self) -> str:
        return json.dumps(self.config, sort_keys=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_process: bool
    entries: tuple  # the catalogue: every Entry of the workload

    def schedule(self, seed: int) -> Iterator[Entry]:
        """Endless stream of decks; a deck is the catalogue in seeded order."""
        rng = random.Random(seed)
        while True:
            deck = list(self.entries)
            rng.shuffle(deck)
            yield from deck


# ---------------------------------------------------------------------------
# cli-scenarios
# ---------------------------------------------------------------------------

def _cli_entries() -> tuple:
    def scenario(name: str, *extra: str, output: str = "csv", model: str) -> Entry:
        tag = "-".join((name,) + tuple(a.lstrip("-") for a in extra))
        return Entry(f"cli/scenario-{tag}", model, output, 1, argv=("scenario", name) + extra)

    def run(tag: str, model: str, params: dict, output: dict | None = None) -> Entry:
        document = {"model": model, "params": params}
        if output is not None:
            document["output"] = output
        fmt = (output or {}).get("format", "csv")
        return Entry(f"cli/run-{tag}", model, fmt, 1, config=document, argv=("run", "{config}"))

    return (
        scenario("paper-aggregate", model="aggregate"),
        scenario("paper-replicator", model="replicator"),
        scenario("paper-boundary", model="boundary"),
        scenario("paper-grid", model="sweep"),
        scenario("paper-boundary", "--format", "svg", "--chart", "heatmap",
                 output="svg", model="boundary"),
        scenario("paper-grid", "--format", "svg", output="svg", model="sweep"),
        run("aggregate-a", "aggregate", {"alpha": 0.1, "beta": 0.05, "x0": 0.1}),
        run("aggregate-b", "aggregate", {"alpha": 0.2, "beta": 0.1, "x0": 0.0,
                                         "horizon_years": 40},
            {"format": "svg"}),
        run("replicator-a", "replicator", {
            "routine": {"x0": 0.3, "machine_intercept": 1.0, "machine_growth": 0.05,
                        "human_payoff": 0.8},
            "complex": {"x0": 0.05, "machine_intercept": 0.5, "machine_growth": 0.02,
                        "human_payoff": 1.2},
            "sensitivity": 0.2, "w_routine": 0.6}),
        run("replicator-b", "replicator", {
            "routine": {"x0": 0.2, "machine_intercept": 0.9, "machine_growth": 0.08,
                        "human_payoff": 1.0},
            "complex": {"x0": 0.1, "machine_intercept": 0.4, "machine_growth": 0.04,
                        "human_payoff": 1.1},
            "sensitivity": 0.3, "w_routine": 0.5, "horizon_years": 30},
            {"format": "svg"}),
        run("boundary-a", "boundary", {
            "alpha_h": 1.0, "beta_h": 1.5, "alpha_m": 1.3704, "beta_m": 2.5,
            "gamma": 0.04336, "p": 2, "q": 5}, {"precision": 4}),
        run("boundary-b", "boundary", {
            "alpha_h": 1.0, "beta_h": 1.2, "alpha_m": 1.2, "beta_m": 2.0,
            "gamma": 0.03, "p": 1.5, "q": 3, "horizon_years": 30}),
        run("sweep-a", "sweep", {"p_values": [1.5, 2.5, 3.5], "q_values": [5],
                                 "gamma_values": [0.03, 0.05]}),
        run("sweep-b", "sweep", {"p_values": [1.0, 2.0], "q_values": [3, 6],
                                 "gamma_values": [0.02, 0.04, 0.06],
                                 "horizon_years": 30}),
        run("lattice-linear-a", "lattice", {"family": "linear", "n_tasks": 40}),
        run("lattice-linear-b", "lattice", {"family": "linear", "n_tasks": 50,
                                            "p": 3.0, "q": 3.0, "gamma": 0.06},
            {"format": "svg"}),
        run("lattice-saturating-a", "lattice", {
            "family": "saturating", "n_tasks": 30, "limit_intercept": 3.0,
            "limit_slope": 2.0}),
        run("lattice-saturating-b", "lattice", {
            "family": "saturating", "n_tasks": 50, "p": 5.0, "q": 2.0,
            "limit_intercept": 2.5, "limit_slope": 1.0}),
        run("lattice-table-a", "lattice", _table_params(20, 10, 7)),
        run("lattice-table-b", "lattice", _table_params(12, 6, 8)),
        Entry("cli/verify", None, "verify", 1, argv=("verify",)),
        Entry("cli/list-scenarios-expand", None, "json", 1,
              argv=("list-scenarios", "--expand")),
    )


# ---------------------------------------------------------------------------
# lattice-beta
# ---------------------------------------------------------------------------

# Operations stay under about a second, short next to the machine's speed
# changes (see bench/speed.py); the cost per task is the same at any size.
_BETA_SIZES = (100, 200, 400)
# The paper's shape and its mirror image.
_BETA_SHAPES = ((2.0, 5.0), (5.0, 2.0))
_LINEAR_GAMMAS = (0.04336, 0.05)
_SATURATING_LIMITS = ((3.0, 2.0), (2.5, 1.0))


def _beta_entry(family: str, shape_index: int, n: int) -> Entry:
    p, q = _BETA_SHAPES[shape_index]
    params = {"family": family, "n_tasks": n, "p": p, "q": q}
    if family == "linear":
        params["gamma"] = _LINEAR_GAMMAS[shape_index]
    else:
        params["limit_intercept"], params["limit_slope"] = _SATURATING_LIMITS[shape_index]
    return Entry(f"lattice-beta/{family}-p{p:g}-q{q:g}-n{n}", "lattice", "csv",
                 n, config={"model": "lattice", "params": params})


def _beta_entries() -> tuple:
    """Every size in both families and both shapes."""
    return tuple(
        _beta_entry(family, shape, n)
        for n in _BETA_SIZES
        for family in ("linear", "saturating")
        for shape in range(len(_BETA_SHAPES))
    )


# ---------------------------------------------------------------------------
# Table lattices (small ones, run by cli-scenarios)
# ---------------------------------------------------------------------------

def _table_params(n: int, rows: int, variant: int) -> dict:
    """A table universe whose machine rows rise towards the human values.

    Thetas are distinct and ascending, every machine column is
    non-decreasing, and tasks cross at spread-out years, so the allocation
    keeps growing and ``max_years`` covers every row.
    """
    rng = random.Random(n * 1000 + rows * 10 + variant)
    thetas = [round((i + 0.1 + 0.8 * rng.random()) / n, 9) for i in range(n)]
    human = [round(1.0 + 1.5 * theta + 0.2 * rng.random(), 6) for theta in thetas]
    level = [round(0.4 + rng.random(), 6) for _ in range(n)]
    step = [2.2 * rng.random() / rows for _ in range(n)]
    machine_rows = []
    for _ in range(rows):
        level = [round(value + s * rng.random() * 2.0, 6) for value, s in zip(level, step)]
        machine_rows.append(level)
    return {
        "family": "table",
        "thetas": thetas,
        "human_values": human,
        "machine_rows": machine_rows,
        "max_years": rows,
    }


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------

def _axis(start: float, step: float, count: int) -> list:
    return [round(start + step * i, 4) for i in range(count)]


def _sweep_entries() -> tuple:
    entries = []
    for p_start in (0.8, 1.0, 1.5):
        for q_start in (1.0, 2.0):
            for gamma_start, target in ((0.01, 0.1), (0.015, 0.05)):
                params = {
                    "p_values": _axis(p_start, 0.5, 8),
                    "q_values": _axis(q_start, 0.75, 8),
                    "gamma_values": _axis(gamma_start, 0.0025, 20),
                    "horizon_years": 60,
                    "initial_share_target": target,
                }
                tag = f"p{p_start:g}-q{q_start:g}-g{gamma_start:g}"
                entries.append(Entry(f"sweep-grid/{tag}", "sweep", "csv", 8 * 8 * 20,
                                     config={"model": "sweep", "params": params}))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Registry.  Each reason is also the ``why`` in BENCHMARK.json.
# ---------------------------------------------------------------------------

WORKLOADS = {
    # Interpreter start plus `import workmix` (NumPy most of it) is ~90% of
    # each run; the only workload where import, svgplot and verify_goldens
    # reach an end-to-end number.
    "cli-scenarios": Workload(
        "cli-scenarios",
        "one `python -m workmix.cli` process per op: builtins, SVG charts, small "
        "configs of every model, verify, list-scenarios; startup and import dominate",
        False,
        _cli_entries(),
    ),
    # Beta-quantile inversion is ~95% of the time (~54 CDF evaluations per
    # quantile, universe built 3 times per run); delegation ~2%.
    "lattice-beta": Workload(
        "lattice-beta",
        "linear and saturating lattices, 100-400 tasks, in process; the Beta "
        "quantile inversion (about 54 CDF calls per quantile, 3 builds per run) dominates",
        True,
        _beta_entries(),
    ),
    # ~90% of CDF calls are forward reg_inc_beta through automated_share and
    # cross50 (~35 per cell), one inverse per shape: the inverse of
    # lattice-beta's profile.
    "sweep-grid": Workload(
        "sweep-grid",
        "8x8 (p, q) shapes x 20 gammas x 60 years per sweep, in process; forward "
        "reg_inc_beta calls (about 35 per cell) dominate, one inverse per shape",
        True,
        _sweep_entries(),
    ),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(entry: Entry, data: bytes, digests: dict) -> str | None:
    """Return None when ``data`` is the correct output for ``entry``.

    Otherwise return a one-line reason.  The digest frozen for the entry
    must match, and the output must satisfy the model invariants: shares
    in [0, 1], and non-decreasing for the boundary and lattice models.
    """
    want = digests.get(entry.id)
    if want is None:
        return "no checked-in digest for this entry"
    if sha256(data) != want:
        return "output differs from the checked-in digest"
    return check_invariants(entry, data)


def check_invariants(entry: Entry, data: bytes) -> str | None:
    text = data.decode("utf-8")
    if entry.output == "svg":
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return "output is not an SVG document"
        return None
    if entry.output == "verify":
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        passed, _, total = last.partition(" ")[0].partition("/")
        if not (passed and passed == total):
            return f"verify reported {last!r}"
        return None
    if entry.output == "json":
        document = json.loads(text)
        if not isinstance(document, dict) or not document:
            return "list-scenarios --expand is not a non-empty object"
        return None
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != _HEADERS[entry.model]:
        return "unexpected CSV header"
    columns = [rows[0].index(name) for name in _SHARE_COLUMNS[entry.model]]
    previous = [-1.0] * len(columns)
    for row in rows[1:]:
        for slot, column in enumerate(columns):
            value = float(row[column])
            if not 0.0 <= value <= 1.0:
                return f"share {value} outside [0, 1]"
            if entry.model in _MONOTONE and value < previous[slot]:
                return f"share fell from {previous[slot]} to {value}"
            previous[slot] = value
    return None

