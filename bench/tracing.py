"""Span tracing for the traced benchmark run, installed from outside workmix.

``install`` replaces each traced function with a recording wrapper on every
module attribute of the ``workmix`` package that is bound to it, so that
``from ... import`` copies such as ``workmix.boundary.reg_inc_beta`` or
``workmix.sweep.automated_share`` are traced as well; ``uninstall`` puts the
originals back.  Each call records a span (name, start, end, parent span,
operation id) and bumps a count.  Spans stay in flat arrays in memory until
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs, named by the module that defines them.  Leaf
# helpers that cost less than a wrapper (log_gamma, automation_boundary,
# aggregate.step, replicator_step) are left out: wrapping them would
# multiply the span count without feeding any per-layer metric.
TRACED = (
    ("workmix.cli", "main"),
    ("workmix.cli", "load_config"),
    ("workmix.cli", "builtin_scenario"),
    ("workmix.cli", "run_config"),
    ("workmix.cli", "emit_csv"),
    ("workmix.cli", "emit_svg"),
    ("workmix.cli", "verify_goldens"),
    ("workmix.numerics", "log_beta"),
    ("workmix.numerics", "reg_inc_beta"),
    ("workmix.numerics", "inv_reg_inc_beta"),
    ("workmix.numerics", "oracle_beta_cdf"),
    ("workmix.numerics", "bisect_root"),
    ("workmix.lattice", "delegation_map"),
    ("workmix.lattice", "run_delegation"),
    ("workmix.lattice", "fixed_point_oracle"),
    ("workmix.lattice", "beta_quantile_thetas"),
    ("workmix.lattice", "linear_universe"),
    ("workmix.lattice", "saturating_universe"),
    ("workmix.lattice", "table_universe"),
    ("workmix.sweep", "run_grid"),
    ("workmix.sweep", "cross50"),
    ("workmix.boundary", "automated_share"),
    ("workmix.boundary", "simulate_boundary"),
    ("workmix.boundary", "advantage_grid"),
    ("workmix.boundary", "calibrate"),
    ("workmix.aggregate", "simulate"),
    ("workmix.aggregate", "closed_form"),
    ("workmix.replicator", "simulate_replicator"),
    ("workmix.svgplot", "line_chart"),
    ("workmix.svgplot", "multi_line_chart"),
    ("workmix.svgplot", "heatmap"),
)
# (module, class, method): methods are bound on the class only.
TRACED_METHODS = (("workmix.cli", "ScenarioConfig", "build"),)

_MARK = "__bench_traced__"


class Recorder:
    """In-memory span store.  ``active`` gates recording; ``op`` tags spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: list[int] = []
        self.name = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.active = False
        self._patched: list[tuple[object, str, object, object]] = []

    def wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        self.counts.append(0)
        counts, stack = self.counts, self.stack
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends = self.start, self.end
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            counts[nid] += 1
            names.append(nid)
            parents.append(stack[-1])
            ops.append(recorder.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        setattr(traced, _MARK, fn)
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced binding."""
        found = []
        modules = workmix_modules()
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(f"{module_name.split('.', 1)[1]}.{attr}", original)
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        found.append((module, name, original, wrapper))
        for module_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            label = f"{module_name.split('.', 1)[1]}.{cls_name}.{attr}"
            found.append((cls, attr, original, self.wrap(label, original)))
        return found

    def install(self) -> None:
        """Wrap every binding of every traced function in the workmix package."""
        if not self._patched:
            self._patched = self._bindings()
        for owner, name, _, wrapper in self._patched:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patched):
            setattr(owner, name, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.uninstall()

    # -- derived data ------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, inclusive and self time (seconds).

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so the children never overlap.
        """
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("d", bytes(8 * len(start)))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(name):
            duration = end[i] - start[i]
            total[nid] += duration
            own[nid] += duration - child[i]
        return {
            label: {"calls": self.counts[nid], "total_s": total[nid], "self_s": own[nid]}
            for nid, label in enumerate(self.names)
        }

    def ids(self, label: str) -> int:
        return self.names.index(label)

    def count_children(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        c, p = self.ids(child), self.ids(parent)
        names, parents = self.name, self.parent
        return sum(
            1 for i in range(len(names))
            if names[i] == c and parents[i] >= 0 and names[parents[i]] == p
        )

    def count_under(self, label: str, ancestor: str) -> int:
        """Spans named ``label`` with a span named ``ancestor`` above them."""
        target, root = self.ids(label), self.ids(ancestor)
        names, parents = self.name, self.parent
        under = bytearray(len(names))
        hits = 0
        for i in range(len(names)):
            p = parents[i]
            if p >= 0 and (under[p] or names[p] == root):
                under[i] = 1
                if names[i] == target:
                    hits += 1
        return hits

    def write(self, directory: Path, stem: str, extra: dict) -> Path:
        """Write the spans (flat binary arrays) and a JSON index beside them."""
        directory.mkdir(parents=True, exist_ok=True)
        binary = directory / f"{stem}.spans"
        with open(binary, "wb") as handle:
            for column in (self.name, self.parent, self.op_id, self.start, self.end):
                column.tofile(handle)
        index = {
            "spans": len(self.start),
            "columns": [["name", "H"], ["parent", "i"], ["op", "i"],
                        ["start_s", "d"], ["end_s", "d"]],
            "names": self.names,
            **extra,
        }
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
        return path


def workmix_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "workmix" or name.startswith("workmix."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of workmix bindings that are still tracing wrappers."""
    found = []
    for module in workmix_modules():
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("workmix"):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found
