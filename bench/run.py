#!/usr/bin/env python3
"""Benchmark for workmix: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload lattice-beta --seed 1 --seconds 30 --trace 0

Workloads are defined in ``bench/workloads.py``.  Each is a closed loop with
one client: the next operation starts when the previous one has finished,
until ``--seconds`` of operation time have been measured and the current
deck of inputs is complete.  Every output is checked against its
checked-in SHA-256 and the model invariants; a failed check counts in
``failed``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, and the environment.

``--trace 0`` reports the end-to-end metrics; their times are scaled to a
reference machine speed sampled around every operation (``bench/speed.py``),
with the benchmark and its children kept on one CPU.  ``--trace 1`` wraps each
layer's public functions for the run (see ``bench/tracing.py``), reports the
per-layer metrics, replays the same operations untraced to measure the
tracing overhead, and writes the spans under ``.bench_work/traces``.

``--write-digests`` recomputes ``bench/digests.json`` from the current code;
do that only when a change of output is intended.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 9
PROBE_REPEATS = 5
OP_TIMEOUT_S = 120.0

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Entry, WORKLOADS  # noqa: E402


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_workmix():
    """Import the checkout's own workmix, never an installed copy."""
    if not (SRC / "workmix" / "__init__.py").is_file():
        raise RuntimeError(f"no workmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workmix
    import workmix.cli

    if Path(workmix.__file__).resolve().parent != SRC / "workmix":
        raise RuntimeError(f"imported workmix from {workmix.__file__}, not {SRC}")
    return workmix


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _unit_quantile(ops: list, share: float) -> float:
    """Time per unit at which ``share`` of all units of work are done.

    Every unit counts once, carrying its operation's scaled time per unit,
    so a 400-task lattice run weighs four times a 100-task one; with one
    unit per operation this is the plain lower quantile over operations.
    """
    if not ops:
        return 0.0
    ranked = sorted(ops, key=lambda op: op.scaled / op.entry.units)
    target = share * sum(op.entry.units for op in ranked)
    done = 0
    for op in ranked:
        done += op.entry.units
        if done >= target:
            break
    return 1000.0 * op.scaled / op.entry.units


# ---------------------------------------------------------------------------
# Set-up: inputs for one run
# ---------------------------------------------------------------------------

class Inputs:
    """The seeded operation stream plus the config files it refers to."""

    def __init__(self, workload_name: str, seed: int, workdir: Path) -> None:
        self.workload = WORKLOADS[workload_name]
        self.stream = self.workload.schedule(seed)
        self.paths: dict[str, str] = {}
        if not self.workload.in_process:
            workdir.mkdir(parents=True, exist_ok=True)
            for entry in self.workload.entries:
                if entry.config is not None:
                    path = workdir / (entry.id.replace("/", "_") + ".json")
                    path.write_text(entry.config_text())
                    self.paths[entry.id] = str(path)

    def next(self) -> tuple[Entry, str | None]:
        """Next entry and, in process, its config text (rendered before timing)."""
        entry = next(self.stream)
        return entry, entry.config_text() if self.workload.in_process else None

    def wants_more(self, done: int, busy: float, seconds: float) -> bool:
        """True until ``seconds`` of op time are measured and the deck is whole.

        A run ends on a deck boundary, so every seed measures the same mix of
        inputs; a run overshoots ``seconds`` by less than one deck.
        """
        return busy < seconds or done % len(self.workload.entries) != 0

    def argv(self, entry: Entry) -> list[str]:
        path = self.paths.get(entry.id, "")
        return [arg.replace("{config}", path) for arg in entry.argv]


def _spawn(argv: list[str], stdout, stderr) -> tuple[int, float, object]:
    """Run ``argv`` to its end; returns (exit code, wall seconds, rusage).

    The wall time runs from spawn to a blocking ``wait4``, so the exit is
    seen as soon as it happens; ``subprocess``'s timed wait polls instead,
    with sleeps of up to 50 ms that would quantise the time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=_child_env())
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _setup_probe_seconds(workload: str, seed: int) -> list[float]:
    """Scaled wall times of fresh set-up processes.

    A set-up process imports workmix, builds the seeded schedule and writes
    the CLI config files; the config text of in-process operations is
    rendered per operation, outside the timed region, so set-up does not
    depend on which entry comes first.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
        before = speed.sample()
        code, wall, _ = _spawn(argv, subprocess.DEVNULL, None)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(speed.scale(wall, before, speed.sample()))
    return times


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Op:
    __slots__ = ("entry", "wall", "scaled", "ok", "reason", "size", "rss_kb")

    def __init__(self, entry: Entry, wall: float, reason: str | None, size: int,
                 rss_kb: int = 0) -> None:
        self.entry = entry
        self.wall = wall
        self.scaled = wall  # set by measure() from the speed samples around it
        self.ok = reason is None
        self.reason = reason
        self.size = size
        self.rss_kb = rss_kb


class Runner:
    """Executes and checks operations; holds the digests and oracle cache."""

    def __init__(self, inputs: Inputs, digests: dict, workdir: Path) -> None:
        import workmix.cli
        import workmix.lattice

        self.cli = workmix.cli
        self.fixed_point_oracle = workmix.lattice.fixed_point_oracle
        self.inputs = inputs
        self.digests = digests
        self.out_path = workdir / "stdout"
        self.err_path = workdir / "stderr"
        self.oracle_cache: dict[str, str | None] = {}
        self.recorder = None  # a tracing.Recorder during the traced run

    # -- checks ------------------------------------------------------------

    def _oracle_reason(self, config, result) -> str | None:
        """Final lattice allocation must lie inside fixed_point_oracle."""
        trace, n_tasks = result.data
        universe = self.cli.LatticeRun(config.params).build_universe()
        target = self.fixed_point_oracle(universe).automated
        if len(universe) != n_tasks or not trace.final.automated <= target:
            return "final lattice allocation is not inside fixed_point_oracle"
        return None

    def check(self, entry: Entry, data: bytes, config=None, result=None) -> str | None:
        reason = workloads.check_output(entry, data, self.digests)
        if reason is not None or entry.model != "lattice":
            return reason
        if entry.id not in self.oracle_cache:
            if result is None:  # a CLI run: recompute the same config in process
                config = self.cli.load_config(Path(self.inputs.paths[entry.id]).read_text())
                result = self.cli.run_config(config)
            self.oracle_cache[entry.id] = self._oracle_reason(config, result)
        return self.oracle_cache[entry.id]

    # -- execution ---------------------------------------------------------

    def pipeline(self, entry: Entry, text: str) -> Op:
        """load_config -> run_config -> emit_csv in this process."""
        cli = self.cli

        def body():
            config = cli.load_config(text)
            result = cli.run_config(config)
            return config, result, cli.emit_csv(result, config.output.precision)

        try:
            (config, result, document), wall = self._timed(body)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Op(entry, 0.0, f"raised {type(exc).__name__}: {exc}", 0)
        data = document.encode("utf-8")
        return Op(entry, wall, self.check(entry, data, config, result), len(data))

    def process(self, entry: Entry) -> Op:
        """One `python -m workmix.cli` process, timed from spawn to exit."""
        argv = [sys.executable, "-m", "workmix.cli", *self.inputs.argv(entry)]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            code, wall, usage = _spawn(argv, out, err)
        data = self.out_path.read_bytes()
        if code != 0:
            reason = f"exit code {code}: {self.err_path.read_text()[-300:]!r}"
        else:
            reason = self.check(entry, data)
        return Op(entry, wall, reason, len(data), usage.ru_maxrss)

    def in_process_main(self, entry: Entry) -> Op:
        """The CLI's ``main(argv)`` in this process, stdout captured."""
        out, err = io.StringIO(), io.StringIO()
        argv = self.inputs.argv(entry)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code, wall = self._timed(lambda: self.cli.main(argv))
        except Exception as exc:
            return Op(entry, 0.0, f"raised {type(exc).__name__}: {exc}", 0)
        data = out.getvalue().encode("utf-8")
        if code != 0:
            return Op(entry, wall, f"main returned {code}: {err.getvalue()[-300:]!r}", len(data))
        return Op(entry, wall, self.check(entry, data), len(data))

    def _timed(self, body):
        """Run ``body`` and time it; spans are recorded only inside."""
        recorder = self.recorder
        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        try:
            value = body()
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.active = False
        return value, wall

    def execute(self, entry: Entry, text: str | None, in_process: bool) -> Op:
        if self.inputs.workload.in_process:
            return self.pipeline(entry, text)
        return self.in_process_main(entry) if in_process else self.process(entry)


def _report_failures(ops: list[Op]) -> None:
    for op in ops:
        if not op.ok:
            print(f"FAILED {op.entry.id}: {op.reason}", file=sys.stderr)


def measure(runner: Runner, seconds: float, in_process: bool,
            max_ops: int | None = None) -> list[Op]:
    """Closed loop: run whole decks until ``seconds`` of op time are measured.

    The reference kernel runs before the first operation and after each
    one; an operation's scaled time uses the two samples around it.
    """
    ops: list[Op] = []
    busy = 0.0
    before = speed.sample()
    while runner.inputs.wants_more(len(ops), busy, seconds) and (
            max_ops is None or len(ops) < max_ops):
        entry, text = runner.inputs.next()
        op = runner.execute(entry, text, in_process)
        after = speed.sample()
        op.scaled = speed.scale(op.wall, before, after)
        before = after
        ops.append(op)
        busy += op.wall
    return ops


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(ops: list[Op], setup: list[float], in_process: bool) -> dict:
    good = [op for op in ops if op.ok]
    units = sum(op.entry.units for op in good)
    busy = sum(op.scaled for op in good)
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(op.rss_kb for op in ops)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_ms_per_unit_p50": (_unit_quantile(good, 0.5), "ms", len(good)),
        "wall_ms_per_unit_p90": (_unit_quantile(good, 0.9), "ms", len(good)),
        "units_per_s": (units / busy if busy else 0.0, "1/s", len(good)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1 if in_process else len(ops)),
    }


# Workload-specific names for the same numbers, as ROADMAP and reports cite them.
ALIASES = {
    "cli-scenarios": {"wall_ms_per_unit_p50": "cli_wall_ms_p50",
                      "wall_ms_per_unit_p90": "cli_wall_ms_p90"},
    "lattice-beta": {"units_per_s": "lattice_tasks_per_s"},
    "sweep-grid": {"units_per_s": "sweep_cells_per_s"},
}


def _probe_ms(code: str, *, inner: bool) -> list[float]:
    """Fresh interpreters: either their whole wall time or a timed import."""
    times = []
    for _ in range(PROBE_REPEATS):
        if inner:
            script = ("import time, sys\nstart = time.perf_counter()\n" + code +
                      "\nsys.stdout.write(repr(time.perf_counter() - start))")
        else:
            script = code
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"probe {code!r} failed: {done.stderr[-300:]}")
        times.append(1000.0 * (float(done.stdout) if inner else wall))
    return times


def per_layer(recorder, ops: list[Op], replayed: list[Op], probes: dict) -> dict:
    summary = recorder.summary()
    n_ops = len(ops)
    lattice_runs = sum(1 for op in ops if op.entry.model == "lattice")

    def calls(label: str) -> int:
        return summary[label]["calls"]

    def per_call(label: str, scale: float) -> float:
        c = calls(label)
        return scale * summary[label]["total_s"] / c if c else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    svg = ("svgplot.line_chart", "svgplot.multi_line_chart", "svgplot.heatmap")
    builds = ("lattice.linear_universe", "lattice.saturating_universe", "lattice.table_universe")
    traced_busy = sum(op.wall for op in ops)
    plain_busy = sum(op.wall for op in replayed)
    metrics = {
        "cli.main_ms": (per_call("cli.main", 1e3), "ms"),
        "cli.verify_goldens_ms": (per_call("cli.verify_goldens", 1e3), "ms"),
        "cli.load_config_ms": (per_call("cli.load_config", 1e3), "ms"),
        "cli.build_ms": (per_call("cli.ScenarioConfig.build", 1e3), "ms"),
        "cli.run_config_ms": (per_call("cli.run_config", 1e3), "ms"),
        "cli.emit_csv_ms": (per_call("cli.emit_csv", 1e3), "ms"),
        "cli.emit_svg_ms": (per_call("cli.emit_svg", 1e3), "ms"),
        "svgplot.render_ms": (ratio(1e3 * sum(summary[s]["total_s"] for s in svg),
                                    sum(calls(s) for s in svg)), "ms"),
        "cli.output_bytes": (ratio(sum(op.size for op in ops), n_ops), "bytes/op"),
        "lattice.universe_builds_per_run": (ratio(sum(calls(b) for b in builds),
                                                  lattice_runs), "count/run"),
        "lattice.beta_quantile_thetas_ms": (per_call("lattice.beta_quantile_thetas", 1e3), "ms"),
        "lattice.run_delegation_ms": (per_call("lattice.run_delegation", 1e3), "ms"),
        "lattice.delegation_map_calls": (ratio(calls("lattice.delegation_map"),
                                               lattice_runs), "count/run"),
        "lattice.years_iterated": (ratio(recorder.count_children(
            "lattice.delegation_map", "lattice.run_delegation"),
            calls("lattice.run_delegation")), "count/run"),
        "numerics.inv_reg_inc_beta_calls": (ratio(calls("numerics.inv_reg_inc_beta"), n_ops),
                                            "count/op"),
        "numerics.inv_reg_inc_beta_us": (per_call("numerics.inv_reg_inc_beta", 1e6), "us"),
        "numerics.cdf_evals_per_inverse": (ratio(recorder.count_children(
            "numerics.reg_inc_beta", "numerics.inv_reg_inc_beta"),
            calls("numerics.inv_reg_inc_beta")), "count"),
        "numerics.reg_inc_beta_calls": (ratio(calls("numerics.reg_inc_beta"), n_ops), "count/op"),
        "numerics.reg_inc_beta_us": (per_call("numerics.reg_inc_beta", 1e6), "us"),
        "numerics.log_beta_calls": (ratio(calls("numerics.log_beta"), n_ops), "count/op"),
        "sweep.run_grid_ms": (per_call("sweep.run_grid", 1e3), "ms"),
        "sweep.cross50_ms": (per_call("sweep.cross50", 1e3), "ms"),
        "sweep.cdf_evals_per_cell": (ratio(
            recorder.count_under("numerics.reg_inc_beta", "sweep.run_grid"),
            recorder.count_under("sweep.cross50", "sweep.run_grid")), "count"),
        "boundary.automated_share_us": (per_call("boundary.automated_share", 1e6), "us"),
        "aggregate.simulate_ms": (per_call("aggregate.simulate", 1e3), "ms"),
        "replicator.simulate_replicator_ms": (per_call("replicator.simulate_replicator", 1e3),
                                              "ms"),
        "boundary.simulate_boundary_ms": (per_call("boundary.simulate_boundary", 1e3), "ms"),
        "trace.overhead_ms": (ratio(1e3 * (traced_busy - plain_busy), n_ops), "ms/op"),
        "trace.overhead_pct": (100.0 * ratio(traced_busy - plain_busy, plain_busy), "%"),
    }
    probed = {
        "import.workmix_ms": probes["workmix"],
        "import.numpy_ms": probes["numpy"],
        "cli.interpreter_floor_ms": probes["floor"],
    }
    return {
        **{name: (statistics.median(t), "ms", len(t)) for name, t in probed.items()},
        **{name: (value, unit, n_ops) for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "seed": seed,
    }


def emit(args, ops: list[Op], metrics: dict) -> None:
    """Print the environment and every metric, then the result line."""
    for key, value in environment(args.seed).items():
        print(f"env {key} = {value}")
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    print(f"workload {args.workload}, {args.seconds} s measured, trace {args.trace}, "
          "closed loop, 1 client")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    for name, alias in ALIASES.get(args.workload, {}).items():
        if name in metrics:
            print(f"{alias} = {metrics[name][0]:.6g} {metrics[name][1]} (same as {name})")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_untraced(args, workdir: Path, digests: dict) -> tuple[list[Op], dict]:
    """Returns (ops, end-to-end metrics)."""
    inputs = Inputs(args.workload, args.seed, workdir)
    runner = Runner(inputs, digests, workdir)
    setup = _setup_probe_seconds(args.workload, args.seed)
    ops = measure(runner, args.seconds, in_process=False)
    _report_failures(ops)
    good = [op for op in ops if op.ok]
    if good:
        units = sum(op.entry.units for op in good)
        refs = [speed.REFERENCE_S * op.wall / op.scaled for op in good]
        print(f"unscaled units_per_s = {units / sum(op.wall for op in good):.6g} 1/s; "
              f"reference kernel median = {1e3 * statistics.median(refs):.4g} ms "
              f"(times scaled to {1e3 * speed.REFERENCE_S:g} ms)")
    return ops, end_to_end(ops, setup, inputs.workload.in_process)


def run_traced(args, workdir: Path, digests: dict, max_ops: int | None = None):
    """Traced run; returns (all checked ops, per-layer metrics, recorder)."""
    from tracing import Recorder

    probes = {
        "workmix": _probe_ms("import workmix", inner=True),
        "numpy": _probe_ms("import numpy", inner=True),
        "floor": _probe_ms("pass", inner=False),
    }
    inputs = Inputs(args.workload, args.seed, workdir)
    runner = Runner(inputs, digests, workdir)
    recorder = Recorder()
    ops, replayed = [], []
    busy = 0.0
    # Each operation runs twice, traced and untraced, alternating which goes
    # first, so that warm-up favours neither side of the overhead figure.
    # Both halves count towards the measured seconds.
    while inputs.wants_more(len(ops), busy, args.seconds) and (
            max_ops is None or len(ops) < max_ops):
        entry, text = inputs.next()
        recorder.op = len(ops)
        for traced in (True, False) if len(ops) % 2 == 0 else (False, True):
            if traced:
                runner.recorder = recorder
                with recorder:
                    ops.append(runner.execute(entry, text, in_process=True))
                runner.recorder = None
            else:
                replayed.append(runner.execute(entry, text, in_process=True))
        busy += ops[-1].wall + replayed[-1].wall
    _report_failures(ops + replayed)
    metrics = per_layer(recorder, ops, replayed, probes)
    summary = recorder.summary()
    recorder.write(WORK / "traces", args.workload, {
        "workload": args.workload,
        "seed": args.seed,
        "operations": [op.entry.id for op in ops],
        "summary": summary,
        "metrics": {name: value for name, (value, _, _) in metrics.items()},
    })
    print("self time by function (traced run):")
    for label, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {label:<34} calls={row['calls']:<9} total={row['total_s']:.4f}s "
                  f"self={row['self_s']:.4f}s")
    return ops + replayed, metrics, recorder


def write_digests() -> int:
    """Recompute every catalogue entry's output digest and check invariants."""
    digests, problems = {}, []
    workdir = WORK / f"digests-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            runner = Runner(Inputs(name, 0, workdir), {}, workdir)
            for entry in workload.entries:
                config = result = None
                if workload.in_process:
                    config = runner.cli.load_config(entry.config_text())
                    result = runner.cli.run_config(config)
                    data = runner.cli.emit_csv(result, config.output.precision).encode()
                else:
                    runner.digests = {}
                    op = runner.process(entry)
                    if op.reason.startswith("exit code"):
                        problems.append(f"{entry.id}: {op.reason}")
                        continue
                    data = runner.out_path.read_bytes()
                digests[entry.id] = workloads.sha256(data)
                runner.digests = digests
                reason = runner.check(entry, data, config, result)
                if reason:
                    problems.append(f"{entry.id}: {reason}")
                print(f"{digests[entry.id][:16]} {entry.id}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        return _fail("; ".join(problems))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute bench/digests.json from the current code")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")
    return args


def _pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU.

    The speed kernel then samples the core every operation runs on.  Left
    free, a CLI child could run on the other core, whose speed the kernel
    had not seen: scaling then made CLI times spread more, not less.  The
    loop is closed, so the second core had nothing to run anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_to_one_cpu()
    try:
        _import_workmix()
    except (RuntimeError, ImportError) as exc:
        return _fail(str(exc))
    if args.write_digests:
        return write_digests()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.setup_probe:
            Inputs(args.workload, args.seed, workdir)
            return 0
        try:
            digests = json.loads(DIGESTS.read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read {DIGESTS}: {exc}")
        workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            ops, metrics, _ = run_traced(args, workdir, digests)
        else:
            ops, metrics = run_untraced(args, workdir, digests)
        emit(args, ops, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
