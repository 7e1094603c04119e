"""Tests of the benchmark itself: output checks, tracing hygiene, repeatable counts.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run._import_workmix()
import workmix  # noqa: E402
import workmix.boundary  # noqa: E402
import workmix.numerics  # noqa: E402
import workmix.sweep  # noqa: E402

DIGESTS = json.loads(run.DIGESTS.read_text())


@pytest.fixture
def workdir():
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _runner(workload: str, seed: int, workdir: Path) -> run.Runner:
    return run.Runner(run.Inputs(workload, seed, workdir), DIGESTS, workdir)


def _entry(workload: str, entry_id: str) -> workloads.Entry:
    return next(e for e in workloads.WORKLOADS[workload].entries if e.id == entry_id)


def test_every_catalogue_entry_has_a_digest():
    ids = [e.id for w in workloads.WORKLOADS.values() for e in w.entries]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(DIGESTS)


def test_corrupted_output_byte_is_a_failure(workdir):
    runner = _runner("cli-scenarios", 1, workdir)
    entry = _entry("cli-scenarios", "cli/scenario-paper-boundary")
    op = runner.in_process_main(entry)
    assert op.ok, op.reason
    data = workmix.cli.emit_csv(workmix.cli.run_config(
        workmix.cli.builtin_scenario("paper-boundary")))
    good = data.encode()
    assert workloads.check_output(entry, good, DIGESTS) is None
    for index in (0, len(good) // 2, len(good) - 2):
        bad = bytearray(good)
        bad[index] ^= 0x01
        assert workloads.check_output(entry, bytes(bad), DIGESTS) is not None


def test_corrupted_output_is_counted_in_the_run(workdir, monkeypatch):
    runner = _runner("cli-scenarios", 3, workdir)
    original = workmix.cli.emit_csv

    def corrupt(*args, **kwargs):
        text = original(*args, **kwargs)
        return text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1]

    monkeypatch.setattr(workmix.cli, "emit_csv", corrupt)
    ops = run.measure(runner, 1e9, in_process=True, max_ops=15)
    csv_ops = [op for op in ops if op.entry.output == "csv"]
    assert csv_ops and all(not op.ok for op in csv_ops)
    assert all(op.ok for op in ops if op.entry.output in ("svg", "json"))


def test_invariants_catch_a_falling_share():
    entry = _entry("cli-scenarios", "cli/scenario-paper-boundary")
    text = "year,theta,share\n2025,0.1,0.200000\n2026,0.2,0.100000\n"
    assert "fell" in workloads.check_invariants(entry, text.encode())
    text = "year,theta,share\n2025,0.1,1.500000\n"
    assert "outside" in workloads.check_invariants(entry, text.encode())


def _traced(seed: int, workdir: Path) -> tuple[dict, tracing.Recorder]:
    args = argparse.Namespace(workload="cli-scenarios", seed=seed, seconds=1e9, trace=1)
    ops, metrics, recorder = run.run_traced(args, workdir, DIGESTS, max_ops=15)
    assert all(op.ok for op in ops), [op.reason for op in ops if not op.ok]
    return {name: value for name, (value, _, _) in metrics.items()}, recorder


def test_traced_run_leaves_no_wrapper_behind(workdir):
    metrics, recorder = _traced(5, workdir)
    assert len(recorder.start) > 0
    assert recorder.counts[recorder.ids("numerics.reg_inc_beta")] > 0
    assert tracing.leftover_wrappers() == []
    assert workmix.boundary.reg_inc_beta is workmix.numerics.reg_inc_beta
    assert workmix.sweep.automated_share is workmix.boundary.automated_share
    assert workmix.reg_inc_beta is workmix.numerics.reg_inc_beta


def test_traced_counts_repeat_exactly(workdir):
    first, _ = _traced(7, workdir)
    second, _ = _traced(7, workdir)
    assert first["lattice.universe_builds_per_run"] == 3.0
    assert second["lattice.universe_builds_per_run"] == 3.0
    assert first["numerics.cdf_evals_per_inverse"] > 0
    assert first["numerics.cdf_evals_per_inverse"] == second["numerics.cdf_evals_per_inverse"]
    for name in ("numerics.reg_inc_beta_calls", "sweep.cdf_evals_per_cell",
                 "lattice.years_iterated", "cli.output_bytes"):
        assert first[name] == second[name], name
