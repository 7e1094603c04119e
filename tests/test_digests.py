"""Every output frozen in the benchmark's catalogue is still produced, byte for byte.

``bench/digests.json`` holds the SHA-256 of each catalogue entry's output
(``bench/workloads.py``).  Each entry is run here in process, through the same
paths the benchmark times, and checked with the benchmark's own
``check_output``: the digest, then the model invariants.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import workmix.cli as cli
from workmix.lattice import fixed_point_oracle

_BENCH = Path(__file__).resolve().parent.parent / "bench"
# Imported by path under its own name, as the importlib docs show for a source file.
_spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

_DIGESTS = json.loads((_BENCH / "digests.json").read_text())
_ENTRIES = {
    entry.id: entry
    for workload in workloads.WORKLOADS.values()
    for entry in workload.entries
}


def _cli_output(entry, tmp_path, capsys):
    """One ``workmix.cli`` run of the entry's argv, its config written under tmp_path."""
    path = tmp_path / "config.json"
    if entry.config is not None:
        path.write_text(entry.config_text())
    argv = [arg.replace("{config}", str(path)) for arg in entry.argv]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("entry_id", sorted(_DIGESTS))
def test_output_matches_frozen_digest(entry_id, tmp_path, capsys):
    entry = _ENTRIES[entry_id]
    if entry.id.startswith("cli/"):
        out = _cli_output(entry, tmp_path, capsys)
    else:  # lattice-beta and sweep-grid run in process, as the benchmark times them
        config = cli.load_config(entry.config_text())
        out = cli.emit_csv(cli.run_config(config), config.output.precision)
    assert workloads.check_output(entry, out.encode("utf-8"), _DIGESTS) is None
    if entry.model == "lattice":  # the harness's oracle check, on a run in process
        config = cli.load_config(entry.config_text())
        trace, n_tasks = cli.run_config(config).data
        universe = cli.LatticeRun(config.params).build_universe()
        assert len(universe) == n_tasks
        assert trace.final.automated <= fixed_point_oracle(universe).automated


def test_every_catalogue_entry_has_a_digest():
    assert sorted(_ENTRIES) == sorted(_DIGESTS)
