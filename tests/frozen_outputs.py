"""Every frozen output of the workmix CLI in one table, checked by one runner.

``FROZEN`` maps an id to a catalogue ``Entry`` and its SHA-256: the benchmark's
catalogue (``bench/workloads.py``) with ``bench/digests.json``, plus ``_PINS``,
the outputs the catalogue lacks.  ``check`` runs an entry through
``cli.main(argv)`` in this process, then applies the benchmark's
``check_output`` (digest, then model invariants) and, for a lattice, its
``fixed_point_oracle`` bound.  Standard library only, so that
``PYTHONPATH=src python tests/frozen_outputs.py`` checks every output without pytest.
"""

import contextlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import workmix.cli as cli
from workmix.lattice import fixed_point_oracle

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


def run(entry):
    """Exit code, stdout and stderr of ``cli.main`` on the entry's argv (default: ``run``)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        if entry.config is not None:
            path.write_text(entry.config_text())
        argv = [arg.replace("{config}", str(path)) for arg in entry.argv or _RUN]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check(entry_id):
    """None when the entry's output is its frozen one; otherwise a one-line reason."""
    entry, digest = FROZEN[entry_id]
    code, out, err = run(entry)
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
    for entry_id in sorted(FROZEN):
        reason = check(entry_id)
        failed += reason is not None
        print(f"FAIL {entry_id}: {reason}" if reason else f"ok   {entry_id}")
    print(f"{len(FROZEN) - failed}/{len(FROZEN)} frozen outputs match "
          f"on Python {platform.python_version()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
