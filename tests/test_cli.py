"""Command-line behavior: strict configs, byte-stable output, exit codes."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from frozen_outputs import (
    _AGG, _BND, _SWP, _TABLE, DASH_WORDS, FROZEN, REFUSED, Outcome, check, refusal_fault, run,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import workmix.aggregate
import workmix.cli
import workmix.lattice
import workmix.numerics
import workmix.sweep
from workmix._goldens import golden_checks
from workmix import BetaShape, ChartError, DomainError, ParamError, ParseError, ValidationError
from workmix.boundary import DEFAULT_BOUNDARY
from workmix.cli import (
    OutputSpec,
    RunResult,
    ScenarioConfig,
    builtin_scenario,
    emit_csv,
    emit_svg,
    load_config,
    main,
    run_config,
    scenario_names,
    verify_goldens,
)

# Each group of REFUSED rows (ids "group/case") is checked by one test, which
# claims it at import: a parametrized test as its cases, a single test as a
# default argument, which pytest does not take for a fixture.
_CLAIMED = []


def _rows(group):
    row_ids = [row_id for row_id in REFUSED if row_id.startswith(group + "/")]
    _CLAIMED.extend(row_ids)
    return row_ids


def _case(row_id):
    """A row's case name: the id of its pytest case."""
    return row_id.split("/", 1)[1]


def _faults(row_ids):
    """Each row whose run is not the refusal REFUSED holds, with what is wrong."""
    return [(row_id, reason) for row_id in row_ids if (reason := check(row_id)) is not None]


class TestLoadConfig:
    def test_sparse_params_fill_defaults(self):
        config = load_config(
            '{"model": "aggregate",'
            ' "params": {"alpha": 0.1, "beta": 0.05, "x0": 0.1}}'
        )
        assert config.model == "aggregate"
        assert config.params["start_year"] == 2025
        assert config.params["horizon_years"] == 20
        assert config.output == OutputSpec()

    def test_scenario_expands_to_builtin(self):
        config = load_config('{"model": "aggregate", "scenario": "paper-aggregate"}')
        assert config == builtin_scenario("paper-aggregate")

    def test_explicit_params_equal_scenario(self):
        expanded = builtin_scenario("paper-boundary")
        config = load_config(
            json.dumps({"model": "boundary", "params": expanded.params})
        )
        assert config == expanded

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            load_config('{"model": "aggregate",\n "params": {')
        message = str(excinfo.value)
        assert "line 2" in message

    def test_unknown_keys_are_named(self):
        with pytest.raises(ValidationError) as excinfo:
            load_config('{"model": "aggregate", "params": {}, "extra": 1}')
        assert "extra" in str(excinfo.value)
        with pytest.raises(ValidationError) as excinfo:
            load_config(
                '{"model": "aggregate",'
                ' "params": {"alpha": 0.1, "beta": 0.05, "x0": 0.1, "alpha2": 9}}'
            )
        assert "alpha2" in str(excinfo.value)
        with pytest.raises(ValidationError) as excinfo:
            load_config(
                '{"model": "aggregate", "scenario": "paper-aggregate",'
                ' "output": {"formats": "csv"}}'
            )
        assert "formats" in str(excinfo.value)

    def test_scenario_and_params_mutually_exclusive(self):
        with pytest.raises(ValidationError):
            load_config(
                '{"model": "aggregate", "scenario": "paper-aggregate",'
                ' "params": {"alpha": 0.1, "beta": 0.05, "x0": 0.1}}'
            )
        with pytest.raises(ValidationError):
            load_config('{"model": "aggregate"}')

    def test_scenario_model_mismatch(self):
        with pytest.raises(ValidationError):
            load_config('{"model": "aggregate", "scenario": "paper-grid"}')

    def test_unknown_model_and_scenario(self):
        with pytest.raises(ValidationError):
            load_config('{"model": "quantum", "scenario": "paper-aggregate"}')
        with pytest.raises(ValidationError):
            load_config('{"model": "aggregate", "scenario": "paper-unknown"}')

    def test_output_block_validated(self):
        config = load_config(
            '{"model": "aggregate", "scenario": "paper-aggregate",'
            ' "output": {"format": "svg", "precision": 3}}'
        )
        assert config.output.format == "svg"
        assert config.output.precision == 3
        with pytest.raises(ValidationError):
            load_config(
                '{"model": "aggregate", "scenario": "paper-aggregate",'
                ' "output": {"format": "png"}}'
            )
        with pytest.raises(ValidationError):
            load_config(
                '{"model": "aggregate", "scenario": "paper-aggregate",'
                ' "output": {"precision": 99}}'
            )

    def test_missing_required_param_is_named(self):
        with pytest.raises(ValidationError) as excinfo:
            load_config('{"model": "aggregate", "params": {"alpha": 0.1}}')
        assert "beta" in str(excinfo.value)

    def test_rejects_non_object_top_level(self):
        with pytest.raises(ValidationError):
            load_config('[1, 2, 3]')

    def test_lattice_families(self):
        linear = load_config('{"model": "lattice", "params": {"family": "linear"}}')
        assert linear.params["n_tasks"] == 1000
        # The default linear lattice is the paper's boundary model on 1,000 tasks.
        for name in ("alpha_h", "beta_h", "alpha_m", "beta_m", "gamma"):
            assert linear.params[name] == getattr(DEFAULT_BOUNDARY, name), name
        assert BetaShape(linear.params["p"], linear.params["q"]) == DEFAULT_BOUNDARY.shape
        # Every family's stop rule defaults to the lattice's own window.
        window = workmix.lattice.DEFAULT_STABILITY_WINDOW
        assert workmix.lattice.run_delegation.__defaults__ == (window,)
        assert linear.params["stability_window"] == window
        table = load_config(
            '{"model": "lattice", "params": {"family": "table",'
            ' "thetas": [0.2, 0.6], "human_values": [1.0, 1.0],'
            ' "machine_rows": [[0.5, 0.2], [1.5, 1.2]]}}'
        )
        assert table.params["stability_window"] == 3
        with pytest.raises(ValidationError):
            load_config('{"model": "lattice", "params": {"family": "cubic"}}')
        with pytest.raises(ValidationError):
            load_config(
                '{"model": "lattice", "params": {"family": "linear", "rows": 1}}'
            )


class TestEmitCsv:
    def test_aggregate_rows(self):
        result = run_config(builtin_scenario("paper-aggregate"))
        text = emit_csv(result, 4)
        lines = text.split("\n")
        assert lines[0] == "year,share"
        assert lines[1] == "2025,0.1000"
        assert lines[2] == "2026,0.1850"
        assert "2030,0.4152" in lines
        assert text.endswith("\n")
        assert len(lines) == 23  # header + 21 rows + trailing empty piece

    def test_replicator_header(self):
        result = run_config(builtin_scenario("paper-replicator"))
        assert emit_csv(result).startswith("year,x_routine,x_complex,x_total\n")

    def test_boundary_header(self):
        result = run_config(builtin_scenario("paper-boundary"))
        text = emit_csv(result, 4)
        assert text.startswith("year,theta,share\n2025,0.0926,0.1000\n")

    def test_sweep_axes_render_as_configured(self):
        result = run_config(builtin_scenario("paper-grid"))
        lines = emit_csv(result, 4).split("\n")
        assert lines[0] == "p,q,gamma,alpha_M,final_share,cross50_year"
        assert lines[1].startswith("1.5,5,0.03,")
        assert any(line.startswith("2.0,5,0.05,") for line in lines)
        # A cell that never crosses one half leaves the year column empty.
        assert any(line.endswith(",") for line in lines[1:] if line)

    def test_lattice_rows(self):
        config = load_config(
            '{"model": "lattice", "params": {"family": "table",'
            ' "thetas": [0.2, 0.6], "human_values": [1.0, 1.0],'
            ' "machine_rows": [[1.5, 0.2]]}}'
        )
        text = emit_csv(run_config(config), 2)
        lines = text.strip().split("\n")
        assert lines[0] == "t,automated_count,share"
        assert lines[1] == "0,0,0.00"
        assert lines[2] == "1,1,0.50"

    def test_empty_trajectory_emits_header_only(self):
        assert emit_csv(RunResult("aggregate", [])) == "year,share\n"

    def test_default_precision_is_six(self):
        result = run_config(builtin_scenario("paper-aggregate"))
        assert "2026,0.185000\n" in emit_csv(result)

    def test_rejects_negative_precision_and_unknown_model(self):
        result = run_config(builtin_scenario("paper-aggregate"))
        with pytest.raises(ValidationError, match=r"precision must lie in \[0, 17\], got -1"):
            emit_csv(result, -1)
        with pytest.raises(ValidationError, match=r"precision must lie in \[0, 17\], got 18"):
            emit_csv(result, 18)
        with pytest.raises(ValidationError, match="unknown model 'quantum'"):
            emit_csv(RunResult("quantum", result.data))


class TestEmitSvg:
    def test_line_chart_single_polyline(self):
        result = run_config(builtin_scenario("paper-aggregate"))
        document = emit_svg(result, "line")
        assert document.count("<polyline") == 1
        points = document.split('points="')[1].split('"')[0]
        assert len(points.split()) == 21
        assert "<svg" in document and "</svg>" in document

    def test_multi_line_chart_three_polylines(self):
        result = run_config(builtin_scenario("paper-replicator"))
        document = emit_svg(result, "multi-line")
        assert document.count("<polyline") == 3
        for label in ("routine", "complex", "total"):
            assert label in document

    def test_boundary_heatmap_cells_and_overlay(self):
        result = run_config(builtin_scenario("paper-boundary"))
        document = emit_svg(result, "heatmap")
        assert document.count("<rect") == 21 * 11
        assert document.count("<polyline") == 1

    def test_sweep_heatmap_one_rect_per_cell(self):
        result = run_config(builtin_scenario("paper-grid"))
        document = emit_svg(result, "heatmap")
        assert document.count("<rect") == 25
        assert document.count("<polyline") == 0

    def test_boundary_heatmap_without_config(self):
        data = run_config(builtin_scenario("paper-boundary")).data
        with pytest.raises(ChartError) as excinfo:
            emit_svg(RunResult("boundary", data), "heatmap")
        assert str(excinfo.value) == (
            "boundary heatmap needs the run's config, and this result has none"
        )

    def test_boundary_heatmap_with_another_models_config(self):
        data = run_config(builtin_scenario("paper-boundary")).data
        with pytest.raises(ChartError) as excinfo:
            emit_svg(RunResult("boundary", data, builtin_scenario("paper-aggregate")), "heatmap")
        assert str(excinfo.value) == (
            "boundary heatmap needs a boundary config, got 'aggregate'"
        )

    def test_chart_model_mismatch(self):
        result = run_config(builtin_scenario("paper-aggregate"))
        with pytest.raises(ChartError):
            emit_svg(result, "heatmap")
        with pytest.raises(ChartError):
            emit_svg(result, "spiral")


class TestSvgBytes:
    """Charts whose bytes the benchmark catalogue freezes, checked under its ids."""

    @pytest.mark.parametrize("entry_id", [
        pytest.param("cli/scenario-paper-boundary-format-svg-chart-heatmap",
                     id="boundary-heatmap"),
        pytest.param("cli/scenario-paper-grid-format-svg", id="grid-heatmap"),
        pytest.param("cli/run-lattice-linear-b", id="lattice-line"),
    ])
    def test_digest(self, entry_id):
        assert check(entry_id) is None


class TestVerify:
    def test_all_goldens_pass(self):
        report, all_passed = verify_goldens()
        assert all_passed
        assert "FAIL" not in report
        assert report.rstrip().endswith("golden checks passed")

    def test_deterministic(self):
        assert verify_goldens()[0] == verify_goldens()[0]

    def test_default_grid_computed_once_per_verify(self, count_calls):
        calls = count_calls(workmix.sweep, "run_grid")
        assert verify_goldens()[0].endswith("42/42 golden checks passed\n")
        # The three sweep-cell checks share one grid; the paper-grid CSV
        # check runs the scenario end to end.
        assert calls[0] == 2
        verify_goldens()
        assert calls[0] == 4


def _report_failures(report: str) -> list[str]:
    """The FAIL lines of a verify report, then its count line."""
    lines = report.splitlines()
    return [line for line in lines if line.startswith("FAIL")] + lines[-1:]


def _raise_computation_error(x, shape, intervals):
    raise workmix.ComputationError("oracle failed")


class TestVerifyReport:
    """The report's bytes: the passing one as catalogue entry `cli/verify`, and one
    failure of each kind."""

    def test_passing_report_digest(self):
        assert check("cli/verify") is None

    @pytest.mark.parametrize("module,name,replacement,failures", [
        pytest.param(workmix.aggregate, "closed_form", lambda t, params: 0.0, [
            "FAIL aggregate closed form t=10                 "
            "got 0.0000000000, want 0.5551045000 within 1e-06",
            "FAIL aggregate closed form t=20                 "
            "got 0.0000000000, want 0.6447029000 within 1e-06",
            "40/42 golden checks passed",
        ], id="number-out-of-tolerance"),
        pytest.param(workmix.sweep, "cross50", lambda params, horizon, bracket=None: 2040, [
            "FAIL half-automation year, default boundary     got 2040, want 2041",
            "41/42 golden checks passed",
        ], id="exact-value"),
        pytest.param(workmix.cli, "emit_csv", lambda result, precision=6: "", [
            "FAIL aggregate csv row 2026 at precision 4      expected substring '2026,0.1850'",
            "FAIL aggregate csv row 2030 at precision 4      expected substring '2030,0.4152'",
            "FAIL sweep csv axis row p=2.0 gamma=0.05        expected substring '2.0,5,0.05'",
            "39/42 golden checks passed",
        ], id="substring"),
        pytest.param(workmix.numerics, "oracle_beta_cdf", _raise_computation_error, [
            "FAIL simpson oracle at x=0.0926, shape (2,5)    "
            "raised ComputationError: oracle failed",
            "41/42 golden checks passed",
        ], id="crash"),
    ])
    def test_failure_lines(self, monkeypatch, module, name, replacement, failures):
        monkeypatch.setattr(module, name, replacement)
        report, all_passed = verify_goldens()
        assert not all_passed
        assert _report_failures(report) == failures


class TestGoldenTable:
    """The golden table, the report's count and the README agree."""

    def test_names_are_unique(self):
        names = [name for name, _, _, _ in golden_checks(workmix.cli._scenario_csv)]
        assert len(names) == len(set(names))

    def test_every_row_is_one_kind(self):
        # A float want needs a positive tolerance; a string (substring) or any
        # other (exact) want takes none.
        for name, compute, want, tol in golden_checks(workmix.cli._scenario_csv):
            assert callable(compute), name
            if isinstance(want, float):
                assert isinstance(tol, float) and tol > 0, name
            else:
                assert tol is None, name

    def test_row_count_matches_readme(self):
        path = Path(__file__).resolve().parents[1] / "README.md"
        readme = path.read_text(encoding="utf-8")
        counts = re.findall(r"(\d+)(?: built-in)? golden (?:checks|values)", readme)
        assert len(counts) >= 3
        rows = len(golden_checks(workmix.cli._scenario_csv))
        assert {int(count) for count in counts} == {rows}
        assert verify_goldens()[0].endswith(f"{rows}/{rows} golden checks passed\n")


class TestMain:
    def test_scenario_to_stdout(self, capsys):
        assert main(["scenario", "paper-aggregate", "--precision", "4"]) == 0
        out = capsys.readouterr().out
        assert "2026,0.1850" in out

    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            '{"model": "aggregate", "scenario": "paper-aggregate",'
            ' "output": {"precision": 4}}'
        )
        assert main(["run", str(path)]) == 0
        assert "2026,0.1850" in capsys.readouterr().out

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "shares.csv"
        assert main(
            ["scenario", "paper-aggregate", "--out", str(target)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("year,share\n")

    def test_determinism_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scenario", "paper-grid", "--out", str(a)])
        main(["scenario", "paper-grid", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        va, vb = tmp_path / "va.txt", tmp_path / "vb.txt"
        main(["verify", "--out", str(va)])
        main(["verify", "--out", str(vb)])
        assert va.read_bytes() == vb.read_bytes()

    def test_svg_output(self, capsys):
        assert main(
            ["scenario", "paper-replicator", "--format", "svg"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("<polyline") == 3

    def test_svg_of_a_subnormal_series(self, tmp_path, capsys):
        # Shares 5e-324, 0, 0, ...: the y axis spans one subnormal step.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "aggregate",
                                    "params": {"alpha": 0.0, "beta": 0.9, "x0": 5e-324},
                                    "output": {"format": "svg"}}))
        assert main(["run", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("<svg") and captured.out.endswith("</svg>\n")
        assert captured.err == ""

    def test_exit_codes(self, row_ids=_rows("exit-codes")):
        assert _faults(row_ids) == []

    def test_error_leaves_no_partial_output(self, row_ids=_rows("no-partial-output")):
        assert _faults(row_ids) == []

    def test_error_leaves_existing_file_untouched(self, row_ids=_rows("existing-file")):
        assert _faults(row_ids) == []

    def test_out_is_an_existing_directory(self, row_ids=_rows("out-directory")):
        assert _faults(row_ids) == []

    def test_out_file_gets_plain_open_permissions(self, tmp_path, capsys):
        target = tmp_path / "shares.csv"
        assert main(["scenario", "paper-aggregate", "--out", str(target)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shares.csv"]

    def test_numpy_stays_out_of_the_runtime(self):
        # The package and every CLI path, verify included, run on the
        # standard library alone.
        code = (
            "import sys, workmix\n"
            "imported = 'numpy' in sys.modules\n"
            "from workmix.cli import main\n"
            "status = main(['verify'])\n"
            "print(imported, 'numpy' in sys.modules, status, file=sys.stderr)\n"
        )
        src = os.path.dirname(os.path.dirname(workmix.lattice.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert done.stderr.strip() == "False False 0"
        assert done.stdout.endswith("42/42 golden checks passed\n")

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # Every CLI process pays for what ``import workmix.cli`` loads; the
        # value types are built without ``dataclasses`` and its ``inspect``.
        code = (
            "import sys\n"
            "before = {'dataclasses', 'inspect'} & set(sys.modules)\n"
            "import workmix.cli\n"
            "print(sorted(before), sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(workmix.lattice.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.stdout == "[] []\n", done.stderr

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        names = capsys.readouterr().out.split()
        assert names == scenario_names()
        assert "paper-aggregate" in names

    def test_list_scenarios_expand_round_trip(self, capsys):
        assert main(["list-scenarios", "--expand"]) == 0
        expanded = json.loads(capsys.readouterr().out)
        assert sorted(expanded) == sorted(scenario_names())
        for name, document in expanded.items():
            reloaded = load_config(json.dumps(document))
            assert reloaded == builtin_scenario(name)

    def test_verify_subcommand(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "golden checks passed" in out
        assert "FAIL" not in out

    def test_usage_error_exits_one(self, row_ids=_rows("usage")):
        assert _faults(row_ids) == []

    def test_flag_overrides_config_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            '{"model": "aggregate", "scenario": "paper-aggregate",'
            ' "output": {"precision": 2}}'
        )
        assert main(["run", str(path), "--precision", "5"]) == 0
        assert "2026,0.18500\n" in capsys.readouterr().out


class TestLatticeInvariantErrors:
    """Universe invariants fail the run with exit 1 and write nothing."""

    @pytest.mark.parametrize("row_id", _rows("lattice-invariant"), ids=_case)
    def test_run_exits_one_without_output(self, row_id):
        assert check(row_id) is None


class TestConfigErrors:
    """Every validation branch of loading: exact stderr line, exit 1, nothing written."""

    @pytest.mark.parametrize("row_id", _rows("config"), ids=_case)
    def test_run_exits_one_without_output(self, row_id):
        assert check(row_id) is None

    @pytest.mark.parametrize("row_id", [
        row_id for row_id in REFUSED
        if row_id.startswith("config/") and row_id.endswith(("param-error", "shape-error"))
    ], ids=_case)
    def test_typed_constructor_errors_surface_at_load(self, row_id):
        row = REFUSED[row_id]
        with pytest.raises((ParamError, DomainError)) as excinfo:
            load_config(json.dumps(row.config))
        assert "error: " + str(excinfo.value) == row.line

    @pytest.mark.parametrize("model,params", [
        ("boundary", dict(_BND, p=1e-3, q=1e3)),
        ("sweep", dict(_SWP, p_values=[1e-3, 1e3], q_values=[1e-3, 1e3])),
        ("lattice", {"family": "linear", "n_tasks": 5, "p": 1e-3, "q": 1e3}),
    ])
    def test_tested_shape_range_admits_its_ends(self, tmp_path, capsys, model, params):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": model, "params": params}))
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""


@st.composite
def replicator_documents(draw):
    """Replicator configs near |sensitivity * gap| = 1 at either end of the horizon.

    Each end's gap is drawn as a multiple in [-1.25, 1.25] of 1 / sensitivity,
    -1 and 1 among them, so float rounding leaves some configs just inside
    the bound and some just outside; tiny and subnormal shares come both
    from x0 and from long decays.
    """
    sensitivity = draw(st.floats(min_value=1e-3, max_value=1e3))
    horizon = draw(st.integers(min_value=1, max_value=1000))
    edges = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.25, max_value=1.25))
    shares = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                       st.sampled_from([5e-324, 1e-300, 1e-17]))

    def category():
        start, end = draw(edges) / sensitivity, draw(edges) / sensitivity
        intercept = draw(st.floats(min_value=-10.0, max_value=10.0))
        return {"x0": draw(shares), "machine_intercept": intercept,
                "machine_growth": (end - start) / max(horizon - 1, 1),
                "human_payoff": intercept - start}

    return {"model": "replicator", "params": {
        "routine": category(), "complex": category(), "sensitivity": sensitivity,
        "w_routine": draw(st.floats(min_value=0.0, max_value=1.0)),
        "horizon_years": horizon,
    }}


class TestReplicatorAdmission:
    @given(replicator_documents())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_admitted_configs_run(self, document):
        try:
            config = load_config(json.dumps(document))
        except ValidationError:
            return
        run_config(config)  # a RangeError here is an admitted config that fails


# Every numeric param of each base config (nested keys and a list's first
# element included) is set in turn to each of these values.
_FUZZ_VALUES = (1e300, -1e300, 1e-300, 1e6, 1e-6, 0, -1)
_FUZZ_BASES = [
    *((name, builtin_scenario(name).model, builtin_scenario(name).params)
      for name in scenario_names()),
    ("lattice-linear", "lattice", {
        "family": "linear", "n_tasks": 40, "p": 2.0, "q": 5.0, "alpha_h": 1.0,
        "beta_h": 1.5, "alpha_m": 1.3704, "beta_m": 2.5, "gamma": 0.04336,
        "max_years": 60, "stability_window": 3}),
    ("lattice-saturating", "lattice", {
        "family": "saturating", "n_tasks": 40, "p": 2.0, "q": 5.0, "alpha_h": 1.0,
        "beta_h": 1.5, "limit_intercept": 3.0, "limit_slope": 2.0,
        "max_years": 60, "stability_window": 3}),
]


def _numeric_paths(block):
    for key, value in block.items():
        if isinstance(value, dict):
            yield from ((key, *path) for path in _numeric_paths(value))
        elif isinstance(value, list):
            yield (key, 0)
        elif isinstance(value, (int, float)):
            yield (key,)


def _replaced(block, path, value):
    copy = json.loads(json.dumps(block))
    inner = copy
    for step in path[:-1]:
        inner = inner[step]
    inner[path[-1]] = value
    return copy


def _misbehaving(model, blocks):
    """The (label, params) blocks whose run neither answers nor is refused cleanly.

    An answer exits 0 with nothing on stderr and no nan or inf in its output;
    a refusal is clean by ``refusal_fault``, the REFUSED rows' test, with any
    one error line.
    """
    wrong = []
    for label, params in blocks:
        outcome = run(("run", "{config}"), {"model": model, "params": params})
        code, out, err, _ = outcome
        answered = code == 0 and err == "" and "nan" not in out and "inf" not in out
        if not answered and refusal_fault(outcome) is not None:
            wrong.append((label, code, err))
    return wrong


_FUZZ_BASE_PARAMS = [
    pytest.param(model, params, id=name) for name, model, params in _FUZZ_BASES
]


class TestConfigFuzz:
    """No value makes a run exit 2 or print nan or inf: a refused one exits 1 with one line."""

    @pytest.mark.parametrize("model,params", _FUZZ_BASE_PARAMS)
    def test_every_value_exits_zero_or_one(self, model, params):
        blocks = (
            ((key_path, value), _replaced(params, key_path, value))
            for key_path in _numeric_paths(params)
            for value in _FUZZ_VALUES
        )
        assert _misbehaving(model, blocks) == []

    @pytest.mark.parametrize("model,params", _FUZZ_BASE_PARAMS)
    def test_every_pair_of_extremes_exits_zero_or_one(self, model, params):
        blocks = (
            ((first, a, second, b), _replaced(_replaced(params, first, a), second, b))
            for first, second in itertools.combinations(_numeric_paths(params), 2)
            for a, b in itertools.product((1.7e308, -1.7e308, 5e-324, 0), repeat=2)
        )
        assert _misbehaving(model, blocks) == []

    def test_covers_every_numeric_param(self):
        counts = [len(list(_numeric_paths(params))) for _, _, params in _FUZZ_BASES]
        assert counts == [5, 12, 9, 9, 10, 9]


class TestSizeCaps:
    """Each cap admits its own value; the cases above reject one more."""

    @pytest.mark.parametrize("model,params", [
        ("aggregate", dict(_AGG, horizon_years=1000)),
        ("boundary", dict(_BND, horizon_years=1000)),
        ("sweep", dict(_SWP, horizon_years=1000, p_values=[1 + i / 100 for i in range(100)],
                       q_values=list(range(1, 101)))),
        ("lattice", {"family": "linear", "n_tasks": 10000, "max_years": 1000}),
        ("lattice", dict(_TABLE, machine_rows=[[0.5, 0.2]] * 1000)),
        ("lattice", dict(_TABLE, thetas=[i / 10000 for i in range(10000)],
                         human_values=[1.0] * 10000, machine_rows=[[0.5] * 10000])),
    ])
    def test_cap_is_inclusive(self, model, params):
        config = load_config(json.dumps({"model": model, "params": params}))
        assert config.params == {**config.params, **params}


class TestNonFiniteNumbers:
    def test_scalar_nan_is_rejected_by_name(self, row_ids=_rows("scalar-nan")):
        text = json.dumps(REFUSED[row_ids[0]].config)
        assert "NaN" in text
        with pytest.raises(ValidationError, match="alpha_h"):
            load_config(text)
        assert _faults(row_ids) == []

    def test_list_infinity_is_rejected_by_index(self, row_ids=_rows("list-infinity")):
        with pytest.raises(ValidationError, match=r"gamma_values\[1\]"):
            load_config(REFUSED[row_ids[0]].config)
        assert _faults(row_ids) == []

    def test_lattice_and_negative_infinity(self):
        with pytest.raises(ValidationError, match="limit_slope"):
            load_config(
                '{"model": "lattice", "params": {"family": "saturating",'
                ' "limit_intercept": 1.0, "limit_slope": -Infinity}}'
            )


_LATTICE_CONFIGS = [
    '{"model": "lattice", "params": {"family": "linear", "n_tasks": 40}}',
    '{"model": "lattice", "params": {"family": "saturating", "n_tasks": 40,'
    ' "limit_intercept": 3.0, "limit_slope": 1.0}}',
]


class TestLatticeBuildCount:
    """Loading validates only; running builds the task universe once."""

    @pytest.mark.parametrize("text", _LATTICE_CONFIGS, ids=["linear", "saturating"])
    def test_quantiles_computed_once_per_run(self, count_calls, text):
        calls = count_calls(workmix.lattice, "beta_quantile_thetas")
        config = load_config(text)
        assert calls[0] == 0
        run_config(config)
        assert calls[0] == 1


class TestLatticeRunContract:
    """``LatticeRun(params).build_universe()`` rebuilds the universe a run used."""

    @pytest.mark.parametrize("params", [
        {"family": "linear", "n_tasks": 40},
        {"family": "saturating", "n_tasks": 40, "limit_intercept": 3.0, "limit_slope": 1.0},
        {"family": "table", "thetas": [0.2, 0.4, 0.6], "human_values": [1.0, 1.0, 1.0],
         "machine_rows": [[0.5, 2.0, 0.5], [2.0, 2.0, 0.5]]},
    ], ids=["linear", "saturating", "table"])
    def test_final_allocation_inside_the_oracle(self, params):
        config = load_config(json.dumps({"model": "lattice", "params": params}))
        trace, n_tasks = run_config(config).data
        universe = workmix.cli.LatticeRun(config.params).build_universe()
        assert len(universe) == n_tasks
        assert trace.final.automated <= workmix.lattice.fixed_point_oracle(universe).automated


class TestLatticeQuantileWork:
    """The prefix search inverts only the Beta quantiles it reads."""

    @pytest.mark.parametrize("params,bound", [
        ({"family": "linear"}, 450),
        ({"family": "linear", "n_tasks": 10_000}, 1000),
    ], ids=["default", "ten-thousand-tasks"])
    def test_inverse_calls_per_run(self, count_calls, params, bound):
        # The lattice reads the inverse through its module when it inverts.
        calls = count_calls(workmix.numerics, "inv_reg_inc_beta")
        run_config(load_config(json.dumps({"model": "lattice", "params": params})))
        assert 0 < calls[0] <= bound


class TestUnreadableConfigs:
    """Configs that stop the JSON reader or the float conversion: one line, exit 1."""

    def test_integer_literal_over_digit_limit(self, row_ids=_rows("digit-limit")):
        assert _faults(row_ids) == []

    @pytest.mark.parametrize("row_id", _rows("double-range"), ids=_case)
    def test_integer_outside_double_range_names_the_key(self, row_id):
        assert check(row_id) is None

    def test_config_not_utf8(self, row_ids=_rows("not-utf8")):
        assert _faults(row_ids) == []

    def test_unhashable_lattice_family(self, row_ids=_rows("unhashable-family")):
        assert _faults(row_ids) == []

    def test_deeply_nested_json(self, row_ids=_rows("deep-nesting")):
        assert _faults(row_ids) == []


class TestOutErrors:
    def test_missing_directory_names_the_target(self, row_ids=_rows("missing-out-directory")):
        assert _faults(row_ids) == []

    # The ids these cases had when they were parametrized by command.
    @pytest.mark.parametrize("row_id", _rows("empty-out"), ids=[f"command{i}" for i in range(4)])
    def test_empty_out_is_refused(self, row_id):
        assert check(row_id) is None


class TestMainBranches:
    def test_csv_of_an_overflowing_heatmap_axis(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "sweep",
                                    "params": dict(_SWP, gamma_values=[1e308, 1.7e308])}))
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr() == (
            "p,q,gamma,alpha_M,final_share,cross50_year\n"
            "2.0,5,1e+308,1.370381,1.000000,2026\n"
            "2.0,5,1.7e+308,1.370381,1.000000,2026\n",
            "",
        )

    def test_heatmap_with_an_infinite_cell(self, row_ids=_rows("infinite-cell")):
        assert _faults(row_ids) == []
        # Its CSV has no advantage column.
        code, _, err, _ = run(("run", "{config}"), REFUSED[row_ids[0]].config)
        assert (code, err) == (0, "")

    def test_sweep_heatmap_needs_one_q_value(self, row_ids=_rows("sweep-heatmap")):
        assert _faults(row_ids) == []

    @pytest.mark.parametrize("row_id", _rows("chart-needs-svg"), ids=_case)
    def test_chart_needs_svg_output(self, row_id):
        assert check(row_id) is None

    def test_precision_flag_out_of_range(self, row_ids=_rows("precision-flag")):
        assert _faults(row_ids) == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: workmix")

    def test_help_lists_the_command_table(self, capsys):
        # One line per command, and per flag of each command, and no prose
        # written for the module's readers.
        assert main(["--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for command, (_, about, flags) in workmix.cli._COMMANDS.items():
            assert [line for line in lines
                    if line.split()[:1] == [command] and line.endswith(about)], command
            assert main([command, "--help"]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: workmix {command}")
            for flag, (_, text) in flags.items():
                assert [line for line in out.splitlines()
                        if line.split()[:1] == [flag] and line.endswith(text)], (command, flag)
            assert "  -h, --help" in out
        assert not [line for line in lines if "``" in line or "_ModelSpec" in line]

    def test_failed_golden_check_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(workmix.aggregate, "closed_form", lambda t, params: 0.0)
        assert main(["verify"]) == 2
        captured = capsys.readouterr()
        assert "FAIL aggregate closed form t=10" in captured.out
        assert captured.out.endswith("40/42 golden checks passed\n")
        assert captured.err == "error: golden checks failed\n"


# Each accepted argv and the plain spelling it means.
_ACCEPTED_ARGV = [
    pytest.param(["scenario", "--form", "svg", "paper-aggregate"],
                 ["scenario", "paper-aggregate", "--format", "svg"], id="prefix"),
    pytest.param(["scenario", "--precision", "3", "paper-aggregate"],
                 ["scenario", "paper-aggregate", "--precision", "3"], id="option-first"),
    pytest.param(["scenario", "paper-aggregate", "--precision=3"],
                 ["scenario", "paper-aggregate", "--precision", "3"], id="equals"),
    pytest.param(["scenario", "paper-aggregate", "--precision", "9", "--p=2", "--precision", "3"],
                 ["scenario", "paper-aggregate", "--precision", "3"], id="last-wins"),
    pytest.param(["scenario", "--", "paper-aggregate"],
                 ["scenario", "paper-aggregate"], id="dashes-before-name"),
    pytest.param(["scenario", "paper-aggregate", "--"],
                 ["scenario", "paper-aggregate"], id="dashes-after-name"),
    pytest.param(["scenario", "--chart=multi-line", "paper-replicator", "--f=svg"],
                 ["scenario", "paper-replicator", "--format", "svg"], id="chart"),
    pytest.param(["list-scenarios", "--e"], ["list-scenarios", "--expand"], id="switch-prefix"),
]

_DASH_WORDS = [pytest.param(word, argument, id=ascii(word)) for word, argument in DASH_WORDS]


class TestArgvReader:
    """What the CLI makes of its argv; the cases pin argparse's behaviour."""

    @pytest.mark.parametrize("row_id", _rows("argv"), ids=_case)
    def test_refused(self, row_id):
        assert check(row_id) is None

    @pytest.mark.parametrize("argv,plain", _ACCEPTED_ARGV)
    def test_accepted(self, capsys, argv, plain):
        assert main(plain) == 0
        want = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == want

    def test_out_with_equals(self, tmp_path, capsys):
        target = tmp_path / "shares.csv"
        assert main(["scenario", "paper-aggregate", f"--out={target}"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["scenario", "paper-aggregate"]) == 0
        assert target.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("word,argument", _DASH_WORDS)
    def test_dash_word_as_flag_value(self, tmp_path, monkeypatch, capsys, word, argument,
                                     row_ids=_rows("dash-flag-value")):
        if not argument:
            row_id = f"dash-flag-value/{word!a}"
            assert row_id in row_ids and check(row_id) is None
            return
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "paper-aggregate", "--out", word]) == 0
        assert capsys.readouterr() == ("", "")
        assert main(["scenario", "paper-aggregate"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [word]
        assert (tmp_path / word).read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("row_id", _rows("dash-positional"), ids=_case)
    def test_dash_word_as_positional(self, row_id):
        assert check(row_id) is None

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["--he"], ["-hh"], ["--bogus", "--help"], ["--help", "frobnicate"],
        ["scenario", "--help"], ["run", "-h"], ["list-scenarios", "--h"], ["verify", "--help"],
        ["scenario", "paper-aggregate", "--bogus", "--help", "--format", "x"],
    ])
    def test_help(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: workmix")
        assert captured.err == ""

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys,
                                           row_ids=_rows("console-script")):
        # The ``workmix`` script calls main() with no argument.
        assert main(["scenario", "paper-aggregate"]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["workmix", "scenario", "paper-aggregate"])
        assert main() == 0
        assert capsys.readouterr().out == want
        for row in map(REFUSED.get, row_ids):  # each refused argv, here read from sys.argv
            monkeypatch.setattr(sys, "argv", ["workmix", *row.argv])
            code = main()
            outcome = Outcome(code, *capsys.readouterr(), touched=[])
            assert refusal_fault(outcome, row.code, row.line) is None


def test_every_refused_row_is_checked_by_one_case():
    assert sorted(_CLAIMED) == sorted(REFUSED)
    assert not REFUSED.keys() & FROZEN.keys()
