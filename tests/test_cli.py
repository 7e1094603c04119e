"""Command-line behavior: strict configs, byte-stable output, exit codes."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from frozen_outputs import check
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
        with pytest.raises(ValidationError, match="precision must be >= 0, got -1"):
            emit_csv(result, -1)
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

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "aggregate", "params": {"alpha": 2}}')
        assert main(["run", str(bad)]) == 1
        assert main(["scenario", "nope"]) == 1
        assert main(["scenario", "paper-aggregate", "--chart", "heatmap",
                     "--format", "svg"]) == 1
        capsys.readouterr()

    def test_error_leaves_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "aggregate", "params": {"alpha": 2}}')
        target = tmp_path / "out.csv"
        assert main(["run", str(bad), "--out", str(target)]) == 1
        assert not target.exists()
        capsys.readouterr()

    def test_error_leaves_existing_file_untouched(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        target.write_text("keep me\n")
        assert main(["scenario", "paper-aggregate", "--format", "svg",
                     "--chart", "heatmap", "--out", str(target)]) == 1
        assert target.read_text() == "keep me\n"
        capsys.readouterr()

    def test_out_is_an_existing_directory(self, tmp_path, capsys):
        target = tmp_path / "target"
        target.mkdir()
        assert main(["scenario", "paper-aggregate", "--out", str(target)]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
        assert list(target.iterdir()) == []

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

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_flag_overrides_config_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            '{"model": "aggregate", "scenario": "paper-aggregate",'
            ' "output": {"precision": 2}}'
        )
        assert main(["run", str(path), "--precision", "5"]) == 0
        assert "2026,0.18500\n" in capsys.readouterr().out


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
    theta for theta in workmix.lattice.beta_quantile_thetas(20, BetaShape(2.0, 5.0))
    if workmix.lattice.Line(1.0, -2.0)(theta) < 0
)


def _case(case_id, model, params, message, **document):
    """One single-fault config: the model, its params block, the stderr line."""
    return pytest.param(
        {"model": model, "params": params, **document}, message, id=case_id
    )


def _check_exits_one_without_output(tmp_path, capsys, document, message):
    path = tmp_path / "config.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    target = tmp_path / "out.csv"
    assert main(["run", str(path), "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert not target.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


_LATTICE_INVARIANT_ERRORS = [
    _case(
        "negative-limit", "lattice",
        {"family": "saturating", "n_tasks": 20,
         "limit_intercept": 1.0, "limit_slope": 2.0},
        f"error: machine limit is negative at theta={_NEGATIVE_LIMIT_THETA!r}; "
        "the saturating schedule would decrease in t",
    ),
    _case(
        "duplicate-thetas", "lattice", dict(_TABLE, thetas=[0.2, 0.2]),
        "error: table_universe requires distinct theta values",
    ),
    _case(
        "short-row", "lattice", dict(_TABLE, machine_rows=[[0.5, 0.2], [1.5]]),
        "error: machine_rows[1] has 1 entries, expected 2",
    ),
    _case(
        "zero-gamma", "lattice", {"family": "linear", "n_tasks": 20, "gamma": 0},
        "error: gamma must be positive, got 0",
    ),
    _case(
        "zero-p", "lattice",
        {"family": "saturating", "n_tasks": 20, "p": 0,
         "limit_intercept": 1.0, "limit_slope": 0.5},
        "error: beta shape parameters must be positive, got p=0, q=5.0",
    ),
]


class TestLatticeInvariantErrors:
    """Universe invariants fail the run with exit 1 and write nothing."""

    @pytest.mark.parametrize("document,message", _LATTICE_INVARIANT_ERRORS)
    def test_run_exits_one_without_output(self, tmp_path, capsys, document, message):
        _check_exits_one_without_output(tmp_path, capsys, document, message)


_CONFIG_ERRORS = [
    # config document
    pytest.param('{"model": ', "error: config parse error at line 1, column 11: "
                 "Expecting value", id="parse-error"),
    pytest.param([1], "error: config must be a JSON object at top level",
                 id="top-level-list"),
    pytest.param({"params": _AGG}, "error: missing required key 'model' in config",
                 id="missing-model"),
    _case("unknown-top-key", "aggregate", _AGG,
          "error: unknown key 'extra' in config", extra=1),
    _case("unknown-model", "quantum", _AGG,
          "error: unknown model 'quantum' (expected one of aggregate, "
          "replicator, boundary, lattice, sweep)"),
    _case("scenario-and-params", "aggregate", _AGG,
          "error: config must provide exactly one of 'scenario' or 'params'",
          scenario="paper-aggregate"),
    pytest.param({"model": "aggregate"},
                 "error: config must provide exactly one of 'scenario' or 'params'",
                 id="neither-scenario-nor-params"),
    pytest.param({"model": "aggregate", "scenario": 3},
                 "error: scenario must be a string, got 3", id="scenario-not-string"),
    pytest.param({"model": "aggregate", "scenario": "paper-unknown"},
                 "error: unknown scenario 'paper-unknown' (builtins: paper-aggregate, "
                 "paper-replicator, paper-boundary, paper-grid)",
                 id="unknown-scenario"),
    pytest.param({"model": "aggregate", "scenario": "paper-grid"},
                 "error: scenario 'paper-grid' belongs to model 'sweep', "
                 "config says 'aggregate'", id="scenario-model-mismatch"),
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
]


class TestConfigErrors:
    """Every validation branch of loading: exact stderr line, exit 1, nothing written."""

    @pytest.mark.parametrize("document,message", _CONFIG_ERRORS)
    def test_run_exits_one_without_output(self, tmp_path, capsys, document, message):
        _check_exits_one_without_output(tmp_path, capsys, document, message)

    @pytest.mark.parametrize("document,message", [
        case for case in _CONFIG_ERRORS if case.id.endswith(("param-error", "shape-error"))
    ])
    def test_typed_constructor_errors_surface_at_load(self, document, message):
        with pytest.raises((ParamError, DomainError)) as excinfo:
            load_config(json.dumps(document))
        assert "error: " + str(excinfo.value) == message

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


def _misbehaving(tmp_path, capsys, model, blocks):
    """The (label, params) blocks whose run neither answers nor is refused cleanly.

    An answer exits 0 with nothing on stderr and no nan or inf in its output;
    a refusal exits 1 with one error line and nothing on stdout.
    """
    path = tmp_path / "config.json"
    wrong = []
    for label, params in blocks:
        path.write_text(json.dumps({"model": model, "params": params}))
        code = main(["run", str(path)])
        out, err = capsys.readouterr()
        answered = code == 0 and err == "" and "nan" not in out and "inf" not in out
        refused = code == 1 and out == "" and re.fullmatch(r"error: [^\n]*\n", err)
        if not (answered or refused):
            wrong.append((label, code, err))
    return wrong


_FUZZ_BASE_PARAMS = [
    pytest.param(model, params, id=name) for name, model, params in _FUZZ_BASES
]


class TestConfigFuzz:
    """No value makes a run exit 2 or print nan or inf: a refused one exits 1 with one line."""

    @pytest.mark.parametrize("model,params", _FUZZ_BASE_PARAMS)
    def test_every_value_exits_zero_or_one(self, tmp_path, capsys, model, params):
        blocks = (
            ((key_path, value), _replaced(params, key_path, value))
            for key_path in _numeric_paths(params)
            for value in _FUZZ_VALUES
        )
        assert _misbehaving(tmp_path, capsys, model, blocks) == []

    @pytest.mark.parametrize("model,params", _FUZZ_BASE_PARAMS)
    def test_every_pair_of_extremes_exits_zero_or_one(self, tmp_path, capsys, model, params):
        blocks = (
            ((first, a, second, b), _replaced(_replaced(params, first, a), second, b))
            for first, second in itertools.combinations(_numeric_paths(params), 2)
            for a, b in itertools.product((1.7e308, -1.7e308, 5e-324, 0), repeat=2)
        )
        assert _misbehaving(tmp_path, capsys, model, blocks) == []

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
    def test_scalar_nan_is_rejected_by_name(self, tmp_path, capsys):
        params = dict(builtin_scenario("paper-boundary").params, alpha_h=float("nan"))
        text = json.dumps({"model": "boundary", "params": params})
        assert "NaN" in text
        with pytest.raises(ValidationError, match="alpha_h"):
            load_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha_h must be a finite number, got nan\n"

    def test_list_infinity_is_rejected_by_index(self, tmp_path, capsys):
        text = (
            '{"model": "sweep", "params": {"p_values": [2.0], "q_values": [5],'
            ' "gamma_values": [0.05, Infinity]}}'
        )
        with pytest.raises(ValidationError, match=r"gamma_values\[1\]"):
            load_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: gamma_values[1] must be a finite number, got inf\n"
        )

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


_AGG_TEXT = '{"model": "aggregate", "params": {"alpha": 0.1, "beta": 0.05, "x0": 0.1'


class TestUnreadableConfigs:
    """Configs that stop the JSON reader or the float conversion: one line, exit 1."""

    def test_integer_literal_over_digit_limit(self, tmp_path, capsys):
        digits = sys.get_int_max_str_digits() + 1
        text = _AGG_TEXT + ', "start_year": ' + "1" * digits + "}}"
        _check_exits_one_without_output(
            tmp_path, capsys, text,
            f"error: config parse error: an integer literal has more than {digits - 1} digits",
        )

    @pytest.mark.parametrize("model,params,label", [
        ("boundary", dict(_BND, p=10**400), "p"),
        ("lattice", {"family": "linear", "n_tasks": 5, "alpha_m": -10**400}, "alpha_m"),
        ("sweep", dict(_SWP, gamma_values=[0.05, 10**400]), "gamma_values[1]"),
        ("aggregate", dict(_AGG, start_year=10**400), "start_year"),
    ], ids=["boundary-shape", "lattice-linear", "sweep-grid", "integer-field"])
    def test_integer_outside_double_range_names_the_key(
        self, tmp_path, capsys, model, params, label
    ):
        _check_exits_one_without_output(
            tmp_path, capsys, {"model": model, "params": params},
            f"error: {label} must lie within the range of a double, "
            "got an integer of 401 digits",
        )

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        head = _AGG_TEXT.encode() + b'}, "note": "'
        path.write_bytes(head + b'\xff"}')
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read config {str(path)!r}: not UTF-8 "
            f"(byte 0xff at offset {len(head)})\n"
        )

    def test_unhashable_lattice_family(self, tmp_path, capsys):
        _check_exits_one_without_output(
            tmp_path, capsys, {"model": "lattice", "params": {"family": ["linear"]}},
            "error: lattice params require family 'linear', 'saturating', or 'table', "
            "got ['linear']",
        )

    def test_deeply_nested_json(self, tmp_path, capsys):
        depth = 10**5
        _check_exits_one_without_output(
            tmp_path, capsys, "[" * depth + "]" * depth,
            "error: config parse error: arrays or objects nested too deeply",
        )


class TestOutErrors:
    def test_missing_directory_names_the_target(self, tmp_path, capsys):
        target = tmp_path / "missing" / "shares.csv"
        errors = []
        for _ in range(2):
            assert main(["scenario", "paper-aggregate", "--out", str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == (
            f"error: cannot write {str(target)!r}: No such file or directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["run", "config.json"], ["scenario", "paper-aggregate"], ["list-scenarios"], ["verify"],
    ])
    def test_empty_out_is_refused(self, tmp_path, monkeypatch, capsys, command):
        # An empty --out neither falls back to output.path nor reaches a write.
        monkeypatch.chdir(tmp_path)
        config = {"model": "aggregate", "scenario": "paper-aggregate",
                  "output": {"path": "out.csv"}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main([*command, "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out must not be empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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

    def test_heatmap_with_an_infinite_cell(self, tmp_path, capsys):
        # theta_t stays finite, but the payoff advantage overflows from 2026 on.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "boundary", "params": dict(
            _BND, alpha_h=1e308, alpha_m=1e308, gamma=1e308, beta_h=1, beta_m=1,
            horizon_years=1)}))
        target = tmp_path / "chart.svg"
        argv = ["run", str(path), "--format", "svg", "--chart", "heatmap", "--out", str(target)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: heatmap cell at year=2026.0, theta=0.0 must be finite, got inf\n"
        )
        assert not target.exists()
        assert main(["run", str(path)]) == 0  # its CSV has no advantage column
        assert capsys.readouterr().err == ""

    def test_sweep_heatmap_needs_one_q_value(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "sweep", "params": dict(_SWP, q_values=[3, 5])}))
        assert main(["run", str(path), "--format", "svg"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sweep heatmap needs exactly one q value; got 2 (filter the grid first)\n"
        )

    @pytest.mark.parametrize("argv,output", [
        (["scenario", "paper-aggregate", "--chart", "heatmap"], None),
        (["run", "config.json", "--chart", "line"], {"format": "csv"}),
        (["run", "config.json", "--format", "csv", "--chart", "line"], {"format": "svg"}),
        (["scenario", "paper-aggregate", "--format", "svg", "--precision", "3"], None),
        (["scenario", "paper-aggregate", "--format", "svg", "--precision", "18"], None),
        (["run", "config.json", "--precision", "3"], {"format": "svg"}),
    ], ids=["scenario", "run-csv-config", "run-csv-flag",
            "precision-svg-flag", "precision-svg-flag-out-of-range", "precision-svg-config"])
    def test_chart_needs_svg_output(self, tmp_path, monkeypatch, capsys, argv, output):
        # And its mirror: --precision needs CSV output.
        monkeypatch.chdir(tmp_path)
        config = {"model": "aggregate", "params": _AGG, "output": output}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main([*argv, "--out", "out.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if "--chart" in argv:
            assert captured.err == "error: --chart needs SVG output, got format 'csv'\n"
        else:
            assert captured.err == "error: --precision needs CSV output, got format 'svg'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_precision_flag_out_of_range(self, capsys):
        assert main(["scenario", "paper-aggregate", "--precision", "18"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must lie in [0, 17], got 18\n"

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


_COMMAND_CHOICES = "(choose from 'run', 'scenario', 'list-scenarios', 'verify')"
_BIG_PRECISION = "9" * 5000

# argv the CLI refuses, each with its one stderr line and exit 1.  The lines
# are argparse's, so the reader that replaced it says the same.
_REFUSED_ARGV = [
    pytest.param([], "the following arguments are required: command", id="no-command"),
    pytest.param(["--bogus"], "the following arguments are required: command",
                 id="no-command-after-option"),
    pytest.param(["scenario"], "the following arguments are required: name", id="no-name"),
    pytest.param(["run"], "the following arguments are required: config_path",
                 id="no-config-path"),
    pytest.param(["frobnicate"], f"argument command: invalid choice: 'frobnicate' "
                 f"{_COMMAND_CHOICES}", id="bad-command"),
    pytest.param(["frobnicate", "--help"], f"argument command: invalid choice: 'frobnicate' "
                 f"{_COMMAND_CHOICES}", id="bad-command-then-help"),
    pytest.param(["--", "scenario", "paper-aggregate"], f"argument command: invalid choice: "
                 f"'--' {_COMMAND_CHOICES}", id="dashes-as-command"),
    pytest.param(["scenario", "paper-aggregate", "--format", "x"],
                 "argument --format: invalid choice: 'x' (choose from 'csv', 'svg')",
                 id="bad-format"),
    pytest.param(["scenario", "paper-aggregate", "--format", "svg", "--chart", "pie"],
                 "argument --chart: invalid choice: 'pie' "
                 "(choose from 'line', 'multi-line', 'heatmap')", id="bad-chart"),
    pytest.param(["scenario", "paper-aggregate", "--precision", "x"],
                 "argument --precision: invalid int value: 'x'", id="bad-int"),
    pytest.param(["scenario", "paper-aggregate", "--precision", _BIG_PRECISION],
                 f"argument --precision: invalid int value: {_BIG_PRECISION!r}",
                 id="int-over-digit-limit"),
    pytest.param(["scenario", "paper-aggregate", "--precision", "-1"],
                 "precision must lie in [0, 17], got -1", id="negative-precision"),
    pytest.param(["scenario", "--precision", "x", "--help"],
                 "argument --precision: invalid int value: 'x'", id="bad-int-then-help"),
    pytest.param(["scenario", "paper-aggregate", "--out"],
                 "argument --out: expected one argument", id="out-without-value"),
    pytest.param(["scenario", "paper-aggregate", "--out", "--format", "svg"],
                 "argument --out: expected one argument", id="out-before-flag"),
    pytest.param(["scenario", "paper-aggregate", "--out", "-x"],
                 "argument --out: expected one argument", id="out-before-option"),
    pytest.param(["scenario", "paper-aggregate", "--out", "--", "x"],
                 "argument --out: expected one argument", id="out-before-dashes"),
    pytest.param(["scenario", "paper-aggregate", "--bogus"],
                 "unrecognized arguments: --bogus", id="unknown-flag"),
    pytest.param(["scenario", "paper-aggregate", "b"],
                 "unrecognized arguments: b", id="second-positional"),
    pytest.param(["verify", "b"], "unrecognized arguments: b", id="verify-positional"),
    pytest.param(["--bogus", "scenario", "paper-aggregate"],
                 "unrecognized arguments: --bogus", id="unknown-flag-before-command"),
    pytest.param(["--x", "verify", "--y", "b", "--z=3", "-p"],
                 "unrecognized arguments: --x --y b --z=3 -p", id="unknown-in-order"),
    pytest.param(["verify", "--"], "unrecognized arguments: --", id="verify-dashes"),
    pytest.param(["scenario", "a", "--bogus", "--", "b"],
                 "unrecognized arguments: --bogus -- b", id="dashes-apart-from-name"),
    pytest.param(["scenario", "paper-aggregate", "--", "--out", "x"],
                 "unrecognized arguments: --out x", id="flag-after-dashes"),
    pytest.param(["list-scenarios", "--expand=1"],
                 "argument --expand: ignored explicit argument '1'", id="switch-with-value"),
    pytest.param(["--help=x"], "argument -h/--help: ignored explicit argument 'x'",
                 id="help-with-value"),
    pytest.param(["-help"], "argument -h/--help: ignored explicit argument 'elp'",
                 id="short-help-with-value"),
    pytest.param(["scenario", "paper-aggregate", "--=x"],
                 "ambiguous option: --=x could match --help, --out, --format, --precision, "
                 "--chart", id="ambiguous"),
]

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

# Words that start with "-", each with whether argparse reads it as an argument
# rather than an option: "-" alone, and those its ^-\d+$|^-\d*\.\d+$ matches,
# where "$" also matches before a final newline and "\d" is any decimal digit
# (str.isdecimal: "-٣" is a number, the superscript "-²" is not).
_DASH_WORDS = [
    pytest.param(word, argument, id=ascii(word)) for word, argument in [
        ("-1", True), ("-0", True), ("-.5", True), ("-1.", False), ("-1e3", False),
        ("--1", False), ("-", True), ("-x", False), ("-.5.5", False), ("-1\n", True),
        ("-٣", True), ("-²", False),
    ]
]


class TestArgvReader:
    """What the CLI makes of its argv; the cases pin argparse's behaviour."""

    @pytest.mark.parametrize("argv,message", _REFUSED_ARGV)
    def test_refused(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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
    def test_dash_word_as_flag_value(self, tmp_path, monkeypatch, capsys, word, argument):
        monkeypatch.chdir(tmp_path)
        code = main(["scenario", "paper-aggregate", "--out", word])
        captured = capsys.readouterr()
        assert captured.out == ""
        if argument:
            assert (code, captured.err) == (0, "")
            assert main(["scenario", "paper-aggregate"]) == 0
            assert [p.name for p in tmp_path.iterdir()] == [word]
            assert (tmp_path / word).read_text() == capsys.readouterr().out
        else:
            assert (code, captured.err) == (1, "error: argument --out: expected one argument\n")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("word,argument", _DASH_WORDS)
    def test_dash_word_as_positional(self, capsys, word, argument):
        assert main(["scenario", word]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if argument:
            assert captured.err == (
                f"error: unknown scenario {word!r} (builtins: paper-aggregate, "
                "paper-replicator, paper-boundary, paper-grid)\n"
            )
        else:
            assert captured.err == "error: the following arguments are required: name\n"

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

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys):
        # The ``workmix`` script calls main() with no argument.
        assert main(["scenario", "paper-aggregate"]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["workmix", "scenario", "paper-aggregate"])
        assert main() == 0
        assert capsys.readouterr().out == want
        monkeypatch.setattr(sys, "argv", ["workmix", "frobnicate"])
        assert main() == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: argument command: invalid choice: 'frobnicate' {_COMMAND_CHOICES}\n"
        )
