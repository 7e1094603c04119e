"""Command-line behavior: strict configs, byte-stable output, exit codes."""

import json

import pytest

import workmix.lattice
from workmix import ChartError, ParseError, ValidationError
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

    def test_chart_model_mismatch(self):
        result = run_config(builtin_scenario("paper-aggregate"))
        with pytest.raises(ChartError):
            emit_svg(result, "heatmap")
        with pytest.raises(ChartError):
            emit_svg(result, "spiral")


class TestVerify:
    def test_all_goldens_pass(self):
        report, all_passed = verify_goldens()
        assert all_passed
        assert "FAIL" not in report
        assert report.rstrip().endswith("golden checks passed")

    def test_deterministic(self):
        assert verify_goldens()[0] == verify_goldens()[0]


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


_LATTICE_INVARIANT_ERRORS = [
    (
        {"family": "saturating", "n_tasks": 20,
         "limit_intercept": 1.0, "limit_slope": 2.0},
        "error: machine limit is negative at theta=0.5416726198054462; "
        "the saturating schedule would decrease in t",
    ),
    (
        {"family": "table", "thetas": [0.2, 0.2], "human_values": [1.0, 1.0],
         "machine_rows": [[0.5, 0.2]]},
        "error: table_universe requires distinct theta values",
    ),
    (
        {"family": "table", "thetas": [0.2, 0.6], "human_values": [1.0, 1.0],
         "machine_rows": [[0.5, 0.2], [1.5]]},
        "error: machine_rows[1] has 1 entries, expected 2",
    ),
    (
        {"family": "linear", "n_tasks": 20, "gamma": 0},
        "error: gamma must be positive, got 0",
    ),
    (
        {"family": "saturating", "n_tasks": 20, "p": 0,
         "limit_intercept": 1.0, "limit_slope": 0.5},
        "error: beta shape parameters must be positive, got p=0, q=5.0",
    ),
]


class TestLatticeInvariantErrors:
    """Universe invariants fail the run with exit 1 and write nothing."""

    @pytest.mark.parametrize(
        "params,message", _LATTICE_INVARIANT_ERRORS,
        ids=["negative-limit", "duplicate-thetas", "short-row", "zero-gamma", "zero-p"],
    )
    def test_run_exits_one_without_output(self, tmp_path, capsys, params, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "lattice", "params": params}))
        target = tmp_path / "out.csv"
        assert main(["run", str(path), "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert not target.exists()


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
    def test_quantiles_computed_once_per_run(self, monkeypatch, text):
        calls = [0]
        original = workmix.lattice.beta_quantile_thetas

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(workmix.lattice, "beta_quantile_thetas", counted)
        config = load_config(text)
        assert calls[0] == 0
        run_config(config)
        assert calls[0] == 1
