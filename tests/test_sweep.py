"""Grid sweep over intricacy shape and improvement rate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import workmix.boundary
import workmix.numerics
import workmix.sweep
from workmix import (
    DEFAULT_GRID,
    BetaShape,
    ContinuousParams,
    DomainError,
    GridSpec,
    ParamError,
    automated_share,
    automation_boundary,
    cross50,
    inv_reg_inc_beta,
    reg_inc_beta,
    run_grid,
)

from exact_beta import beta_cdf


def scan_cross50(params, horizon):
    """Reference half-share year: the CDF at every year from t = 0."""
    for t in range(horizon + 1):
        if automated_share(t, params) >= 0.5:
            return params.start_year + t
    return None


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def cell_params(grid, cell):
    return ContinuousParams(
        alpha_h=grid.alpha_h,
        beta_h=grid.beta_h,
        alpha_m=cell.alpha_m_used,
        beta_m=grid.beta_m,
        gamma=float(cell.gamma),
        shape=BetaShape(float(cell.p), float(cell.q)),
        start_year=grid.start_year,
    )


class TestGridSpec:
    def test_default_axes(self):
        assert DEFAULT_GRID.p_values == (1.5, 2.0, 2.5, 3.0, 3.5)
        assert DEFAULT_GRID.q_values == (5,)
        assert DEFAULT_GRID.gamma_values == (0.03, 0.04, 0.05, 0.06, 0.07)
        assert DEFAULT_GRID.horizon_years == 20
        assert DEFAULT_GRID.initial_share_target == 0.10

    def test_validation(self):
        with pytest.raises(ParamError):
            GridSpec((), (5,), (0.03,), 20, 0.10)
        with pytest.raises(ParamError):
            GridSpec((2.0, 1.5), (5,), (0.03,), 20, 0.10)
        with pytest.raises(ParamError):
            GridSpec((1.5,), (5,), (0.03,), 0, 0.10)
        with pytest.raises(ParamError):
            GridSpec((1.5,), (5,), (0.03,), 20, 1.0)
        with pytest.raises(ParamError, match="beta_h \\+ beta_m must be finite, got inf"):
            GridSpec((1.5,), (5,), (0.03,), 20, 0.10, beta_h=1.7e308, beta_m=1.7e308)
        with pytest.raises(ParamError, match="beta_h must be positive, got 0"):
            GridSpec((1.5,), (5,), (0.03,), 20, 0.10, beta_h=0)
        with pytest.raises(ParamError, match="beta_m must be positive, got -1.0"):
            GridSpec((1.5,), (5,), (0.03,), 20, 0.10, beta_m=-1.0)

    @pytest.mark.parametrize("axes", [((-1.0, 2.0), (5,), (0.03,)), ((1.5,), (5,), (0.0,))])
    def test_rejects_non_positive_axis_value(self, axes):
        with pytest.raises(ParamError, match="must be positive"):
            GridSpec(*axes, 20, 0.10)

    @pytest.mark.parametrize("fields", [
        pytest.param({"gamma_values": (0.0,)}, id="gamma-zero"),
        pytest.param({"gamma_values": (-0.01,)}, id="gamma-negative"),
        pytest.param({"gamma_values": (math.nan,)}, id="gamma-nan"),
        pytest.param({"beta_h": 0}, id="beta_h-zero"),
        pytest.param({"beta_m": 0}, id="beta_m-zero"),
    ])
    def test_run_grid_refuses_a_grid_built_past_the_checks(self, fields):
        # _replace builds a grid without GridSpec.__new__; run_grid checks it again.
        with pytest.raises(ParamError, match="must be positive"):
            run_grid(DEFAULT_GRID._replace(**fields))


class TestRunGrid:
    def test_row_major_order(self):
        cells = run_grid(DEFAULT_GRID)
        assert len(cells) == 25
        triples = [(c.p, c.q, c.gamma) for c in cells]
        expected = [
            (p, q, g)
            for p in DEFAULT_GRID.p_values
            for q in DEFAULT_GRID.q_values
            for g in DEFAULT_GRID.gamma_values
        ]
        assert triples == expected

    def test_reference_cells(self):
        lookup = {
            (c.p, c.gamma): c.final_share * 100.0 for c in run_grid(DEFAULT_GRID)
        }
        # Published milestones, quoted to one decimal place.
        assert lookup[(2.0, 0.05)] == pytest.approx(66.7, abs=0.15)
        assert lookup[(3.0, 0.03)] == pytest.approx(39.8, abs=0.15)
        assert lookup[(1.5, 0.07)] == pytest.approx(85.6, abs=0.15)

    def test_full_grid_frozen(self):
        # Frozen from the quadrature + bisection scratch route (worst
        # disagreement with the published one-decimal table: 0.046 pp).
        expected = {
            (1.5, 0.03): 0.504909226176647,
            (1.5, 0.07): 0.8563049472037558,
            (2.0, 0.03): 0.44840939756273945,
            (2.0, 0.05): 0.6668727512429538,
            (2.5, 0.06): 0.7321187890193207,
            (3.0, 0.04): 0.5125398308199357,
            (3.5, 0.07): 0.8046790846700059,
        }
        lookup = {(c.p, c.gamma): c.final_share for c in run_grid(DEFAULT_GRID)}
        for key, want in expected.items():
            assert lookup[key] == pytest.approx(want, abs=1e-12)

    def test_every_cell_pins_initial_share(self):
        cells = run_grid(DEFAULT_GRID)
        for cell in cells:
            params = cell_params(DEFAULT_GRID, cell)
            assert automated_share(0, params) == pytest.approx(
                DEFAULT_GRID.initial_share_target, abs=1e-9
            )

    def test_recalibration_formula(self):
        for cell in run_grid(DEFAULT_GRID):
            shape = BetaShape(float(cell.p), float(cell.q))
            theta0 = inv_reg_inc_beta(0.10, shape)
            want = DEFAULT_GRID.alpha_h + (
                DEFAULT_GRID.beta_m + DEFAULT_GRID.beta_h
            ) * theta0
            assert cell.alpha_m_used == pytest.approx(want, abs=1e-15)

    def test_final_share_increases_with_gamma(self):
        cells = run_grid(DEFAULT_GRID)
        for p in DEFAULT_GRID.p_values:
            row = [c.final_share for c in cells if c.p == p]
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_integer_p_cells_match_binomial_tail(self):
        grid = DEFAULT_GRID
        for cell in run_grid(grid):
            if float(cell.p) != int(cell.p):
                continue
            params = cell_params(grid, cell)
            theta_end = min(
                1.0,
                max(
                    0.0,
                    (params.alpha_m - params.alpha_h + params.gamma * 20)
                    / (params.beta_m + params.beta_h),
                ),
            )
            want = beta_cdf(theta_end, int(cell.p), int(cell.q))
            assert abs(cell.final_share - want) <= 1e-9


class TestCross50:
    def test_default_boundary_crossing(self):
        from workmix import DEFAULT_BOUNDARY

        assert cross50(DEFAULT_BOUNDARY, 20) == 2041

    def test_grid_cross_years_frozen(self):
        lookup = {(c.p, c.gamma): c.cross50_year for c in run_grid(DEFAULT_GRID)}
        assert lookup[(1.5, 0.03)] == 2045
        assert lookup[(2.0, 0.05)] == 2039
        assert lookup[(3.5, 0.04)] == 2045
        assert lookup[(2.0, 0.03)] is None
        assert lookup[(3.0, 0.03)] is None

    def test_start_above_half(self):
        params = ContinuousParams(
            alpha_h=1.0, beta_h=1.5, alpha_m=3.0, beta_m=2.5,
            gamma=0.01, shape=BetaShape(2, 5),
        )
        assert automated_share(0, params) > 0.5
        assert cross50(params, 20) == params.start_year

    def test_never_crossing(self):
        params = ContinuousParams(
            alpha_h=1.0, beta_h=1.5, alpha_m=1.3704, beta_m=2.5,
            gamma=0.001, shape=BetaShape(2, 5),
        )
        assert cross50(params, 20) is None

    def test_consistency_with_shares(self):
        for cell in run_grid(DEFAULT_GRID):
            params = cell_params(DEFAULT_GRID, cell)
            year = cell.cross50_year
            if year is None:
                assert all(
                    automated_share(t, params) < 0.5 for t in range(21)
                )
            else:
                t = year - params.start_year
                assert automated_share(t, params) >= 0.5
                if t > 0:
                    assert automated_share(t - 1, params) < 0.5

    def test_rejects_zero_horizon(self):
        from workmix import DEFAULT_BOUNDARY

        with pytest.raises(ParamError):
            cross50(DEFAULT_BOUNDARY, 0)


def assert_cells_match_scan(grid, cells):
    """Each cell equals the public per-cell API exactly, and the year the scan's."""
    for cell in cells:
        params = cell_params(grid, cell)
        want = scan_cross50(params, grid.horizon_years)
        assert cell.cross50_year == want, cell
        assert cell.cross50_year == cross50(params, grid.horizon_years), cell
        assert cell.final_share == automated_share(grid.horizon_years, params), cell


def axis(start, step, count):
    return tuple(round(start + step * i, 4) for i in range(count))


class TestMedianBracket:
    """run_grid's half-share year equals the plain per-year scan."""

    @given(
        p=log_uniform(1e-3, 1e3),
        q=log_uniform(1e-3, 1e3),
        gammas=st.lists(log_uniform(1e-9, 1.0), min_size=1, max_size=3, unique=True),
        horizon=st.integers(1, 200),
        target=st.floats(1e-6, 1.0 - 1e-6),
        alpha_h=st.floats(-2.0, 2.0),
        beta_h=st.floats(0.1, 5.0),
        beta_m=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_scan(self, p, q, gammas, horizon, target, alpha_h, beta_h, beta_m):
        grid = GridSpec(
            (p,), (q,), tuple(sorted(gammas)), horizon, target,
            alpha_h=alpha_h, beta_h=beta_h, beta_m=beta_m,
        )
        assert_cells_match_scan(grid, run_grid(grid))

    def test_sweep_grid_shape_with_few_cdf_calls(self, monkeypatch, count_calls):
        # The benchmark's sweep-grid layout: 8 x 8 shapes, 20 gammas, 60 years.
        grid = GridSpec(
            p_values=axis(0.8, 0.5, 8),
            q_values=axis(1.0, 0.75, 8),
            gamma_values=axis(0.01, 0.0025, 20),
            horizon_years=60,
            initial_share_target=0.10,
        )
        # Forward CDF calls outside the inverse, through either binding the
        # sweep reaches them by (final share and half-share year).
        calls = count_calls(workmix.sweep, "reg_inc_beta")
        count_calls(workmix.boundary, "reg_inc_beta", calls)
        # The rest: those inside the inverse and the median search.
        inner = count_calls(workmix.numerics, "reg_inc_beta")
        inverses = count_calls(workmix.sweep, "inv_reg_inc_beta")
        cells = run_grid(grid)
        monkeypatch.undo()
        assert len(cells) == 1280
        assert calls[0] <= 4 * len(cells)
        assert calls[0] + inner[0] <= 34 * 64
        assert inverses[0] == 64  # the calibrations only
        assert_cells_match_scan(grid, cells)
        assert {cell.cross50_year is None for cell in cells} == {True, False}

    def test_shape_outside_tested_range_is_refused(self):
        grid = GridSpec(
            p_values=(5e-4, 1.5),
            q_values=(2.0,),
            gamma_values=(1e-2,),
            horizon_years=60,
            initial_share_target=0.10,
        )
        with pytest.raises(DomainError, match="^p must lie in .* got 0.0005$"):
            run_grid(grid)

    @given(
        alpha_m=st.floats(-3.0, 6.0),
        gamma=log_uniform(1e-9, 1.0),
        k=st.integers(0, 220),
        horizon=st.integers(1, 200),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_skips_exactly_the_years_below_lo(self, alpha_m, gamma, k, horizon):
        params = ContinuousParams(
            alpha_h=1.0, beta_h=1.5, alpha_m=alpha_m, beta_m=2.5,
            gamma=gamma, shape=BetaShape(2.0, 5.0),
        )
        # A lo that some year's boundary equals exactly, where the closed-form
        # start year is most likely to be off by one.
        lo = automation_boundary(k, params)
        first = next(
            (t for t in range(horizon + 1) if automation_boundary(t, params) >= lo),
            horizon + 1,
        )
        want = next(
            (params.start_year + t for t in range(first, horizon + 1)
             if automated_share(t, params) >= 0.5),
            None,
        )
        assert cross50(params, horizon, bracket=(lo, math.inf)) == want

    def test_unconfirmed_bracket_is_refused(self, monkeypatch):
        # A location on the median with a density so large that both ends
        # collapse onto it: the CDF there does not clear the band around one
        # half, so no bracket is used.
        monkeypatch.setattr(
            workmix.sweep,
            "locate_quantile",
            lambda target, shape: (inv_reg_inc_beta(target, shape), 1e300),
        )
        assert workmix.sweep._median_bracket(BetaShape(2.0, 5.0)) == (-math.inf, math.inf)
        grid = GridSpec((1.5, 2.0), (5,), (0.03, 0.05), 40, 0.10)
        assert_cells_match_scan(grid, run_grid(grid))


def assert_confirmed_bracket(shape):
    """A bracket is made, and the computed CDF clears the band at both ends."""
    lo, hi = workmix.sweep._median_bracket(shape)
    assert 0.0 <= lo < hi <= 1.0, shape
    assert reg_inc_beta(lo, shape) <= 0.5 - workmix.sweep._DELTA, shape
    assert reg_inc_beta(hi, shape) >= 0.5 + workmix.sweep._DELTA, shape


class TestBracketCoverage:
    """Which shapes get a median bracket; the scan serves the rest."""

    def test_every_benchmark_and_default_shape_gets_a_bracket(self):
        # The benchmark's sweep-grid catalogue: p axes from 0.8, 1.0 and 1.5
        # in steps of 0.5, q axes from 1.0 and 2.0 in steps of 0.75.
        shapes = {
            (p, q)
            for p_start in (0.8, 1.0, 1.5)
            for q_start in (1.0, 2.0)
            for p in axis(p_start, 0.5, 8)
            for q in axis(q_start, 0.75, 8)
        }
        shapes |= {(p, q) for p in DEFAULT_GRID.p_values for q in DEFAULT_GRID.q_values}
        for p, q in sorted(shapes):
            assert_confirmed_bracket(BetaShape(float(p), float(q)))

    @given(p=log_uniform(0.05, 50.0), q=log_uniform(0.05, 50.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_moderate_shapes_get_a_confirmed_bracket(self, p, q):
        assert_confirmed_bracket(BetaShape(p, q))

    @pytest.mark.parametrize("shift", [-4.0, 4.0])
    def test_each_end_is_checked(self, monkeypatch, shift):
        # A location 4 delta above (below) the median puts lo (hi) on the
        # median, where the CDF does not clear the band; the other end does.
        shape = BetaShape(2.0, 5.0)
        _, density = workmix.sweep.locate_quantile(0.5, shape)
        monkeypatch.setattr(
            workmix.sweep,
            "locate_quantile",
            lambda target, shape: (
                inv_reg_inc_beta(target + shift * workmix.sweep._DELTA, shape), density
            ),
        )
        assert workmix.sweep._median_bracket(shape) == (-math.inf, math.inf)

    @pytest.mark.parametrize("p,q", [(1000.0, 0.01), (40.0, 0.02)])
    def test_extreme_tested_shape_gets_no_bracket(self, p, q):
        # (1000, 0.01): an end would fall below 0; (40, 0.02): the median
        # search gives up.
        assert workmix.sweep._median_bracket(BetaShape(p, q)) == (-math.inf, math.inf)
