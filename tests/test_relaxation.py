import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VORTEX_AREA_B2, VORTEX_TV_B2, planar_tv_area_b3_oracle

from relaxarea.domains import Ball
from relaxarea.errors import InsufficientData, InvalidParams
from relaxarea.fields import make_example_field
from relaxarea import relaxation
from relaxarea.relaxation import (
    ConvergenceReport,
    StudyRow,
    convergence_study,
    extrapolate_limit,
    fit_power_model,
    report_csv_text,
    report_json_dict,
    strict_bv_check,
    study_chain_disk,
    study_cone_dipole,
    study_counterexample,
    study_cylinder_analogue_2d,
    study_dipole_gradient,
    study_from_rows,
    study_vortex_smoothing,
    subadd_csv_text,
    subadd_json_dict,
    subadditivity_experiment,
)


def report_from_pairs(pairs, parameter="eps"):
    rows = [StudyRow(p, v, v, v, 0.0, 0.0, 0.0) for p, v in pairs]
    return ConvergenceReport(parameter, sorted(rows, key=lambda r: r.param))


class TestFit:
    def test_exact_linear_family(self):
        rep = report_from_pairs([(0.2, 1.2), (0.1, 1.1), (0.05, 1.05),
                                 (0.025, 1.025)])
        limit, rate, residual = extrapolate_limit(rep, "area")
        assert limit == pytest.approx(1.0, abs=1e-9)
        assert rate == pytest.approx(1.0, abs=1e-3)
        assert residual <= 1e-9

    def test_single_row_is_insufficient(self):
        rep = report_from_pairs([(0.1, 1.0)])
        with pytest.raises(InsufficientData):
            extrapolate_limit(rep, "area")

    def test_three_rows_give_limit_but_no_rate(self):
        rep = report_from_pairs([(0.2, 1.04), (0.1, 1.02), (0.05, 1.01)])
        limit, rate, _ = extrapolate_limit(rep, "area")
        assert limit == pytest.approx(1.0, abs=1e-6)
        assert rate is None

    def test_constant_rows_skip_rate_fit(self):
        a, b, p, res = fit_power_model(
            np.array([0.2, 0.1, 0.05]), np.array([2.5, 2.5, 2.5])
        )
        assert a == 2.5 and p is None and res == 0.0

    @given(st.floats(-5, 5), st.floats(0.2, 3.0), st.floats(0.6, 1.9))
    @settings(max_examples=40)
    def test_power_model_recovery(self, a, b, p):
        x = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        y = a + b * x**p
        a_fit, b_fit, p_fit, res = fit_power_model(x, y)
        assert a_fit == pytest.approx(a, abs=2e-3 * max(1, abs(a) + b))
        assert p_fit == pytest.approx(p, abs=0.02)
        assert res <= 1e-3

    def test_unconverged_rows_are_excluded(self):
        rows = [StudyRow(0.2, 1.2, 1.2, 0, 0, 0, 0),
                StudyRow(0.1, 1.1, 1.1, 0, 0, 0, 0),
                StudyRow(0.05, 1.05, 1.05, 0, 0, 0, 0),
                StudyRow(0.025, 99.0, 99.0, 99, np.inf, np.inf, np.inf,
                         converged=False)]
        rep = ConvergenceReport("eps", rows)
        limit, _, _ = extrapolate_limit(rep, "area")
        assert limit == pytest.approx(1.0, abs=1e-6)


def reference_fit(x, y):
    """The per-p search: one lstsq per grid point, 61 coarse then 51 fine."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = float(np.max(np.abs(y)))
    if scale == 0.0 or float(np.ptp(y)) <= 1e-12 * max(scale, 1.0):
        return float(np.mean(y)), 0.0, None, 0.0

    def best_on(grid):
        results = [(relaxation._lstsq_for_p(x, y, p), p) for p in grid]
        (coef, sse), p = min(results, key=lambda t: t[0][1])
        return coef, sse, p

    coef, _, p = best_on(np.linspace(0.5, 2.0, 61))
    lo, hi = max(0.5, p - 0.025), min(2.0, p + 0.025)
    coef, _, p = best_on(np.linspace(lo, hi, 51))
    a, b = float(coef[0]), float(coef[1])
    fit = a + b * x**p
    return a, b, float(p), float(np.max(np.abs(fit - y))) / scale


@st.composite
def power_law_data(draw):
    """3- to 7-point schedules of a + b x^p plus noise up to 1e-1."""
    n = draw(st.integers(3, 7))
    start = draw(st.floats(0.001, 0.2))
    gaps = draw(st.lists(st.floats(1e-3, 0.3), min_size=n - 1,
                         max_size=n - 1))
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    p = draw(st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                       st.floats(0.5, 2.0)))
    a = draw(st.floats(-10, 10))
    b = draw(st.floats(0.01, 10)) * draw(st.sampled_from([-1.0, 1.0]))
    noise = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-1)))
    shape = np.array(draw(st.lists(st.floats(-1, 1), min_size=n,
                                   max_size=n)))
    return x, a + b * x**p + noise * shape


class TestVectorizedFit:
    @given(power_law_data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_p_search_exactly(self, data):
        x, y = data
        assert fit_power_model(x, y) == reference_fit(x, y)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_exact_power_law_on_grid_points(self, p):
        x = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        y = 1.5 - 0.7 * x**p
        fit = fit_power_model(x, y)
        assert fit == reference_fit(x, y)
        assert fit[2] == pytest.approx(p, abs=1e-12)

    def test_one_lstsq_per_fit(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        x = np.array([0.2, 0.1, 0.05, 0.025])
        fit_power_model(x, 2.0 + 0.3 * x**1.3 + [1e-4, -1e-4, 1e-4, -1e-4])
        assert len(calls) == 1
        fit_power_model(x, np.full(4, 2.5))  # constant data: no fit at all
        assert len(calls) == 1

    @pytest.mark.parametrize("x", [[0.2, 0.2, 0.1], [0.2, 0.1, 0.2, 0.1],
                                   [0.1, 0.1, 0.1]])
    def test_fewer_than_three_distinct_x(self, x):
        with pytest.raises(InsufficientData):
            fit_power_model(x, [1.2, 1.3, 1.1, 1.0][:len(x)])

    def test_constant_data_short_circuits_before_distinct_check(self):
        assert fit_power_model([0.2, 0.2, 0.1], [2.5] * 3) == (2.5, 0.0,
                                                              None, 0.0)

    @pytest.mark.parametrize("x", [[0.2, -0.1, 0.05], [0.2, np.nan, 0.05],
                                   [0.2, np.inf, 0.05]])
    def test_negative_or_non_finite_x(self, x):
        with pytest.raises(InvalidParams):
            fit_power_model(x, [1.2, 1.1, 1.05])

    def test_non_finite_y(self):
        with pytest.raises(InvalidParams):
            fit_power_model([0.2, 0.1, 0.05], [1.2, np.nan, 1.05])

    def test_zero_abscissa_is_allowed(self):
        x = np.array([0.0, 0.05, 0.1, 0.2])
        y = 1.0 + 0.5 * x**1.5
        fit = fit_power_model(x, y)
        assert fit == reference_fit(x, y)
        assert fit[0] == pytest.approx(1.0, abs=1e-9)


class TestStrictCheck:
    def make(self, tv_limit):
        rep = report_from_pairs([(0.2, tv_limit + 0.2), (0.1, tv_limit + 0.1),
                                 (0.05, tv_limit + 0.05),
                                 (0.025, tv_limit + 0.025)])
        rep.limits = {"tv": tv_limit}
        rep.residuals = {"tv": 0.0}
        return rep

    def test_three_verdicts(self):
        ref = 2 * math.pi
        assert strict_bv_check(self.make(ref * 1.001), ref) == "strict"
        assert strict_bv_check(self.make(ref * 1.5), ref) == "non_strict"
        assert strict_bv_check(self.make(ref * 1.02), ref) == "inconclusive"

    def test_residual_cap_forces_inconclusive(self):
        rep = self.make(2 * math.pi)
        rep.residuals = {"tv": 0.2}
        assert strict_bv_check(rep, 2 * math.pi) == "inconclusive"


class TestStudies:
    def test_constant_builder_rows_equal(self):
        const = make_example_field("constant", value=(1.0, 0.0))
        rep = convergence_study(lambda eps: const, [0.2, 0.1, 0.05],
                                Ball(2, 1.0), 1e-7)
        areas = rep.column("area")
        assert np.ptp(areas) <= 1e-12
        assert rep.rates["area"] is None  # rate fit skipped
        assert rep.limits["area"] == pytest.approx(math.pi, rel=1e-8)

    def test_smoothing_study_limits(self):
        rep = study_vortex_smoothing([0.2, 0.1, 0.05, 0.025], tol=1e-6)
        assert rep.limits["area"] == pytest.approx(VORTEX_AREA_B2 + math.pi,
                                                   rel=0.01)
        assert rep.limits["tv"] == pytest.approx(VORTEX_TV_B2, rel=0.01)
        assert strict_bv_check(rep, VORTEX_TV_B2) == "strict"
        assert all(rep.residuals[m] <= 0.05 for m in ("area", "tv"))

    def test_semicontinuity_of_smoothing_study(self):
        # extrapolated area limit >= relaxed rhs - combined tolerance
        rep = study_vortex_smoothing([0.2, 0.1, 0.05, 0.025], tol=1e-6)
        rhs = VORTEX_AREA_B2 + math.pi
        slack = rep.residuals["area"] * rhs + 1e-4
        assert rep.limits["area"] >= rhs - slack

    def test_dipole_study_semicontinuity(self):
        rep = study_cone_dipole([0.2, 0.1, 0.05], tol=1e-6)
        rhs = planar_tv_area_b3_oracle() + 2 * math.pi
        assert rep.limits["area"] >= rhs - 0.01 * rhs
        assert rep.limits["area"] == pytest.approx(rhs, rel=0.01)

    def test_dipole_gradient_scan_vanishes(self):
        rep = study_dipole_gradient([0.2 * 2.0**-j for j in range(7)],
                                    tol=1e-6)
        assert rep.min_row("tv") <= 0.05
        assert abs(rep.limits["tv"]) <= 0.01

    def test_chain_disk_gap_reaches_pi(self):
        chain = make_example_field("vortex_chain", m=3)
        rep, ref = study_chain_disk(chain, 2, tol=1e-6)
        gap = rep.limits["area"] - ref
        assert gap == pytest.approx(math.pi, rel=0.02)

    def test_counterexample_ball_limit(self):
        rep = study_counterexample("ball", [2, 4, 8, 16], tol=1e-6)
        target = 16 * math.pi / 3 + 4 * math.pi / 3
        assert rep.limits["area"] == pytest.approx(target, rel=0.02)

    def test_cylinder_analogue_non_strict(self):
        rep = study_cylinder_analogue_2d([4, 8, 16, 32], tol=1e-6)
        assert strict_bv_check(rep, 2 * math.pi) == "non_strict"
        excess = rep.limits["tv"] - 2 * math.pi
        assert excess > 0.5

    def test_schedule_needs_three_points(self):
        const = make_example_field("constant", value=(1.0, 0.0))
        with pytest.raises(InsufficientData):
            convergence_study(lambda eps: const, [0.1, 0.05], Ball(2, 1.0),
                              1e-6)

        def no_row(eps):
            raise AssertionError("rows of a short schedule must not run")

        with pytest.raises(InsufficientData):
            study_from_rows(no_row, [0.1, 0.05])
        with pytest.raises(InsufficientData):
            study_from_rows(no_row, [0.2, 0.2, 0.1])

    @pytest.mark.parametrize("study", [
        lambda ks: study_counterexample("ball", ks),
        study_cylinder_analogue_2d,
    ])
    @pytest.mark.parametrize("ks", [[0, 4, 8], [1, 4, 8], [2.5, 4, 8]])
    def test_k_below_two_is_rejected_before_any_row(self, study, ks):
        with pytest.raises(InvalidParams):
            study(ks)


@pytest.fixture(scope="module")
def subadd_report():
    return subadditivity_experiment([0.2, 0.9], [8, 16, 32], tol=1e-6)


class TestSubadditivity:
    @pytest.fixture()
    def report(self, subadd_report):
        return subadd_report

    def test_bounds_are_nonnegative(self, report):
        for r in report.radii:
            assert report.ball_bound[r] >= 0.0
            assert report.cylinder_bound[r] >= 0.0

    def test_bounds_match_the_two_fillings(self, report):
        assert report.ball_bound[0.9] == pytest.approx(4 * math.pi / 3,
                                                       rel=0.02)
        assert report.cylinder_bound[0.2] == pytest.approx(4 * math.pi * 0.2,
                                                           rel=0.05)
        assert report.cylinder_bound[0.9] == pytest.approx(4 * math.pi * 0.9,
                                                           rel=0.05)

    def test_small_radius_prefers_cylinder(self, report):
        assert report.cylinder_bound[0.2] < report.ball_bound[0.2]
        assert report.chosen_min[0.2] == report.cylinder_bound[0.2]

    def test_violation_witnessed(self, report):
        assert report.violation_witnessed
        assert report.witness == (0.2, 0.9)

    def test_rows_reproduce_bounds(self, report):
        gaps = [r.gap for r in report.rows
                if r.variant == "cylinder" and r.r == 0.2]
        assert len(gaps) == 3
        assert max(gaps) < report.ball_bound[0.2]  # chain is visible in rows

    def test_bad_radii(self):
        with pytest.raises(InsufficientData):
            subadditivity_experiment([0.0, 0.5], [8, 16], tol=1e-5)

    @pytest.mark.parametrize("ks", [[8, 16], [8, 16, 16]])
    def test_k_schedule_needs_three_distinct_values(self, ks):
        with pytest.raises(InsufficientData):
            subadditivity_experiment([0.2, 0.9], ks, tol=1e-5)

    def test_k_below_two_is_rejected(self):
        with pytest.raises(InvalidParams):
            subadditivity_experiment([0.2, 0.9], [0, 8, 16], tol=1e-5)


class TestSerialization:
    def test_csv_schema_and_determinism(self):
        rep = study_vortex_smoothing([0.2, 0.1, 0.05], tol=1e-6)
        text = report_csv_text(rep)
        assert text.splitlines()[0] == "param,A,TV,M2,err_A,err_TV,err_M2"
        assert len(text.splitlines()) == 4
        rep2 = study_vortex_smoothing([0.2, 0.1, 0.05], tol=1e-6)
        assert report_csv_text(rep2) == text

    def test_csv_round_trip_floats(self):
        rep = study_vortex_smoothing([0.2, 0.1, 0.05], tol=1e-6)
        text = report_csv_text(rep)
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == rep.rows[0].area  # bit-exact round trip

    def test_json_dict_is_serializable(self):
        rep = study_vortex_smoothing([0.2, 0.1, 0.05], tol=1e-6)
        blob = json.dumps(report_json_dict(rep, {"tv_vs_2pi": "strict"}))
        back = json.loads(blob)
        assert back["verdicts"]["tv_vs_2pi"] == "strict"
        assert back["limits"]["area"] == rep.limits["area"]

    def test_subadd_csv_schema(self):
        rep = subadditivity_experiment([0.3], [8, 16, 32], tol=1e-4)
        text = subadd_csv_text(rep)
        assert text.splitlines()[0] == "variant,r,k,A_local,A_base,gap"
        blob = subadd_json_dict(rep)
        assert "violation_witnessed" in blob
