import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab.errors import UsageError
from grushinlab.profiles import FibrePotential, builtin_profile, power_law
from grushinlab.weyl import (
    Endpoint,
    InequalityVerdict,
    Method,
    Mode,
    SAVerdict,
    TotalDeficiency,
    aggregate_verdict,
    classify_by_inequality,
    classify_numeric,
    classify_power_law,
    classify_sweep,
    critical_coefficient,
    verify_deficiency_family,
)

LP, LC = Endpoint.LIMIT_POINT, Endpoint.LIMIT_CIRCLE


class TestAnalyticClassification:
    def test_confining_grushin_plane(self):
        r = classify_power_law(1.0, 7.0, Mode.PLANE)
        assert r.endpoint_zero is LP and r.deficiency == 0

    def test_subcritical_fails(self):
        r = classify_power_law(0.5, 0.0, Mode.PLANE)
        assert r.endpoint_zero is LC and r.deficiency == 1

    def test_alpha_minus_one_small_mode(self):
        assert classify_power_law(-1.0, 0.5).endpoint_zero is LC

    def test_alpha_minus_one_split_at_one(self):
        assert classify_power_law(-1.0, 1.0).endpoint_zero is LP
        assert classify_power_law(-1.0, 0.99).endpoint_zero is LC

    def test_alpha_minus_three_cylinder_all_modes(self):
        for k in range(-5, 6):
            assert classify_power_law(-3.0, k, Mode.CYLINDER).deficiency == 0

    def test_cylinder_requires_integer_modes(self):
        with pytest.raises(UsageError):
            classify_power_law(1.0, 0.5, Mode.CYLINDER)

    def test_right_endpoint_always_limit_point(self):
        assert classify_power_law(0.3, 2.0).endpoint_infinity is LP

    def test_threshold_exactness_almost_every_fibre(self):
        # deficiency 0 for a.e. xi iff alpha >= 1 or alpha < -1; the only
        # exceptional fibre is xi = 0, which also holds iff alpha >= 1 or
        # alpha <= -3
        nonzero = [0.5, 1.0, 2.0, 5.0]
        for alpha in np.arange(-4.0, 4.01, 0.25):
            ae_lp = all(classify_power_law(alpha, xi).deficiency == 0 for xi in nonzero)
            assert ae_lp == (alpha >= 1.0 or alpha < -1.0), alpha
            zero_lp = classify_power_law(alpha, 0.0).deficiency == 0
            assert zero_lp == (alpha >= 1.0 or alpha <= -3.0), alpha

    @given(alpha=st.floats(-0.5, 4.0), xi=st.floats(0.0, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_sampled_limit(self, alpha, xi):
        # independent oracle: x^2 W at x = 1e-9 (correction <= xi^2 x is tiny
        # for alpha >= -0.5)
        pot = FibrePotential(xi=xi, profile=power_law(alpha))
        x = 1e-9
        c0_sampled = x * x * pot(x)
        r = classify_power_law(alpha, xi)
        if abs(c0_sampled - 0.75) > 1e-6:
            assert (r.deficiency == 0) == (c0_sampled >= 0.75)


class TestCriticalCoefficient:
    def test_three_branches(self):
        assert critical_coefficient(0.5, 9.0) == pytest.approx(0.3125)
        assert critical_coefficient(-1.0, 0.5) == pytest.approx(0.0)
        assert critical_coefficient(-2.0, 0.5) == math.inf
        assert critical_coefficient(-2.0, 0.0) == pytest.approx(0.0)

    def test_boundary_value(self):
        assert critical_coefficient(1.0, 123.0) == pytest.approx(0.75)


class TestInequality:
    GRID = np.geomspace(1e-4, 1e2, 400)

    def test_confining(self):
        v, _ = classify_by_inequality(power_law(2.0), self.GRID)
        assert v is InequalityVerdict.CONFINEMENT_CONDITION

    def test_equality_case_confines(self):
        v, _ = classify_by_inequality(power_law(1.0), self.GRID)
        assert v is InequalityVerdict.CONFINEMENT_CONDITION

    def test_non_confining_with_margin(self):
        v, info = classify_by_inequality(power_law(0.5), self.GRID)
        assert v is InequalityVerdict.NO_CONFINEMENT_CONDITION
        # eps = 3 - alpha(2+alpha) = (1-alpha)(3+alpha)
        assert info["epsilon"] == pytest.approx(1.75, rel=1e-12)

    def test_threshold_among_positive_alpha(self):
        for alpha in (0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 3.0):
            v, _ = classify_by_inequality(power_law(alpha), self.GRID)
            expected = (
                InequalityVerdict.CONFINEMENT_CONDITION
                if alpha >= 1.0
                else InequalityVerdict.NO_CONFINEMENT_CONDITION
            )
            assert v is expected, alpha

    def test_exp_inverse_is_inconclusive(self):
        v, info = classify_by_inequality(builtin_profile("exp_inverse"), self.GRID)
        assert v is InequalityVerdict.INCONCLUSIVE
        assert info["q_min"] < 3.0 < info["q_max"]

    def test_scale_invariance(self):
        for lam in (0.1, 7.0):
            v, _ = classify_by_inequality(power_law(0.5, scale=lam), self.GRID)
            assert v is InequalityVerdict.NO_CONFINEMENT_CONDITION

    def test_inadmissible_profile_rejected(self):
        with pytest.raises(UsageError):
            classify_by_inequality(power_law(-0.5), self.GRID)

    def test_small_grid_rejected(self):
        with pytest.raises(UsageError):
            classify_by_inequality(power_law(1.0), np.geomspace(0.01, 1, 50))

    def test_minimum_counts_the_points_above_the_float_floor(self):
        # exp_inverse is clipped to x >= 3e-3: 150 of these 300 points remain
        profile = builtin_profile("exp_inverse")
        grid = np.geomspace(3e-3 ** 2, 1.0, 301)[1:]
        assert np.count_nonzero(grid >= profile.x_float_min) < 200
        with pytest.raises(UsageError, match="200 grid points"):
            classify_by_inequality(profile, grid)
        _, info = classify_by_inequality(profile, self.GRID)
        assert info["x_min"] >= profile.x_float_min


class TestNumericClassification:
    def test_subcritical_exponent(self):
        # indicial roots 1/2 +- 3/4: dominant local solution x^(-1/4)
        r = classify_numeric(FibrePotential(xi=0.0, profile=power_law(0.5)))
        assert r.endpoint_zero is LC and r.method is Method.NUMERIC_ODE
        assert r.diagnostics["indicial_slope"] == pytest.approx(-0.25, abs=5e-3)

    def test_borderline_alpha_one(self):
        # c0 = 3/4: second solution x^(-1/2) marginally fails integrability
        r = classify_numeric(FibrePotential(xi=0.0, profile=power_law(1.0)))
        assert r.endpoint_zero is LP
        assert r.diagnostics["indicial_slope"] == pytest.approx(-0.5, abs=5e-3)

    def test_regular_endpoint(self):
        r = classify_numeric(FibrePotential(xi=1.0, profile=power_law(0.0)))
        assert r.endpoint_zero is LC

    def test_super_singular_is_limit_point(self):
        r = classify_numeric(FibrePotential(xi=0.5, profile=power_law(-2.0)))
        assert r.endpoint_zero is LP

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_exp_inverse_limit_point(self, xi):
        # W ~ 1/(4 x^4) near zero regardless of xi (1/f^2 underflows to 0)
        r = classify_numeric(FibrePotential(xi=xi, profile=builtin_profile("exp_inverse")))
        assert r.endpoint_zero is LP

    def test_numeric_cylinder_requires_integer_modes(self):
        with pytest.raises(UsageError):
            classify_numeric(FibrePotential(xi=0.5, profile=power_law(1.0)),
                             mode=Mode.CYLINDER)

    @pytest.mark.parametrize("alpha,xi", [(-1.0, 1.0), (0.9, 2.0), (1.5, 0.5)])
    def test_agreement_with_analytic(self, alpha, xi):
        num = classify_numeric(FibrePotential(xi=xi, profile=power_law(alpha)))
        ana = classify_power_law(alpha, xi)
        assert num.endpoint_zero == ana.endpoint_zero

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0])
    def test_indicial_slope_is_dominant_root(self, alpha):
        # at xi = 0, c0 = alpha(2+alpha)/4 and the dominant local solution
        # is x^s with s = (1 - |1 + alpha|)/2
        r = classify_numeric(FibrePotential(xi=0.0, profile=power_law(alpha)))
        expected = (1.0 - abs(1.0 + alpha)) / 2.0
        assert abs(r.diagnostics["indicial_slope"] - expected) < 1e-3

    @pytest.mark.parametrize("alpha,xi", [(-2.0, 0.5), (-3.0, 1.0)])
    def test_early_stop_slope_is_finite_and_limit_point(self, alpha, xi):
        # c0 = +inf: the magnitude guard stops the solve, and the slope of
        # the stopped block is what the diagnostics report
        r = classify_numeric(FibrePotential(xi=xi, profile=power_law(alpha)))
        slope = r.diagnostics["indicial_slope"]
        assert r.endpoint_zero is LP
        assert math.isfinite(slope) and slope < -0.5


# the (alpha, xi) pairs of acceptance criterion 4
CRITERION_4_ALPHAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 0.9, 1.0, 1.5, 3.0)
CRITERION_4_XIS = (0.0, 0.5, 1.0, 2.0)


def assert_sweep_matches_fibres_alone(profile, xis):
    """classify_sweep integrates the fibres together; each must get the
    verdict, slope and early-stop flag of a solve of that fibre alone.  W
    depends on xi^2 only, so a fibre alone is solved once per |xi|."""
    swept = classify_sweep(profile, xis, method="numeric")
    alone = {abs(xi): classify_numeric(FibrePotential(xi=abs(xi), profile=profile))
             for xi in xis}
    for xi, report in zip(xis, swept):
        reference = alone[abs(xi)]
        assert report.xi == xi
        assert report.endpoint_zero is reference.endpoint_zero, xi
        assert report.diagnostics["early_limit_point"] is reference.diagnostics[
            "early_limit_point"], xi
        # slopes near 0 (alpha 0, or alpha -1 at xi 1/2) need the abs floor
        assert report.diagnostics["indicial_slope"] == pytest.approx(
            reference.diagnostics["indicial_slope"], rel=1e-9, abs=1e-12), xi
    return swept


class TestBatchedClassification:
    @pytest.mark.parametrize("alpha", CRITERION_4_ALPHAS)
    def test_sweep_matches_fibres_alone(self, alpha):
        assert_sweep_matches_fibres_alone(power_law(alpha), list(CRITERION_4_XIS))

    def test_exp_inverse_sweep_stops_every_fibre_at_its_own_crossing(self):
        # The fibres cross the magnitude guard together.  On this grid (the
        # plane grid of the ode-verdicts benchmark at shift 1/8) fibres
        # other than the largest are already past the guard where it fires;
        # left running, they never cross it upward and report a slope
        # measured over the rest of their block (-204.8 instead of -91.6).
        xis = [float(v) for v in np.linspace(-5.0, 5.0, 41) + 0.125]
        swept = assert_sweep_matches_fibres_alone(builtin_profile("exp_inverse"), xis)
        for report in swept:
            slope = report.diagnostics["indicial_slope"]
            assert report.endpoint_zero is LP
            assert report.diagnostics["early_limit_point"] is True
            assert math.isfinite(slope) and slope < -0.5

    def test_large_xi_sweep_matches_fibres_alone(self):
        # xi^2 / f^2 spans seven decades across these fibres; xi = 30 is
        # still limit circle, decided within its half-decade blocks
        swept = assert_sweep_matches_fibres_alone(power_law(-0.75), [0.0, 5.0, 10.0, 30.0])
        assert [r.endpoint_zero for r in swept] == [LC] * 4

    def test_unknown_method_rejected(self):
        with pytest.raises(UsageError):
            classify_sweep(power_law(1.0), [0.0], method="foo")

    def test_empty_sweep(self):
        assert classify_sweep(power_law(0.5), [], method="numeric") == []


class TestAggregation:
    def plane_reports(self, alpha, grid):
        return classify_sweep(power_law(alpha), grid, Mode.PLANE)

    def test_confining_plane(self):
        grid = np.arange(-5.0, 5.01, 0.25)
        v = aggregate_verdict(self.plane_reports(1.0, grid), Mode.PLANE)
        assert v.verdict is SAVerdict.ESSENTIALLY_SELF_ADJOINT
        assert v.total_deficiency is TotalDeficiency.ZERO
        assert v.failing_fibres == "none"

    def test_subcritical_plane_all_fail(self):
        grid = np.arange(-5.0, 5.01, 0.25)
        v = aggregate_verdict(self.plane_reports(0.5, grid), Mode.PLANE)
        assert v.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
        assert v.total_deficiency is TotalDeficiency.INFINITE
        assert v.failing_fibres == "all sampled fibres"

    def test_alpha_minus_one_failing_window(self):
        grid = np.arange(0.0, 2.01, 0.25)
        v = aggregate_verdict(self.plane_reports(-1.0, grid), Mode.PLANE)
        assert v.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
        assert v.failing_values == (0.0, 0.25, 0.5, 0.75)

    def test_isolated_failing_point_is_measure_zero(self):
        grid = np.arange(-2.0, 2.01, 0.5)
        v = aggregate_verdict(self.plane_reports(-2.0, grid), Mode.PLANE)
        assert v.verdict is SAVerdict.ESSENTIALLY_SELF_ADJOINT
        assert v.failing_values == (0.0,)
        assert "measure-zero" in v.caveat

    def test_cylinder_single_failing_mode(self):
        ks = range(-5, 6)
        reports = [classify_power_law(-2.0, k, Mode.CYLINDER) for k in ks]
        v = aggregate_verdict(reports, Mode.CYLINDER)
        assert v.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
        assert v.failing_values == (0.0,)
        assert v.total_deficiency is TotalDeficiency.FINITE

    def test_cylinder_all_modes_fail(self):
        reports = [classify_power_law(0.5, k, Mode.CYLINDER) for k in range(-5, 6)]
        v = aggregate_verdict(reports, Mode.CYLINDER)
        assert v.total_deficiency is TotalDeficiency.INFINITE

    def test_cylinder_plane_discrepancy(self):
        # for alpha in (-3, -1): cylinder fails via k=0, plane is ESA
        for alpha in (-2.5, -2.0, -1.5):
            cyl = aggregate_verdict(
                [classify_power_law(alpha, k, Mode.CYLINDER) for k in range(-5, 6)],
                Mode.CYLINDER,
            )
            pla = aggregate_verdict(
                self.plane_reports(alpha, np.arange(-3.0, 3.01, 0.5)), Mode.PLANE
            )
            assert cyl.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
            assert pla.verdict is SAVerdict.ESSENTIALLY_SELF_ADJOINT

    def test_mixed_modes_rejected(self):
        r1 = classify_power_law(1.0, 0.0, Mode.PLANE)
        r2 = classify_power_law(1.0, 0.0, Mode.CYLINDER)
        with pytest.raises(UsageError):
            aggregate_verdict([r1, r2], Mode.PLANE)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate_verdict([], Mode.PLANE)

    @given(alpha=st.sampled_from([-3.0, -2.0, -1.0, 0.5, 1.0]),
           mode=st.sampled_from([Mode.PLANE, Mode.CYLINDER]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_report_order_is_irrelevant(self, alpha, mode, data):
        # alpha -1 fails at |xi| < 1 (three plane fibres, one mode) and
        # alpha -2 at xi = 0 alone, so the permutation moves failing and
        # passing fibres past each other
        step = 1.0 if mode is Mode.CYLINDER else 0.5
        reports = [classify_power_law(alpha, step * k, mode) for k in range(-4, 5)]
        shuffled = data.draw(st.permutations(reports))
        v, w = aggregate_verdict(reports, mode), aggregate_verdict(shuffled, mode)
        assert v == w and v.grid == w.grid


class TestDeficiencyFamily:
    def test_family_residual_and_orthogonality(self):
        report = verify_deficiency_family(0.5, (0.0, 1.0), 8, (2.0, 3.0))
        assert not report.contradiction
        assert report.max_residual <= 1e-6
        assert report.max_cross_inner <= 1e-10
        assert report.max_norm_error <= 1e-6
        assert report.family_norm_sq == pytest.approx(1.0, rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(UsageError):
            verify_deficiency_family(1.5, (0.0, 1.0), 8)
        with pytest.raises(UsageError):
            verify_deficiency_family(0.5, (0.0, 1.0), 4)
        with pytest.raises(UsageError):
            verify_deficiency_family(0.5, (1.0, 0.0), 8)

    @pytest.mark.parametrize("other", [(3.0, 2.0), (0.5, 2.0), (1.0, 2.0), (-1.0, 0.0),
                                       (math.nan, 1.0), (math.inf, 5.0)])
    def test_other_interval_must_be_bounded_and_disjoint(self, other):
        with pytest.raises(UsageError):
            verify_deficiency_family(0.5, (0.0, 1.0), 8, other)
