import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab import weyl
from grushinlab.errors import NumericError, UsageError
from grushinlab.profiles import FibrePotential, builtin_profile, power_law
from grushinlab.weyl import (
    Endpoint,
    InequalityVerdict,
    Method,
    Mode,
    SAVerdict,
    TotalDeficiency,
    WeylReport,
    aggregate_verdict,
    classify_by_inequality,
    classify_numeric,
    classify_power_law,
    classify_sweep,
    critical_coefficient,
    verify_deficiency_family,
)
from test_profiles import power_law_as_custom

LP, LC = Endpoint.LIMIT_POINT, Endpoint.LIMIT_CIRCLE


class TestAnalyticClassification:
    def test_confining_grushin_plane(self):
        r = classify_power_law(1.0, 7.0)
        assert r.endpoint_zero is LP and r.deficiency == 0

    def test_subcritical_fails(self):
        r = classify_power_law(0.5, 0.0)
        assert r.endpoint_zero is LC and r.deficiency == 1

    def test_alpha_minus_one_small_mode(self):
        assert classify_power_law(-1.0, 0.5).endpoint_zero is LC

    def test_alpha_minus_one_split_at_one(self):
        assert classify_power_law(-1.0, 1.0).endpoint_zero is LP
        assert classify_power_law(-1.0, 0.99).endpoint_zero is LC

    def test_alpha_minus_three_cylinder_all_modes(self):
        for k in range(-5, 6):
            assert classify_power_law(-3.0, k).deficiency == 0

    def test_cylinder_requires_integer_modes(self):
        # a fibre report carries no geometry; the cylinder's aggregation
        # checks the modes
        reports = classify_sweep(power_law(1.0), [0.0, 0.5], method="analytic")
        with pytest.raises(UsageError, match="integer k"):
            aggregate_verdict(reports, Mode.CYLINDER)

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
            v, _ = classify_by_inequality(power_law_as_custom(0.5, lam), self.GRID)
            assert v is InequalityVerdict.NO_CONFINEMENT_CONDITION

    def test_inadmissible_profile_rejected(self):
        # f = x^(1/2) fails (ii) and (iv) from the grid's first point on:
        # no comparison is made, and the violations are the result
        v, info = classify_by_inequality(power_law(-0.5), self.GRID)
        assert v is InequalityVerdict.SKIPPED
        assert info == {"violations": {"(ii) lower bound near 0": 1e-4,
                                       "(iv) concavity combination": 1e-4}}

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
        reports = classify_sweep(power_law(1.0), [0.0, 0.5], method="numeric")
        with pytest.raises(UsageError, match="integer k"):
            aggregate_verdict(reports, Mode.CYLINDER)

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

    def test_steep_inverse_square_fibre_keeps_its_slope(self):
        # alpha -1, xi 30: c0 = 899.75, and u ~ x^(-29.5) grows by about
        # 10^206 over seven decades without tripping the per-block guard;
        # |u|^2 would overflow, so the growth must live in the gauge's
        # scale g.  Stepped ungauged, the fibre took 17,840 calls
        r = classify_numeric(FibrePotential(xi=30.0, profile=power_law(-1.0)))
        assert r.endpoint_zero is LP
        assert r.diagnostics["early_limit_point"] is False
        assert r.diagnostics["indicial_slope"] == pytest.approx(-29.5, abs=1e-6)
        assert 0 < r.diagnostics["work"]["nfev"] <= 3000

    @pytest.mark.parametrize("alpha,xi", [(-2.0, 0.5), (-3.0, 1.0)])
    def test_early_stop_slope_is_finite_and_limit_point(self, alpha, xi):
        # c0 = +inf: the magnitude guard stops the solve, and the slope of
        # the stopped block is what the diagnostics report
        r = classify_numeric(FibrePotential(xi=xi, profile=power_law(alpha)))
        slope = r.diagnostics["indicial_slope"]
        assert r.endpoint_zero is LP
        assert math.isfinite(slope) and slope < -0.5

    def test_guard_crossing_at_a_block_edge_has_a_finite_slope(self):
        # at xi = 1e100 the first step grows past e^200 within 1.4e-101 of
        # x = 1, a bracket narrower than brentq's xtol: it returned the
        # block's edge, and the slope over no span was 0/0
        ((slopes, early, _),) = weyl._amplitude_slopes(power_law(0.5), [1e100])
        assert early is True
        assert all(math.isfinite(s) and s < -0.5 for s in slopes)


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


def sweep_calls(monkeypatch, profile, xis):
    """A numeric sweep's reports and the right-hand-side calls of its one
    solve, counted at the function the solve calls; every report records
    that count as its work."""
    calls = []

    def counted(*args):
        calls.append(1)
        return rhs(*args)

    rhs = weyl._gauged_rhs
    monkeypatch.setattr(weyl, "_gauged_rhs", counted)
    swept = classify_sweep(profile, xis, method="numeric")
    assert all(r.diagnostics["work"]["nfev"] == len(calls) for r in swept)
    return swept, len(calls)


class TestBatchedClassification:
    @pytest.mark.parametrize("alpha", CRITERION_4_ALPHAS)
    def test_sweep_matches_fibres_alone(self, alpha):
        assert_sweep_matches_fibres_alone(power_law(alpha), list(CRITERION_4_XIS))

    def test_exp_inverse_sweep_stops_every_fibre_at_its_own_crossing(self):
        # The fibres cross the magnitude guard together, within one step,
        # on this grid (the plane grid of the ode-verdicts benchmark at
        # shift 1/8).  Each must stop at its own crossing: a fibre left
        # running once it is past the guard never crosses it upward and
        # reports a slope measured over the rest of its block (-204.8
        # instead of -91.6).
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

    def test_steep_inverse_square_sweep_matches_fibres_alone(self):
        # the xi = 30 fibre grows by about 10^206, past the doubles, all
        # of it carried by its scale g; its neighbours grow by 10^31 and
        # not at all
        swept = assert_sweep_matches_fibres_alone(power_law(-1.0), [0.5, 5.0, 30.0])
        assert [r.endpoint_zero for r in swept] == [LC, LP, LP]

    def test_sweep_makes_half_the_work_of_per_block_restarts(self, monkeypatch):
        # the benchmark's alpha 0.5 numeric sweep: 41 fibres, 5,648
        # right-hand-side calls when every half-decade block restarted
        swept, calls = sweep_calls(monkeypatch, power_law(0.5), np.linspace(-5.0, 5.0, 41))
        assert [r.endpoint_zero for r in swept] == [LC] * 41
        assert 0 < calls <= 5648 // 2

    @pytest.mark.parametrize("mode,bound", [("plane", 4000), ("cylinder", 3500)])
    def test_gauge_halves_the_exp_inverse_sweeps(self, monkeypatch, mode, bound):
        # the benchmark's exp_inverse sweeps grow like e^(1/(2x)).  Stepped
        # ungauged they took 7,720 (plane, 41 fibres) and 6,868 (cylinder,
        # k <= 3) calls; gauged by the root that grows outward, 15,148
        # on the plane
        if mode == "plane":
            xis = [float(v) for v in np.linspace(-5.0, 5.0, 41) + 0.125]
        else:
            xis = [float(k) for k in range(-3, 4)]
        swept, calls = sweep_calls(monkeypatch, builtin_profile("exp_inverse"), xis)
        assert all(r.endpoint_zero is LP for r in swept)
        assert 0 < calls <= bound

    def test_unknown_method_rejected(self):
        with pytest.raises(UsageError):
            classify_sweep(power_law(1.0), [0.0], method="foo")

    def test_empty_sweep(self):
        assert classify_sweep(power_law(0.5), [], method="numeric") == []


class TestAggregation:
    def plane_reports(self, alpha, grid):
        return classify_sweep(power_law(alpha), grid)

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

    def test_mixed_failing_set_is_described_run_by_run(self):
        # hand-built reports out of xi order: runs and lone points, at the
        # ends of the grid and inside it
        lc, lp = Endpoint.LIMIT_CIRCLE, Endpoint.LIMIT_POINT
        for ends, described in (
                ({-1.0: lp, -0.5: lc, 0.0: lc, 0.5: lp, 1.0: lc, 1.5: lp, 2.0: lc, 2.5: lc},
                 "xi in [-0.5, 0] U {1} U [2, 2.5]"),
                ({-1.0: lc, 0.0: lp, 1.0: lc}, "xi in {-1} U {1}")):
            reports = [WeylReport(xi, ends[xi], Method.ANALYTIC_POWER_LAW) for xi in reversed(ends)]
            assert aggregate_verdict(reports, Mode.PLANE).failing_fibres == described

    def test_cylinder_single_failing_mode(self):
        ks = range(-5, 6)
        reports = [classify_power_law(-2.0, k) for k in ks]
        v = aggregate_verdict(reports, Mode.CYLINDER)
        assert v.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
        assert v.failing_values == (0.0,)
        assert v.total_deficiency is TotalDeficiency.FINITE

    def test_cylinder_all_modes_fail(self):
        reports = [classify_power_law(0.5, k) for k in range(-5, 6)]
        v = aggregate_verdict(reports, Mode.CYLINDER)
        assert v.total_deficiency is TotalDeficiency.INFINITE

    def test_cylinder_plane_discrepancy(self):
        # for alpha in (-3, -1): cylinder fails via k=0, plane is ESA
        for alpha in (-2.5, -2.0, -1.5):
            cyl = aggregate_verdict(
                [classify_power_law(alpha, k) for k in range(-5, 6)],
                Mode.CYLINDER,
            )
            pla = aggregate_verdict(
                self.plane_reports(alpha, np.arange(-3.0, 3.01, 0.5)), Mode.PLANE
            )
            assert cyl.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
            assert pla.verdict is SAVerdict.ESSENTIALLY_SELF_ADJOINT

    def test_one_list_of_integer_fibres_aggregates_to_both_verdicts(self):
        # alpha -2 fails at xi = 0 alone: a measure-zero set of the plane's
        # fibres, and one failing mode of the cylinder's
        reports = [classify_power_law(-2.0, k) for k in range(-5, 6)]
        plane = aggregate_verdict(reports, Mode.PLANE)
        cylinder = aggregate_verdict(reports, Mode.CYLINDER)
        assert plane.verdict is SAVerdict.ESSENTIALLY_SELF_ADJOINT
        assert cylinder.verdict is SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT
        assert plane.failing_values == cylinder.failing_values == (0.0,)

    def test_cylinder_rejects_non_integer_xi(self):
        reports = classify_sweep(power_law(1.0), [0.0, 0.5])
        assert aggregate_verdict(reports, Mode.PLANE).essentially_self_adjoint
        with pytest.raises(UsageError, match="integer k"):
            aggregate_verdict(reports, Mode.CYLINDER)

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
        reports = [classify_power_law(alpha, step * k) for k in range(-4, 5)]
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

    @pytest.mark.parametrize("alpha", [0.95, 0.99])
    def test_steep_fibres_pass_without_overflow(self, alpha):
        # started at a larger fibre's right start, the xi = 1 fibre grew
        # past the doubles: its norm went inf and its residual 0
        report = verify_deficiency_family(alpha, (0.0, 1.0), 8)
        assert not report.contradiction
        assert 0.0 < report.max_residual <= 1e-6
        assert 0.0 < report.max_norm_error <= 1e-6

    def test_non_finite_fibre_numbers_are_not_dropped(self, monkeypatch):
        # without the state guard the xi = 20 column outgrows the others
        # until the step size underflows; the failure must still name the
        # fibre
        monkeypatch.setattr(weyl, "_MAX_STATE", math.inf)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"fibre xi=20\b"):
            verify_deficiency_family(0.5, (0.0, 20.0), 8)

    def test_a_non_finite_fibre_number_names_its_fibre(self, monkeypatch):
        # the per-fibre finiteness check behind the solve's own guard
        solve = weyl._l2_solutions

        def poisoned(*args):
            values, mass, work = solve(*args)
            values[5, 0] = math.nan  # the fibre xi = 5/7, at FAMILY_X_MIN
            return values, mass, work

        monkeypatch.setattr(weyl, "_l2_solutions", poisoned)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match=r"fibre xi=0\.714286 is not finite"):
            verify_deficiency_family(0.5, (0.0, 1.0), 8)

    def test_joined_fibres_match_fibres_alone(self):
        # right starts 33, 18 and 14: the later fibres join a running solve
        profile = power_law(0.5)
        xi = [0.0, 0.5, 1.0]
        starts = [weyl._right_start(FibrePotential(xi=v, profile=profile)) for v in xi]
        assert len(set(starts)) == 3
        kept = np.arange(weyl.OBS_GRID_LO, weyl.OBS_GRID_HI, weyl.OBS_GRID_STEP)
        kept = np.concatenate(([weyl.FAMILY_X_MIN], kept))
        values, mass, _ = weyl._l2_solutions(profile, xi, starts, kept)
        for v, start, u, norm2 in zip(xi, starts, values, mass):
            alone, alone_mass, _ = weyl._l2_solutions(profile, [v], [start], kept)
            phi = u / math.sqrt(norm2[0])
            phi_alone = alone[0] / math.sqrt(alone_mass[0, 0])
            assert np.abs(phi - phi_alone).max() <= 1e-9 * np.abs(phi_alone).max()
            np.testing.assert_allclose(norm2, alone_mass[0], rtol=1e-9, atol=0)

    def test_purification_law_can_fail(self, monkeypatch):
        # the growing solution's share of the seed falls like e^(-2B): at
        # the production budget phi matches a solve at twice the budget,
        # at B = 2 it does not (the benchmark family: alpha 0.5, [0, 1])
        profile = power_law(0.5)
        xi = np.linspace(0.0, 1.0, 16)
        kept = np.arange(weyl.OBS_GRID_LO, weyl.OBS_GRID_HI, weyl.OBS_GRID_STEP)
        kept = np.concatenate(([weyl.FAMILY_X_MIN], kept))

        def phi(budget):
            monkeypatch.setattr(weyl, "_DECAY_BUDGET", budget)
            starts = [weyl._right_start(FibrePotential(xi=v, profile=profile)) for v in xi]
            values, mass, _ = weyl._l2_solutions(profile, xi, starts, kept)
            return values[:, 1:] / np.sqrt(mass[:, :1])

        def gap(u, reference):
            # each fibre's phi is unique up to a phase: align it first
            phase = np.sum(u * reference.conj(), axis=1)
            u = u * (phase.conj() / np.abs(phase))[:, None]
            return float((np.abs(u - reference).max(axis=1)
                          / np.abs(reference).max(axis=1)).max())

        production = weyl._DECAY_BUDGET
        reference = phi(2.0 * production)
        assert gap(phi(production), reference) <= 1e-9
        assert gap(phi(2.0), reference) > 1e-9

    def test_alpha_validation(self):
        with pytest.raises(UsageError):
            verify_deficiency_family(1.5, (0.0, 1.0), 8)
        with pytest.raises(UsageError):
            verify_deficiency_family(0.5, (0.0, 1.0), 4)
        with pytest.raises(UsageError):
            verify_deficiency_family(0.5, (1.0, 0.0), 8)

    def test_samples_keep_the_batched_rtol_above_scipys_floor(self, monkeypatch):
        from scipy.integrate._ivp.common import EPS

        floor = 100 * EPS  # scipy raises a smaller rtol to this, with a warning
        bound = weyl.MAX_FAMILY_SAMPLES
        assert weyl._batch_tolerances(weyl._FAMILY_RTOL, 1e-280, bound)[0] >= floor
        assert weyl._batch_tolerances(weyl._FAMILY_RTOL, 1e-280, bound + 1)[0] < floor
        # rejected before any solve
        monkeypatch.setattr(weyl, "_l2_solutions", None)
        with pytest.raises(UsageError, match=f"at most {bound} fibre samples"):
            verify_deficiency_family(0.5, (0.0, 1.0), bound + 1)

    @pytest.mark.parametrize("other", [(3.0, 2.0), (0.5, 2.0), (1.0, 2.0), (-1.0, 0.0),
                                       (math.nan, 1.0), (math.inf, 5.0)])
    def test_other_interval_must_be_bounded_and_disjoint(self, other):
        with pytest.raises(UsageError):
            verify_deficiency_family(0.5, (0.0, 1.0), 8, other)
