import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab.errors import UsageError
from grushinlab.profiles import (
    FibrePotential,
    builtin_profile,
    check_assumptions,
    custom_profile,
    power_law,
)

ALPHAS = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]


def power_law_as_custom(alpha, scale=1.0):
    """Power-law evaluators wrapped as a generic custom profile, so the
    generic combination path can be checked against the closed forms."""
    return custom_profile(
        lambda x: scale * x ** (-alpha),
        lambda x: -alpha * scale * x ** (-alpha - 1.0),
        lambda x: alpha * (alpha + 1.0) * scale * x ** (-alpha - 2.0),
        kappa=scale,
        name=f"custom_power({alpha}, {scale})",
    )


class TestEffectivePotential:
    """W_xi(x) = xi^2/f^2 + (2 f f'' - f'^2)/(4 f^2), evaluated by
    FibrePotential."""

    def test_zero_mode_grushin(self):
        pot = FibrePotential(xi=0.0, profile=power_law(1.0))
        assert pot(2.0) == pytest.approx(3.0 / 16.0, abs=1e-16)

    def test_flat_case_is_xi_squared(self):
        pot = FibrePotential(xi=3.0, profile=power_law(0.0))
        assert pot(1.0) == pytest.approx(9.0, abs=1e-14)

    def test_vanishing_combination_alpha_minus_one(self):
        # (xi^2 - 1/4)/x^2 vanishes identically at xi = 1/2
        pot = FibrePotential(xi=0.5, profile=power_law(-1.0))
        assert pot(1.0) == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_custom_branch_matches_closed_form(self, alpha):
        x = np.geomspace(1e-2, 1e2, 300)
        closed = FibrePotential(xi=1.5, profile=power_law(alpha))(x)
        generic = FibrePotential(xi=1.5, profile=power_law_as_custom(alpha))(x)
        size = np.maximum(np.abs(closed), 1e-300)
        assert np.max(np.abs(generic - closed) / size) < 1e-10

    @given(
        alpha=st.floats(-2.0, 3.0),
        xi=st.floats(0.0, 10.0),
        x=st.floats(1e-2, 1e2),
    )
    @settings(max_examples=200, deadline=None)
    def test_xi_additivity(self, alpha, xi, x):
        # W(xi) = W(0) + xi^2/f^2 by construction: the identity holds to
        # ulps of W itself (the subtraction reintroduces rounding of W(0))
        prof = power_law(alpha)
        w_xi = FibrePotential(xi=xi, profile=prof)(x)
        w_0 = FibrePotential(xi=0.0, profile=prof)(x)
        extra = xi**2 * prof.inv_f_squared(x)
        tol = 4e-16 * max(abs(w_xi), abs(w_0)) + 1e-300
        assert abs((w_xi - w_0) - extra) <= tol


class TestDerivativeEvaluators:
    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.5, 1.0, 2.0])
    def test_power_law_matches_finite_differences(self, alpha):
        prof = power_law(alpha)
        x = np.geomspace(1e-3, 1e2, 120)
        h = 1e-4 * x
        fd1 = (prof.f(x + h) - prof.f(x - h)) / (2 * h)
        fd2 = (prof.f(x + h) - 2 * prof.f(x) + prof.f(x - h)) / (h * h)
        if alpha != 0.0:
            assert np.max(np.abs(fd1 / prof.f1(x) - 1.0)) < 1e-6
        if alpha not in (0.0, -1.0):
            assert np.max(np.abs(fd2 / prof.f2(x) - 1.0)) < 1e-6


class TestAssumptions:
    def test_grushin_plane_passes(self, log_grid):
        _, violations = check_assumptions(power_law(1.0), log_grid)
        assert violations == {}

    def test_positivity_fails_where_f_turns_negative(self, log_grid):
        # f = 3 - x is positive up to x = 3
        prof = custom_profile(lambda x: 3.0 - x, lambda x: -np.ones_like(x),
                              lambda x: np.zeros_like(x), kappa=1.0)
        grid, violations = check_assumptions(prof, log_grid)
        assert violations["(i) positivity"] == grid[grid >= 3.0][0]

    def test_negative_half_fails_condition_iv(self, log_grid):
        _, violations = check_assumptions(power_law(-0.5), log_grid)
        # alpha (2 + alpha) < 0: W's curvature part is negative everywhere
        assert violations["(iv) concavity combination"] == log_grid[0]

    def test_negative_alpha_fails_lower_bound(self, log_grid):
        # f = x^{|alpha|} -> 0 near x = 0: the declared kappa cannot hold
        _, violations = check_assumptions(power_law(-1.0), log_grid)
        assert violations["(ii) lower bound near 0"] == log_grid[0]

    def test_lower_bound_fails_past_the_declared_kappa(self, log_grid):
        # f = 1/x is at least kappa = 2 only up to x = 1/2; (i), (iii) and
        # (iv) hold
        prof = custom_profile(lambda x: 1.0 / x, lambda x: -1.0 / x**2,
                              lambda x: 2.0 / x**3, kappa=2.0)
        grid, violations = check_assumptions(prof, log_grid)
        assert violations == {"(ii) lower bound near 0": grid[grid > 0.5][0]}

    def test_smoothness_fails_where_f2_is_infinite(self, log_grid):
        # f = 1 + |x - 2|^(3/2) is C^1 but not C^2: f'' is infinite at x = 2
        prof = custom_profile(
            lambda x: 1.0 + np.abs(x - 2.0) ** 1.5,
            lambda x: 1.5 * np.sign(x - 2.0) * np.abs(x - 2.0) ** 0.5,
            lambda x: 0.75 * np.abs(x - 2.0) ** -0.5,
            kappa=1.0,
        )
        _, violations = check_assumptions(prof, np.append(log_grid, 2.0))
        assert violations["(iii) smoothness"] == 2.0
        assert "(i) positivity" not in violations

    def test_constant_profile_passes_with_equality(self, log_grid):
        prof = custom_profile(
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            kappa=1.0,
            name="unit",
        )
        _, violations = check_assumptions(prof, log_grid)
        assert violations == {}

    def test_exp_inverse_passes_on_clipped_grid(self, log_grid):
        grid, violations = check_assumptions(builtin_profile("exp_inverse"), log_grid)
        assert violations == {}
        assert grid.min() >= 3e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            check_assumptions(power_law(1.0), [])

    def test_small_grid_rejected(self):
        with pytest.raises(UsageError):
            check_assumptions(power_law(1.0), np.geomspace(0.1, 1, 10))

    def test_report_keeps_grid(self, log_grid):
        grid, _ = check_assumptions(power_law(1.0), log_grid[::-1])
        assert np.array_equal(grid, log_grid)


class TestFibrePotentialInvariant:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_nonnegative_when_iv_holds(self, alpha, log_grid):
        # assumption (iv) holds for alpha outside (-2, 0)
        pot = FibrePotential(xi=0.7, profile=power_law(alpha))
        assert np.all(pot(log_grid) >= 0.0)
