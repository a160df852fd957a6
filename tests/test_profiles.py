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
    parse_profile_config,
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

    # scale 1 keeps the bare alpha as the id; scale 2.5 checks the closed
    # form's division by scale^2 against the generic 1/f^2
    @pytest.mark.parametrize("alpha, scale", [
        *(pytest.param(a, 1.0, id=f"{a}") for a in ALPHAS),
        *(pytest.param(a, 2.5, id=f"{a}-scale2.5") for a in ALPHAS),
    ])
    def test_custom_branch_matches_closed_form(self, alpha, scale):
        x = np.geomspace(1e-2, 1e2, 300)
        closed = FibrePotential(xi=1.5, profile=power_law(alpha, scale=scale))(x)
        generic = FibrePotential(xi=1.5, profile=power_law_as_custom(alpha, scale))(x)
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
        report = check_assumptions(power_law(1.0), log_grid)
        assert report.all_passed

    def test_negative_half_fails_condition_iv(self, log_grid):
        report = check_assumptions(power_law(-0.5), log_grid)
        iv = report.check("(iv) concavity combination")
        assert not iv.passed
        assert iv.first_violation is not None

    def test_negative_alpha_fails_lower_bound(self, log_grid):
        # f = x^{|alpha|} -> 0 near x = 0: the declared kappa cannot hold
        report = check_assumptions(power_law(-1.0), log_grid)
        assert not report.check("(ii) lower bound near 0").passed

    def test_constant_profile_passes_with_equality(self, log_grid):
        prof = custom_profile(
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            kappa=1.0,
            name="unit",
        )
        report = check_assumptions(prof, log_grid)
        assert report.all_passed

    def test_exp_inverse_passes_on_clipped_grid(self, log_grid):
        report = check_assumptions(builtin_profile("exp_inverse"), log_grid)
        assert report.all_passed
        assert report.grid.min() >= 3e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            check_assumptions(power_law(1.0), [])

    def test_small_grid_rejected(self):
        with pytest.raises(UsageError):
            check_assumptions(power_law(1.0), np.geomspace(0.1, 1, 10))

    def test_report_keeps_grid(self, log_grid):
        report = check_assumptions(power_law(1.0), log_grid)
        assert report.grid.size == log_grid.size


class TestConfig:
    def test_power_law_config(self):
        prof = parse_profile_config("kind = power_law\nalpha = 1.5\n")
        assert prof.is_power_law and prof.alpha == 1.5

    def test_section_header_is_optional(self):
        prof = parse_profile_config("[profile]\nkind = power_law\nalpha = -1\n")
        assert prof.alpha == -1.0

    def test_scaled_power_law_config(self):
        prof = parse_profile_config("kind = power_law\nalpha = 1\nscale = 2.5\n")
        assert prof.is_power_law
        assert prof.f(1.0) == 2.5
        assert prof.inv_f_squared(1.0) == 1 / 6.25

    def test_exp_inverse_builtin(self):
        prof = parse_profile_config("kind = custom\nname = exp_inverse\n")
        assert prof.name == "exp_inverse"

    def test_missing_alpha_rejected(self):
        with pytest.raises(UsageError):
            parse_profile_config("kind = power_law\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            parse_profile_config("kind = spherical\n")

    def test_unknown_builtin_rejected(self):
        with pytest.raises(UsageError):
            parse_profile_config("kind = custom\nname = nope\n")

    @pytest.mark.parametrize("text", [
        "kind = power_law\nalpha = 1\nscal = 2\n",
        "kind = custom\nname = exp_inverse\nfoo = 1\n",
        "kind = custom\nname = exp_inverse\nalpha = 1\n",
        "kind = power_law\nalpha = 1\nname = exp_inverse\n",
    ])
    def test_key_the_kind_does_not_read_rejected(self, text):
        with pytest.raises(UsageError, match="unknown key"):
            parse_profile_config(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "profile.ini"
        path.write_text("kind = power_law\nalpha = 0.5\n")
        from grushinlab.profiles import load_profile

        assert load_profile(path).alpha == 0.5


class TestFibrePotentialInvariant:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_nonnegative_when_iv_holds(self, alpha, log_grid):
        # assumption (iv) holds for alpha outside (-2, 0)
        pot = FibrePotential(xi=0.7, profile=power_law(alpha))
        assert np.all(pot(log_grid) >= 0.0)
