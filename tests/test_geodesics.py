import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from grushinlab import geodesics
from grushinlab.errors import DomainError, IntegrationError, UsageError
from grushinlab.geodesics import (
    GeodesicInitialData,
    geodesic_fan,
    hit_time_quadrature,
    integrate_geodesic,
)

PI = math.pi


def launch(theta, alpha, x0=1.0, y0=0.0):
    return GeodesicInitialData(x0=x0, y0=y0, theta=theta, alpha=alpha)


class TestQuadrature:
    def test_straight_run(self):
        assert hit_time_quadrature(launch(PI, 0.5))[0] == pytest.approx(1.0, abs=1e-12)

    def test_vertical_alpha_half(self):
        # int_0^1 ds / sqrt(1 - s) = 2
        assert hit_time_quadrature(launch(PI / 2, 0.5))[0] == pytest.approx(2.0, abs=1e-10)

    def test_vertical_alpha_one(self):
        # int_0^1 ds / sqrt(1 - s^2) = pi/2
        assert hit_time_quadrature(launch(PI / 2, 1.0))[0] == pytest.approx(PI / 2, abs=1e-10)

    def test_outgoing_angle_alpha_one(self):
        # harmonic-oscillator exact value: rise to x_c = sqrt(2) then fall
        exact = 3 * PI / (2 * math.sqrt(2.0))
        assert hit_time_quadrature(launch(PI / 4, 1.0))[0] == pytest.approx(exact, abs=1e-10)

    def test_theta_zero_never_hits_forward(self):
        assert hit_time_quadrature(launch(0.0, 1.0))[0] is None

    def test_launch_point_scaling(self):
        t1 = hit_time_quadrature(launch(2.0, 1.0, x0=1.0))[0]
        t3 = hit_time_quadrature(launch(2.0, 1.0, x0=3.0))[0]
        assert t3 == pytest.approx(3.0 * t1, rel=1e-12)

    def test_alpha_nonpositive_unsupported(self):
        with pytest.raises(UsageError):
            hit_time_quadrature(launch(PI / 2, 0.0))
        with pytest.raises(UsageError):
            hit_time_quadrature(launch(PI / 2, -1.0))

    def test_tiny_angle_long_excursion(self):
        # grazing launch climbs to x_c ~ 1/sin(theta) before falling back
        init = launch(1e-3, 1.0)
        q = hit_time_quadrature(init)[0]
        assert q == pytest.approx(3140.5931770220427, rel=1e-10)
        traj = integrate_geodesic(init, t_span=(-4000.0, 4000.0))
        assert abs(traj.hit_time_plus - q) <= 1e-6


class TestIntegration:
    def test_theta_pi_is_straight_line(self):
        traj = integrate_geodesic(launch(PI, 1.0))
        assert traj.hit_time_plus == pytest.approx(1.0, abs=1e-9)
        fwd = traj.t >= 0.0
        assert np.allclose(traj.x[fwd], 1.0 - traj.t[fwd], atol=1e-9)
        assert np.allclose(traj.y, 0.0, atol=1e-12)
        assert traj.hit_time_minus is None

    def test_theta_zero_hits_backwards_only(self):
        traj = integrate_geodesic(launch(0.0, 1.0))
        assert traj.hit_time_plus is None
        assert traj.hit_time_minus == pytest.approx(-1.0, abs=1e-9)

    def test_vertical_alpha_one(self):
        traj = integrate_geodesic(launch(PI / 2, 1.0))
        assert traj.hit_time_plus == pytest.approx(PI / 2, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [PI / 4, PI / 2, 3 * PI / 4, PI])
    def test_oracle_agreement(self, alpha, theta):
        init = launch(theta, alpha)
        traj = integrate_geodesic(init)
        assert abs(traj.hit_time_plus - hit_time_quadrature(init)[0]) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_energy_conservation(self, alpha):
        traj = integrate_geodesic(launch(2.2, alpha))
        assert traj.energy_drift <= 1e-9

    def test_positive_x_samples(self):
        traj = integrate_geodesic(launch(PI / 2, 1.0))
        assert np.all(traj.x > 0.0)

    def test_translation_invariance(self):
        t0 = integrate_geodesic(launch(1.2, 1.0, y0=0.0))
        t5 = integrate_geodesic(launch(1.2, 1.0, y0=5.0))
        assert t5.hit_time_plus == pytest.approx(t0.hit_time_plus, abs=1e-12)
        assert np.allclose(t5.x, t0.x, atol=1e-10)
        assert np.allclose(t5.y, t0.y + 5.0, atol=1e-10)

    def test_time_symmetry_mirror(self):
        up = integrate_geodesic(launch(1.0, 1.0))
        dn = integrate_geodesic(launch(2 * PI - 1.0, 1.0))
        assert np.allclose(up.x, dn.x, atol=1e-9)
        assert np.allclose(up.y, -dn.y, atol=1e-9)

    def test_general_launch_point_oracle(self):
        init = launch(2.5, 1.0, x0=2.0)
        traj = integrate_geodesic(init, t_span=(-20.0, 20.0))
        assert abs(traj.hit_time_plus - hit_time_quadrature(init)[0]) <= 1e-6

    def test_energy_is_half_at_general_launch(self):
        init = launch(0.7, 1.5, x0=3.0)
        px, py = init.momenta
        energy = 0.5 * (px * px + init.x0 ** (2.0 * init.alpha) * py * py)
        assert energy == pytest.approx(0.5, abs=1e-15)

    def test_alpha_negative_no_hit(self):
        # metric is regular at the boundary for alpha < 0 with sin(theta) != 0:
        # x turns around before reaching zero
        traj = integrate_geodesic(launch(PI / 2, -1.0), t_span=(-5.0, 5.0))
        assert traj.hit_time_plus is None
        assert np.all(traj.x > 0.0)

    def test_bad_tol_rejected(self):
        with pytest.raises(UsageError):
            integrate_geodesic(launch(1.0, 1.0), tol=1e-2)

    def test_bad_launch_rejected(self):
        with pytest.raises(DomainError):
            GeodesicInitialData(x0=0.0, y0=0.0, theta=1.0, alpha=1.0)

    @pytest.mark.parametrize("field", ["y0", "theta", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_launch_rejected(self, field, value):
        # y0 is not part of the ODE state, so nothing downstream would stop it
        data = {"x0": 1.0, "y0": 0.0, "theta": 1.0, "alpha": 1.0, field: value}
        with pytest.raises(UsageError):
            GeodesicInitialData(**data)
        if field != "theta":
            with pytest.raises(UsageError):
                geodesic_fan(data["alpha"], 4, y0=data["y0"])

    def test_launch_direction(self):
        # exact on the axes; elsewhere math.cos and math.sin, which reduce
        # theta exactly however far it lies from 0
        for theta, want in ((PI / 2, (0.0, 1.0)), (PI, (-1.0, 0.0)), (-PI / 2, (0.0, -1.0)),
                            (2 * PI, (1.0, 0.0))):
            assert launch(theta, 1.0).momenta == want
        for theta in (0.3, 1e6 + 0.3, -2.5e9, 1e15 + 0.3):
            assert launch(theta, 1.0).momenta == (math.cos(theta), math.sin(theta))


class TestFan:
    def test_fan_counts_and_hits(self):
        fan = geodesic_fan(1.0, 8)
        assert len(fan) == 8
        no_hit = [t for t in fan if t.hit_time_plus is None]
        assert len(no_hit) == 1 and no_hit[0].init.theta == 0.0

    def test_fan_alpha_half(self):
        assert len(geodesic_fan(0.5, 4)) == 4

    def test_two_angle_fan_is_horizontal(self):
        fan = geodesic_fan(1.0, 2)
        for traj in fan:
            assert np.allclose(traj.y, 0.0, atol=1e-12)

    def test_too_few_angles(self):
        with pytest.raises(UsageError):
            geodesic_fan(1.0, 1)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_quadrature_matches_every_fan_angle(self, alpha):
        # the benchmark's fans; near a turning point the hit-time radicand
        # must not cancel, or quad warns and loses digits
        for traj in geodesic_fan(alpha, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                expected = hit_time_quadrature(traj.init)[0]
            if traj.hit_time_plus is None:  # no hit within the fan's t_max = 10
                assert expected is None or expected > 10.0, traj.init.theta
            else:
                assert abs(traj.hit_time_plus - expected) <= 1e-6, traj.init.theta


SHARED_LAUNCH = {"x0": 1.3, "y0": -0.75}


def exact_flow(init, t):
    """(x, y, P_x) along the launch at times t, in closed form where the
    flow is solvable: alpha = 1 (a harmonic oscillator in x of frequency
    P_y) and alpha = 1/2 (constant force -P_y^2 / 2 on x)."""
    x0, y0 = init.x0, init.y0
    px0, py = init.momenta
    if py == 0.0:
        return x0 + px0 * t, np.full_like(t, y0), np.full_like(t, px0)
    if init.alpha == 0.5:
        q = py * py
        return (x0 + px0 * t - q * t * t / 4, y0 + py * (x0 * t + px0 * t * t / 2 - q * t**3 / 12),
                px0 - q * t / 2)
    assert init.alpha == 1.0
    w, b = py, px0 / py
    c, s = np.cos(w * t), np.sin(w * t)
    sq = np.sin(2 * w * t) / (4 * w)
    x2_integral = x0 * x0 * (t / 2 + sq) + x0 * b * s * s / w + b * b * (t / 2 - sq)
    return x0 * c + b * s, y0 + py * x2_integral, -x0 * w * s + px0 * c


class TestSharedSolves:
    """geodesic_fan solves each launch class once and mirrors or reverses
    it; every trajectory must still be the one a solve of its own gives."""

    @pytest.mark.parametrize("t_span", [(-10.0, 10.0), (-3.0, 7.0)])
    @pytest.mark.parametrize("n", [8, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, -1.0])
    def test_fan_matches_direct_solves(self, alpha, n, t_span):
        fan = geodesic_fan(alpha, n, t_span, **SHARED_LAUNCH)
        for traj in fan:
            alone = integrate_geodesic(traj.init, t_span)
            theta = traj.init.theta
            for got, want in ((traj.hit_time_plus, alone.hit_time_plus),
                              (traj.hit_time_minus, alone.hit_time_minus)):
                assert (got is None) == (want is None), theta
                if got is not None:
                    assert abs(got - want) <= 1e-11, theta
            assert traj.t.shape == alone.t.shape
            assert np.max(np.abs(traj.t - alone.t)) <= 1e-11, theta
            for name in ("x", "y", "px"):
                gap = np.max(np.abs(getattr(traj, name) - getattr(alone, name)))
                assert gap <= 1e-8, (theta, name, gap)

    @pytest.mark.parametrize("n", [8, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_both_halves_follow_the_exact_flow(self, alpha, n):
        # independent of the shared time reversal: the backward half (t < 0)
        # must carry the launch's own x, y and P_x, and its hit time must be
        # minus the quadrature of the reversed launch theta + pi
        for traj in geodesic_fan(alpha, n, (-3.0, 7.0), **SHARED_LAUNCH):
            backward = traj.t < 0.0
            assert backward.any() and (~backward).any()
            for name, want in zip(("x", "y", "px"), exact_flow(traj.init, traj.t)):
                gap = np.max(np.abs(getattr(traj, name) - want))
                assert gap <= 1e-8, (traj.init.theta, name, gap)
            reversed_launch = GeodesicInitialData(**SHARED_LAUNCH, alpha=alpha,
                                                  theta=traj.init.theta + PI)
            expected = hit_time_quadrature(reversed_launch)[0]
            if traj.hit_time_minus is None:
                assert expected is None or expected > 3.0, traj.init.theta
            else:
                assert abs(traj.hit_time_minus + expected) <= 1e-9, traj.init.theta

    def test_solve_counts(self, monkeypatch):
        calls = []
        solve = geodesics._solve_half

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(geodesics, "_solve_half", counted)

        def solves(run):
            calls.clear()
            run()
            return len(calls)

        assert solves(lambda: geodesic_fan(1.0, 64)) == 33
        assert solves(lambda: geodesic_fan(1.0, 63)) == 64
        assert solves(lambda: geodesic_fan(1.0, 64, (-3.0, 7.0))) == 66
        assert solves(lambda: geodesic_fan(1.0, 8, (0.0, 5.0))) == 5
        assert solves(lambda: integrate_geodesic(launch(1.0, 1.0))) == 2
        assert solves(lambda: integrate_geodesic(launch(1.0, 1.0), (0.0, 5.0))) == 1

    def test_failure_reports_the_geodesic_state(self, monkeypatch):
        # a failed solve reports the time and (x, P_x, y) reached by the
        # geodesic half that asked for it, not those of the forward solve
        import scipy.integrate

        solve_ivp = scipy.integrate.solve_ivp

        def backward_fails_at_half(fun, t_span, y, **kwargs):
            sol = solve_ivp(fun, (0.0, 0.5), y, **kwargs)
            if t_span[1] == 3.0 and kwargs["args"][1] != 0.0:
                sol.status, sol.message = -1, "forced"
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", backward_fails_at_half)
        init = GeodesicInitialData(**SHARED_LAUNCH, theta=PI / 4, alpha=1.0)
        x, y, px = (v[0] for v in exact_flow(init, np.array([-0.5])))
        # in the fan, angle 1 of 8 is the first to need a backward solve with
        # P_y != 0: the launch 3 pi / 4, mirrored
        for run in (lambda: integrate_geodesic(init, (-3.0, 7.0)),
                    lambda: geodesic_fan(1.0, 8, (-3.0, 7.0), **SHARED_LAUNCH)):
            with pytest.raises(IntegrationError) as failure:
                run()
            assert failure.value.last_time == -0.5
            assert np.allclose(failure.value.last_state, [x, px, y], rtol=0.0, atol=1e-8)

    def test_one_sided_span(self):
        for traj in geodesic_fan(1.0, 4, (0.0, 5.0)):
            assert traj.hit_time_minus is None and traj.t[0] == 0.0
            assert traj.meta["nfev_backward"] == 0 < traj.meta["nfev_forward"]
        for traj in geodesic_fan(1.0, 4, (-5.0, 0.0)):
            assert traj.hit_time_plus is None and traj.t[-1] < 0.0
            assert traj.meta["nfev_forward"] == 0 < traj.meta["nfev_backward"]
