import math

import numpy as np
import pytest

from grushinlab import geodesics
from grushinlab.errors import NumericError, UsageError
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
        assert hit_time_quadrature(launch(PI, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_vertical_alpha_half(self):
        # int_0^1 ds / sqrt(1 - s) = 2
        assert hit_time_quadrature(launch(PI / 2, 0.5)) == pytest.approx(2.0, abs=1e-10)

    def test_vertical_alpha_one(self):
        # int_0^1 ds / sqrt(1 - s^2) = pi/2
        assert hit_time_quadrature(launch(PI / 2, 1.0)) == pytest.approx(PI / 2, abs=1e-10)

    def test_outgoing_angle_alpha_one(self):
        # harmonic-oscillator exact value: rise to x_c = sqrt(2) then fall
        exact = 3 * PI / (2 * math.sqrt(2.0))
        assert hit_time_quadrature(launch(PI / 4, 1.0)) == pytest.approx(exact, abs=1e-10)

    def test_constant_force_on_every_fan_angle(self):
        # alpha = 1/2 is the constant force -P_y^2 / 2 on x, which reaches
        # x = 0 at t = 2 x0 (1 + cos theta) / sin^2 theta on both sides of
        # the vertical, that is x0 / sin^2(theta / 2) without cancellation
        for i in range(1, 64):
            theta = 2.0 * PI * (i / 64)
            exact = 1.3 / math.sin(0.5 * theta) ** 2
            assert hit_time_quadrature(launch(theta, 0.5, x0=1.3)) == pytest.approx(
                exact, rel=1e-13), theta

    @pytest.mark.parametrize("theta", [PI / 2 - 0.01, PI / 2, PI / 2 + 0.01],
                             ids=["outward", "vertical", "inward"])
    def test_near_vertical_at_small_alpha_matches_the_ode(self, theta):
        # a = 1/(2 alpha) = 250: near sin^2 theta = 1 scipy's hyp2f1 is nan
        # for a >= 171, so these times must come from cos^2 theta
        init = launch(theta, 0.002)
        traj = integrate_geodesic(init, t_span=(0.0, 60.0))
        assert abs(traj.hit_time_plus - hit_time_quadrature(init)) <= 1e-8

    @pytest.mark.parametrize("offset", [1e-9, 1e-7, 1e-5, -1e-9, -1e-7, -1e-5])
    def test_near_vertical_alpha_one_to_rounding(self, offset):
        # the classical Grushin plane is a harmonic oscillator in x of
        # frequency w = |sin theta| / x0, so x = 0 comes at w t = acos|cos
        # theta| inward and pi - acos(cos theta) outward, here in 50 digits
        # at the float theta; scipy's betaincc(1/2, 1/2, x) was off by
        # 7.8e-12 at theta = pi/2 + 1e-9
        mpmath = pytest.importorskip("mpmath")
        theta, x0 = PI / 2 + offset, 1.3
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            c, s = mpmath.cos(t), mpmath.sin(t)
            phase = mpmath.acos(abs(c)) if c <= 0 else mpmath.pi - mpmath.acos(c)
            exact = float(x0 * phase / abs(s))
        got = hit_time_quadrature(launch(theta, 1.0, x0=x0))
        assert abs(got / exact - 1.0) <= 1e-14

    @pytest.mark.parametrize("alpha", [1e-5, 1e-4])
    def test_inward_time_needs_no_turning_point(self, alpha):
        # below alpha ~7e-5 the turning point x0 |sin theta|^(-1/alpha) of
        # a launch near the vertical overflows a float (at 1e-5 it is
        # e^837); the Laplace form of the inward time never forms it
        init = launch(1.7, alpha)
        ode = integrate_geodesic(init).hit_time_plus
        laplace = geodesics._inward_time(1.0, math.cos(1.7), math.sin(1.7), 0.5 / alpha)
        assert abs(laplace - ode) <= 1e-9
        if alpha < 7e-5:
            assert hit_time_quadrature(init) == laplace
        # an outward launch still rises to x_t, and still overflows
        with pytest.raises(UsageError, match="overflows a float"):
            hit_time_quadrature(launch(PI - 1.7, 1e-5))

    def test_theta_zero_never_hits_forward(self):
        assert hit_time_quadrature(launch(0.0, 1.0)) is None

    def test_launch_point_scaling(self):
        t1 = hit_time_quadrature(launch(2.0, 1.0, x0=1.0))
        t3 = hit_time_quadrature(launch(2.0, 1.0, x0=3.0))
        assert t3 == pytest.approx(3.0 * t1, rel=1e-12)

    def test_alpha_nonpositive_unsupported(self):
        with pytest.raises(UsageError):
            hit_time_quadrature(launch(PI / 2, 0.0))
        with pytest.raises(UsageError):
            hit_time_quadrature(launch(PI / 2, -1.0))

    def test_tiny_angle_long_excursion(self):
        # grazing launch climbs to x_c ~ 1/sin(theta) before falling back
        init = launch(1e-3, 1.0)
        q = hit_time_quadrature(init)
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
        assert abs(traj.hit_time_plus - hit_time_quadrature(init)) <= 1e-6

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
        assert abs(traj.hit_time_plus - hit_time_quadrature(init)) <= 1e-6

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
        with pytest.raises(UsageError):
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

    @pytest.mark.parametrize("n", [11, 22])
    def test_axis_angles_are_exact(self, n):
        # rounded as (pi k) / n, the angle pi is not math.pi for k = n = 11
        # or 22, and the horizontal launch gets a P_y of 1e-16 that drifts y
        # by 5e-6 near the boundary at alpha = -1
        fan = geodesic_fan(-1.0, n, (-3.37, 7.34), x0=0.981, y0=0.3)
        for traj in (fan[0], fan[n // 2]) if n % 2 == 0 else (fan[0],):
            assert traj.py == 0.0 and np.all(traj.y == 0.3), traj.init.theta
            assert traj.forward[0].source == traj.backward[0].source == "line"

    def test_too_few_angles(self):
        with pytest.raises(UsageError):
            geodesic_fan(1.0, 1)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_quadrature_matches_every_fan_angle(self, alpha):
        # the benchmark's fans
        for traj in geodesic_fan(alpha, 64):
            expected = hit_time_quadrature(traj.init)
            if traj.hit_time_plus is None:  # no hit within the fan's t_max = 10
                assert expected is None or expected > 10.0, traj.init.theta
            else:
                assert abs(traj.hit_time_plus - expected) <= 1e-6, traj.init.theta


SHARED_LAUNCH = {"x0": 1.3, "y0": -0.75}


def exact_flow(init, t):
    """(x, y, P_x) along the launch at times t, in closed form where the
    flow is solvable: alpha = 1 (a harmonic oscillator in x of frequency
    P_y), alpha = 1/2 (constant force -P_y^2 / 2 on x) and alpha = -1
    (x^2 = x0^2 + 2 x0 P_x t + t^2, y = y0 + atan of the same line)."""
    x0, y0 = init.x0, init.y0
    px0, py = init.momenta
    if py == 0.0:
        return x0 + px0 * t, np.full_like(t, y0), np.full_like(t, px0)
    if init.alpha == -1.0:
        u, s = x0 * px0 + t, py / x0
        x = np.sqrt((x0 * s) ** 2 + u * u)
        return x, y0 + np.arctan(u / (x0 * s)) - np.arctan(px0 / s), u / x
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
    """geodesic_fan takes each launch class once from one reference orbit,
    and mirrors or reverses it; every trajectory must still be the one a
    solve of its own gives."""

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

    @pytest.mark.parametrize("alpha", [0.3, 0.1, 0.02, 0.001, 0.0, -0.1, -0.02])
    def test_small_alpha_fans_match_direct_solves(self, alpha):
        # far from the benchmark's alphas the dilation x_t = x0 |sin theta|^(-1/alpha)
        # spans tens of decades (or is no float, and the half is solved
        # directly); at alpha = 0 every half is a line.  P_x is not compared:
        # at the floor sample it moves by about 1e8 per unit of x.  The angles
        # in [0, pi] use every launch class, both ways.
        t_span = (-10.0, 10.0)
        for traj in geodesic_fan(alpha, 16, t_span, **SHARED_LAUNCH)[:9]:
            alone = integrate_geodesic(traj.init, t_span)
            theta = traj.init.theta
            reverse = GeodesicInitialData(**SHARED_LAUNCH, alpha=alpha, theta=theta + PI)
            for got, want, launch, sign in (
                    (traj.hit_time_plus, alone.hit_time_plus, traj.init, 1),
                    (traj.hit_time_minus, alone.hit_time_minus, reverse, -1)):
                assert (got is None) == (want is None), theta
                if got is None:
                    continue
                assert abs(got - want) <= 1e-8, theta
                if alpha > 0.0:
                    assert abs(sign * got - hit_time_quadrature(launch)) <= 1e-8, theta
            assert traj.t.shape == alone.t.shape
            for name in ("t", "x", "y"):
                gap = np.max(np.abs(getattr(traj, name) - getattr(alone, name)))
                assert gap <= 1e-8, (theta, name, gap)
            assert traj.energy_drift <= 1e-9, theta

    def test_far_reaching_launches_match_direct_solves(self):
        # alpha = -0.002: pi/8 turns at x_t = x0 sin(pi/8)^500, about 1e-208,
        # and a reference out to (x0 + t_end) / x_t, about 1e209, lost y to
        # 5e-3 where DOP853's squared error norm underflows
        traj = geodesic_fan(-0.002, 16, (0.0, 10.0), **SHARED_LAUNCH)[1]
        alone = integrate_geodesic(traj.init, (0.0, 10.0))
        for name in ("t", "x", "y"):
            gap = np.max(np.abs(getattr(traj, name) - getattr(alone, name)))
            assert gap <= 1e-8, (name, gap)

    @pytest.mark.parametrize("alpha,n", [(0.001, 16), (0.003, 16), (0.01, 16),
                                         (-0.002, 16), (-0.02, 64)])
    def test_reference_spans_at_most_forty_decades(self, alpha, n):
        # the reference spans from its floor R0 = X_STOP / max x_t up for
        # alpha > 0, and from its turning point out to max (x0 + t_end) / x_t
        # for alpha < 0; a launch that would stretch it past 40 decades is
        # solved directly
        halves = [half for traj in geodesic_fan(alpha, n, x0=1.3)
                  for half, _ in (traj.forward, traj.backward) if half.reference]
        assert halves
        for half in halves:
            span = (half.reference["R0"] * 1e40 if alpha > 0.0
                    else 1e40 * half.source["x_t"] / (1.3 + half.t_end))
            assert span >= 1.0, (half.theta, span)

    def test_benchmark_fan_follows_the_exact_flow_in_y(self):
        # alpha = 1/2, 64 angles: the dilation multiplies the reference's y
        # error by x_t^(3/2), about 1e3 beside theta = pi; the last sample of
        # every half that reaches the boundary is its floor sample
        for traj in geodesic_fan(0.5, 64, y0=0.25):
            gap = np.max(np.abs(traj.y - exact_flow(traj.init, traj.t)[1]))
            assert gap <= 1e-11, (traj.init.theta, gap)

    @pytest.mark.parametrize("n", [8, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, -1.0])
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
            if alpha < 0.0:  # no quadrature applies
                continue
            reversed_launch = GeodesicInitialData(**SHARED_LAUNCH, alpha=alpha,
                                                  theta=traj.init.theta + PI)
            expected = hit_time_quadrature(reversed_launch)
            if traj.hit_time_minus is None:
                assert expected is None or expected > 3.0, traj.init.theta
            else:
                assert abs(traj.hit_time_minus + expected) <= 1e-9, traj.init.theta

    def test_solve_counts(self, monkeypatch):
        import scipy.integrate

        calls = []
        solve_ivp = scipy.integrate.solve_ivp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counted)

        def solves(run):
            calls.clear()
            run()
            return len(calls)

        # one reference orbit per fan, whatever its size or span
        for n, t_span in ((64, (-10.0, 10.0)), (63, (-10.0, 10.0)), (64, (-3.0, 7.0)),
                          (8, (0.0, 5.0)), (8, (-5.0, 0.0))):
            assert solves(lambda: geodesic_fan(1.0, n, t_span)) == 1, (n, t_span)
        # lines are closed form: P_y = 0, or alpha = 0
        assert solves(lambda: geodesic_fan(1.0, 2)) == 0
        assert solves(lambda: geodesic_fan(0.0, 8)) == 0
        assert solves(lambda: integrate_geodesic(launch(PI, 1.0))) == 0
        # the direct route solves each of its halves
        assert solves(lambda: integrate_geodesic(launch(1.0, 1.0))) == 2
        assert solves(lambda: integrate_geodesic(launch(1.0, 1.0), (0.0, 5.0))) == 1

    def test_failure_names_its_half_or_the_reference(self, monkeypatch):
        # a failure is its message: a failed direct solve names the launch
        # angle of its half (theta forward, theta + pi backward), and a
        # fan's one solve fails the fan, naming the reference orbit
        import scipy.integrate

        solve_ivp = scipy.integrate.solve_ivp

        def stops(t_bound, fails):
            def solve(fun, t_span, y, **kwargs):
                sol = solve_ivp(fun, (0.0, t_bound), y, **kwargs)
                if fails(t_span):
                    sol.status, sol.message = -1, "forced"
                return sol
            return solve

        init = GeodesicInitialData(**SHARED_LAUNCH, theta=PI / 4, alpha=1.0)
        for t_end, theta in ((7.0, PI / 4), (3.0, 5 * PI / 4)):
            monkeypatch.setattr(scipy.integrate, "solve_ivp",
                                stops(0.5, lambda t_span: t_span[1] == t_end))
            with pytest.raises(NumericError, match=rf"theta={theta:g}: forced$"):
                integrate_geodesic(init, (-3.0, 7.0))

        # a fan's one solve is its reference orbit
        monkeypatch.setattr(scipy.integrate, "solve_ivp", stops(1.2, lambda t_span: True))
        for alpha in (1.0, -1.0):
            with pytest.raises(NumericError, match="fan's reference orbit: forced$"):
                geodesic_fan(alpha, 8, (-3.0, 7.0), **SHARED_LAUNCH)

    def test_one_sided_span(self):
        for traj in geodesic_fan(1.0, 4, (0.0, 5.0)):
            assert traj.hit_time_minus is None and traj.t[0] == 0.0
            assert traj.meta["nfev_backward"] == 0
            assert (traj.meta["nfev_forward"] > 0) == (traj.py != 0.0)  # lines are closed form
        for traj in geodesic_fan(1.0, 4, (-5.0, 0.0)):
            assert traj.hit_time_plus is None and traj.t[-1] < 0.0
            assert traj.meta["nfev_forward"] == 0
            assert (traj.meta["nfev_backward"] > 0) == (traj.py != 0.0)
