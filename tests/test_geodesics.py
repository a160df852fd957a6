import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from grushinlab.errors import DomainError, UsageError
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
        assert init.energy(init.x0, init.momenta[0]) == pytest.approx(0.5, abs=1e-15)

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
                expected = hit_time_quadrature(traj.init)
            if traj.hit_time_plus is None:  # no hit within the fan's t_max = 10
                assert expected is None or expected > 10.0, traj.init.theta
            else:
                assert abs(traj.hit_time_plus - expected) <= 1e-6, traj.init.theta
