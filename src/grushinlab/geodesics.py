"""Geodesic flow on the power-law half-plane and boundary hit times.

Geodesics are projections of solutions of the Hamiltonian system for

    h(x, y, P_x, P_y) = (P_x^2 + x^(2 alpha) P_y^2) / 2,

        x'   = P_x              P_x' = -alpha x^(2 alpha - 1) P_y^2
        y'   = x^(2 alpha) P_y  P_y' = 0.

P_y is an exact constant of motion, so the system is integrated in the
reduced variables (x, P_x, y).  Launch data is a point (x0, y0) and an
angle theta measured in the orthonormal frame {d/dx, x^alpha d/dy}, so
the initial momenta are

    P_x = cos(theta),    P_y = sin(theta) * x0^(-alpha),

which normalises the energy to h = 1/2 for every launch point (for
x0 = 1 this is the plain direction (cos theta, sin theta)).

For alpha > 0 every geodesic except theta = 0 reaches the boundary x = 0
in finite forward time.  Energy conservation turns the hit time into a
quadrature: with s = |sin theta|,

    t_+ = x0 [ I(1 -> u_c) + I(0 -> u_c) ]   if cos theta > 0,
    t_+ = x0   I(0 -> 1)                     if cos theta <= 0,

where u_c = s^(-1/alpha) is the turning point of u = x/x0 and
I(a -> b) = integral_a^b du / sqrt(1 - s^2 u^(2 alpha)).  The integrand
has an inverse-square-root singularity at the turning point; the
substitution u = u_c (1 - v^2) removes it exactly, and the resulting
smooth integrals are evaluated with adaptive quadrature to 1e-12.

The ODE route detects the boundary with a terminal event at a small
floor X_STOP and extrapolates the remaining X_STOP / |P_x| of travel;
integrating through x = 0 is never attempted because P_x' is singular
there for alpha < 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, UsageError

__all__ = [
    "GeodesicInitialData",
    "GeodesicTrajectory",
    "integrate_geodesic",
    "hit_time_quadrature",
    "geodesic_fan",
]

X_STOP = 1e-10
DEFAULT_TOL = 1e-12
# recorded samples of each time direction
SAMPLES_EACH_WAY = 400


@dataclass(frozen=True)
class GeodesicInitialData:
    """Launch point, angle and power-law exponent of one geodesic."""

    x0: float
    y0: float
    theta: float
    alpha: float

    def __post_init__(self):
        if not (self.x0 > 0.0 and math.isfinite(self.x0)):
            raise DomainError("launch point must have x0 > 0")
        if not math.isfinite(self.theta) or not math.isfinite(self.alpha):
            raise UsageError("theta and alpha must be finite")

    @property
    def momenta(self) -> tuple[float, float]:
        """(P_x, P_y) induced by the frame-normalised launch direction."""
        return (
            math.cos(self.theta),
            math.sin(self.theta) * self.x0 ** (-self.alpha),
        )

    def energy(self, x: float, px: float) -> float:
        py = self.momenta[1]
        return 0.5 * (px * px + x ** (2.0 * self.alpha) * py * py)


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Time-stamped samples of one geodesic plus boundary-arrival data.

    Samples are ordered by t and restricted to x > 0; ``hit_time_plus``
    (``hit_time_minus``) is the forward (backward) boundary arrival time,
    or None if the boundary is not reached inside the integration span.
    ``energy_drift`` is max_t |h - 1/2| over the recorded samples.
    """

    init: GeodesicInitialData
    t: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    px: np.ndarray = field(repr=False)
    py: np.ndarray = field(repr=False)
    hit_time_plus: float | None
    hit_time_minus: float | None
    energy_drift: float
    meta: dict = field(default_factory=dict)


def _rhs(t, state, alpha, py):
    x, px, _y = state
    # Trial stages of the integrator may overshoot below the stop floor;
    # clamp so fractional powers of a negative x never appear.
    xg = x if x > 1e-14 else 1e-14
    x2a = xg ** (2.0 * alpha)
    return (px, -alpha * (x2a / xg) * py * py, x2a * py)


def _integrate_one_direction(init, t_end, tol):
    """Integrate from t=0 towards t_end (either sign); return solution."""
    from scipy.integrate import solve_ivp

    px0, py = init.momenta

    def event(t, state, alpha, py):
        return state[0] - X_STOP

    event.terminal = True
    event.direction = -1

    sol = solve_ivp(
        _rhs,
        (0.0, t_end),
        (init.x0, px0, init.y0),
        args=(init.alpha, py),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        events=event,
        dense_output=True,
    )
    if sol.status == -1:
        raise IntegrationError(
            f"geodesic integration failed: {sol.message}",
            last_time=sol.t[-1] if sol.t.size else 0.0,
            last_state=sol.y[:, -1] if sol.t.size else None,
        )
    hit = None
    if sol.t_events[0].size:
        t_event = float(sol.t_events[0][0])
        x_e, px_e, _ = sol.y_events[0][0]
        # Remaining travel below the floor at essentially constant P_x.
        hit = t_event + math.copysign(x_e / max(abs(px_e), 1e-15), t_end)
    return sol, hit


def integrate_geodesic(
    init: GeodesicInitialData,
    t_span: tuple[float, float] = (-10.0, 10.0),
    tol: float = DEFAULT_TOL,
) -> GeodesicTrajectory:
    """Integrate one geodesic over ``t_span``, both time directions.

    The integration stops when x crosses X_STOP; the event time plus
    the linear remainder locates the boundary arrival well below ``tol``.
    """
    if not (1e-13 < tol < 1e-3):
        raise UsageError("tol must lie in (1e-13, 1e-3)")
    if not (t_span[0] <= 0.0 <= t_span[1]) or t_span[0] == t_span[1]:
        raise UsageError("t_span must contain t=0")

    _, py = init.momenta
    t_grids, states = [], []
    hit_plus = hit_minus = None

    if t_span[1] > 0.0:
        sol_f, hit_plus = _integrate_one_direction(init, t_span[1], tol)
        tf = np.linspace(0.0, sol_f.t[-1], SAMPLES_EACH_WAY)
        t_grids.append(tf)
        states.append(sol_f.sol(tf))
    if t_span[0] < 0.0:
        sol_b, hit_minus = _integrate_one_direction(init, t_span[0], tol)
        tb = np.linspace(0.0, sol_b.t[-1], SAMPLES_EACH_WAY)[1:]
        t_grids.append(tb[::-1])
        states.append(sol_b.sol(tb)[:, ::-1])

    order = np.argsort([g[0] for g in t_grids])
    t = np.concatenate([t_grids[i] for i in order])
    st = np.concatenate([states[i] for i in order], axis=1)
    x, px, y = st

    energy = 0.5 * (px**2 + x ** (2.0 * init.alpha) * py**2)
    drift = float(np.max(np.abs(energy - 0.5)))

    return GeodesicTrajectory(
        init=init,
        t=t,
        x=x,
        y=y,
        px=px,
        py=np.full_like(t, py),
        hit_time_plus=hit_plus,
        hit_time_minus=hit_minus,
        energy_drift=drift,
        meta={
            "integrator": "DOP853",
            "rtol": tol,
            "atol": tol * 1e-2,
            "x_stop": X_STOP,
            "t_span": [float(t_span[0]), float(t_span[1])],
        },
    )


def _leg(alpha, u_lo, u_hi, s2):
    """x0-scaled travel time between u_lo < u_hi along the radicand
    1 - s2 * u^(2 alpha), with the singularity (if any) sitting at u_hi.

    Substituting u = u_hi (1 - v^2) turns the inverse-square-root
    endpoint into a bounded smooth integrand.
    """
    from scipy.integrate import quad

    top = s2 * u_hi ** (2.0 * alpha)
    singular = abs(top - 1.0) <= 1e-12

    def integrand(v):
        w = 1.0 - v * v
        if singular and v < 1e-8:
            # limit 2 v / sqrt(g(v)) with g ~ 2 alpha s2 u_hi^(2a) v^2
            return 2.0 / math.sqrt(2.0 * alpha * top)
        radicand = 1.0 - s2 * (u_hi * w) ** (2.0 * alpha)
        return 2.0 * v / math.sqrt(radicand)

    v_max = math.sqrt(1.0 - u_lo / u_hi)
    val, _err = quad(integrand, 0.0, v_max, epsabs=1e-12, epsrel=1e-13, limit=200)
    return u_hi * val


def hit_time_quadrature(init: GeodesicInitialData) -> float | None:
    """Forward boundary-arrival time from the conserved-energy quadrature.

    Returns None for theta = 0 (the only launch direction with no forward
    hit).  Requires alpha > 0; for alpha <= 0 geodesics need not reach
    the boundary and the quadrature does not apply.
    """
    alpha, theta, x0 = init.alpha, init.theta, init.x0
    if alpha <= 0.0:
        raise UsageError("hit-time quadrature requires alpha > 0")
    s, c = math.sin(theta), math.cos(theta)
    if s == 0.0:
        if c > 0.0:
            return None
        return x0  # straight run (x0 - t, y0)
    s2 = s * s
    if c <= 0.0:
        return x0 * _leg(alpha, 0.0, 1.0, s2)
    u_c = abs(s) ** (-1.0 / alpha)
    rise = _leg(alpha, 1.0, u_c, s2)
    fall = _leg(alpha, 0.0, u_c, s2)
    return x0 * (rise + fall)


def geodesic_fan(
    alpha: float,
    n_angles: int,
    t_span: tuple[float, float] = (-10.0, 10.0),
    x0: float = 1.0,
    y0: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> list[GeodesicTrajectory]:
    """Trajectories for n_angles angles uniformly spaced in [0, 2 pi),
    ordered by theta."""
    if n_angles < 2:
        raise UsageError("a fan needs at least 2 angles")
    thetas = [2.0 * math.pi * i / n_angles for i in range(n_angles)]
    inits = [GeodesicInitialData(x0=x0, y0=y0, theta=th, alpha=alpha) for th in thetas]
    return [integrate_geodesic(i, t_span, tol) for i in inits]
