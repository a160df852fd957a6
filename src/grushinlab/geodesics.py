"""Geodesic flow on the power-law half-plane and boundary hit times.

Geodesics are projections of solutions of the Hamiltonian system for

    h(x, y, P_x, P_y) = (P_x^2 + x^(2 alpha) P_y^2) / 2,

        x'   = P_x              P_x' = -alpha x^(2 alpha - 1) P_y^2
        y'   = x^(2 alpha) P_y  P_y' = 0.

P_y is an exact constant of motion, so the system is integrated in the
reduced variables (x, P_x, y - y0), which start at (x0, P_x, 0) for every
y0.  P_y enters the (x, P_x) equations only as P_y^2, so negating P_y
negates y - y0 and changes nothing else; and the flow is reversible, so
every half of a geodesic is a forward-time solve (see
``integrate_geodesic``).  Launch data is a point (x0, y0) and an
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


def _direction(theta: float) -> tuple[float, float]:
    """(cos theta, sin theta), exact on the axes.

    A float multiple of pi/2 gives the exact axis direction; sin(math.pi)
    = 1.2e-16 would otherwise launch the horizontal geodesic with a P_y
    that x^(2 alpha) amplifies near the boundary for alpha < 0.  Any
    other theta gets math.cos and math.sin, which reduce it exactly.
    """
    quarter = 0.5 * math.pi
    if math.remainder(theta, quarter) != 0.0:
        return math.cos(theta), math.sin(theta)
    return [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][round(theta / quarter) % 4]


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
        if not all(map(math.isfinite, (self.y0, self.theta, self.alpha))):
            raise UsageError("y0, theta and alpha must be finite")

    @property
    def momenta(self) -> tuple[float, float]:
        """(P_x, P_y) induced by the frame-normalised launch direction."""
        c, s = _direction(self.theta)
        return c, s * self.x0 ** (-self.alpha)


@dataclass(frozen=True)
class GeodesicTrajectory:
    """One geodesic: its launch and the two halves it is made of.

    ``forward`` and ``backward`` are (solve, y-mirror sign s) pairs, or
    None for a half outside the integration span; a fan shares one solve
    between several trajectories.  The samples t, x, y and P_x are
    assembled when read, ordered by t and restricted to x > 0: the
    backward solve time-reversed without its t = 0 sample,
    (-t, x, y0 + s dy, -P_x), then the forward solve, (t, x, y0 + s dy,
    P_x).  ``hit_time_plus`` (``hit_time_minus``) is the forward
    (backward) boundary arrival time, or None if the boundary is not
    reached inside the span; ``energy_drift`` is max |h - 1/2| over the
    samples of both solves.
    """

    init: GeodesicInitialData
    forward: tuple[_Half, float] | None = field(repr=False)
    backward: tuple[_Half, float] | None = field(repr=False)
    meta: dict = field(default_factory=dict)

    def _samples(self) -> list[np.ndarray]:
        parts = []
        if self.backward is not None:
            half, y_sign = self.backward
            x, px, dy = half.state[:, :0:-1]
            parts.append((-half.t[:0:-1], x, self.init.y0 + y_sign * dy, -px))
        if self.forward is not None:
            half, y_sign = self.forward
            x, px, dy = half.state
            parts.append((half.t, x, self.init.y0 + y_sign * dy, px))
        return [np.concatenate(column) for column in zip(*parts)]

    @property
    def t(self) -> np.ndarray:
        return self._samples()[0]

    @property
    def x(self) -> np.ndarray:
        return self._samples()[1]

    @property
    def y(self) -> np.ndarray:
        return self._samples()[2]

    @property
    def px(self) -> np.ndarray:
        return self._samples()[3]

    @property
    def py(self) -> float:
        """P_y, a constant of motion."""
        return self.init.momenta[1]

    @property
    def hit_time_plus(self) -> float | None:
        return None if self.forward is None else self.forward[0].hit

    @property
    def hit_time_minus(self) -> float | None:
        hit = None if self.backward is None else self.backward[0].hit
        return None if hit is None else -hit

    @property
    def energy_drift(self) -> float:
        return max(part[0].drift for part in (self.forward, self.backward) if part is not None)


def _rhs(t, state, alpha, py):
    x, px, _dy = state
    # Trial stages of the integrator may overshoot below the stop floor;
    # clamp so fractional powers of a negative x never appear.
    xg = x if x > 1e-14 else 1e-14
    x2a = xg ** (2.0 * alpha)
    return (px, -alpha * (x2a / xg) * py * py, x2a * py)


@dataclass(frozen=True)
class _Half:
    """SAMPLES_EACH_WAY samples of one forward-time solve from t = 0:
    rows x, P_x and y - y0.  The launch is the angle ``theta`` with
    momenta (``px``, ``py``), integrated to ``t_end``; ``hit`` is the
    boundary arrival time (or None), ``nfev`` the right-hand-side calls
    of the solve and ``drift`` max |h - 1/2| over the samples.  The same
    half launched with -P_y has y - y0 negated and nothing else
    changed."""

    theta: float
    px: float
    py: float
    t_end: float
    t: np.ndarray = field(repr=False)
    state: np.ndarray = field(repr=False)
    hit: float | None
    nfev: int
    drift: float


def _solve_half(alpha, x0, theta, px0, py, t_end, tol, frame) -> _Half:
    """Integrate the launch ``theta`` with momenta (px0, py) from t = 0 to
    t_end > 0, or to the boundary floor.

    ``frame`` = (y0, time sign, y - y0 sign) places the solve in the
    geodesic half that asked for it; it is used only to report a failure
    at the time and state (x, P_x, y) that geodesic reached.
    """
    from scipy.integrate import solve_ivp

    def event(t, state, alpha, py):
        return state[0] - X_STOP

    event.terminal = True
    event.direction = -1

    sol = solve_ivp(
        _rhs,
        (0.0, t_end),
        (x0, px0, 0.0),
        args=(alpha, py),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        events=event,
        dense_output=True,
    )
    if sol.status == -1:
        y0, t_sign, y_sign = frame
        x, px, dy = sol.y[:, -1]
        raise IntegrationError(
            f"geodesic integration failed: {sol.message}",
            last_time=t_sign * sol.t[-1],
            last_state=np.array([x, t_sign * px, y0 + y_sign * dy]),
        )
    hit = None
    if sol.t_events[0].size:
        t_event = float(sol.t_events[0][0])
        x_e, px_e, _ = sol.y_events[0][0]
        # Remaining travel below the floor at essentially constant P_x.
        hit = t_event + x_e / max(abs(px_e), 1e-15)
    t = np.linspace(0.0, sol.t[-1], SAMPLES_EACH_WAY)
    state = sol.sol(t)
    x, px, _dy = state
    drift = float(np.max(np.abs(0.5 * (px**2 + x ** (2.0 * alpha) * py**2) - 0.5)))
    return _Half(theta, px0, py, t_end, t, state, hit, sol.nfev, drift)


def _check_span(t_span, tol):
    if not (1e-13 < tol < 1e-3):
        raise UsageError("tol must lie in (1e-13, 1e-3)")
    if not (t_span[0] <= 0.0 <= t_span[1]) or t_span[0] == t_span[1]:
        raise UsageError("t_span must contain t=0")


def integrate_geodesic(
    init: GeodesicInitialData,
    t_span: tuple[float, float] = (-10.0, 10.0),
    tol: float = DEFAULT_TOL,
    _halves: tuple[tuple[_Half, float] | None, tuple[_Half, float] | None] | None = None,
) -> GeodesicTrajectory:
    """Integrate one geodesic over ``t_span``, both time directions.

    The integration stops when x crosses X_STOP; the event time plus
    the linear remainder locates the boundary arrival well below ``tol``.

    Both halves are forward-time solves.  By time reversal, the backward
    half of the launch (P_x, P_y) is the forward half of (-P_x, -P_y)
    with t and P_x negated.  ``geodesic_fan`` passes these two solves in
    as ``_halves``, each with the sign that mirrors its y - y0, to share
    them between angles (the second None when t_span[0] = 0, the first
    when t_span[1] = 0); by default they are solved here.
    """
    _check_span(t_span, tol)
    if _halves is None:
        alpha, x0, theta, y0 = init.alpha, init.x0, init.theta, init.y0
        px0, py = init.momenta
        _halves = (
            (_solve_half(alpha, x0, theta, px0, py, t_span[1], tol, (y0, 1.0, 1.0)), 1.0)
            if t_span[1] > 0.0 else None,
            (_solve_half(alpha, x0, theta + math.pi, -px0, -py, -t_span[0], tol,
                         (y0, -1.0, 1.0)), 1.0)
            if t_span[0] < 0.0 else None,
        )
    fwd, bwd = _halves
    return GeodesicTrajectory(
        init=init,
        forward=fwd,
        backward=bwd,
        meta={
            "integrator": "DOP853",
            "rtol": tol,
            "atol": tol * 1e-2,
            "x_stop": X_STOP,
            "t_span": [float(t_span[0]), float(t_span[1])],
            "nfev_forward": 0 if fwd is None else fwd[0].nfev,
            "nfev_backward": 0 if bwd is None else bwd[0].nfev,
        },
    )


def _leg(alpha, u_lo, u_hi, s2):
    """x0-scaled travel time between u_lo < u_hi along the radicand
    1 - s2 * u^(2 alpha), with the singularity (if any) sitting at u_hi.

    Substituting u = u_hi (1 - v^2) turns the inverse-square-root
    endpoint into a bounded smooth integrand.  With top = s2 u_hi^(2 alpha)
    the radicand is (1 - top) - top expm1(2 alpha log1p(-v^2)), which keeps
    its relative accuracy as v -> 0 at a turning point (top = 1), where the
    plain difference 1 - top (1 - v^2)^(2 alpha) cancels.
    """
    from scipy.integrate import quad

    top = s2 * u_hi ** (2.0 * alpha)
    gap = max(1.0 - top, 0.0)  # top <= 1 on every leg; clip the roundoff above

    def integrand(v):
        radicand = gap - top * math.expm1(2.0 * alpha * math.log1p(-v * v))
        return 2.0 * v / math.sqrt(radicand)

    v_max = math.sqrt(1.0 - u_lo / u_hi)
    val, err = quad(integrand, 0.0, v_max, epsabs=1e-12, epsrel=1e-13, limit=200)
    return u_hi * val, u_hi * err


def hit_time_quadrature(init: GeodesicInitialData) -> tuple[float | None, float]:
    """Forward boundary-arrival time from the conserved-energy quadrature
    and quad's absolute error estimate of it.

    The time is None for theta = 0 (the only launch direction with no
    forward hit).  Requires alpha > 0; for alpha <= 0 geodesics need not
    reach the boundary and the quadrature does not apply.
    """
    alpha, theta, x0 = init.alpha, init.theta, init.x0
    if alpha <= 0.0:
        raise UsageError("hit-time quadrature requires alpha > 0")
    c, s = _direction(theta)
    if s == 0.0:
        time = None if c > 0.0 else x0  # no forward hit, or the straight run (x0 - t, y0)
        err = 0.0
    else:
        s2 = s * s
        if c <= 0.0:
            legs = [_leg(alpha, 0.0, 1.0, s2)]
        else:
            u_c = abs(s) ** (-1.0 / alpha)
            legs = [_leg(alpha, 1.0, u_c, s2), _leg(alpha, 0.0, u_c, s2)]
        time = x0 * sum(val for val, _ in legs)
        err = x0 * sum(e for _, e in legs)
    return time, err


def geodesic_fan(
    alpha: float,
    n_angles: int,
    t_span: tuple[float, float] = (-10.0, 10.0),
    x0: float = 1.0,
    y0: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> list[GeodesicTrajectory]:
    """Trajectories for n_angles angles uniformly spaced in [0, 2 pi),
    ordered by theta.

    Each distinct half is solved once.  Angle theta_i = pi m / n with
    m = 2 i launches its forward half, and by time reversal its backward
    half is the forward half of m = 2 i + n (mod 2 n).  The launch 2 n - m
    is the mirror image of m (P_y negated), so m folds to
    k = min(m, 2 n - m) in [0, n]: n/2 + 1 solves per time direction for
    even n, n + 1 for odd n, shared across directions when t_span is
    symmetric.
    """
    if n_angles < 2:
        raise UsageError("a fan needs at least 2 angles")
    _check_span(t_span, tol)
    n2 = 2 * n_angles
    inits = [GeodesicInitialData(x0=x0, y0=y0, theta=2.0 * math.pi * i / n_angles, alpha=alpha)
             for i in range(n_angles)]
    solves: dict[tuple[int, float], _Half] = {}

    def half(m: int, t_end: float, t_sign: float) -> tuple[_Half, float] | None:
        if t_end <= 0.0:
            return None
        k = min(m, n2 - m)
        y_sign = -1.0 if m > n_angles else 1.0
        if (k, t_end) not in solves:
            theta = math.pi * k / n_angles
            c, s = _direction(theta)
            solves[k, t_end] = _solve_half(alpha, x0, theta, c, s * x0 ** (-alpha), t_end, tol,
                                           (y0, t_sign, y_sign))
        return solves[k, t_end], y_sign

    return [integrate_geodesic(init, t_span, tol,
                               _halves=(half(2 * i, t_span[1], 1.0),
                                        half((2 * i + n_angles) % n2, -t_span[0], -1.0)))
            for i, init in enumerate(inits)]
