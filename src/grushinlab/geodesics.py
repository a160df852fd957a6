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
there for alpha < 1/2.  A launch with P_y = 0, and every launch at
alpha = 0, is the straight line x = x0 + P_x t and needs no solve.

A fan solves one ODE.  The metric is homogeneous under the dilation
(x, y) -> (lambda x, lambda^(1+alpha) y), so every launch with P_y != 0
is the reference geodesic R through the turning point R = 1 (P = 0,
P_y = 1), dilated by its own turning point x_t = x0 s^(-1/alpha) and
entered at its own phase (``_orbit_halves``).
"""

from __future__ import annotations

import math
import sys
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
    """Launch point, angle and power-law exponent of one geodesic; a
    launch whose ``momenta`` or P_y^2 overflow a float is a usage error."""

    x0: float
    y0: float
    theta: float
    alpha: float

    def __post_init__(self):
        if not (self.x0 > 0.0 and math.isfinite(self.x0)):
            raise DomainError("launch point must have x0 > 0")
        if not all(map(math.isfinite, (self.y0, self.theta, self.alpha))):
            raise UsageError("y0, theta and alpha must be finite")
        try:
            py = self.momenta[1]
        except OverflowError:
            raise UsageError(f"x0^(-alpha) = {self.x0:g}^{-self.alpha:g} overflows a float: "
                             "the launch has no finite P_y") from None
        if not math.isfinite(py * py):
            raise UsageError(f"P_y^2 = {py:g}^2 overflows a float: the launch at x0={self.x0:g} "
                             f"with alpha={self.alpha:g} and theta={self.theta:g} has no "
                             "finite energy")

    @property
    def momenta(self) -> tuple[float, float]:
        """(P_x, P_y) induced by the frame-normalised launch direction."""
        c, s = _direction(self.theta)
        return c, s * self.x0 ** (-self.alpha)


@dataclass(frozen=True)
class GeodesicTrajectory:
    """One geodesic: its launch and the two halves it is made of.

    ``forward`` and ``backward`` are (half, y-mirror sign s) pairs, or
    None for a half outside the integration span; a fan shares one half
    between several trajectories.  The samples t, x, y and P_x are
    assembled when read, ordered by t and restricted to x > 0: the
    backward half time-reversed without its t = 0 sample,
    (-t, x, y0 + s dy, -P_x), then the forward half, (t, x, y0 + s dy,
    P_x).  ``hit_time_plus`` (``hit_time_minus``) is the forward
    (backward) boundary arrival time, or None if the boundary is not
    reached inside the span; ``energy_drift`` is max |h - 1/2| over the
    samples of both halves.
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


def _rhs(t, state, alpha, py, floor, ceiling=math.inf):
    x, px, _dy = state
    # Trial stages of the integrator may overshoot the solution's range;
    # clamp so fractional powers of a negative x never appear, and so that
    # x^(2 alpha) never passes a bound the solution keeps.
    xg = min(x if x > floor else floor, ceiling)
    x2a = xg ** (2.0 * alpha)
    return (px, -alpha * (x2a / xg) * py * py, x2a * py)


def _drift(alpha, x, px, py) -> float:
    """max |h - 1/2| over samples; x^(2 alpha) is not formed when P_y = 0."""
    potential = x ** (2.0 * alpha) * py * py if py else 0.0
    return float(np.max(np.abs(0.5 * (px * px + potential) - 0.5)))


def _fail(message, frame, t, x, px, dy):
    """IntegrationError at time t and state (x, P_x, y - y0) of a forward
    solve, placed by ``frame`` = (y0, time sign, y - y0 sign) in the
    geodesic half that asked for it."""
    y0, t_sign, y_sign = frame
    raise IntegrationError(f"geodesic integration failed: {message}", last_time=t_sign * t,
                           last_state=np.array([x, t_sign * px, y0 + y_sign * dy]))


@dataclass(frozen=True)
class _Half:
    """SAMPLES_EACH_WAY samples of one forward-time half from t = 0:
    rows x, P_x and y - y0.  The launch is the angle ``theta`` with
    momenta (``px``, ``py``), followed to ``t_end``; ``hit`` is the
    boundary arrival time (or None), ``drift`` max |h - 1/2| over the
    samples.  ``source`` is where the samples came from: "line", a direct
    solve {"nfev"}, or the dilation {"x_t", "phase"} of the ``reference``
    orbit; ``nfev`` counts the right-hand-side calls of that solve.  The
    same half launched with -P_y has y - y0 negated and nothing else
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
    source: str | dict
    reference: dict | None = field(default=None, repr=False)


def _solve_half(alpha, x0, theta, px0, py, t_end, tol, frame) -> _Half:
    """Integrate the launch ``theta`` with momenta (px0, py) from t = 0 to
    t_end > 0, or to the boundary floor.

    With P_y = 0 or alpha = 0, P_x' = 0 and the half is the straight line
    x = x0 + P_x t, y - y0 = P_y t (x^0 = 1), stopped at the floor like a
    solve.  ``frame`` = (y0, time sign, y - y0 sign) places the solve in
    the geodesic half that asked for it; it is used only to report a
    failure at the time and state (x, P_x, y) that geodesic reached.
    """
    if py == 0.0 or alpha == 0.0:
        t_stop, hit = t_end, None
        if px0 < 0.0 and X_STOP < x0 and x0 - X_STOP <= -px0 * t_end:
            t_stop = (x0 - X_STOP) / -px0
            hit = t_stop + X_STOP / -px0
        t = np.linspace(0.0, t_stop, SAMPLES_EACH_WAY)
        state = np.array([x0 + px0 * t, np.full_like(t, px0), py * t])
        return _Half(theta, px0, py, t_end, t, state, hit, 0, _drift(alpha, state[0], px0, py),
                     "line")
    from scipy.integrate import solve_ivp

    def event(t, state, alpha, py, floor):
        return state[0] - X_STOP

    event.terminal = True
    event.direction = -1

    sol = solve_ivp(_rhs, (0.0, t_end), (x0, px0, 0.0), args=(alpha, py, 1e-14), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, events=event, dense_output=True)
    if sol.status == -1:
        _fail(sol.message, frame, sol.t[-1], *sol.y[:, -1])
    hit = None
    if sol.t_events[0].size:
        t_event = float(sol.t_events[0][0])
        x_e, px_e, _ = sol.y_events[0][0]
        # Remaining travel below the floor at essentially constant P_x.
        hit = t_event + x_e / max(abs(px_e), 1e-15)
    t = np.linspace(0.0, sol.t[-1], SAMPLES_EACH_WAY)
    state = sol.sol(t)
    return _Half(theta, px0, py, t_end, t, state, hit, sol.nfev,
                 _drift(alpha, state[0], state[1], py), {"nfev": sol.nfev})


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

    Both halves run forward in time.  By time reversal, the backward
    half of the launch (P_x, P_y) is the forward half of (-P_x, -P_y)
    with t and P_x negated.  ``geodesic_fan`` passes these two halves in
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
            try:
                u_c = abs(s) ** (-1.0 / alpha)
            except OverflowError:
                raise UsageError(f"theta={theta:g}: the turning point x0 |sin theta|^(-1/alpha) "
                                 f"overflows a float at alpha={alpha:g}") from None
            legs = [_leg(alpha, 1.0, u_c, s2), _leg(alpha, 0.0, u_c, s2)]
        time = x0 * sum(val for val, _ in legs)
        err = x0 * sum(e for _, e in legs)
    return time, err


def _phases(sol, alpha, rows, targets):
    """Phases at which R (row 0) or P (row 1) of the reference equals
    ``targets``: Newton's method from the solve's steps, on which R rises
    and P is monotone."""
    tau = np.empty(targets.size)
    for row in (0, 1):
        order = np.argsort(sol.y[row])
        tau[rows == row] = np.interp(targets[rows == row], sol.y[row][order], sol.t[order])
    for _ in range(16):
        r, p, _y = sol.sol(tau)
        slope = np.where(rows == 0, p, -alpha * r ** (2.0 * alpha - 1.0))
        step = np.divide(np.where(rows == 0, r, p) - targets, slope,
                         out=np.zeros_like(tau), where=slope != 0.0)
        tau = np.clip(tau - step, 0.0, sol.t[-1])
        if np.all(np.abs(step) <= 4e-16 * tau):
            break
    return tau


def _orbit_halves(alpha, x0, launches, tol) -> dict:
    """Every half of ``launches``, (key, frame, theta, P_x, P_y, t_end, x_t,
    x_t^(1+alpha), x0 / x_t), from one solve of the reference geodesic
    (R' = P, P' = -alpha R^(2 alpha - 1), Y' = R^(2 alpha), h = 1/2).

    Dilated by x_t, R is the launch's geodesic: x = x_t R, P_x = +-P and
    y - y0 = sign(P_y) x_t^(1+alpha) (Y - Y(launch)) at the phase
    tau = +-(t - T) / x_t of each leg, written in t so that phases near
    the anchor tau = 0 keep their digits.  For alpha > 0 the anchor is the
    floor R = X_STOP / max x_t and R rises to its turning point P = 0,
    mirrored beyond it; for alpha < 0 it is the turning point R = 1, R is
    even in tau and runs out to max (x0 + t_end) / x_t.  A failed solve
    fails the first launch in angle order whose half needs a phase it did
    not reach, at the time and state it reaches there.
    """
    from scipy.integrate import solve_ivp

    up = alpha > 0.0
    if up:
        r0 = X_STOP / max(launch[6] for launch in launches)
        start = (r0, math.sqrt(-math.expm1(2.0 * alpha * math.log(r0))), 0.0)
        atol = tol * 1e-2 * np.array([r0, 1.0, r0])
    else:
        r_end = max((x0 + launch[5]) / launch[6] for launch in launches)
        start, atol = (1.0, 0.0, 0.0), tol * 1e-2

    def event(tau, state, alpha, py, floor, ceiling):
        return state[1] if up else state[0] - r_end

    event.terminal = True
    event.direction = -1.0 if up else 1.0
    ceiling = 1.0 if up else math.inf  # energy conservation keeps R <= 1 for alpha > 0
    sol = solve_ivp(_rhs, (0.0, math.inf), start, args=(alpha, 1.0, start[0], ceiling),
                    method="DOP853", rtol=tol, atol=atol, events=event, dense_output=True)
    failed, tau_end = sol.status != 1, sol.t[-1]
    tau_m, y_m = (math.inf if up else 0.0), 0.0  # phase and Y of the mirror, the turning point
    if up and not failed:  # one Newton step on P past the event's root finder
        r, p, _y = sol.sol(tau_end)
        tau_m = tau_end + p / (alpha * r ** (2.0 * alpha - 1.0))
        y_m = float(sol.sol(tau_m)[2])
    reference = {"nfev": sol.nfev, "anchor": "boundary" if up else "turning point",
                 "R0": start[0], "phase_end": float(tau_end)}

    px, x_t, u0 = (np.array([launch[i] for launch in launches]) for i in (3, 6, 8))
    on_p = np.abs(px) < abs(alpha) * (1.0 - px * px)  # where |P'| = |alpha| R^(2 alpha - 1) > P / R
    phases = _phases(sol, alpha, np.concatenate([on_p, np.zeros_like(on_p)]).astype(int),
                     np.concatenate([np.where(on_p, np.abs(px), u0), X_STOP / x_t]))
    parts = []
    for (key, frame, theta, c, py, t_end, xt, scale, u), tau0, tau_f in zip(
            launches, phases[:len(launches)], phases[len(launches):]):
        if failed and u > sol.y[0, -1]:  # the launch lies beyond the phases reached
            _fail(sol.message, frame, 0.0, x0, c, 0.0)
        d = 1.0 if c > 0.0 or (c == 0.0 and not up) else -1.0
        tau0 = tau_m if c == 0.0 else tau0
        t1 = -d * xt * tau0  # phase d (t - t1) / x_t, exact in t, to the turning point at t_r
        t_r = t1 + d * xt * tau_m if d * alpha > 0.0 else math.inf
        t2 = t_r + d * xt * tau_m  # then -d (t - t2) / x_t
        # the floor, on the leg that falls toward the anchor
        t_hit = math.inf if not up and (d > 0.0 or X_STOP / xt <= 1.0) else (
            (t1 if d < 0.0 else t2) - xt * tau_f)
        t = np.linspace(0.0, min(t_hit, t_end), SAMPLES_EACH_WAY)
        t_cross = (t1 if d > 0.0 else t2 if not up else math.inf) + xt * tau_end
        if failed and t_cross < t[-1]:
            (r, p, y), y_0 = sol.sol(tau_end), float(sol.sol(tau0)[2])
            _fail(sol.message, frame, t_cross, xt * r, p, math.copysign(scale, py) * (y - d * y_0))
        first = t <= t_r
        parts.append((np.where(first, d * (t - t1), d * (t2 - t)) / xt, t, t_hit <= t_end,
                      np.where(first, d, -d), np.where(first, 0.0, 2.0 * d * y_m), tau0))
    r, p, y = sol.sol(np.concatenate([part[0] for part in parts])).reshape(3, len(parts), -1)
    halves = {}
    for i, ((key, _, theta, c, py, t_end, xt, scale, _), (_, t, hits, sign, offset, tau0)) in \
            enumerate(zip(launches, parts)):
        y_unfolded = sign * y[i] + offset
        state = np.array([xt * r[i], sign * p[i],
                          math.copysign(scale, py) * (y_unfolded - y_unfolded[0])])
        hit = t[-1] + state[0, -1] / max(abs(state[1, -1]), 1e-15) if hits else None
        halves[key] = _Half(theta, c, py, t_end, t, state, hit, sol.nfev,
                            _drift(alpha, state[0], state[1], py),
                            {"x_t": xt, "phase": float(tau0)}, reference)
    return halves


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

    Each distinct half is computed once.  Angle theta_i = pi m / n with
    m = 2 i launches its forward half, and by time reversal its backward
    half is the forward half of m = 2 i + n (mod 2 n).  The launch 2 n - m
    is the mirror image of m (P_y negated), so m folds to the launch class
    k = min(m, 2 n - m) in [0, n].  Every class with P_y != 0 whose
    dilation is a float comes from one reference orbit
    (``_orbit_halves``); the others are lines or direct solves
    (``_solve_half``).
    """
    if n_angles < 2:
        raise UsageError("a fan needs at least 2 angles")
    _check_span(t_span, tol)
    n2 = 2 * n_angles
    # pi (k / n), not (pi k) / n, so that the axis angles are exact and
    # their P_x or P_y exactly 0 (see _direction)
    inits = [GeodesicInitialData(x0=x0, y0=y0, theta=2.0 * math.pi * (i / n_angles), alpha=alpha)
             for i in range(n_angles)]
    frames: dict[tuple[int, float], tuple] = {}  # launch class -> frame of its first use
    uses = []
    for i in range(n_angles):
        for m, t_end, t_sign in ((2 * i, t_span[1], 1.0),
                                 ((2 * i + n_angles) % n2, -t_span[0], -1.0)):
            y_sign = -1.0 if m > n_angles else 1.0
            key = (min(m, n2 - m), t_end)
            if t_end > 0.0:
                frames.setdefault(key, (y0, t_sign, y_sign))
            uses.append((key, y_sign) if t_end > 0.0 else None)
    halves, orbit = {}, []
    for key, frame in frames.items():
        theta = math.pi * (key[0] / n_angles)
        px, py = GeodesicInitialData(x0=x0, y0=y0, theta=theta, alpha=alpha).momenta
        try:  # the dilation; a line, sin theta = 0 or alpha = 0, has none
            u0 = _direction(theta)[1] ** (1.0 / alpha)
            x_t = x0 / u0
            dilation = (x_t, x_t ** (1.0 + alpha))
        except (OverflowError, ZeroDivisionError):
            dilation = (math.inf,)
        # Solved directly: lines, dilations that are no finite normal
        # doubles, launches below the floor, and references that would span
        # more than 1e100, down to the floor X_STOP / x_t for alpha > 0 or
        # out to (x0 + t_end) / x_t for alpha < 0: DOP853 squares its error
        # estimates, which overflow or underflow past spans of 1e140-1e200.
        if (x0 > X_STOP and X_STOP / dilation[0] >= 1e-100 and (x0 + key[1]) / dilation[0] <= 1e100
                and all(math.isfinite(v) and v >= sys.float_info.min for v in dilation)):
            orbit.append((key, frame, theta, px, py, key[1], *dilation, u0))
        else:
            halves[key] = _solve_half(alpha, x0, theta, px, py, key[1], tol, frame)
    if orbit:
        halves.update(_orbit_halves(alpha, x0, orbit, tol))

    def half(use):
        return None if use is None else (halves[use[0]], use[1])

    return [integrate_geodesic(init, t_span, tol,
                               _halves=(half(uses[2 * i]), half(uses[2 * i + 1])))
            for i, init in enumerate(inits)]
