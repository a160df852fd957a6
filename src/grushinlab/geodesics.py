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
in finite forward time, and energy conservation gives the hit time in
closed form.  With s = |sin theta|, u = x/x0 and its turning point
u_c = s^(-1/alpha), the time is x0 times integral du / sqrt(1 - s^2
u^(2 alpha)) over u from 1 down to 0 (cos theta <= 0), or from 1 up to
u_c and back down to 0 (cos theta > 0).  Substituting w = s^2 u^(2 alpha)
makes it an incomplete Beta function; with a = 1/(2 alpha), x_t = x0 u_c
and the fall time x_t a B(a, 1/2) from x_t to x = 0,

    t_+ = x0 2F1(a, 1/2; a + 1; s^2)                       if cos theta <= 0,
    t_+ = 2 x_t a B(a, 1/2) - x0 2F1(a, 1/2; a + 1; s^2)   if cos theta > 0.

Near the vertical (s^2 > 0.9) s^2 has lost the digits of cos^2 theta, and
scipy's hyp2f1 returns nan there once a >= 171; so there both times are
read from I_{cos^2 theta}(1/2, a), the share of the fall spent above x0:
the fall times 1 - I inward and 1 + I outward.  At alpha = 1 the inward
1 - I is the arcsine law (2/pi) acos |cos theta|.  Below alpha of about
7e-5, x_t overflows near the vertical; an inward time is then the
Laplace form of 2F1, x0 integral_0^inf e^(-u) (1 - s^2 e^(-u/a))^(-1/2) du,
finite for s^2 < 1.

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

from .errors import NumericError, UsageError

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
# widest span of a fan's reference orbit, from its floor up (alpha > 0) or
# from its turning point out (alpha < 0)
ORBIT_SPAN = 1e40


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
            raise UsageError("launch point must have x0 > 0")
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


def _solve_half(alpha, x0, theta, px0, py, t_end, tol) -> _Half:
    """Integrate the launch ``theta`` with momenta (px0, py) from t = 0 to
    t_end > 0, or to the boundary floor; a failed solve raises
    NumericError naming ``theta``.

    With P_y = 0 or alpha = 0, P_x' = 0 and the half is the straight line
    x = x0 + P_x t, y - y0 = P_y t (x^0 = 1), stopped at the floor like a
    solve.
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

    with np.errstate(over="ignore", invalid="ignore"):  # the status reports a failure
        sol = solve_ivp(_rhs, (0.0, t_end), (x0, px0, 0.0), args=(alpha, py, 1e-14),
                        method="DOP853", rtol=tol, atol=tol * 1e-2, events=event, dense_output=True)
    if sol.status == -1:
        raise NumericError(f"geodesic integration failed at theta={theta:g}: {sol.message}")
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
    when t_span[1] = 0); by default they are solved here.  A failed solve
    raises NumericError naming the launch angle of its half: theta
    forward, theta + pi backward.
    """
    _check_span(t_span, tol)
    if _halves is None:
        alpha, x0, theta = init.alpha, init.x0, init.theta
        px0, py = init.momenta
        _halves = (
            (_solve_half(alpha, x0, theta, px0, py, t_span[1], tol), 1.0)
            if t_span[1] > 0.0 else None,
            (_solve_half(alpha, x0, theta + math.pi, -px0, -py, -t_span[0], tol), 1.0)
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


def _inward_time(x0, c, s, a) -> float:
    """x0 2F1(a, 1/2; a + 1; s^2), the inward hit time, in the Laplace form
    x0 integral_0^inf e^(-u) (1 - s^2 e^(-u/a))^(-1/2) du (t = e^(-u/a) in
    Euler's integral), with 1 - s^2 e^(-u/a) = c^2 - s^2 expm1(-u/a)
    formed without cancellation.  It needs neither the turning point nor
    hyp2f1, so it holds where x_t overflows and hyp2f1 is nan (a >= 171)."""
    from scipy.integrate import quad

    value, _ = quad(lambda u: math.exp(-u) / math.sqrt(c * c - s * s * math.expm1(-u / a)),
                    0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return x0 * value


def hit_time_quadrature(init: GeodesicInitialData) -> float | None:
    """Forward boundary-arrival time in the closed form of the module
    docstring, or None for theta = 0 (the only launch direction with no
    forward hit).  Requires alpha > 0; for alpha <= 0 geodesics need not
    reach the boundary and the formula does not apply.
    """
    from scipy.special import beta, betainc, betaincc, hyp2f1

    alpha, theta, x0 = init.alpha, init.theta, init.x0
    if alpha <= 0.0:
        raise UsageError("hit-time quadrature requires alpha > 0")
    c, s = _direction(theta)
    if s == 0.0:
        return None if c > 0.0 else x0  # no forward hit, or the straight run (x0 - t, y0)
    a = 0.5 / alpha
    near_vertical = s * s > 0.9
    if not near_vertical:
        inward = x0 * float(hyp2f1(a, 0.5, a + 1.0, s * s))
        if c <= 0.0:
            return inward
    try:  # the fall from x_t to x = 0
        fall = x0 * abs(s) ** (-1.0 / alpha) * a * float(beta(a, 0.5))
    except OverflowError:
        if c <= 0.0:
            return _inward_time(x0, c, s, a)
        raise UsageError(f"theta={theta:g}: the turning point x0 |sin theta|^(-1/alpha) "
                         f"overflows a float at alpha={alpha:g}") from None
    if not near_vertical:
        return 2.0 * fall - inward
    if c > 0.0:
        return fall * (1.0 + float(betainc(0.5, a, c * c)))
    if a == 0.5:  # scipy's betaincc(1/2, 1/2, x) is off by 1e-11 at small x
        return fall * (2.0 / math.pi) * math.acos(-c)
    return fall * float(betaincc(0.5, a, c * c))


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
    """Every half of ``launches``, (key, theta, P_x, P_y, t_end, x_t,
    x_t^(1+alpha), x0 / x_t), from one solve of the reference geodesic
    (R' = P, P' = -alpha R^(2 alpha - 1), Y' = R^(2 alpha), h = 1/2).

    Dilated by x_t, R is the launch's geodesic: x = x_t R, P_x = +-P and
    y - y0 = sign(P_y) x_t^(1+alpha) (Y - Y(launch)) at the phase
    tau = +-(t - T) / x_t of each leg, written in t so that phases near
    the anchor tau = 0 keep their digits.  For alpha > 0 the anchor is the
    floor R = X_STOP / max x_t and R rises to its turning point P = 0,
    mirrored beyond it; for alpha < 0 it is the turning point R = 1, R is
    even in tau and runs out to max (x0 + t_end) / x_t.  A failed solve
    raises NumericError before any half is built.
    """
    from scipy.integrate import solve_ivp

    up = alpha > 0.0
    if up:
        r0 = X_STOP / max(launch[5] for launch in launches)
        start = (r0, math.sqrt(-math.expm1(2.0 * alpha * math.log(r0))), 0.0)
        atol = tol * 1e-2 * np.array([r0, 1.0, r0])
    else:
        r_end = max((x0 + launch[4]) / launch[5] for launch in launches)
        start, atol = (1.0, 0.0, 0.0), tol * 1e-2

    def event(tau, state, alpha, py, floor, ceiling):
        return state[1] if up else state[0] - r_end

    event.terminal = True
    event.direction = -1.0 if up else 1.0
    ceiling = 1.0 if up else math.inf  # energy conservation keeps R <= 1 for alpha > 0
    sol = solve_ivp(_rhs, (0.0, math.inf), start, args=(alpha, 1.0, start[0], ceiling),
                    method="DOP853", rtol=tol, atol=atol, events=event, dense_output=True)
    if sol.status != 1:
        raise NumericError(f"geodesic integration failed on the fan's reference orbit: "
                           f"{sol.message}")
    tau_end = sol.t[-1]
    tau_m, y_m = 0.0, 0.0  # phase and Y of the mirror, the turning point
    if up:  # one Newton step on P past the event's root finder
        r, p, _y = sol.sol(tau_end)
        tau_m = tau_end + p / (alpha * r ** (2.0 * alpha - 1.0))
        y_m = float(sol.sol(tau_m)[2])
    reference = {"nfev": sol.nfev, "anchor": "boundary" if up else "turning point",
                 "R0": start[0], "phase_end": float(tau_end)}

    px, x_t, u0 = (np.array([launch[i] for launch in launches]) for i in (2, 5, 7))
    on_p = np.abs(px) < abs(alpha) * (1.0 - px * px)  # where |P'| = |alpha| R^(2 alpha - 1) > P / R
    phases = _phases(sol, alpha, np.concatenate([on_p, np.zeros_like(on_p)]).astype(int),
                     np.concatenate([np.where(on_p, np.abs(px), u0), X_STOP / x_t]))
    parts = []
    for (_, _, c, _, t_end, xt, _, _), tau0, tau_f in zip(
            launches, phases[:len(launches)], phases[len(launches):]):
        d = 1.0 if c > 0.0 or (c == 0.0 and not up) else -1.0
        tau0 = tau_m if c == 0.0 else tau0
        t1 = -d * xt * tau0  # phase d (t - t1) / x_t, exact in t, to the turning point at t_r
        t_r = t1 + d * xt * tau_m if d * alpha > 0.0 else math.inf
        t2 = t_r + d * xt * tau_m  # then -d (t - t2) / x_t
        # the floor, on the leg that falls toward the anchor
        t_hit = math.inf if not up and (d > 0.0 or X_STOP / xt <= 1.0) else (
            (t1 if d < 0.0 else t2) - xt * tau_f)
        t = np.linspace(0.0, min(t_hit, t_end), SAMPLES_EACH_WAY)
        first = t <= t_r
        parts.append((np.where(first, d * (t - t1), d * (t2 - t)) / xt, t, t_hit <= t_end,
                      np.where(first, d, -d), np.where(first, 0.0, 2.0 * d * y_m), tau0))
    r, p, y = sol.sol(np.concatenate([part[0] for part in parts])).reshape(3, len(parts), -1)
    halves = {}
    for i, ((key, theta, c, py, t_end, xt, scale, _), (_, t, hits, sign, offset, tau0)) in \
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
    uses = []  # (launch class, y - y0 sign) of each half, or None outside the span
    for i in range(n_angles):
        for m, t_end in ((2 * i, t_span[1]), ((2 * i + n_angles) % n2, -t_span[0])):
            uses.append(((min(m, n2 - m), t_end), -1.0 if m > n_angles else 1.0)
                        if t_end > 0.0 else None)
    halves, orbit = {}, []
    for key in dict.fromkeys(use[0] for use in uses if use is not None):
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
        # more than ORBIT_SPAN, down to the floor X_STOP / x_t for alpha > 0
        # or out to (x0 + t_end) / x_t for alpha < 0.  Every decade costs
        # the reference DOP853 steps (about 20 for small alpha > 0), so in a
        # 16-angle fan at small |alpha| the decades past 40 cost more than
        # direct solves of the launches beyond; and past spans of
        # 1e140-1e200 DOP853's squared error estimates overflow.
        span = dilation[0] / X_STOP if alpha > 0.0 else (x0 + key[1]) / dilation[0]
        if (x0 > X_STOP and span <= ORBIT_SPAN
                and all(math.isfinite(v) and v >= sys.float_info.min for v in dilation)):
            orbit.append((key, theta, px, py, key[1], *dilation, u0))
        else:
            halves[key] = _solve_half(alpha, x0, theta, px, py, key[1], tol)
    if orbit:
        halves.update(_orbit_halves(alpha, x0, orbit, tol))

    def half(use):
        return None if use is None else (halves[use[0]], use[1])

    return [integrate_geodesic(init, t_span, tol,
                               _halves=(half(uses[2 * i]), half(uses[2 * i + 1])))
            for i, init in enumerate(inits)]
