"""Endpoint classification of the fibre operators and the global verdict.

Each Fourier fibre of the transformed Laplace-Beltrami operator is the
half-line Schroedinger operator

    A(xi) = -d^2/dx^2 + W_xi(x),
    W_xi(x) = xi^2 / f^2 + (2 f f'' - f'^2) / (4 f^2),

acting in L^2((0, inf), dx).  Because W_xi is continuous and bounded
below near infinity, A(xi) is always in the limit-point case at the
right endpoint; essential self-adjointness of the fibre is therefore
decided at x = 0 alone.  With c0 = lim_{x->0} x^2 W_xi(x), Weyl theory
gives

    limit point at 0   iff  c0 >= 3/4,

the familiar threshold of the inverse-square potential: the local
solutions behave like x^s with s(s-1) = c0, and both are square
integrable near 0 exactly when c0 < 3/4.

For the power law f(x) = x^(-alpha),

    x^2 W_xi = alpha(2+alpha)/4 + xi^2 x^(2 alpha + 2),

so c0 follows a three-branch rule in alpha:

    alpha > -1 :  c0 = alpha(2+alpha)/4                (xi drops out)
    alpha = -1 :  c0 = xi^2 - 1/4
    alpha < -1 :  c0 = +inf for xi != 0 (limit point), else alpha(2+alpha)/4.

Consequences, fibre by fibre: every fibre is limit point iff alpha >= 1;
for alpha = -1 the fibres with |xi| >= 1 are limit point; for alpha < -1
only xi = 0 can fail, and it does exactly when alpha > -3.  Aggregating
over the fibres yields the half-plane verdict (failure on a set of xi of
positive measure) and the half-cylinder verdict (failure of any integer
mode), which differ precisely on alpha in (-3, -1).  The two geometries
share the fibre operators A(xi); only the index set (xi real, or k
integer) and the aggregation rule differ, so a fibre report carries no
geometry and ``aggregate_verdict`` takes it.

Three classification routes are implemented and cross-checked:

* ``classify_power_law``: the closed-form rule above.
* ``classify_by_inequality``: the grid-sampled global criterion
  2 f f'' - f'^2 >= 3 f^2 / x^2 (confining) versus <= (3 - eps) f^2/x^2
  (non-confining); these are not exhaustive for general f.
* ``classify_numeric``: estimates c0 = lim x^2 W by sampling, and
  independently integrates the deficiency equation -u'' + W u = i u
  inward, measuring the dominant local growth exponent s of the
  solutions through half-decade amplitude ratios; limit point iff the
  dominant solution is not square integrable (s <= -1/2).  The two
  sub-routes must agree or the classification is declared inconclusive.

Both ODE routes solve in t = ln x for z = (u, x u'), with dz/dt = B z,
B = [[0, 1], [a, 1]] and a = x^2 (W - i): a Frobenius solution x^s is
e^(st), so the singular end costs a few steps per decade.  The
classification takes fourth-order Magnus steps (W. Magnus, CPAM 7, 1954;
A. Iserles and S. P. Norsett, Phil. Trans. A 357, 1999), a closed-form
2x2 exponential per step that is exact wherever a is constant, so growth
such as e^(1/(2x)) is the exponential's own; a log scale per column
carries it, and a shadow at twice the step bounds each slope's error.
The deficiency family steps z with DOP853.

When a fibre is limit circle, ker(A(xi)* - i) is one-dimensional;
``verify_deficiency_family`` builds the normalised solutions phi_xi over
a compact interval J of fibres, checks the eigenvalue residual on a
fixed observation grid and the norm, a row of the solve, against
Simpson's rule, and confirms that families over disjoint intervals are
orthogonal, which is the mechanism producing an infinite
deficiency index for the full operator.  Each phi_xi is seeded on its
decaying WKB branch beyond a decay budget B = 1/2 ln 1e15, since the
growing solution's share of the seed falls like e^(-2B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import InconclusiveClassification, NumericError, UsageError
from .profiles import FibrePotential, GrushinProfile, check_assumptions

__all__ = [
    "Endpoint",
    "Method",
    "Mode",
    "SAVerdict",
    "TotalDeficiency",
    "InequalityVerdict",
    "WeylReport",
    "SelfAdjointnessVerdict",
    "DeficiencyFamilyReport",
    "critical_coefficient",
    "classify_power_law",
    "classify_by_inequality",
    "classify_numeric",
    "classify_sweep",
    "aggregate_verdict",
    "verify_deficiency_family",
]


class Endpoint(Enum):
    LIMIT_POINT = "limit_point"
    LIMIT_CIRCLE = "limit_circle"


class Method(Enum):
    ANALYTIC_POWER_LAW = "analytic_power_law"
    NUMERIC_ODE = "numeric_ode"


class Mode(Enum):
    PLANE = "plane"
    CYLINDER = "cylinder"


class SAVerdict(Enum):
    ESSENTIALLY_SELF_ADJOINT = "essentially_self_adjoint"
    NOT_ESSENTIALLY_SELF_ADJOINT = "not_essentially_self_adjoint"


class TotalDeficiency(Enum):
    ZERO = "zero"
    FINITE = "finite"
    INFINITE = "infinite"


class InequalityVerdict(Enum):
    """Outcome of :func:`classify_by_inequality`; ``SKIPPED`` when the
    profile fails an admissibility condition and nothing is compared."""

    CONFINEMENT_CONDITION = "confinement_condition"
    NO_CONFINEMENT_CONDITION = "no_confinement_condition"
    INCONCLUSIVE = "inconclusive"
    SKIPPED = "skipped"


# Limit point at zero iff the inverse-square coefficient reaches 3/4.
CRITICAL_COEFFICIENT = 0.75
# Indicial exponent below which x^s fails square integrability near 0.
CRITICAL_EXPONENT = -0.5
SLOPE_TOL = 0.02
C0_FIT_TOL = 1e-9
# the numeric route fits c0 on samples from 1e-2 down to X_END and
# integrates the deficiency equation inward from X_START to X_END
X_START = 1.0
X_END = 1e-7


@dataclass(frozen=True)
class WeylReport:
    """Endpoint classification and deficiency index of a single fibre."""

    xi: float
    endpoint_zero: Endpoint
    method: Method
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def endpoint_infinity(self) -> Endpoint:
        """Always limit point: W_xi is bounded below near infinity."""
        return Endpoint.LIMIT_POINT

    @property
    def deficiency(self) -> int:
        """1 exactly when the left endpoint is limit circle."""
        return 1 if self.endpoint_zero is Endpoint.LIMIT_CIRCLE else 0


@dataclass(frozen=True)
class SelfAdjointnessVerdict:
    """Aggregate of per-fibre reports over a xi grid or mode range."""

    verdict: SAVerdict
    mode: Mode
    failing_fibres: str
    failing_values: tuple[float, ...]
    total_deficiency: TotalDeficiency
    grid: dict = field(default_factory=dict, compare=False)
    caveat: str = ""

    @property
    def essentially_self_adjoint(self) -> bool:
        return self.verdict is SAVerdict.ESSENTIALLY_SELF_ADJOINT


def critical_coefficient(alpha: float, xi: float) -> float:
    """c0 = lim_{x->0} x^2 W_xi(x) for the power law; +inf means the
    potential beats every inverse-square profile near zero."""
    base = alpha * (2.0 + alpha) / 4.0
    if alpha > -1.0:
        return base
    if alpha == -1.0:
        return xi * xi + base
    return math.inf if xi != 0.0 else base


def classify_power_law(alpha: float, xi: float) -> WeylReport:
    """Closed-form fibre classification for f(x) = x^(-alpha).

    Any real alpha and xi are accepted.  The borderline c0 = 3/4
    (alpha = 1, or alpha = -1 with |xi| = 1) is limit point: the second
    local solution x^(-1/2) just fails square integrability.
    """
    c0 = critical_coefficient(float(alpha), float(xi))
    return WeylReport(
        xi=float(xi),
        endpoint_zero=Endpoint.LIMIT_POINT if c0 >= CRITICAL_COEFFICIENT else Endpoint.LIMIT_CIRCLE,
        method=Method.ANALYTIC_POWER_LAW,
        diagnostics={"c0": c0, "alpha": float(alpha)},
    )


def classify_by_inequality(profile: GrushinProfile, grid: Sequence[float] | np.ndarray):
    """Test the global confinement inequalities on a sampled grid.

    Returns ``(verdict, info)`` where ``verdict`` is an
    :class:`InequalityVerdict` and ``info`` carries the best grid
    estimate of eps for the non-confining case.  In normalised form the
    two conditions compare q(x) = x^2 (2 f f'' - f'^2) / f^2 against 3:
    q >= 3 everywhere is confining, sup q < 3 is non-confining with
    eps = 3 - sup q, anything else is inconclusive (the conditions are
    not exhaustive).  A profile that fails an admissibility condition of
    :func:`check_assumptions` is ``SKIPPED``, with ``{"violations": ...}``
    as ``info``; scale invariance f -> lambda f holds because q does.
    """
    grid, violations = check_assumptions(profile, grid)
    if grid.size < 200:
        raise UsageError("inequality classification needs >= 200 grid points "
                         "above the profile's float floor")
    if violations:
        return InequalityVerdict.SKIPPED, {"violations": violations}
    # q = 4 x^2 * base_potential; base_potential = (2ff''-f'^2)/(4f^2)
    q = 4.0 * grid * grid * np.asarray(profile.base_potential(grid), dtype=float)
    slack = 1e-12 * np.maximum(np.abs(q), 3.0)
    info = {
        "q_min": float(np.min(q)),
        "q_max": float(np.max(q)),
        "grid_points": int(grid.size),
        "x_min": float(grid.min()),
        "x_max": float(grid.max()),
    }
    if np.all(q >= 3.0 - slack):
        return InequalityVerdict.CONFINEMENT_CONDITION, info
    if np.all(q <= 3.0 - slack):
        info["epsilon"] = 3.0 - info["q_max"]
        return InequalityVerdict.NO_CONFINEMENT_CONDITION, info
    return InequalityVerdict.INCONCLUSIVE, info


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------

def _fit_c0(pot: FibrePotential):
    """Estimate c0 = lim x^2 W(x) on decreasing log-spaced samples."""
    x = np.geomspace(1e-2, X_END, 26)
    v = x * x * np.asarray(pot(x), dtype=float)
    tail_err = abs(v[-1] - v[-2]) + abs(v[-2] - v[-3])
    diverging = bool(v[-1] > max(1e3, 10.0 * abs(v[0])) and v[-1] > v[-2] > v[-3])
    c0 = math.inf if diverging else float(v[-1])
    return c0, float(tail_err)


def _squares(xi) -> np.ndarray:
    # xi**2 as FibrePotential computes it, so a batch of one fibre is
    # bit-identical to that fibre's scalar potential
    return np.array([float(v) ** 2 for v in np.atleast_1d(xi)])


def _deficiency_rhs(t, z, profile, xi2):
    """-u'' + W u = i u in t = ln x for every column at once, W = base +
    xi^2 / f^2.  ``z`` stacks the columns' u, x u' and N in three complex
    rows, d/dt (u, x u', N) = (x u', x^2 (W - i) u + x u', -x |u|^2): a
    Frobenius solution x^s is e^(st), and N is the mass on (x, start)."""
    u, v, _ = z.reshape(3, -1)
    x = math.exp(t)
    x2 = x * x
    # x^2 (W - i), with the scalar parts folded before the one array product
    a = (x2 * profile.inv_f_squared(x)) * xi2 + complex(x2 * profile.base_potential(x), -x2)
    return np.concatenate((v, a * u + v, -x * (u.real ** 2 + u.imag ** 2)))


def _first_step(k, x):
    # a step in t = ln x at x that resolves the fastest WKB rate |k|
    return min(0.1, 1.0 / float(np.abs(k).max(initial=1.0))) / x


def _batch_tolerances(rtol, atol, n):
    """scipy's error norm is an RMS over the whole state: dividing the
    tolerances by sqrt(n) bounds each of the n columns' RMS error by the
    bound a solve of that column alone would meet."""
    root = math.sqrt(n)
    return rtol / root, atol / root


# the magnitude guard fires when log m^2 grows by this within a block
_GUARD_LOG_M2 = 200.0
# Gauss-Legendre nodes of a step, as fractions of it
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# a fibre's steps in a block resolve its rate, |h| |sqrt(1/4 + a)| <=
# _STEP_RATE, in a power of two from _MIN_STEPS to _MAX_STEPS, and are
# formed _CHUNK at a time; a fibre at the cap passes the guard at once
_STEP_RATE, _MIN_STEPS, _MAX_STEPS, _CHUNK = 0.5, 16, 1024, 64
# bound on a fibre's step-doubling slope error, fixed before measuring
SLOPE_ERROR_TOL = 1e-6
# the largest |a| a step takes: a1 + a2 is the largest number it forms
_COEFFICIENT_MAX = float(np.finfo(float).max) / 4.0


def _coefficients(profile, x):
    """q = x^2 (base - i) and w = x^2 / f^2 at the abscissae ``x``: every
    fibre's a = x^2 (W - i) is q + xi^2 w."""
    x2 = x * x
    return x2 * profile.base_potential(x) - 1j * x2, x2 * profile.inv_f_squared(x)


def _magnus_steps(a1, a2, h):
    """Fourth-order Magnus steps of z' = B z, B = [[0, 1], [a, 1]], from a
    at each step's two Gauss points: exp(Omega), Omega = h/2 (B1 + B2) +
    (sqrt(3)/12) h^2 [B2, B1] = h/2 I + N, [B2, B1] = (a1 - a2) [[1, 0],
    [1, -1]].  N^2 = delta^2 I, so exp(Omega) = e^(h/2 + delta) E with E =
    (1 + e^(-2 delta))/2 I + (1 - e^(-2 delta))/(2 delta) N, Re delta >= 0.
    Returns E's entries and the log scale h/2 + Re delta; the phase of
    e^delta is common to both columns and dropped, and no h^2 a^2 is formed."""
    am = 0.5 * (a1 + a2)
    c = (math.sqrt(3.0) / 12.0 * h * h) * (a1 - a2)
    b = (h * h) * (0.25 + am)
    # delta = sqrt(c^2 + b), with c and sqrt|b| scaled to at most 1
    s = np.maximum(np.abs(c), np.sqrt(np.abs(b)))
    r = c / s
    delta = s * np.sqrt(r * r + b / s / s)
    em1 = np.expm1(-2.0 * delta)
    even, odd, d = 1.0 + 0.5 * em1, em1 / (-2.0 * delta), c - 0.5 * h
    return (even + odd * d, odd * h, odd * (h * am + c), even - odd * d), 0.5 * h + delta.real


def _amplitude_slopes(profile: GrushinProfile, xi):
    """Growth exponents of the deficiency solutions of every fibre ``xi``.

    Steps both canonical initial conditions z = (u, x u') of every fibre
    from X_START to X_END with :func:`_magnus_steps`, each column
    renormalised after every step and its growth kept as a log, and reads
    the growth rate of log m, m^2 = |u|^2 + |x u'|^2, over each half-decade
    block.  A fibre's step count in a block is set by its own coefficient,
    and fibres with equal counts are stepped together, so a swept fibre is
    bit-identical to the fibre alone.  Growth by e^100 within a block stops
    the fibre at the end of that step.  Returns one (the last block's slope
    of each initial condition, early_limit_point, slope_error, work) tuple
    per fibre: the slopes' largest change at twice the step (None for a
    stopped fibre), and the sweep's group steps, shadow included, and
    potential evaluations.  A coefficient past _COEFFICIENT_MAX, a
    non-finite growth or a slope error above SLOPE_ERROR_TOL raises
    :class:`NumericError` naming its fibre.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xi2 = _squares(xi)
    # 1/f^2 of a power law with alpha < 0 is largest at X_END
    try:
        profile.inv_f_squared(X_END)
    except OverflowError:
        raise UsageError(f"the potential overflows a float at x={X_END:g}") from None
    n_blocks = int(math.ceil(2.0 * math.log10(X_START / X_END)))
    edges = np.linspace(math.log(X_START), math.log(X_END), n_blocks + 1)
    q, w = _coefficients(profile, np.exp(edges))
    work = {"steps": 0, "potential_evals": edges.size}
    # |sqrt(1/4 + a)| <= sqrt|1/4 + q| + |xi| sqrt(w), with no xi^2 w
    # formed, at a block's larger edge; a NaN rate takes the cap
    rate = np.sqrt(np.abs(0.25 + q))[:, None] + np.sqrt(w)[:, None] * np.sqrt(xi2)
    need = np.maximum(rate[:-1], rate[1:]) * (abs(edges[1] - edges[0]) / _STEP_RATE / _MIN_STEPS)
    doublings = np.fmin(np.ceil(np.log2(np.maximum(need, 1.0))), math.log2(_MAX_STEPS / _MIN_STEPS))
    counts = _MIN_STEPS << doublings.astype(int)

    def block(k, n, own, state, guarded):
        # Step state[:, :, own] across block k in n steps, in place; the
        # slopes of log m over the block or, if ``guarded``, up to the end of
        # the step whose growth of log m^2 passes the guard, and who stopped.
        h = (edges[k + 1] - edges[k]) / n
        slope, grown = np.empty((2, own.size)), np.zeros((2, own.size))
        stop, run = np.zeros(own.size, dtype=bool), np.arange(own.size)
        for j0 in range(0, n, _CHUNK):
            j, t0 = np.arange(j0, min(n, j0 + _CHUNK)), edges[k] + j0 * h
            q, w = _coefficients(profile, np.exp(edges[k] + (j[:, None] + _GAUSS) * h))
            work["steps"] += j.size
            work["potential_evals"] += q.size
            fibres = own[run]
            big = fibres[xi2[fibres].argmax()]
            if float(xi2[big]) * float(w.max()) > _COEFFICIENT_MAX:
                raise NumericError(f"classification of the fibre xi={xi[big]:g}: x^2 (W - i) "
                                   f"passes {_COEFFICIENT_MAX:.3g} near x={math.exp(t0):g}")
            a = q[..., None] + w[..., None] * xi2[fibres]
            entries, scale = _magnus_steps(a[:, 0], a[:, 1], h)
            # both columns of every fibre as one row, (u, x u') renormalised
            u, v = state[:, :, fibres].reshape(2, -1)
            m = np.empty((j.size, u.size))
            for e00, e01, e10, e11, mi in zip(*(np.tile(e, 2) for e in entries), m):
                u, v = e00 * u + e01 * v, e10 * u + e11 * v
                np.hypot(np.abs(u), np.abs(v), out=mi)
                u /= mi
                v /= mi
            state[:, :, fibres] = np.stack((u, v)).reshape(2, 2, -1)
            g = grown[:, run] + np.cumsum(np.log(m).reshape(j.size, 2, -1) + scale[:, None], axis=0)
            bad = ~np.isfinite(g).all(axis=(0, 1))
            if bad.any():
                raise NumericError(f"classification solve of the fibre xi={xi[fibres[bad][0]]:g} "
                                   "reached a non-finite log-magnitude")
            grown[:, run] = g[-1]
            fired = (2.0 * g >= _GUARD_LOG_M2).any(axis=1) & guarded
            hit = fired.any(axis=0)
            first = fired[:, hit].argmax(axis=0)
            slope[:, run[hit]] = g[first, :, hit.nonzero()[0]].T / ((j0 + first + 1) * h)
            stop[run[hit]], run = True, run[~hit]
            if not run.size:
                break
        slope[:, run] = grown[:, run] / (n * h)
        return slope, stop

    # each fibre's columns (u, x u') = (1, 0) and (0, 1), as (2, 2, fibres),
    # and the same columns at the shadow's doubled steps
    z = np.repeat(np.eye(2, dtype=complex)[:, :, None], xi.size, axis=2)
    shadow = z.copy()
    slopes, shadow_slopes = np.zeros((2, xi.size)), np.zeros((2, xi.size))
    early = np.zeros(xi.size, dtype=bool)
    live = np.arange(xi.size)
    for k in range(n_blocks):
        for count in np.unique(counts[k, live]):
            own = live[counts[k, live] == count]
            slopes[:, own], stop = block(k, count, own, z, guarded=True)
            early[own[stop]] = True
            if not stop.all():
                shadow_slopes[:, own[~stop]] = block(k, count // 2, own[~stop], shadow, False)[0]
        live = live[~early[live]]
    errors = np.abs(slopes - shadow_slopes).max(axis=0)
    for i in live:
        if not errors[i] <= SLOPE_ERROR_TOL:
            raise NumericError(f"classification solve of the fibre xi={xi[i]:g} has a slope "
                               f"error {errors[i]:.3g} above {SLOPE_ERROR_TOL:g}")
    return [([float(s) for s in slopes[:, i]], bool(early[i]),
             None if early[i] else float(errors[i]), work) for i in range(xi.size)]


def classify_numeric(pot: FibrePotential, *,
                     slopes: tuple[list[float], bool, float | None, dict] | None = None
                     ) -> WeylReport:
    """Classify a fibre at x = 0 by sampling plus ODE integration.

    The indicial fit estimates c0 = lim x^2 W on 26 samples spanning
    five decades down to X_END; the cross-check steps the deficiency
    equation in t = ln x inward from X_START with the Magnus propagator
    of :func:`_amplitude_slopes`, two independent initial conditions, and
    reads the dominant growth exponent s from the last half-decade's
    amplitude ratio: both local solutions are square integrable near zero
    iff s > -1/2.  The routes must agree, and a fit whose tail error spans
    3/4 decides nothing; either failure raises
    :class:`InconclusiveClassification` rather than silently picking a
    side.  The diagnostics carry the shadow's ``slope_error`` (None for a
    fibre stopped early) and the propagator's ``work``.  ``slopes`` is
    this fibre's entry of :func:`_amplitude_slopes` when a sweep has
    stepped it together with others; without it the fibre is stepped
    alone, bit-identically.
    """
    c0, c0_err = _fit_c0(pot)
    # the tail error spans 3/4 where xi^2 / f^2 still dominates at X_END
    if 2.0 * c0_err > C0_FIT_TOL and abs(c0 - CRITICAL_COEFFICIENT) <= 2.0 * c0_err:
        raise InconclusiveClassification(
            f"indicial fit (c0={c0:.6g} +- {c0_err:.3g}) has not converged at "
            f"x={X_END:g} for xi={pot.xi:g} on profile {pot.profile.name}")
    lp_fit = c0 >= CRITICAL_COEFFICIENT - max(C0_FIT_TOL, 2.0 * c0_err)

    if slopes is None:
        (slopes,) = _amplitude_slopes(pot.profile, [pot.xi])
    slopes, early_lp, slope_error, work = slopes
    s_est = min(slopes)
    lp_ode = early_lp or s_est <= CRITICAL_EXPONENT + SLOPE_TOL

    if lp_fit != lp_ode:
        raise InconclusiveClassification(
            f"indicial fit (c0={c0:.6g}, limit_point={lp_fit}) disagrees with "
            f"ODE integrability test (s={s_est:.6g}, limit_point={lp_ode}) "
            f"for xi={pot.xi:g} on profile {pot.profile.name}"
        )
    diag = {
        "c0": c0,
        "c0_fit_error": c0_err,
        "indicial_slope": s_est,
        "early_limit_point": early_lp,
        "slope_error": slope_error,
        "x0": X_START,
        "x_end": X_END,
        "work": work,
    }
    return WeylReport(
        xi=float(pot.xi),
        endpoint_zero=Endpoint.LIMIT_POINT if lp_ode else Endpoint.LIMIT_CIRCLE,
        method=Method.NUMERIC_ODE,
        diagnostics=diag,
    )


def classify_sweep(
    profile: GrushinProfile,
    xi_values: Iterable[float],
    method: str = "auto",
) -> list[WeylReport]:
    """Classify every fibre in ``xi_values``, analytic when possible.  The
    numeric route steps all fibres in one propagator run and then decides
    each fibre with :func:`classify_numeric`."""
    if method not in ("auto", "analytic", "numeric"):
        raise UsageError(f"method must be auto, analytic or numeric, got {method!r}")
    xi_values = [float(v) for v in xi_values]
    use_analytic = method == "analytic" or (method == "auto" and profile.is_power_law)
    if method == "analytic" and not profile.is_power_law:
        raise UsageError("analytic classification requires a power-law profile")
    if use_analytic:
        return [classify_power_law(profile.alpha, xi) for xi in xi_values]
    pots = [FibrePotential(xi=xi, profile=profile) for xi in xi_values]
    batch = _amplitude_slopes(profile, xi_values)
    return [classify_numeric(pot, slopes=fibre) for pot, fibre in zip(pots, batch)]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _describe_runs(values: np.ndarray, failing: np.ndarray) -> tuple[str, list]:
    edges = np.flatnonzero(np.diff(failing.astype(int), prepend=0, append=0))
    runs = [(int(i), int(j) - 1) for i, j in zip(edges[::2], edges[1::2])]
    if not runs:
        return "none", []
    if all(failing):
        return "all sampled fibres", runs
    parts = []
    for i, j in runs:
        if i == j:
            parts.append(f"{{{values[i]:g}}}")
        else:
            parts.append(f"[{values[i]:g}, {values[j]:g}]")
    return "xi in " + " U ".join(parts), runs


def aggregate_verdict(
    reports: Sequence[WeylReport],
    mode: Mode,
    grid_info: dict | None = None,
) -> SelfAdjointnessVerdict:
    """Fold per-fibre reports into the verdict for the full operator of
    geometry ``mode``.  The reports carry no geometry: the same fibres
    aggregate to either verdict, and only the cylinder requires integer
    xi, its mode numbers k.

    Cylinder: the operator is an orthogonal sum over integer modes, so a
    single failing mode destroys essential self-adjointness; the total
    deficiency is the number of failing modes (infinite when every
    sampled mode fails, which for admissible profiles signals failure of
    all modes).

    Plane: self-adjointness survives a failing set of measure zero.  On
    a finite grid the proxy is adjacency: a run of two or more adjacent
    failing grid points stands for a set of positive measure (and then
    the deficiency index is infinite, by the compact-interval
    eigenfunction construction); isolated failing points are treated as
    measure zero and only recorded as a caveat.
    """
    mode = Mode(mode)
    if not reports:
        raise UsageError("aggregate_verdict needs at least one report")
    if mode is Mode.CYLINDER and not all(float(r.xi).is_integer() for r in reports):
        raise UsageError("cylinder mode indexes fibres by integer k")
    order = np.argsort([r.xi for r in reports])
    reports = [reports[i] for i in order]
    xi = np.array([r.xi for r in reports])
    failing = np.array([r.deficiency == 1 for r in reports])
    desc, runs = _describe_runs(xi, failing)
    failing_values = tuple(float(v) for v in xi[failing])
    grid_info = dict(grid_info or {})
    grid_info.setdefault("n_fibres", int(xi.size))
    grid_info.setdefault("xi_min", float(xi.min()))
    grid_info.setdefault("xi_max", float(xi.max()))

    caveat = ""
    if mode is Mode.CYLINDER:
        esa = not failing.any()
        if esa:
            total = TotalDeficiency.ZERO
        elif failing.all():
            total = TotalDeficiency.INFINITE
        else:
            total = TotalDeficiency.FINITE
            caveat = "finitely many failing modes on the sampled range"
    else:
        positive_measure = any(j > i for i, j in runs)
        esa = not positive_measure
        if failing.any() and not positive_measure:
            # measure-zero failing set: the closure is still self-adjoint
            caveat = (
                "isolated failing grid points treated as a measure-zero set; "
                "self-adjointness holds for almost every fibre"
            )
        total = TotalDeficiency.INFINITE if positive_measure else TotalDeficiency.ZERO
    return SelfAdjointnessVerdict(
        verdict=SAVerdict.ESSENTIALLY_SELF_ADJOINT if esa else SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT,
        mode=mode,
        failing_fibres=desc,
        failing_values=failing_values,
        total_deficiency=total,
        grid=grid_info,
        caveat=caveat,
    )


# ---------------------------------------------------------------------------
# deficiency eigenfunction family
# ---------------------------------------------------------------------------

# bound on a family's eigenvalue residual and norm error (criterion 6)
FAMILY_TOL = 1e-6
OBS_GRID_LO = 0.3
OBS_GRID_HI = 8.0
OBS_GRID_STEP = 1.0 / 256.0
# the growing solution's contamination of the decaying one falls like
# e^(-2B) over a decay budget B spent outside the observation grid
_DECAY_BUDGET = 0.5 * math.log(1e15)
# inner end of the deficiency solves; a power tail covers (0, FAMILY_X_MIN)
FAMILY_X_MIN = 1e-6
# |u|^2 enters the mass row and overflows for |u| above 1.3e154: a fibre
# whose u or x u' passes this stops the solve, a factor 1e4 short of it
_MAX_STATE = 1e150
# the family solve's rtol for one fibre, divided by sqrt(fibres) over the
# batch (_batch_tolerances); scipy raises an rtol below 100 machine
# epsilons to that floor, with a warning, so the family has at most the
# fibres that keep its batched rtol at or above the floor
_FAMILY_RTOL = 1e-12
_SCIPY_RTOL_FLOOR = 100 * math.ulp(1.0)
MAX_FAMILY_SAMPLES = int((_FAMILY_RTOL / _SCIPY_RTOL_FLOOR) ** 2)


@dataclass(frozen=True)
class DeficiencyFamilyReport:
    """Residuals and orthogonality data for the eigenfunction family."""

    xi_values: np.ndarray = field(repr=False)
    max_residual: float = math.nan
    max_norm_error: float = math.nan
    max_cross_inner: float | None = None
    contradiction: bool = False
    work: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict, compare=False)


def _right_start(pot: FibrePotential) -> float:
    """Starting abscissa for inward integration: far enough out that the
    growing solution contaminates the decaying one below 1e-15.  The WKB
    seed there is a u_dec + b u_grow; inward to OBS_GRID_HI the first term
    grows by e^B and the second shrinks by e^(-B), B the integral of
    Re sqrt(W - i), so the contamination is (b/a) e^(-2B) and the budget
    is B = 1/2 ln 1e15."""
    x, acc = OBS_GRID_HI, 0.0
    while acc < _DECAY_BUDGET and x < 80.0:
        kappa = np.sqrt(pot(x) - 1j).real
        acc += max(kappa, 0.5)
        x += 1.0
    return x


def _l2_solutions(profile: GrushinProfile, xi, starts, kept):
    """One inward DOP853 solve in t = ln x of the square-integrable
    solution of every fibre ``xi``, down to the smallest of the points
    ``kept``.  A fibre joins the running solve at its own abscissa
    ``starts``, seeded on its decaying WKB branch at mass 0; the fibres
    are decoupled and linear, so a join leaves the running ones' solutions
    unchanged, and the solver restarts there with the tolerances of the
    new fibre count.  Returns each fibre's u and its mass row N, the
    integral of |u|^2 dx from x up to its start (:func:`_deficiency_rhs`),
    at ``kept``, read from the dense output of the steps that pass them,
    and the solve's work {"nfev", "steps"}."""
    from scipy.integrate import DOP853

    xi = np.asarray(xi, dtype=float)
    starts = np.asarray(starts, dtype=float)
    # join order: the state's columns are the fibres by descending start
    order = np.argsort(-starts, kind="stable")
    xi2 = _squares(xi[order])
    starts = starts[order]
    # -t = -ln x ascends in the order the solve passes the kept points
    neg_t = -np.log(kept)
    inward = np.argsort(neg_t, kind="stable")
    neg_t = neg_t[inward]

    values = np.zeros((2, xi2.size, inward.size), dtype=complex)
    z = np.empty((3, 0), dtype=complex)
    done = nfev = steps = 0
    joins = np.unique(starts)[::-1]
    for x0, t0, t1 in zip(joins, np.log(joins), [*np.log(joins[1:]), -neg_t[-1]]):
        n = int(np.count_nonzero(starts >= x0))
        # the joining fibres' decaying WKB branch, u = 1 and x u' = -k x,
        # k = sqrt(W - i) with Re k > 0
        k = np.sqrt(profile.base_potential(x0) + xi2[z.shape[1]:n] * profile.inv_f_squared(x0) - 1j)
        z = np.concatenate((z, [np.ones(k.size), -k * x0, np.zeros(k.size)]), axis=1)
        rtol, atol = _batch_tolerances(_FAMILY_RTOL, 1e-280, n)
        solver = DOP853(lambda t, s, q=xi2[:n]: _deficiency_rhs(t, s, profile, q), t0,
                        z.ravel(), t1, rtol=rtol, atol=atol, first_step=_first_step(k, x0))
        while solver.status == "running":
            message = solver.step()
            # each fibre's largest |u| or |x u'|
            big = np.abs(solver.y.reshape(3, n)[:2]).max(axis=0)
            if solver.status == "failed" or big.max() > _MAX_STATE:
                raise NumericError(f"deficiency solve stopped at x={math.exp(solver.t):g}, where "
                                   f"the fibre xi={xi[order[big.argmax()]]:g} has the largest "
                                   f"solution: {message or 'it outgrows doubles'}")
            steps += 1
            reached = int(np.searchsorted(neg_t, -solver.t, side="right"))
            if reached > done:
                points = solver.dense_output()(-neg_t[done:reached])
                values[:, :n, inward[done:reached]] = points.reshape(3, n, -1)[::2]
                done = reached
        nfev += solver.nfev
        z = solver.y.reshape(3, n)
    back = np.argsort(order)
    return values[0, back], values[1, back].real, {"nfev": nfev, "steps": steps}


def _bounded_interval(interval, name):
    lo, hi = float(interval[0]), float(interval[1])
    # a finite width b - a implies finite ends
    if not (lo < hi and math.isfinite(hi - lo)):
        raise UsageError(f"{name} must be bounded with a < b and a finite width b - a")
    return lo, hi


def verify_deficiency_family(
    profile: GrushinProfile,
    interval: tuple[float, float] = (0.0, 1.0),
    xi_samples: int = 16,
    other_interval: tuple[float, float] | None = None,
) -> DeficiencyFamilyReport:
    """Numerically realise the compact-interval eigenfunction family.

    For each sampled xi in ``interval`` the square-integrable solution of
    A(xi)* phi = i phi is constructed (``profile`` must be
    ``power_law(alpha)`` with alpha in (0, 1), where every fibre is limit
    circle so exactly one solution decays at infinity and all are
    admissible at zero), normalised to unit fibre norm, and verified:

    * eigenvalue residual of the 5-point finite-difference operator on
      the observation grid (independent of the integration route);
    * the norm, a row of the solve, against Simpson's rule over the kept
      values: in ln x on a log grid below the observation grid, and in x
      on it (``max_norm_error``, the worst relative gap);
    * orthogonality against the family over ``other_interval``, which
      must be bounded and disjoint from ``interval`` (exact, since the
      xi supports do not meet).

    A failure to find a square-integrable solution (fitted local growth
    at zero at or below the critical exponent) sets ``contradiction``.
    The whole family is one inward DOP853 solve in t = ln x that each
    fibre joins at its own right start.  A fibre whose solution outgrows
    doubles, a failed solve, or any non-finite per-fibre number raises
    :class:`NumericError` naming a fibre's xi.
    """
    from scipy.integrate import simpson

    if not (profile.is_power_law and 0.0 < profile.alpha < 1.0):
        raise UsageError(f"the deficiency family assumes alpha in (0, 1), got {profile.name}")
    if xi_samples < 8:
        raise UsageError("need at least 8 fibre samples")
    if xi_samples > MAX_FAMILY_SAMPLES:
        raise UsageError(f"at most {MAX_FAMILY_SAMPLES} fibre samples keep the batched rtol "
                         f"at or above scipy's floor, got {xi_samples}")
    a, b = _bounded_interval(interval, "interval")
    if other_interval is not None:
        a2, b2 = _bounded_interval(other_interval, "other interval")
        if a2 <= b and a <= b2:
            raise UsageError("other interval must be disjoint from the interval")

    xi_values = np.linspace(a, b, xi_samples)
    pots = [FibrePotential(xi=float(xi), profile=profile) for xi in xi_values]

    h = OBS_GRID_STEP
    xs = np.arange(OBS_GRID_LO, OBS_GRID_HI, h)
    xc = xs[2:-2]
    # kept: 401 points in ln x up to the observation grid, the exponent
    # fit's second point, and the observation grid
    x_log = np.geomspace(FAMILY_X_MIN, OBS_GRID_LO, 401)
    starts = [_right_start(pot) for pot in pots]
    values, mass, work = _l2_solutions(profile, xi_values, starts,
                                       np.concatenate((x_log, [10.0 * FAMILY_X_MIN], xs)))
    m = x_log.size
    u2 = values.real ** 2 + values.imag ** 2
    # Simpson's rule against the mass row's increment on each span
    gaps = np.abs(np.array([
        simpson(x_log * u2[:, :m], x=np.log(x_log)) / (mass[:, 0] - mass[:, m - 1]),
        simpson(u2[:, m + 1:], x=xs) / (mass[:, m + 1] - mass[:, -1])]) - 1.0).max(axis=0)
    max_res = 0.0
    contradiction = False
    for pot, u, norm2, norm_err in zip(pots, values, mass[:, 0], gaps.tolist()):
        u_min, u_ten = abs(u[0]), abs(u[m])
        # fitted local exponent over the last decade above FAMILY_X_MIN,
        # and the analytic power tail of the norm below it
        s_fit = math.log(u_ten / u_min) / math.log(10.0)
        tail = 0.0
        if 2.0 * s_fit + 1.0 > 1e-6:
            tail = u_min ** 2 * FAMILY_X_MIN / (2.0 * s_fit + 1.0)
        phi = u[m + 1:] / math.sqrt(norm2 + tail)
        # independent arithmetic path: 4th-order central differences
        upp = (-phi[4:] + 16 * phi[3:-1] - 30 * phi[2:-2] + 16 * phi[1:-3] - phi[:-4]) / (
            12.0 * h * h
        )
        res = float(np.abs(-upp + (pot(xc) - 1j) * phi[2:-2]).max())
        if not all(map(math.isfinite, (s_fit, res, norm_err))):
            raise NumericError(f"deficiency check of the fibre xi={pot.xi:g} is not finite "
                               f"(s_fit {s_fit}, residual {res}, norm error {norm_err})")
        contradiction = contradiction or s_fit <= CRITICAL_EXPONENT + 1e-3
        max_res = max(max_res, res)

    max_cross = None
    if other_interval is not None:
        # indicator overlap on the joint grid; disjoint supports give 0
        joint = np.union1d(xi_values, np.linspace(a2, b2, xi_samples))
        ind1 = ((joint >= a) & (joint <= b)).astype(float)
        ind2 = ((joint >= a2) & (joint <= b2)).astype(float)
        max_cross = float(np.trapezoid(ind1 * ind2, joint))

    return DeficiencyFamilyReport(
        xi_values=xi_values,
        max_residual=max_res,
        max_norm_error=float(gaps.max()),
        max_cross_inner=max_cross,
        contradiction=contradiction,
        work=work,
        grid={
            "observation_grid": [OBS_GRID_LO, OBS_GRID_HI, OBS_GRID_STEP],
            "x_min": FAMILY_X_MIN,
            "x_right": starts,
            "fd_order": 4,
        },
    )
