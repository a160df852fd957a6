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

Both ODE routes solve in t = ln x for z = (u, x u'), with dz/dt =
(z2, a z1 + z2) and a = x^2 (W - i): a Frobenius solution x^s is e^(st),
so the singular end costs a few steps per decade.  The classification
steps the Liouville-Green gauge w = e^(-G) z (F. W. J. Olver, Asymptotics
and Special Functions, ch. 6), G' the root of l^2 - l = a that grows
inward, and carries g = Re G: exponential growth such as e^(1/(2x)) lives
in g, and DOP853 steps the slowly varying w.  The deficiency family steps
z itself: its residual needs the phase Im G that g drops, and a gauge
carrying all of G saved 5% of its calls at nearly twice their cost.

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
from .profiles import FibrePotential, GrushinProfile, check_assumptions, power_law

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


def _gauged_rhs(t, y, profile, xi2):
    """The deficiency equation in the exponential gauge: ``y`` stacks the
    rows u, v and g of every column, with e^g (u, v) = e^(i phase) (u, x u')
    and g' = Re lam.  lam = 1/2 - sqrt(1/4 + a), the root of l^2 - l = a
    that grows fastest inward, is the local exponent of the dominant
    solution, so (u, v) varies slowly wherever the growth is exponential.
    With a = lam (lam - 1), d/dt (u, v) = (v - lam u, (1 - lam)(v - lam u))."""
    u, v, _ = y.reshape(3, -1)
    x = math.exp(t)
    x2 = x * x
    # 1/4 + a, a = x^2 (W - i) as _deficiency_rhs forms it
    quarter_a = (x2 * profile.inv_f_squared(x)) * xi2 + complex(
        x2 * profile.base_potential(x) + 0.25, -x2)
    lam = 0.5 - np.sqrt(quarter_a)
    du = v - lam * u
    return np.concatenate((du, (1.0 - lam) * du, lam.real))


def _wkb_roots(profile, xi2, x):
    """k = sqrt(W - i) with Re k > 0 of every fibre at x: u' = -k u is the
    decaying WKB branch."""
    return np.sqrt(profile.base_potential(x) + xi2 * profile.inv_f_squared(x) - 1j)


def _first_step(k, x):
    # a step in t = ln x at x that resolves the fastest WKB rate |k|
    return min(0.1, 1.0 / float(np.abs(k).max(initial=1.0))) / x


def _log_mag_squared(y):
    # log(|u|^2 + |x u'|^2) per column of a gauged state: 2 s t for
    # Frobenius solutions u ~ x^s, and finite (u and u' cannot vanish
    # together); the scale e^g carries the growth, so |u|^2 + |v|^2
    # stays far from overflow
    u, v, g = y.reshape(3, -1)
    return np.log(u.real ** 2 + u.imag ** 2 + v.real ** 2 + v.imag ** 2) + 2.0 * g.real


# the magnitude guard fires when log m^2 grows by this within a block
_GUARD_LOG_M2 = 200.0


def _batch_tolerances(rtol, atol, n):
    """scipy's error norm is an RMS over the whole state: dividing the
    tolerances by sqrt(n) bounds each of the n columns' RMS error by the
    bound a solve of that column alone would meet."""
    root = math.sqrt(n)
    return rtol / root, atol / root


def _amplitude_slopes(profile: GrushinProfile, xi):
    """Growth exponents of the deficiency solutions of every fibre ``xi``.

    Integrates -u'' + W u = i u in t = ln x from X_START to X_END, both
    canonical initial conditions of every fibre in one DOP853 stepping
    loop in the exponential gauge of :func:`_gauged_rhs`, and reads the
    growth rate of log m, m^2 = |u|^2 + |x u'|^2, over each half-decade
    block from the dense output at its edges.  Returns one (the last
    block's slope of each initial condition, early_limit_point, work)
    triple per fibre, ``work`` the solve's {"nfev", "steps"}, shared by
    every fibre.  Growth by e^100 within a block, more singular than any
    inverse square, stops the fibre early with both its columns and the
    slopes of the stopped block.
    """
    from scipy.integrate import DOP853
    from scipy.optimize import brentq

    xi2 = _squares(xi)
    # 1/f^2 of a power law with alpha < 0 is largest at X_END
    try:
        profile.inv_f_squared(X_END)
    except OverflowError:
        raise UsageError(f"the potential overflows a float at x={X_END:g}") from None
    n_blocks = int(math.ceil(2.0 * math.log10(X_START / X_END)))
    edges = np.linspace(math.log(X_START), math.log(X_END), n_blocks + 1)
    # columns 2i and 2i + 1 are fibre i's (u, x u') = (1, 0) and (0, 1),
    # at the scale g = 0
    fibre = np.repeat(np.arange(xi2.size), 2)
    y = np.concatenate((np.tile(np.eye(2, dtype=complex), xi2.size),
                        np.zeros((1, fibre.size))))
    # per column: log m^2 at the block's start edge, and the slope of the
    # last finished block
    ref, last = np.zeros(fibre.size), np.zeros(fibre.size)
    slopes = [None] * xi2.size
    early = np.zeros(xi2.size, dtype=bool)
    nfev = steps = 0
    # a restart keeps the step size reached (none at the end point, where
    # DOP853 takes no step and rejects a zero one)
    t, k, step = edges[0], 0, _first_step(_wkb_roots(profile, xi2, X_START), X_START)
    while fibre.size and k < n_blocks:
        # a column's u and v are two of its three rows: the tolerances
        # divided by sqrt(3/2 columns) bound the u and v errors of each
        # column by those of an ungauged solve of that column alone, the
        # g rows' errors only tightening it
        rtol, atol = _batch_tolerances(1e-10, 1e-30, 1.5 * fibre.size)
        solver = DOP853(lambda s, w, q=xi2[fibre]: _gauged_rhs(s, w, profile, q),
                        t, y.ravel(), edges[-1], rtol=rtol, atol=atol,
                        first_step=min(step, t - edges[-1]) or None)
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise NumericError(f"deficiency ODE integration failed: {message}")
            steps += 1
            dense, begin, fired = None, solver.t_old, False
            # one segment per block the step enters
            while k < n_blocks:
                end = max(solver.t, edges[k + 1])
                if end == solver.t:
                    grown = _log_mag_squared(solver.y) - ref
                else:
                    dense = dense if dense is not None else solver.dense_output()
                    grown = _log_mag_squared(dense(end)) - ref
                fired = grown.max() >= _GUARD_LOG_M2
                if fired or end > edges[k + 1]:
                    break
                last = 0.5 * grown / (edges[k + 1] - edges[k])
                ref, begin, k = ref + grown, end, k + 1
            if fired:
                # the magnitude guard: growth beyond e^100 within half a
                # decade, steeper than any inverse-square profile.  Each
                # fibre past it stops at its own crossing, located as
                # solve_ivp locates a terminal event; the others restart
                # where the segment ends.
                dense = dense if dense is not None else solver.dense_output()

                def excess(s, own):
                    return float((_log_mag_squared(dense(s)) - ref)[own].max()) - _GUARD_LOG_M2

                stop = np.isin(fibre, fibre[grown >= _GUARD_LOG_M2])
                tol = 4.0 * np.finfo(float).eps
                for i in np.unique(fibre[stop]):
                    own = fibre == i
                    # a bracket narrower than xtol returns the block's edge,
                    # which spans nothing: the segment's end stands for it
                    t = brentq(excess, end, begin, args=(own,), xtol=tol, rtol=tol)
                    t = end if t == edges[k] else t
                    grown_at = _log_mag_squared(dense(t)) - ref
                    slopes[i] = [float(v) for v in 0.5 * grown_at[own] / (t - edges[k])]
                early[fibre[stop]] = True
                t = end
                y = (solver.y if end == solver.t else dense(end)).reshape(3, -1)[:, ~stop]
                fibre, ref, last = fibre[~stop], ref[~stop], last[~stop]
                step = solver.step_size
                break
        nfev += solver.nfev
    for j, i in enumerate(fibre[::2]):
        slopes[i] = [float(last[2 * j]), float(last[2 * j + 1])]
    work = {"nfev": nfev, "steps": steps}
    return [(fibre_slopes, bool(stopped), work) for fibre_slopes, stopped in zip(slopes, early)]


def classify_numeric(pot: FibrePotential, *,
                     slopes: tuple[list[float], bool, dict] | None = None) -> WeylReport:
    """Classify a fibre at x = 0 by sampling plus ODE integration.

    The indicial fit estimates c0 = lim x^2 W on 26 samples spanning
    five decades down to X_END; the cross-check integrates the
    deficiency equation in t = ln x inward from X_START, in one solve of
    two independent initial conditions, and reads the dominant growth
    exponent s from the last half-decade's amplitude ratio: both local
    solutions are square integrable near zero iff s > -1/2.  The routes must agree; disagreement raises
    :class:`InconclusiveClassification` rather than silently picking a
    side.  ``slopes`` is this fibre's entry of :func:`_amplitude_slopes`
    when a sweep has integrated it together with others; without it the
    fibre is integrated alone.
    """
    c0, c0_err = _fit_c0(pot)
    lp_fit = c0 >= CRITICAL_COEFFICIENT - max(C0_FIT_TOL, 2.0 * c0_err)

    if slopes is None:
        (slopes,) = _amplitude_slopes(pot.profile, [pot.xi])
    slopes, early_lp, work = slopes
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
    numeric route integrates all fibres in one vector ODE and then decides
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
        # the joining fibres' decaying WKB branch, u = 1 and x u' = -k x
        k = _wkb_roots(profile, xi2[z.shape[1]:n], x0)
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
    alpha: float,
    interval: tuple[float, float] = (0.0, 1.0),
    xi_samples: int = 16,
    other_interval: tuple[float, float] | None = None,
) -> DeficiencyFamilyReport:
    """Numerically realise the compact-interval eigenfunction family.

    For each sampled xi in ``interval`` the square-integrable solution of
    A(xi)* phi = i phi is constructed (alpha must lie in (0, 1), where
    every fibre is limit circle so exactly one solution decays at
    infinity and all are admissible at zero), normalised to unit fibre
    norm, and verified:

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

    if not (0.0 < alpha < 1.0):
        raise UsageError("the deficiency family construction assumes alpha in (0, 1)")
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

    profile = power_law(alpha)
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
