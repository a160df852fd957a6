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
mode), which differ precisely on alpha in (-3, -1).

Three classification routes are implemented and cross-checked:

* ``classify_power_law``: the closed-form rule above.
* ``classify_by_inequality``: the grid-sampled global criterion
  2 f f'' - f'^2 >= 3 f^2 / x^2 (confining) versus <= (3 - eps) f^2/x^2
  (non-confining); these are not exhaustive for general f.
* ``classify_numeric``: estimates c0 = lim x^2 W by sampling, and
  independently integrates the deficiency equation -u'' + W u = i u
  inward, measuring the dominant local growth exponent s of the
  solutions through per-decade amplitude ratios; limit point iff the
  dominant solution is not square integrable (s <= -1/2).  The two
  sub-routes must agree or the classification is declared inconclusive.

When a fibre is limit circle, ker(A(xi)* - i) is one-dimensional;
``verify_deficiency_family`` builds the normalised solutions phi_xi over
a compact interval J of fibres, checks the eigenvalue residual on a
fixed observation grid, and confirms that families over disjoint
intervals are orthogonal, which is the mechanism producing an infinite
deficiency index for the full operator.
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
    CONFINEMENT_CONDITION = "confinement_condition"
    NO_CONFINEMENT_CONDITION = "no_confinement_condition"
    INCONCLUSIVE = "inconclusive"


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
    mode: Mode = Mode.PLANE
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def endpoint_infinity(self) -> Endpoint:
        """Always limit point: W_xi is bounded below near infinity."""
        return Endpoint.LIMIT_POINT

    @property
    def deficiency(self) -> int:
        """1 exactly when the left endpoint is limit circle."""
        return 1 if self.endpoint_zero is Endpoint.LIMIT_CIRCLE else 0

    @property
    def essentially_self_adjoint(self) -> bool:
        return self.deficiency == 0


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


def _report_from_c0(xi, c0, method, mode, diagnostics):
    lp = c0 >= CRITICAL_COEFFICIENT
    return WeylReport(
        xi=float(xi),
        endpoint_zero=Endpoint.LIMIT_POINT if lp else Endpoint.LIMIT_CIRCLE,
        method=method,
        mode=mode,
        diagnostics=diagnostics,
    )


def classify_power_law(alpha: float, xi: float, mode: Mode = Mode.PLANE) -> WeylReport:
    """Closed-form fibre classification for f(x) = x^(-alpha).

    Any real alpha and xi are accepted; in cylinder mode xi must be an
    integer mode number.  The borderline c0 = 3/4 (alpha = 1, or
    alpha = -1 with |xi| = 1) is limit point: the second local solution
    x^(-1/2) just fails square integrability.
    """
    mode = Mode(mode)
    if mode is Mode.CYLINDER and float(xi) != int(xi):
        raise UsageError("cylinder mode indexes fibres by integer k")
    c0 = critical_coefficient(float(alpha), float(xi))
    diag = {"c0": c0, "alpha": float(alpha)}
    return _report_from_c0(xi, c0, Method.ANALYTIC_POWER_LAW, mode, diag)


def classify_by_inequality(profile: GrushinProfile, grid: Sequence[float] | np.ndarray):
    """Test the global confinement inequalities on a sampled grid.

    Returns ``(verdict, info)`` where ``verdict`` is an
    :class:`InequalityVerdict` and ``info`` carries the best grid
    estimate of eps for the non-confining case.  In normalised form the
    two conditions compare q(x) = x^2 (2 f f'' - f'^2) / f^2 against 3:
    q >= 3 everywhere is confining, sup q < 3 is non-confining with
    eps = 3 - sup q, anything else is inconclusive (the conditions are
    not exhaustive).  The profile must satisfy the admissibility
    assumptions; scale invariance f -> lambda f holds because q does.
    """
    assumptions = check_assumptions(profile, grid)
    # the grid the assumptions were checked on: sorted, and clipped to the
    # profile's float floor
    grid = assumptions.grid
    if grid.size < 200:
        raise UsageError("inequality classification needs >= 200 grid points "
                         "above the profile's float floor")
    if not assumptions.all_passed:
        raise UsageError(
            f"profile fails admissibility assumptions: {assumptions.summary()}"
        )
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


def _deficiency_rhs(x, y, profile, xi2):
    """-u'' + W u = i u for every fibre at once, W = base + xi^2 / f^2.
    ``y`` stacks the fibres' Re u, Im u, Re u', Im u' in four rows."""
    ur, ui, vr, vi = y.reshape(4, -1)
    w = profile.base_potential(x) + xi2 * profile.inv_f_squared(x)
    return np.concatenate((vr, vi, w * ur + ui, w * ui - ur))


def _mag_squared(x, y):
    # |u|^2 + |x u'|^2 per fibre: homogeneous of degree 2s for Frobenius
    # solutions u ~ x^s, and never zero (u and u' cannot vanish together).
    ur, ui, vr, vi = y.reshape(4, -1)
    return ur**2 + ui**2 + (x * vr) ** 2 + (x * vi) ** 2


# the magnitude guard fires when log m^2 reaches this
_GUARD_LOG_M2 = 200.0


def _magnitude_guard(x, y, profile, xi2):
    return math.log(float(np.max(_mag_squared(x, y)))) - _GUARD_LOG_M2


_magnitude_guard.terminal = True
_magnitude_guard.direction = 1.0


def _batch_tolerances(rtol, atol, n):
    """scipy's error norm is an RMS over the whole state: dividing the
    tolerances by sqrt(n) bounds each of the n fibres' RMS error by the
    bound a solve of that fibre alone would meet."""
    root = math.sqrt(n)
    return rtol / root, atol / root


def _amplitude_slopes(profile: GrushinProfile, xi):
    """Growth exponents of the deficiency solutions of every fibre ``xi``.

    Integrates -u'' + W u = i u inward from X_START to X_END for the two
    canonical initial conditions, all fibres in one vector ODE, one
    half-decade block at a time and renormalising each fibre after each,
    so the exponent of the dominant local solution can be read from
    amplitude ratios without overflow.  Returns one (the last block's
    slope of each initial condition, early_limit_point) pair per fibre,
    where an early stop is triggered by hyper-fast growth (more singular
    than any inverse square) and its slope is that of the stopped block;
    an early-stopped fibre skips the later initial conditions.
    """
    from scipy.integrate import solve_ivp

    xi2 = _squares(xi)
    n_blocks = int(math.ceil(2.0 * math.log10(X_START / X_END)))
    edges = np.geomspace(X_START, X_END, n_blocks + 1)
    slopes = [[] for _ in xi2]
    early = np.zeros(xi2.size, dtype=bool)
    for ic in ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, X_START, 0.0)):
        active = np.flatnonzero(~early)
        if not active.size:
            break
        y = np.repeat(np.array(ic)[:, None], active.size, axis=1)
        y = y / np.sqrt(_mag_squared(X_START, y))
        for k in range(n_blocks):
            a, b = edges[k], edges[k + 1]
            x0 = a
            while active.size:
                rtol, atol = _batch_tolerances(1e-10, 1e-30, active.size)
                sol = solve_ivp(
                    _deficiency_rhs,
                    (x0, b),
                    y.ravel(),
                    args=(profile, xi2[active]),
                    method="DOP853",
                    rtol=rtol,
                    atol=atol,
                    events=_magnitude_guard,
                )
                if sol.status == -1:
                    raise NumericError(f"deficiency ODE integration failed: {sol.message}")
                x_last = float(sol.t[-1])
                y = sol.y[:, -1].reshape(4, -1)
                m2 = _mag_squared(x_last, y)
                m = np.sqrt(m2)
                # math.log, as a fibre alone would take it, not numpy's
                slope = np.array([math.log(v) for v in m]) / (math.log(x_last) - math.log(a))
                if sol.status != 1:
                    break
                # the magnitude guard fired: growth beyond e^100 within
                # half a decade, steeper than any inverse-square profile
                # (one solve over all blocks would measure it over seven).
                # Every fibre at or past the guard stops here; one left
                # running would restart above it and never cross it upward.
                stop = np.log(m2) >= _GUARD_LOG_M2
                stop[np.argmax(m2)] = True
                for i, s in zip(active[stop], slope[stop]):
                    slopes[i].append(float(s))
                early[active[stop]] = True
                active, y, x0 = active[~stop], y[:, ~stop], x_last
            if not active.size:
                break
            y = y / m
        for i, s in zip(active, slope):
            slopes[i].append(float(s))
    return [(fibre, bool(stopped)) for fibre, stopped in zip(slopes, early)]


def classify_numeric(pot: FibrePotential, *, mode: Mode = Mode.PLANE,
                     slopes: tuple[list[float], bool] | None = None) -> WeylReport:
    """Classify a fibre at x = 0 by sampling plus ODE integration.

    The indicial fit estimates c0 = lim x^2 W on 26 samples spanning
    five decades down to X_END; the cross-check integrates the
    deficiency equation inward from X_START with two independent initial
    conditions and reads the dominant growth exponent s from per-decade
    amplitude ratios: both local solutions are square integrable near
    zero iff s > -1/2.  The routes must agree; disagreement raises
    :class:`InconclusiveClassification` rather than silently picking a
    side.  ``slopes`` is this fibre's entry of :func:`_amplitude_slopes`
    when a sweep has integrated it together with others; without it the
    fibre is integrated alone.
    """
    mode = Mode(mode)
    if mode is Mode.CYLINDER and float(pot.xi) != int(pot.xi):
        raise UsageError("cylinder mode indexes fibres by integer k")

    c0, c0_err = _fit_c0(pot)
    lp_fit = c0 >= CRITICAL_COEFFICIENT - max(C0_FIT_TOL, 2.0 * c0_err)

    if slopes is None:
        (slopes,) = _amplitude_slopes(pot.profile, [pot.xi])
    slopes, early_lp = slopes
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
    }
    return WeylReport(
        xi=float(pot.xi),
        endpoint_zero=Endpoint.LIMIT_POINT if lp_ode else Endpoint.LIMIT_CIRCLE,
        method=Method.NUMERIC_ODE,
        mode=mode,
        diagnostics=diag,
    )


def classify_sweep(
    profile: GrushinProfile,
    xi_values: Iterable[float],
    mode: Mode = Mode.PLANE,
    method: str = "auto",
) -> list[WeylReport]:
    """Classify every fibre in ``xi_values``, analytic when possible.  The
    numeric route integrates all fibres in one vector ODE and then
    decides each fibre with :func:`classify_numeric`."""
    if method not in ("auto", "analytic", "numeric"):
        raise UsageError(f"method must be auto, analytic or numeric, got {method!r}")
    xi_values = [float(v) for v in xi_values]
    use_analytic = method == "analytic" or (method == "auto" and profile.is_power_law)
    if method == "analytic" and not profile.is_power_law:
        raise UsageError("analytic classification requires a power-law profile")
    if use_analytic:
        return [classify_power_law(profile.alpha, xi, mode) for xi in xi_values]
    batch = _amplitude_slopes(profile, xi_values)
    return [classify_numeric(FibrePotential(xi=xi, profile=profile), mode=mode, slopes=fibre)
            for xi, fibre in zip(xi_values, batch)]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _describe_runs(values: np.ndarray, failing: np.ndarray) -> tuple[str, list]:
    runs = []
    i = 0
    while i < values.size:
        if failing[i]:
            j = i
            while j + 1 < values.size and failing[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
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
    """Fold per-fibre reports into the verdict for the full operator.

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
    if any(r.mode is not mode for r in reports):
        raise UsageError("mixed plane/cylinder reports in one aggregation")
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

OBS_GRID_LO = 0.3
OBS_GRID_HI = 8.0
OBS_GRID_STEP = 1.0 / 256.0
_DECAY_BUDGET = 35.0
# inner end of the deficiency solves; a power tail covers (0, FAMILY_X_MIN)
FAMILY_X_MIN = 1e-6
# Fibres per deficiency solve.  A solve keeps its fibres' values at about
# 44k points, 0.7 MB a fibre; groups of 8 run a third faster but raise the
# peak memory by about 3 MB.
FAMILY_GROUP = 4


@dataclass(frozen=True)
class DeficiencyFamilyReport:
    """Residuals and orthogonality data for the eigenfunction family."""

    alpha: float
    interval: tuple[float, float]
    xi_values: np.ndarray = field(repr=False)
    max_residual: float = math.nan
    max_norm_error: float = math.nan
    max_cross_inner: float | None = None
    family_norm_sq: float = math.nan
    contradiction: bool = False
    grid: dict = field(default_factory=dict, compare=False)


def _right_start(pot: FibrePotential) -> float:
    """Starting abscissa for inward integration: far enough out that the
    growing solution contaminates the decaying one below 1e-15."""
    x, acc = OBS_GRID_HI, 0.0
    while acc < _DECAY_BUDGET and x < 80.0:
        kappa = np.sqrt(pot(x) - 1j).real
        acc += max(kappa, 0.5)
        x += 1.0
    return x


def _l2_solutions(profile: GrushinProfile, xi, x_right: float, grids):
    """Values at each of ``grids`` of the square-integrable solution of
    every fibre ``xi``: one inward solve of all of them from ``x_right``
    to FAMILY_X_MIN, each fibre seeded on its decaying WKB branch.  Each
    step's dense output is evaluated at the points the step covers and
    then dropped, so memory holds the values and no interpolants.
    Returns one complex (fibres, points) array per grid."""
    from scipy.integrate import DOP853

    xi2 = _squares(xi)
    k = np.sqrt(profile.base_potential(x_right) + xi2 * profile.inv_f_squared(x_right) - 1j)
    k = np.where(k.real < 0, -k, k)
    y0 = np.concatenate((np.ones_like(xi2), np.zeros_like(xi2), -k.real, -k.imag))
    rtol, atol = _batch_tolerances(1e-12, 1e-280, xi2.size)
    solver = DOP853(lambda x, y: _deficiency_rhs(x, y, profile, xi2), x_right, y0,
                    FAMILY_X_MIN, rtol=rtol, atol=atol,
                    first_step=min(0.1, 1.0 / max(float(np.abs(k).max()), 1.0)))
    points = np.concatenate(grids)
    inward = np.argsort(-points, kind="stable")
    descending = points[inward]
    values = np.empty((xi2.size, points.size), dtype=complex)
    done = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise NumericError(f"deficiency solve failed: {message}")
        reached = int(np.searchsorted(-descending, -solver.t, side="right"))
        if reached > done:
            covered = inward[done:reached]
            y = solver.dense_output()(points[covered])
            values[:, covered] = y[: xi2.size] + 1j * y[xi2.size: 2 * xi2.size]
            done = reached
    return np.split(values, np.cumsum([len(g) for g in grids])[:-1], axis=1)


def _quadrature_grids(x_right: float, refine: int):
    """The norm rule's log grid on (FAMILY_X_MIN, OBS_GRID_LO) and uniform
    grid on (OBS_GRID_LO, x_right)."""
    return (np.geomspace(FAMILY_X_MIN, OBS_GRID_LO, 2001 * refine),
            np.linspace(OBS_GRID_LO, x_right, 12001 * refine))


def _norm_sq(grids, u_log, u_uni, s_fit: float) -> float:
    """L^2 norm^2 on (0, x_right): log-grid rule near zero, uniform rule
    outside, plus the analytic power tail below FAMILY_X_MIN."""
    from scipy.integrate import simpson

    x_log, x_uni = grids
    m_log = simpson(np.abs(u_log) ** 2, x=x_log)
    m_uni = simpson(np.abs(u_uni) ** 2, x=x_uni)
    tail = 0.0
    if 2.0 * s_fit + 1.0 > 1e-6:
        tail = float(abs(u_log[0]) ** 2 * FAMILY_X_MIN / (2.0 * s_fit + 1.0))
    return float(m_log + m_uni + tail)


def _check_family_group(profile: GrushinProfile, group: np.ndarray):
    """Solve the fibres ``group`` together and check each solution:
    returns the largest eigenvalue residual on the observation grid, the
    largest unit-norm error under a refined re-quadrature, and whether
    any fibre's fitted local exponent at zero fails integrability."""
    h = OBS_GRID_STEP
    xs = np.arange(OBS_GRID_LO, OBS_GRID_HI, h)
    xc = xs[2:-2]
    # one abscissa for the group: more decay budget only helps
    x_right = max(_right_start(FibrePotential(xi=float(xi), profile=profile)) for xi in group)
    coarse, fine = _quadrature_grids(x_right, 1), _quadrature_grids(x_right, 2)
    solutions = _l2_solutions(profile, group, x_right, [*coarse, *fine, [10.0 * FAMILY_X_MIN], xs])
    max_res = max_norm_err = 0.0
    contradiction = False
    for xi, (u_log, u_uni, u_log2, u_uni2, u_ten, u_obs) in zip(group, zip(*solutions)):
        # fitted local exponent over the last decade above FAMILY_X_MIN
        s_fit = math.log(abs(u_ten[0]) / abs(u_log[0])) / math.log(10.0)
        if s_fit <= CRITICAL_EXPONENT + 1e-3:
            contradiction = True
        scale = 1.0 / math.sqrt(_norm_sq(coarse, u_log, u_uni, s_fit))
        phi = u_obs * scale
        # independent arithmetic path: 4th-order central differences
        upp = (-phi[4:] + 16 * phi[3:-1] - 30 * phi[2:-2] + 16 * phi[1:-3] - phi[:-4]) / (
            12.0 * h * h
        )
        pot = FibrePotential(xi=float(xi), profile=profile)
        res = np.abs(-upp + (pot(xc) - 1j) * phi[2:-2])
        max_res = max(max_res, float(res.max()))
        norm_refined = _norm_sq(fine, u_log2, u_uni2, s_fit)
        max_norm_err = max(max_norm_err, abs(math.sqrt(norm_refined) * scale - 1.0))
    return max_res, max_norm_err, contradiction


def _bounded_interval(interval, name):
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"{name} must be bounded with a < b")
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
    * unit norm under a refined re-quadrature;
    * orthogonality against the family over ``other_interval``, which
      must be bounded and disjoint from ``interval`` (exact, since the
      xi supports do not meet).

    A failure to find a square-integrable solution (fitted local growth
    at zero at or below the critical exponent) sets ``contradiction``.
    The fibres are solved FAMILY_GROUP at a time, each group in one vector
    ODE started at the largest of its fibres' right starts.
    """
    if not (0.0 < alpha < 1.0):
        raise UsageError("the deficiency family construction assumes alpha in (0, 1)")
    if xi_samples < 8:
        raise UsageError("need at least 8 fibre samples")
    a, b = _bounded_interval(interval, "interval")
    if other_interval is not None:
        a2, b2 = _bounded_interval(other_interval, "other interval")
        if a2 <= b and a <= b2:
            raise UsageError("other interval must be disjoint from the interval")

    profile = power_law(alpha)
    xi_values = np.linspace(a, b, xi_samples)

    max_res = 0.0
    max_norm_err = 0.0
    contradiction = False
    for start in range(0, xi_values.size, FAMILY_GROUP):
        res, norm_err, failed = _check_family_group(profile, xi_values[start:start + FAMILY_GROUP])
        max_res = max(max_res, res)
        max_norm_err = max(max_norm_err, norm_err)
        contradiction = contradiction or failed

    # ||Phi_J||^2 = |J| once each fibre is normalised
    family_norm_sq = float(np.trapezoid(np.ones_like(xi_values), xi_values))

    max_cross = None
    if other_interval is not None:
        # indicator overlap on the joint grid; disjoint supports give 0
        joint = np.union1d(xi_values, np.linspace(a2, b2, xi_samples))
        ind1 = ((joint >= a) & (joint <= b)).astype(float)
        ind2 = ((joint >= a2) & (joint <= b2)).astype(float)
        max_cross = float(np.trapezoid(ind1 * ind2, joint))

    return DeficiencyFamilyReport(
        alpha=alpha,
        interval=(a, b),
        xi_values=xi_values,
        max_residual=max_res,
        max_norm_error=max_norm_err,
        max_cross_inner=max_cross,
        family_norm_sq=family_norm_sq,
        contradiction=contradiction,
        grid={
            "observation_grid": [OBS_GRID_LO, OBS_GRID_HI, OBS_GRID_STEP],
            "x_min": FAMILY_X_MIN,
            "fd_order": 4,
        },
    )
