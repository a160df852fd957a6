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
    grid = np.asarray(grid, dtype=float)
    if grid.size < 200:
        raise UsageError("inequality classification needs >= 200 grid points")
    if profile.x_float_min > 0.0:
        grid = grid[grid >= profile.x_float_min]
        if grid.size < 200:
            raise UsageError(
                "fewer than 200 grid points above the profile's float floor"
            )
    assumptions = check_assumptions(profile, grid)
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


def _deficiency_rhs(x, y, pot):
    u = y[0] + 1j * y[1]
    v = y[2] + 1j * y[3]
    du = v
    dv = (pot(x) - 1j) * u
    return (du.real, du.imag, dv.real, dv.imag)


def _scale_invariant_mag(x, y):
    # sqrt(|u|^2 + |x u'|^2): homogeneous of degree s for Frobenius
    # solutions u ~ x^s, and never zero (u and u' cannot vanish together).
    return math.sqrt(y[0] ** 2 + y[1] ** 2 + (x * y[2]) ** 2 + (x * y[3]) ** 2)


def _magnitude_guard(x, y, pot):
    m2 = y[0] ** 2 + y[1] ** 2 + (x * y[2]) ** 2 + (x * y[3]) ** 2
    return math.log(m2) - 200.0


_magnitude_guard.terminal = True
_magnitude_guard.direction = 1.0


def _amplitude_slopes(pot: FibrePotential):
    """Growth exponents of the deficiency solutions over the last block.

    Integrates -u'' + W u = i u inward from X_START to X_END for the two
    canonical initial conditions, one half-decade block at a time and
    renormalising after each, so the exponent of the dominant local
    solution can be read from amplitude ratios without overflow.  Returns
    (the last block's slope of each initial condition, early_limit_point),
    where an early stop is triggered by hyper-fast growth (more singular
    than any inverse square) and its slope is that of the stopped block.
    """
    from scipy.integrate import solve_ivp

    n_blocks = int(math.ceil(2.0 * math.log10(X_START / X_END)))
    edges = np.geomspace(X_START, X_END, n_blocks + 1)
    slopes = []
    for ic in ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, X_START, 0.0)):
        y = np.array(ic) / _scale_invariant_mag(X_START, ic)
        for k in range(n_blocks):
            a, b = edges[k], edges[k + 1]
            sol = solve_ivp(
                _deficiency_rhs,
                (a, b),
                y,
                args=(pot,),
                method="DOP853",
                rtol=1e-10,
                atol=1e-30,
                events=_magnitude_guard,
            )
            if sol.status == -1:
                raise NumericError(f"deficiency ODE integration failed: {sol.message}")
            x_last = float(sol.t[-1])
            y = sol.y[:, -1]
            m = _scale_invariant_mag(x_last, y)
            slope = math.log(m) / (math.log(x_last) - math.log(a))
            if sol.status == 1:
                # the magnitude guard fired: growth beyond e^100 within
                # half a decade, steeper than any inverse-square profile
                # (one solve over all blocks would measure it over seven)
                return slopes + [slope], True
            y = y / m
        slopes.append(slope)
    return slopes, False


def classify_numeric(pot: FibrePotential, *, mode: Mode = Mode.PLANE) -> WeylReport:
    """Classify a fibre at x = 0 by sampling plus ODE integration.

    The indicial fit estimates c0 = lim x^2 W on 26 samples spanning
    five decades down to X_END; the cross-check integrates the
    deficiency equation inward from X_START with two independent initial
    conditions and reads the dominant growth exponent s from per-decade
    amplitude ratios: both local solutions are square integrable near
    zero iff s > -1/2.  The routes must agree; disagreement raises
    :class:`InconclusiveClassification` rather than silently picking a
    side.
    """
    mode = Mode(mode)
    if mode is Mode.CYLINDER and float(pot.xi) != int(pot.xi):
        raise UsageError("cylinder mode indexes fibres by integer k")

    c0, c0_err = _fit_c0(pot)
    lp_fit = c0 >= CRITICAL_COEFFICIENT - max(C0_FIT_TOL, 2.0 * c0_err)

    slopes, early_lp = _amplitude_slopes(pot)
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
    """Classify every fibre in ``xi_values``, analytic when possible."""
    xi_values = [float(v) for v in xi_values]
    use_analytic = method == "analytic" or (method == "auto" and profile.is_power_law)
    if method == "analytic" and not profile.is_power_law:
        raise UsageError("analytic classification requires a power-law profile")
    if use_analytic:
        return [classify_power_law(profile.alpha, xi, mode) for xi in xi_values]
    return [classify_numeric(FibrePotential(xi=xi, profile=profile), mode=mode)
            for xi in xi_values]


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


def _solve_l2_solution(pot: FibrePotential):
    """Integrate the deficiency equation inward from the far region to
    FAMILY_X_MIN, seeding the decaying WKB branch; returns the dense
    solution."""
    from scipy.integrate import solve_ivp

    x_right = _right_start(pot)
    k = np.sqrt(complex(pot(x_right)) - 1j)
    if k.real < 0:
        k = -k
    y0 = (1.0, 0.0, -k.real, -k.imag)
    sol = solve_ivp(
        _deficiency_rhs,
        (x_right, FAMILY_X_MIN),
        y0,
        args=(pot,),
        method="DOP853",
        rtol=1e-12,
        atol=1e-280,
        dense_output=True,
        first_step=min(0.1, 1.0 / max(abs(k), 1.0)),
    )
    if sol.status != 0:
        raise NumericError(f"deficiency solve failed: {sol.message}")
    return sol, x_right


def _eval(sol, x):
    vals = sol.sol(x)
    return vals[0] + 1j * vals[1]


def _norm_pieces(sol, x_right, refine: int = 1):
    """L^2 norm^2 on (0, x_right): log-grid rule near zero, uniform rule
    outside, plus the analytic power tail below FAMILY_X_MIN."""
    from scipy.integrate import simpson

    x_min = FAMILY_X_MIN
    n_log, n_uni = 2001 * refine, 12001 * refine
    x_log = np.geomspace(x_min, OBS_GRID_LO, n_log)
    p_log = np.abs(_eval(sol, x_log)) ** 2
    m_log = simpson(p_log, x=x_log)
    x_uni = np.linspace(OBS_GRID_LO, x_right, n_uni)
    m_uni = simpson(np.abs(_eval(sol, x_uni)) ** 2, x=x_uni)
    # fitted local exponent over the last decade above x_min
    m1 = np.abs(_eval(sol, x_min))
    m2 = np.abs(_eval(sol, 10.0 * x_min))
    s_fit = math.log(m2 / m1) / math.log(10.0)
    tail = 0.0
    if 2.0 * s_fit + 1.0 > 1e-6:
        tail = float(m1**2 * x_min / (2.0 * s_fit + 1.0))
    return float(m_log + m_uni + tail), s_fit


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

    h = OBS_GRID_STEP
    xs = np.arange(OBS_GRID_LO, OBS_GRID_HI, h)
    xc = xs[2:-2]

    max_res = 0.0
    max_norm_err = 0.0
    contradiction = False
    for xi in xi_values:
        pot = FibrePotential(xi=float(xi), profile=profile)
        sol, x_right = _solve_l2_solution(pot)
        norm_sq, s_fit = _norm_pieces(sol, x_right)
        if s_fit <= CRITICAL_EXPONENT + 1e-3:
            contradiction = True
        scale = 1.0 / math.sqrt(norm_sq)
        phi = _eval(sol, xs) * scale
        # independent arithmetic path: 4th-order central differences
        upp = (-phi[4:] + 16 * phi[3:-1] - 30 * phi[2:-2] + 16 * phi[1:-3] - phi[:-4]) / (
            12.0 * h * h
        )
        res = np.abs(-upp + (pot(xc) - 1j) * phi[2:-2])
        max_res = max(max_res, float(res.max()))
        norm_refined, _ = _norm_pieces(sol, x_right, refine=2)
        max_norm_err = max(max_norm_err, abs(math.sqrt(norm_refined) * scale - 1.0))

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
            "observation_grid": [OBS_GRID_LO, OBS_GRID_HI, h],
            "x_min": FAMILY_X_MIN,
            "fd_order": 4,
        },
    )
