"""Warped half-plane geometries and their fibre potentials.

A profile describes the metric

    g = dx^2 + f(x)^2 dy^2        on  M = (0, inf) x R,

through the warp function f and its first two derivatives.  The power-law
family f(x) = x^(-alpha) is the main object of study; alpha = 1 is the
classical Grushin half-plane and alpha = 0 the Euclidean one.  Custom
profiles are supported as long as f, f', f'' can be evaluated on x > 0.

The effective fibre potential

    W_xi(x) = xi^2/f^2 + (2 f f'' - f'^2)/(4 f^2)
            (power law: xi^2 x^(2 alpha) + alpha(2+alpha)/(4 x^2))

is what the Laplace-Beltrami operator becomes on each Fourier fibre after
the unitary rescaling psi -> sqrt(f) psi; all endpoint classification and
fibre dynamics in the sibling modules is driven by it.  Every profile
carries its two pieces, the curvature term and 1/f^2, as plain callables.

Admissibility of a profile is the conjunction of four sampled conditions:

    (i)   f(x) > 0,
    (ii)  f(x) >= kappa on the neighbourhood (0, 1] of zero,
    (iii) f, f', f'' finite (smoothness proxy on a grid),
    (iv)  2 f f'' - f'^2 >= 0.

Condition (iv) guarantees W_xi >= 0; the power law satisfies it exactly
when alpha(2+alpha) >= 0, i.e. outside (-2, 0).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import UsageError

__all__ = [
    "GrushinProfile",
    "FibrePotential",
    "AssumptionCheck",
    "AssumptionReport",
    "power_law",
    "custom_profile",
    "builtin_profile",
    "parse_profile_config",
    "load_profile",
    "check_assumptions",
    "BUILTIN_CUSTOM_PROFILES",
]

# admissibility (ii) is checked on (0, NEAR_ZERO_END]
NEAR_ZERO_END = 1.0


@dataclass(frozen=True)
class GrushinProfile:
    """Immutable warp function (f, f', f'') and the two fibre-potential
    pieces it determines: ``base_potential(x)``, the curvature part
    (2 f f'' - f'^2)/(4 f^2), invariant under f -> lambda f, and
    ``inv_f_squared(x)``, 1/f^2.  Every constructor fills both.

    Instances are safe to share across threads; every evaluator is pure.
    ``alpha`` is set only for the power-law family.  ``kappa`` declares
    the lower bound of admissibility condition (ii) on (0, NEAR_ZERO_END];
    the declaration is verified, not enforced, by
    :func:`check_assumptions`.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    base_potential: Callable[[np.ndarray], np.ndarray]
    inv_f_squared: Callable[[np.ndarray], np.ndarray]
    kappa: float
    alpha: float | None = None
    name: str = "custom"
    # Smallest x at which f, f', f'' are float-representable; sampling
    # grids are clipped here (and the clip is reported).
    x_float_min: float = 0.0

    def __post_init__(self):
        if not (self.kappa > 0.0) or not math.isfinite(self.kappa):
            raise UsageError("kappa must be a positive real")

    @property
    def is_power_law(self) -> bool:
        return self.alpha is not None


@dataclass(frozen=True)
class FibrePotential:
    """The half-line potential W_xi(x) seen by one Fourier fibre.

    ``xi`` is the Fourier variable dual to y (an integer mode number in
    cylinder geometry).  W is evaluated lazily through the profile so a
    single object can be broadcast over grids.
    """

    xi: float
    profile: GrushinProfile

    def __call__(self, x):
        return self.profile.base_potential(x) + self.xi**2 * self.profile.inv_f_squared(x)


def power_law(alpha: float, scale: float = 1.0) -> GrushinProfile:
    """Profile f(x) = scale * x^(-alpha) with analytic derivatives."""
    if not math.isfinite(alpha):
        raise UsageError("alpha must be finite")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise UsageError("scale must be a positive real")
    a = float(alpha)
    lam = float(scale)

    def f(x):
        return lam * x ** (-a)

    def f1(x):
        return -a * lam * x ** (-a - 1.0)

    def f2(x):
        return a * (a + 1.0) * lam * x ** (-a - 2.0)

    def base_potential(x):
        return a * (2.0 + a) / (4.0 * x * x)

    def inv_f_squared(x):
        return x ** (2.0 * a) / lam**2

    name = f"power_law(alpha={a:g})" if lam == 1.0 else f"power_law(alpha={a:g}, scale={lam:g})"
    # kappa = lam: on (0, 1] the power law is minimised at x = 1 when
    # alpha >= 0; the declared bound is honest there and knowingly fails
    # for alpha < 0.
    return GrushinProfile(f, f1, f2, base_potential, inv_f_squared, kappa=lam, alpha=a,
                          name=name)


def custom_profile(
    f: Callable,
    f1: Callable,
    f2: Callable,
    *,
    kappa: float,
    name: str = "custom",
    base_w: Callable | None = None,
    inv_f2: Callable | None = None,
    x_float_min: float = 0.0,
) -> GrushinProfile:
    """Wrap user-supplied evaluators f, f', f'' into a profile.

    ``base_w`` and ``inv_f2`` are closed forms of the two potential
    pieces, needed when f itself overflows near 0 (e.g. exp(1/x)) although
    the pieces stay representable; a piece left out is computed from
    f, f', f''.
    """

    def generic_base_potential(x):
        fx, f1x, f2x = f(x), f1(x), f2(x)
        return (2.0 * fx * f2x - f1x * f1x) / (4.0 * fx * fx)

    def generic_inv_f_squared(x):
        fx = f(x)
        return 1.0 / (fx * fx)

    base = base_w if base_w is not None else generic_base_potential
    inv = inv_f2 if inv_f2 is not None else generic_inv_f_squared
    return GrushinProfile(f, f1, f2, base, inv, kappa=kappa, name=name, x_float_min=x_float_min)


def _exp_inverse_profile() -> GrushinProfile:
    """f(x) = exp(1/x): non-power-law, admissible, W ~ 1/(4 x^4) near 0.

    The raw evaluators overflow below x ~ 3e-3, but the combinations
    driving classification stay representable:
    (2 f f'' - f'^2)/(4 f^2) = 1/x^3 + 1/(4 x^4) and 1/f^2 = exp(-2/x).
    """

    def f(x):
        return np.exp(1.0 / x)

    def f1(x):
        return -np.exp(1.0 / x) / (x * x)

    def f2(x):
        return np.exp(1.0 / x) * (2.0 * x + 1.0) / x**4

    def base_w(x):
        return 1.0 / x**3 + 0.25 / x**4

    def inv_f2(x):
        return np.exp(-2.0 / x)

    return custom_profile(
        f, f1, f2, kappa=math.e, name="exp_inverse",
        base_w=base_w, inv_f2=inv_f2, x_float_min=3e-3,
    )


BUILTIN_CUSTOM_PROFILES: Mapping[str, Callable[[], GrushinProfile]] = {
    "exp_inverse": _exp_inverse_profile}


def builtin_profile(name: str) -> GrushinProfile:
    try:
        factory = BUILTIN_CUSTOM_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_CUSTOM_PROFILES))
        raise UsageError(f"unknown builtin profile {name!r} (known: {known})") from None
    return factory()


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheck:
    condition: str
    passed: bool
    first_violation: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    """Grid-sampled admissibility report.

    The sampling grid is retained verbatim so any reported violation can
    be reproduced exactly.
    """

    profile_name: str
    grid: np.ndarray = field(repr=False)
    checks: tuple[AssumptionCheck, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, condition: str) -> AssumptionCheck:
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)

    def summary(self) -> str:
        parts = [f"{c.condition}:{'pass' if c.passed else 'FAIL'}" for c in self.checks]
        return f"{self.profile_name} [{', '.join(parts)}]"


def _first_violation(grid: np.ndarray, bad: np.ndarray) -> float | None:
    idx = np.flatnonzero(bad)
    return float(grid[idx[0]]) if idx.size else None


def check_assumptions(profile: GrushinProfile,
                      grid: Sequence[float] | np.ndarray) -> AssumptionReport:
    """Evaluate admissibility conditions (i)-(iv) pointwise on ``grid``.

    ``grid`` must hold at least 100 strictly positive samples (a
    log-spaced grid is expected so several decades near zero are probed).
    Condition (iv) is tested as 2 f f'' - f'^2 >= -1e-12 |f^2/x^2| so that
    exact-equality profiles (alpha = 1, constant f) pass under roundoff.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise UsageError("assumption check requires a non-empty grid")
    if grid.size < 100:
        raise UsageError(f"assumption grid needs >= 100 points, got {grid.size}")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise UsageError("assumption grid must lie strictly inside (0, inf)")
    grid = np.sort(grid)
    clipped = ""
    if profile.x_float_min > 0.0 and grid[0] < profile.x_float_min:
        grid = grid[grid >= profile.x_float_min]
        if grid.size < 100:
            raise UsageError(
                f"grid has fewer than 100 points above the profile's float "
                f"floor x >= {profile.x_float_min:g}"
            )
        clipped = f"; grid clipped to x >= {profile.x_float_min:g} (float range)"

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fx = np.asarray(profile.f(grid), dtype=float)
        f1x = np.asarray(profile.f1(grid), dtype=float)
        f2x = np.asarray(profile.f2(grid), dtype=float)
        base = np.asarray(profile.base_potential(grid), dtype=float)

    checks = []

    bad_i = ~(np.isfinite(fx) & (fx > 0.0))
    checks.append(
        AssumptionCheck("(i) positivity", not bad_i.any(), _first_violation(grid, bad_i),
                        "f(x) > 0 for all sampled x" + clipped)
    )

    window = grid <= NEAR_ZERO_END
    if window.any():
        bad_ii = window & ~(fx >= profile.kappa)
        detail = (f"f >= kappa={profile.kappa:g} on (0, {NEAR_ZERO_END:g}], "
                  f"{int(window.sum())} samples")
        checks.append(
            AssumptionCheck("(ii) lower bound near 0", not bad_ii.any(),
                            _first_violation(grid, bad_ii), detail)
        )
    else:
        checks.append(
            AssumptionCheck("(ii) lower bound near 0", True, None,
                            "no grid samples inside the declared neighbourhood")
        )

    bad_iii = ~(np.isfinite(fx) & np.isfinite(f1x) & np.isfinite(f2x))
    checks.append(
        AssumptionCheck("(iii) smoothness", not bad_iii.any(), _first_violation(grid, bad_iii),
                        "f, f', f'' finite at all samples (grid proxy)")
    )

    # (iv) tested in the scale-invariant form (2 f f'' - f'^2)/(4 f^2) >= 0,
    # equivalent by condition (i) and robust against overflow of f itself.
    slack = 1e-12 * (np.abs(base) + 1.0 / (grid * grid))
    bad_iv = ~(base >= -slack)
    checks.append(
        AssumptionCheck("(iv) concavity combination", not bad_iv.any(),
                        _first_violation(grid, bad_iv),
                        "2 f f'' - f'^2 >= 0 (within roundoff slack)")
    )

    return AssumptionReport(profile_name=profile.name, grid=grid, checks=tuple(checks))


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

_PROFILE_SECTION = "profile"
# the keys each profile kind reads; any other key is a usage error
_CONFIG_KEYS = {"power_law": {"kind", "alpha", "scale"}, "custom": {"kind", "name"}}


def parse_profile_config(text: str) -> GrushinProfile:
    """Build a profile from `key = value` configuration text.

    Recognised keys: ``kind`` (power_law | custom); for power_law:
    ``alpha`` and optional ``scale``; for custom: ``name`` of a builtin.
    A key the kind does not read is a usage error.  A ``[profile]``
    section header is optional.
    """
    stripped = text.lstrip()
    if not stripped.startswith("["):
        text = f"[{_PROFILE_SECTION}]\n" + text
    parser = configparser.ConfigParser()
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise UsageError(f"malformed profile config: {exc}") from exc
    section = parser[_PROFILE_SECTION] if parser.has_section(_PROFILE_SECTION) else parser[parser.sections()[0]]

    kind = section.get("kind", "").strip().lower()
    if kind not in _CONFIG_KEYS:
        raise UsageError(f"profile config field 'kind' must be power_law or custom, got {kind!r}")
    unknown = sorted(set(section) - _CONFIG_KEYS[kind])
    if unknown:
        raise UsageError(f"{kind} profile config has unknown key(s): {', '.join(unknown)}")
    if kind == "custom":
        name = section.get("name", "").strip()
        if not name:
            raise UsageError("custom profile config requires field 'name'")
        return builtin_profile(name)
    if "alpha" not in section:
        raise UsageError("power_law profile config requires field 'alpha'")
    try:
        alpha = float(section["alpha"])
        scale = float(section.get("scale", "1.0"))
    except ValueError as exc:
        raise UsageError(f"non-numeric profile field: {exc}") from exc
    return power_law(alpha, scale=scale)


def load_profile(path) -> GrushinProfile:
    """Read a profile definition from a config file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile_config(fh.read())
