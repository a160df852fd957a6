"""Fibre-wise Schroedinger dynamics on truncated half-line grids.

The transformed generator acts on each Fourier fibre as

    H_xi = -d^2/dx^2 + W_xi(x)     on (0, inf),

and the full evolution is assembled fibre by fibre.  Numerically each
fibre lives on a truncated interval [eps, L] with a hard Dirichlet wall
at L and a configurable condition at the inner cutoff eps: Dirichlet
(the proxy for the Friedrichs, confinement-preserving realisation) or
Robin with parameter beta, discretised by one-sided elimination of the
boundary node,

    u'(eps) = beta u(eps)   ->   u_0 = u_1 / (1 + beta h),

which keeps the operator real symmetric tridiagonal.

Time stepping is implicit midpoint (Crank-Nicolson),

    (1 + i dt H / 2) psi^{n+1} = (1 - i dt H / 2) psi^n,

a Cayley transform of the Hermitian discrete Hamiltonian, hence exactly
unitary in the discrete L^2 norm; explicit schemes are ruled out by the
inverse-square growth of W near the cutoff.  The factorisation of the
left-hand matrix is done once per (grid, potential, dt).

``bc_sensitivity`` is the confinement probe: evolve identical initial
data under Dirichlet-at-eps and Robin-at-eps and record the distance

    D(eps) = || psi_Dirichlet(t_final) - psi_Robin(t_final) ||

as the cutoff is pushed towards the boundary.  In the confining regime
the inner condition is asymptotically irrelevant and D collapses
rapidly; outside it the collapse is measurably slower.  All protocol
constants (standard Gaussian data, wall placement, resolution rule) are
fixed here so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DataError, NumericError, ProtocolError, UsageError
from .profiles import FibrePotential, GrushinProfile, power_law

__all__ = [
    "FibreGrid",
    "BoundaryCondition",
    "FibreEvolutionState",
    "CrankNicolson",
    "PlaneWavefunction",
    "evolve_fibre",
    "gaussian_packet",
    "choose_outer_wall",
    "bc_sensitivity",
    "BcSensitivityResult",
    "to_transformed",
    "to_original",
    "evolve_plane",
    "PlaneEvolutionResult",
]

# protocol constants for the sensitivity experiment
GAUSS_CENTER = 2.0
GAUSS_WIDTH = 0.3
WALL_ENERGY = 160.0
FREE_WALL = 30.0
WALL_MASS_LIMIT = 1e-8
SPACING_CAP = 0.01
RESOLUTION_LIMIT = 0.5  # spacing^2 * max W, the grid invariant
# the sensitivity protocol resolves the cutoff boundary layer more finely
# so that D(eps) is stable under spacing refinement
SENSITIVITY_RESOLUTION = 0.04


@dataclass(frozen=True)
class FibreGrid:
    """Uniform interior grid for the truncated half-line [eps, L].

    Nodes are x_j = eps + j * spacing for j = 1..n; the boundary nodes
    j = 0 and j = n+1 carry the boundary conditions and are not stored.
    """

    eps: float
    L: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.eps < self.L):
            raise UsageError("grid requires 0 < eps < L")
        if self.n < 100:
            raise UsageError("grid requires at least 100 interior points")

    @property
    def spacing(self) -> float:
        return (self.L - self.eps) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.eps + self.spacing * np.arange(1, self.n + 1)

    def validate_resolution(self, w_values: np.ndarray) -> None:
        """Enforce spacing^2 * max |W| <= 0.5 on this grid."""
        wmax = float(np.max(np.abs(w_values)))
        if self.spacing**2 * wmax > RESOLUTION_LIMIT:
            raise UsageError(
                f"grid spacing {self.spacing:.3e} does not resolve the potential "
                f"(spacing^2 * maxW = {self.spacing ** 2 * wmax:.3g} > {RESOLUTION_LIMIT})"
            )

    @classmethod
    def resolved(
        cls,
        eps: float,
        L: float,
        pot: FibrePotential,
        spacing_cap: float = SPACING_CAP,
        refine: int = 1,
        resolution: float = RESOLUTION_LIMIT,
    ) -> "FibreGrid":
        """Choose n so spacing^2 * max W <= resolution, with a
        wave-resolution cap on the spacing.

        ``resolution`` may be tightened below the 0.5 invariant when the
        behaviour near the cutoff must be resolved accurately; ``refine``
        divides the spacing uniformly (refine=2 halves it) for
        convergence studies.
        """
        if not (0.0 < resolution <= RESOLUTION_LIMIT):
            raise UsageError(f"resolution target must lie in (0, {RESOLUTION_LIMIT}]")
        w_edge = max(abs(float(pot(eps))), abs(float(pot(L))))
        h = min(spacing_cap, math.sqrt(resolution / max(w_edge, 1.0))) / refine
        n = max(100, int(math.ceil((L - eps) / h)) - 1)
        return cls(eps=eps, L=L, n=n)


@dataclass(frozen=True)
class BoundaryCondition:
    """Condition applied at the inner cutoff; the outer wall is always
    Dirichlet."""

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise UsageError("boundary condition kind must be dirichlet or robin")
        if self.kind == "robin" and not math.isfinite(self.beta):
            raise UsageError("Robin parameter beta must be finite")

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(kind="dirichlet")

    @classmethod
    def robin(cls, beta: float = 1.0) -> "BoundaryCondition":
        return cls(kind="robin", beta=beta)

    def label(self) -> str:
        return self.kind if self.kind == "dirichlet" else f"robin(beta={self.beta:g})"


@dataclass(frozen=True)
class FibreEvolutionState:
    """Complex wavefunction on the interior nodes of one fibre."""

    xi: float
    grid: FibreGrid
    psi: np.ndarray = field(repr=False)
    t: float
    bc: BoundaryCondition
    profile: GrushinProfile | None = None

    def potential(self) -> FibrePotential:
        if self.profile is None:
            raise UsageError("state carries no profile; cannot evaluate the potential")
        return FibrePotential(xi=self.xi, profile=self.profile)

    def norm(self) -> float:
        return math.sqrt(self.grid.spacing * float(np.sum(np.abs(self.psi) ** 2)))


def _hamiltonian_diagonals(grid: FibreGrid, w_values: np.ndarray, bc: BoundaryCondition):
    h = grid.spacing
    main = 2.0 / h**2 + w_values.astype(float)
    off = np.full(grid.n - 1, -1.0 / h**2)
    if bc.kind == "robin":
        denom = 1.0 + bc.beta * h
        if denom <= 0.0:
            raise UsageError("Robin elimination requires 1 + beta*h > 0")
        main = main.copy()
        main[0] = (2.0 - 1.0 / denom) / h**2 + w_values[0]
    return main, off


class CrankNicolson:
    """Unitary Cayley stepper for one fibre; factorises once per dt."""

    def __init__(self, grid: FibreGrid, w_values: np.ndarray, bc: BoundaryCondition, dt: float):
        if dt <= 0.0:
            raise UsageError("dt must be positive")
        grid.validate_resolution(w_values)
        self.grid, self.bc, self.dt = grid, bc, dt
        main, off = _hamiltonian_diagonals(grid, np.asarray(w_values, dtype=float), bc)
        z = 0.5j * dt
        d = 1.0 + z * main
        dl = z * off.astype(complex)
        du = dl.copy()
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
        dl_f, d_f, du_f, du2_f, ipiv, info = gttrf(dl, d, du)
        if info != 0:
            raise NumericError(f"tridiagonal factorisation failed (info={info})")
        self._factors = (dl_f, d_f, du_f, du2_f, ipiv)
        self._gttrs = gttrs

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One Cayley step in solve-only form: with A = 1 + i dt H/2 the
        right-hand matrix is 2 - A, so A^{-1} (2 - A) psi = 2 A^{-1} psi - psi."""
        out, info = self._gttrs(*self._factors, psi)
        if info != 0:
            raise NumericError(f"tridiagonal solve failed (info={info})")
        out *= 2.0
        out -= psi
        return out

    def evolve(self, psi: np.ndarray, nsteps: int, record: bool = False):
        """Apply ``nsteps`` steps to ``psi``; returns the final state and the
        trace of sum |psi|^2, after every step with ``record``, else at the
        start and the end only."""
        psi = np.array(psi, dtype=complex)
        sumsq = [float(np.sum(np.abs(psi) ** 2))]
        for _ in range(nsteps):
            psi = self.step(psi)
            if record:
                sumsq.append(float(np.sum(np.abs(psi) ** 2)))
        if not record:
            sumsq.append(float(np.sum(np.abs(psi) ** 2)))
        return psi, np.array(sumsq)


def _step_count(t: float, dt: float) -> int:
    """Number of steps of size ``dt`` spanning ``t``, which must be a whole
    multiple of ``dt``: the final time is never silently moved."""
    if not dt > 0.0:
        raise UsageError("dt must be positive")
    ratio = t / dt
    n = round(ratio) if math.isfinite(ratio) else -1
    if n < 0 or abs(ratio - n) > 1e-9 * max(1, n):
        raise UsageError(f"evolution time {t:g} is not a whole number of steps dt={dt:g}")
    return n


def evolve_fibre(
    state: FibreEvolutionState,
    t_final: float,
    dt: float,
    record_norms: bool = False,
):
    """Evolve a fibre state to ``t_final``; returns (state, norm trace)."""
    nsteps = _step_count(t_final - state.t, dt)
    pot = state.potential()
    stepper = CrankNicolson(state.grid, pot(state.grid.nodes), state.bc, dt)
    psi, sumsq = stepper.evolve(state.psi, nsteps, record_norms)
    new_state = replace(state, psi=psi, t=state.t + nsteps * dt)
    return new_state, np.sqrt(state.grid.spacing * sumsq)


def gaussian_packet(grid: FibreGrid, center: float = GAUSS_CENTER, width: float = GAUSS_WIDTH):
    """Standard unit-norm real Gaussian on the interior nodes."""
    x = grid.nodes
    psi = np.exp(-((x - center) ** 2) / (2.0 * width**2)).astype(complex)
    nrm = math.sqrt(grid.spacing * float(np.sum(np.abs(psi) ** 2)))
    if nrm == 0.0:
        raise UsageError("Gaussian data vanishes on this grid")
    return psi / nrm


def choose_outer_wall(pot: FibrePotential, energy: float = WALL_ENERGY,
                      free_wall: float = FREE_WALL) -> float:
    """Outer wall position: the classical turning point of the fastest
    packet component if the potential provides one, else the free-flight
    wall."""
    xs = np.linspace(GAUSS_CENTER, free_wall, 600)
    w = np.asarray(pot(xs), dtype=float)
    idx = int(np.argmax(w >= energy))
    if w[idx] < energy:
        return free_wall
    return min(free_wall, float(xs[idx]) * 1.25 + 1.0)


@dataclass(frozen=True)
class BcSensitivityResult:
    """D(eps) table with the wall diagnostics of each run."""

    alpha: float
    xi: float
    t_final: float
    rows: tuple[tuple[float, float], ...]  # (eps, D)
    wall_mass: tuple[float, ...]
    norm_drift: float
    trend: str
    config: dict = field(default_factory=dict, compare=False)

    @property
    def ratio_end_to_start(self) -> float:
        return self.rows[-1][1] / self.rows[0][1]


def _sensitivity_run(pot, eps, bc, t_final, dt, spacing_cap, refine, L, resolution):
    grid = FibreGrid.resolved(eps, L, pot, spacing_cap=spacing_cap, refine=refine,
                              resolution=resolution)
    psi0 = gaussian_packet(grid)
    state = FibreEvolutionState(
        xi=pot.xi, grid=grid, psi=psi0, t=0.0, bc=bc, profile=pot.profile
    )
    final, norms = evolve_fibre(state, t_final, dt)
    x = grid.nodes
    wall_zone = x >= L - 0.5
    wall_mass = grid.spacing * float(np.sum(np.abs(final.psi[wall_zone]) ** 2))
    drift = abs(norms[-1] - norms[0])
    return final, wall_mass, drift


def bc_sensitivity(
    alpha: float,
    xi: float,
    t_final: float,
    eps_grid: Sequence[float],
    *,
    beta: float = 1.0,
    dt: float = 1e-3,
    spacing_cap: float = SPACING_CAP,
    refine: int = 1,
    resolution: float = SENSITIVITY_RESOLUTION,
    profile: GrushinProfile | None = None,
) -> BcSensitivityResult:
    """Cutoff boundary-condition sensitivity D(eps) for one fibre.

    For each eps in the (decreasing) grid, identical standard Gaussian
    data is evolved to ``t_final`` under Dirichlet-at-eps and under
    Robin(beta)-at-eps on the same grid, and D(eps) is the discrete L^2
    distance of the two final states.  The outer wall is positioned so
    that boundary mass at L stays below 1e-8; contamination raises
    :class:`ProtocolError` (enlarge the wall).
    """
    eps_list = [float(e) for e in eps_grid]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise UsageError("eps_grid must contain positive cutoffs")
    if sorted(eps_list, reverse=True) != eps_list:
        raise UsageError("eps_grid must be decreasing")
    prof = profile if profile is not None else power_law(alpha)
    pot = FibrePotential(xi=xi, profile=prof)
    L = choose_outer_wall(pot)
    if max(eps_list) >= GAUSS_CENTER - 4.0 * GAUSS_WIDTH:
        raise UsageError("largest eps overlaps the standard initial data")

    rows, walls, drifts = [], [], []
    for eps in eps_list:
        fin_d, wall_d, drift_d = _sensitivity_run(
            pot, eps, BoundaryCondition.dirichlet(), t_final, dt, spacing_cap,
            refine, L, resolution
        )
        fin_r, wall_r, drift_r = _sensitivity_run(
            pot, eps, BoundaryCondition.robin(beta), t_final, dt, spacing_cap,
            refine, L, resolution
        )
        wall = max(wall_d, wall_r)
        if wall > WALL_MASS_LIMIT:
            raise ProtocolError(
                f"outer wall contaminated (mass {wall:.2e} > {WALL_MASS_LIMIT}); enlarge L"
            )
        D = math.sqrt(
            fin_d.grid.spacing * float(np.sum(np.abs(fin_d.psi - fin_r.psi) ** 2))
        )
        rows.append((eps, D))
        walls.append(wall)
        drifts.append(max(drift_d, drift_r))

    ds = [d for _, d in rows]
    if all(b < a for a, b in zip(ds, ds[1:])):
        trend = "decreasing"
    elif all(b > a for a, b in zip(ds, ds[1:])):
        trend = "increasing"
    else:
        trend = "non-monotone"
    return BcSensitivityResult(
        alpha=alpha,
        xi=xi,
        t_final=t_final,
        rows=tuple(rows),
        wall_mass=tuple(walls),
        norm_drift=max(drifts),
        trend=trend,
        config={
            "beta": beta,
            "dt": dt,
            "spacing_cap": spacing_cap,
            "refine": refine,
            "resolution": resolution,
            "outer_wall": L,
            "gaussian": {"center": GAUSS_CENTER, "width": GAUSS_WIDTH},
            "profile": prof.name,
        },
    )


# ---------------------------------------------------------------------------
# plane (and cylinder) wavefunctions
# ---------------------------------------------------------------------------

ORIGINAL = "original"
TRANSFORMED = "transformed"


@dataclass(frozen=True)
class PlaneWavefunction:
    """Wavefunction on the rectangular (x, y) grid, in one of two unitarily
    equivalent representations.

    ``original``   : values(x, y) in L^2 with weight f(x) dx dy.
    ``transformed``: values(x, xi) in flat L^2(dx dxi) after the rescaling
                     psi -> sqrt(f) psi and the Fourier transform in y.

    ``axis`` holds the y nodes (original) or the xi frequencies
    (transformed); ``geometry`` is "plane" or "cylinder" (for the latter
    the y axis is the circle of circumference 2 pi and xi values are
    integer mode numbers).
    """

    values: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    axis: np.ndarray = field(repr=False)
    representation: str
    geometry: str = "plane"
    y0: float = 0.0

    def __post_init__(self):
        if self.representation not in (ORIGINAL, TRANSFORMED):
            raise UsageError("representation must be original or transformed")
        if self.geometry not in ("plane", "cylinder"):
            raise UsageError("geometry must be plane or cylinder")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def daxis(self) -> float:
        if self.axis.size < 2:
            return 1.0
        return float(abs(self.axis[1] - self.axis[0]))

    def norm(self, profile: GrushinProfile | None = None) -> float:
        dens = np.abs(self.values) ** 2
        if self.representation == ORIGINAL:
            if profile is None:
                raise UsageError("original-representation norm needs the profile")
            weight = np.asarray(profile.f(self.x), dtype=float)[:, None]
            return math.sqrt(self.dx * self.daxis * float(np.sum(dens * weight)))
        # transformed: flat measure dx dxi; for the cylinder dxi = 1
        return math.sqrt(self.dx * self._dxi() * float(np.sum(dens)))

    def _dxi(self) -> float:
        if self.representation == TRANSFORMED:
            return self.daxis if self.geometry == "plane" else 1.0
        raise UsageError("dxi only defined in the transformed representation")


def _check_finite(values):
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise DataError("wavefunction contains non-finite samples")


def _fft_frequencies(n: int, dy: float, geometry: str) -> np.ndarray:
    if geometry == "cylinder":
        return np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
    return 2.0 * math.pi * np.fft.fftfreq(n, d=dy)


def to_transformed(psi: PlaneWavefunction, profile: GrushinProfile) -> PlaneWavefunction:
    """Apply the unitary pair: multiply by sqrt(f), Fourier transform in y.

    The discrete transform is exactly unitary from the weighted to the
    flat norm, so norms agree to roundoff.
    """
    if psi.representation != ORIGINAL:
        raise UsageError("to_transformed expects the original representation")
    _check_finite(psi.values)
    ny = psi.axis.size
    if ny % 2 == 0:
        raise UsageError("use an odd number of y nodes so the xi grid is symmetric")
    dy = psi.daxis
    scaled = psi.values * np.sqrt(np.asarray(profile.f(psi.x), dtype=float))[:, None]
    freqs = _fft_frequencies(ny, dy, psi.geometry)
    phase = np.exp(-1j * freqs * psi.axis[0])[None, :]
    hat = (dy / math.sqrt(2.0 * math.pi)) * np.fft.fft(scaled, axis=1) * phase
    order = np.argsort(freqs)
    return PlaneWavefunction(
        values=hat[:, order],
        x=psi.x,
        axis=freqs[order],
        representation=TRANSFORMED,
        geometry=psi.geometry,
        y0=float(psi.axis[0]),
    )


def to_original(psi: PlaneWavefunction, profile: GrushinProfile,
                y_nodes: np.ndarray | None = None) -> PlaneWavefunction:
    """Inverse of :func:`to_transformed`."""
    if psi.representation != TRANSFORMED:
        raise UsageError("to_original expects the transformed representation")
    _check_finite(psi.values)
    n = psi.axis.size
    if psi.geometry == "cylinder":
        dy = 2.0 * math.pi / n
    else:
        span = psi.axis[-1] - psi.axis[0]
        dxi = span / (n - 1)
        dy = 2.0 * math.pi / (n * dxi)
    if y_nodes is None:
        y_nodes = psi.y0 + dy * np.arange(n)
    freqs_natural = _fft_frequencies(n, dy, psi.geometry)
    order = np.argsort(freqs_natural)
    hat_natural = np.empty_like(psi.values)
    hat_natural[:, order] = psi.values
    phase = np.exp(1j * freqs_natural * y_nodes[0])[None, :]
    dxi_step = psi._dxi()
    vals = (dxi_step * n / math.sqrt(2.0 * math.pi)) * np.fft.ifft(hat_natural * phase, axis=1)
    vals = vals / np.sqrt(np.asarray(profile.f(psi.x), dtype=float))[:, None]
    return PlaneWavefunction(
        values=vals,
        x=psi.x,
        axis=np.asarray(y_nodes, dtype=float),
        representation=ORIGINAL,
        geometry=psi.geometry,
        y0=float(y_nodes[0]),
    )


@dataclass(frozen=True)
class PlaneEvolutionResult:
    final: PlaneWavefunction
    norm_before: float
    norm_after: float
    fibre_norms: np.ndarray = field(repr=False)
    norm_trace: np.ndarray = field(repr=False)
    spectrum_edge_mass: float = 0.0
    config: dict = field(default_factory=dict, compare=False)

    @property
    def norm_drift(self) -> float:
        return abs(self.norm_after - self.norm_before)


def evolve_plane(
    psi0: PlaneWavefunction,
    profile: GrushinProfile,
    t_final: float,
    grid: FibreGrid,
    bc: BoundaryCondition,
    dt: float = 1e-3,
    jobs: int = 1,
) -> PlaneEvolutionResult:
    """Evolve a transformed wavefunction fibre by fibre to ``t_final``.

    Fibres are independent and are mapped through a pool of ``jobs``
    threads (the tridiagonal solves release the GIL); the assembled
    result does not depend on the evaluation order.  The xi grid must be
    symmetric about zero (odd FFT size); mass in the outermost frequency
    bins must be negligible for the assembly to represent the plane
    faithfully, and is recorded, as is the total-norm trace over the steps.
    """
    if psi0.representation != TRANSFORMED:
        raise UsageError("evolve_plane expects transformed initial data")
    if psi0.x.size != grid.n or abs(psi0.x[0] - grid.nodes[0]) > 1e-12:
        raise UsageError("initial data x grid does not match the fibre grid")
    _check_finite(psi0.values)
    if abs(psi0.axis[0] + psi0.axis[-1]) > 1e-9 * max(1.0, abs(float(psi0.axis[-1]))):
        raise UsageError("xi grid must be symmetric about 0")
    nsteps = _step_count(t_final, dt)

    dens = np.abs(psi0.values) ** 2
    total = float(np.sum(dens))
    edge = float(np.sum(dens[:, [0, -1]]))
    edge_mass = edge / total if total > 0 else 0.0
    norm_before = psi0.norm()

    def run_column(m):
        pot = FibrePotential(xi=float(psi0.axis[m]), profile=profile)
        try:
            stepper = CrankNicolson(grid, pot(grid.nodes), bc, dt)
            return stepper.evolve(psi0.values[:, m], nsteps, record=True)
        except NumericError as exc:
            raise NumericError(f"fibre xi={psi0.axis[m]:g} (index {m}): {exc}") from exc

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        columns, traces = zip(*pool.map(run_column, range(psi0.axis.size)))
    out = np.column_stack(columns)

    final = PlaneWavefunction(
        values=out,
        x=psi0.x,
        axis=psi0.axis,
        representation=TRANSFORMED,
        geometry=psi0.geometry,
        y0=psi0.y0,
    )
    fibre_norms = np.sqrt(grid.spacing * np.sum(np.abs(out) ** 2, axis=0) * final._dxi())
    norm_trace = np.sqrt(grid.spacing * final._dxi() * np.sum(np.column_stack(traces), axis=1))
    return PlaneEvolutionResult(
        final=final,
        norm_before=norm_before,
        norm_after=final.norm(),
        fibre_norms=fibre_norms,
        norm_trace=norm_trace,
        spectrum_edge_mass=edge_mass,
        config={
            "t_final": t_final,
            "dt": dt,
            "bc": bc.label(),
            "grid": {"eps": grid.eps, "L": grid.L, "n": grid.n},
            "geometry": psi0.geometry,
            "profile": profile.name,
        },
    )
