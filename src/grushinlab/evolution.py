"""Fibre-wise Schroedinger dynamics on truncated half-line grids.

The transformed generator acts on each Fourier fibre as

    H_xi = -d^2/dx^2 + W_xi(x)     on (0, inf),

and the full evolution is assembled fibre by fibre.  Numerically each
fibre lives on a truncated interval [eps, L] with a hard Dirichlet wall
at L and a configurable condition at the inner cutoff eps: Dirichlet
(the proxy for the Friedrichs, confinement-preserving realisation) or
Robin with parameter beta.

The interior nodes x_1 < ... < x_n need not be equally spaced
(:class:`FibreGrid`); the cells are h_{j+1/2} = x_{j+1} - x_j, with
x_0 = eps and x_{n+1} = L.  Each fibre is discretised by linear finite
elements with the averaged mass, the mean of the lumped and the
consistent one (Marfurt, Geophysics 49 (1984) 533):

    M = tridiag(h/12, 5 (h_- + h_+)/12, h/12),
    K_jj = 1/h_- + 1/h_+,    K_{j,j+1} = K_{j+1,j} = -1/h_{j+1/2},

and A = K + W with the potential symmetrised, M_jj W_j on the diagonal
and M_{j,j+1} (W_j + W_{j+1})/2 off it.  The discrete Hamiltonian is the
pencil H = M^{-1} A.  On equal cells M is Numerov's operator h (1, 10,
1)/12, and where W is constant the scheme is fourth order; where W
varies, the symmetrised W leaves a second-order term proportional to
h^2 (W'' u + 2 W' u') / 24, far below the lumped mass's dispersion error
on the protocols' data.  The node x_0 = eps is an unknown under every
condition, with the half cell's averaged mass, and the condition is its
row of the pencil, nothing else.  The Robin condition u'(eps) = beta
u(eps) is natural there, K_00 = 1/h_{1/2} + beta, which is second order
at the cutoff.  The Dirichlet condition u_0 = 0 zeroes the row's
couplings in M and in A: data that is 0 at eps stays exactly 0 through
every step, and the other rows are those of the interior nodes alone.  M
and A are real symmetric and M is positive definite, so H is self-adjoint
in the M inner product <u, v> = u^* M v, and every norm, distance, drift
and mass below is psi^* M psi; on rows S of a block, psi_S^* M_SS psi_S,
the couplings across the cut dropped, and 2/3 D_S <= M_SS <= D_S for the
lumped dual-cell mass D, as M is diagonally dominant.  The norm differs
from the L^2 norm of the nodal values by -(h^2/12) |psi'|^2 at order h^2,
so data of unit M-norm are nodal samples rescaled by 1 + O(h^2).

Time stepping applies the (2,2) diagonal Pade approximant of e^{-i dt H},

    R = (1 + z/2 + z^2/12) / (1 - z/2 + z^2/12),    z = -i dt H,

which is fourth order and, like every diagonal Pade approximant, has
modulus 1 on the imaginary axis: R is exactly unitary in the M-norm at
every dt, on the stiff cutoff modes too (van Dijk and Toyama, Phys.
Rev. E 75, 036707, 2007, who pair such steps with higher-order spatial
schemes).  Explicit schemes are ruled
out by the inverse-square growth of W near the cutoff.  The denominator
factors over the roots a = 3 +- i sqrt(3) of 1 - z/2 + z^2/12, so

    R = prod over a of (1 - i dt H/a) / (1 + i dt H/a),

two Cayley transforms of the kind Crank-Nicolson (a = 2) takes once; at
equal accuracy they allow a step several times longer.  Each factor is
2 P^{-1} M - 1 with the pencil P = M + i dt A/a.  Fibres are
independent, so :class:`CrankNicolson` steps a stack of them as one
block-diagonal tridiagonal system.  A block of size s is the first s
points x_0 = eps, x_1, ..., x_{s-1} of the stack's grid and their cells,
walled at x_s, under either condition.  The couplings across the seams
are zero, the pivoting never crosses a seam, and every block's numbers
are bit for bit those of a stepper of its own.  For each root, the general tridiagonal
factorisation of half the stacked pencil, P/2, is done once per (grid,
potentials, conditions, dt), in place: the halving is exact, so its
solve is 2 P^{-1} b bit for bit and a factor is the tridiagonal product
M psi, a solve and a subtraction.  A step applies both, through one
scratch buffer, and the steps alternate between two preallocated
buffers.
Every protocol steps through its one loop,
:meth:`CrankNicolson.evolve`: ``evolve_fibre`` is a stack of one block,
``bc_sensitivity`` stacks the Dirichlet and the Robin block of each
cutoff, and ``evolve_plane`` steps each distinct fibre once, in up to
``jobs`` stacks: W_xi depends on xi only through xi^2, so on data even in
xi a fibre has the block and the data of its mirror fibre bit for bit,
and copies that fibre's final state, the state it would reach itself.
Several stacks are stepped side by side, one thread each (the tridiagonal
solves release the GIL): the sensitivity protocol always runs one thread
per cutoff, with no flag, and the plane protocol one per stack.

``bc_sensitivity`` is the confinement probe: evolve identical initial
data (0 at the node eps) on two equal blocks, under Dirichlet-at-eps and
Robin-at-eps, and record the distance

    D(eps) = || psi_Dirichlet(t_final) - psi_Robin(t_final) ||

in the blocks' M-norm as the cutoff is pushed towards the boundary.  In
the confining regime the inner condition is asymptotically irrelevant and
D collapses rapidly; outside it the collapse is measurably slower.

Every protocol builds its grid with :meth:`FibreGrid.resolved`, whose
cells follow the local size of W and grow by at most GRID_GROWTH from
one to the next.  Near the cutoff, where W ~ c0/x^2, that makes the cells
proportional to x, a geometric grading in the spirit of Langer's
logarithmic variable.  The plane and cylinder protocols share one grid,
built from an envelope of the fibres: at x, the W of the largest |xi|
whose turning-point wall lies beyond x.  W_xi = W_0 + xi^2/f^2 grows with
|xi|, so it bounds every fibre stepped at x, and the stepper checks and
records the margin of each block.
Every protocol rule lives here once: ``standard_plane_data`` sets up the
plane and cylinder runs, every protocol checks that its cutoff leaves the
standard data room, and ``bc_sensitivity`` and ``evolve_plane`` hold
every wall to one wall-mass limit.  All protocol constants (standard
Gaussian data, wall placement, resolution rule, grid growth) are fixed
here so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NumericError, UsageError
from .profiles import FibrePotential, GrushinProfile, power_law

__all__ = [
    "FibreGrid",
    "BoundaryCondition",
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
    "standard_plane_data",
]

# protocol constants for the sensitivity experiment
GAUSS_CENTER = 2.0
GAUSS_WIDTH = 0.3
WALL_ENERGY = 160.0
FREE_WALL = 30.0
WALL_MASS_LIMIT = 1e-8
SPACING_CAP = 0.08
RESOLUTION_LIMIT = 0.5  # h^2 |W| at every node, the grid invariant
# fibre grids: largest ratio of neighbouring cells; bounds on the shrinks
# of one cell, on the marches and on the node count before giving up
GRID_GROWTH = 1.05
MARCH_SHRINKS = 8
MARCH_TRIES = 5
MAX_GRID_NODES = 2_000_000
MAX_PLANE_VALUES = 4 * MAX_GRID_NODES  # x nodes times fibres of plane or cylinder data
MAX_STEPS = 1_000_000  # the most steps of one evolution
# the sensitivity protocol resolves the cutoff boundary layer more finely
# so that D(eps) is stable under spacing refinement
SENSITIVITY_RESOLUTION = 0.04
# the time step of every protocol, unless given
DEFAULT_DT = 5e-3
# i/a for the roots a = 3 +- i sqrt(3) of 1 - z/2 + z^2/12, the denominator
# of the (2,2) Pade approximant of e^z: one shift per Cayley factor, the
# second minus the conjugate of the first, exactly
PADE_SHIFTS = (complex(math.sqrt(3.0) / 12.0, 0.25), complex(-math.sqrt(3.0) / 12.0, 0.25))


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


@dataclass(frozen=True, eq=False)
class FibreGrid:
    """Interior nodes eps < x_1 < ... < x_n < L of the truncated half-line.

    ``points`` are x_0 = eps, the n nodes and x_{n+1} = L, and ``gaps``
    the n+1 cell lengths h_{j+1/2} = x_{j+1} - x_j.  A block of size s,
    under either condition at eps, has the unknowns ``points[:s]``, the
    cells ``gaps[:s]`` (:meth:`cells`) and its wall at ``points[s]``.
    """

    eps: float
    L: float
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_interval(self.eps, self.L)
        if self.n < 100:
            raise UsageError("grid requires at least 100 interior points")
        if not np.all(self.gaps > 0.0):
            raise UsageError("grid nodes must increase strictly inside (eps, L)")

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def points(self) -> np.ndarray:
        return np.concatenate(([self.eps], self.nodes, [self.L]))

    @cached_property
    def gaps(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def h_min(self) -> float:
        return float(self.gaps.min())

    @property
    def h_max(self) -> float:
        return float(self.gaps.max())

    def cells(self, size: int):
        """The cells left and right of each unknown of the block of
        ``size``; eps has none on its left (length 0)."""
        right = self.gaps[:size]
        return np.concatenate(([0.0], right[:-1])), right

    def resolution_margin(self, w_values: np.ndarray) -> float:
        """max_j h_j^2 |W(x_j)| over the unknowns of a block, whose W are
        ``w_values``, h_j the larger of the two cells at x_j."""
        h = np.maximum(*self.cells(len(w_values)))
        return float(np.max(h**2 * np.abs(w_values)))

    @classmethod
    def uniform(cls, eps: float, L: float, n: int) -> "FibreGrid":
        """n equally spaced interior nodes x_j = eps + j (L - eps)/(n + 1);
        the reference grid of the tests."""
        return cls(eps=eps, L=L, nodes=eps + (L - eps) / (n + 1) * np.arange(1, n + 1))

    @classmethod
    def resolved(
        cls,
        eps: float,
        L: float,
        pot: FibrePotential,
        refine: int = 1,
        resolution: float = RESOLUTION_LIMIT,
    ) -> "FibreGrid":
        """Grid whose cells follow the local size of the potential: marching
        from eps, each cell is at most min(cap, sqrt(resolution / |W|)) /
        refine at both of its ends and at most GRID_GROWTH times the cell
        before it, with cap = min(SPACING_CAP, (L - eps)/101), so that a
        short interval still holds 100 nodes.  The trailing cells longer
        than the overshoot past L are then shrunk by one common factor so
        that the last one ends at L: that keeps every growth ratio (cells
        short of L by roundoff get one more, so no cell is stretched), and
        no node moves past the place of the node before it, where W was
        checked.  The march is repeated with a tighter target in the rare
        case that shifting the nodes inward breaks the resolution at one of
        them."""
        _check_interval(eps, L)
        if not (0.0 < resolution <= RESOLUTION_LIMIT):
            raise UsageError(f"resolution target must lie in (0, {RESOLUTION_LIMIT}]")
        limit = resolution / refine**2
        target = limit * (1.0 - 1e-12)  # room for the rounding of sqrt(target / |W|)
        for _ in range(MARCH_TRIES):
            gaps = _march(eps, L, pot, min(SPACING_CAP, (L - eps) / 101) / refine, target)
            if gaps.sum() < L - eps:
                gaps = np.append(gaps, gaps[-1])
            short = np.flatnonzero(gaps <= gaps.sum() - (L - eps))
            head = gaps[:short[-1] + 1 if short.size else 0]
            tail = gaps[head.size:]
            tail = tail * ((L - eps - head.sum()) / tail.sum())
            grid = cls(eps=eps, L=L, nodes=np.cumsum(np.concatenate(([eps], head, tail[:-1])))[1:])
            w = pot(grid.points)
            margin = max(grid.resolution_margin(w[:-1]), grid.gaps[-1] ** 2 * abs(w[-1]))
            if margin <= limit:
                return grid
            target *= limit / margin
        raise NumericError(f"no grid on [{eps:g}, {L:g}] resolves the potential")


def _check_interval(eps: float, L: float) -> None:
    if not (0.0 < eps < L):
        raise UsageError("grid requires 0 < eps < L")
    if eps * eps == 0.0:
        raise UsageError(f"cutoff eps={eps:g}: its square underflows to 0, so W(eps) is no float")


def _march(eps, L, pot, cap, resolution):
    """Cell lengths from eps until they pass L, laid one by one: each at
    most ``cap``, at most GRID_GROWTH times its predecessor, and with
    h^2 |W| <= resolution at both of its ends."""

    def local(x):
        try:
            w = abs(float(pot(x)))
        except OverflowError:
            raise UsageError(f"the potential overflows a float at x={x:g}") from None
        return min(cap, math.sqrt(resolution / w)) if w > 0.0 else cap

    too_many = UsageError(f"resolving the potential on [{eps:g}, {L:g}] needs more "
                          f"than {MAX_GRID_NODES} nodes")
    if _node_estimate(eps, L, pot, cap, resolution) > 2 * MAX_GRID_NODES:
        raise too_many
    gaps, x, h, h_here = [], eps, math.inf, local(eps)
    while x < L:
        h = min(GRID_GROWTH * h, h_here)
        for _ in range(MARCH_SHRINKS):  # the far end of the cell
            h_there = local(x + h)
            if h <= h_there:
                break
            h = h_there
        else:
            raise NumericError(f"potential varies too fast to resolve near x={x:g}")
        gaps.append(h)
        if len(gaps) > MAX_GRID_NODES:
            raise too_many
        x, h_here = x + h, h_there
    return np.array(gaps)


def _node_estimate(eps, L, pot, cap, resolution) -> float:
    """About the number of cells ``_march`` lays, within a few per cent:
    the integral of 1/h over 8,000 even and geometric samples, leaving out
    those where W is no float.  h is the local size min(cap, sqrt(resolution
    / |W|)) as far as the growth allows: a cell grows by GRID_GROWTH - 1 of
    its length per cell, so h(x) is the least local(y) + (GRID_GROWTH -
    1)(x - y) over the samples y <= x, taken at the running minimiser so
    that no large terms cancel."""
    xs = np.union1d(np.geomspace(eps, L, 4000), np.linspace(eps, L, 4000))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.abs(np.asarray(pot(xs), dtype=float))
        local = np.fmin(cap, np.sqrt(resolution / w))
    finite = np.isfinite(w)
    slope = (GRID_GROWTH - 1.0) * xs
    key = np.where(finite, local - slope, np.inf)
    best = np.maximum.accumulate(np.where(key == np.minimum.accumulate(key), np.arange(xs.size), 0))
    h = local[best] + (slope - slope[best])
    return float(np.diff(xs) @ np.divide(1.0, h, out=np.zeros_like(h), where=finite)[1:])


def _mass_diagonals(grid: FibreGrid, size: int):
    """Main and off diagonal of the averaged mass of the block of ``size``:
    the mean of the lumped mass and the consistent one of linear elements,
    tridiag(h/12, 5 (h_- + h_+)/12, h/12)."""
    left, right = grid.cells(size)
    return (5.0 / 12.0) * (left + right), right[:-1] / 12.0


def _mass_sumsq(grid: FibreGrid, psi: np.ndarray, start: int = 0):
    """psi_S^* M_SS psi_S, the one quadrature of every norm and mass, for
    each column of a two-dimensional ``psi`` on the rows S from ``start``
    on, the couplings of M across the cuts dropped: with ``start`` 1, data
    on the nodes that is 0 at eps, summed over the nodes."""
    main, off = _mass_diagonals(grid, start + len(psi))
    main, off = main[start:], off[start:]
    return main @ (psi.real**2 + psi.imag**2) + (2.0 * off) @ (psi[:-1].conj() * psi[1:]).real


def _hamiltonian_diagonals(grid: FibreGrid, w_values: np.ndarray, bc: BoundaryCondition):
    """The pencil of H = M^{-1} A on a block whose unknowns carry the
    potential ``w_values``, as (main, off) diagonals of M and of A; the
    one place that reads the condition at eps.

    M is the averaged mass and A = K + W the stiffness of linear elements
    plus the symmetrised potential, M_jj W_j on the diagonal and
    M_{j,j+1} (W_j + W_{j+1})/2 off it.  The Robin condition is natural:
    the node x_0 = eps gains beta on its diagonal, K_00 = 1/h_{1/2} + beta.
    It is resolved as W is: h_{1/2}^2 beta^2 <= RESOLUTION_LIMIT.  The
    Dirichlet condition zeroes the couplings of that row in M and A, so
    each factor solves it to 0 from data 0 at eps, with no pivot and a
    zero multiplier, and leaves the other rows' numbers those of the
    interior nodes alone."""
    w = np.asarray(w_values, dtype=float)
    left, right = grid.cells(w.size)
    robin = bc.kind == "robin"
    if robin and (right[0] * bc.beta) ** 2 > RESOLUTION_LIMIT:
        raise UsageError(f"Robin parameter beta={bc.beta:g} is not resolved by the first cell "
                         f"(h^2 beta^2 = {(right[0] * bc.beta) ** 2:.3g} > {RESOLUTION_LIMIT})")
    inv = 1.0 / right
    m_main, m_off = _mass_diagonals(grid, w.size)
    a_main = np.concatenate(([bc.beta if robin else 0.0], 1.0 / left[1:])) + inv + m_main * w
    a_off = m_off * (0.5 * (w[:-1] + w[1:])) - inv[:-1]
    if not robin:
        m_off[0] = a_off[0] = 0.0
    return (m_main, m_off), (a_main, a_off)


class CrankNicolson:
    """Unitary fourth-order stepper for a stack of independent fibre
    blocks: the (2,2) diagonal Pade approximant of e^{-i dt H} as the
    product of two shifted Cayley factors, each factorised once per dt.
    The name is the (1,1) approximant's, which each factor generalises;
    callers and the benchmark's tracer know the stepper by it.

    ``w_values`` holds one array and ``bcs`` one condition per block:
    ``w_values[m]`` is W at the unknowns of block m, ``grid.points[:s]``
    for its size s (eps and at least one node), walled at ``points[s]``,
    and only the pencil reads its condition (:func:`_hamiltonian_diagonals`),
    so a single fibre is a stack of one; each block's resolution margin is
    checked once and kept in ``margins``.  A state of a block is on its
    unknowns; under Dirichlet it is 0 at eps and stays exactly 0.  The
    blocks form one tridiagonal pencil whose couplings across the seams are
    zero, so the pivoting of the factorisation never crosses a seam and
    each block's factors and solves are bit for bit those of a stepper of
    its own.  A bare array with a bare condition, the form perfbench's
    tracer test builds, is one block.

    H = M^{-1} A with M and A real symmetric and M positive definite, so
    H is self-adjoint in the M inner product and the step is unitary in
    the norm psi^* M psi.  Neither factor is unitary alone: the shifts are
    conjugate roots, and only the product has modulus 1 on every real
    eigenvalue."""

    def __init__(self, grid: FibreGrid, w_values, bcs, dt: float):
        from scipy.linalg import get_lapack_funcs

        if dt <= 0.0:
            raise UsageError("dt must be positive")
        if isinstance(bcs, BoundaryCondition):
            w_values, bcs = [w_values], [bcs]
        if len(bcs) != len(w_values):
            raise UsageError(f"{len(bcs)} boundary conditions for {len(w_values)} blocks")
        for w in w_values:
            if not 1 < len(w) <= grid.n + 1:
                raise UsageError(f"a block of {len(w)} unknowns does not fit a grid of "
                                 f"{grid.n} nodes after eps")
        self.margins = [grid.resolution_margin(w) for w in w_values]
        if max(self.margins) > RESOLUTION_LIMIT:
            raise UsageError(f"a block of the grid does not resolve the potential "
                             f"(max h^2 |W| = {max(self.margins):.3g} > {RESOLUTION_LIMIT})")
        ends = np.cumsum([len(w) for w in w_values])
        if ends[-1] < 3:  # scipy's gttrf wrapper rejects a system of 2
            raise UsageError(f"a stack of {int(ends[-1])} unknowns is too small: the "
                             f"tridiagonal factorisation needs at least 3")
        self.grid, self.dt = grid, dt
        self._slices = [slice(int(e) - len(w), int(e)) for e, w in zip(ends, w_values)]
        self.size = size = int(ends[-1])
        # the stacked diagonals of M and A, zero across the seams
        m_main, m_off, a_main, a_off = np.empty(size), np.zeros(size), np.empty(size), np.zeros(size)
        for sl, w, cond in zip(self._slices, w_values, bcs):
            inner = slice(sl.start, sl.stop - 1)
            (m_main[sl], m_off[inner]), (a_main[sl], a_off[inner]) = \
                _hamiltonian_diagonals(grid, w, cond)
        m_off, a_off = m_off[:-1], a_off[:-1]
        # the Dirichlet blocks' rows at eps, which the pencil decouples
        self._doors = {sl.start for sl in self._slices if m_off[sl.start] == a_off[sl.start] == 0}
        gttrf, self._gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.empty(1, complex),))
        self._factors = []
        for shift in PADE_SHIFTS:
            # the stacked pencil (M + i dt A/a)/2, factored in place: the
            # halving is exact, so the factors are the pencil's halved and
            # the pivots its own
            z = dt * shift
            off = 0.5 * (m_off + z * a_off)
            *factors, info = gttrf(off, 0.5 * (m_main + z * a_main), off.copy(),
                                   overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info != 0:
                raise NumericError(f"tridiagonal factorisation failed (info={info})")
            self._factors.append(factors)
        # M over the interleaved real view of a buffer: each entry twice
        self._m2, self._off2 = np.repeat(m_main, 2), np.repeat(m_off, 2)
        self._cross = np.empty(2 * size - 2)
        self._buffers = (np.empty(size, complex), np.empty(size, complex))
        self._half = np.empty(size, complex)
        self._squares = np.empty(2 * size)
        self._block_starts = np.array([2 * sl.start for sl in self._slices])

    def _mass(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The product M psi into ``out``, on the real views: M is real."""
        v, o = psi.view(float), out.view(float)
        np.multiply(self._m2, v, out=o)
        np.multiply(self._off2, v[2:], out=self._cross)
        o[:-2] += self._cross
        np.multiply(self._off2, v[:-2], out=self._cross)
        o[2:] += self._cross
        return out

    def _cayley(self, factors, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One factor (1 - i dt H/a)/(1 + i dt H/a) = 2 P^{-1} M - 1, with
        the pencil P = M + i dt A/a, into ``out``: the stored factors of P/2
        solve for 2 P^{-1} M psi directly, so it is the product M psi, a
        solve and a subtraction."""
        out, info = self._gttrs(*factors, self._mass(psi, out), overwrite_b=1)
        if info != 0:
            raise NumericError(f"tridiagonal solve failed (info={info})")
        out -= psi
        return out

    def step(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One step of the (2,2) Pade map R: its two Cayley factors, the
        first into the stepper's scratch buffer and the second from there
        into ``out`` (a new array by default), which must not be ``psi``."""
        if out is None:
            out = np.empty(psi.shape, dtype=complex)
        first, second = self._factors
        return self._cayley(second, self._cayley(first, psi, self._half), out)

    def _norms(self, psi: np.ndarray, column: np.ndarray) -> None:
        """psi^* M psi of each block of ``psi`` into ``column``: the real
        views of psi and M psi (through the scratch buffer) multiplied, one
        pass over the whole stack, and summed per block."""
        np.multiply(psi.view(float), self._mass(psi, self._half).view(float), out=self._squares)
        np.add.reduceat(self._squares, self._block_starts, out=column)

    def evolve(self, psi, nsteps: int, record: bool = False):
        """Load ``psi`` (one state per block, on its unknowns) and apply
        ``nsteps`` steps, allocating nothing per step.  Returns the
        per-block final states, views of one of the stepper's two buffers
        that the next call overwrites, and the traces: row m is block m's
        squared norm psi^* M psi after every step with ``record``, else at
        the start and the end only.  A Dirichlet block's state must be 0 at
        eps, so that its trace is its :func:`_mass_sumsq`; else a
        :class:`UsageError` names the block."""
        first, second = self._buffers
        for m, (sl, block) in enumerate(zip(self._slices, psi, strict=True)):
            first[sl] = block
            if sl.start in self._doors and first[sl.start] != 0.0:
                raise UsageError(f"block {m} is Dirichlet at eps, so its state must be 0 "
                                 f"there, not {first[sl.start]:.3g}")
        traces = np.empty((len(self._slices), nsteps + 1 if record else 2))
        self._norms(first, traces[:, 0])
        state = first
        for i in range(1, nsteps + 1):
            state = self.step(state, out=second if state is first else first)
            if record:
                self._norms(state, traces[:, i])
        if not record:
            self._norms(state, traces[:, 1])
        return [state[sl] for sl in self._slices], traces


def _step_count(t: float, dt: float, what: str = "evolution time") -> int:
    """Number of steps of size ``dt`` spanning ``t``, which must be a whole
    multiple of ``dt`` (the end point is never silently moved) of at most
    MAX_STEPS steps.  ``what`` names the span in the error."""
    if not dt > 0.0:
        raise UsageError("dt must be positive")
    ratio = t / dt
    n = round(ratio) if math.isfinite(ratio) else -1
    if n < 0 or abs(ratio - n) > 1e-9 * max(1, n):
        raise UsageError(f"{what} {t:g} is not a whole number of steps {dt:g}")
    if n > MAX_STEPS:
        raise UsageError(f"{what} {t:g} takes {n:.3g} steps of {dt:g}, more than {MAX_STEPS}")
    return n


def _evolve_stacks(steppers: Sequence[CrankNicolson], data, nsteps: int, record: bool = False):
    """``steppers[k].evolve(data[k], nsteps, record)`` for every k, in order:
    each on a thread of its own when there are several (the tridiagonal
    solves release the GIL), on the calling thread when there is one."""
    if len(steppers) == 1:
        return [steppers[0].evolve(data[0], nsteps, record)]
    with ThreadPoolExecutor(max_workers=len(steppers)) as pool:
        return list(pool.map(lambda s, d: s.evolve(d, nsteps, record), steppers, data))


def evolve_fibre(grid: FibreGrid, pot: FibrePotential, bc: BoundaryCondition, psi: np.ndarray,
                 t_final: float, dt: float, record_norms: bool = False):
    """Evolve one fibre, ``psi`` on the block of every node
    (``grid.points[:-1]``, eps first: 0 there under Dirichlet), from t = 0
    to ``t_final``, a stack of one block; returns (psi, M-norm trace)."""
    nsteps = _step_count(t_final, dt)
    stepper = CrankNicolson(grid, [pot(grid.points[:-1])], [bc], dt)
    (psi,), (sumsq,) = stepper.evolve([psi], nsteps, record_norms)
    return psi, np.sqrt(sumsq)


def gaussian_packet(grid: FibreGrid, center: float = GAUSS_CENTER, width: float = GAUSS_WIDTH):
    """Real Gaussian on the nodes and 0 at eps, of unit M-norm: a state of
    the block of every node (``grid.points[:-1]``) under either condition."""
    psi = np.zeros(grid.n + 1, dtype=complex)
    psi[1:] = np.exp(-((grid.nodes - center) ** 2) / (2.0 * width**2))
    nrm = math.sqrt(_mass_sumsq(grid, psi[1:], start=1))
    if nrm == 0.0:
        raise UsageError("Gaussian data vanishes on this grid")
    return psi / nrm


def _standard_packet(grid: FibreGrid) -> np.ndarray:
    """The standard Gaussian data of every protocol, on a grid whose cutoff
    leaves room for it: eps < GAUSS_CENTER - 4 GAUSS_WIDTH."""
    room = GAUSS_CENTER - 4.0 * GAUSS_WIDTH
    if grid.eps >= room:
        raise UsageError(f"cutoff eps={grid.eps:g} overlaps the standard initial data "
                         f"(centre {GAUSS_CENTER:g}, width {GAUSS_WIDTH:g}): needs eps < {room:g}")
    return gaussian_packet(grid)


def _wall_mass(grid: FibreGrid, psi: np.ndarray) -> float:
    """The M-norm of a block's state ``psi`` on its rows within 0.5 of its wall."""
    start = int(np.searchsorted(grid.points, grid.points[psi.size] - 0.5))
    return float(_mass_sumsq(grid, psi[start:], start))


def _grid_record(steppers: Sequence[CrankNicolson]) -> dict:
    """The steppers' shared grid and the largest margin of their blocks."""
    grid, margin = steppers[0].grid, max(max(s.margins) for s in steppers)
    return {"n": grid.n, "h_min": grid.h_min, "h_max": grid.h_max, "resolution_margin": margin}


def _work(steppers: Sequence[CrankNicolson], nsteps: int) -> dict:
    """What ``nsteps`` steps of every stepper cost: a step is two solves of
    each block, a node-step one step of one unknown.  Counted per block, so
    the record does not depend on how the blocks are stacked."""
    blocks, nodes = sum(len(s.margins) for s in steppers), sum(s.size for s in steppers)
    return {"steps": nsteps, "node_steps": nsteps * nodes,
            "solves": len(PADE_SHIFTS) * nsteps * blocks,
            "node_solves": len(PADE_SHIFTS) * nsteps * nodes}


def choose_outer_wall(pot: FibrePotential) -> float:
    """Outer wall position: 1.25 times the classical turning point of the
    fastest packet component (energy WALL_ENERGY) plus 1 if the potential
    provides one, else the free-flight wall FREE_WALL.  An overflowing W
    (inf, or 0 * inf = nan) is past the turning point.  The wall lies at
    least 0.5 past five widths of the standard data, so at t = 0 that data
    puts next to no mass in the last 0.5 before it."""
    xs = np.linspace(GAUSS_CENTER, FREE_WALL, 600)
    with np.errstate(over="ignore", invalid="ignore"):
        past = ~(np.asarray(pot(xs), dtype=float) < WALL_ENERGY)
    idx = int(np.argmax(past))
    if not past[idx]:
        return FREE_WALL
    floor = GAUSS_CENTER + 5.0 * GAUSS_WIDTH + 0.5
    return min(FREE_WALL, max(floor, float(xs[idx]) * 1.25 + 1.0))


@dataclass(frozen=True)
class BcSensitivityResult:
    """D(eps) table with the wall diagnostics of each run and the grid
    each eps ran on."""

    rows: tuple[tuple[float, float], ...]  # (eps, D)
    wall_mass: tuple[float, ...]
    norm_drift: float
    trend: str
    config: dict = field(default_factory=dict, compare=False)
    # per eps: n, h_min, h_max and resolution_margin (max h^2 |W| over the nodes)
    grids: tuple[dict, ...] = field(default=(), compare=False)
    # steps, node-steps, solves and node-solves over both blocks of every cutoff
    work: dict = field(default_factory=dict, compare=False)

    @property
    def ratio_end_to_start(self) -> float:
        """D at the last eps over D at the first; NaN when the first is 0."""
        start = self.rows[0][1]
        return self.rows[-1][1] / start if start else math.nan


def _trend(ds: Sequence[float]) -> str:
    """The trend of D over the eps grid; equal neighbours are non-monotone,
    and a single cutoff has none."""
    if len(ds) < 2:
        return "single cutoff"
    if all(b < a for a, b in zip(ds, ds[1:])):
        return "decreasing"
    return "increasing" if all(b > a for a, b in zip(ds, ds[1:])) else "non-monotone"


def bc_sensitivity(
    alpha: float,
    xi: float,
    t_final: float,
    eps_grid: Sequence[float],
    *,
    beta: float = 1.0,
    dt: float = DEFAULT_DT,
    refine: int = 1,
) -> BcSensitivityResult:
    """Cutoff boundary-condition sensitivity D(eps) for one fibre.

    For each eps in the (strictly decreasing) grid, identical standard Gaussian
    data is evolved to ``t_final`` under Dirichlet-at-eps and under
    Robin(beta)-at-eps on two equal blocks of the same grid
    (:meth:`FibreGrid.resolved` at SENSITIVITY_RESOLUTION), and D(eps) is
    the M-norm of the difference of the two final states.  The outer wall
    is placed so that its wall mass (:func:`_wall_mass`) stays below 1e-8;
    contamination raises :class:`NumericError` naming the first
    contaminated cutoff in eps order and its wall.  Every cutoff's grid, data and Dirichlet+Robin
    stack are built on the calling thread, and the stacks are then stepped
    side by side, one thread per cutoff; each block's numbers are those of
    a stepper of its own, so the result does not depend on the threading.
    An evolution time of zero steps is rejected before any grid is built.
    """
    eps_list = [float(e) for e in eps_grid]
    if not eps_list or not all(e > 0 for e in eps_list):
        raise UsageError("eps_grid must contain positive cutoffs")
    if not all(a > b for a, b in zip(eps_list, eps_list[1:])):
        raise UsageError("eps_grid must be strictly decreasing")
    nsteps = _step_count(t_final, dt)
    if nsteps == 0:
        raise UsageError(f"evolution time {t_final:g} takes no steps of {dt:g}, "
                         "so D would be 0 at every cutoff")
    # the two blocks differ in the row at eps, so their solves round
    # apart: a time that turns no component of the data by more than
    # rounding leaves a D of rounding alone
    if t_final * WALL_ENERGY <= np.finfo(float).eps:
        raise UsageError(f"evolution time {t_final:g} turns the standard data by at most "
                         f"{t_final * WALL_ENERGY:.1e}, below rounding, so D would be rounding")
    prof = power_law(alpha)
    pot = FibrePotential(xi=xi, profile=prof)
    L = choose_outer_wall(pot)

    bcs = (BoundaryCondition.dirichlet(), BoundaryCondition.robin(beta))
    grids = [FibreGrid.resolved(eps, L, pot, refine=refine, resolution=SENSITIVITY_RESOLUTION)
             for eps in eps_list]
    packets = [_standard_packet(grid) for grid in grids]
    steppers = [CrankNicolson(grid, [pot(grid.points[:-1])] * 2, bcs, dt) for grid in grids]
    runs = _evolve_stacks(steppers, [[psi0] * 2 for psi0 in packets], nsteps)

    rows, walls, drifts = [], [], []
    for eps, grid, (finals, sumsq) in zip(eps_list, grids, runs):
        wall = max(_wall_mass(grid, psi) for psi in finals)
        drift = max(abs(math.sqrt(end) - math.sqrt(start)) for start, end in sumsq)
        if wall > WALL_MASS_LIMIT:
            raise NumericError(f"cutoff eps={eps:g}: its outer wall at L={grid.L:.4g} is "
                               f"contaminated (mass {wall:.2e} > {WALL_MASS_LIMIT})")
        distance = math.sqrt(_mass_sumsq(grid, finals[1] - finals[0]))
        if distance == 0.0:
            raise UsageError(f"cutoff eps={eps:g}: the Dirichlet and the Robin(beta={beta:g}) "
                             "runs end equal, so D is 0 and measures nothing")
        rows.append((eps, distance))
        walls.append(wall)
        drifts.append(drift)

    return BcSensitivityResult(
        rows=tuple(rows),
        wall_mass=tuple(walls),
        norm_drift=max(drifts),
        trend=_trend([d for _, d in rows]),
        config={
            "beta": beta,
            "dt": dt,
            "spacing_cap": SPACING_CAP,
            "refine": refine,
            "resolution": SENSITIVITY_RESOLUTION,
            "outer_wall": L,
            "gaussian": {"center": GAUSS_CENTER, "width": GAUSS_WIDTH},
            "profile": prof.name,
        },
        grids=tuple(_grid_record([stepper]) for stepper in steppers),
        work=_work(steppers, nsteps),
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

    ``grid`` holds the x nodes and their cells, ``axis`` the
    y nodes (original) or the xi frequencies (transformed); ``geometry``
    is "plane" or "cylinder" (for the latter the y axis is the circle of
    circumference 2 pi and xi values are integer mode numbers).
    """

    values: np.ndarray = field(repr=False)
    grid: FibreGrid
    axis: np.ndarray = field(repr=False)
    representation: str
    geometry: str = "plane"
    y0: float = 0.0

    def __post_init__(self):
        if self.representation not in (ORIGINAL, TRANSFORMED):
            raise UsageError("representation must be original or transformed")
        if self.geometry not in ("plane", "cylinder"):
            raise UsageError("geometry must be plane or cylinder")
        if self.values.shape != (self.grid.n, self.axis.size):
            raise UsageError(f"values of shape {self.values.shape} do not match the "
                             f"{self.grid.n} x nodes and {self.axis.size} axis nodes")

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def daxis(self) -> float:
        if self.axis.size < 2:
            return 1.0
        return float(abs(self.axis[1] - self.axis[0]))

    def norm(self, profile: GrushinProfile | None = None) -> float:
        """The sum over the axis of the columns' M-norms psi^* M psi, times
        dxi in the transformed representation; in the original one, of the
        columns times sqrt(f(x_j)), times dy, which the transform keeps."""
        values = self.values
        if self.representation == ORIGINAL:
            if profile is None:
                raise UsageError("original-representation norm needs the profile")
            values = values * np.sqrt(np.asarray(profile.f(self.x), dtype=float))[:, None]
        return math.sqrt(self.daxis * float(np.sum(_mass_sumsq(self.grid, values, start=1))))


def _check_finite(values):
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise UsageError("wavefunction contains non-finite samples")


def _fft_frequencies(n: int, dy: float, geometry: str) -> np.ndarray:
    """The xi values of the n-point y transform in FFT order: the exact
    integer modes on the cylinder, 2 pi k / (n dy) on the plane."""
    if geometry == "cylinder":
        return np.fft.ifftshift(np.arange(n) - n // 2).astype(float)
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
        grid=psi.grid,
        axis=freqs[order],
        representation=TRANSFORMED,
        geometry=psi.geometry,
        y0=float(psi.axis[0]),
    )


def to_original(psi: PlaneWavefunction, profile: GrushinProfile) -> PlaneWavefunction:
    """Inverse of :func:`to_transformed`: the y nodes start at ``psi.y0``."""
    if psi.representation != TRANSFORMED:
        raise UsageError("to_original expects the transformed representation")
    _check_finite(psi.values)
    n = psi.axis.size
    if n < 2:
        raise UsageError("to_original needs at least two xi nodes to rebuild the y nodes")
    # 2 pi / n exactly on the cylinder's consecutive integer modes
    dy = 2.0 * math.pi / (n * ((psi.axis[-1] - psi.axis[0]) / (n - 1)))
    y = psi.y0 + dy * np.arange(n)
    freqs_natural = _fft_frequencies(n, dy, psi.geometry)
    order = np.argsort(freqs_natural)
    hat_natural = np.empty_like(psi.values)
    hat_natural[:, order] = psi.values
    phase = np.exp(1j * freqs_natural * y[0])[None, :]
    vals = (psi.daxis * n / math.sqrt(2.0 * math.pi)) * np.fft.ifft(hat_natural * phase, axis=1)
    vals = vals / np.sqrt(np.asarray(profile.f(psi.x), dtype=float))[:, None]
    return PlaneWavefunction(
        values=vals,
        grid=psi.grid,
        axis=y,
        representation=ORIGINAL,
        geometry=psi.geometry,
        y0=float(y[0]),
    )


@dataclass(frozen=True)
class PlaneEvolutionResult:
    final: PlaneWavefunction
    norm_before: float
    norm_after: float
    fibre_norms: np.ndarray = field(repr=False)
    norm_trace: np.ndarray = field(repr=False)
    # counts of the fibres, the fibres stepped, the steps, node-steps,
    # solves and node-solves
    work: dict
    grid: dict  # the shared x grid and the largest margin of a fibre's block
    spectrum_edge_mass: float = 0.0
    wall_mass: float = 0.0
    boundary_mass: float = 0.0  # below x = 0.05, eps included

    @property
    def norm_drift(self) -> float:
        return abs(self.norm_after - self.norm_before)


def standard_plane_data(profile: GrushinProfile, geometry: str, eps: float, ny: int,
                        sigma_xi: float, y_span=None, outer_wall: float | None = None):
    """Standard transformed data of the plane and cylinder protocols.  The
    xi axis holds the frequencies of the ``ny``-node y transform (integer
    modes on the cylinder, which ignores ``y_span``; on the plane the window
    [-y_span/2, y_span/2) centres the packet).  The outer wall, unless
    given, is the wall of the most-spreading fibre, xi = 0, and the grid
    resolves the envelope of the fibres (:func:`_envelope`).  The data is
    the standard Gaussian times the xi envelope exp(-xi^2 / (2 sigma_xi^2))
    scaled to dxi sum env^2 = 1."""
    if ny < 3 or ny % 2 == 0:
        raise UsageError(f"ny must be odd and at least 3 so the xi grid is symmetric, got {ny}")
    if not (sigma_xi > 0.0 and 0.0 < sigma_xi * sigma_xi < math.inf):
        raise UsageError(f"sigma_xi={sigma_xi:g} must be positive, its square neither "
                         "underflowing to 0 nor overflowing a float")
    if geometry == "cylinder":
        y_span = 2.0 * math.pi  # the circle: the axis is the integer modes
    elif y_span is None or y_span <= 0.0:
        raise UsageError("y_span must be positive")
    axis = np.sort(_fft_frequencies(ny, y_span / ny, geometry))
    dxi = float(axis[1] - axis[0])
    y0 = 0.0 if geometry == "cylinder" else -y_span / 2.0
    if outer_wall is None:
        outer_wall = choose_outer_wall(FibrePotential(xi=0.0, profile=profile))
    pots = [FibrePotential(xi=float(xi), profile=profile) for xi in np.unique(np.abs(axis))]
    grid = FibreGrid.resolved(eps, outer_wall, _envelope(pots))
    if grid.n * ny > MAX_PLANE_VALUES:
        raise UsageError(f"the data on n_x = {grid.n} x nodes times ny = {ny} fibres needs "
                         f"{grid.n * ny} values, more than {MAX_PLANE_VALUES}")
    # a subnormal sigma_xi^2 gives every xi != 0 the limit exp(-inf) = 0
    with np.errstate(over="ignore"):
        env = np.exp(-(axis**2) / (2.0 * sigma_xi**2))
    env /= math.sqrt(dxi * float(np.sum(env**2)))
    return PlaneWavefunction(values=np.outer(_standard_packet(grid)[1:], env), grid=grid,
                             axis=axis, representation=TRANSFORMED, geometry=geometry, y0=y0)


def _envelope(pots: Sequence[FibrePotential]):
    """The potential the shared grid resolves, for fibres of ascending |xi|:
    at x, the W of the largest |xi| whose wall (``choose_outer_wall``) lies
    beyond x, or of the smallest beyond every wall.  W_xi grows with |xi|,
    so the walls do not, and this W bounds every fibre at every node of its
    block (:func:`_fibre_size`), a float x or an array alike."""
    profile = pots[0].profile
    walls = -np.array([choose_outer_wall(pot) for pot in pots])  # ascending
    # entry k: the largest xi^2 of k fibres alive; entry 0: the smallest
    squares = np.array([pot.xi**2 for pot in pots[:1] + pots])

    def envelope(x):
        # the entry at the number of walls beyond x
        square = squares[walls.searchsorted(-x)]
        return profile.base_potential(x) + square * profile.inv_f_squared(x)

    return envelope


def _fibre_size(grid: FibreGrid, pot: FibrePotential) -> int:
    """The size of the fibre's block: eps and the nodes before its own
    turning-point wall (``choose_outer_wall``), so the block is walled at
    the first node at or past it and :func:`_envelope` bounds its W at
    every node; every node when that wall is not inside ``grid``, and at
    least one."""
    return 1 + max(1, int(np.searchsorted(grid.nodes, choose_outer_wall(pot))))


def _contiguous_parts(sizes: Sequence[int], parts: int) -> list[range]:
    """``parts`` non-empty runs of consecutive indices of ``sizes`` whose
    sums are as near equal as the cuts between whole items allow."""
    ends = np.cumsum(sizes)
    cuts = [0]
    for j in range(1, parts):
        nearest = int(np.argmin(np.abs(ends - ends[-1] * j / parts))) + 1
        cuts.append(min(max(nearest, cuts[-1] + 1), len(sizes) - (parts - j)))
    cuts.append(len(sizes))
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def evolve_plane(
    psi0: PlaneWavefunction,
    profile: GrushinProfile,
    t_final: float,
    bc: BoundaryCondition,
    dt: float = DEFAULT_DT,
    jobs: int = 1,
) -> PlaneEvolutionResult:
    """Evolve a transformed wavefunction fibre by fibre to ``t_final``.

    ``psi0.grid`` is the widest domain.  Each fibre is evolved on its
    block, eps and the nodes before its own turning-point wall
    (:func:`_fibre_size`, the rule of the sensitivity protocol), and is
    zero beyond; a fibre whose wall lies at or beyond ``grid.L`` uses every
    node.  A fibre whose
    potential values and data (so its block) have the bytes of an earlier
    fibre's, the +-xi twins of even data, takes that fibre's final state
    and trace.  The distinct fibres are independent blocks of
    :class:`CrankNicolson` stacks: they are split into
    ``min(jobs, distinct fibres)`` contiguous stacks of near-equal node
    count, every stack is factored on the calling thread, and each runs its
    :meth:`CrankNicolson.evolve` on a thread of its own (the tridiagonal
    solves release the GIL), or on the calling thread for a single stack.
    Each block's numbers are those of a stepper of its own, so the result
    depends neither on ``jobs`` nor on the copies; ``work`` counts what was
    stepped, and ``grid`` holds the largest margin the steppers checked.
    The xi grid must be symmetric about zero (odd FFT size); mass in the
    outermost frequency bins must be negligible for the assembly to
    represent the plane faithfully, and is recorded, as is the total-norm
    trace over the steps.  The data is 0 at eps, and ``final`` holds the
    nodes.  Every norm and mass is dxi times the M-norm of the rows it
    names (:func:`_mass_sumsq`), so a mass is 2/3 to 1 of their lumped sum:
    ``norm_before`` and the traces, of the fibres' blocks, eps included;
    the wall mass of a fibre, of its block's rows in the last 0.5 before
    its wall at ``t_final`` plus its data's rows from the wall on, the
    largest recorded; ``boundary_mass``, of every fibre's rows below x =
    0.05 at ``t_final``, eps included.  A fibre whose wall mass exceeds
    WALL_MASS_LIMIT, at its own wall or at ``grid.L``, raises NumericError.
    """
    if psi0.representation != TRANSFORMED:
        raise UsageError("evolve_plane expects transformed initial data")
    _check_finite(psi0.values)
    if abs(psi0.axis[0] + psi0.axis[-1]) > 1e-9 * max(1.0, abs(float(psi0.axis[-1]))):
        raise UsageError("xi grid must be symmetric about 0")
    nsteps = _step_count(t_final, dt)

    grid, dxi = psi0.grid, psi0.daxis
    pots = [FibrePotential(xi=float(xi), profile=profile) for xi in psi0.axis]
    sizes = [_fibre_size(grid, pot) for pot in pots]
    # every fibre's column on the points before L: its data, 0 at eps, and
    # then its final state, 0 beyond its block
    out = np.zeros((grid.n + 1, psi0.axis.size), dtype=complex)
    out[1:] = psi0.values
    column_mass = _mass_sumsq(grid, out[1:], start=1)
    beyond = [float(_mass_sumsq(grid, out[s:, m], start=s)) for m, s in enumerate(sizes)]
    total = float(np.sum(column_mass))
    edges = column_mass[[0, -1]] if column_mass.size > 1 else column_mass
    edge_mass = float(np.sum(edges)) / total if total > 0 else 0.0

    w_values = [pot(grid.points[:s]) for pot, s in zip(pots, sizes)]
    columns = [out[:s, m] for m, s in enumerate(sizes)]
    # fibre m copies the first fibre whose potential values and data, and
    # so its block, are its own bit for bit (the +-xi twins of even data)
    first = {}
    source = [first.setdefault((w.tobytes(), column.tobytes()), m)
              for m, (w, column) in enumerate(zip(w_values, columns))]
    del first
    distinct = [m for m, k in enumerate(source) if k == m]
    parts = [[distinct[i] for i in run] for run in
             _contiguous_parts([w_values[m].size for m in distinct], min(jobs, len(distinct)))]
    steppers = [CrankNicolson(grid, [w_values[m] for m in part], [bc] * len(part), dt)
                for part in parts]
    del w_values
    data = [[columns[m] for m in part] for part in parts]
    stacks = _evolve_stacks(steppers, data, nsteps, record=True)
    finals = {m: run for part, (states, sumsq) in zip(parts, stacks)
              for m, run in zip(part, zip(states, sumsq))}

    out[:] = 0.0
    traces, wall_masses = [], []
    for m, k in enumerate(source):
        psi, trace = finals[k]
        out[:psi.size, m] = psi
        traces.append(trace)
        wall_masses.append(dxi * (_wall_mass(grid, psi) + beyond[m]))
    boundary = float(np.sum(_mass_sumsq(grid, out[:np.searchsorted(grid.points, 0.05)])))

    worst = int(np.argmax(wall_masses))
    if wall_masses[worst] > WALL_MASS_LIMIT:
        raise NumericError(f"fibre xi={psi0.axis[worst]:g}: its outer wall at "
                           f"x={grid.points[sizes[worst]]:.4g} is contaminated "
                           f"(mass {wall_masses[worst]:.2e} > {WALL_MASS_LIMIT})")

    traces = np.column_stack(traces)
    fibre_norms = np.sqrt(dxi * traces[-1])
    return PlaneEvolutionResult(
        final=replace(psi0, values=out[1:]),
        norm_before=math.sqrt(dxi * total),
        norm_after=math.sqrt(float(np.sum(fibre_norms**2))),
        fibre_norms=fibre_norms,
        norm_trace=np.sqrt(dxi * np.sum(traces, axis=1)),
        spectrum_edge_mass=edge_mass,
        wall_mass=max(wall_masses),
        boundary_mass=dxi * boundary,
        work={"fibres": len(sizes), "fibres_stepped": len(distinct), **_work(steppers, nsteps)},
        grid=_grid_record(steppers),
    )
