import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from grushinlab.errors import NumericError, UsageError
from grushinlab.evolution import (
    DEFAULT_DT,
    GRID_GROWTH,
    MARCH_SHRINKS,
    PADE_SHIFTS,
    RESOLUTION_LIMIT,
    SENSITIVITY_RESOLUTION,
    SPACING_CAP,
    WALL_MASS_LIMIT,
    _contiguous_parts,
    _envelope,
    _fft_frequencies,
    _fibre_size,
    _hamiltonian_diagonals,
    _mass_diagonals,
    _mass_sumsq,
    _node_estimate,
    _trend,
    BoundaryCondition,
    CrankNicolson,
    FibreGrid,
    PlaneWavefunction,
    bc_sensitivity,
    choose_outer_wall,
    evolve_fibre,
    evolve_plane,
    gaussian_packet,
    standard_plane_data,
    to_original,
    to_transformed,
)
from grushinlab.profiles import FibrePotential, builtin_profile, custom_profile, power_law


def _fibres(profile, xis):
    return [FibrePotential(xi=float(xi), profile=profile) for xi in xis]


def endpoint_uniform(eps, L, pot, resolution=RESOLUTION_LIMIT):
    """The uniform reference grid: spacing^2 max(|W(eps)|, |W(L)|, 1) <=
    resolution, capped at SPACING_CAP, and at least 100 nodes."""
    w_edge = max(abs(float(pot(eps))), abs(float(pot(L))), 1.0)
    h = min(SPACING_CAP, math.sqrt(resolution / w_edge))
    return FibreGrid.uniform(eps, L, max(100, math.ceil((L - eps) / h) - 1))


def block_grid(grid, size):
    """The block of ``size`` of ``grid`` as a grid of its own, its wall at
    ``points[size]``: the stand-alone reference of a stacked block."""
    if size == grid.n + 1:
        return grid
    return FibreGrid(grid.eps, L=float(grid.points[size]), nodes=grid.nodes[:size - 1])


def check_local_rule(g, pot, resolution):
    """Neighbouring cells differ by at most GRID_GROWTH, and h^2 |W| <=
    resolution at every node, the cutoff and the wall included, with h the
    larger of its cells."""
    assert np.max(g.gaps[1:] / g.gaps[:-1]) <= GRID_GROWTH * (1.0 + 1e-9)
    x = np.concatenate(([g.eps], g.nodes, [g.L]))
    h = np.concatenate(([g.gaps[0]], np.maximum(g.gaps[:-1], g.gaps[1:]), [g.gaps[-1]]))
    assert np.max(h**2 * np.abs(pot(x))) <= resolution
    assert g.resolution_margin(pot(g.points[:-1])) <= resolution


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every thread pool the evolution module opens."""
    import grushinlab.evolution as evolution

    sizes = []

    class CountingPool(evolution.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(evolution, "ThreadPoolExecutor", CountingPool)
    return sizes


@pytest.fixture
def stacked_blocks(monkeypatch):
    """The block lengths of every :class:`CrankNicolson` built, one list per
    stack."""
    blocks = []
    init = CrankNicolson.__init__

    def spy(self, grid, w_values, bcs, dt):
        blocks.append([len(w) for w in w_values])
        init(self, grid, w_values, bcs, dt)

    monkeypatch.setattr(CrankNicolson, "__init__", spy)
    return blocks


@pytest.fixture
def stepper_sizes(monkeypatch):
    """(blocks, buffer size) of every :class:`CrankNicolson` built."""
    sizes = []
    init = CrankNicolson.__init__

    def spy(self, grid, w_values, bcs, dt):
        init(self, grid, w_values, bcs, dt)
        sizes.append((len(self.margins), self._buffers[0].size))

    monkeypatch.setattr(CrankNicolson, "__init__", spy)
    return sizes


def dense_pencil(grid, w, bc):
    """The dense M and A of a block whose unknowns carry the potential w."""
    return [np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
            for main, off in _hamiltonian_diagonals(grid, w, bc)]


def dense_mass(grid, psi, rows):
    """psi_S^* M_SS psi_S on the rows S of a state on ``points[:psi.size]``,
    from the dense M of :func:`_mass_diagonals`, and the lumped sum over the
    rows' dual cells, sum_j w_j |psi_j|^2."""
    main, off = _mass_diagonals(grid, psi.size)
    mass = (np.diag(main) + np.diag(off, 1) + np.diag(off, -1))[np.ix_(rows, rows)]
    v = psi[rows]
    lumped = 0.5 * np.add(*grid.cells(psi.size))[rows] @ np.abs(v) ** 2
    return float((v.conj() @ mass @ v).real), float(lumped)


def check_sandwich(masses):
    """2/3 D_S <= M_SS <= D_S, M being diagonally dominant: each (M-norm,
    lumped sum) pair lies within [2/3, 1] of the lumped sum, to rounding."""
    for m_norm, lumped in masses:
        assert 2.0 / 3.0 * lumped * (1.0 - 1e-12) <= m_norm <= lumped * (1.0 + 1e-12)


def spectral_map(grid, w, bc, r):
    """The dense matrix r(H) of the discrete H = M^{-1} A, from the
    eigenpairs of the pencil (A, M): with V^T M V = 1, r(H) = V r(E) V^T M."""
    mass, a = dense_pencil(grid, w, bc)
    evals, vecs = eigh(a, mass)
    return (vecs * r(evals)) @ vecs.T @ mass


def make_fibre(alpha, xi, eps=0.05, L=12.0):
    """The grid, potential and standard Gaussian data of one fibre."""
    pot = FibrePotential(xi=xi, profile=power_law(alpha))
    grid = FibreGrid.resolved(eps, L, pot)
    return grid, pot, gaussian_packet(grid)


class TestGrid:
    def test_spacing_and_nodes(self):
        g = FibreGrid.uniform(0.1, 10.1, 999)
        assert g.gaps.size == 1000
        assert g.h_min == pytest.approx(0.01) and g.h_max == pytest.approx(0.01)
        assert np.allclose(0.5 * np.add(*g.cells(g.n + 1))[1:], 0.01)  # the nodes' dual cells
        assert g.nodes[0] == pytest.approx(0.11)
        assert g.nodes[-1] == pytest.approx(10.09)

    def test_invariants(self):
        with pytest.raises(UsageError):
            FibreGrid.uniform(1.0, 0.5, 500)
        with pytest.raises(UsageError):
            FibreGrid.uniform(0.1, 10.0, 50)
        with pytest.raises(UsageError):  # nodes out of order
            FibreGrid(eps=0.1, L=10.0, nodes=np.linspace(0.2, 9.0, 200)[::-1])

    def test_resolution_guard(self):
        pot = FibrePotential(xi=0.0, profile=power_law(2.0))
        g = FibreGrid.uniform(1e-3, 5.0, 200)  # far too coarse near eps
        with pytest.raises(UsageError):
            CrankNicolson(g, [pot(g.points[:-1])], [BoundaryCondition.dirichlet()], 1e-3)


class TestGradedGrid:
    # (alpha, xi, eps, refine, L, resolution, largest h_min / h_max); L None
    # is the fibre's own wall
    @pytest.mark.parametrize("alpha, xi, eps, refine, L, resolution, cell_ratio", [
        # W ~ c0/x^2 towards eps, mild at L = 30
        pytest.param(0.5, 0.5, 1e-3, 1, None, SENSITIVITY_RESOLUTION, 0.2, id="0.5-0.5-0.001-1"),
        # W grows like x^3 towards L ~ 11.8
        pytest.param(1.5, 0.5, 1e-3, 2, None, SENSITIVITY_RESOLUTION, 0.2, id="1.5-0.5-0.001-2"),
        pytest.param(2.0, 2.0, 1e-2, 1, None, SENSITIVITY_RESOLUTION, 0.2, id="2.0-2.0-0.01-1"),
        # the default resolution, with W large at both ends
        pytest.param(2.0, 0.5, 1e-3, 1, 7.0, RESOLUTION_LIMIT, 0.2, id="2.0-0.5-0.001-1-L7"),
        # the edge fibre of the default plane run out to the xi = 0 wall:
        # W = 3/(4x^2) + xi^2 x^2 is largest at L, where it needs cells of
        # 0.0027
        pytest.param(1.0, 8.64, 1e-2, 1, 30.0, RESOLUTION_LIMIT, 0.3, id="plane-edge"),
    ])
    def test_growth_and_local_resolution(self, alpha, xi, eps, refine, L, resolution,
                                         cell_ratio):
        pot = FibrePotential(xi=xi, profile=power_law(alpha))
        L = choose_outer_wall(pot) if L is None else L
        g = FibreGrid.resolved(eps, L, pot, refine=refine, resolution=resolution)
        check_local_rule(g, pot, resolution / refine**2)
        assert g.h_max <= SPACING_CAP / refine * (1.0 + 1e-12)
        assert g.h_min < cell_ratio * g.h_max  # graded: fine where |W| is large
        # and at most 60% of the nodes of the uniform grid sized by both ends
        assert g.n < 0.6 * endpoint_uniform(eps, L, pot, resolution / refine**2).n
        assert np.sum(0.5 * np.add(*g.cells(g.n + 1))[1:]) == pytest.approx(
            L - eps - 0.5 * (g.gaps[0] + g.gaps[-1]))

    # the bc-sweep grids, and the envelope grids of the plane and cylinder
    # runs at alpha 1-3
    @pytest.mark.parametrize("protocol, alpha, eps, refine", [
        *(("sensitivity", alpha, eps, refine)
          for alpha, refine in ((0.5, 1), (1.5, 1), (1.5, 2)) for eps in (1e-1, 1e-3)),
        *((geometry, alpha, 1e-2, 1) for geometry in ("plane", "cylinder") for alpha in (1, 2, 3)),
    ])
    def test_node_estimate_follows_the_march(self, protocol, alpha, eps, refine):
        # the march rejects a grid whose estimate exceeds 2 MAX_GRID_NODES,
        # so within 10% no grid it builds is rejected
        prof = power_law(alpha)
        if protocol == "sensitivity":
            pot, res = FibrePotential(xi=0.5, profile=prof), SENSITIVITY_RESOLUTION
            grid = FibreGrid.resolved(eps, choose_outer_wall(pot), pot, refine=refine,
                                      resolution=res)
        else:
            psi0 = standard_plane_data(prof, protocol, eps, 45, 2.0, 16.0)
            grid, res = psi0.grid, RESOLUTION_LIMIT
            pot = _envelope(_fibres(prof, np.unique(np.abs(psi0.axis))))
        estimate = _node_estimate(grid.eps, grid.L, pot, SPACING_CAP / refine, res / refine**2)
        assert 0.9 * grid.n <= estimate <= 1.1 * grid.n

    @given(alpha=st.floats(-1.0, 2.0), xi=st.floats(0.0, 4.0), eps=st.floats(1e-3, 0.1),
           beta=st.none() | st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_random_fibres_keep_the_rule_and_the_norm(self, alpha, xi, eps, beta):
        pot = FibrePotential(xi=xi, profile=power_law(alpha))
        grid = FibreGrid.resolved(eps, choose_outer_wall(pot), pot)
        check_local_rule(grid, pot, RESOLUTION_LIMIT)
        bc = BoundaryCondition.dirichlet() if beta is None else BoundaryCondition.robin(beta)
        # data that reaches the cutoff
        w, psi0 = pot(grid.points[:-1]), gaussian_packet(grid, center=eps + 0.5, width=0.2)
        stepper = CrankNicolson(grid, [w], [bc], 1e-3)
        _, (sumsq,) = stepper.evolve([psi0], 200, record=True)
        norms = np.sqrt(sumsq)
        assert np.max(np.abs(norms - norms[0])) <= 1e-12

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(0.7)])
    def test_uniform_diagonals_are_the_three_point_formula(self, bc):
        # Numerov's mass h (1, 10, 1)/12 and the three-point stiffness
        # (-1, 2, -1)/h plus the symmetrised W; the row at eps has half the
        # mass and 1/h + beta under Robin, and no couplings under Dirichlet
        pot = FibrePotential(xi=1.0, profile=power_law(1.0))
        grid = endpoint_uniform(0.05, 8.0, pot)
        h, w = (8.0 - 0.05) / (grid.n + 1), pot(grid.points[:-1])
        (m_main, m_off), (a_main, a_off) = _hamiltonian_diagonals(grid, w, bc)
        mass = np.full(w.size, 10.0 * h / 12.0)
        stiff = np.full(w.size, 2.0 / h)
        mass[0], stiff[0] = 5.0 * h / 12.0, 1.0 / h + bc.beta
        if bc.kind == "dirichlet":
            assert m_off[0] == a_off[0] == 0.0
            m_off, a_off, w_off = m_off[1:], a_off[1:], w[1:]
        else:
            w_off = w
        assert np.max(np.abs(m_main / mass - 1.0)) <= 1e-12
        assert np.max(np.abs(m_off * 12.0 / h - 1.0)) <= 1e-12
        assert np.max(np.abs(a_main / (stiff + mass * w) - 1.0)) <= 1e-12
        off = h / 12.0 * (w_off[:-1] + w_off[1:]) / 2.0 - 1.0 / h
        assert np.max(np.abs(a_off / off - 1.0)) <= 1e-12

    def test_weighted_norm_conserved_on_graded_robin_grid(self):
        # the step is unitary in the averaged-mass norm psi^* M psi, to
        # rounding, and the trace is that norm of the state
        pot, bc = FibrePotential(xi=0.5, profile=power_law(0.5)), BoundaryCondition.robin(1.0)
        grid = FibreGrid.resolved(1e-3, 8.0, pot, resolution=SENSITIVITY_RESOLUTION)
        # data that reaches the cutoff
        w, psi0 = pot(grid.points[:-1]), gaussian_packet(grid, center=0.5, width=0.2)
        stepper = CrankNicolson(grid, [w], [bc], 1e-3)
        (psi,), (sumsq,) = stepper.evolve([psi0], 1000, record=True)
        norms = np.sqrt(sumsq)
        assert norms.size == 1001 and norms[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(norms - norms[0])) <= 1e-12
        assert sumsq[-1] == pytest.approx(_mass_sumsq(grid, psi), rel=1e-13)
        # the lumped norm, sum_j w_j |psi_j|^2, is not what the step conserves
        weights = 0.5 * np.add(*grid.cells(psi.size))
        lumped = [weights @ np.abs(p) ** 2 for p in (psi0, psi)]
        assert abs(lumped[1] / lumped[0] - 1.0) > 1e-6

    def test_interior_maximum_is_refined(self):
        # W = 2e4 exp(-(x-3)^2/0.05): its maximum is inside (eps, L) and far
        # above both endpoint values, which the uniform grid is sized from
        def bump(x):
            return 2e4 * np.exp(-((x - 3.0) ** 2) / 0.05)

        prof = custom_profile(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                              lambda x: np.zeros_like(x), kappa=1.0, name="bump",
                              base_w=bump, inv_f2=lambda x: np.ones_like(x))
        pot = FibrePotential(xi=0.0, profile=prof)
        dirichlet = BoundaryCondition.dirichlet()
        uniform = endpoint_uniform(0.1, 9.0, pot)
        with pytest.raises(UsageError, match="does not resolve"):
            CrankNicolson(uniform, [pot(uniform.points[:-1])], [dirichlet], 1e-3)
        graded = FibreGrid.resolved(0.1, 9.0, pot)
        assert graded.resolution_margin(pot(graded.points[:-1])) <= 0.5
        CrankNicolson(graded, [pot(graded.points[:-1])], [dirichlet], 1e-3)
        near = np.abs(graded.nodes - 3.0) < 0.05
        assert np.max(graded.gaps[1:][near]) < 0.6 * SPACING_CAP
        assert graded.h_max == pytest.approx(SPACING_CAP, rel=1e-3)


def scalar_march(eps, L, pot, cap, resolution):
    """``_march`` without its guards: the reference whose grids the guarded
    march must reproduce bit for bit."""

    def local(x):
        w = abs(float(pot(x)))
        return min(cap, math.sqrt(resolution / w)) if w > 0.0 else cap

    gaps, x, h, h_here = [], eps, math.inf, local(eps)
    while x < L:
        h = min(GRID_GROWTH * h, h_here)
        for _ in range(MARCH_SHRINKS):
            h_there = local(x + h)
            if h <= h_there:
                break
            h = h_there
        else:
            raise AssertionError(f"no cell at x={x:g}")
        gaps.append(h)
        x, h_here = x + h, h_there
    return np.array(gaps)


class TestCapRuns:
    """``_march``'s guards (the node estimate, the overflow check, the node
    ceiling) move no node: the grids of every protocol are those of the
    unguarded march of ``scalar_march``."""

    @staticmethod
    def _both_ways(monkeypatch, build):
        import grushinlab.evolution as evolution

        got = build().nodes
        with monkeypatch.context() as m:
            m.setattr(evolution, "_march", scalar_march)
            want = build().nodes
        return got, want

    @pytest.mark.parametrize("kind", ["sensitivity", "plane", "cylinder"])
    @pytest.mark.parametrize("alpha", [-2.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_nodes_match_the_scalar_march(self, monkeypatch, kind, alpha):
        # sensitivity grids at res 0.04 and envelope grids at res 0.5
        prof = power_law(alpha)
        if kind == "sensitivity":
            pot = FibrePotential(xi=0.5, profile=prof)
            L, res = choose_outer_wall(pot), SENSITIVITY_RESOLUTION
        else:
            axis = np.sort(_fft_frequencies(45, 16.0 / 45, kind))
            pot = _envelope(_fibres(prof, np.unique(np.abs(axis))))
            L, res = choose_outer_wall(FibrePotential(xi=0.0, profile=prof)), RESOLUTION_LIMIT
        # alpha -2 envelope grids at eps 1e-3 grade 34k-68k cells, a second
        # of reference march on top of the march itself
        cutoffs = (1e-1, 1e-2) if alpha == -2.0 and kind != "sensitivity" else (1e-1, 1e-2, 1e-3)
        for eps in cutoffs:
            for refine in (1, 2):
                got, want = self._both_ways(monkeypatch, lambda: FibreGrid.resolved(
                    eps, L, pot, refine=refine, resolution=res))
                assert got.size == want.size and np.array_equal(got, want), (eps, refine)


class TestConvergence:
    """Orders of the discretisation, with bounds fixed before measuring."""

    def test_bulk_cap_halving_is_fourth_order(self):
        # a packet moving at k = 5 on the flat fibre W = xi^2 = 9, far from
        # the cutoff, on nested uniform grids of 119, 238 and 476 cells on
        # [0.5, 10] (the first at about the cap), each solved exactly in
        # time from the same nodal samples: the successive differences at
        # the coarse nodes shrink 2^4 times.  A lumped W term or the
        # consistent mass alone is second order.  (Where W varies, the
        # symmetrised W leaves a smaller second-order term, and a unit M-norm
        # rescales the data by 1 + O(h^2), so neither is used here.)
        pot, bc, t = FibrePotential(xi=3.0, profile=power_law(0.0)), BoundaryCondition.dirichlet(), 0.1
        finals = []
        for cells in (119, 238, 476):
            grid = FibreGrid.uniform(0.5, 10.0, cells - 1)
            x = grid.points[:-1]
            psi0 = np.exp(-((x - 5.0) ** 2) / 0.18 + 5j * x)
            psi0[0] = 0.0
            psi = spectral_map(grid, pot(x), bc, lambda e: np.exp(-1j * t * e)) @ psi0
            finals.append(psi[::cells // 119])  # eps and the coarse nodes
        coarse = FibreGrid.uniform(0.5, 10.0, 118)
        steps = [math.sqrt(_mass_sumsq(coarse, a - b)) for a, b in zip(finals, finals[1:])]
        assert 3.5 <= math.log2(steps[0] / steps[1]) <= 4.5

    def test_robin_closure_is_second_order_at_the_cutoff(self):
        # D(1e-3) at xi 0.5, beta 1, alpha 1 under two halvings of the
        # spacing (refine 1, 2, 4): the natural condition's successive
        # differences shrink more than 3 times; the one-sided elimination of
        # the boundary node shrinks them about 2 times
        d = [bc_sensitivity(power_law(1.0), 0.5, 1.0, [1e-3], refine=refine).rows[0][1]
             for refine in (1, 2, 4)]
        assert abs(d[0] - d[1]) / abs(d[1] - d[2]) > 3.0


class TestBoundaryCondition:
    def test_labels(self):
        assert BoundaryCondition.dirichlet().label() == "dirichlet"
        assert BoundaryCondition.robin(2.0).label() == "robin(beta=2)"

    def test_validation(self):
        with pytest.raises(UsageError):
            BoundaryCondition(kind="absorbing")
        with pytest.raises(UsageError):
            BoundaryCondition.robin(math.inf)


class TestUnitarity:
    def test_single_step_norm(self):
        grid, pot, psi0 = make_fibre(1.0, 1.0)
        psi, _ = evolve_fibre(grid, pot, BoundaryCondition.dirichlet(), psi0, 1e-3, 1e-3)
        norms = [math.sqrt(_mass_sumsq(grid, p)) for p in (psi0, psi)]
        assert abs(norms[1] - norms[0]) <= 1e-10

    def test_step_matches_explicit_cayley_map(self):
        # reference: R = (1 + z/2 + z^2/12) / (1 - z/2 + z^2/12) at z = -i dt H,
        # the (2,2) Pade approximant of e^z, as a dense matrix from H's
        # eigenpairs (the stiff modes' z^2 ~ 1e9 rules out assembling the
        # polynomials), on a uniform and on a graded Robin grid
        pot = FibrePotential(xi=0.5, profile=power_law(0.5))
        bc, dt = BoundaryCondition.robin(1.0), DEFAULT_DT

        def pade(e):
            z = -1j * dt * e
            return (1.0 + z / 2.0 + z**2 / 12.0) / (1.0 - z / 2.0 + z**2 / 12.0)

        for grid in (endpoint_uniform(0.05, 6.0, pot),
                     FibreGrid.resolved(1e-3, 6.0, pot, resolution=0.04)):
            w, psi = pot(grid.points[:-1]), gaussian_packet(grid, center=0.5, width=0.2)
            dense = spectral_map(grid, w, bc, pade)
            got = CrankNicolson(grid, [w], [bc], dt).step(psi)
            assert np.max(np.abs(got - dense @ psi)) <= 1e-12
            assert np.max(np.abs(got - psi)) > 1e-2  # the step does move the data

    def test_step_is_twice_the_solve_of_the_unscaled_factors(self):
        # the stepper stores the factors of P/2 for each pencil P = M + i dt
        # A/a: on normal-range numbers each factor is bit for bit
        # 2 P^{-1} M psi - psi from P's own factors, and a step is the second
        # after the first; the product M psi is the dense one
        from scipy.linalg import get_lapack_funcs

        grid, pot, _ = make_fibre(0.5, 0.5, eps=1e-3)
        dt, rng = DEFAULT_DT, np.random.default_rng(3)
        for bc in (BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)):
            w = pot(grid.points[:-1])
            psi = np.array([1.0, 1j]) @ rng.normal(size=(2, w.size))
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (psi,))
            (m_main, m_off), (a_main, a_off) = _hamiltonian_diagonals(grid, w, bc)
            stepper = CrankNicolson(grid, [w], [bc], dt)

            def mass(v):
                return stepper._mass(v, np.empty_like(v))

            dense = dense_pencil(grid, w, bc)[0] @ psi
            assert np.max(np.abs(mass(psi) - dense)) <= 1e-15 * np.max(np.abs(dense))
            expected = psi
            for shift, factors in zip(PADE_SHIFTS, stepper._factors):
                z = dt * shift
                off = m_off + z * a_off
                *unscaled, info = gttrf(off, m_main + z * a_main, off.copy())
                solved, info_solve = gttrs(*unscaled, mass(psi))
                assert info == info_solve == 0
                got = stepper._cayley(factors, psi, np.empty_like(psi))
                assert np.array_equal(got, 2.0 * solved - psi)
                solved, _ = gttrs(*unscaled, mass(expected))
                expected = 2.0 * solved - expected
            assert np.array_equal(stepper.step(psi), expected)

    def test_fourth_order_in_dt(self):
        # a Robin fibre to t = 0.2 against the exact propagator of the same
        # discrete H: halving dt from 5e-3 cuts the error about 2^4 = 16
        # times (15.7), where Crank-Nicolson's cuts it 4 times; the norm stays
        pot = FibrePotential(xi=1.0, profile=power_law(1.0))
        grid = FibreGrid.resolved(0.05, 6.0, pot, refine=2)  # at least 100 nodes
        bc, t = BoundaryCondition.robin(1.0), 0.2
        w, psi0 = pot(grid.points[:-1]), gaussian_packet(grid)
        exact = spectral_map(grid, w, bc, lambda e: np.exp(-1j * t * e)) @ psi0
        errors = []
        for dt in (5e-3, 2.5e-3):
            (psi,), (sumsq,) = CrankNicolson(grid, [w], [bc], dt).evolve(
                [psi0], round(t / dt), record=True)
            assert np.max(np.abs(np.sqrt(sumsq) - 1.0)) <= 1e-12
            errors.append(math.sqrt(_mass_sumsq(grid, psi - exact)))
        assert 12.0 <= errors[0] / errors[1] <= 20.0

    def test_t_final_must_be_whole_steps(self):
        grid, pot, psi0 = make_fibre(1.0, 1.0)
        bc = BoundaryCondition.dirichlet()
        with pytest.raises(UsageError):
            evolve_fibre(grid, pot, bc, psi0, 0.5, 0.3)
        with pytest.raises(UsageError):
            evolve_fibre(grid, pot, bc, psi0, -0.3, 0.3)
        _, norms = evolve_fibre(grid, pot, bc, psi0, 0.6, 0.3, record_norms=True)
        assert norms.size == 3

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)])
    def test_thousand_steps(self, bc):
        grid, pot, psi0 = make_fibre(0.5, 0.5)
        _, norms = evolve_fibre(grid, pot, bc, psi0, 1.0, 1e-3, record_norms=True)
        assert norms.size == 1001
        assert np.max(np.abs(norms - norms[0])) <= 1e-6
        assert np.max(np.abs(np.diff(norms))) <= 1e-10

    def test_free_box_energy_constant(self):
        # W = 0: alpha = 0, xi = 0, plain Dirichlet box
        prof = power_law(0.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.uniform(0.5, 10.0, 800)
        w = pot(grid.points[:-1])
        stepper = CrankNicolson(grid, [w], [BoundaryCondition.dirichlet()], 1e-4)
        psi = gaussian_packet(grid, center=5.0, width=0.5)

        def energy(p):
            h = grid.h_max
            lap = 2.0 * p.copy()
            lap[:-1] -= p[1:]
            lap[1:] -= p[:-1]
            return float(np.real(np.vdot(p, lap / h**2 + w * p)) * h)

        e0 = energy(psi)
        for _ in range(1000):
            psi = stepper.step(psi)
        assert abs(energy(psi) - e0) / abs(e0) <= 1e-8

    def test_ground_state_modulus_stationary(self):
        # oracle: lowest eigenvector of the discrete tridiagonal operator
        prof = power_law(1.0)
        pot = FibrePotential(xi=1.0, profile=prof)
        grid = endpoint_uniform(0.05, 12.0, pot)
        w = pot(grid.points[:-1])
        mass, a = dense_pencil(grid, w, BoundaryCondition.dirichlet())
        evals, evecs = eigh(a, mass, subset_by_index=[0, 0])  # v^T M v = 1
        v0 = evecs[:, 0]
        dt, nsteps = 1e-3, 500
        stepper = CrankNicolson(grid, [w], [BoundaryCondition.dirichlet()], dt)
        psi = v0.astype(complex)
        for _ in range(nsteps):
            psi = stepper.step(psi)
        assert np.max(np.abs(np.abs(psi) - np.abs(v0))) <= 1e-10
        # the step multiplies the eigenvector by R's pure phase, which is
        # Crank-Nicolson's to third order in E dt only
        e_dt = evals[0] * dt
        phase = -2.0 * math.atan2(e_dt / 2.0, 1.0 - e_dt**2 / 12.0) * nsteps
        assert np.max(np.abs(psi - v0 * np.exp(1j * phase))) <= 1e-9


class TestStackedStepper:
    # blocks of unequal lengths on one graded grid, every kind of condition
    LENGTHS = (None, 150, 700, 333)
    XI = (0.0, 2.0, 1.0, 3.0)
    BCS = (BoundaryCondition.dirichlet(), BoundaryCondition.robin(0.7),
           BoundaryCondition.dirichlet(), BoundaryCondition.robin(-2.0))

    @classmethod
    def _blocks(cls, seed=0):
        prof = power_law(1.0)
        grid = FibreGrid.resolved(0.05, 8.0, FibrePotential(xi=max(cls.XI), profile=prof))
        rng = np.random.default_rng(seed)
        w, data = [], []
        for k, xi, bc in zip(cls.LENGTHS, cls.XI, cls.BCS):
            nodes = grid.points[:-1][:(k or grid.n) + 1]  # eps and the first k nodes
            w.append(FibrePotential(xi=xi, profile=prof)(nodes))
            data.append(rng.normal(size=nodes.size) + 1j * rng.normal(size=nodes.size))
            if bc.kind == "dirichlet":  # a Dirichlet block's state is 0 at eps
                data[-1][0] = 0.0
        return grid, w, data

    @staticmethod
    def _alone(grid, w, data, bc, nsteps):
        """Every block on a stepper of its own."""
        runs = [CrankNicolson(block_grid(grid, v.size), [v], [b], 1e-3)
                .evolve([p], nsteps, record=True) for v, p, b in zip(w, data, bc)]
        return [s for (s,), _ in runs], [t for _, (t,) in runs]

    def test_stack_equals_steppers_of_their_own(self):
        grid, w, data = self._blocks()
        stepper = CrankNicolson(grid, w, self.BCS, 1e-3)
        states, traces = stepper.evolve(data, 40, record=True)
        expected_states, expected_traces = self._alone(grid, w, data, self.BCS, 40)
        assert traces.shape == (4, 41)
        for got, want in zip(states, expected_states):
            assert np.array_equal(got, want)
        for got, want in zip(traces, expected_traces):
            assert np.array_equal(got, want)
        # each trace is the block's own norm psi^* M psi, in some order
        for got, state, bc in zip(traces[:, -1], states, self.BCS):
            want = _mass_sumsq(block_grid(grid, state.size), state)
            assert got == pytest.approx(want, rel=1e-13)
        # one step of the stacked vector, block by block
        stacked = stepper.step(np.concatenate(data))
        singles = np.concatenate([
            CrankNicolson(block_grid(grid, v.size), [v], [b], 1e-3).step(p)
            for v, p, b in zip(w, data, self.BCS)])
        assert np.array_equal(stacked, singles)

    def test_dirichlet_row_holds_zero_and_leaves_the_nodes_alone(self):
        # Dirichlet blocks on both sides of a Robin block, 1,000 steps from
        # data 0 at eps: each Dirichlet unknown at eps stays exactly 0, and
        # its nodes are bit for bit those of the pencil's interior rows
        # alone (the block of the nodes, u_0 = 0 eliminated), factored and
        # stepped here without the stepper
        from scipy.linalg import get_lapack_funcs

        grid, pot, psi0 = make_fibre(0.5, 0.5, eps=1e-3)
        w, dt, nsteps = pot(grid.points[:-1]), DEFAULT_DT, 1000
        dirichlet = BoundaryCondition.dirichlet()
        bcs = (dirichlet, BoundaryCondition.robin(1.0), dirichlet)
        finals, _ = CrankNicolson(grid, [w] * 3, bcs, dt).evolve([psi0] * 3, nsteps)
        assert finals[0][0] == 0.0 and finals[2][0] == 0.0 and finals[1][0] != 0.0

        (m_main, m_off), (a_main, a_off) = (
            (main[1:], off[1:]) for main, off in _hamiltonian_diagonals(grid, w, dirichlet))
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (psi0,))
        m2, off2 = np.repeat(m_main, 2), np.repeat(m_off, 2)

        def mass(v):  # M v on the real views, as the stepper forms it
            x = v.view(float)
            out = m2 * x
            out[:-2] += off2 * x[2:]
            out[2:] += off2 * x[:-2]
            return out.view(complex)

        factors = []
        for shift in PADE_SHIFTS:
            off = 0.5 * (m_off + dt * shift * a_off)
            *pencil, info = gttrf(off, 0.5 * (m_main + dt * shift * a_main), off.copy())
            assert info == 0
            factors.append(pencil)
        psi = psi0[1:]
        for _ in range(nsteps):
            for pencil in factors:
                psi = gttrs(*pencil, mass(psi))[0] - psi
        assert np.array_equal(finals[0][1:], psi) and np.array_equal(finals[2][1:], psi)

    @pytest.mark.parametrize("perturb", ["data", "potential", "condition"])
    def test_perturbing_one_block_leaves_the_others(self, perturb):
        grid, w, data = self._blocks()
        bcs = list(self.BCS)
        base = CrankNicolson(grid, w, bcs, 1e-3).evolve(data, 40, record=True)
        if perturb == "data":
            data[1] = data[1] * (1.0 + 1e-6)
        elif perturb == "potential":
            w[1] = w[1] + 1.0
        else:
            bcs[1] = BoundaryCondition.robin(0.8)
        moved = CrankNicolson(grid, w, bcs, 1e-3).evolve(data, 40, record=True)
        for m in range(4):
            same = (np.array_equal(base[0][m], moved[0][m])
                    and np.array_equal(base[1][m], moved[1][m]))
            assert same == (m != 1), m

    def test_evolution_returns_views_of_the_buffers(self):
        grid, w, data = self._blocks()
        stepper = CrankNicolson(grid, w, self.BCS, 1e-3)
        for nsteps in (2, 3):  # the run ends in either buffer
            states, traces = stepper.evolve(data, nsteps)
            assert traces.shape == (4, 2)
            # the final states are views of the buffer the last step wrote
            buffer = stepper._buffers[nsteps % 2]
            assert all(s.base is buffer for s in states)
            fresh, _ = CrankNicolson(grid, w, self.BCS, 1e-3).evolve(data, nsteps)
            assert all(np.array_equal(s, f) for s, f in zip(states, fresh))

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(0.5)])
    def test_work_counts_every_solve(self, stepper_sizes, bc):
        # a step solves each block twice: node-solves are twice the steps
        # times the unknowns the steppers hold, the nodes eps included
        prof, grid, psi0 = TestPlaneEvolution._stiff_plane()
        work = evolve_plane(psi0, prof, 0.01, bc, dt=2e-3, jobs=2).work
        blocks, unknowns = map(sum, zip(*stepper_sizes))
        assert (blocks, len(stepper_sizes)) == (work["fibres_stepped"], 2)
        assert work["node_solves"] == 2 * work["steps"] * unknowns == 2 * work["node_steps"]
        assert work["solves"] == 2 * work["steps"] * blocks
        stepper_sizes.clear()
        r = bc_sensitivity(power_law(1.5), 0.5, 0.01, [1e-1, 1e-2], beta=0.5)
        assert [size for _, size in stepper_sizes] == [2 * g["n"] + 2 for g in r.grids]
        unknowns = sum(size for _, size in stepper_sizes)
        assert r.work == {"steps": 2, "node_steps": 2 * unknowns, "solves": 2 * 2 * 4,
                          "node_solves": 2 * 2 * unknowns}

    def test_dirichlet_data_off_zero_at_eps_is_refused(self):
        # the stepper would step such a row as a decoupled unknown, and its
        # trace would then not be the block's _mass_sumsq
        grid, w, data = self._blocks()
        stepper = CrankNicolson(grid, w, self.BCS, 1e-3)
        data[2][0] = 1e-300  # block 2 is Dirichlet
        with pytest.raises(UsageError, match="block 2 is Dirichlet at eps, so its state must "
                                             "be 0 there, not 1e-300"):
            stepper.evolve(data, 1)
        data[2][0], data[3][0] = 0.0, 1.0  # block 3 is Robin: any value at eps
        _, traces = stepper.evolve(data, 1)
        assert np.all(traces > 0.0)

    @given(seed=st.integers(0, 2**32 - 1), nsteps=st.integers(0, 3),
           blocks=st.lists(st.tuples(st.integers(2, 151), st.booleans(), st.floats(-5.0, 5.0)),
                           min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_traces_are_each_blocks_mass_sumsq(self, seed, nsteps, blocks):
        # random stacks of random blocks, potentials and conditions, the
        # Dirichlet data 0 at eps: every block's trace, at the start and at
        # the end, is _mass_sumsq of its state.  A stack of two unknowns in
        # all is left out: scipy's gttrf wrapper rejects a system of size 2
        assume(sum(size for size, _, _ in blocks) > 2)
        grid = FibreGrid.uniform(0.05, 4.0, 150)
        rng = np.random.default_rng(seed)
        w, bcs, data = [], [], []
        for size, dirichlet, beta in blocks:
            w.append(rng.uniform(-100.0, 100.0, size))
            bcs.append(BoundaryCondition.dirichlet() if dirichlet else BoundaryCondition.robin(beta))
            data.append(rng.normal(size=size) + 1j * rng.normal(size=size))
            if dirichlet:
                data[-1][0] = 0.0
        states, traces = CrankNicolson(grid, w, bcs, 1e-3).evolve(data, nsteps)
        for (start, end), before, after in zip(traces, data, states):
            assert start == pytest.approx(_mass_sumsq(grid, before), rel=1e-13)
            assert end == pytest.approx(_mass_sumsq(grid, after), rel=1e-13)

    def test_block_validation(self):
        grid, w, data = self._blocks()
        with pytest.raises(UsageError, match="3 boundary conditions for 4 blocks"):
            CrankNicolson(grid, w, self.BCS[:3], 1e-3)
        for size in (0, 1, grid.n + 2):  # eps and at least one node, at most all
            with pytest.raises(UsageError, match="does not fit"):
                CrankNicolson(grid, [np.zeros(size)], self.BCS[:1], 1e-3)
        with pytest.raises(UsageError, match="does not resolve"):
            CrankNicolson(grid, [w[0], w[1] * 1e6], [self.BCS[0]] * 2, 1e-3)

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)])
    def test_a_stack_of_two_unknowns_is_rejected(self, bc):
        # a lone block of eps and one node fits its grid, but the stack's
        # tridiagonal system of 2 is below what scipy's gttrf takes; two
        # such blocks, or one block of 3, step
        grid = FibreGrid.uniform(0.1, 10.0, 200)
        with pytest.raises(UsageError, match="a stack of 2 unknowns"):
            CrankNicolson(grid, [np.zeros(2)], [bc], 1e-3)
        for w in ([np.zeros(2)] * 2, [np.zeros(3)]):
            psi = [np.ones(len(v), dtype=complex) for v in w]
            if bc.kind == "dirichlet":
                for p in psi:
                    p[0] = 0.0
            states, _ = CrankNicolson(grid, w, [bc] * len(w), 1e-3).evolve(psi, 2)
            assert all(np.all(np.isfinite(s)) for s in states)


class TestTransforms:
    def setup_method(self):
        self.prof = power_law(1.0)
        self.pot = FibrePotential(xi=0.0, profile=self.prof)
        self.grid = FibreGrid.resolved(0.05, 12.0, self.pot)
        self.y = np.linspace(-8.0, 8.0, 63)
        self.psi = self.bump(self.grid)

    def bump(self, grid):
        x = grid.nodes
        bump = np.exp(-((x[:, None] - 2.0) ** 2 + self.y[None, :] ** 2) / (2 * 0.3**2))
        return PlaneWavefunction(
            values=bump.astype(complex), grid=grid, axis=self.y, representation="original"
        )

    def test_flat_profile_is_fourier_only(self):
        prof0 = power_law(0.0)
        hat = to_transformed(self.psi, prof0)
        # U_f is the identity for f = 1: the x marginal is untouched
        assert hat.norm() == pytest.approx(self.psi.norm(prof0), abs=1e-12)

    def test_norms_agree_across_representations(self):
        # oracle: direct quadrature of |psi|^2 f(x) dx dy, f = 1/x, with
        # Numerov's mass h (1, 10, 1)/12 on the uniform grid, vs flat sum
        grid = endpoint_uniform(0.05, 12.0, self.pot)
        psi = self.bump(grid)
        u = psi.values / np.sqrt(grid.nodes)[:, None]
        quadrature = (10.0 * np.sum(np.abs(u) ** 2)
                      + 2.0 * np.sum((u[:-1].conj() * u[1:]).real)) * grid.h_max / 12.0
        direct = math.sqrt((self.y[1] - self.y[0]) * float(quadrature))
        hat = to_transformed(psi, self.prof)
        assert hat.norm() == pytest.approx(direct, rel=1e-8)

    def test_narrow_bump_parseval(self):
        x = self.grid.nodes
        narrow = np.exp(-((x[:, None] - 2.0) ** 2) / (2 * 0.3**2)) * np.exp(
            -(self.y[None, :] ** 2) / (2 * 0.05**2)
        )
        psi = PlaneWavefunction(
            values=narrow.astype(complex), grid=self.grid, axis=self.y,
            representation="original"
        )
        hat = to_transformed(psi, self.prof)
        assert hat.norm() == pytest.approx(psi.norm(self.prof), rel=1e-8)

    @given(half=st.integers(1, 40), geometry=st.sampled_from(["plane", "cylinder"]),
           y0=st.floats(-10.0, 10.0), dy=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, half, geometry, y0, dy, seed):
        # random complex data on random odd ny; the cylinder's y axis is the
        # circle of circumference 2 pi
        ny = 2 * half + 1
        if geometry == "cylinder":
            dy = 2.0 * math.pi / ny
        y = y0 + dy * np.arange(ny)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((self.grid.n, ny)) + 1j * rng.standard_normal((self.grid.n, ny))
        psi = PlaneWavefunction(values=vals, grid=self.grid, axis=y, representation="original",
                                geometry=geometry)
        back = to_original(to_transformed(psi, self.prof), self.prof)
        assert np.max(np.abs(back.values - vals)) <= 1e-8
        assert np.allclose(back.axis, y, rtol=0.0, atol=1e-12 * max(1.0, abs(y0)))

    def test_cylinder_modes_are_exact_integers(self):
        # 49 * (1/49) is not 1 in floating point, so fftfreq(49, d=1/49) is
        # off by an ulp; the mode numbers must be exact
        y = 2.0 * math.pi / 49 * np.arange(49)
        psi = PlaneWavefunction(values=np.ones((self.grid.n, 49), dtype=complex), grid=self.grid,
                                axis=y, representation="original", geometry="cylinder")
        hat = to_transformed(psi, self.prof)
        assert np.array_equal(hat.axis, np.arange(-24, 25))
        assert hat.daxis == 1.0

    @pytest.mark.parametrize("geometry", ["plane", "cylinder"])
    def test_rejects_single_xi_node(self, geometry):
        # one frequency fixes no y spacing; it must not become NaN nodes
        psi = PlaneWavefunction(values=np.ones((self.grid.n, 1), dtype=complex), grid=self.grid,
                                axis=np.array([0.0]), representation="transformed",
                                geometry=geometry)
        with pytest.raises(UsageError):
            to_original(psi, self.prof)

    def test_rejects_even_grid(self):
        y = np.linspace(-8.0, 8.0, 64)
        vals = np.zeros((self.grid.n, 64), dtype=complex)
        psi = PlaneWavefunction(values=vals, grid=self.grid, axis=y, representation="original")
        with pytest.raises(UsageError):
            to_transformed(psi, self.prof)

    def test_rejects_nonfinite(self):
        vals = self.psi.values.copy()
        vals[3, 3] = math.nan
        psi = PlaneWavefunction(values=vals, grid=self.grid, axis=self.y,
                                representation="original")
        with pytest.raises(UsageError, match="non-finite samples"):
            to_transformed(psi, self.prof)


class TestPlaneEvolution:
    def test_single_fibre_reduction(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        g = gaussian_packet(grid)
        psi0 = PlaneWavefunction(
            values=g[1:, None].astype(complex),
            grid=grid,
            axis=np.array([0.0]),
            representation="transformed",
        )
        res = evolve_plane(psi0, prof, 0.2, BoundaryCondition.dirichlet(), dt=1e-3)
        fin, _ = evolve_fibre(grid, pot, BoundaryCondition.dirichlet(), g, 0.2, 1e-3)
        assert fin[0] == 0.0 and np.array_equal(res.final.values[:, 0], fin[1:])
        assert res.spectrum_edge_mass == pytest.approx(1.0)  # the one column is the edge

    def test_boundary_mass_counts_the_robin_node(self):
        # the M-norm below x = 0.05 of the block's state, whose node eps
        # (nonzero under Robin) final.values leaves out
        prof, robin = power_law(1.0), BoundaryCondition.robin(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.01, 12.0, pot)
        g = gaussian_packet(grid)
        psi0 = PlaneWavefunction(values=g[1:, None], grid=grid, axis=np.array([0.0]),
                                 representation="transformed")
        res = evolve_plane(psi0, prof, 0.2, robin, dt=1e-3)
        fin, _ = evolve_fibre(grid, pot, robin, g, 0.2, 1e-3)
        assert np.array_equal(res.final.values[:, 0], fin[1:])
        near = np.flatnonzero(grid.points[:-1] < 0.05)
        (mass, lumped), (nodes_only, _) = (dense_mass(grid, fin, rows) for rows in (near, near[1:]))
        assert near[0] == 0 and mass - nodes_only > 1e-3 * mass > 0.0
        assert res.boundary_mass == pytest.approx(mass, rel=1e-12)
        check_sandwich([(mass, lumped)])

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)])
    def test_masses_are_m_norms_of_the_rows_they_name(self, monkeypatch, bc):
        # data next to and beyond the |xi| = 6 fibres' wall near 4, under a
        # lifted limit: a fibre's wall mass is the M-norm of its block's
        # rows within 0.5 of the wall at the end plus that of its data's
        # rows from the wall on, and the boundary mass that of every
        # fibre's rows below x = 0.05, each the principal block of the
        # dense M on those rows and within [2/3, 1] of the lumped sum
        import grushinlab.evolution as evolution

        monkeypatch.setattr(evolution, "WALL_MASS_LIMIT", math.inf)
        prof, grid, psi0 = self._stiff_plane(3.3, eps=0.01)
        dt, nsteps, points = 1e-3, 100, grid.points
        res = evolve_plane(psi0, prof, nsteps * dt, bc, dt=dt)
        walls, boundary = [], []
        for m, xi in enumerate(psi0.axis):
            pot = FibrePotential(xi=float(xi), profile=prof)
            size = _fibre_size(grid, pot)
            data = np.concatenate(([0.0], psi0.values[:, m]))
            (final,), _ = CrankNicolson(grid, [pot(points[:size])], [bc], dt).evolve(
                [data[:size]], nsteps)
            assert np.array_equal(res.final.values[:size - 1, m], final[1:])
            wall = dense_mass(grid, final, np.flatnonzero(points[:size] >= points[size] - 0.5))
            beyond = dense_mass(grid, data, np.arange(size, grid.n + 1))
            boundary.append(dense_mass(grid, final, np.flatnonzero(points[:size] < 0.05)))
            check_sandwich([wall, beyond, boundary[-1]])
            walls.append((wall[0], beyond[0]))
        worst = max(walls, key=sum)
        assert worst[1] > 10.0 * worst[0] > 0.0  # both parts count, the data's more
        assert res.wall_mass == pytest.approx(psi0.daxis * sum(worst), rel=1e-12)
        assert res.boundary_mass == pytest.approx(psi0.daxis * sum(b for b, _ in boundary),
                                                  rel=1e-12)

    def test_cylinder_mode_norms_sum(self):
        prof = power_law(0.5)
        kmax = 3
        pot = FibrePotential(xi=float(kmax), profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        axis = np.arange(-kmax, kmax + 1, dtype=float)
        g = gaussian_packet(grid)
        vals = np.outer(g[1:], np.exp(-(axis**2) / 4.0)).astype(complex)
        psi0 = PlaneWavefunction(values=vals, grid=grid, axis=axis,
                                 representation="transformed", geometry="cylinder")
        res = evolve_plane(psi0, prof, 0.1, BoundaryCondition.dirichlet(), dt=1e-3)
        total = math.sqrt(float(np.sum(res.fibre_norms**2)))
        assert total == pytest.approx(res.norm_after, rel=1e-12)
        assert res.norm_drift <= 1e-6

    def test_fibre_order_independence(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=2.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        axis = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        vals = np.outer(gaussian_packet(grid)[1:], np.ones(5)).astype(complex)
        psi0 = PlaneWavefunction(values=vals, grid=grid, axis=axis,
                                 representation="transformed")
        r1 = evolve_plane(psi0, prof, 0.05, BoundaryCondition.dirichlet(), dt=1e-3)
        r2 = evolve_plane(psi0, prof, 0.05, BoundaryCondition.dirichlet(), dt=1e-3,
                          jobs=3)
        assert np.array_equal(r1.final.values, r2.final.values)

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(0.5)])
    def test_jobs_do_not_change_the_result(self, bc):
        # fibres of three prefix lengths, split into 1, 2, 3 and 5 stacks
        prof, _, psi0 = self._stiff_plane()
        results = [evolve_plane(psi0, prof, 0.1, bc, dt=2e-3, jobs=jobs)
                   for jobs in (1, 2, 3, psi0.axis.size + 1)]
        for r in results[1:]:
            assert np.array_equal(r.final.values, results[0].final.values)
            assert np.array_equal(r.norm_trace, results[0].norm_trace)
            assert np.array_equal(r.fibre_norms, results[0].fibre_norms)
            assert r.wall_mass == results[0].wall_mass
        assert results[0].norm_trace.size == 51

    def test_thread_pool_only_for_several_stacks(self, pool_sizes):
        # the even data has 3 distinct fibres of 5; without twins all 5 step
        prof, _, psi0 = self._stiff_plane()
        bc = BoundaryCondition.dirichlet()
        evolve_plane(psi0, prof, 0.01, bc, dt=2e-3)
        assert pool_sizes == []
        evolve_plane(psi0, prof, 0.01, bc, dt=2e-3, jobs=2)
        evolve_plane(psi0, prof, 0.01, bc, dt=2e-3, jobs=9)
        assert pool_sizes == [2, 3]
        evolve_plane(self._without_twins(psi0), prof, 0.01, bc, dt=2e-3, jobs=2)
        evolve_plane(self._without_twins(psi0), prof, 0.01, bc, dt=2e-3, jobs=9)
        assert pool_sizes == [2, 3, 2, 5]

    @staticmethod
    def _without_twins(psi0):
        """``psi0`` with every xi < 0 column turned by the phase e^{0.1 i}, so
        no fibre holds the data of its mirror fibre."""
        values = psi0.values.copy()
        values[:, psi0.axis < 0] *= np.exp(0.1j)
        return replace(psi0, values=values)

    @pytest.mark.parametrize("twins, stepped, nodes", [(True, 23, 5364), (False, 45, 10082)])
    def test_each_distinct_fibre_is_stepped_once(self, stacked_blocks, twins, stepped, nodes):
        # the standard data is even in xi, so each xi > 0 fibre repeats the
        # block and the data of its mirror fibre
        prof = power_law(1.0)
        psi0 = standard_plane_data(prof, "plane", 0.01, 45, 2.0, 16.0)
        if not twins:
            psi0 = self._without_twins(psi0)
        res = evolve_plane(psi0, prof, 0.01, BoundaryCondition.dirichlet(), dt=2e-3, jobs=2)
        lengths = [n for stack in stacked_blocks for n in stack]
        # the blocks' unknowns: their nodes and each block's eps
        assert (len(lengths), sum(lengths)) == (stepped, nodes + stepped)
        assert res.work == {"fibres": 45, "fibres_stepped": stepped, "steps": 5,
                            "node_steps": 5 * sum(lengths), "solves": 2 * 5 * stepped,
                            "node_solves": 2 * 5 * sum(lengths)}
        mirrored = np.array_equal(res.final.values, res.final.values[:, ::-1])
        assert mirrored == twins

    def test_twins_that_differ_are_stepped_apart(self, stacked_blocks):
        # one ulp inside the xi > 0 twin's prefix makes it a fibre of its own
        prof, bc, dt = power_law(1.0), BoundaryCondition.dirichlet(), 2e-3
        psi0 = standard_plane_data(prof, "plane", 0.01, 45, 2.0, 16.0)
        values = psi0.values.copy()
        m = 30  # the twin of fibre 14
        j = int(np.argmax(np.abs(values[:, m])))
        values[j, m] = np.nextafter(values[j, m].real, np.inf)
        psi0 = replace(psi0, values=values)
        res = evolve_plane(psi0, prof, 0.01, bc, dt=dt)
        # the other 22 twins are still stepped once
        assert sum(len(stack) for stack in stacked_blocks) == 24
        assert res.work["fibres_stepped"] == 24
        for k in (44 - m, m):
            pot = FibrePotential(xi=float(psi0.axis[k]), profile=prof)
            block = block_grid(psi0.grid, _fibre_size(psi0.grid, pot))
            (alone,), _ = CrankNicolson(block, [pot(block.points[:-1])], [bc], dt).evolve(
                [np.concatenate(([0.0], values[:block.n, k]))], 5)
            assert np.array_equal(res.final.values[:block.n, k], alone[1:])

    @pytest.mark.parametrize("sizes, parts, expected", [
        ([5, 5, 5, 5], 2, [2, 2]),
        ([9, 1, 1, 1, 1, 1], 2, [1, 5]),
        ([1, 1, 1, 1, 1, 9], 2, [5, 1]),
        ([3, 1, 4, 1, 5], 5, [1, 1, 1, 1, 1]),
        ([7], 1, [1]),
        ([2, 2, 2, 2, 2, 2, 2], 3, [2, 3, 2]),
    ])
    def test_stacks_are_contiguous_and_balanced(self, sizes, parts, expected):
        runs = _contiguous_parts(sizes, parts)
        assert [len(r) for r in runs] == expected
        assert [i for r in runs for i in r] == list(range(len(sizes)))

    def test_requires_transformed(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        psi = PlaneWavefunction(
            values=np.zeros((grid.n, 3), dtype=complex),
            grid=grid,
            axis=np.array([-1.0, 0.0, 1.0]),
            representation="original",
        )
        with pytest.raises(UsageError):
            evolve_plane(psi, prof, 0.1, BoundaryCondition.dirichlet())

    def test_asymmetric_xi_grid_rejected(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        psi = PlaneWavefunction(
            values=np.zeros((grid.n, 3), dtype=complex),
            grid=grid,
            axis=np.array([0.0, 1.0, 2.0]),
            representation="transformed",
        )
        with pytest.raises(UsageError):
            evolve_plane(psi, prof, 0.1, BoundaryCondition.dirichlet())

    def test_confinement_boundary_mass(self):
        # confining regime: mass near the boundary stays tiny and is stable
        # under pushing the cutoff inward
        prof = power_law(1.0)
        wall = choose_outer_wall(FibrePotential(xi=0.0, profile=prof))
        masses = []
        for eps in (0.02, 0.01):
            pot = FibrePotential(xi=1.0, profile=prof)
            grid = FibreGrid.resolved(eps, wall, pot)
            g = gaussian_packet(grid)
            psi0 = PlaneWavefunction(
                values=np.outer(g[1:], [0.5, 1.0, 0.5]).astype(complex),
                grid=grid,
                axis=np.array([-1.0, 0.0, 1.0]),
                representation="transformed",
            )
            nrm = psi0.norm()
            psi0 = PlaneWavefunction(values=psi0.values / nrm, grid=grid,
                                     axis=psi0.axis, representation="transformed")
            res = evolve_plane(psi0, prof, 1.0, BoundaryCondition.dirichlet(),
                               dt=2e-3)
            masses.append(res.boundary_mass)
            assert res.norm_drift <= 1e-6
        assert all(m < 1e-4 for m in masses)

    @staticmethod
    def _stiff_plane(center=2.0, eps=0.05):
        # the |xi| = 3, 6 fibres turn near x = 4.2 and x = 2.1, so their
        # walls move in from L = 12 to about 6.3 and 4 (choose_outer_wall's
        # floor); the grid resolves the xi = 6 fibre at refine 2, so at eps
        # 0.05 the |xi| = 6 blocks are the 157 nodes before 4 of its 1,244
        prof = power_law(1.0)
        axis = np.array([-6.0, -3.0, 0.0, 3.0, 6.0])
        grid = FibreGrid.resolved(eps, 12.0, FibrePotential(xi=6.0, profile=prof), refine=2)
        g = np.exp(-((grid.nodes - center) ** 2) / (2.0 * 0.3**2))
        vals = np.outer(g, np.exp(-(axis**2) / 8.0)).astype(complex)
        psi0 = PlaneWavefunction(values=vals, grid=grid, axis=axis,
                                 representation="transformed")
        return prof, grid, PlaneWavefunction(values=vals / psi0.norm(), grid=grid,
                                             axis=axis, representation="transformed")

    def test_fibre_walls_match_full_grid(self):
        prof, grid, psi0 = self._stiff_plane()
        bc = BoundaryCondition.dirichlet()
        res = evolve_plane(psi0, prof, 0.2, bc, dt=2e-3)
        # the full-grid reference: every fibre on the caller's grid
        full = np.column_stack([
            CrankNicolson(grid, [FibrePotential(xi=float(xi), profile=prof)(grid.points[:-1])],
                          [bc], 2e-3).evolve([np.concatenate(([0.0], psi0.values[:, m]))],
                                             100)[0][0][1:]
            for m, xi in enumerate(psi0.axis)
        ])
        beyond = grid.nodes > 6.5
        assert not np.any(res.final.values[beyond][:, [0, 1, 3, 4]])
        assert np.array_equal(res.final.values[:, 2], full[:, 2])
        err = np.linalg.norm(res.final.values - full) / np.linalg.norm(full)
        assert err <= 1e-5
        assert 0.0 < res.wall_mass <= 1e-8
        assert res.norm_drift <= 1e-6

    @pytest.mark.parametrize("geometry, alpha, edge_rule_n", [("cylinder", 1.0, 14162),
                                                               ("plane", 2.0, 110157)])
    def test_envelope_grid_resolves_every_fibre_on_its_own_prefix(self, geometry, alpha,
                                                                   edge_rule_n):
        # the shared grid follows the fibres still stepped, not the edge
        # fibre out to the xi = 0 wall, which took edge_rule_n nodes
        prof = power_law(alpha)
        psi0 = standard_plane_data(prof, geometry, 0.01, 45, 2.0, 16.0)
        grid = psi0.grid
        assert grid.n < edge_rule_n / 4
        pots = _fibres(prof, psi0.axis)
        blocks = [block_grid(grid, _fibre_size(grid, pot)) for pot in pots]
        margins = [f.resolution_margin(pot(f.points[:-1])) for f, pot in zip(blocks, pots)]
        assert max(margins) <= RESOLUTION_LIMIT
        # the steppers check each fibre's block and record the largest margin
        result = evolve_plane(psi0, prof, 0.02, BoundaryCondition.dirichlet(), dt=2e-3)
        assert result.grid == {"n": grid.n, "h_min": grid.h_min, "h_max": grid.h_max,
                               "resolution_margin": max(margins)}
        assert result.norm_drift <= 1e-6

    @pytest.mark.parametrize("geometry", ["plane", "cylinder"])
    def test_standard_runs_step_each_fibre_before_its_own_wall(self, stacked_blocks, geometry):
        # the 66 standard runs of each geometry to t = 0.01 all finish, and
        # every block is the nodes before its fibre's own wall: no fewer,
        # and none past it, where the envelope no longer bounds its W (at
        # alpha 0.5, eps 0.01 the |xi| = 8.25 and 8.64 plane fibres have 94
        # nodes before x = 4)
        for alpha in (-2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0):
            prof = power_law(alpha)
            for eps in (0.01, 0.05, 0.1):
                psi0 = standard_plane_data(prof, geometry, eps, 45, 2.0, 16.0)
                grid = psi0.grid
                # the even data's distinct fibres are the first 23, xi <= 0
                walls = [choose_outer_wall(pot) for pot in _fibres(prof, psi0.axis[:23])]
                for bc in (BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)):
                    stacked_blocks.clear()
                    res = evolve_plane(psi0, prof, 0.01, bc)
                    assert res.wall_mass <= WALL_MASS_LIMIT and res.norm_drift <= 1e-12
                    (sizes,) = stacked_blocks
                    assert len(sizes) == len(walls)
                    for size, wall in zip(sizes, walls):
                        assert grid.points[size - 1] < wall <= grid.points[size], (alpha, eps,
                                                                                   bc.kind)

    @pytest.mark.parametrize("geometry", ["plane", "cylinder"])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_standard_data_leaves_every_wall_clean_at_t0(self, geometry, alpha):
        # the wall mass a run of no steps records is the data's own, and it
        # must leave the limit to the evolution.  The turning-point rule
        # alone puts the steep fibres' walls at 3.5, five widths past the
        # data's centre, where the data holds up to 1.2e-7
        prof = power_law(alpha)
        psi0 = standard_plane_data(prof, geometry, 0.01, 45, 2.0, 16.0)
        result = evolve_plane(psi0, prof, 0.0, BoundaryCondition.dirichlet())
        assert result.wall_mass <= 1e-2 * WALL_MASS_LIMIT

    def test_grid_end_contamination_detected(self):
        # the xi = 0 fibre's own wall lies beyond L = 4, so it runs on the
        # whole grid and spreads onto its end by t = 0.1
        prof = power_law(1.0)
        grid = FibreGrid.resolved(0.05, 4.0, FibrePotential(xi=0.0, profile=prof))
        psi0 = PlaneWavefunction(values=gaussian_packet(grid)[1:, None], grid=grid,
                                 axis=np.array([0.0]), representation="transformed")
        with pytest.raises(NumericError, match="xi=0: its outer wall at x=4 "):
            evolve_plane(psi0, prof, 0.1, BoundaryCondition.dirichlet(), dt=1e-3)

    @pytest.mark.parametrize("center", [3.3, 5.0])
    def test_truncated_wall_contamination_detected(self, center):
        # data next to (3.3) or beyond (5.0) the xi = 6 fibre's wall near 4
        prof, grid, psi0 = self._stiff_plane(center)
        with pytest.raises(NumericError, match="xi=-6"):
            evolve_plane(psi0, prof, 0.05, BoundaryCondition.dirichlet(), dt=1e-3)

    def test_interior_wall_contamination_detected_without_data_beyond(self):
        # data next to the xi = +-6 fibres' wall near 4 and none beyond it:
        # only the mass before that wall shows it, none before grid.L = 12
        prof, grid, psi0 = self._stiff_plane(3.3)
        size = _fibre_size(grid, FibrePotential(xi=6.0, profile=prof))
        assert grid.points[size] < 4.1
        values = psi0.values.copy()
        values[size - 1:, [0, 4]] = 0.0  # the nodes from the wall on
        with pytest.raises(NumericError,
                           match=f"xi=-6: its outer wall at x={grid.points[size]:.4g} "):
            evolve_plane(replace(psi0, values=values), prof, 0.05, BoundaryCondition.dirichlet(),
                         dt=1e-3)


class TestBcSensitivity:
    def test_confining_trend_decreases(self):
        r = bc_sensitivity(power_law(1.5), 0.5, 1.0, [1e-1, 1e-2])
        assert r.trend == "decreasing"
        assert r.rows[1][1] < 0.2 * r.rows[0][1]
        assert r.norm_drift <= 1e-6

    @pytest.mark.parametrize("ds, trend", [
        ([3.0, 2.0, 1.0], "decreasing"),
        ([1.0, 2.0, 3.0], "increasing"),
        ([1.0, 3.0, 2.0], "non-monotone"),
        ([3.0, 1.0, 2.0], "non-monotone"),
        # equal neighbours are neither decreasing nor increasing
        ([2.0, 2.0, 1.0], "non-monotone"),
        ([1.0, 2.0, 2.0], "non-monotone"),
        ([1.0, 1.0], "non-monotone"),
        # a single cutoff has no trend
        ([1.0], "single cutoff"),
    ])
    def test_trend_rule(self, ds, trend):
        assert _trend(ds) == trend

    def test_takes_any_profile(self):
        # the protocol reads the geometry from its profile alone, so a
        # non-power-law one runs as a power law does
        r = bc_sensitivity(builtin_profile("exp_inverse"), 0.0, 0.1, [0.2, 0.1])
        assert all(math.isfinite(d) and d > 0.0 for _, d in r.rows)
        assert r.rows[1][1] < r.rows[0][1]
        assert r.config["profile"] == "exp_inverse"

    def test_subcritical_stays_positive(self):
        r = bc_sensitivity(power_law(0.5), 0.5, 1.0, [1e-1, 1e-2])
        assert all(d > 1e-4 for _, d in r.rows)

    def test_rate_separation(self):
        # the confining regime sheds boundary-condition dependence
        # measurably faster as eps decreases
        lc = bc_sensitivity(power_law(0.5), 0.5, 1.0, [1e-1, 1e-2])
        lp = bc_sensitivity(power_law(1.5), 0.5, 1.0, [1e-1, 1e-2])
        assert lp.ratio_end_to_start < 0.1 * lc.ratio_end_to_start

    def test_quiescent_before_arrival(self):
        # data far from the cutoff, tiny time: no sensitivity yet
        r = bc_sensitivity(power_law(0.0), 0.0, 0.01, [0.5, 0.25])
        assert all(d < 1e-5 for _, d in r.rows)

    def test_wall_contamination_detected(self):
        with pytest.raises(NumericError):
            bc_sensitivity(power_law(0.0), 0.0, 2.5, [0.1], dt=2e-3)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_graded_matches_uniform_grid(self, alpha):
        # the same protocol on the uniform grid that resolves W(eps)
        eps, beta, dt = 1e-2, 1.0, 1e-3
        pot = FibrePotential(xi=0.5, profile=power_law(alpha))
        grid = endpoint_uniform(eps, choose_outer_wall(pot), pot, SENSITIVITY_RESOLUTION)
        dirichlet, robin = BoundaryCondition.dirichlet(), BoundaryCondition.robin(beta)
        w, psi0 = pot(grid.points[:-1]), gaussian_packet(grid)
        finals = [CrankNicolson(grid, [w], [bc], dt).evolve([psi0], 1000)[0][0]
                  for bc in (dirichlet, robin)]
        d_uniform = math.sqrt(_mass_sumsq(grid, finals[1] - finals[0]))
        r = bc_sensitivity(power_law(alpha), 0.5, 1.0, [eps], beta=beta, dt=dt)
        assert r.grids[0]["n"] < grid.n / 2
        assert r.rows[0][1] == pytest.approx(d_uniform, rel=0.01)

    def test_grids_recorded(self):
        r = bc_sensitivity(power_law(1.5), 0.5, 0.1, [1e-1, 1e-3])
        assert [g["n"] for g in r.grids] == [515, 606]
        for g in r.grids:
            # cap cells past x = 16 are not spaced exactly, so h_max may
            # exceed the cap by rounding
            assert 0.0 < g["h_min"] <= g["h_max"] <= SPACING_CAP * (1.0 + 1e-12)
            assert 0.0 < g["resolution_margin"] <= SENSITIVITY_RESOLUTION
        assert r.grids[1]["h_min"] < 0.02 * r.grids[0]["h_min"]

    def test_eps_grid_validation(self):
        with pytest.raises(UsageError):
            bc_sensitivity(power_law(1.0), 0.5, 1.0, [1e-2, 1e-1])  # increasing
        with pytest.raises(UsageError):
            bc_sensitivity(power_law(1.0), 0.5, 1.0, [1.5])  # overlaps the data

    def test_no_step_is_bad_input(self):
        with pytest.raises(UsageError, match="evolution time 0 takes no steps"):
            bc_sensitivity(power_law(1.5), 0.5, 0.0, [1e-1, 1e-2])

    def test_cutoffs_side_by_side_match_cutoffs_alone(self):
        eps_grid = [1e-1, 1e-2, 1e-3]
        together = bc_sensitivity(power_law(1.5), 0.5, 0.1, eps_grid, beta=0.9)
        alone = [bc_sensitivity(power_law(1.5), 0.5, 0.1, [eps], beta=0.9) for eps in eps_grid]
        assert together.rows == tuple(r.rows[0] for r in alone)
        assert together.wall_mass == tuple(r.wall_mass[0] for r in alone)
        assert together.norm_drift == max(r.norm_drift for r in alone)
        assert together.grids == tuple(r.grids[0] for r in alone)

    def test_thread_pool_only_for_several_cutoffs(self, pool_sizes):
        bc_sensitivity(power_law(1.5), 0.5, 0.01, [1e-1])
        assert pool_sizes == []
        bc_sensitivity(power_law(1.5), 0.5, 0.01, [1e-1, 1e-2, 1e-3])
        assert pool_sizes == [3]

    def test_wall_mass_is_the_m_norm_of_the_rows_near_the_wall(self, monkeypatch):
        # the free-flight contamination case under a lifted limit: each
        # cutoff's wall mass is the larger of its two final states' M-norms
        # on the rows within 0.5 of L, the principal block of the dense M
        # on them, and within [2/3, 1] of the lumped sum
        import grushinlab.evolution as evolution

        monkeypatch.setattr(evolution, "WALL_MASS_LIMIT", math.inf)
        runs, evolve_stacks = [], evolution._evolve_stacks

        def spy(steppers, data, nsteps, record=False):
            stacks = evolve_stacks(steppers, data, nsteps, record)
            runs.extend((s.grid, [psi.copy() for psi in states])
                        for s, (states, _) in zip(steppers, stacks))
            return stacks

        monkeypatch.setattr(evolution, "_evolve_stacks", spy)
        result = bc_sensitivity(power_law(0.0), 0.0, 1.2, [0.05, 0.0075])
        assert len(runs) == 2
        for got, (grid, finals) in zip(result.wall_mass, runs):
            rows = np.flatnonzero(grid.points[:-1] >= grid.L - 0.5)
            masses = [dense_mass(grid, psi, rows) for psi in finals]
            check_sandwich(masses)
            assert got == pytest.approx(max(m for m, _ in masses), rel=1e-12)
            assert got > 1e-7

    def test_first_contaminated_cutoff_in_eps_order_raises(self, monkeypatch):
        # free flight to t = 1.2 leaves 3.1e-7 to 3.5e-7 of the mass at the
        # wall in the M-norm, by cutoff: under a limit of 3.40e-7, near the
        # middle of the gap, the first two cutoffs are clean (3.114e-7,
        # 3.358e-7) and the last two contaminated (3.448e-7, 3.458e-7), the
        # last one more
        import grushinlab.evolution as evolution

        monkeypatch.setattr(evolution, "WALL_MASS_LIMIT", 3.40e-7)
        eps_grid = [0.05, 0.03, 0.015, 0.0075]
        alone = []
        for eps in eps_grid:
            try:
                bc_sensitivity(power_law(0.0), 0.0, 1.2, [eps])
                alone.append(None)
            except NumericError as exc:
                alone.append(str(exc))
        assert alone[:2] == [None, None] and None not in alone[2:] and alone[2] != alone[3]
        with pytest.raises(NumericError) as caught:
            bc_sensitivity(power_law(0.0), 0.0, 1.2, eps_grid)
        assert str(caught.value) == alone[2]
        assert str(caught.value).startswith("cutoff eps=0.015: its outer wall at L=")
