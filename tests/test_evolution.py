import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

from grushinlab.errors import DataError, ProtocolError, UsageError
from grushinlab.evolution import (
    _hamiltonian_diagonals,
    BoundaryCondition,
    CrankNicolson,
    FibreEvolutionState,
    FibreGrid,
    PlaneWavefunction,
    bc_sensitivity,
    evolve_fibre,
    evolve_plane,
    gaussian_packet,
    to_original,
    to_transformed,
)
from grushinlab.profiles import FibrePotential, power_law


def make_state(alpha, xi, eps=0.05, L=12.0, bc=None):
    prof = power_law(alpha)
    pot = FibrePotential(xi=xi, profile=prof)
    grid = FibreGrid.resolved(eps, L, pot)
    return FibreEvolutionState(
        xi=xi,
        grid=grid,
        psi=gaussian_packet(grid),
        t=0.0,
        bc=bc or BoundaryCondition.dirichlet(),
        profile=prof,
    )


class TestGrid:
    def test_spacing_and_nodes(self):
        g = FibreGrid(eps=0.1, L=10.1, n=999)
        assert g.spacing == pytest.approx(0.01)
        assert g.nodes[0] == pytest.approx(0.11)
        assert g.nodes[-1] == pytest.approx(10.09)

    def test_invariants(self):
        with pytest.raises(UsageError):
            FibreGrid(eps=1.0, L=0.5, n=500)
        with pytest.raises(UsageError):
            FibreGrid(eps=0.1, L=10.0, n=50)

    def test_resolution_guard(self):
        pot = FibrePotential(xi=0.0, profile=power_law(2.0))
        g = FibreGrid(eps=1e-3, L=5.0, n=200)  # far too coarse near eps
        with pytest.raises(UsageError):
            CrankNicolson(g, pot(g.nodes), BoundaryCondition.dirichlet(), 1e-3)

    def test_resolved_satisfies_rule(self):
        pot = FibrePotential(xi=0.5, profile=power_law(2.0))
        g = FibreGrid.resolved(1e-3, 7.0, pot)
        assert g.spacing**2 * np.max(np.abs(pot(g.nodes))) <= 0.5


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
        state = make_state(1.0, 1.0)
        after, _ = evolve_fibre(state, 1e-3, 1e-3)
        assert after.t == 1e-3
        assert abs(after.norm() - state.norm()) <= 1e-10

    def test_step_requires_profile(self):
        state = make_state(1.0, 1.0)
        from dataclasses import replace

        with pytest.raises(UsageError):
            evolve_fibre(replace(state, profile=None), 1e-3, 1e-3)

    def test_step_matches_explicit_cayley_map(self):
        # reference: psi+ = A^{-1} B psi with A = 1 + i dt H/2 and
        # B = 1 - i dt H/2 assembled from the Hamiltonian diagonals
        pot = FibrePotential(xi=0.5, profile=power_law(0.5))
        grid = FibreGrid.resolved(0.05, 6.0, pot)
        bc, dt = BoundaryCondition.robin(1.0), 1e-3
        w = pot(grid.nodes)
        main, off = _hamiltonian_diagonals(grid, w, bc)
        z = 0.5j * dt
        a_banded = np.zeros((3, grid.n), dtype=complex)
        a_banded[0, 1:] = z * off
        a_banded[1] = 1.0 + z * main
        a_banded[2, :-1] = z * off
        psi = gaussian_packet(grid, center=0.5, width=0.2)
        b_psi = (1.0 - z * main) * psi
        b_psi[:-1] -= z * off * psi[1:]
        b_psi[1:] -= z * off * psi[:-1]
        expected = solve_banded((1, 1), a_banded, b_psi)
        got = CrankNicolson(grid, w, bc, dt).step(psi)
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert np.max(np.abs(got - psi)) > 1e-3  # the step does move the data

    def test_t_final_must_be_whole_steps(self):
        state = make_state(1.0, 1.0)
        with pytest.raises(UsageError):
            evolve_fibre(state, 0.5, 0.3)
        with pytest.raises(UsageError):
            evolve_fibre(state, -0.3, 0.3)
        after, norms = evolve_fibre(state, 0.6, 0.3, record_norms=True)
        assert after.t == pytest.approx(0.6) and norms.size == 3

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)])
    def test_thousand_steps(self, bc):
        state = make_state(0.5, 0.5, bc=bc)
        _, norms = evolve_fibre(state, 1.0, 1e-3, record_norms=True)
        assert norms.size == 1001
        assert np.max(np.abs(norms - norms[0])) <= 1e-6
        assert np.max(np.abs(np.diff(norms))) <= 1e-10

    def test_free_box_energy_constant(self):
        # W = 0: alpha = 0, xi = 0, plain Dirichlet box
        prof = power_law(0.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid(eps=0.5, L=10.0, n=800)
        w = pot(grid.nodes)
        stepper = CrankNicolson(grid, w, BoundaryCondition.dirichlet(), 1e-4)
        psi = gaussian_packet(grid, center=5.0, width=0.5)

        def energy(p):
            h = grid.spacing
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
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        h = grid.spacing
        w = pot(grid.nodes)
        main = 2.0 / h**2 + w
        off = np.full(grid.n - 1, -1.0 / h**2)
        evals, evecs = eigh_tridiagonal(main, off, select="i", select_range=(0, 0))
        v0 = evecs[:, 0] / math.sqrt(h * float(np.sum(evecs[:, 0] ** 2)))
        dt, nsteps = 1e-3, 500
        stepper = CrankNicolson(grid, w, BoundaryCondition.dirichlet(), dt)
        psi = v0.astype(complex)
        for _ in range(nsteps):
            psi = stepper.step(psi)
        assert np.max(np.abs(np.abs(psi) - np.abs(v0))) <= 1e-10
        # the Cayley step multiplies the eigenvector by a pure phase
        phase = math.atan2(-evals[0] * dt / 2.0, 1.0) * 2.0 * nsteps
        assert np.max(np.abs(psi - v0 * np.exp(1j * phase))) <= 1e-9


class TestTransforms:
    def setup_method(self):
        self.prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=self.prof)
        self.grid = FibreGrid.resolved(0.05, 12.0, pot)
        self.y = np.linspace(-8.0, 8.0, 63)
        x = self.grid.nodes
        bump = np.exp(-((x[:, None] - 2.0) ** 2 + self.y[None, :] ** 2) / (2 * 0.3**2))
        self.psi = PlaneWavefunction(
            values=bump.astype(complex), x=x, axis=self.y, representation="original"
        )

    def test_flat_profile_is_fourier_only(self):
        prof0 = power_law(0.0)
        hat = to_transformed(self.psi, prof0)
        # U_f is the identity for f = 1: the x marginal is untouched
        assert hat.norm() == pytest.approx(self.psi.norm(prof0), abs=1e-12)

    def test_norms_agree_across_representations(self):
        # oracle: direct quadrature of |psi|^2 f(x) dx dy vs flat sum
        x = self.grid.nodes
        direct = math.sqrt(
            self.grid.spacing
            * (self.y[1] - self.y[0])
            * float(np.sum(np.abs(self.psi.values) ** 2 * (1.0 / x)[:, None]))
        )
        hat = to_transformed(self.psi, self.prof)
        assert hat.norm() == pytest.approx(direct, rel=1e-8)

    def test_narrow_bump_parseval(self):
        x = self.grid.nodes
        narrow = np.exp(-((x[:, None] - 2.0) ** 2) / (2 * 0.3**2)) * np.exp(
            -(self.y[None, :] ** 2) / (2 * 0.05**2)
        )
        psi = PlaneWavefunction(
            values=narrow.astype(complex), x=x, axis=self.y, representation="original"
        )
        hat = to_transformed(psi, self.prof)
        assert hat.norm() == pytest.approx(psi.norm(self.prof), rel=1e-8)

    def test_round_trip(self):
        hat = to_transformed(self.psi, self.prof)
        back = to_original(hat, self.prof, y_nodes=self.y)
        err = np.max(np.abs(back.values - self.psi.values))
        assert err <= 1e-8

    def test_rejects_even_grid(self):
        x = self.grid.nodes
        y = np.linspace(-8.0, 8.0, 64)
        vals = np.zeros((x.size, 64), dtype=complex)
        psi = PlaneWavefunction(values=vals, x=x, axis=y, representation="original")
        with pytest.raises(UsageError):
            to_transformed(psi, self.prof)

    def test_rejects_nonfinite(self):
        vals = self.psi.values.copy()
        vals[3, 3] = math.nan
        psi = PlaneWavefunction(values=vals, x=self.psi.x, axis=self.y,
                                representation="original")
        with pytest.raises(DataError):
            to_transformed(psi, self.prof)


class TestPlaneEvolution:
    def test_single_fibre_reduction(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        g = gaussian_packet(grid)
        psi0 = PlaneWavefunction(
            values=g[:, None].astype(complex),
            x=grid.nodes,
            axis=np.array([0.0]),
            representation="transformed",
        )
        res = evolve_plane(psi0, prof, 0.2, grid, BoundaryCondition.dirichlet(), dt=1e-3)
        state = FibreEvolutionState(
            xi=0.0, grid=grid, psi=g, t=0.0, bc=BoundaryCondition.dirichlet(), profile=prof
        )
        fin, _ = evolve_fibre(state, 0.2, 1e-3)
        assert np.array_equal(res.final.values[:, 0], fin.psi)

    def test_cylinder_mode_norms_sum(self):
        prof = power_law(0.5)
        kmax = 3
        pot = FibrePotential(xi=float(kmax), profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        axis = np.arange(-kmax, kmax + 1, dtype=float)
        g = gaussian_packet(grid)
        vals = np.outer(g, np.exp(-(axis**2) / 4.0)).astype(complex)
        psi0 = PlaneWavefunction(values=vals, x=grid.nodes, axis=axis,
                                 representation="transformed", geometry="cylinder")
        res = evolve_plane(psi0, prof, 0.1, grid, BoundaryCondition.dirichlet(), dt=1e-3)
        total = math.sqrt(float(np.sum(res.fibre_norms**2)))
        assert total == pytest.approx(res.norm_after, rel=1e-12)
        assert res.norm_drift <= 1e-6

    def test_fibre_order_independence(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=2.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        axis = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        vals = np.outer(gaussian_packet(grid), np.ones(5)).astype(complex)
        psi0 = PlaneWavefunction(values=vals, x=grid.nodes, axis=axis,
                                 representation="transformed")
        r1 = evolve_plane(psi0, prof, 0.05, grid, BoundaryCondition.dirichlet(), dt=1e-3)
        r2 = evolve_plane(psi0, prof, 0.05, grid, BoundaryCondition.dirichlet(), dt=1e-3,
                          jobs=3)
        assert np.array_equal(r1.final.values, r2.final.values)

    def test_requires_transformed(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        psi = PlaneWavefunction(
            values=np.zeros((grid.n, 3), dtype=complex),
            x=grid.nodes,
            axis=np.array([-1.0, 0.0, 1.0]),
            representation="original",
        )
        with pytest.raises(UsageError):
            evolve_plane(psi, prof, 0.1, grid, BoundaryCondition.dirichlet())

    def test_asymmetric_xi_grid_rejected(self):
        prof = power_law(1.0)
        pot = FibrePotential(xi=0.0, profile=prof)
        grid = FibreGrid.resolved(0.05, 12.0, pot)
        psi = PlaneWavefunction(
            values=np.zeros((grid.n, 3), dtype=complex),
            x=grid.nodes,
            axis=np.array([0.0, 1.0, 2.0]),
            representation="transformed",
        )
        with pytest.raises(UsageError):
            evolve_plane(psi, prof, 0.1, grid, BoundaryCondition.dirichlet())

    def test_confinement_boundary_mass(self):
        # confining regime: mass near the boundary stays tiny and is stable
        # under pushing the cutoff inward
        prof = power_law(1.0)
        masses = []
        for eps in (0.02, 0.01):
            pot = FibrePotential(xi=1.0, profile=prof)
            grid = FibreGrid.resolved(eps, 12.0, pot)
            g = gaussian_packet(grid)
            psi0 = PlaneWavefunction(
                values=np.outer(g, [0.5, 1.0, 0.5]).astype(complex),
                x=grid.nodes,
                axis=np.array([-1.0, 0.0, 1.0]),
                representation="transformed",
            )
            nrm = psi0.norm()
            psi0 = PlaneWavefunction(values=psi0.values / nrm, x=grid.nodes,
                                     axis=psi0.axis, representation="transformed")
            res = evolve_plane(psi0, prof, 1.0, grid, BoundaryCondition.dirichlet(),
                               dt=2e-3)
            zone = grid.nodes < 0.05
            mass = grid.spacing * float(np.sum(np.abs(res.final.values[zone, :]) ** 2))
            masses.append(mass)
            assert res.norm_drift <= 1e-6
        assert all(m < 1e-4 for m in masses)


class TestBcSensitivity:
    def test_confining_trend_decreases(self):
        r = bc_sensitivity(1.5, 0.5, 1.0, [1e-1, 1e-2])
        assert r.trend == "decreasing"
        assert r.rows[1][1] < 0.2 * r.rows[0][1]
        assert r.norm_drift <= 1e-6

    def test_subcritical_stays_positive(self):
        r = bc_sensitivity(0.5, 0.5, 1.0, [1e-1, 1e-2])
        assert all(d > 1e-4 for _, d in r.rows)

    def test_rate_separation(self):
        # the confining regime sheds boundary-condition dependence
        # measurably faster as eps decreases
        lc = bc_sensitivity(0.5, 0.5, 1.0, [1e-1, 1e-2])
        lp = bc_sensitivity(1.5, 0.5, 1.0, [1e-1, 1e-2])
        assert lp.ratio_end_to_start < 0.1 * lc.ratio_end_to_start

    def test_quiescent_before_arrival(self):
        # data far from the cutoff, tiny time: no sensitivity yet
        r = bc_sensitivity(0.0, 0.0, 0.01, [0.5, 0.25])
        assert all(d < 1e-5 for _, d in r.rows)

    def test_wall_contamination_detected(self):
        with pytest.raises(ProtocolError):
            bc_sensitivity(0.0, 0.0, 2.5, [0.1], dt=2e-3)

    def test_eps_grid_validation(self):
        with pytest.raises(UsageError):
            bc_sensitivity(1.0, 0.5, 1.0, [1e-2, 1e-1])  # increasing
        with pytest.raises(UsageError):
            bc_sensitivity(1.0, 0.5, 1.0, [1.5])  # overlaps the data
