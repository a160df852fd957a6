"""Acceptance gate: every exit criterion at its stated tolerance.

Each test appends one pass/fail line to the terminal summary (see
conftest.pytest_terminal_summary).  Criterion 7's non-confining half is
asserted verbatim but marked xfail: with any fixed boundary condition at
a truncation cutoff, both evolutions converge to the same (Friedrichs)
dynamics as the cutoff shrinks, so D(eps) decays in the non-confining
regime as well (like eps^(1+alpha)); the confining/non-confining
dichotomy shows up in the decay rate, not in persistence of D.  See
README, section "Known deviations", for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from grushinlab.evolution import (
    DEFAULT_DT,
    _mass_sumsq,
    BoundaryCondition,
    FibreGrid,
    PlaneWavefunction,
    bc_sensitivity,
    choose_outer_wall,
    evolve_fibre,
    evolve_plane,
    gaussian_packet,
    standard_plane_data,
)
from grushinlab.geodesics import GeodesicInitialData, hit_time_quadrature, integrate_geodesic
from grushinlab.profiles import FibrePotential, power_law
from grushinlab.weyl import (
    FAMILY_TOL,
    Mode,
    SAVerdict,
    aggregate_verdict,
    classify_power_law,
    classify_sweep,
    verify_deficiency_family,
)

from conftest import record_acceptance

PI = math.pi


def plane_verdict(alpha):
    grid = np.arange(-5.0, 5.01, 0.25)
    reports = classify_sweep(power_law(alpha), grid)
    return aggregate_verdict(reports, Mode.PLANE)


def cylinder_verdict(alpha, k_max=5):
    reports = [classify_power_law(alpha, float(k)) for k in range(-k_max, k_max + 1)]
    return aggregate_verdict(reports, Mode.CYLINDER), reports


def test_criterion_1_plane_threshold_sweep():
    start = time.perf_counter()
    wrong = []
    for alpha in [round(0.1 * i, 1) for i in range(21)]:
        verdict = plane_verdict(alpha)
        expected = (SAVerdict.ESSENTIALLY_SELF_ADJOINT if alpha >= 1.0
                    else SAVerdict.NOT_ESSENTIALLY_SELF_ADJOINT)
        if verdict.verdict is not expected:
            wrong.append(alpha)
    elapsed = time.perf_counter() - start
    ok = not wrong and elapsed < 1.0
    record_acceptance(
        f"criterion 1 (plane threshold, alpha 0..2 step 0.1): "
        f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f} s"
        + (f", wrong at {wrong}" if wrong else "") + ")"
    )
    assert not wrong
    assert elapsed < 1.0


def test_criterion_2_cylinder_table():
    start = time.perf_counter()
    failures = []
    for alpha in [-4.0, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]:
        verdict, reports = cylinder_verdict(alpha)
        esa_expected = alpha <= -3.0 or alpha >= 1.0
        if verdict.essentially_self_adjoint != esa_expected:
            failures.append((alpha, "verdict"))
            continue
        failing = {r.xi for r in reports if r.deficiency == 1}
        if -3.0 < alpha <= -1.0:
            if failing != {0.0}:
                failures.append((alpha, f"failing modes {sorted(failing)}"))
        elif -1.0 < alpha < 1.0:
            if len(failing) != 11:
                failures.append((alpha, f"only {len(failing)} modes fail"))
        elif failing:
            failures.append((alpha, f"unexpected failing modes {sorted(failing)}"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    record_acceptance(
        f"criterion 2 (cylinder table, k in -5..5): "
        f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f} s"
        + (f", {failures}" if failures else "") + ")"
    )
    assert not failures
    assert elapsed < 1.0


def test_criterion_3_xi_resolved_alpha_minus_one():
    wrong = []
    for xi in np.arange(0.0, 2.01, 0.25):
        report = classify_power_law(-1.0, float(xi))
        expected_esa = abs(xi) >= 1.0
        if (report.deficiency == 0) != expected_esa:
            wrong.append(float(xi))
    record_acceptance(
        f"criterion 3 (alpha=-1 fibre split at |xi|=1): "
        f"{'PASS' if not wrong else 'FAIL'}"
        + (f" (wrong at xi={wrong})" if wrong else "")
    )
    assert not wrong


def test_criterion_4_analytic_numeric_equivalence():
    start = time.perf_counter()
    disagreements = []
    xis = (0.0, 0.5, 1.0, 2.0)
    for alpha in (-2.0, -1.0, -0.5, 0.0, 0.5, 0.9, 1.0, 1.5, 3.0):
        # the numeric route of the classify command: one sweep per profile
        swept = classify_sweep(power_law(alpha), xis, method="numeric")
        for xi, numeric in zip(xis, swept):
            analytic = classify_power_law(alpha, xi)
            if numeric.endpoint_zero != analytic.endpoint_zero:
                disagreements.append((alpha, xi))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 30.0
    record_acceptance(
        f"criterion 4 (analytic vs numeric, 36 pairs): "
        f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f} s"
        + (f", disagreements {disagreements}" if disagreements else "") + ")"
    )
    assert not disagreements
    assert elapsed < 30.0


def test_criterion_5_geodesic_hit_times():
    start = time.perf_counter()
    worst_gap = 0.0
    worst_drift = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for theta in (PI / 4, PI / 2, 3 * PI / 4, PI):
            init = GeodesicInitialData(x0=1.0, y0=0.0, theta=theta, alpha=alpha)
            traj = integrate_geodesic(init)
            expected = hit_time_quadrature(init)
            worst_gap = max(worst_gap, abs(traj.hit_time_plus - expected))
            worst_drift = max(worst_drift, traj.energy_drift)
    analytic_errs = []
    for alpha, value in ((0.5, 2.0), (1.0, PI / 2)):
        init = GeodesicInitialData(x0=1.0, y0=0.0, theta=PI / 2, alpha=alpha)
        analytic_errs.append(abs(hit_time_quadrature(init) - value))
        analytic_errs.append(abs(integrate_geodesic(init).hit_time_plus - value))
    elapsed = time.perf_counter() - start
    ok = (worst_gap <= 1e-6 and max(analytic_errs) <= 1e-8
          and worst_drift <= 1e-9 and elapsed < 10.0)
    record_acceptance(
        f"criterion 5 (geodesic hit times): {'PASS' if ok else 'FAIL'} "
        f"(max |ode-quadrature| {worst_gap:.2e}, analytic err {max(analytic_errs):.2e}, "
        f"energy drift {worst_drift:.2e}, {elapsed:.1f} s)"
    )
    assert worst_gap <= 1e-6
    assert max(analytic_errs) <= 1e-8
    assert worst_drift <= 1e-9
    assert elapsed < 10.0


def test_criterion_6_deficiency_family():
    start = time.perf_counter()
    report = verify_deficiency_family(power_law(0.5), (0.0, 1.0), 16, (2.0, 3.0))
    elapsed = time.perf_counter() - start
    ok = (not report.contradiction and report.max_residual <= 1e-6
          and report.max_norm_error <= FAMILY_TOL
          and report.max_cross_inner <= 1e-10 and elapsed < 30.0)
    record_acceptance(
        f"criterion 6 (deficiency family, alpha=0.5, 16 fibres): "
        f"{'PASS' if ok else 'FAIL'} (max residual {report.max_residual:.2e}, "
        f"norm error {report.max_norm_error:.1e}, "
        f"cross inner {report.max_cross_inner:.1e}, {elapsed:.1f} s)"
    )
    assert not report.contradiction
    assert report.max_residual <= 1e-6
    assert report.max_norm_error <= FAMILY_TOL
    assert report.max_cross_inner <= 1e-10
    assert elapsed < 30.0


# -- criterion 7: boundary-condition sensitivity dichotomy -------------------

DICHOTOMY_ALPHAS = (0.3, 0.5, 0.7, 1.0, 1.5, 2.0)
CONFINING = (1.0, 1.5, 2.0)
NON_CONFINING = (0.3, 0.5, 0.7)


@pytest.fixture(scope="module")
def dichotomy_ratios():
    """D(1e-3)/D(1e-1) per alpha at base and halved spacing (shared by
    the two criterion-7 tests)."""
    start = time.perf_counter()
    data = {}
    for alpha in DICHOTOMY_ALPHAS:
        base = bc_sensitivity(power_law(alpha), 0.5, 1.0, [1e-1, 1e-3])
        halved = bc_sensitivity(power_law(alpha), 0.5, 1.0, [1e-1, 1e-3], refine=2)
        data[alpha] = (base.ratio_end_to_start, halved.ratio_end_to_start)
    data["elapsed"] = time.perf_counter() - start
    return data


def test_criterion_7_confining_side(dichotomy_ratios):
    failures = []
    for alpha in CONFINING:
        ratio, ratio_halved = dichotomy_ratios[alpha]
        stable = abs(ratio_halved - ratio) / ratio < 0.10
        if not (ratio < 0.2 and stable):
            failures.append((alpha, ratio, ratio_halved))
    elapsed = dichotomy_ratios["elapsed"]
    budget_ok = elapsed < 300.0
    detail = ", ".join(
        f"alpha={a}: {dichotomy_ratios[a][0]:.2e}" for a in CONFINING
    )
    ok = not failures and budget_ok
    record_acceptance(
        f"criterion 7a (cutoff-BC insensitivity, confining side < 0.2): "
        f"{'PASS' if ok else 'FAIL'} ({detail}; sweep {elapsed:.0f} s)"
    )
    assert not failures
    assert budget_ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: with any fixed inner boundary condition the "
        "Dirichlet and Robin truncations converge to the same limiting "
        "dynamics, so D(eps) decays (measured ~eps^(1+alpha)) in the "
        "non-confining regime too; the dichotomy is the decay rate (slower "
        "than eps^2) rather than a ratio above 0.8. See README known "
        "deviations and the criterion 7b acceptance line for measured values."
    ),
)
def test_criterion_7_non_confining_side(dichotomy_ratios):
    measured = {a: dichotomy_ratios[a] for a in NON_CONFINING}
    detail = ", ".join(f"alpha={a}: {r[0]:.2e}" for a, r in measured.items())
    failures = [a for a, (r, rh) in measured.items()
                if not (r > 0.8 and abs(rh - r) / r < 0.10)]
    record_acceptance(
        f"criterion 7b (cutoff-BC sensitivity, non-confining side > 0.8): "
        f"{'PASS' if not failures else 'FAIL (expected, spec defect)'} ({detail})"
    )
    assert not failures, (
        f"D-ratios {detail} are far below 0.8: truncation boundary conditions "
        f"cannot retain O(1) influence as eps -> 0"
    )


def test_criterion_7_rate_dichotomy(dichotomy_ratios):
    """The realisable form of the dichotomy: every confining case sheds
    boundary-condition dependence at a strictly faster rate (a larger
    fitted decay exponent of D over eps in [1e-3, 1e-1]) than every
    non-confining case."""

    def exponent(alpha):
        return math.log10(1.0 / dichotomy_ratios[alpha][0]) / 2.0

    min_confining = min(exponent(a) for a in CONFINING)
    max_nonconfining = max(exponent(a) for a in NON_CONFINING)
    ok = min_confining > max_nonconfining + 0.2
    record_acceptance(
        f"criterion 7c (supplementary rate dichotomy): {'PASS' if ok else 'FAIL'} "
        f"(decay exponents: confining >= {min_confining:.2f}, "
        f"non-confining <= {max_nonconfining:.2f})"
    )
    assert ok


def test_criterion_8_unitarity():
    # single fibre, 2000 steps
    profile = power_law(1.0)
    pot = FibrePotential(xi=1.0, profile=profile)
    grid = FibreGrid.resolved(0.02, 12.0, pot)
    _, norms = evolve_fibre(grid, pot, BoundaryCondition.dirichlet(), gaussian_packet(grid),
                            2.0, 1e-3, record_norms=True)
    fibre_drift = float(np.max(np.abs(norms - norms[0])))
    n_steps = norms.size - 1

    # assembled plane run, 1000 steps across 5 fibres
    axis = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # the wall of the most-spreading fibre (xi = 0), as the plane protocol sets it
    pot_edge = FibrePotential(xi=2.0, profile=profile)
    wall = choose_outer_wall(FibrePotential(xi=0.0, profile=profile))
    pgrid = FibreGrid.resolved(0.05, wall, pot_edge)
    vals = np.outer(gaussian_packet(pgrid)[1:], np.ones(axis.size)).astype(complex)
    psi0 = PlaneWavefunction(values=vals, grid=pgrid, axis=axis,
                             representation="transformed")
    result = evolve_plane(psi0, profile, 1.0, BoundaryCondition.dirichlet(), dt=1e-3)
    ok = fibre_drift <= 1e-6 and result.norm_drift <= 1e-6 and n_steps >= 1000
    record_acceptance(
        f"criterion 8 (unitarity over >= 1e3 steps): {'PASS' if ok else 'FAIL'} "
        f"(fibre drift {fibre_drift:.2e} over {n_steps} steps, "
        f"plane drift {result.norm_drift:.2e})"
    )
    assert n_steps >= 1000
    assert fibre_drift <= 1e-6
    assert result.norm_drift <= 1e-6


def test_criterion_8b_time_error_at_the_default_dt():
    """Supplementary: the time error of the default step, each against the
    same run at dt/4, whose own error is 4^4 = 256 times smaller.  The
    bounds were fixed before measuring: D(eps) of the sensitivity protocol
    at alpha 1.5 (its stiffest Baseline case) within 1e-3 relative, and
    the default plane run within 5e-3 in total and 0.1 on the worst fibre
    holding more than 1e-4 of the mass.  Crank-Nicolson at the same dt
    misses all three (1.4e-2 and 5.1e-2 on D, 0.13 in total and 1.6 on the
    worst fibre)."""
    start = time.perf_counter()
    dts = (DEFAULT_DT, DEFAULT_DT / 4)
    d, d_ref = (np.array([row[1] for row in bc_sensitivity(power_law(1.5), 0.5, 1.0,
                                                         [1e-1, 1e-3], dt=dt).rows]) for dt in dts)
    d_error = float(np.max(np.abs(d / d_ref - 1.0)))

    profile = power_law(1.0)
    psi0 = standard_plane_data(profile, "plane", 0.01, 45, 2.0, 16.0)
    psi, ref = (evolve_plane(psi0, profile, 1.0, BoundaryCondition.dirichlet(), dt=dt,
                             jobs=2).final.values for dt in dts)
    # each fibre's M-norm on the nodes, the norm the step conserves
    diff, mass = (_mass_sumsq(psi0.grid, v, start=1) for v in (psi - ref, ref))
    total = math.sqrt(diff.sum() / mass.sum())
    heavy = mass > 1e-4 * mass.sum()
    worst = float(np.max(np.sqrt(diff[heavy] / mass[heavy])))
    elapsed = time.perf_counter() - start

    bounds = {"D": 1e-3, "plane total": 5e-3, "plane worst fibre": 0.1}
    errors = {"D": d_error, "plane total": total, "plane worst fibre": worst}
    ok = all(errors[k] <= bounds[k] for k in bounds)
    detail = ", ".join(f"{k} {errors[k]:.1e} <= {bounds[k]:g} "
                       f"(margin {bounds[k] / errors[k]:.2g}x)" for k in bounds)
    record_acceptance(
        f"criterion 8b (supplementary time error at dt {DEFAULT_DT:g}, against dt/4): "
        f"{'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f} s)"
    )
    for k in bounds:
        assert errors[k] <= bounds[k], k
