"""Command line front door: reproducible experiments, file outputs.

Commands
--------
classify            endpoint classification sweep and aggregate verdict
geodesics           geodesic fan / single trajectory with hit times
evolve              fibre or plane evolution experiments
verify-deficiency   deficiency eigenfunction family residuals

Configuration may come from flags, from an INI-style file passed with
--config (sections named after the commands, plus an optional
[profile] section), or both; flags win.  Every output embeds the fully
resolved configuration.  Exit codes: 0 success/definite verdict,
2 usage error, 3 numeric failure, 4 inconclusive classification.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    GrushinError,
    InconclusiveClassification,
    NumericError,
    ProtocolError,
    UsageError,
)
from .evolution import (
    BoundaryCondition,
    _step_count,
    bc_sensitivity,
    evolve_plane,
    standard_plane_data,
)
from .geodesics import GeodesicInitialData, geodesic_fan, hit_time_quadrature, integrate_geodesic
from .profiles import GrushinProfile, builtin_profile, load_profile, power_law
from .weyl import (
    Mode,
    aggregate_verdict,
    classify_by_inequality,
    classify_sweep,
    verify_deficiency_family,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4


def _dumps(document, **kwargs):
    """Strict JSON text of ``document``: a non-finite number is a numeric
    failure, never a bare ``NaN`` or ``Infinity``."""
    try:
        return json.dumps(document, sort_keys=True, default=_jsonable, allow_nan=False,
                          **kwargs)
    except ValueError as exc:
        raise NumericError(f"non-finite value in an output: {exc}") from None


def _write_json(path, document):
    """Write ``document``; nothing is written when it holds a non-finite
    value."""
    text = _dumps(document, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "value"):
        return obj.value
    return str(obj)


CSV_BLOCK_ROWS = 256


def _write_csv(path, header_cols, columns, config):
    """Write equal-length float ``columns`` as rows of ``%.16e`` values,
    formatting ``CSV_BLOCK_ROWS`` rows at a time to bound memory."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row_format = ",".join(["%.16e"] * table.shape[1]) + "\n"
    header = "# config: " + _dumps(config) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write(",".join(header_cols) + "\n")
        for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(row_format * block.shape[0] % tuple(block.ravel().tolist()))
    return path


# the options that take one of a fixed set of values, as flags or file keys
_CHOICES = {
    "mode": ("plane", "cylinder"),
    "method": ("auto", "analytic", "numeric"),
    "protocol": ("sensitivity", "plane", "cylinder"),
    "bc": ("dirichlet", "robin"),
}


def _fill_from_config(args, section):
    """Copy file values into argparse Namespace slots left at None; a file
    that does not parse, a key that names no option of the command, or a
    value outside the option's choices, is a usage error.  Returns the
    parsed file, or None without --config."""
    if args.config is None:
        return None
    # values are literal: a '%' in one is no interpolation syntax error
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(args.config, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file {args.config}: {exc}") from None
    if not found:
        raise UsageError(f"config file not found: {args.config}")
    if not parser.has_section(section):
        return parser
    options = set(vars(args)) - {"command", "func", "config"}
    for key, raw in parser.items(section):
        attr = key.replace("-", "_")
        if attr not in options:
            raise UsageError(f"config file [{section}] has unknown key {key!r}")
        if attr in _CHOICES and raw not in _CHOICES[attr]:
            raise UsageError(f"config file [{section}] {key} must be one of "
                             f"{', '.join(_CHOICES[attr])}, got {raw!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, raw)
    return parser


def _number(args, name, kind, default, minimum=None):
    """``args.<name>``, from a flag or the config file, as a finite
    ``kind`` (int or float) of at least ``minimum``, or ``default`` when
    unset; anything else is a usage error."""
    raw = getattr(args, name)
    if raw is None:
        return default
    flag = "--" + name.replace("_", "-")
    expected = "an integer" if kind is int else "a number"
    try:
        value = kind(raw)
    except ValueError:
        raise UsageError(f"{flag} expects {expected}, got {raw!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{flag} expects a finite number, got {raw!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{flag} must be at least {minimum}, got {raw!r}")
    return value


def _given(args) -> set[str]:
    """The options set in ``args``, flags and file keys alike."""
    return {name for name, value in vars(args).items()
            if value is not None} - {"command", "func", "config"}


def _reject_unread(what, names):
    if names:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(names))
        raise UsageError(f"{what} does not read {flags}")


def _resolve_profile(args, config) -> GrushinProfile:
    """The profile from the flags, else from the [profile] section of the
    parsed config file ``config`` (None without one)."""
    given = [
        args.alpha is not None,
        getattr(args, "profile_file", None) is not None,
        getattr(args, "profile", None) is not None,
    ]
    if sum(given) > 1:
        raise UsageError("give exactly one of --alpha, --profile, --profile-file")
    if args.alpha is not None:
        return power_law(_number(args, "alpha", float, None))
    if getattr(args, "profile_file", None):
        return load_profile(args.profile_file)
    if getattr(args, "profile", None):
        return builtin_profile(args.profile)
    if config is not None and config.has_section("profile"):
        from .profiles import parse_profile_config

        body = "\n".join(f"{k} = {v}" for k, v in config.items("profile"))
        return parse_profile_config(body)
    raise UsageError("no profile given: use --alpha, --profile, --profile-file or a config file")


def _outdir(args) -> str:
    out = args.output_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# the classify options each mode does not read; as file keys they are
# allowed, so one [classify] section can serve both modes
_UNREAD_IN_MODE = {Mode.PLANE: {"k_max"}, Mode.CYLINDER: {"xi_min", "xi_max", "xi_step"}}


def _cmd_classify(args) -> int:
    flags = _given(args)
    profile = _resolve_profile(args, _fill_from_config(args, "classify"))
    mode = Mode(args.mode or "plane")
    _reject_unread(f"classify --mode {mode.value}", flags & _UNREAD_IN_MODE[mode])

    if mode is Mode.CYLINDER:
        k_max = _number(args, "k_max", int, 5, minimum=0)
        xi_values = [float(k) for k in range(-k_max, k_max + 1)]
        grid_info = {"kind": "integer modes", "k_max": k_max}
    else:
        lo = _number(args, "xi_min", float, -5.0)
        hi = _number(args, "xi_max", float, 5.0)
        step = _number(args, "xi_step", float, 0.25)
        if step <= 0.0 or hi < lo:
            raise UsageError("the xi grid needs --xi-min <= --xi-max and --xi-step > 0")
        n = _step_count(hi - lo, step, what="xi span --xi-max - --xi-min") + 1
        xi_values = [float(v) for v in np.linspace(lo, hi, n)]
        grid_info = {"kind": "uniform", "xi_min": lo, "xi_max": hi, "xi_step": step}

    method = args.method or "auto"
    reports = classify_sweep(profile, xi_values, mode=mode, method=method)
    verdict = aggregate_verdict(reports, mode, grid_info=grid_info)

    inequality = {"verdict": "skipped"}
    try:
        ineq, info = classify_by_inequality(profile, np.geomspace(1e-4, 1e2, 400))
        inequality = {"verdict": ineq.value, **info}
    except UsageError as exc:
        inequality = {"verdict": "skipped", "reason": str(exc)}

    config = {
        "command": "classify",
        "mode": mode.value,
        "profile": profile.name,
        "alpha": profile.alpha,
        "method": method,
        "grid": grid_info,
    }
    document = {
        "config": config,
        "profile": profile.name,
        "alpha": profile.alpha,
        "mode": mode.value,
        "fibres": [
            {
                "xi": r.xi,
                "endpoint_zero": r.endpoint_zero.value,
                "endpoint_infinity": r.endpoint_infinity.value,
                "deficiency": r.deficiency,
                "method": r.method.value,
            }
            for r in sorted(reports, key=lambda r: r.xi)
        ],
        "verdict": verdict.verdict.value,
        "failing_fibres": verdict.failing_fibres,
        "total_deficiency": verdict.total_deficiency.value,
        "caveat": verdict.caveat,
        "grid": verdict.grid,
        "inequality_check": inequality,
    }
    path = _write_json(os.path.join(_outdir(args), "verdict.json"), document)
    print(f"{profile.name} [{mode.value}]: {verdict.verdict.value}"
          f" (failing: {verdict.failing_fibres}; deficiency: {verdict.total_deficiency.value})")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def write_fan(trajectories, directory, config):
    """One CSV per distinct solve, ``t,x,P_x,dy`` with dy = y - y0 in the
    solve's own unmirrored frame, under a config line holding ``config``
    and the solve's launch (``theta``, ``t_end``, ``P_x``, ``P_y``), hit
    time and ``nfev``; and ``manifest.json`` with one entry per
    trajectory: its summary, and for each half the solve file and its
    y-mirror sign (None outside the span).  Returns the manifest path
    and the number of solves written.

    Trajectory (t, x, y, P_x) is rebuilt from its entry by the rule of
    ``GeodesicTrajectory``: (t, x, y0 + s dy, P_x) from the forward file
    and, from the backward file, (-t[:0:-1], x[:0:-1], y0 + s dy[:0:-1],
    -P_x[:0:-1]) before it.  The manifest and every header are encoded
    before any file is opened, so a non-finite value writes nothing."""
    solves = {}  # the distinct solves by id, in order of first use
    for traj in trajectories:
        for part in (traj.forward, traj.backward):
            if part is not None:
                solves.setdefault(id(part[0]), part[0])
    config = {**config, "solves": len(solves)}
    names = {key: f"geodesic_solve{i:03d}.csv" for i, key in enumerate(solves)}
    headers = [{**config, "theta": half.theta, "t_end": half.t_end, "P_x": half.px,
                "P_y": half.py, "hit_time": half.hit, "nfev": half.nfev}
               for half in solves.values()]

    def source(part):
        return None if part is None else {"file": names[id(part[0])], "y_sign": part[1]}

    manifest = {"config": config, "trajectories": [
        {"alpha": traj.init.alpha, "theta": traj.init.theta, "x0": traj.init.x0,
         "y0": traj.init.y0, "P_y": traj.py, "hit_time_plus": traj.hit_time_plus,
         "hit_time_minus": traj.hit_time_minus, "energy_drift": traj.energy_drift,
         "meta": traj.meta, "forward": source(traj.forward), "backward": source(traj.backward)}
        for traj in trajectories]}
    _dumps([manifest, *headers])
    for half, header in zip(solves.values(), headers):
        x, px, dy = half.state
        _write_csv(os.path.join(directory, names[id(half)]), ["t", "x", "P_x", "dy"],
                   [half.t, x, px, dy], header)
    return _write_json(os.path.join(directory, "manifest.json"), manifest), len(solves)


def _cmd_geodesics(args) -> int:
    _fill_from_config(args, "geodesics")
    if args.alpha is None:
        raise UsageError("geodesics requires --alpha")
    if args.theta is not None and args.angles is not None:
        raise UsageError("--angles sets the size of a fan; it does not apply with --theta")
    alpha = _number(args, "alpha", float, None)
    t_max = _number(args, "t_max", float, 10.0)
    tol = _number(args, "tol", float, 1e-12)
    x0 = _number(args, "x0", float, 1.0)
    y0 = _number(args, "y0", float, 0.0)
    theta = _number(args, "theta", float, None)
    out = _outdir(args)

    config = {
        "command": "geodesics",
        "alpha": alpha,
        "t_max": t_max,
        "tol": tol,
        "x0": x0,
        "y0": y0,
    }
    if theta is not None:
        init = GeodesicInitialData(x0=x0, y0=y0, theta=theta, alpha=alpha)
        trajs = [integrate_geodesic(init, (-t_max, t_max), tol)]
        config["theta"] = theta
    else:
        n_angles = _number(args, "angles", int, 16)
        config["angles"] = n_angles
        trajs = geodesic_fan(alpha, n_angles, (-t_max, t_max), x0=x0, y0=y0, tol=tol)

    if alpha > 0:
        for traj in trajs:
            hit, err = hit_time_quadrature(traj.init)
            traj.meta.update(quadrature_hit_time=hit, quadrature_error=err)
    mpath, solves = write_fan(trajs, out, config)
    hits = [t.hit_time_plus for t in trajs]
    print(f"alpha={alpha:g}: {len(trajs)} trajectories from {solves} solves, "
          f"{sum(h is not None for h in hits)} forward boundary hits")
    print(f"wrote {mpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _parse_float_list(raw, name):
    """Comma-separated numbers; an empty item is a usage error."""
    try:
        return [float(tok) for tok in str(raw).replace(" ", "").split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed {name}: {raw!r}") from exc


# the options each evolve protocol reads; a plane or cylinder run also
# reads --beta under --bc robin
_PLANE_OPTIONS = {"alpha", "t_final", "dt", "eps", "outer_wall", "ny", "sigma_xi", "y_span",
                  "bc", "jobs"}
_EVOLVE_OPTIONS = {"sensitivity": {"alpha", "xi", "t_final", "dt", "beta", "refine", "eps_grid"},
                   "plane": _PLANE_OPTIONS, "cylinder": _PLANE_OPTIONS}


def _cmd_evolve(args) -> int:
    _fill_from_config(args, "evolve")
    protocol = args.protocol or "sensitivity"
    reads = _EVOLVE_OPTIONS[protocol] | ({"beta"} if args.bc == "robin" else set())
    _reject_unread(f"evolve --protocol {protocol}",
                   _given(args) - reads - {"output_dir", "protocol"})
    if args.alpha is None:
        raise UsageError(f"evolve --protocol {protocol} requires --alpha")
    if protocol == "sensitivity":
        return _evolve_sensitivity(args)
    return _evolve_plane(args, protocol)


def _evolve_sensitivity(args) -> int:
    alpha = _number(args, "alpha", float, None)
    xi = _number(args, "xi", float, 0.5)
    t_final = _number(args, "t_final", float, 1.0)
    dt = _number(args, "dt", float, 1e-3)
    beta = _number(args, "beta", float, 1.0)
    refine = _number(args, "refine", int, 1, minimum=1)
    eps_grid = _parse_float_list("1e-1,1e-2,1e-3" if args.eps_grid is None else args.eps_grid,
                                 "--eps-grid")
    out = _outdir(args)

    result = bc_sensitivity(
        alpha, xi, t_final, eps_grid, beta=beta, dt=dt, refine=refine
    )
    config = {
        "command": "evolve",
        "protocol": "sensitivity",
        "alpha": alpha,
        "xi": xi,
        "t_final": t_final,
        "eps_grid": eps_grid,
        **result.config,
    }
    document = {
        "config": config,
        "rows": [{"eps": e, "D": d, **grid} for (e, d), grid in zip(result.rows, result.grids)],
        "trend": result.trend,
        "ratio_end_to_start": result.ratio_end_to_start,
        "norm_drift": result.norm_drift,
    }
    jpath = _write_json(os.path.join(out, "bc_sensitivity.json"), document)
    eps_col, d_col = zip(*result.rows)
    cpath = _write_csv(os.path.join(out, "bc_sensitivity.csv"), ["eps", "D", "wall_mass"],
                       [eps_col, d_col, result.wall_mass], config)
    print(f"alpha={alpha:g} xi={xi:g}: D trend {result.trend}, "
          f"D({result.rows[-1][0]:g})/D({result.rows[0][0]:g}) = {result.ratio_end_to_start:.3e}")
    print(f"wrote {cpath}\nwrote {jpath}")
    return EXIT_OK


def _evolve_plane(args, geometry) -> int:
    alpha = _number(args, "alpha", float, None)
    profile = power_law(alpha)
    t_final = _number(args, "t_final", float, 1.0)
    dt = _number(args, "dt", float, 2e-3)
    eps = _number(args, "eps", float, 0.01)
    # 45 modes with the default envelope keep the spectrum-edge mass below 1e-8
    ny = _number(args, "ny", int, 45)
    sigma_xi = _number(args, "sigma_xi", float, 2.0)
    y_span = _number(args, "y_span", float, 16.0)
    bc_kind = args.bc or "dirichlet"
    bc = (BoundaryCondition.robin(_number(args, "beta", float, 1.0))
          if bc_kind == "robin" else BoundaryCondition.dirichlet())
    jobs = _number(args, "jobs", int, 1, minimum=1)

    psi0, grid_record = standard_plane_data(profile, geometry, eps, ny, sigma_xi, y_span,
                                            _number(args, "outer_wall", float, None))
    grid = psi0.grid
    result = evolve_plane(psi0, profile, t_final, bc, dt=dt, jobs=jobs)
    out = _outdir(args)

    config = {
        "command": "evolve",
        "protocol": geometry,
        "alpha": alpha,
        "t_final": t_final,
        "dt": dt,
        "eps": eps,
        "outer_wall": grid.L,
        "n_x": grid.n,
        "ny": ny,
        "sigma_xi": sigma_xi,
        "y_span": y_span,
        "bc": bc.label(),
        "spectrum_edge_mass": result.spectrum_edge_mass,
    }

    npath = _write_csv(os.path.join(out, "fibre_norms.csv"), ["xi", "norm"],
                       [psi0.axis, result.fibre_norms], config)
    _write_csv(os.path.join(out, "norm_trace.csv"), ["t", "norm"],
               [np.arange(result.norm_trace.size) * dt, result.norm_trace], config)

    from .evolution import to_original

    # |psi(x, y)|^2 on the tensor grid: one value per node, x-major, with
    # the x and y nodes in the config line
    original = to_original(result.final, profile)
    density = np.abs(original.values) ** 2
    spath = _write_csv(os.path.join(out, "density.csv"), ["density"], [density.ravel()],
                       {**config, "x": grid.nodes, "y": original.axis})

    near_cutoff = grid.nodes < 0.05
    document = {
        "config": config,
        "grid": grid_record,
        "norm_before": result.norm_before,
        "norm_after": result.norm_after,
        "norm_drift": result.norm_drift,
        "wall_mass": result.wall_mass,
        "boundary_mass_below_0.05": float(
            result.final.daxis * np.sum(grid.weights[near_cutoff, None]
                                         * np.abs(result.final.values[near_cutoff]) ** 2)
        ),
    }
    jpath = _write_json(os.path.join(out, "evolution.json"), document)
    print(f"alpha={alpha:g} [{geometry}]: norm drift {result.norm_drift:.3e}")
    print(f"wrote {npath}\nwrote {spath}\nwrote {jpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-deficiency
# ---------------------------------------------------------------------------

def _cmd_verify_deficiency(args) -> int:
    _fill_from_config(args, "verify-deficiency")
    if args.alpha is None:
        raise UsageError("verify-deficiency requires --alpha")
    alpha = _number(args, "alpha", float, None)
    interval = _parse_float_list("0,1" if args.interval is None else args.interval, "--interval")
    if len(interval) != 2:
        raise UsageError("--interval needs two comma-separated numbers")
    other = None
    if args.other_interval is not None:
        other = _parse_float_list(args.other_interval, "--other-interval")
        if len(other) != 2:
            raise UsageError("--other-interval needs two comma-separated numbers")
    samples = _number(args, "samples", int, 16)
    out = _outdir(args)

    report = verify_deficiency_family(alpha, tuple(interval), samples,
                                      tuple(other) if other else None)
    config = {
        "command": "verify-deficiency",
        "alpha": alpha,
        "interval": interval,
        "other_interval": other,
        "samples": samples,
    }
    document = {
        "config": config,
        "max_residual": report.max_residual,
        "max_norm_error": report.max_norm_error,
        "max_cross_inner_product": report.max_cross_inner,
        "family_norm_sq": report.family_norm_sq,
        "contradiction": report.contradiction,
        "grid": report.grid,
        "xi_values": [float(v) for v in report.xi_values],
    }
    path = _write_json(os.path.join(out, "deficiency_family.json"), document)
    status = "CONTRADICTION" if report.contradiction else "ok"
    print(f"alpha={alpha:g} J={interval}: max residual {report.max_residual:.3e} [{status}]")
    print(f"wrote {path}")
    return EXIT_NUMERIC if report.contradiction else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grushinlab",
        description="confinement experiments on Grushin-type geometries",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--output-dir", help="directory for output files (default .)")
        p.add_argument("--alpha", help="power-law exponent")

    p = sub.add_parser("classify", help="fibre classification and aggregate verdict")
    common(p)
    p.add_argument("--profile", help="builtin custom profile name")
    p.add_argument("--profile-file", help="profile config file")
    p.add_argument("--mode", choices=_CHOICES["mode"])
    p.add_argument("--method", choices=_CHOICES["method"])
    p.add_argument("--xi-min")
    p.add_argument("--xi-max")
    p.add_argument("--xi-step")
    p.add_argument("--k-max")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("geodesics", help="geodesic fan with boundary hit times")
    common(p)
    p.add_argument("--angles", help="number of fan angles")
    p.add_argument("--theta", help="single launch angle instead of a fan")
    p.add_argument("--t-max")
    p.add_argument("--tol")
    p.add_argument("--x0")
    p.add_argument("--y0")
    p.set_defaults(func=_cmd_geodesics)

    p = sub.add_parser("evolve", help="fibre/plane Schroedinger evolution")
    common(p)
    p.add_argument("--protocol", choices=_CHOICES["protocol"])
    p.add_argument("--jobs", help="worker threads for the fibres of a plane or cylinder run")
    p.add_argument("--xi")
    p.add_argument("--t-final")
    p.add_argument("--dt")
    p.add_argument("--beta", default=None, help="Robin parameter (default 1)")
    p.add_argument("--eps-grid", help="comma list of strictly decreasing cutoffs")
    p.add_argument("--refine", help="divides the local spacing of the sensitivity "
                   "protocol's grid (default 1)")
    p.add_argument("--eps")
    p.add_argument("--outer-wall", help="widest outer wall of a plane or cylinder run; "
                   "each fibre stops at its own turning-point wall inside it")
    p.add_argument("--ny")
    p.add_argument("--sigma-xi")
    p.add_argument("--y-span")
    p.add_argument("--bc", choices=_CHOICES["bc"])
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("verify-deficiency", help="deficiency eigenfunction family")
    common(p)
    p.add_argument("--interval", help="xi interval a,b (default 0,1)")
    p.add_argument("--other-interval", help="disjoint interval for orthogonality")
    p.add_argument("--samples")
    p.set_defaults(func=_cmd_verify_deficiency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveClassification as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (NumericError, ProtocolError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GrushinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
