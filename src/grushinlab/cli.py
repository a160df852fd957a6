"""Command line front door: reproducible experiments, file outputs.

Commands
--------
classify            endpoint classification sweep and aggregate verdict
geodesics           geodesic fan / single trajectory with hit times
evolve              fibre or plane evolution experiments
verify-deficiency   deficiency eigenfunction family residuals

Configuration may come from flags, from an INI-style file passed with
--config (one section per command, named after it), or both; flags
win.  ``classify`` takes its profile from --alpha or --profile, as a
flag or a [classify] key.  Every output embeds the fully resolved
configuration.  Exit codes: 0 success/definite verdict,
2 usage error, 3 numeric failure, 4 inconclusive classification.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import InconclusiveClassification, NumericError, UsageError
from .evolution import (
    DEFAULT_DT,
    BoundaryCondition,
    _step_count,
    bc_sensitivity,
    evolve_plane,
    standard_plane_data,
)
from .geodesics import GeodesicInitialData, geodesic_fan, hit_time_quadrature, integrate_geodesic
from .profiles import GrushinProfile, builtin_profile, power_law
from .weyl import (
    FAMILY_TOL,
    MAX_FAMILY_SAMPLES,
    Method,
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
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _jsonable(obj):
    """``json.dumps``'s ``default``: an array is its list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} has no JSON form")


CSV_BLOCK_ROWS = 4096
_EXP_MIN, _EXP_MAX = -281, 280  # e of _csv_block's fast path; past them a split overflows


def _write_csv(path, header_cols, columns, config):
    """Write equal-length float ``columns`` as rows of ``'%.16e' % v`` values,
    ``CSV_BLOCK_ROWS`` rows at a time: by :func:`_csv_block`, else by ``%``."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row_format = ",".join(["%.16e"] * table.shape[1]) + "\n"
    header = "# config: " + _dumps(config) + "\n"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write(",".join(header_cols) + "\n")
        for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(_csv_block(block)
                     or row_format * block.shape[0] % tuple(block.ravel().tolist()))
    return path


def _veltkamp(a):
    c = 134217729.0 * a  # 2^27 + 1: halves of 26 significant bits summing to a
    return c - (c - a), a - (c - (c - a))


@functools.cache
def _format_tables():
    """:func:`_csv_block`'s tables, built on first use.  By e - _EXP_MIN:
    10^(16 - e) as a double-double (hi's halves, hi, lo), and 'e+dd' or
    'e-ddd' with ',' in byte 8; '-d.' by d + 10 sign; '0000' to '9999'."""
    tens = [(10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
            for e in range(_EXP_MIN, _EXP_MAX + 1)]
    hi = [a / b for a, b in tens]  # an int quotient is correctly rounded, and so is lo
    lo = [(a * d - n * b) / (b * d)
          for (a, b), (n, d) in zip(tens, map(float.as_integer_ratio, hi))]
    tail = [f"e{e:+03d}".ljust(7, "\0") + "," for e in range(_EXP_MIN, _EXP_MAX + 1)]
    quad = np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + 48
    return (*_veltkamp(np.array(hi)), np.array(hi), np.array(lo),
            np.array(tail, "S8").view(np.uint64),
            np.array([f"{s}{d}." for s in ("", "-") for d in range(10)], "S4").view(np.uint32),
            quad.astype(np.uint8).view(np.uint32).ravel())


def _csv_block(block):
    """The float rows of ``block`` as CSV text, ``'%.16e' % v`` byte for
    byte; None if a value is not finite or outside [1e-280, 1e280), or its
    M is within 1e-6 of a tie (common above 1e9) or of a decade's edge.

    The digits are the integer nearest to M = |v| 10^(16 - e) = p + r,
    Dekker's product of the Veltkamp halves of v and of the double-double
    10^(16 - e), to about 1e-14.  e = floor(log10 |v|) moves by one while
    p + r (not p alone: p - 1e16 is exact there, and rounding keeps the
    sum's sign) lies outside [1e16, 1e17); then 1e17 carries."""
    flat = block.ravel()
    v = np.abs(flat)
    zero = v == 0.0
    if not np.all(zero | ((v >= 1e-280) & (v < 1e280))):  # nan fails both
        return None
    th, tl, ten, lo, tail, head, quad = _format_tables()
    v[zero] = 1.0
    vh, vl = _veltkamp(v)
    e = np.floor(np.log10(v)).astype(np.int64)
    for _ in range(2):
        k = e - _EXP_MIN
        p = v * ten[k]
        r = ((vh * th[k] - p) + vh * tl[k] + vl * th[k]) + vl * tl[k] + v * lo[k]
        shift = ((p - 1e17) + r >= 0.0).astype(np.int64) - ((p - 1e16) + r < 0.0)
        if not shift.any():
            break
        e += shift
    rounded = np.rint(r)
    if shift.any() or np.any(np.abs(r - rounded) > 0.5 - 1e-6):
        return None
    n = p.astype(np.int64) + rounded.astype(np.int64)  # p >= 2^53 is an integer
    carry = n >= 10**17
    n, e = np.where(carry, 10**16, n), e + carry
    n[zero] = e[zero] = 0
    parts = n[:, None] // np.array([10**16, 10**12, 10**8, 10**4, 1]) % 10**4
    text = np.column_stack([head[parts[:, 0] + 10 * np.signbit(flat)], quad[parts[:, 1:]],
                            tail[e - _EXP_MIN].view(np.uint32).reshape(-1, 2)]).view(np.uint8)
    text[block.shape[1] - 1::block.shape[1], 27] = ord("\n")  # the last byte of 28
    return text[text != 0].tobytes().decode("ascii")


MAX_COUNT = 10_000  # the most fibres, modes, angles, refinements or stacks
REQUIRED = object()  # the default of an option a command cannot run without

# what each command reads, also the name of its config-file section: its
# options by the modes or protocols that read them, which a key names
# space-separated (the command's own name stands for all of them, and
# "robin" for a run under --bc robin).  An option is (kind, default[,
# minimum[, maximum]]); kind is float, int, str, list (comma-separated
# numbers) or the tuple of the option's values.
_READS = {
    "classify": {
        "classify": {"alpha": (float, None), "profile": (str, None),
                     "mode": (("plane", "cylinder"), "plane"),
                     "method": (("auto", "analytic", "numeric"), "auto")},
        "plane": {"xi_min": (float, -5.0), "xi_max": (float, 5.0), "xi_step": (float, 0.25)},
        "cylinder": {"k_max": (int, 5, 0, MAX_COUNT)},
    },
    "geodesics": {
        "geodesics": {"alpha": (float, REQUIRED), "angles": (int, 16, None, MAX_COUNT),
                      "theta": (float, None), "t_max": (float, 10.0), "tol": (float, 1e-12),
                      "x0": (float, 1.0), "y0": (float, 0.0)},
    },
    "evolve": {
        "evolve": {"alpha": (float, REQUIRED),
                   "protocol": (("sensitivity", "plane", "cylinder"), "sensitivity"),
                   "t_final": (float, 1.0), "dt": (float, DEFAULT_DT)},
        "sensitivity": {"xi": (float, 0.5), "refine": (int, 1, 1, MAX_COUNT),
                        "eps_grid": (list, "1e-1,1e-2,1e-3")},
        "sensitivity robin": {"beta": (float, 1.0)},
        # 45 modes with the default envelope keep the spectrum-edge mass below 1e-8
        "plane cylinder": {"eps": (float, 0.01), "outer_wall": (float, None),
                           "ny": (int, 45, None, MAX_COUNT), "sigma_xi": (float, 2.0),
                           "bc": (("dirichlet", "robin"), "dirichlet"),
                           "jobs": (int, 1, 1, MAX_COUNT)},
        "plane": {"y_span": (float, 16.0)},  # the cylinder's circle is fixed
    },
    "verify-deficiency": {
        "verify-deficiency": {"alpha": (float, REQUIRED), "interval": (list, "0,1"),
                              "other_interval": (list, None),
                              "samples": (int, 16, None, MAX_FAMILY_SAMPLES)},
    },
}
_HELP = {
    "config": "INI config file; flags override its values",
    "output_dir": "directory for output files (default .)",
    "alpha": "power-law exponent",
    "profile": "builtin custom profile name",
    "angles": "number of fan angles",
    "theta": "single launch angle instead of a fan",
    "dt": "time step of every evolve protocol, a fourth-order unitary Pade step; "
          "--t-final must be a whole number of steps",
    "refine": "divides the local spacing of the sensitivity protocol's grid",
    "eps_grid": "comma list of strictly decreasing cutoffs",
    "beta": "Robin parameter",
    "outer_wall": "widest outer wall of a plane or cylinder run; each fibre stops at its "
                  "own turning-point wall inside it",
    "jobs": "stacks of fibres a plane or cylinder run steps, each on a thread of its own "
            "(at most one per distinct fibre: equal fibres are stepped once)",
    "interval": "xi interval a,b",
    "other_interval": "disjoint interval for orthogonality",
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _options(command):
    """Every option of ``command`` by name, each with a spec of the table."""
    return {name: spec for entry in _READS[command].values() for name, spec in entry.items()}


def _fill_from_config(args):
    """Copy the values of the command's file section into argparse
    Namespace slots left at None; a file that does not parse, a section
    that names no command, a key that names no option of the command, or
    a value outside the option's choices, is a usage error."""
    if args.config is None:
        return
    # values are literal: a '%' in one is no interpolation syntax error
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(args.config, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file {args.config}: {exc}") from None
    if not found:
        raise UsageError(f"config file not found: {args.config}")
    unknown = [name for name in parser.sections() if name not in _READS]
    if unknown:
        raise UsageError(f"config file section [{unknown[0]}] names no command "
                         f"(sections: {', '.join(_READS)})")
    section = args.command
    if not parser.has_section(section):
        return
    options = {**_options(section), "output_dir": (str,)}
    for key, raw in parser.items(section):
        attr = key.replace("-", "_")
        if attr not in options:
            raise UsageError(f"config file [{section}] has unknown key {key!r}")
        choices = options[attr][0]
        if isinstance(choices, tuple) and raw not in choices:
            raise UsageError(f"config file [{section}] {key} must be one of "
                             f"{', '.join(choices)}, got {raw!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, raw)


def _parse(flag, kind, raw, minimum=None, maximum=None):
    """``raw``, from a flag, a file key or the table, as a ``kind`` value
    (a finite one, for a number) within the bounds; None stays None, and
    anything else is a usage error."""
    if raw is None or kind is str or isinstance(kind, tuple):
        return raw
    if kind is list:  # an empty item is an error
        try:
            return [float(tok) for tok in str(raw).replace(" ", "").split(",")]
        except ValueError as exc:
            raise UsageError(f"malformed {flag}: {raw!r}") from exc
    expected = "an integer" if kind is int else "a number"
    try:
        value = kind(raw)
    except ValueError:
        raise UsageError(f"{flag} expects {expected}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{flag} expects a finite number, got {raw!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{flag} must be at least {minimum}, got {raw!r}")
    if maximum is not None and value > maximum:
        raise UsageError(f"{flag} must be at most {maximum}, got {raw!r}")
    return value


def _given(args) -> set[str]:
    """The options set in ``args``, flags and file keys alike, but --config
    and --output-dir."""
    return {name for name, value in vars(args).items()
            if value is not None} - {"command", "func", "config", "output_dir"}


def _read(args, command, given, selector=None):
    """The options a run of ``command`` reads, parsed, as a Namespace: the
    entries of its table keyed by the command or by the value, set or
    default, of one of its choice options.  Messages name the run by its
    ``selector`` option.  An option in ``given`` the run does not read, a
    REQUIRED one unset, or a value not of its kind, is a usage error."""
    choices = {name: getattr(args, name) or default for name, (kind, default, *_)
               in _options(command).items() if isinstance(kind, tuple)}
    tags = {command, *choices.values()}
    reads = {name: spec for key, entry in _READS[command].items() if tags & set(key.split())
             for name, spec in entry.items()}
    what = command if selector is None else f"{command} --{selector} {choices[selector]}"
    unread = sorted(given - set(reads))
    if unread:
        raise UsageError(f"{what} does not read {', '.join(map(_flag, unread))}")
    values = {}
    for name, (kind, default, *bounds) in reads.items():
        raw = getattr(args, name)
        if raw is None and default is REQUIRED:
            raise UsageError(f"{what} requires {_flag(name)}")
        values[name] = _parse(_flag(name), kind, default if raw is None else raw, *bounds)
    return argparse.Namespace(**values)


def _resolve_profile(read) -> GrushinProfile:
    """The profile named by --alpha or, where the command has that option, by
    --profile, flag or file key; no other command code builds one."""
    name = getattr(read, "profile", None)
    if read.alpha is not None and name is not None:
        raise UsageError("give exactly one of --alpha, --profile")
    if read.alpha is not None:
        return power_law(read.alpha)
    if name is not None:
        return builtin_profile(name)
    raise UsageError("no profile given: use --alpha or --profile")


def _outdir(args) -> str:
    """The output directory, made when its first file is written; one whose
    nearest existing ancestor is no directory is a usage error."""
    out = existing = args.output_dir or "."
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing) or "."
    if not os.path.isdir(existing):
        raise UsageError(f"--output-dir {out}: {existing} is not a directory")
    return out


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

NUMERIC_DIAGNOSTICS = ("c0", "c0_fit_error", "indicial_slope", "early_limit_point",
                       "slope_error", "x_end")


def _fibre_row(report) -> dict:
    """A fibre's row of ``verdict.json``; a numeric fibre adds the
    diagnostics of its two routes.  A c0 that diverges (the exp_inverse
    fibres) is written null, with ``c0_diverges``, so the JSON stays strict."""
    row = {"xi": report.xi, "endpoint_zero": report.endpoint_zero.value,
           "endpoint_infinity": report.endpoint_infinity.value,
           "deficiency": report.deficiency, "method": report.method.value}
    if report.method is Method.NUMERIC_ODE:
        row.update({key: report.diagnostics[key] for key in NUMERIC_DIAGNOSTICS})
        row["c0_diverges"] = not math.isfinite(row["c0"])
        if row["c0_diverges"]:
            row["c0"] = None
    return row


def _cmd_classify(args) -> int:
    flags = _given(args)
    _fill_from_config(args)
    # a [classify] section may hold both modes' keys, but not a flag of the other mode
    read = _read(args, "classify", flags, "mode")
    out = _outdir(args)
    profile = _resolve_profile(read)
    mode, method = Mode(read.mode), read.method

    if mode is Mode.CYLINDER:
        xi_values = [float(k) for k in range(-read.k_max, read.k_max + 1)]
        grid_info = {"kind": "integer modes", "k_max": read.k_max}
    else:
        lo, hi, step = read.xi_min, read.xi_max, read.xi_step
        if step <= 0.0 or hi < lo:
            raise UsageError("the xi grid needs --xi-min <= --xi-max and --xi-step > 0")
        if (hi - lo) / step >= MAX_COUNT - 0.5:  # it rounds to more than MAX_COUNT fibres
            raise UsageError(f"the xi grid needs at most {MAX_COUNT} fibres, "
                             f"got {(hi - lo) / step + 1:.6g}")
        n = _step_count(hi - lo, step, what="xi span --xi-max - --xi-min") + 1
        xi_values = [float(v) for v in np.linspace(lo, hi, n)]
        grid_info = {"kind": "uniform", "xi_min": lo, "xi_max": hi, "xi_step": step}

    reports = classify_sweep(profile, xi_values, method=method)
    verdict = aggregate_verdict(reports, mode, grid_info=grid_info)

    ineq, info = classify_by_inequality(profile, np.geomspace(1e-4, 1e2, 400))

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
        "fibres": [_fibre_row(r) for r in sorted(reports, key=lambda r: r.xi)],
        "verdict": verdict.verdict.value,
        "failing_fibres": verdict.failing_fibres,
        "total_deficiency": verdict.total_deficiency.value,
        "caveat": verdict.caveat,
        "grid": verdict.grid,
        "inequality_check": {"verdict": ineq.value, **info},
    }
    if reports[0].method is Method.NUMERIC_ODE:
        # the sweep's propagator work, which every numeric report shares
        document["work"] = reports[0].diagnostics["work"]
    path = _write_json(os.path.join(out, "verdict.json"), document)
    print(f"{profile.name} [{mode.value}]: {verdict.verdict.value}"
          f" (failing: {verdict.failing_fibres}; deficiency: {verdict.total_deficiency.value})")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def write_fan(trajectories, directory, config):
    """One CSV per distinct half, ``t,x,P_x,dy`` with dy = y - y0 in the
    half's own unmirrored frame, under a config line holding ``config``
    and the half's launch (``theta``, ``t_end``, ``P_x``, ``P_y``), hit
    time and ``source``; and ``manifest.json`` with the config, the
    ``reference`` solve the halves came from (or None), and one entry per
    trajectory: its summary, and for each half its file and y-mirror sign
    (None outside the span).  Returns the manifest path, the number of
    halves written and the number of reference solves.

    Trajectory (t, x, y, P_x) is rebuilt from its entry by the rule of
    ``GeodesicTrajectory``: (t, x, y0 + s dy, P_x) from the forward file
    and, from the backward file, (-t[:0:-1], x[:0:-1], y0 + s dy[:0:-1],
    -P_x[:0:-1]) before it.  The manifest and every header are encoded
    before any file is opened, so a non-finite value writes nothing."""
    halves = {}  # the distinct halves by id, in order of first use
    for traj in trajectories:
        for part in (traj.forward, traj.backward):
            if part is not None:
                halves.setdefault(id(part[0]), part[0])
    references = {id(h.reference): h.reference for h in halves.values() if h.reference}
    config = {**config, "halves": len(halves), "reference": next(iter(references.values()), None)}
    names = {key: f"geodesic_half{i:03d}.csv" for i, key in enumerate(halves)}
    headers = [{**config, "theta": half.theta, "t_end": half.t_end, "P_x": half.px,
                "P_y": half.py, "hit_time": half.hit, "source": half.source}
               for half in halves.values()]

    def source(part):
        return None if part is None else {"file": names[id(part[0])], "y_sign": part[1]}

    manifest = {"config": config, "trajectories": [
        {"alpha": traj.init.alpha, "theta": traj.init.theta, "x0": traj.init.x0,
         "y0": traj.init.y0, "P_y": traj.py, "hit_time_plus": traj.hit_time_plus,
         "hit_time_minus": traj.hit_time_minus, "energy_drift": traj.energy_drift,
         "meta": traj.meta, "forward": source(traj.forward), "backward": source(traj.backward)}
        for traj in trajectories]}
    _dumps([manifest, *headers])
    for half, header in zip(halves.values(), headers):
        x, px, dy = half.state
        _write_csv(os.path.join(directory, names[id(half)]), ["t", "x", "P_x", "dy"],
                   [half.t, x, px, dy], header)
    manifest_path = _write_json(os.path.join(directory, "manifest.json"), manifest)
    return manifest_path, len(halves), len(references)


def _cmd_geodesics(args) -> int:
    _fill_from_config(args)
    read = _read(args, "geodesics", _given(args))
    if args.theta is not None and args.angles is not None:
        raise UsageError("--angles sets the size of a fan; it does not apply with --theta")
    out = _outdir(args)
    alpha, t_max, tol, x0, y0 = read.alpha, read.t_max, read.tol, read.x0, read.y0

    config = {"command": "geodesics", **vars(read)}  # with --theta or --angles, not both
    if read.theta is not None:
        del config["angles"]
        init = GeodesicInitialData(x0=x0, y0=y0, theta=read.theta, alpha=alpha)
        trajs = [integrate_geodesic(init, (-t_max, t_max), tol)]
    else:
        del config["theta"]
        trajs = geodesic_fan(alpha, read.angles, (-t_max, t_max), x0=x0, y0=y0, tol=tol)

    if alpha > 0:
        for traj in trajs:
            traj.meta["quadrature_hit_time"] = hit_time_quadrature(traj.init)
    mpath, halves, references = write_fan(trajs, out, config)
    hits = [t.hit_time_plus for t in trajs]
    print(f"alpha={alpha:g}: {len(trajs)} trajectories from {halves} halves and {references} "
          f"reference solve{'' if references == 1 else 's'}, "
          f"{sum(h is not None for h in hits)} forward boundary hits")
    print(f"wrote {mpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _cmd_evolve(args) -> int:
    _fill_from_config(args)
    read = _read(args, "evolve", _given(args), "protocol")
    out = _outdir(args)
    if read.protocol == "sensitivity":
        return _evolve_sensitivity(read, out)
    return _evolve_plane(read, out)


def _evolve_sensitivity(read, out) -> int:
    result = bc_sensitivity(_resolve_profile(read), read.xi, read.t_final, read.eps_grid,
                            beta=read.beta, dt=read.dt, refine=read.refine)
    config = {"command": "evolve", **vars(read), **result.config}
    document = {
        "config": config,
        "rows": [{"eps": e, "D": d, **grid} for (e, d), grid in zip(result.rows, result.grids)],
        "trend": result.trend,
        "ratio_end_to_start": result.ratio_end_to_start,
        "norm_drift": result.norm_drift,
        "work": result.work,
    }
    jpath = _write_json(os.path.join(out, "bc_sensitivity.json"), document)
    eps_col, d_col = zip(*result.rows)
    cpath = _write_csv(os.path.join(out, "bc_sensitivity.csv"), ["eps", "D", "wall_mass"],
                       [eps_col, d_col, result.wall_mass], config)
    print(f"alpha={read.alpha:g} xi={read.xi:g}: D trend {result.trend}, "
          f"D({result.rows[-1][0]:g})/D({result.rows[0][0]:g}) = {result.ratio_end_to_start:.3e}")
    print(f"wrote {cpath}\nwrote {jpath}")
    return EXIT_OK


def _evolve_plane(read, out) -> int:
    alpha, geometry, dt = read.alpha, read.protocol, read.dt
    profile = _resolve_profile(read)
    bc = BoundaryCondition.robin(read.beta) if read.bc == "robin" else BoundaryCondition.dirichlet()
    psi0 = standard_plane_data(profile, geometry, read.eps, read.ny, read.sigma_xi,
                               getattr(read, "y_span", None), read.outer_wall)
    grid = psi0.grid
    result = evolve_plane(psi0, profile, read.t_final, bc, dt=dt, jobs=read.jobs)

    config = {"command": "evolve", **vars(read), "outer_wall": grid.L, "n_x": grid.n,
              "bc": bc.label(), "spectrum_edge_mass": result.spectrum_edge_mass}
    del config["jobs"]  # every --jobs writes the same bytes, and the bc label holds beta
    config.pop("beta", None)

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

    document = {
        "config": config,
        "grid": result.grid,
        "norm_before": result.norm_before,
        "norm_after": result.norm_after,
        "norm_drift": result.norm_drift,
        "wall_mass": result.wall_mass,
        "boundary_mass_below_0.05": result.boundary_mass,
        "work": result.work,
    }
    jpath = _write_json(os.path.join(out, "evolution.json"), document)
    print(f"alpha={alpha:g} [{geometry}]: norm drift {result.norm_drift:.3e}")
    print(f"wrote {npath}\nwrote {spath}\nwrote {jpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-deficiency
# ---------------------------------------------------------------------------

def _cmd_verify_deficiency(args) -> int:
    _fill_from_config(args)
    read = _read(args, "verify-deficiency", _given(args))
    alpha, interval, other = read.alpha, read.interval, read.other_interval
    if len(interval) != 2:
        raise UsageError("--interval needs two comma-separated numbers")
    if other is not None and len(other) != 2:
        raise UsageError("--other-interval needs two comma-separated numbers")
    out = _outdir(args)

    report = verify_deficiency_family(_resolve_profile(read), tuple(interval), read.samples,
                                      tuple(other) if other else None)
    document = {
        "config": {"command": "verify-deficiency", **vars(read)},
        "max_residual": report.max_residual,
        "max_norm_error": report.max_norm_error,
        "max_cross_inner_product": report.max_cross_inner,
        "contradiction": report.contradiction,
        "work": report.work,
        "grid": report.grid,
        "xi_values": [float(v) for v in report.xi_values],
    }
    path = _write_json(os.path.join(out, "deficiency_family.json"), document)
    failed = ["CONTRADICTION"] if report.contradiction else []
    failed += [f"FAIL: {name} {value:.3e} > {FAMILY_TOL:g}"
               for name, value in (("max_residual", report.max_residual),
                                   ("max_norm_error", report.max_norm_error))
               if value > FAMILY_TOL]
    print(f"alpha={alpha:g} J={interval}: max residual {report.max_residual:.3e} "
          f"[{'; '.join(failed) or 'ok'}]")
    print(f"wrote {path}")
    return EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The command line; each option's help names its table default."""
    parser = argparse.ArgumentParser(
        prog="grushinlab",
        description="confinement experiments on Grushin-type geometries",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
            ("classify", _cmd_classify, "fibre classification and aggregate verdict"),
            ("geodesics", _cmd_geodesics, "geodesic fan with boundary hit times"),
            ("evolve", _cmd_evolve, "fibre/plane Schroedinger evolution"),
            ("verify-deficiency", _cmd_verify_deficiency, "deficiency eigenfunction family")):
        p = sub.add_parser(command, help=text)
        # no option name starts with '-' and a digit or '.', so such a token
        # (-1e-3, -1,0) is the value of the flag before it; argparse alone
        # takes only a plain negative number so
        p._negative_number_matcher = re.compile(r"-\.?\d")
        for name, (kind, default, *_) in {"config": (str, None), "output_dir": (str, None),
                                          **_options(command)}.items():
            help_text = _HELP.get(name)
            if default is not None and default is not REQUIRED:
                help_text = f"{help_text or ''} (default {default})".lstrip()
            p.add_argument(_flag(name), help=help_text,
                           choices=kind if isinstance(kind, tuple) else None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveClassification as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
