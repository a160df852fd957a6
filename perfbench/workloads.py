"""The benchmark's workloads: the CLI commands each one runs, and the
correctness checks applied to their outputs.

A workload is a list of ``grushinlab`` command lines run back to back by
one caller (a closed loop).  The seed moves only inputs that leave the
work per run unchanged; grid sizes and step counts never depend on it.
Every check compares a number read from the outputs against the
tolerance of the acceptance suite (``tests/test_acceptance.py``), so each
one fails when the program's numbers leave that tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# acceptance-suite tolerances
TOLERANCES = {
    "ratio_7a": 0.2,           # criterion 7a: D(1e-3)/D(1e-1) below this
    "halving_7a": 0.10,        # criterion 7a: relative change under halving
    "exponent_gap_7c": 0.2,    # criterion 7c: confining minus non-confining
    "wall_mass": 1e-8,         # evolution.WALL_MASS_LIMIT
    "norm_drift": 1e-6,        # criterion 8
    "spectrum_edge_mass": 1e-8,
    "hit_gap": 1e-6,           # criterion 5
    "energy_drift": 1e-9,      # criterion 5
    "residual": 1e-6,          # criterion 6
    "cross_inner": 1e-10,      # criterion 6
}


@dataclass(frozen=True)
class Check:
    """One correctness check: ``value`` is what the outputs gave."""

    name: str
    ok: bool
    value: float | str | None = None
    limit: float | str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, smoke) -> command lines, each without --output-dir
    commands: Callable[[int, bool], list[list[str]]]
    # (output dir of each command, tolerances) -> checks and check margins
    check: Callable[[list[Path], dict], tuple[list[Check], dict]]


class OutputError(ValueError):
    """An output file is missing or malformed."""


def _reject_constant(name):
    raise OutputError(f"non-finite JSON constant {name}")


def load_json(path: Path):
    """Parse a JSON output strictly: ``NaN`` and ``Infinity`` are errors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"{path}: {exc}") from exc


def load_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Read a ``# config:``-headed CSV output into (columns, float rows)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"{path}: {exc}") from exc
    if not text.startswith("# config: "):
        raise OutputError(f"{path}: missing '# config:' header line")
    reader = csv.reader(io.StringIO(text.split("\n", 1)[1]))
    columns = next(reader, None)
    if not columns:
        raise OutputError(f"{path}: missing column header")
    try:
        rows = [[float(v) for v in row] for row in reader if row]
    except ValueError as exc:
        raise OutputError(f"{path}: {exc}") from exc
    if any(len(row) != len(columns) for row in rows):
        raise OutputError(f"{path}: ragged rows")
    return columns, rows


def _strict_json_checks(out_dirs: list[Path]) -> list[Check]:
    checks = []
    for d in out_dirs:
        for path in sorted(d.glob("*.json")):
            try:
                load_json(path)
                checks.append(Check(f"strict_json:{d.name}/{path.name}", True))
            except OutputError as exc:
                checks.append(Check(f"strict_json:{d.name}/{path.name}", False, str(exc)))
    return checks


def _evaluate(named: list[tuple[str, Callable[[], tuple[bool, object, object]]]]):
    """Run each check body; a malformed output fails that check only."""
    checks = []
    for name, body in named:
        try:
            ok, value, limit = body()
        except (OutputError, KeyError, TypeError, ValueError, IndexError,
                ZeroDivisionError) as exc:
            checks.append(Check(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        checks.append(Check(name, bool(ok), value, limit))
    return checks


# ---------------------------------------------------------------------------
# bc-sweep: the criterion-7 sensitivity protocol on the largest uniform grids
# ---------------------------------------------------------------------------

def bc_sweep_commands(seed: int, smoke: bool) -> list[list[str]]:
    # The Robin parameter enters one matrix entry of each Robin stepper, so
    # it changes the data but neither the grid nor the step count.
    beta = 0.9 + 0.2 * random.Random(seed).randrange(16) / 16
    base = ["evolve", "--protocol", "sensitivity", "--xi", "0.5", "--beta", f"{beta:g}"]
    if smoke:
        base += ["--eps-grid", "1e-1,1e-2", "--t-final", "0.2"]
    else:
        base += ["--eps-grid", "1e-1,1e-3"]
    return [base + ["--alpha", "0.5"],
            base + ["--alpha", "1.5"],
            base + ["--alpha", "1.5", "--refine", "2"]]


def _decay_exponent(doc) -> float:
    """Fitted exponent of D over the eps range, in decades of eps."""
    eps_start, eps_end = doc["rows"][0]["eps"], doc["rows"][-1]["eps"]
    return math.log10(1.0 / doc["ratio_end_to_start"]) / math.log10(eps_start / eps_end)


def bc_sweep_check(out_dirs: list[Path], tol: dict):
    a05, a15, a15_halved = out_dirs

    def doc(d):
        return load_json(d / "bc_sensitivity.json")

    def ratio_7a():
        r = doc(a15)["ratio_end_to_start"]
        return r < tol["ratio_7a"], r, tol["ratio_7a"]

    def halving_7a():
        r, rh = doc(a15)["ratio_end_to_start"], doc(a15_halved)["ratio_end_to_start"]
        change = abs(rh - r) / r
        return change < tol["halving_7a"], change, tol["halving_7a"]

    def exponent_gap():
        gap = _decay_exponent(doc(a15)) - _decay_exponent(doc(a05))
        return gap > tol["exponent_gap_7c"], gap, tol["exponent_gap_7c"]

    def wall_mass():
        worst = 0.0
        for d in out_dirs:
            columns, rows = load_csv(d / "bc_sensitivity.csv")
            if columns != ["eps", "D", "wall_mass"] or not rows:
                raise OutputError(f"{d.name}/bc_sensitivity.csv: unexpected table")
            worst = max([worst] + [row[2] for row in rows])
        return worst <= tol["wall_mass"], worst, tol["wall_mass"]

    def norm_drift():
        worst = max(doc(d)["norm_drift"] for d in out_dirs)
        return worst <= tol["norm_drift"], worst, tol["norm_drift"]

    checks = _strict_json_checks(out_dirs) + _evaluate([
        ("criterion_7a_ratio", ratio_7a),
        ("criterion_7a_halving", halving_7a),
        ("criterion_7c_exponent_gap", exponent_gap),
        ("wall_mass", wall_mass),
        ("norm_drift", norm_drift),
    ])
    return checks, _margins(checks, {"wall_mass": "evolution.wall_mass_max",
                                     "norm_drift": "evolution.norm_drift_max"})


# ---------------------------------------------------------------------------
# plane-evolve: many moderate fibres on one shared grid, plus the writers
# ---------------------------------------------------------------------------

def plane_evolve_commands(seed: int, smoke: bool) -> list[list[str]]:
    # No plane input leaves the work unchanged: the xi grid sets the grid
    # size, t-final the step count, and the data the subnormal stall.  The
    # seed therefore moves nothing here.
    del seed
    argv = ["evolve", "--protocol", "plane", "--alpha", "1", "--jobs", "2"]
    if smoke:
        argv += ["--ny", "15", "--sigma-xi", "0.6", "--t-final", "0.1"]
    return [argv]


def plane_evolve_check(out_dirs: list[Path], tol: dict):
    (out,) = out_dirs

    def document():
        return load_json(out / "evolution.json")

    def norm_drift():
        drift = document()["norm_drift"]
        return drift <= tol["norm_drift"], drift, tol["norm_drift"]

    def edge_mass():
        mass = document()["config"]["spectrum_edge_mass"]
        return mass <= tol["spectrum_edge_mass"], mass, tol["spectrum_edge_mass"]

    def density_complete():
        cfg = document()["config"]
        expected = int(cfg["n_x"]) * int(cfg["ny"])
        with open(out / "density.csv", "rb") as fh:
            rows = fh.read().count(b"\n") - 2  # config and column lines
        return rows == expected, rows, expected

    checks = _strict_json_checks(out_dirs) + _evaluate([
        ("norm_drift", norm_drift),
        ("spectrum_edge_mass", edge_mass),
        ("density_rows", density_complete),
    ])
    return checks, _margins(checks, {"norm_drift": "evolution.norm_drift_max",
                                     "spectrum_edge_mass": "evolution.spectrum_edge_mass_max"})


# ---------------------------------------------------------------------------
# ode-verdicts: GIL-bound ODE and quadrature work, no Crank-Nicolson
# ---------------------------------------------------------------------------

def ode_verdicts_commands(seed: int, smoke: bool) -> list[list[str]]:
    rng = random.Random(seed)
    # Shift of the plane xi grids by a multiple of 1/64 (exact in binary);
    # the fibre count stays 41 (5 in smoke size).
    shift = rng.randrange(16) / 64
    # The fan's launch height: translation in y changes no trajectory's work.
    y0 = rng.randrange(-16, 17) / 16
    half = 1.0 if smoke else 5.0
    step = "0.5" if smoke else "0.25"
    xi = ["--xi-min", f"{-half + shift:g}", "--xi-max", f"{half + shift:g}", "--xi-step", step]
    angles = "8" if smoke else "64"
    fan = ["--angles", angles, "--y0", f"{y0:g}"]
    return [
        ["classify", "--profile", "exp_inverse", *xi],
        ["classify", "--profile", "exp_inverse", "--mode", "cylinder",
         "--k-max", "1" if smoke else "3"],
        ["classify", "--alpha", "0.5", "--method", "numeric", *xi],
        ["geodesics", "--alpha", "0.5", *fan],
        ["geodesics", "--alpha", "1", *fan],
        ["verify-deficiency", "--alpha", "0.5", "--interval", "0,1",
         "--other-interval", "2,3", *(["--samples", "8"] if smoke else [])],
    ]


ESA = "essentially_self_adjoint"
NOT_ESA = "not_essentially_self_adjoint"


def ode_verdicts_check(out_dirs: list[Path], tol: dict):
    from grushinlab.weyl import classify_power_law

    plane, cylinder, numeric, fan_half, fan_one, deficiency = out_dirs

    def verdict(d, expected, deficiency_expected):
        def body():
            doc = load_json(d / "verdict.json")
            got = (doc["verdict"], doc["total_deficiency"])
            return got == (expected, deficiency_expected), "/".join(got), \
                f"{expected}/{deficiency_expected}"
        return body

    def numeric_agrees():
        doc = load_json(numeric / "verdict.json")
        fibres = doc["fibres"]
        wrong = [f["xi"] for f in fibres
                 if f["method"] != "numeric_ode"
                 or f["endpoint_zero"] != classify_power_law(0.5, f["xi"]).endpoint_zero.value]
        return bool(fibres) and not wrong, len(wrong), 0

    def hit_gap():
        worst = 0.0
        for d in (fan_half, fan_one):
            manifest = load_json(d / "manifest.json")
            t_max = manifest["config"]["t_max"]
            for m in manifest["trajectories"]:
                ode, quad = m["hit_time_plus"], m["meta"]["quadrature_hit_time"]
                if ode is None and (quad is None or quad > t_max):
                    continue  # no hit inside the integration span, as predicted
                if ode is None or quad is None:
                    return False, f"theta={m['theta']}: ode {ode}, quadrature {quad}", None
                worst = max(worst, abs(ode - quad))
        return worst <= tol["hit_gap"], worst, tol["hit_gap"]

    def energy_drift():
        worst = max(m["energy_drift"] for d in (fan_half, fan_one)
                    for m in load_json(d / "manifest.json")["trajectories"])
        return worst <= tol["energy_drift"], worst, tol["energy_drift"]

    def family():
        doc = load_json(deficiency / "deficiency_family.json")
        ok = (doc["contradiction"] is False
              and doc["max_residual"] <= tol["residual"]
              and doc["max_cross_inner_product"] <= tol["cross_inner"])
        return ok, doc["max_residual"], tol["residual"]

    checks = _strict_json_checks(out_dirs) + _evaluate([
        ("verdict_exp_inverse_plane", verdict(plane, ESA, "zero")),
        ("verdict_exp_inverse_cylinder", verdict(cylinder, ESA, "zero")),
        ("verdict_alpha_0.5_numeric", verdict(numeric, NOT_ESA, "infinite")),
        ("numeric_agrees_with_power_law", numeric_agrees),
        ("hit_gap", hit_gap),
        ("energy_drift", energy_drift),
        ("deficiency_family", family),
    ])
    return checks, _margins(checks, {"hit_gap": "geodesics.hit_gap_max",
                                     "energy_drift": "geodesics.energy_drift_max"})


def _margins(checks: list[Check], names: dict[str, str]) -> dict[str, float]:
    """The measured value of each named check, keyed by metric name."""
    return {names[c.name]: float(c.value) for c in checks
            if c.name in names and isinstance(c.value, (int, float))}


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bc-sweep", bc_sweep_commands, bc_sweep_check),
        Workload("plane-evolve", plane_evolve_commands, plane_evolve_check),
        Workload("ode-verdicts", ode_verdicts_commands, ode_verdicts_check),
    )
}
