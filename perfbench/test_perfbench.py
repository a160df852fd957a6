"""Tests of the benchmark itself (not part of the package's suite).

    python -m pytest perfbench

Every correctness check must fail on a corrupted output and on a
tolerance that is too tight; every workload must run end to end in its
reduced smoke size; the tracer must isolate the layers.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from workloads import TOLERANCES, WORKLOADS, load_json  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# ---------------------------------------------------------------------------
# end to end, smoke size
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_results():
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run_benchmark("--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr[-2000:]
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(smoke_results, name, trace):
    result = smoke_results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_smoke_end_to_end_metrics_are_never_zero(smoke_results):
    for name in WORKLOADS:
        assert all(v["value"] > 0 for v in smoke_results[name, 0]["metrics"].values())


def test_trace_isolates_the_layers(smoke_results):
    def metric(name, key):
        return smoke_results[name, 1]["metrics"][key]["value"]

    assert metric("ode-verdicts", "evolution.node_steps") == 0
    assert metric("ode-verdicts", "weyl.fibres_classified") > 0
    assert metric("ode-verdicts", "geodesics.trajectories") > 0
    for name in ("bc-sweep", "plane-evolve"):
        assert metric(name, "weyl.fibres_classified") == 0
        assert metric(name, "geodesics.trajectories") == 0
        assert metric(name, "evolution.node_steps") > 0
    # the subnormal stall of the plane fibres
    assert (metric("plane-evolve", "evolution.step_ns_per_node.max")
            > 2 * metric("bc-sweep", "evolution.step_ns_per_node.max"))


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "bc-sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_moves_no_work():
    for name, workload in WORKLOADS.items():
        a, b = workload.commands(1, False), workload.commands(2, False)
        assert len(a) == len(b)
        for argv_a, argv_b in zip(a, b):
            for flag in ("--eps-grid", "--refine", "--t-final", "--dt", "--ny",
                         "--angles", "--k-max", "--xi-step", "--samples"):
                if flag in argv_a:
                    assert argv_b[argv_b.index(flag) + 1] == argv_a[argv_a.index(flag) + 1]
        assert workload.commands(3, False) == workload.commands(3, False)


# ---------------------------------------------------------------------------
# every check can fail
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Real smoke-size outputs of each workload, made once."""
    from grushinlab import cli

    base = tmp_path_factory.mktemp("outputs")
    outputs = {}
    for name, workload in WORKLOADS.items():
        result = run.run_pass(cli, workload.commands(5, True), base / name)
        assert all(code == 0 for code in result["exit_codes"])
        outputs[name] = result["out_dirs"]
    return outputs


def fresh_copy(smoke_outputs, name, tmp_path):
    dirs = smoke_outputs[name]
    shutil.copytree(dirs[0].parent, tmp_path / name)
    return [tmp_path / name / d.name for d in dirs]


def failing(name, dirs, tol=TOLERANCES):
    checks, _ = WORKLOADS[name].check(dirs, tol)
    return {c.name for c in checks if not c.ok}


def edit_json(path, change):
    doc = load_json(path)
    change(doc)
    path.write_text(json.dumps(doc))


def set_key(*keys, value):
    def change(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value
    return change


def test_smoke_outputs_pass_every_check(smoke_outputs):
    for name, dirs in smoke_outputs.items():
        assert failing(name, dirs) == set()


def _bc(dirs, k):
    return dirs[k] / "bc_sensitivity.json"


def _wall_mass_csv(dirs):
    path = dirs[0] / "bc_sensitivity.csv"
    lines = path.read_text().splitlines()
    eps, d, _ = lines[-1].split(",")
    path.write_text("\n".join(lines[:-1] + [f"{eps},{d},2e-8"]) + "\n")


def _truncate_density(dirs):
    path = dirs[0] / "density.csv"
    path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")


def _manifest(dirs):
    return dirs[3] / "manifest.json"


def _member(index, key, value):
    def change(doc):
        member = doc["trajectories"][index]
        if key == "quadrature_hit_time":
            member["meta"][key] = value
        else:
            member[key] = value(member[key]) if callable(value) else value
    return change


def _flip_first_numeric_fibre(doc):
    f = doc["fibres"][0]
    f["endpoint_zero"] = "limit_point" if f["endpoint_zero"] == "limit_circle" else "limit_circle"


CORRUPTIONS = [
    ("bc-sweep", lambda d: edit_json(_bc(d, 1), set_key("ratio_end_to_start", value=0.5)),
     "criterion_7a_ratio"),
    ("bc-sweep", lambda d: edit_json(_bc(d, 2), set_key("ratio_end_to_start",
                                                        value=lambda r: 1.2 * r)),
     "criterion_7a_halving"),
    ("bc-sweep", lambda d: edit_json(
        _bc(d, 0), set_key("ratio_end_to_start", value=load_json(_bc(d, 1))["ratio_end_to_start"])),
     "criterion_7c_exponent_gap"),
    ("bc-sweep", _wall_mass_csv, "wall_mass"),
    ("bc-sweep", lambda d: edit_json(_bc(d, 2), set_key("norm_drift", value=2e-6)), "norm_drift"),
    ("bc-sweep", lambda d: _bc(d, 0).write_text('{"norm_drift": NaN}'),
     "strict_json:0-evolve/bc_sensitivity.json"),
    ("plane-evolve", lambda d: edit_json(d[0] / "evolution.json",
                                         set_key("norm_drift", value=2e-6)), "norm_drift"),
    ("plane-evolve", lambda d: edit_json(d[0] / "evolution.json",
                                         set_key("config", "spectrum_edge_mass", value=2e-8)),
     "spectrum_edge_mass"),
    ("plane-evolve", _truncate_density, "density_rows"),
    ("plane-evolve", lambda d: (d[0] / "evolution.json").write_text('{"norm_drift": Infinity}'),
     "strict_json:0-evolve/evolution.json"),
    ("ode-verdicts", lambda d: edit_json(d[0] / "verdict.json",
                                         set_key("verdict", value="not_essentially_self_adjoint")),
     "verdict_exp_inverse_plane"),
    ("ode-verdicts", lambda d: edit_json(d[1] / "verdict.json",
                                         set_key("total_deficiency", value="finite")),
     "verdict_exp_inverse_cylinder"),
    ("ode-verdicts", lambda d: edit_json(d[2] / "verdict.json",
                                         set_key("verdict", value="essentially_self_adjoint")),
     "verdict_alpha_0.5_numeric"),
    ("ode-verdicts", lambda d: edit_json(d[2] / "verdict.json", _flip_first_numeric_fibre),
     "numeric_agrees_with_power_law"),
    ("ode-verdicts", lambda d: edit_json(_manifest(d), _member(1, "hit_time_plus",
                                                               lambda t: t + 2e-6)),
     "hit_gap"),
    ("ode-verdicts", lambda d: edit_json(_manifest(d), _member(1, "quadrature_hit_time", None)),
     "hit_gap"),
    ("ode-verdicts", lambda d: edit_json(_manifest(d), _member(2, "energy_drift", 2e-9)),
     "energy_drift"),
    ("ode-verdicts", lambda d: edit_json(d[5] / "deficiency_family.json",
                                         set_key("max_residual", value=2e-6)),
     "deficiency_family"),
    ("ode-verdicts", lambda d: edit_json(d[5] / "deficiency_family.json",
                                         set_key("contradiction", value=True)),
     "deficiency_family"),
    ("ode-verdicts", lambda d: edit_json(d[5] / "deficiency_family.json",
                                         set_key("max_cross_inner_product", value=1e-9)),
     "deficiency_family"),
    ("ode-verdicts", lambda d: (d[4] / "manifest.json").unlink(), "hit_gap"),
]


@pytest.mark.parametrize("name,corrupt,check", CORRUPTIONS,
                         ids=[f"{n}:{c}" for n, _, c in CORRUPTIONS])
def test_check_fails_on_corrupted_output(smoke_outputs, tmp_path, name, corrupt, check):
    dirs = fresh_copy(smoke_outputs, name, tmp_path)
    corrupt(dirs)
    assert check in failing(name, dirs)


TIGHTENED = [
    ("bc-sweep", "ratio_7a", 0.0, "criterion_7a_ratio"),
    ("bc-sweep", "halving_7a", 0.0, "criterion_7a_halving"),
    ("bc-sweep", "exponent_gap_7c", 100.0, "criterion_7c_exponent_gap"),
    ("bc-sweep", "wall_mass", 0.0, "wall_mass"),
    ("bc-sweep", "norm_drift", 0.0, "norm_drift"),
    ("plane-evolve", "norm_drift", 0.0, "norm_drift"),
    ("plane-evolve", "spectrum_edge_mass", 0.0, "spectrum_edge_mass"),
    ("ode-verdicts", "hit_gap", 0.0, "hit_gap"),
    ("ode-verdicts", "energy_drift", 0.0, "energy_drift"),
    ("ode-verdicts", "residual", 0.0, "deficiency_family"),
]


@pytest.mark.parametrize("name,key,value,check", TIGHTENED,
                         ids=[f"{n}:{k}" for n, k, _, _ in TIGHTENED])
def test_check_fails_on_too_tight_tolerance(smoke_outputs, name, key, value, check):
    assert check in failing(name, smoke_outputs[name], {**TOLERANCES, key: value})


def test_outputs_differing_between_passes_fail_the_determinism_check():
    same = {"checks": [], "exit_codes": [0], "sha256": {"a": "1"}}
    other = {"checks": [], "exit_codes": [0], "sha256": {"a": "2"}}
    assert run.summarise([same, dict(same)])["checks_failed"] == 0
    assert run.summarise([same, other])["checks_failed"] == 1


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_steppers_are_keyed_by_instance_not_id():
    import numpy as np
    from grushinlab import evolution
    from grushinlab.profiles import FibrePotential, power_law

    pot = FibrePotential(xi=0.5, profile=power_law(1.0))
    grid = evolution.FibreGrid.resolved(0.1, 5.0, pot)
    tracer = Tracer()
    with tracer.installed():
        for _ in range(3):  # each stepper is freed before the next is made
            stepper = evolution.CrankNicolson(grid, pot(grid.nodes),
                                              evolution.BoundaryCondition.dirichlet(), 1e-3)
            stepper.step(np.ones(grid.n, dtype=complex))
            del stepper
    keys = {s.attrs["stepper"] for s in tracer.spans if s.name == "evolution.step"}
    assert keys == {1, 2, 3}
    assert evolution.CrankNicolson.step.__name__ == "step"
    assert not hasattr(evolution.CrankNicolson.step, "__wrapped__")
    assert tracer.metrics()["profiles.potential_calls"] == 3


def test_entry_points_are_restored():
    from grushinlab import cli, evolution, profiles

    before = (cli.main, cli.bc_sensitivity, evolution.to_original,
              profiles.FibrePotential.__call__)
    with Tracer().installed():
        assert cli.bc_sensitivity is not before[1]
    assert (cli.main, cli.bc_sensitivity, evolution.to_original,
            profiles.FibrePotential.__call__) == before


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "cli.evolve", None, 0.0, 10.0),
        Span(2, "evolution.evolve_plane", 1, 1.0, 9.0),
        Span(3, "evolution.step", 2, 2.0, 6.0, {"stepper": 1, "n": 100}),
        Span(4, "evolution.step", 2, 4.0, 8.0, {"stepper": 2, "n": 100}),
    ]
    self_times = tracer.self_times()
    assert self_times == {1: 2.0, 2: 2.0, 3: 4.0, 4: 4.0}
    metrics = tracer.metrics()
    assert metrics["cli.evolve_s"] == 10.0
    assert metrics["cli.self_s"] == 2.0
    assert metrics["evolution.self_s"] == 10.0
    assert metrics["evolution.step_ns_per_node.max"] == pytest.approx(4e7)
