import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab import cli
from grushinlab.cli import main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestClassifyCommand:
    def test_confining_plane(self, tmp_path, capsys):
        code = main(["classify", "--alpha", "1", "--mode", "plane",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "verdict.json")
        assert doc["verdict"] == "essentially_self_adjoint"
        assert doc["total_deficiency"] == "zero"
        assert doc["config"]["mode"] == "plane"
        assert "essentially_self_adjoint" in capsys.readouterr().out

    def test_subcritical_plane(self, tmp_path):
        main(["classify", "--alpha", "0.5", "--mode", "plane",
              "--output-dir", str(tmp_path)])
        doc = read_json(tmp_path / "verdict.json")
        assert doc["verdict"] == "not_essentially_self_adjoint"
        assert doc["total_deficiency"] == "infinite"
        assert doc["failing_fibres"] == "all sampled fibres"

    def test_cylinder_zero_mode(self, tmp_path):
        main(["classify", "--alpha", "-2", "--mode", "cylinder",
              "--output-dir", str(tmp_path)])
        doc = read_json(tmp_path / "verdict.json")
        assert doc["verdict"] == "not_essentially_self_adjoint"
        assert doc["failing_fibres"] == "xi in {0}"

    def test_per_fibre_table(self, tmp_path):
        main(["classify", "--alpha", "-1", "--mode", "plane", "--xi-min", "0",
              "--xi-max", "2", "--xi-step", "0.25", "--output-dir", str(tmp_path)])
        doc = read_json(tmp_path / "verdict.json")
        table = {row["xi"]: row["deficiency"] for row in doc["fibres"]}
        for xi, expected in [(0.0, 1), (0.25, 1), (0.5, 1), (0.75, 1),
                             (1.0, 0), (1.25, 0), (2.0, 0)]:
            assert table[xi] == expected

    def test_custom_profile_numeric(self, tmp_path):
        code = main(["classify", "--profile", "exp_inverse", "--mode", "cylinder",
                     "--k-max", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "verdict.json")
        assert doc["verdict"] == "essentially_self_adjoint"
        assert doc["inequality_check"]["verdict"] == "inconclusive"
        assert all(row["method"] == "numeric_ode" for row in doc["fibres"])

    def test_conflicting_profile_flags(self, tmp_path):
        code = main(["classify", "--alpha", "1", "--profile", "exp_inverse",
                     "--output-dir", str(tmp_path)])
        assert code == 2

    def test_missing_profile(self, tmp_path):
        assert main(["classify", "--output-dir", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[profile]\nkind = power_law\nalpha = 0.5\n\n"
            "[classify]\nmode = cylinder\nk-max = 2\n"
        )
        code = main(["classify", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "verdict.json")
        assert doc["mode"] == "cylinder"
        assert doc["alpha"] == 0.5
        # flag overrides the file value
        main(["classify", "--config", str(cfg), "--mode", "plane",
              "--output-dir", str(tmp_path)])
        assert read_json(tmp_path / "verdict.json")["mode"] == "plane"

    def test_missing_config_file(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "nope.ini"),
                     "--output-dir", str(tmp_path)]) == 2

    def test_deterministic_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            main(["classify", "--alpha", "-1", "--mode", "plane",
                  "--output-dir", str(d)])
        assert (d1 / "verdict.json").read_bytes() == (d2 / "verdict.json").read_bytes()

    def test_xi_grid_ends_at_xi_max(self, tmp_path):
        # 0.1 + 3 * 0.2 is 0.7000000000000001; the last node must be xi_max
        code = main(["classify", "--alpha", "1", "--xi-min", "0.1", "--xi-max", "0.7",
                     "--xi-step", "0.2", "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "verdict.json")
        xis = [row["xi"] for row in doc["fibres"]]
        assert len(xis) == 4 and xis[0] == 0.1 and xis[-1] == 0.7
        assert doc["config"]["grid"]["xi_max"] == 0.7

    def test_inconclusive_exit_code(self, tmp_path, monkeypatch):
        from grushinlab import cli
        from grushinlab.errors import InconclusiveClassification

        def boom(*a, **k):
            raise InconclusiveClassification("routes disagree")

        monkeypatch.setattr(cli, "classify_sweep", boom)
        assert main(["classify", "--alpha", "1", "--output-dir", str(tmp_path)]) == 4


# classify options: two values a flag or the config file may give, and the
# default (None: the option is required)
MERGED_OPTIONS = {
    "alpha": (["0.5", "1.5"], None),
    "mode": (["plane", "cylinder"], "plane"),
    "method": (["auto", "analytic"], "auto"),
    "xi-min": (["-1", "-0.5"], -5.0),
    "xi-max": (["0.5", "1"], 5.0),
    "xi-step": (["0.25", "0.5"], 0.25),
    "k-max": (["1", "2"], 5),
}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_config_merge_prefers_flag_then_file_then_default(data):
    flags, keys, expected = [], [], {}
    for name, (values, default) in MERGED_OPTIONS.items():
        sources = ["flag", "file", "both"] + (["neither"] if default is not None else [])
        source = data.draw(st.sampled_from(sources), label=name)
        flag_value, file_value = data.draw(st.permutations(values), label=f"{name} values")
        if source in ("flag", "both"):
            flags += [f"--{name}", flag_value]
        if source in ("file", "both"):
            keys.append(f"{name} = {file_value}")
        expected[name] = {"flag": flag_value, "both": flag_value, "file": file_value}.get(
            source, default)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text("[classify]\n" + "\n".join(keys) + "\n")
        assert main(["classify", *flags, "--config", str(cfg), "--output-dir", tmp]) == 0
        config = read_json(Path(tmp) / "verdict.json")["config"]
    recorded = {"alpha": config["alpha"], "mode": config["mode"], "method": config["method"],
                **{k.replace("_", "-"): v for k, v in config["grid"].items() if k != "kind"}}
    # the grid records the xi range on the plane and k-max on the cylinder
    assert set(recorded) == {"alpha", "mode", "method"} | (
        {"k-max"} if recorded["mode"] == "cylinder" else {"xi-min", "xi-max", "xi-step"})
    for name, value in recorded.items():
        want = expected[name]
        assert value == (want if name in ("mode", "method") else float(want)), name


class TestGeodesicsCommand:
    def test_fan_manifest(self, tmp_path):
        code = main(["geodesics", "--alpha", "1", "--angles", "8",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert len(manifest["trajectories"]) == 8
        hits = [t["hit_time_plus"] for t in manifest["trajectories"]]
        assert sum(h is None for h in hits) == 1
        csvs = list(tmp_path.glob("geodesic_alpha1_theta*.csv"))
        assert len(csvs) == 8

    def test_single_angle_hit_time(self, tmp_path):
        main(["geodesics", "--alpha", "1", "--theta", "3.14159",
              "--output-dir", str(tmp_path)])
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["trajectories"][0]["hit_time_plus"] == pytest.approx(1.0, abs=1e-4)

    def test_quadrature_recorded(self, tmp_path):
        main(["geodesics", "--alpha", "0.5", "--angles", "4",
              "--output-dir", str(tmp_path)])
        manifest = read_json(tmp_path / "manifest.json")
        vertical = [t for t in manifest["trajectories"]
                    if abs(t["theta"] - 1.5707963267948966) < 1e-12][0]
        assert vertical["meta"]["quadrature_hit_time"] == pytest.approx(2.0, abs=1e-8)

    def test_requires_alpha(self, tmp_path):
        assert main(["geodesics", "--output-dir", str(tmp_path)]) == 2

    def test_writers(self, tmp_path):
        fan = cli.geodesic_fan(1.0, 4)
        manifest_path = cli.write_fan(fan, tmp_path, {"alpha": 1.0, "angles": 4})
        manifest = json.loads(open(manifest_path).read())
        assert len(manifest["trajectories"]) == 4
        entry = manifest["trajectories"][1]
        lines = (tmp_path / entry["file"]).read_text().splitlines()
        # the config line of every CSV: the run config and the trajectory's summary
        assert lines[0].startswith("# config: ")
        header = json.loads(lines[0][len("# config: "):])
        assert header["angles"] == 4
        assert header["theta"] == entry["theta"] == fan[1].init.theta
        assert lines[1] == "t,x,y,P_x,P_y"
        assert len(lines) == fan[1].t.size + 2

    def test_non_finite_manifest_not_written(self, tmp_path):
        fan = cli.geodesic_fan(1.0, 2)
        fan[0].meta["quadrature_hit_time"] = math.inf
        with pytest.raises(cli.NumericError):
            cli.write_fan(fan, tmp_path, {"alpha": 1.0})
        assert not any(tmp_path.iterdir())


class TestEvolveCommand:
    def test_sensitivity_outputs(self, tmp_path):
        code = main(["evolve", "--protocol", "sensitivity", "--alpha", "1.5",
                     "--xi", "0.5", "--t-final", "0.5",
                     "--eps-grid", "1e-1,3e-2", "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "bc_sensitivity.json")
        assert doc["trend"] == "decreasing"
        # each row records the graded grid it ran on
        assert [set(row) for row in doc["rows"]] == [
            {"eps", "D", "n", "h_min", "h_max", "resolution_margin"}] * 2
        first, last = doc["rows"]
        assert last["n"] > first["n"] >= 100
        assert last["h_min"] < first["h_min"] <= first["h_max"] <= doc["config"]["spacing_cap"]
        assert 0.0 < last["resolution_margin"] <= doc["config"]["resolution"]
        lines = (tmp_path / "bc_sensitivity.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "eps,D,wall_mass"
        assert len(lines) == 4

    def test_plane_outputs(self, tmp_path):
        code = main(["evolve", "--protocol", "plane", "--alpha", "1",
                     "--t-final", "0.2", "--eps", "0.05", "--ny", "17",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "evolution.json")
        assert doc["norm_drift"] <= 1e-6
        # the shared grid, its resolution margin taken against the edge fibre
        grid = doc["grid"]
        assert set(grid) == {"n", "h_min", "h_max", "resolution_margin"}
        assert grid["n"] == doc["config"]["n_x"]
        assert 0.0 < grid["h_min"] < grid["h_max"] <= 0.01
        assert 0.0 < grid["resolution_margin"] <= 0.5
        assert (tmp_path / "fibre_norms.csv").exists()
        assert (tmp_path / "density.csv").exists()

    def test_raster_output(self, tmp_path):
        main(["evolve", "--protocol", "cylinder", "--alpha", "0.5",
              "--t-final", "0.1", "--eps", "0.05", "--ny", "7", "--raster",
              "--output-dir", str(tmp_path)])
        header = read_json(tmp_path / "density.json")
        data = np.fromfile(tmp_path / "density.f32", dtype=np.float32)
        assert data.size == header["shape"][0] * header["shape"][1]
        x = np.array(header["x"])
        assert len(x) == header["shape"][0] == header["config"]["n_x"]
        assert np.all(np.diff(x) > 0.0) and 0.05 < x[0] < x[-1] < header["config"]["outer_wall"]

    def test_raster_from_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[evolve]\nraster = true\n")
        assert main(["evolve", "--protocol", "cylinder", "--alpha", "0.5", "--t-final", "0.1",
                     "--eps", "0.05", "--ny", "7", "--config", str(cfg),
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "density.f32").exists()
        assert not (tmp_path / "density.csv").exists()

    def test_unknown_protocol(self, tmp_path):
        assert main(["evolve", "--protocol", "sensitivity", "--output-dir",
                     str(tmp_path)]) == 2

    def test_even_ny_rejected(self, tmp_path):
        assert main(["evolve", "--protocol", "plane", "--alpha", "1",
                     "--ny", "16", "--output-dir", str(tmp_path)]) == 2

    def test_jobs_do_not_change_outputs(self, tmp_path):
        outputs = {}
        for jobs in ("1", "3"):
            d = tmp_path / f"jobs{jobs}"
            code = main(["evolve", "--protocol", "plane", "--alpha", "1",
                         "--t-final", "0.05", "--eps", "0.05", "--ny", "7",
                         "--jobs", jobs, "--output-dir", str(d)])
            assert code == 0
            outputs[jobs] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        assert set(outputs["1"]) == {"density.csv", "evolution.json",
                                     "fibre_norms.csv", "norm_trace.csv"}
        assert outputs["1"] == outputs["3"]

    def test_plane_wall_check(self, tmp_path):
        argv = ["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.1",
                "--eps", "0.05", "--ny", "7"]
        assert main(argv + ["--output-dir", str(tmp_path / "ok")]) == 0
        doc = read_json(tmp_path / "ok" / "evolution.json")
        assert 0.0 < doc["wall_mass"] <= 1e-8
        # the spreading xi = 0 fibre reaches a wall at x = 4 by t = 0.1
        bad = tmp_path / "bad"
        assert main(argv + ["--outer-wall", "4", "--output-dir", str(bad)]) == 3
        assert not bad.exists() or not any(bad.iterdir())


def _per_row_csv(path, header_cols, columns, config):
    """The per-row formatter that the block writer replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True, default=cli._jsonable) + "\n")
        fh.write(",".join(header_cols) + "\n")
        for row in zip(*[[float(v) for v in c] for c in columns]):
            fh.write(",".join(f"{v:.16e}" for v in row) + "\n")


def test_csv_writer_matches_per_row_formatter(tmp_path, monkeypatch):
    calls = []
    block_writer = cli._write_csv

    def recording(path, header_cols, columns, config):
        calls.append((path, header_cols, columns, config))
        return block_writer(path, header_cols, columns, config)

    monkeypatch.setattr(cli, "_write_csv", recording)
    out = tmp_path / "out"
    assert main(["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.05",
                 "--eps", "0.05", "--ny", "7", "--output-dir", str(out)]) == 0
    assert main(["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--t-final", "0.1",
                 "--eps-grid", "1e-1,3e-2", "--output-dir", str(out)]) == 0
    names = {path.rsplit("/", 1)[-1] for path, *_ in calls}
    assert names == {"density.csv", "fibre_norms.csv", "norm_trace.csv", "bc_sensitivity.csv"}
    # density.csv spans many blocks and ends in a partial one
    (density_rows,) = {len(columns[0]) for path, _, columns, _ in calls
                       if path.endswith("density.csv")}
    assert density_rows > cli.CSV_BLOCK_ROWS and density_rows % cli.CSV_BLOCK_ROWS
    for path, header_cols, columns, config in calls:
        reference = tmp_path / "reference.csv"
        _per_row_csv(reference, header_cols, columns, config)
        assert open(path, "rb").read() == reference.read_bytes(), path


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_every_json_output_is_strict(tmp_path):
    runs = {
        "classify": ["classify", "--alpha", "0.5", "--method", "numeric",
                     "--xi-min", "-1", "--xi-max", "1", "--xi-step", "0.5"],
        "geodesics": ["geodesics", "--alpha", "1", "--angles", "4"],
        "sensitivity": ["evolve", "--protocol", "sensitivity", "--alpha", "1.5",
                        "--t-final", "0.1", "--eps-grid", "1e-1,3e-2"],
        "plane": ["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.05",
                  "--eps", "0.05", "--ny", "7"],
        "raster": ["evolve", "--protocol", "cylinder", "--alpha", "0.5", "--t-final", "0.05",
                   "--eps", "0.05", "--ny", "7", "--raster"],
        "deficiency": ["verify-deficiency", "--alpha", "0.5", "--interval", "0,1",
                       "--other-interval", "2,3", "--samples", "8"],
    }
    parsed = []
    for name, argv in runs.items():
        assert main(argv + ["--output-dir", str(tmp_path / name)]) == 0, name
        for path in sorted((tmp_path / name).glob("*.json")):
            json.loads(path.read_text(), parse_constant=_reject_constant)
            parsed.append(f"{name}/{path.name}")
    assert parsed == ["classify/verdict.json", "geodesics/manifest.json",
                      "sensitivity/bc_sensitivity.json", "plane/evolution.json",
                      "raster/density.json", "raster/evolution.json",
                      "deficiency/deficiency_family.json"]


def test_non_finite_output_exits_3_and_writes_nothing(tmp_path, capsys):
    with pytest.raises(cli.NumericError):
        cli._write_json(tmp_path / "x.json", {"value": float("inf")})
    assert not (tmp_path / "x.json").exists()
    # no step taken: D is 0 at every cutoff, so D(eps_end)/D(eps_start) is NaN
    out = tmp_path / "out"
    assert main(["evolve", "--protocol", "sensitivity", "--alpha", "1", "--t-final", "0",
                 "--eps-grid", "1e-1,3e-2", "--output-dir", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not any(out.iterdir())


class TestVerifyDeficiencyCommand:
    def test_report(self, tmp_path):
        code = main(["verify-deficiency", "--alpha", "0.5", "--interval", "0,1",
                     "--other-interval", "2,3", "--samples", "8",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "deficiency_family.json")
        assert doc["max_residual"] <= 1e-6
        assert doc["max_cross_inner_product"] <= 1e-10
        assert doc["contradiction"] is False

    def test_alpha_precondition(self, tmp_path):
        assert main(["verify-deficiency", "--alpha", "1.5",
                     "--output-dir", str(tmp_path)]) == 2


SENSITIVITY_RUN = ["evolve", "--protocol", "sensitivity", "--alpha", "1.5",
                   "--eps-grid", "1e-1,1e-2", "--t-final", "0.1"]
PLANE_RUN = ["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.02", "--ny", "7"]


@pytest.mark.parametrize("argv, ini", [
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--dt", "abc"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--jobs", "two"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--jobs", "0"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--jobs", "2"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.5", "--dt", "0.3"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--refine", "1.5"], None),
    (["geodesics", "--alpha", "1", "--tol", "nan"], None),
    (["classify", "--alpha", "1", "--xi-step", "0"], None),
    (["classify", "--alpha", "1"], "[classify]\nxi-max = five\n"),
    (["classify"], "[profile]\nkind = power_law\nalpha = 0.5\n\n"
                   "[classify]\nmode = cylinder\nk-max = 2.5\n"),
    (["verify-deficiency", "--alpha", "0.5"], "[verify-deficiency]\nsamples = many\n"),
    (["classify", "--alpha", "1", "--xi-min", "0", "--xi-max", "1", "--xi-step", "0.3"], None),
    (["classify"], "[profile]\nkind = power_law\nalpha = 0.5\n\n"
                   "[classify]\nmode = cylinder\nkmax = 2\n"),
    (["classify", "--alpha", "1"], "[classify]\njobs = 4\n"),
    (["evolve", "--protocol", "cylinder", "--alpha", "1"], "[evolve]\nraster = maybe\n"),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--ny", "1"], None),
    (["evolve", "--protocol", "cylinder", "--alpha", "1", "--ny", "1"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--y-span", "0"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--sigma-xi", "0"], None),
    (["geodesics", "--alpha", "1", "--x0", "-1"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--eps", "0"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--outer-wall", "-1"], None),
    # the standard data (centre 2, width 0.3) needs eps < 0.8
    (["evolve", "--protocol", "plane", "--alpha", "1", "--eps", "1.0"], None),
    (["evolve", "--protocol", "cylinder", "--alpha", "1", "--eps", "1.0"], None),
    # [profile] keys the chosen kind does not read, and the deleted builtin
    (["classify"], "[profile]\nkind = power_law\nalpha = 1\nscal = 2\n"),
    (["classify"], "[profile]\nkind = custom\nname = exp_inverse\nfoo = 1\n"),
    (["classify"], "[profile]\nkind = custom\nname = scaled_power_law\nalpha = 1\nbeta = 3\n"),
    (["classify"], "[profile]\nkind = custom\nname = scaled_power_law\n"),
    # options the evolve protocol does not read, as flags or [evolve] keys
    *(([*SENSITIVITY_RUN, *extra], None) for extra in (
        ["--ny", "8"], ["--bc", "robin"], ["--eps", "0.5"], ["--raster"], ["--sigma-xi", "-3"])),
    *(([*PLANE_RUN, *extra], None) for extra in (
        ["--xi", "3"], ["--eps-grid", "5"], ["--refine", "0"], ["--beta", "2"])),
    (PLANE_RUN, "[evolve]\nxi = 3\n"),
    (SENSITIVITY_RUN, "[evolve]\njobs = 2\n"),
    (["geodesics", "--alpha", "1", "--theta", "0.3", "--angles", "0"], None),
    # --other-interval must be bounded, ordered and disjoint from --interval
    *((["verify-deficiency", "--alpha", "0.5", "--samples", "8", "--other-interval", other],
       None) for other in ("3,2", "0.5,2", "nan,1", "inf,5")),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, ini):
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_import_leaves_out_scipy_integrate():
    # only the ODE and quadrature routes need scipy.integrate; evolve and
    # analytic classify runs must not pay for importing it
    code = "import sys, grushinlab.cli; print('scipy.integrate' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
