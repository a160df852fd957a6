import json

import pytest

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

    def test_inconclusive_exit_code(self, tmp_path, monkeypatch):
        from grushinlab import cli
        from grushinlab.errors import InconclusiveClassification

        def boom(*a, **k):
            raise InconclusiveClassification("routes disagree")

        monkeypatch.setattr(cli, "classify_sweep", boom)
        assert main(["classify", "--alpha", "1", "--output-dir", str(tmp_path)]) == 4


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


class TestEvolveCommand:
    def test_sensitivity_outputs(self, tmp_path):
        code = main(["evolve", "--protocol", "sensitivity", "--alpha", "1.5",
                     "--xi", "0.5", "--t-final", "0.5",
                     "--eps-grid", "1e-1,3e-2", "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "bc_sensitivity.json")
        assert doc["trend"] == "decreasing"
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
        assert (tmp_path / "fibre_norms.csv").exists()
        assert (tmp_path / "density.csv").exists()

    def test_raster_output(self, tmp_path):
        import numpy as np

        main(["evolve", "--protocol", "cylinder", "--alpha", "0.5",
              "--t-final", "0.1", "--eps", "0.05", "--ny", "7", "--raster",
              "--output-dir", str(tmp_path)])
        header = read_json(tmp_path / "density.json")
        data = np.fromfile(tmp_path / "density.f32", dtype=np.float32)
        assert data.size == header["shape"][0] * header["shape"][1]

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
])
def test_bad_input_exits_2(tmp_path, capsys, argv, ini):
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err

