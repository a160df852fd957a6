import configparser
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab import cli
from grushinlab.cli import main
from grushinlab.errors import (
    GrushinError,
    InconclusiveClassification,
    NumericError,
    UsageError,
)
from grushinlab.evolution import (
    SPACING_CAP,
    BoundaryCondition,
    evolve_plane,
    standard_plane_data,
    to_original,
)
from grushinlab.geodesics import GeodesicInitialData, geodesic_fan, integrate_geodesic
from grushinlab.profiles import power_law


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
        # f = x^2 falls below kappa = 1 near 0: the inequality route
        # records the violation instead of comparing
        assert doc["inequality_check"] == {"verdict": "skipped",
                                           "violations": {"(ii) lower bound near 0": 1e-4}}

    def test_per_fibre_table(self, tmp_path):
        main(["classify", "--alpha", "-1", "--mode", "plane", "--xi-min", "0",
              "--xi-max", "2", "--xi-step", "0.25", "--output-dir", str(tmp_path)])
        doc = read_json(tmp_path / "verdict.json")
        table = {row["xi"]: row["deficiency"] for row in doc["fibres"]}
        for xi, expected in [(0.0, 1), (0.25, 1), (0.5, 1), (0.75, 1),
                             (1.0, 0), (1.25, 0), (2.0, 0)]:
            assert table[xi] == expected

    def test_numeric_rows_carry_their_diagnostics(self, tmp_path):
        # the ode-verdicts line of exp_inverse fibres, whose c0 diverges, and
        # a numeric power law: strict JSON, each numeric row with both
        # routes' numbers; analytic rows carry none
        base = {"xi", "endpoint_zero", "endpoint_infinity", "deficiency", "method"}
        diagnostics = {"c0", "c0_diverges", "c0_fit_error", "indicial_slope",
                       "early_limit_point", "x_end"}

        def strict(constant):
            raise AssertionError(f"{constant} in verdict.json")

        def rows(name, argv):
            assert main([*argv, "--output-dir", str(tmp_path / name)]) == 0
            text = (tmp_path / name / "verdict.json").read_text()
            return json.loads(text, parse_constant=strict)["fibres"]

        xi = ["--xi-min", "-4.75", "--xi-max", "5.25", "--xi-step", "0.25"]
        diverging = rows("exp", ["classify", "--profile", "exp_inverse", *xi])
        assert len(diverging) == 41
        for row in diverging:
            assert set(row) == base | diagnostics and row["method"] == "numeric_ode"
            assert row["c0"] is None and row["c0_diverges"] is True
            assert row["early_limit_point"] is True and row["x_end"] == 1e-7
        for row in rows("numeric", ["classify", "--alpha", "0.5", "--method", "numeric", *xi]):
            assert set(row) == base | diagnostics and row["c0_diverges"] is False
            # c0 = alpha (alpha + 2)/4 + xi^2 lim x^2 / f^2, which is 0
            assert row["c0"] == pytest.approx(0.3125, abs=1e-6)
            assert row["c0_fit_error"] < 1e-3 and row["indicial_slope"] < 0.0
        for row in rows("analytic", ["classify", "--alpha", "0.5"]):
            assert set(row) == base and row["method"] == "analytic_power_law"

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
        # one file may hold a section for every command
        cfg.write_text(
            "[classify]\nalpha = 0.5\nmode = cylinder\nk-max = 2\n\n"
            "[geodesics]\nangles = 4\n\n[evolve]\nprotocol = plane\n\n"
            "[verify-deficiency]\nsamples = 8\n"
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

    def test_config_file_without_a_classify_section(self, tmp_path):
        # a file for another command leaves every classify option at its
        # default
        cfg = tmp_path / "run.ini"
        cfg.write_text("[geodesics]\nangles = 4\n")
        assert main(["classify", "--alpha", "1", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "file")]) == 0
        assert main(["classify", "--alpha", "1", "--output-dir", str(tmp_path / "flags")]) == 0
        assert ((tmp_path / "file" / "verdict.json").read_bytes()
                == (tmp_path / "flags" / "verdict.json").read_bytes())

    def test_missing_config_file(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "nope.ini"),
                     "--output-dir", str(tmp_path)]) == 2

    def test_deterministic_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            main(["classify", "--alpha", "-1", "--mode", "plane",
                  "--output-dir", str(d)])
        assert (d1 / "verdict.json").read_bytes() == (d2 / "verdict.json").read_bytes()

    def test_numeric_sweep_records_its_solve(self, tmp_path, monkeypatch):
        # a one-fibre sweep: work counts the right-hand-side calls of the
        # one solve, as it runs, and DOP853's 12 stages per accepted step;
        # the record is deterministic and analytic sweeps have none
        from grushinlab import weyl

        calls = []

        def counted(*args):
            calls.append(1)
            return rhs(*args)

        rhs = weyl._gauged_rhs
        monkeypatch.setattr(weyl, "_gauged_rhs", counted)
        argv = ["classify", "--profile", "exp_inverse", "--xi-min", "0", "--xi-max", "0"]
        for name in ("a", "b"):
            assert main([*argv, "--output-dir", str(tmp_path / name)]) == 0
        doc = read_json(tmp_path / "a" / "verdict.json")
        assert len(doc["fibres"]) == 1 and set(doc["work"]) == {"nfev", "steps"}
        assert 2 * doc["work"]["nfev"] == len(calls)  # the calls of both runs
        assert 0 < 12 * doc["work"]["steps"] <= doc["work"]["nfev"]
        assert (tmp_path / "a" / "verdict.json").read_bytes() == \
            (tmp_path / "b" / "verdict.json").read_bytes()
        main(["classify", "--alpha", "0.5", "--output-dir", str(tmp_path / "analytic")])
        assert "work" not in read_json(tmp_path / "analytic" / "verdict.json")

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
# the mode that reads each mode-specific option
MODE_OPTIONS = {"xi-min": "plane", "xi-max": "plane", "xi-step": "plane", "k-max": "cylinder"}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_config_merge_prefers_flag_then_file_then_default(data):
    flags, keys, expected = [], [], {}
    for name, (values, default) in MERGED_OPTIONS.items():
        sources = ["flag", "file", "both"] + (["neither"] if default is not None else [])
        if name in MODE_OPTIONS and expected["mode"] != MODE_OPTIONS[name]:
            # the other mode's options are usage errors as flags, but a
            # [classify] section may hold both modes' keys
            sources = ["file", "neither"]
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
    def test_fan_manifest(self, tmp_path, capsys):
        code = main(["geodesics", "--alpha", "1", "--angles", "8",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert len(manifest["trajectories"]) == 8
        hits = [t["hit_time_plus"] for t in manifest["trajectories"]]
        assert sum(h is None for h in hits) == 1
        # one file per launch-class half: n/2 + 1 for even n, all from one
        # reference orbit but the two lines
        csvs = list(tmp_path.glob("geodesic_half*.csv"))
        assert len(csvs) == 5 == manifest["config"]["halves"]
        assert manifest["config"]["reference"]["nfev"] > 0
        assert ("8 trajectories from 5 halves and 1 reference solve, 7 forward boundary hits"
                in capsys.readouterr().out)

    def test_failed_solve_exits_3_naming_its_angle(self, tmp_path, capsys):
        # a real failure: at x0 = 1e-300, P_y^2 = 7e299 is a float, but the
        # solver finds no step, and says so without a numpy warning
        out = tmp_path / "out"
        assert main(["geodesics", "--alpha", "0.5", "--theta", "1", "--x0", "1e-300",
                     "--output-dir", str(out)]) == 3
        assert "theta=1:" in capsys.readouterr().err
        assert not out.exists()

    def test_single_angle_round_trip(self, tmp_path, capsys):
        # --theta writes like a fan of one angle: its two direct solves and
        # the manifest
        assert main(["geodesics", "--alpha", "1", "--theta", "0.5", "--y0", "-0.75",
                     "--t-max", "5", "--output-dir", str(tmp_path)]) == 0
        assert "1 trajectories from 2 halves and 0 reference solves" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "geodesic_half000.csv", "geodesic_half001.csv", "manifest.json"]
        manifest = read_json(tmp_path / "manifest.json")
        config = manifest["config"]
        assert config["theta"] == 0.5 and config["halves"] == 2 and config["reference"] is None
        (entry,) = manifest["trajectories"]
        assert entry["forward"] == {"file": "geodesic_half000.csv", "y_sign": 1.0}
        assert entry["backward"] == {"file": "geodesic_half001.csv", "y_sign": 1.0}
        init = GeodesicInitialData(x0=1.0, y0=-0.75, theta=0.5, alpha=1.0)
        traj = integrate_geodesic(init, (-5.0, 5.0))

        def rebuilt_exactly():
            return all(np.array_equal(got, want) for got, want in
                       zip(_rebuild(tmp_path, entry), (traj.t, traj.x, traj.y, traj.px)))

        assert rebuilt_exactly()
        # the backward solve read without its time reversal, or with its y
        # mirrored, is another trajectory
        entry["backward"]["y_sign"] = -1.0
        assert not rebuilt_exactly()
        entry["backward"]["y_sign"] = 1.0
        path = tmp_path / "geodesic_half001.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + lines[:1:-1]))
        assert not rebuilt_exactly()

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

    @pytest.mark.parametrize("alpha", ["0.5", "-1"])
    def test_manifest_records_solver_work(self, tmp_path, alpha):
        assert main(["geodesics", "--alpha", alpha, "--angles", "7", "--t-max", "5",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "manifest.json")
        for entry in manifest["trajectories"]:
            meta = entry["meta"]
            # theta = 0 runs on two lines, pi and 0 (P_y = 0), which take no
            # solve; every other half comes from the reference solve
            nfev = 0 if entry["theta"] == 0.0 else manifest["config"]["reference"]["nfev"]
            for key in ("nfev_forward", "nfev_backward"):
                assert isinstance(meta[key], int) and meta[key] == nfev, (entry["theta"], key)
            assert nfev > 0 or entry["P_y"] == 0.0
            if alpha == "-1":  # no quadrature applies
                assert "quadrature_hit_time" not in meta and "quadrature_error" not in meta
                continue
            assert "quadrature_error" not in meta, entry["theta"]
            hit = meta["quadrature_hit_time"]
            if entry["theta"] == 0.0:  # the one launch with no forward hit
                assert hit is None
            else:
                assert isinstance(hit, float) and math.isfinite(hit), entry["theta"]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        # 6 angles share 4 halves, one angle makes 2; one file each, and the
        # manifest
        for launch, files in ((["--angles", "6"], 5), (["--theta", "2"], 3)):
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / launch[0][2:] / run
                assert main(["geodesics", "--alpha", "0.5", *launch, "--y0", "0.25",
                             "--output-dir", str(out)]) == 0
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert len(outputs[0]) == files and outputs[0] == outputs[1], launch

    @pytest.mark.parametrize("launch", [["--angles", "2"], ["--theta", "0"]], ids=["fan", "theta"])
    def test_lines_do_not_overflow(self, tmp_path, launch):
        # P_y = 0: the straight line x = x0 + P_x t, which never forms
        # x^(2 alpha) = 10.5^2000
        assert main(["geodesics", "--alpha", "1000", "--x0", "0.5", *launch,
                     "--output-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert all(t["energy_drift"] == 0.0 for t in manifest["trajectories"])
        entry = manifest["trajectories"][0]  # theta = 0, which reaches x = 0 backward
        t, x, y, px = _rebuild(tmp_path, entry)
        assert np.array_equal(x, 0.5 + t) and np.all(y == 0.0) and np.all(px == 1.0)
        assert t[-1] == 10.0 and entry["hit_time_minus"] == -0.5

    def test_large_alpha_reference_stays_finite(self, tmp_path):
        # trial stages of the reference solve past its turning point R = 1
        # would form R^2000; any warning fails the run
        assert main(["geodesics", "--alpha", "1000", "--angles", "8",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "manifest.json")
        for entry in manifest["trajectories"][1:]:  # theta = 0 has no forward hit
            gap = entry["hit_time_plus"] - entry["meta"]["quadrature_hit_time"]
            assert abs(gap) <= 1e-12 and entry["energy_drift"] <= 1e-12, entry["theta"]

    def test_small_alpha_fan_matches_the_formula(self, tmp_path):
        # small alpha: every hit time within 1e-8 of the formula, and no
        # warning from either route (the suite turns any into an error)
        assert main(["geodesics", "--alpha", "0.01", "--angles", "16",
                     "--output-dir", str(tmp_path)]) == 0
        gaps = [abs(entry["hit_time_plus"] - entry["meta"]["quadrature_hit_time"])
                for entry in read_json(tmp_path / "manifest.json")["trajectories"]
                if entry["hit_time_plus"] is not None]
        assert gaps and max(gaps) <= 1e-8

    def test_requires_alpha(self, tmp_path):
        assert main(["geodesics", "--output-dir", str(tmp_path)]) == 2

    def test_writers(self, tmp_path):
        fan = cli.geodesic_fan(1.0, 4)
        manifest_path, halves, references = cli.write_fan(fan, tmp_path,
                                                           {"alpha": 1.0, "angles": 4})
        manifest = read_json(manifest_path)
        assert (halves, references) == (3, 1)
        assert len(manifest["trajectories"]) == 4
        entry = manifest["trajectories"][1]
        assert entry["theta"] == fan[1].init.theta
        # P_y is a constant of motion: stored once, in the summary
        assert entry["P_y"] == fan[1].init.momenta[1]
        # angle pi/2 runs forward on the launch pi/2 and backward on the
        # launch 3 pi/2, which is pi/2 mirrored in y
        forward, backward = entry["forward"], entry["backward"]
        assert forward["y_sign"] == 1.0 and backward["y_sign"] == -1.0
        assert forward["file"] == backward["file"]
        lines = (tmp_path / forward["file"]).read_text().splitlines()
        # the config line of every half file: the run config, the half's
        # launch and its source, here the reference orbit undilated (x_t = 1)
        # from its turning point
        assert lines[0].startswith("# config: ")
        header = json.loads(lines[0][len("# config: "):])
        half = fan[1].forward[0]
        assert header["angles"] == 4 and header["halves"] == 3
        assert header["reference"] == manifest["config"]["reference"] == half.reference
        assert header["theta"] == math.pi / 2 and header["t_end"] == 10.0
        assert (header["P_x"], header["P_y"]) == (0.0, 1.0)
        assert header["hit_time"] == entry["hit_time_plus"] == half.hit
        assert header["source"] == {"x_t": 1.0, "phase": half.source["phase"]}
        assert entry["meta"]["nfev_forward"] == half.nfev == half.reference["nfev"]
        # the two lines, 0 and pi
        assert [json.loads((tmp_path / name).read_text().splitlines()[0][10:])["source"]
                for name in (manifest["trajectories"][0]["forward"]["file"],
                             manifest["trajectories"][0]["backward"]["file"])] == ["line"] * 2
        assert lines[1] == "t,x,P_x,dy"
        assert len(lines) == half.t.size + 2

    def test_non_finite_manifest_not_written(self, tmp_path):
        fan = cli.geodesic_fan(1.0, 2)
        fan[0].meta["quadrature_hit_time"] = math.inf
        with pytest.raises(cli.NumericError):
            cli.write_fan(fan, tmp_path, {"alpha": 1.0})
        assert not any(tmp_path.iterdir())
        # a value that only a half file's header holds
        fan = cli.geodesic_fan(1.0, 2)
        half, y_sign = fan[1].forward
        fan[1] = dataclasses.replace(
            fan[1], forward=(dataclasses.replace(half, px=math.inf), y_sign))
        with pytest.raises(cli.NumericError):
            cli.write_fan(fan, tmp_path, {"alpha": 1.0})
        assert not any(tmp_path.iterdir())


def _rebuild(directory, entry):
    """(t, x, y, P_x) of one manifest entry from its two half files."""
    parts = []
    for key in ("backward", "forward"):
        source = entry[key]
        if source is None:
            continue
        t, x, px, dy = np.loadtxt(directory / source["file"], delimiter=",", skiprows=2,
                                  unpack=True)
        s, y0 = source["y_sign"], entry["y0"]
        if key == "forward":
            parts.append((t, x, y0 + s * dy, px))
        else:
            parts.append((-t[:0:-1], x[:0:-1], y0 + s * dy[:0:-1], -px[:0:-1]))
    return [np.concatenate(column) for column in zip(*parts)]


def _check_round_trip(directory, fan, t_span):
    """Every trajectory rebuilt from the files equals the fan's in-memory
    one bit for bit, and a solve of its own within the tolerances of
    test_geodesics.TestSharedSolves."""
    entries = read_json(directory / "manifest.json")["trajectories"]
    assert len(entries) == len(fan)
    for entry, traj in zip(entries, fan):
        assert entry["theta"] == traj.init.theta
        t, x, y, px = _rebuild(directory, entry)
        for got, want in ((t, traj.t), (x, traj.x), (y, traj.y), (px, traj.px)):
            assert np.array_equal(got, want), traj.init.theta
        alone = integrate_geodesic(traj.init, t_span)
        assert t.shape == alone.t.shape
        assert np.max(np.abs(t - alone.t)) <= 1e-11, traj.init.theta
        for got, want in ((x, alone.x), (y, alone.y), (px, alone.px)):
            assert np.max(np.abs(got - want)) <= 1e-8, traj.init.theta


FAN_LAUNCH = {"x0": 1.3, "y0": -0.75}


@pytest.mark.parametrize("t_span", [(-10.0, 10.0), (-3.0, 7.0)])
@pytest.mark.parametrize("n", [8, 7])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_fan_round_trip(tmp_path, alpha, n, t_span):
    fan = cli.geodesic_fan(alpha, n, t_span, **FAN_LAUNCH)
    cli.write_fan(fan, tmp_path, {"alpha": alpha})
    _check_round_trip(tmp_path, fan, t_span)


def test_fan_round_trip_catches_a_flipped_mirror_sign(tmp_path):
    t_span = (-3.0, 7.0)
    fan = cli.geodesic_fan(1.0, 8, t_span, **FAN_LAUNCH)
    cli.write_fan(fan, tmp_path, {"alpha": 1.0})
    _check_round_trip(tmp_path, fan, t_span)
    path = tmp_path / "manifest.json"
    manifest = read_json(path)
    entry = next(e for e in manifest["trajectories"] if e["P_y"] != 0.0)
    entry["backward"]["y_sign"] *= -1
    path.write_text(json.dumps(manifest))
    with pytest.raises(AssertionError):
        _check_round_trip(tmp_path, fan, t_span)


def _readme_recipes(language):
    """The fenced ``language`` blocks of the README, dedented, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(rf"^( *)```{language}\n(.*?)^\1```$", text, flags=re.M | re.S)
    return [textwrap.dedent(body) for _, body in blocks]


def test_readme_config_example_runs(tmp_path):
    (ini,) = _readme_recipes("ini")
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert main(["classify", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
    parser = configparser.ConfigParser()
    parser.read_string(ini)
    doc = read_json(tmp_path / "verdict.json")
    assert doc["mode"] == parser["classify"]["mode"]
    assert doc["alpha"] == float(parser["classify"]["alpha"])


def test_readme_usage_commands_run(tmp_path, monkeypatch):
    # every command of the usage block under "Command line", as written,
    # in a directory of its own
    (usage,) = [body for body in _readme_recipes("") if body.startswith("# essential")]
    commands = [shlex.split(line) for line in usage.replace("\\\n", " ").splitlines()
                if line.startswith("grushinlab ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command[1:]) == 0, command


def test_readme_recipes_rebuild_the_outputs(tmp_path, monkeypatch):
    trajectory, density = _readme_recipes("python")

    def run(recipe, directory):
        namespace = {}
        monkeypatch.chdir(directory)
        exec(recipe, namespace)
        return namespace

    # the trajectory recipe, as written on a fan, and for entry 0 of a --theta run
    assert main(["geodesics", "--alpha", "1", "--angles", "8", "--y0", "-0.75",
                 "--output-dir", str(tmp_path / "fan")]) == 0
    assert main(["geodesics", "--alpha", "1", "--theta", "0.5", "--y0", "-0.75",
                 "--output-dir", str(tmp_path / "theta")]) == 0
    assert '["trajectories"][1]' in trajectory
    runs = [(trajectory, "fan", geodesic_fan(1.0, 8, y0=-0.75)[1]),
            (trajectory.replace('["trajectories"][1]', '["trajectories"][0]'), "theta",
             integrate_geodesic(GeodesicInitialData(x0=1.0, y0=-0.75, theta=0.5, alpha=1.0)))]
    for recipe, name, traj in runs:
        got = run(recipe, tmp_path / name)
        for key in ("t", "x", "y", "px"):
            assert np.array_equal(got[key], getattr(traj, key)), (name, key)

    # the density recipe on a small plane run
    assert main(["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.02",
                 "--ny", "7", "--eps", "0.05", "--output-dir", str(tmp_path / "plane")]) == 0
    profile = power_law(1.0)
    psi0 = standard_plane_data(profile, "plane", 0.05, 7, 2.0, 16.0)
    result = evolve_plane(psi0, profile, 0.02, BoundaryCondition.dirichlet())
    original = to_original(result.final, profile)
    x, y = np.meshgrid(psi0.grid.nodes, original.axis, indexing="ij")
    want = np.column_stack([x.ravel(), y.ravel(), (np.abs(original.values) ** 2).ravel()])
    assert np.array_equal(run(density, tmp_path / "plane")["triples"], want)


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
        # two solves per step of each block, both with the node eps
        unknowns = sum(2 * row["n"] + 2 for row in doc["rows"])
        assert doc["work"] == {"steps": 100, "node_steps": 100 * unknowns,
                               "solves": 2 * 100 * 4, "node_solves": 2 * 100 * unknowns}
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
        # the shared grid, its resolution margin the largest margin of any
        # fibre on its own block
        grid = doc["grid"]
        assert set(grid) == {"n", "h_min", "h_max", "resolution_margin"}
        assert grid["n"] == doc["config"]["n_x"]
        # cap cells past x = 16 are not spaced exactly, so h_max may exceed
        # the cap by rounding
        assert 0.0 < grid["h_min"] < grid["h_max"] <= SPACING_CAP * (1.0 + 1e-12)
        assert 0.0 < grid["resolution_margin"] <= 0.5
        # the even data's xi > 0 fibres copy their mirror fibres
        work = doc["work"]
        assert (work["fibres"], work["fibres_stepped"], work["steps"]) == (17, 9, 40)
        assert work["node_steps"] % 40 == 0 and 0 < work["node_steps"] <= 40 * 9 * grid["n"]
        assert (tmp_path / "fibre_norms.csv").exists()
        assert (tmp_path / "density.csv").exists()

    def test_plane_at_alpha_3(self, tmp_path):
        # resolving the edge fibre out to the xi = 0 wall at 30 took more
        # than 2,000,000 nodes; each fibre out to its own wall takes 1,260
        assert main(["evolve", "--protocol", "plane", "--alpha", "3", "--t-final", "0.1",
                     "--output-dir", str(tmp_path)]) == 0
        grid = read_json(tmp_path / "evolution.json")["grid"]
        assert grid["n"] == 1260 and grid["resolution_margin"] <= 0.5

    def test_plane_at_alpha_half(self, tmp_path):
        # the |xi| = 8.25 and 8.64 fibres step the 94 nodes before their
        # wall at x = 4; past it the grid does not resolve their W
        assert main(["evolve", "--protocol", "plane", "--alpha", "0.5", "--t-final", "0.01",
                     "--output-dir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "evolution.json")["grid"]["resolution_margin"] <= 0.5

    def test_unresolvable_grid_fails_fast(self, tmp_path, capsys):
        # W = x^800 / 4 passes 1e240 inside the wall at 4: the node
        # estimate rejects the grid before the march lays 2,000,000 cells
        start = time.perf_counter()
        code = main(["evolve", "--protocol", "sensitivity", "--alpha", "400", "--t-final",
                     "0.005", "--output-dir", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert ("resolving the potential on [0.1, 4] needs more than 2000000 nodes"
                in capsys.readouterr().err)
        assert elapsed < 1.0

    @pytest.mark.parametrize("geometry", ["plane", "cylinder"])
    def test_density_is_the_final_state(self, tmp_path, geometry):
        # one value per node of the tensor grid, x-major, under a config
        # line that holds the x and y nodes
        assert main(["evolve", "--protocol", geometry, "--alpha", "0.5", "--t-final", "0.1",
                     "--eps", "0.05", "--ny", "7", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ") and lines[1] == "density"
        config = json.loads(lines[0][len("# config: "):])
        x, y = np.array(config["x"]), np.array(config["y"])
        density = np.array([float(v) for v in lines[2:]]).reshape(x.size, y.size)

        profile = power_law(0.5)
        psi0 = standard_plane_data(profile, geometry, 0.05, 7, 2.0, 16.0)
        result = evolve_plane(psi0, profile, 0.1, BoundaryCondition.dirichlet())
        original = to_original(result.final, profile)
        assert np.array_equal(x, psi0.grid.nodes) and np.array_equal(y, original.axis)
        assert np.array_equal(density, np.abs(original.values) ** 2)

    def test_subnormal_sigma_xi_populates_xi_zero_alone(self, tmp_path):
        # sigma_xi^2 = 1e-320 is subnormal: the envelope of every xi != 0
        # is 0, and is reached with no overflow warning
        assert main([*PLANE_RUN, "--sigma-xi", "1e-160", "--output-dir", str(tmp_path)]) == 0
        xi, norm = np.loadtxt(tmp_path / "fibre_norms.csv", delimiter=",", skiprows=2).T
        assert np.all(norm[xi != 0.0] == 0.0)
        assert abs(norm[xi == 0.0][0] - 1.0) < 1e-12

    def test_unknown_protocol(self, tmp_path):
        assert main(["evolve", "--protocol", "sensitivity", "--output-dir",
                     str(tmp_path)]) == 2

    def test_even_ny_rejected(self, tmp_path):
        assert main(["evolve", "--protocol", "plane", "--alpha", "1",
                     "--ny", "16", "--output-dir", str(tmp_path)]) == 2

    def test_jobs_do_not_change_outputs(self, tmp_path):
        # plane and cylinder, Dirichlet and Robin: every block starts at the
        # node eps, and the stack cuts fall between such blocks
        for case in (["plane"], ["cylinder"], ["plane", "--bc", "robin"],
                     ["cylinder", "--bc", "robin", "--beta", "0.5"]):
            outputs = {}
            for jobs in ("1", "2", "3"):
                d = tmp_path / "-".join(case) / f"jobs{jobs}"
                code = main(["evolve", "--protocol", *case, "--alpha", "1",
                             "--t-final", "0.05", "--eps", "0.05", "--ny", "7",
                             "--jobs", jobs, "--output-dir", str(d)])
                assert code == 0
                outputs[jobs] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            assert set(outputs["1"]) == {"density.csv", "evolution.json",
                                         "fibre_norms.csv", "norm_trace.csv"}
            assert outputs["1"] == outputs["2"] == outputs["3"], case

    def test_plane_wall_check(self, tmp_path):
        argv = ["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.1",
                "--eps", "0.05", "--ny", "7"]
        assert main(argv + ["--output-dir", str(tmp_path / "ok")]) == 0
        doc = read_json(tmp_path / "ok" / "evolution.json")
        assert 0.0 < doc["wall_mass"] <= 1e-8
        # the spreading xi = 0 fibre reaches a wall at x = 4 by t = 0.1
        bad = tmp_path / "bad"
        assert main(argv + ["--outer-wall", "4", "--output-dir", str(bad)]) == 3
        assert not bad.exists()


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
                 "--eps", "0.05", "--ny", "9", "--output-dir", str(out)]) == 0
    assert main(["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--t-final", "0.1",
                 "--eps-grid", "1e-1,3e-2", "--output-dir", str(out)]) == 0
    assert main(["geodesics", "--alpha", "1", "--angles", "4", "--output-dir", str(out)]) == 0
    names = {path.rsplit("/", 1)[-1] for path, *_ in calls}
    assert names == {"density.csv", "fibre_norms.csv", "norm_trace.csv", "bc_sensitivity.csv",
                     "geodesic_half000.csv", "geodesic_half001.csv", "geodesic_half002.csv"}
    # density.csv spans many blocks and ends in a partial one
    (density_rows,) = {len(columns[0]) for path, _, columns, _ in calls
                       if path.endswith("density.csv")}
    assert density_rows > cli.CSV_BLOCK_ROWS and density_rows % cli.CSV_BLOCK_ROWS
    for path, header_cols, columns, config in calls:
        reference = tmp_path / "reference.csv"
        _per_row_csv(reference, header_cols, columns, config)
        assert Path(path).read_bytes() == reference.read_bytes(), path


def _percent_rows(block):
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in block.tolist())


def _decided(block):
    """Whether ``_csv_block`` formats ``block``; its text must be ``%``'s."""
    text = cli._csv_block(block)
    assert text is None or text == _percent_rows(block), block
    return text is not None


def _in_range(v):
    return v == 0.0 or 1e-280 <= abs(v) < 1e280


# every float64 bit pattern, nan payloads, infinities and subnormals included
_ANY_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), _ANY_BITS), min_size=3, max_size=24),
       st.integers(1, 3))
def test_csv_block_matches_percent_on_any_float(values, cols):
    # each value alone, so that a nan or a tie elsewhere cannot make the
    # formatter decline it, and then all of them as one block
    for v in values:
        assert _decided(np.array([[v]])) <= _in_range(v), v
    rows = values[:len(values) // cols * cols]
    assert _decided(np.array(rows).reshape(-1, cols)) <= all(map(_in_range, rows))


def _adversarial_floats():
    """Powers of ten from 1e-300 to 1e299 with both float neighbours and
    their negatives, +-0, and the fast path's range edges."""
    tens = np.array([float(f"1e{k}") for k in range(-300, 300)])
    edges = [1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, 0.0)]
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), edges])
    return np.concatenate([near, -near, [0.0, -0.0]])


def _near_tie_or_edge(v):
    """Whether the exact M = |v| 10^(16 - e), e = floor(log10 |v|), lies
    within 1e-6 of a tie or of the ends of [1e16, 1e17)."""
    x, e = Fraction(abs(v)), math.floor(math.log10(abs(v)))
    e += (x >= Fraction(10) ** (e + 1)) - (x < Fraction(10) ** e)
    m = x * Fraction(10) ** (16 - e)
    return abs(m - math.floor(m) - Fraction(1, 2)) < 1e-6 or min(m - 10**16, 10**17 - m) < 1e-6


def test_csv_block_matches_percent_on_adversarial_floats():
    values = _adversarial_floats()
    for v in values:
        decided = _decided(np.array([[v]]))
        if not _in_range(v):
            assert not decided, v
        elif not decided:  # only where the docstring says it may decline
            assert v != 0.0 and _near_tie_or_edge(v), v
    fast = values[(np.abs(values) >= 1e-280) & (np.abs(values) < 1e280)]
    _decided(fast[:fast.size // 4 * 4].reshape(-1, 4))
    # a nan in the middle of a block declines the whole block
    with_nan = np.insert(fast, fast.size // 2, np.nan)[:fast.size // 3 * 3].reshape(-1, 3)
    assert not _decided(with_nan)


def test_csv_block_decides_ordinary_values():
    # an exact tie, 2.98023223876953125e-08, is declined, but full-mantissa
    # values over 208 decades, signs and zeros are formatted; above about
    # 1e9 a full mantissa often lies on an exact tie
    assert not _decided(np.array([[2.0**-25]]))
    rng = np.random.default_rng(5)
    values = rng.standard_normal(3 * 4096) * 10.0 ** rng.integers(-200, 8, 3 * 4096)
    values[::97] = 0.0
    values[1::97] = -0.0
    assert _decided(values.reshape(-1, 3))


def test_csv_writer_formats_declined_blocks_through_percent(tmp_path):
    # a nan in the first block, a tie in the second, a plain third block
    values = np.linspace(0.1, 1.0, 2 * cli.CSV_BLOCK_ROWS + 5)
    values[100], values[cli.CSV_BLOCK_ROWS + 7] = np.nan, 2.0**-25
    columns, config = [values, -values], {"values": "mixed"}
    cli._write_csv(str(tmp_path / "out.csv"), ["v", "minus_v"], columns, config)
    _per_row_csv(tmp_path / "reference.csv", ["v", "minus_v"], columns, config)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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
        "cylinder": ["evolve", "--protocol", "cylinder", "--alpha", "0.5", "--t-final", "0.05",
                     "--eps", "0.05", "--ny", "7"],
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
                      "cylinder/evolution.json",
                      "deficiency/deficiency_family.json"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--t-final", "0.1",
     "--eps-grid", "1e-1,3e-2"],
    ["evolve", "--protocol", "cylinder", "--alpha", "1", "--bc", "robin", "--t-final", "0.05",
     "--eps", "0.05", "--ny", "7"],
    ["verify-deficiency", "--alpha", "0.5", "--samples", "8"],
], ids=["sensitivity", "cylinder-robin", "deficiency"])
def test_identical_configurations_write_identical_bytes(tmp_path, argv):
    outputs = []
    for run in ("a", "b"):
        assert main(argv + ["--output-dir", str(tmp_path / run)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "-1e-3"],
    ["geodesics", "--alpha", "0.5", "--theta", "-1e-1"],
    ["evolve", "--protocol", "sensitivity", "--alpha", "1", "--beta", "-2.5e-1",
     "--eps-grid", "1e-1", "--t-final", "0.1"],
    ["classify", "--alpha", "-2", "--xi-min", "-1e1", "--xi-max", "1e1", "--xi-step", "0.5"],
    ["verify-deficiency", "--alpha", "0.5", "--interval", "-1,0"],
], ids=["alpha", "theta", "beta", "xi-min", "interval"])
def test_negative_values_in_e_notation_are_flag_values(tmp_path, capsys, argv):
    # argparse alone takes -1e-3 or -1,0 for an option name; the run must
    # write what the --flag=value spelling writes
    joined = []
    for token in argv:
        if token.startswith("-") and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    outputs = []
    for run, spelling in (("spaced", argv), ("joined", joined)):
        out = tmp_path / run
        assert main(spelling + ["--output-dir", str(out)]) == 0, spelling
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((printed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0][1] and outputs[0] == outputs[1]


def test_help_names_every_table_default(capsys):
    for command in cli._READS:
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == 0
        # one entry per option, its flags first and its help after them
        text = capsys.readouterr().out.split("options:\n")[1]
        entries = {entry.split()[0]: " ".join(entry.split())
                   for entry in re.split(r"\n  (?=-)", text.strip("\n"))}
        for name, (_, default, *_) in cli._options(command).items():
            if default is None or default is cli.REQUIRED:
                assert "(default" not in entries[cli._flag(name)], (command, name)
            else:
                assert entries[cli._flag(name)].endswith(f"(default {default})"), (command, name)


def test_non_finite_output_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    with pytest.raises(cli.NumericError):
        cli._write_json(tmp_path / "x.json", {"value": float("inf")})
    assert not (tmp_path / "x.json").exists()
    # a D of 0 at the first cutoff makes D(eps_end)/D(eps_start) NaN
    measured = cli.bc_sensitivity

    def first_d_zero(*args, **kwargs):
        result = measured(*args, **kwargs)
        (eps, _), *rest = result.rows
        return dataclasses.replace(result, rows=((eps, 0.0), *rest))

    monkeypatch.setattr(cli, "bc_sensitivity", first_d_zero)
    out = tmp_path / "out"
    assert main(["evolve", "--protocol", "sensitivity", "--alpha", "1", "--t-final", "0.01",
                 "--eps-grid", "1e-1,3e-2", "--output-dir", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_contaminated_cutoff_exits_3_and_leaves_no_worker(tmp_path, capsys, monkeypatch):
    # the cutoffs of tests/test_evolution.py's contamination case: the
    # first two clean, the last two contaminated, all stepped side by side
    from grushinlab import evolution

    monkeypatch.setattr(evolution, "WALL_MASS_LIMIT", 3.40e-7)
    threads = set(threading.enumerate())
    out = tmp_path / "out"
    assert main(["evolve", "--protocol", "sensitivity", "--alpha", "0", "--xi", "0",
                 "--t-final", "1.2", "--eps-grid", "0.05,0.03,0.015,0.0075",
                 "--output-dir", str(out)]) == 3
    assert "(mass 3.45e-07 > 3.4e-07)" in capsys.readouterr().err
    assert not out.exists()
    assert set(threading.enumerate()) == threads


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

    def test_reports_its_work_and_its_starts(self, tmp_path):
        # the benchmark's family: one solve in ln x, at most half the
        # 15,471 right-hand-side calls of the same solve in x with a decay
        # budget of 35
        assert main(["verify-deficiency", "--alpha", "0.5", "--interval", "0,1",
                     "--other-interval", "2,3", "--output-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "deficiency_family.json")
        assert set(doc["work"]) == {"nfev", "steps"}
        assert 0 < doc["work"]["nfev"] <= 15471 // 2
        assert 0 < 12 * doc["work"]["steps"] <= doc["work"]["nfev"]
        starts = doc["grid"]["x_right"]
        assert len(starts) == len(doc["xi_values"]) == 16
        # W grows with xi, so the decay budget is spent sooner
        assert starts == sorted(starts, reverse=True) and starts[0] > starts[-1]

    def test_residual_above_the_bound_exits_3(self, tmp_path, capsys):
        # small alpha, large xi: the observation grid's finite differences
        # miss 1e-6; the document is still written
        assert main(["verify-deficiency", "--alpha", "0.05", "--interval", "0,30",
                     "--samples", "8", "--output-dir", str(tmp_path)]) == 3
        doc = read_json(tmp_path / "deficiency_family.json")
        assert doc["max_residual"] > 1e-6 and doc["contradiction"] is False
        assert "[FAIL: max_residual" in capsys.readouterr().out

    def test_interval_wider_than_the_doubles_exits_2(self, tmp_path, capsys):
        # each end is a double, the width b - a is not: np.linspace over it
        # overflowed into a nan fibre
        assert main(["verify-deficiency", "--alpha", "0.5", "--interval", "-1e308,1e308",
                     "--output-dir", str(tmp_path)]) == 2
        assert "interval must be bounded with a < b and a finite width b - a" in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_overflow_exits_3_and_writes_nothing(self, tmp_path, capsys):
        assert main(["verify-deficiency", "--alpha", "0.5", "--interval", "0,20",
                     "--samples", "8", "--output-dir", str(tmp_path)]) == 3
        assert "xi=20 " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


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
    (["classify"], "[classify]\nalpha = 0.5\nmode = cylinder\nk-max = 2.5\n"),
    (["verify-deficiency", "--alpha", "0.5"], "[verify-deficiency]\nsamples = many\n"),
    (["classify", "--alpha", "1", "--xi-min", "0", "--xi-max", "1", "--xi-step", "0.3"], None),
    (["classify"], "[classify]\nalpha = 0.5\nmode = cylinder\nkmax = 2\n"),
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
    # sections that name no command: the retired [profile], whose scale the
    # analytic route ignored, and misspellings
    (["classify", "--xi-min", "-3", "--xi-max", "3", "--xi-step", "0.5"],
     "[profile]\nkind = power_law\nalpha = -1\nscale = 2\n"),
    (["classify", "--alpha", "-2"], "[clasify]\nmode = cylinder\n"),
    (["classify", "--alpha", "-2"], "[Classify]\nmode = cylinder\n"),
    (["geodesics", "--alpha", "1", "--angles", "2"], "[geodesic]\nx0 = 2\n"),
    # options the evolve protocol does not read, as flags or [evolve] keys
    *(([*SENSITIVITY_RUN, *extra], None) for extra in (
        ["--ny", "8"], ["--bc", "robin"], ["--eps", "0.5"], ["--y-span", "8"],
        ["--sigma-xi", "-3"])),
    *(([*PLANE_RUN, *extra], None) for extra in (
        ["--xi", "3"], ["--eps-grid", "5"], ["--refine", "0"], ["--beta", "2"])),
    (PLANE_RUN, "[evolve]\nxi = 3\n"),
    (SENSITIVITY_RUN, "[evolve]\njobs = 2\n"),
    (["geodesics", "--alpha", "1", "--theta", "0.3", "--angles", "0"], None),
    # --other-interval must be bounded, ordered and disjoint from --interval
    *((["verify-deficiency", "--alpha", "0.5", "--samples", "8", "--other-interval", other],
       None) for other in ("3,2", "0.5,2", "nan,1", "inf,5")),
    # config values outside the option's choices, as the flags would be
    (["classify", "--alpha", "1"], "[classify]\nmethod = foo\n"),
    (["classify", "--alpha", "1"], "[classify]\nmode = foo\n"),
    (["evolve", "--protocol", "plane", "--alpha", "1"], "[evolve]\nbc = Robin\n"),
    # flags of the other classify mode
    (["classify", "--alpha", "1", "--k-max", "9"], None),
    (["classify", "--alpha", "1", "--mode", "cylinder", "--xi-min", "0", "--xi-step", "7"], None),
    (["classify", "--alpha", "1", "--xi-max", "2"], "[classify]\nmode = cylinder\n"),
    # input files that do not parse or do not exist
    (["classify", "--alpha", "1"], "xi-max = 1\n"),
    (["classify", "--alpha", "1"], "[classify]\nmode = plane\nmode = cylinder\n"),
    (["classify", "--alpha", "1"], "[classify]\nxi-max = 5%\n"),
    (["classify"], "[classify]\nalpha = 5%\n"),
    (["classify", "--profile", "no-such-profile"], None),
    # a repeated cutoff, and empty items of a number list
    (["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--eps-grid", "1e-1,1e-1",
      "--t-final", "0.1"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--eps-grid", "1e-1,,3e-2",
      "--t-final", "0.1"], None),
    (["verify-deficiency", "--alpha", "0.5", "--samples", "8", "--interval", "0,1,"], None),
    # an empty list is no default
    (["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--eps-grid", "",
      "--t-final", "0.1"], None),
    (["verify-deficiency", "--alpha", "0.5", "--samples", "8", "--interval", ""], None),
    # a launch whose x0^(-alpha) overflows a float, and fibre frequencies
    # whose squares do
    (["geodesics", "--alpha", "2000", "--x0", "0.5", "--angles", "4"], None),
    (["geodesics", "--alpha", "2000", "--x0", "0.5", "--theta", "0.3"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--xi", "1e200", "--t-final",
      "0.01"], None),
    (["classify", "--alpha", "0.5", "--method", "numeric", "--xi-min", "0", "--xi-max", "1e300",
      "--xi-step", "1e299"], None),
    (["verify-deficiency", "--alpha", "0.5", "--samples", "8", "--interval", "0,1e300"], None),
    # x0^(-alpha) = 2^1000 is a float, but P_y^2 is not
    (["geodesics", "--alpha", "1000", "--x0", "0.5", "--angles", "4"], None),
    (["geodesics", "--alpha", "1000", "--x0", "0.5", "--theta", "1.5707963267948966"], None),
    # a turning point x0 |sin theta|^(-1/alpha) past the float range
    (["geodesics", "--alpha", "1e-6", "--angles", "8"], None),
    (["geodesics", "--alpha", "1e-6", "--theta", "0.5"], None),
    # no step: D would be 0 at every cutoff
    (["evolve", "--protocol", "sensitivity", "--alpha", "1.5", "--t-final", "0"], None),
    # a cutoff whose square underflows to 0, so W(eps) is 0/0 or x/0; and a
    # --sigma-xi whose square does
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--eps-grid", "1e-200"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--eps", "1e-200", "--ny", "3",
      "--t-final", "0.005"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "0", "--eps-grid", "1e-200",
      "--t-final", "0.01"], None),
    ([*PLANE_RUN, "--sigma-xi", "1e-300"], None),
    # a power law whose x^(2 alpha) overflows a float where the numeric
    # route or a grid march evaluates it
    (["classify", "--alpha", "-25", "--method", "numeric", "--xi-min", "0", "--xi-max", "1",
      "--xi-step", "0.5"], None),
    (["evolve", "--protocol", "plane", "--alpha", "-80", "--t-final", "0.005", "--ny", "3"],
     None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "-160", "--t-final", "0.005"], None),
    # no --alpha, number lists of the wrong length, an analytic route for a
    # profile that is no power law, and a cutoff of 0
    (["verify-deficiency"], None),
    (["verify-deficiency", "--alpha", "0.5", "--interval", "0,1,2"], None),
    (["verify-deficiency", "--alpha", "0.5", "--other-interval", "2"], None),
    (["classify", "--profile", "exp_inverse", "--method", "analytic"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--eps-grid", "1e-1,0",
      "--t-final", "0.01"], None),
    # x^800 overflows on the outer-wall scan, to inf and, at xi = 0, to 0 * inf
    (["evolve", "--protocol", "sensitivity", "--alpha", "400", "--t-final", "0.005"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "400", "--t-final", "0.005", "--xi",
      "0"], None),
    # a count just above its ceiling of 10,000, and far above it, where it
    # would fill memory or pass numpy's largest array; the xi grid's fibres
    (["classify", "--alpha", "1", "--mode", "cylinder", "--k-max", "10001"], None),
    (["classify", "--alpha", "1", "--mode", "cylinder", "--k-max", "100000000000000000000"],
     None),
    (["classify", "--alpha", "1", "--xi-min", "0", "--xi-max", "1", "--xi-step", "1e-4"], None),
    (["classify", "--alpha", "1", "--xi-min", "0", "--xi-max", "1", "--xi-step", "1e-300"], None),
    (["geodesics", "--alpha", "1", "--angles", "10001"], None),
    (["geodesics", "--alpha", "1", "--angles", "100000000000000000000"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--ny", "10001"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--ny", "100000000000000001"], None),
    (["evolve", "--protocol", "cylinder", "--alpha", "1", "--jobs", "10001"], None),
    (["verify-deficiency", "--alpha", "0.5", "--samples", "10001"], None),
    (["verify-deficiency", "--alpha", "0.5", "--samples", "100000000000000000000"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--refine", "10001"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--refine", "1" + "0" * 400], None),
    (["classify", "--alpha", "1"], "[classify]\nmode = cylinder\nk-max = 10001\n"),
    # an evolution of more than 1,000,000 steps
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--t-final", "5000.005"], None),
    (["evolve", "--protocol", "sensitivity", "--alpha", "1", "--t-final", "1e300"], None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "5000.005", "--ny", "3"],
     None),
    (["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "1e12", "--ny", "3"], None),
    # plane data past its ceiling of values (31,028 x nodes times 9,999
    # fibres), and family samples past scipy's rtol floor
    (["evolve", "--protocol", "plane", "--alpha", "1", "--ny", "9999"], None),
    (["verify-deficiency", "--alpha", "0.5", "--samples", "2029"], None),
    # a --sigma-xi whose square overflows a float
    (["evolve", "--protocol", "plane", "--alpha", "1", "--sigma-xi", "1e300"], None),
    (["evolve", "--protocol", "cylinder", "--alpha", "1", "--sigma-xi", "1e200"], None),
    # D = 0 at a cutoff: a Robin row that rounds to the Dirichlet one, and a
    # step too short to move the data
    (["evolve", "--alpha", "1", "--beta", "1e20"], None),
    (["evolve", "--alpha", "1", "--dt", "1e-300", "--t-final", "1e-300"], None),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, ini):
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def _error_classes(cls=GrushinError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# the exit code the README documents for each error class
EXIT_CODES = {UsageError: 2, NumericError: 3, InconclusiveClassification: 4}


@pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, error):
    # main has no catch-all: a class without its own branch escapes it
    def fail(args):
        raise error(f"forced {error.__name__}")

    monkeypatch.setattr(cli, "_cmd_classify", fail)
    assert main(["classify", "--alpha", "1"]) == EXIT_CODES[error]
    assert f"forced {error.__name__}" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    # byte 0xff never occurs in UTF-8 text
    path = tmp_path / "input.ini"
    path.write_bytes(b"[classify]\nxi-max = 1\xff\n")
    out = tmp_path / "out"
    assert main(["classify", "--alpha", "1", "--config", str(path),
                 "--output-dir", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def _imported_with_cli(module):
    """'True' or 'False': whether importing grushinlab.cli imports ``module``."""
    code = f"import sys, grushinlab.cli; print({module!r} in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    return out.strip()


@pytest.mark.parametrize("module", ["scipy", "scipy.integrate", "scipy.linalg", "scipy.special"])
def test_import_leaves_out_scipy(module):
    # only the ODE routes need scipy.integrate, only evolve factorises with
    # scipy.linalg, and only the hit-time formula needs scipy.special; a
    # command must not pay for importing what it does not run.  scipy
    # itself, which any of its modules loads, guards every one: they take
    # about three times as long to import as the package
    assert _imported_with_cli(module) == "False"


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "1"],
    ["geodesics", "--alpha", "1"],
    ["evolve", "--alpha", "1"],
    ["verify-deficiency", "--alpha", "0.5"],
], ids=lambda argv: argv[0])
def test_output_dir_that_cannot_be_a_directory_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, argv, below):
    def work(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("classify_sweep", "geodesic_fan", "bc_sensitivity", "verify_deficiency_family"):
        monkeypatch.setattr(cli, name, work)
    path = tmp_path / "FILE"
    path.write_text("not a directory\n")
    assert main([*argv, "--output-dir", str(path / below)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == "not a directory\n"


# each evolve protocol's unread options, with values the other protocol
# accepts: a usage error as a flag and as an [evolve] key
UNREAD_OPTIONS = [
    ("sensitivity", "eps", "0.05"), ("sensitivity", "outer-wall", "8"),
    ("sensitivity", "ny", "7"), ("sensitivity", "sigma-xi", "2"),
    ("sensitivity", "y-span", "8"), ("sensitivity", "bc", "robin"),
    ("sensitivity", "jobs", "2"),
    ("plane", "xi", "0.5"), ("plane", "eps-grid", "1e-1,1e-2"), ("plane", "refine", "2"),
    ("plane", "beta", "2"),  # without --bc robin
    ("cylinder", "y-span", "8"),  # the circle's length is fixed
]


@pytest.mark.parametrize("source", ["flag", "key"])
@pytest.mark.parametrize("protocol, name, value", UNREAD_OPTIONS)
def test_evolve_protocol_rejects_each_option_it_does_not_read(
        tmp_path, capsys, protocol, name, value, source):
    argv = ["evolve", "--protocol", protocol, "--alpha", "1", "--t-final", "0.02"]
    if source == "flag":
        argv += [f"--{name}", value]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[evolve]\n{name} = {value}\n")
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert f"evolve --protocol {protocol} does not read --{name}" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_records_its_protocol_defaults(tmp_path):
    assert main(["evolve", "--alpha", "1.5", "--t-final", "0.005",
                 "--output-dir", str(tmp_path / "sensitivity")]) == 0
    config = read_json(tmp_path / "sensitivity" / "bc_sensitivity.json")["config"]
    assert {key: config[key] for key in ("protocol", "dt", "eps_grid", "beta", "refine")} == {
        "protocol": "sensitivity", "dt": 0.005, "eps_grid": [0.1, 0.01, 0.001], "beta": 1.0,
        "refine": 1}
    assert main(["evolve", "--protocol", "plane", "--alpha", "1", "--t-final", "0.005",
                 "--output-dir", str(tmp_path / "plane")]) == 0
    config = read_json(tmp_path / "plane" / "evolution.json")["config"]
    assert {key: config[key] for key in ("dt", "eps", "ny", "sigma_xi", "y_span", "bc")} == {
        "dt": 0.005, "eps": 0.01, "ny": 45, "sigma_xi": 2.0, "y_span": 16.0, "bc": "dirichlet"}


class Sentinel(Exception):
    pass


# the library names the benchmark's tracer replaces on cli, and
# evolution.to_original, which the plane protocol imports when it runs:
# each with the smallest command that reaches it
TRACED = {
    "bc_sensitivity": ["evolve", "--alpha", "1"],
    "evolve_plane": ["evolve", "--protocol", "plane", "--alpha", "1", "--ny", "3"],
    "to_original": ["evolve", "--protocol", "plane", "--alpha", "1", "--ny", "3",
                    "--t-final", "0.005"],
    "classify_sweep": ["classify", "--alpha", "1"],
    "aggregate_verdict": ["classify", "--alpha", "1", "--mode", "cylinder", "--k-max", "0"],
    "classify_by_inequality": ["classify", "--alpha", "1", "--mode", "cylinder", "--k-max", "0"],
    "verify_deficiency_family": ["verify-deficiency", "--alpha", "0.5"],
    "geodesic_fan": ["geodesics", "--alpha", "1"],
    "integrate_geodesic": ["geodesics", "--alpha", "1", "--theta", "0.5"],
    "hit_time_quadrature": ["geodesics", "--alpha", "1", "--theta", "0.5", "--t-max", "1"],
    "write_fan": ["geodesics", "--alpha", "-1", "--theta", "0.5", "--t-max", "1"],
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_commands_look_up_traced_names_when_they_run(tmp_path, monkeypatch, name):
    from grushinlab import evolution

    def sentinel(*args, **kwargs):
        raise Sentinel(name)

    monkeypatch.setattr(evolution if name == "to_original" else cli, name, sentinel)
    with pytest.raises(Sentinel):
        main([*TRACED[name], "--output-dir", str(tmp_path)])
