"""Benchmark runner: drives the ``grushinlab`` CLI in-process.

    python3 perfbench/run.py --workload bc-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run is one fresh process:

1. set-up: import ``grushinlab.cli`` in several fresh interpreters and
   take the median import time (``setup_s``);
2. closed loop: run the workload's commands back to back, one pass after
   another, until ``--seconds`` have passed (at least one pass);
3. check every pass's outputs and hash every output file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over passes).  With ``--trace 1`` the run makes one untraced
pass and then one pass with spans around each module's entry points, and
reports the per-layer metrics plus ``trace_overhead_frac``.  The full
record (checks, hashes, per-pass numbers, machine) goes to the line
before the result and to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_IMPORTS = 7

sys.path.insert(0, str(HERE))
from workloads import TOLERANCES, WORKLOADS  # noqa: E402


def measure_setup(repeats: int) -> list[float]:
    """Import time of ``grushinlab.cli`` in ``repeats`` fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import grushinlab.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing grushinlab.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_pass(cli, commands, pass_dir: Path) -> dict:
    """Run one pass of the workload's commands; returns timings, exit
    codes and output directories."""
    out_dirs = [pass_dir / f"{k}-{argv[0]}" for k, argv in enumerate(commands)]
    codes, command_walls = [], []
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    # the CLI's progress lines go to stderr: stdout ends with the result
    with contextlib.redirect_stdout(sys.stderr):
        for argv, out in zip(commands, out_dirs):
            start = time.perf_counter()
            try:
                codes.append(cli.main([*argv, "--output-dir", str(out)]))
            except Exception:  # a crash fails this command, not the run
                traceback.print_exc()
                codes.append(None)
            command_walls.append(time.perf_counter() - start)
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "command_wall_s": command_walls,
            "exit_codes": codes, "out_dirs": out_dirs}


def check_pass(workload, result: dict) -> None:
    """Check and hash one pass's outputs, then delete them."""
    out_dirs = result.pop("out_dirs")
    checks, margins = workload.check(out_dirs, TOLERANCES)
    result["checks"] = [vars(c) for c in checks]
    result["margins"] = margins
    result["sha256"] = {
        str(p.relative_to(out_dirs[0].parent)): sha256(p)
        for d in out_dirs if d.is_dir() for p in sorted(d.iterdir())
    }
    result["bytes_written"] = sum(
        p.stat().st_size for d in out_dirs if d.is_dir() for p in d.iterdir())
    shutil.rmtree(out_dirs[0].parent, ignore_errors=True)


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                info[f"L{level}"] = (index / "size").read_text().strip()
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        with contextlib.suppress(Exception):  # show_config's layout varies by version
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            for lib in ("blas", "lapack"):
                info[f"{name}_{lib}"] = f"{deps[lib]['name']} {deps[lib].get('version', '')}"
    return info


def summarise(passes: list[dict]) -> dict:
    checks = [c for p in passes for c in p["checks"]]
    hashes = {json.dumps(p["sha256"], sort_keys=True) for p in passes}
    determinism = {"name": "outputs_identical_across_passes", "ok": len(hashes) == 1,
                   "value": len(hashes), "limit": 1}
    if len(passes) > 1:
        checks.append(determinism)
    return {
        "checks_attempted": len(checks),
        "checks_failed": sum(not c["ok"] for c in checks),
        "failed_checks": [c for c in checks if not c["ok"]],
        "commands_attempted": sum(len(p["exit_codes"]) for p in passes),
        "commands_failed": sum(code != 0 for p in passes for code in p["exit_codes"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not (SRC / "grushinlab" / "cli.py").is_file():
        print(f"error: no grushinlab sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed, args.smoke)

    setup = measure_setup(SETUP_IMPORTS)
    sys.path.insert(0, str(SRC))
    from grushinlab import cli

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    passes = []
    tracer = None
    if args.trace:
        from tracing import Tracer

        passes.append(run_pass(cli, commands, run_dir / "pass0"))
        check_pass(workload, passes[-1])
        tracer = Tracer()
        with tracer.installed():
            passes.append(run_pass(cli, commands, run_dir / "pass1"))
        check_pass(workload, passes[-1])
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cli, commands, run_dir / f"pass{len(passes)}"))
            check_pass(workload, passes[-1])
    shutil.rmtree(run_dir, ignore_errors=True)
    summary = summarise(passes)

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "check_pass_frac": 1 - summary["checks_failed"] / summary["checks_attempted"],
        }
        declared = benchmark["end_to_end"]
    else:
        traced = passes[-1]
        metrics = {
            **dict.fromkeys(MARGINS, 0.0),
            **tracer.metrics(),
            **traced["margins"],
            "cli.bytes_written": traced["bytes_written"],
            "trace_overhead_frac": traced["wall_s"] / passes[0]["wall_s"] - 1,
        }
        declared = benchmark["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commands": commands,
        "setup_imports_s": setup,
        "passes": passes,
        "summary": summary,
        "machine": machine(),
        "metrics": metrics,
    }
    RUNS.mkdir(exist_ok=True)
    record_path = run_dir.with_suffix(".json")
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        record_path.with_suffix(".spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    correct = summary["checks_failed"] == 0 and summary["commands_failed"] == 0
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["commands_attempted"],
        "failed": summary["commands_failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, allow_nan=False))
    return 0


# check margins; a workload without the check reports 0
MARGINS = ("evolution.wall_mass_max", "evolution.norm_drift_max",
           "evolution.spectrum_edge_mass_max", "geodesics.hit_gap_max",
           "geodesics.energy_drift_max")


if __name__ == "__main__":
    sys.exit(main())
