import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grushinlab

MODULES = [info.name for info in pkgutil.iter_modules(grushinlab.__path__)]


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module's own statements bind at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_the_module_defines(name):
    module = importlib.import_module(f"grushinlab.{name}")
    declared = getattr(module, "__all__", [])
    with open(module.__file__, encoding="utf-8") as fh:
        defined = top_level_names(ast.parse(fh.read()))
    assert sorted(set(declared) - defined) == []
    assert len(set(declared)) == len(declared)


def test_library_modules_declare_their_public_names():
    declaring = {name for name in MODULES
                 if hasattr(importlib.import_module(f"grushinlab.{name}"), "__all__")}
    assert {"profiles", "weyl", "geodesics", "evolution"} <= declaring


def test_package_root_imports_no_module():
    # the library is imported from its modules; the root holds __version__
    code = ("import sys, grushinlab; "
            "print(sorted(m for m in sys.modules if m.startswith('grushinlab')), "
            "sorted(n for n in vars(grushinlab) if not n.startswith('_')))")
    src = str(Path(grushinlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "['grushinlab'] []"


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the tracer of perfbench/run.py --trace 1 wraps library names by
    # attribute: a rename or a deletion in the package breaks it on entry
    from importlib.util import module_from_spec, spec_from_file_location

    from grushinlab import cli, evolution

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = spec_from_file_location("perfbench_tracing", path)
    tracing = module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    originals = (evolution.CrankNicolson.__init__, cli.main)
    with tracing.Tracer().installed():
        assert cli.main is not originals[1]
    assert (evolution.CrankNicolson.__init__, cli.main) == originals


def power_law_callers(package: Path) -> set[tuple[str, str | None]]:
    """(module, top-level def) of every call of ``power_law`` in ``package``;
    None for a call outside any def."""
    callers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and "power_law" in (
                        getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                    callers.add((path.stem, owner))
    return callers


def test_only_the_cli_resolver_builds_a_power_law():
    # every library experiment takes a GrushinProfile; the one place that
    # turns --alpha into a geometry is cli._resolve_profile
    callers = power_law_callers(Path(grushinlab.__file__).resolve().parent)
    assert {c for c in callers if c[0] != "profiles"} == {("cli", "_resolve_profile")}


def test_numeric_classification_runs_on_numpy_alone():
    # the classification sweep is numpy's Magnus propagator: neither a
    # scipy integrator nor a root finder is imported by a numeric sweep
    code = ("import sys; from grushinlab.profiles import builtin_profile; "
            "from grushinlab.weyl import classify_sweep; "
            "reports = classify_sweep(builtin_profile('exp_inverse'), [0.0, 0.5, 1.0], "
            "method='numeric'); "
            "print(len(reports), sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    src = str(Path(grushinlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "3 []"
