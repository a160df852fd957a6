"""Spans around the public entry points of each ``grushinlab`` module.

The tracer replaces module attributes and class methods with timing
wrappers for the duration of a ``with tracer.installed():`` block and
restores them afterwards.  Each name is wrapped where its caller looks it
up: ``cli`` imports ``bc_sensitivity`` and friends by name, so the
``cli`` binding is the one replaced, while ``to_original`` is imported
inside ``_evolve_plane`` at call time, so the ``evolution`` binding is.

Spans are kept in memory and written out by the caller when the run
ends.  Each span carries its own serial number and the serial of the span
that was open when it started (per thread; a span opened on a worker
thread with nothing open there belongs to the main thread's innermost
open span, which is the one that started the pool).  Steppers are keyed
by a serial handed out at construction and held in a weak mapping, never
by ``id()``, since ids of freed steppers are reused.

``FibrePotential.__call__`` runs up to millions of times inside ODE
callbacks, so it is counted rather than recorded as spans: per thread and
per parent span, a call count and the time spent.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("profiles", "evolution", "weyl", "geodesics", "cli")
CLI_COMMANDS = ("classify", "geodesics", "evolve", "verify-deficiency")


@dataclass
class Span:
    serial: int
    name: str
    parent: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.leaves: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._serials = itertools.count(1)
        self._stepper_serials = itertools.count(1)
        self._steppers = weakref.WeakKeyDictionary()
        self._state = _ThreadState()
        self._main_stack: list[int] | None = None
        self._leaf_tables: list[dict] = []
        self._leaf_lock = threading.Lock()
        self.quad_warnings = 0

    # -- recording ---------------------------------------------------------

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, fn, name, attrs=None):
        """Record a span around every call of ``fn``; ``attrs(args,
        result)`` may add fields to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._state.stack
            parent = self._parent(stack)
            serial = next(self._serials)
            stack.append(serial)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(serial, name, parent, start, perf_counter(),
                                       {"error": True}))
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            extra = attrs(args, result) if attrs is not None else {}
            self.spans.append(Span(serial, name, parent, start, end, extra))
            return result

        return traced

    def wrap_leaf(self, fn):
        """Count calls of ``fn`` and their time per parent span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state = self._state
                table = state.leaves
                if table is None:
                    table = state.leaves = {}
                    with self._leaf_lock:
                        self._leaf_tables.append(table)
                cell = table.get(parent := self._parent(state.stack))
                if cell is None:
                    table[parent] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        return counted

    def _stepper_init(self, fn):
        @functools.wraps(fn)
        def init(stepper, grid, *args, **kwargs):
            fn(stepper, grid, *args, **kwargs)
            self._steppers[stepper] = next(self._stepper_serials)

        return init

    def _stepper_attrs(self, args, _result):
        stepper = args[0]
        return {"stepper": self._steppers.get(stepper), "n": stepper.grid.n}

    def _quadrature(self, fn):
        """Span around ``fn`` that also counts the scipy IntegrationWarnings
        raised inside it, then emits them again, so they are counted and
        still shown.  ``catch_warnings`` swaps process-wide state; the CLI
        calls the quadrature from its main thread only."""
        from scipy.integrate import IntegrationWarning

        traced = self.wrap(fn, "geodesics.quadrature")

        @functools.wraps(fn)
        def quadrature(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = traced(*args, **kwargs)
            for w in caught:
                self.quad_warnings += issubclass(w.category, IntegrationWarning)
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return quadrature

    # -- installation ------------------------------------------------------

    def _patches(self):
        from grushinlab import cli, evolution, geodesics, profiles, weyl

        cn = evolution.CrankNicolson
        n_of_grid = lambda args, _r: {"n": args[1].n}  # noqa: E731
        numeric_diag = lambda _a, report: dict(report.diagnostics)  # noqa: E731
        drift = lambda _a, traj: {"energy_drift": traj.energy_drift}  # noqa: E731
        integrate = self.wrap(geodesics.integrate_geodesic, "geodesics.integrate", drift)
        to_original = self.wrap(evolution.to_original, "evolution.transform")
        return [
            (profiles.FibrePotential, "__call__", self.wrap_leaf(profiles.FibrePotential.__call__)),
            (cn, "__init__", self.wrap(self._stepper_init(cn.__init__), "evolution.factorise",
                                       n_of_grid)),
            (cn, "step", self.wrap(cn.step, "evolution.step", self._stepper_attrs)),
            (evolution, "evolve_fibre", self.wrap(evolution.evolve_fibre, "evolution.evolve_fibre")),
            (evolution, "to_original", to_original),
            (evolution, "to_transformed", self.wrap(evolution.to_transformed,
                                                    "evolution.transform")),
            (cli, "bc_sensitivity", self.wrap(cli.bc_sensitivity, "evolution.bc_sensitivity")),
            (cli, "evolve_plane", self.wrap(cli.evolve_plane, "evolution.evolve_plane")),
            (weyl, "classify_numeric", self.wrap(weyl.classify_numeric, "weyl.classify_numeric",
                                                 numeric_diag)),
            (weyl, "classify_power_law", self.wrap(weyl.classify_power_law,
                                                   "weyl.classify_power_law")),
            (cli, "classify_sweep", self.wrap(cli.classify_sweep, "weyl.classify_sweep")),
            (cli, "classify_by_inequality", self.wrap(cli.classify_by_inequality,
                                                      "weyl.inequality")),
            (cli, "aggregate_verdict", self.wrap(cli.aggregate_verdict, "weyl.aggregate")),
            (cli, "verify_deficiency_family", self.wrap(cli.verify_deficiency_family,
                                                        "weyl.deficiency_family")),
            (geodesics, "integrate_geodesic", integrate),
            (cli, "integrate_geodesic", integrate),
            (cli, "geodesic_fan", self.wrap(cli.geodesic_fan, "geodesics.fan")),
            (cli, "hit_time_quadrature", self._quadrature(cli.hit_time_quadrature)),
            (cli, "write_fan", self.wrap(cli.write_fan, "geodesics.write_fan")),
            (cli, "main", self._command(cli.main)),
        ]

    def _command(self, main):
        @functools.wraps(main)
        def command(argv):
            return self.wrap(main, f"cli.{argv[0]}")(argv)

        return command

    @contextmanager
    def installed(self):
        """Wrap the entry points on entry; restore the originals on exit."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        self._main_stack = self._state.stack
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._main_stack = None

    # -- reduction ---------------------------------------------------------

    def leaf_totals(self) -> dict:
        """{parent serial: [calls, seconds]} over all threads."""
        totals: dict = {}
        for table in self._leaf_tables:
            for parent, (calls, seconds) in table.items():
                cell = totals.setdefault(parent, [0, 0.0])
                cell[0] += calls
                cell[1] += seconds
        return totals

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it covered by child spans
        (intervals merged, so overlapping worker-thread children count
        once) and minus the time of counted leaf calls made under it."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        leaves = self.leaf_totals()
        result = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.serial, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            leaf = leaves.get(s.serial, (0, 0.0))[1]
            result[s.serial] = max(0.0, s.duration - covered - leaf)
        return result

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts.  Calls
        that raised count in the self times only."""
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            if "error" not in s.attrs:
                by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(s.duration for s in spans(name))

        leaf_calls = leaf_seconds = 0
        for calls, seconds in self.leaf_totals().values():
            leaf_calls += calls
            leaf_seconds += seconds

        steps = spans("evolution.step")
        per_stepper: dict = {}
        for s in steps:
            cell = per_stepper.setdefault(s.attrs["stepper"], [0.0, 0])
            cell[0] += s.duration
            cell[1] += s.attrs["n"]
        ns_per_node = [1e9 * seconds / nodes for seconds, nodes in per_stepper.values()]
        numeric = spans("weyl.classify_numeric")
        integrate = [s.duration for s in spans("geodesics.integrate")]

        self_by_span = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer_self[s.layer] += self_by_span[s.serial]
        layer_self["profiles"] += leaf_seconds

        out = {
            "profiles.potential_calls": leaf_calls,
            "profiles.potential_s": leaf_seconds,
            "evolution.factorisations": len(spans("evolution.factorise")),
            "evolution.factorise_s": total("evolution.factorise"),
            "evolution.steps": len(steps),
            "evolution.step_s": total("evolution.step"),
            "evolution.node_steps": sum(s.attrs["n"] for s in steps),
            "evolution.grid_nodes_max": max((s.attrs["n"] for s in spans("evolution.factorise")),
                                            default=0),
            "evolution.step_ns_per_node.p50": _median(ns_per_node),
            "evolution.step_ns_per_node.max": max(ns_per_node, default=0.0),
            "evolution.transform_s": total("evolution.transform"),
            "weyl.fibres_classified": len(numeric) + len(spans("weyl.classify_power_law")),
            "weyl.classify_numeric_s.p50": _median([s.duration for s in numeric]),
            "weyl.classify_numeric_s.max": max((s.duration for s in numeric), default=0.0),
            "weyl.deficiency_family_s": total("weyl.deficiency_family"),
            # a diverging fit (c0 = inf, as for exp_inverse) has no fit error to speak of
            "weyl.c0_fit_error_max": max((s.attrs["c0_fit_error"] for s in numeric
                                          if math.isfinite(s.attrs["c0"])), default=0.0),
            "weyl.slope_margin_min": min((_slope_margin(s.attrs) for s in numeric), default=0.0),
            "geodesics.trajectories": len(integrate),
            "geodesics.integrate_s.p50": _median(integrate),
            "geodesics.integrate_s.max": max(integrate, default=0.0),
            "geodesics.quadrature_s": total("geodesics.quadrature"),
            "geodesics.quad_warnings": self.quad_warnings,
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command.replace('-', '_')}_s"] = total(f"cli.{command}")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def dump(self) -> dict:
        """Spans and leaf counts as plain data, for writing out."""
        return {
            "spans": [[s.serial, s.name, s.parent, s.start, s.end, s.attrs] for s in self.spans],
            "leaf_calls": {str(k): v for k, v in self.leaf_totals().items()},
        }


def _median(values):
    return statistics.median(values) if values else 0.0


def _slope_margin(diagnostics) -> float:
    """Distance of the fitted indicial slope from the limit-point
    threshold s = -1/2 + SLOPE_TOL used by ``classify_numeric``."""
    from grushinlab.weyl import CRITICAL_EXPONENT, SLOPE_TOL

    return abs(diagnostics["indicial_slope"] - (CRITICAL_EXPONENT + SLOPE_TOL))
