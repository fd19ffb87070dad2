"""Span tracer that wraps swingcct's public functions from outside the package.

Each wrapped call records one span (name, start, end, parent) plus a few
counters in memory.  Spans are closed in ``try/finally`` so a call that
raises (``InadmissibleScenario`` escaping ``build_context`` for a no-sep
point, ``IntegrationError`` inside a verdict) still ends its span.  A wrapped
name is replaced in every ``swingcct`` module that holds it, because several
modules import functions by name (``energy.integrate``,
``sweep.run_fault_study``, the package namespace).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span store; one instance per traced section."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.counters.append({})
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, on_result=None, on_args=None):
        """Wrap `fn` so each call is one span named `name`.

        `on_args(counters, args, kwargs)` may return replacement (args, kwargs);
        `on_result(counters, args, kwargs, result)` records result counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                if on_args is not None:
                    args, kwargs = on_args(self.counters[idx], args, kwargs)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self.counters[idx], args, kwargs, result)
                return result
            finally:
                self.close(idx)

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, module, attr: str, wrapper_factory) -> None:
        """Replace `module.attr` by a wrapper in every swingcct module that holds it."""
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "swingcct" or mod_name.startswith("swingcct.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def unpatch(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Span duration minus the time its (strictly nested) children cover."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False

    def write(self, path: Path) -> None:
        t0 = min(self.start, default=0.0)
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, **c}
            for n, s, e, p, c in zip(self.names, self.start, self.end, self.parent, self.counters)
        ]
        path.write_text(json.dumps(rows) + "\n")


def install(tracer: Tracer, swingcct) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    sw, en, eq, fs = swingcct.swing, swingcct.energy, swingcct.equilibria, swingcct.faultstudy
    nm, rp, scn = swingcct.netmodel, swingcct.report, swingcct.scenario
    T = tracer

    def count_field(counters, args, kwargs):
        # integrate(field, x0, t_end, ...): count evaluations of the field
        counters["field_evals"] = 0
        args = list(args)
        field = kwargs.pop("field") if "field" in kwargs else args.pop(0)

        def counted(y):
            counters["field_evals"] += 1
            return field(y)

        return (counted, *args), kwargs

    def rk_steps(counters, args, kwargs, traj):
        counters["rk_steps"] = len(traj.t) - 1

    enum_signature = inspect.signature(eq.stationary_points)

    def enum_counts(counters, args, kwargs, points):
        # one Newton start per node of a grid_density^m grid
        bound = enum_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        hm, density = bound.arguments["hm"], bound.arguments["grid_density"]
        counters["starts"] = density ** hm.gp.n_active
        counters["roots"] = len(points)

    def bytes_written(counters, args, kwargs, written):
        counters["bytes"] = sum(Path(p).stat().st_size for p in written.values())

    def factory_maker(orig):
        @functools.wraps(orig)
        def make(*args, **kwargs):
            return T.span("equilibria.factory", orig(*args, **kwargs))

        return make

    plain = {
        (scn, "load_scenario"): "scenario.load_scenario",
        (fs, "run_fault_study"): "faultstudy.run_fault_study",
        (fs, "build_context"): "faultstudy.build_context",
        (fs, "true_cct"): "faultstudy.true_cct",
        (fs, "first_swing_stable"): "faultstudy.first_swing_stable",
        (en, "fault_on_trajectory"): "energy.fault_on_trajectory",
        (en, "tau_H"): "energy.tau_H",
        (en, "tau_A"): "energy.tau_A",
        (eq, "find_sep"): "equilibria.find_sep",
        (eq, "continue_branch"): "equilibria.continue_branch",
        (eq, "fold_locations"): "equilibria.fold_locations",
        (nm, "reduce_to_generators"): "netmodel.reduce_to_generators",
    }
    for (mod, attr), name in plain.items():
        T.patch(mod, attr, lambda f, name=name: T.span(name, f))
    T.patch(sw, "integrate", lambda f: T.span("swing.integrate", f, rk_steps, count_field))
    T.patch(eq, "stationary_points", lambda f: T.span("equilibria.stationary_points", f, enum_counts))
    T.patch(rp, "emit_reports", lambda f: T.span("report.emit_reports", f, bytes_written))
    T.patch(fs, "hamiltonian_model_factory", factory_maker)


def layer_metrics(T: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics per unit of work (one study, one sweep, one pair of traces)."""
    dur = T.durations()
    self_t = T.self_times()
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(T.names):
        by_name.setdefault(n, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, values=dur) -> float:
        return sum(values[i] for i in by_name.get(name, ()))

    def counter(name: str, key: str) -> float:
        return sum(T.counters[i].get(key, 0) for i in by_name.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    integ = by_name.get("swing.integrate", [])
    field_evals = counter("swing.integrate", "field_evals")
    steps = counter("swing.integrate", "rk_steps")
    verdicts = calls("faultstudy.first_swing_stable")
    verdict_evals = sum(
        T.counters[i]["field_evals"] for i in integ if T.has_ancestor(i, "faultstudy.first_swing_stable")
    )
    cct_children = {i: 0 for i in by_name.get("faultstudy.true_cct", [])}
    for i in by_name.get("faultstudy.first_swing_stable", []):
        if T.parent[i] in cct_children:
            cct_children[T.parent[i]] += 1
    # true_cct spends two verdicts on t=0 and the horizon before bisecting
    bisection = sum(max(0, k - 2) for k in cct_children.values())
    starts = counter("equilibria.stationary_points", "starts")
    roots = counter("equilibria.stationary_points", "roots")

    per_unit = {
        "swing.integrate_calls": len(integ),
        "swing.integrate_s": total("swing.integrate"),
        "swing.field_evals": field_evals,
        "swing.rk_steps": steps,
        "faultstudy.verdicts": verdicts,
        "faultstudy.verdict_self_s": total("faultstudy.first_swing_stable", self_t),
        "faultstudy.bisection_steps": bisection,
        "faultstudy.true_cct_calls": calls("faultstudy.true_cct"),
        "faultstudy.true_cct_s": total("faultstudy.true_cct"),
        "faultstudy.build_context_s": total("faultstudy.build_context"),
        "energy.fault_on_calls": calls("energy.fault_on_trajectory"),
        "energy.fault_on_s": total("energy.fault_on_trajectory"),
        "energy.tau_H_s": total("energy.tau_H"),
        "energy.tau_A_s": total("energy.tau_A"),
        "equilibria.enum_calls": calls("equilibria.stationary_points"),
        "equilibria.enum_s": total("equilibria.stationary_points"),
        "equilibria.newton_starts": starts,
        "equilibria.roots_found": roots,
        "equilibria.find_sep_calls": calls("equilibria.find_sep"),
        "equilibria.find_sep_s": total("equilibria.find_sep"),
        "equilibria.factory_calls": calls("equilibria.factory"),
        "equilibria.continue_self_s": total("equilibria.continue_branch", self_t),
        "netmodel.reduce_calls": calls("netmodel.reduce_to_generators"),
        "netmodel.reduce_s": total("netmodel.reduce_to_generators"),
        "report.emit_s": total("report.emit_reports"),
        "report.bytes_written": counter("report.emit_reports", "bytes"),
        "scenario.load_s": total("scenario.load_scenario"),
    }
    out = {k: v / units for k, v in per_unit.items()}
    out["swing.field_evals_per_step"] = ratio(field_evals, steps)
    out["faultstudy.field_evals_per_verdict"] = ratio(verdict_evals, verdicts)
    out["equilibria.root_yield"] = ratio(roots, starts)
    return out
