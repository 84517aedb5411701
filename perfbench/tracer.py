"""Per-layer tracing of piezobeam from outside the package.

The tracer replaces each traced public function with a wrapper that records
a span: name, parent span, CPU time (time.process_time) and wall time
(time.perf_counter), plus counts taken from the call's arguments and return
value.  Modules that bound a function at import time (cli, scenarios,
solvers, ...) call it through their own global name, so the wrapper is
installed on every module attribute that holds the original function, the
defining module's included.  Spans stay in memory, and nothing is written
while a pass runs; each pass's spans become per-layer figures when it ends.

A layer's self time is its span minus its direct child spans; calls are
nested on one thread, so the children cover disjoint parts of the parent.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import time

# module -> public functions traced in it.
TRACED = {
    "cli": ("cmd_simulate", "cmd_modes", "cmd_check", "cmd_limit"),
    "config": ("parse_config",),
    "mesh": ("build_mesh",),
    "layout": ("build_layout",),
    "assembly": ("build_system",),
    "solvers": ("step_operator", "simulate", "eigenmodes"),
    "kernels": ("midpoint_sweep",),
    "forms": ("eval_field_at",),
    "scenarios": ("check_single_beam_decoupling", "check_patch_voltage_selectivity",
                  "run_electrostatic_limit", "static_solution"),
    "output": ("write_csv", "write_json", "svg_line_plot"),
}
FACTOR_BUILD = "solvers.FactorizedOperator.build"

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("mesh.build_s", "s", "lower"),
    ("assembly.assemble_s", "s", "lower"),
    ("assembly.systems", "count", "lower"),
    ("assembly.matrix_mb", "MB", "lower"),
    ("solvers.factor_s", "s", "lower"),
    ("solvers.factor_builds", "count", "lower"),
    ("solvers.factor_hit_ratio", "1", "higher"),
    ("solvers.ledger_s", "s", "lower"),
    ("solvers.eigen_s", "s", "lower"),
    ("solvers.eigen_dofs", "count", "lower"),
    ("kernels.sweep_s", "s", "lower"),
    ("kernels.steps", "count", "lower"),
    ("kernels.step_us", "us", "lower"),
    ("kernels.recorded_rows", "count", "lower"),
    ("kernels.operator_entries", "count", "lower"),
    ("kernels.bytes_per_step", "B", "lower"),
    ("forms.probe_calls", "count", "lower"),
    ("forms.probe_s", "s", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("scenarios.static_s", "s", "lower"),
    ("output.write_s", "s", "lower"),
    ("output.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
MB = float(1 << 20)


def entries(a) -> int:
    """Stored entries of an operator: nnz when sparse, the size when dense."""
    return int(a.nnz) if hasattr(a, "nnz") else int(a.size)


def stored_bytes(a) -> int:
    if hasattr(a, "nnz"):
        return sum(int(getattr(a, k).nbytes) for k in ("data", "indices", "indptr", "offsets")
                   if hasattr(a, k))
    return int(a.nbytes)


def _sweep_counts(args, result) -> dict:
    L, M, K, bvolts = args["L"], args["M"], args["K"], args["bvolts"]
    n = len(args["x0"])
    # Computed, not measured: every operator array and six n-vectors (x, v,
    # rhs, y, v_new and the load row) read once per step.
    per_step = sum(stored_bytes(a) for a in (L, M, K)) + 6 * 8 * n
    return {"steps": int(bvolts.shape[0]), "rows": len(args["rec_steps"]),
            "entries": sum(entries(a) for a in (L, M, K)), "bytes_per_step": per_step}


def _system_counts(args, result) -> dict:
    return {"bytes": sum(stored_bytes(a) for a in (result.M, result.K, result.B))}


def _eigen_counts(args, result) -> dict:
    return {"dofs": int(args["M"].shape[0])}


def _write_counts(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


_COUNTS = {
    "kernels.midpoint_sweep": _sweep_counts,
    "assembly.build_system": _system_counts,
    "solvers.eigenmodes": _eigen_counts,
    "output.write_csv": _write_counts,
    "output.write_json": _write_counts,
    "output.svg_line_plot": _write_counts,
}


class Span:
    __slots__ = ("name", "parent", "cpu", "wall", "counts")

    def __init__(self, name: str, parent: int):
        self.name, self.parent = name, parent
        self.cpu = self.wall = 0.0
        self.counts = None


class Tracer:
    """Spans of traced calls, in call order, since the last take()."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []  # (owner, attribute, original) of every installed wrapper

    def take(self) -> list:
        """The spans recorded so far; recording starts again on an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        counts = _COUNTS.get(name)
        sig = inspect.signature(fn) if counts else None
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = time.process_time() - c0
                span.wall = time.perf_counter() - w0
                stack.pop()
            if counts:
                span.counts = counts(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced function on every name it is bound to."""
        self.missing = []
        mods = {m: importlib.import_module(f"piezobeam.{m}") for m in TRACED}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "piezobeam" or key.startswith("piezobeam.")]
        for m, names in TRACED.items():
            for fname in names:
                fn = getattr(mods[m], fname, None)
                if fn is None:
                    self.missing.append(f"{m}.{fname}")
                    continue
                wrapper = self._wrap(f"{m}.{fname}", fn)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapper)
        op = getattr(mods["solvers"], "FactorizedOperator", None)
        build = vars(op).get("build") if op is not None else None
        if isinstance(build, classmethod):
            self._set(op, "build", classmethod(self._wrap(FACTOR_BUILD, build.__func__)))
        else:
            self.missing.append(FACTOR_BUILD)


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one pass, from the spans take() returned.

    Covers every metric in LAYER_METRICS but cli.import_s and
    trace.overhead_s, which are measured outside a pass.
    """
    child_cpu = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_cpu[s.parent] += s.cpu

    def of(*names):
        return [(i, s) for i, s in enumerate(spans) if s.name in names]

    def total(*names):
        return sum(s.cpu for _, s in of(*names))

    def self_time(*names):
        return sum(s.cpu - child_cpu[i] for i, s in of(*names))

    def counted(name, key):
        return [s.counts[key] for _, s in of(name)]

    step_calls = of("solvers.step_operator")
    builds = [s for s in spans if s.name == FACTOR_BUILD and s.parent >= 0
              and spans[s.parent].name == "solvers.step_operator"]
    sweep_s = total("kernels.midpoint_sweep")
    steps = counted("kernels.midpoint_sweep", "steps")
    per_step = counted("kernels.midpoint_sweep", "bytes_per_step")
    systems = counted("assembly.build_system", "bytes")
    writes = ("output.write_csv", "output.write_json", "output.svg_line_plot")
    return {
        "cli.self_s": self_time("cli.cmd_simulate", "cli.cmd_modes",
                                "cli.cmd_check", "cli.cmd_limit"),
        "config.parse_s": total("config.parse_config"),
        "mesh.build_s": total("mesh.build_mesh", "layout.build_layout"),
        "assembly.assemble_s": self_time("assembly.build_system"),
        "assembly.systems": len(systems),
        "assembly.matrix_mb": max(systems, default=0) / MB,
        "solvers.factor_s": total("solvers.step_operator"),
        "solvers.factor_builds": len(builds),
        "solvers.factor_hit_ratio":
            1.0 - len(builds) / len(step_calls) if step_calls else 0.0,
        "solvers.ledger_s": self_time("solvers.simulate"),
        "solvers.eigen_s": total("solvers.eigenmodes"),
        "solvers.eigen_dofs": sum(counted("solvers.eigenmodes", "dofs")),
        "kernels.sweep_s": sweep_s,
        "kernels.steps": sum(steps),
        "kernels.step_us": 1e6 * sweep_s / sum(steps) if sum(steps) else 0.0,
        "kernels.recorded_rows": sum(counted("kernels.midpoint_sweep", "rows")),
        "kernels.operator_entries":
            max(counted("kernels.midpoint_sweep", "entries"), default=0),
        "kernels.bytes_per_step":
            sum(n * b for n, b in zip(steps, per_step)) / sum(steps) if sum(steps) else 0.0,
        "forms.probe_calls": len(of("forms.eval_field_at")),
        "forms.probe_s": total("forms.eval_field_at"),
        "scenarios.self_s": self_time("scenarios.check_single_beam_decoupling",
                                      "scenarios.check_patch_voltage_selectivity",
                                      "scenarios.run_electrostatic_limit"),
        "scenarios.static_s": total("scenarios.static_solution"),
        "output.write_s": total(*writes),
        "output.bytes": sum(s.counts["bytes"] for _, s in of(*writes)),
    }


def median_metrics(passes: list) -> dict:
    """Median over passes of each figure from layer_metrics."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
