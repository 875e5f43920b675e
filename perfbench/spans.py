"""Span tracing of traplab installed from outside the package.

A ``Tracer`` wraps public functions of the traplab modules, the
``MetricJet2`` constructor and ``inverse`` method, the ``verify`` suites and
five ``numpy.linalg`` kernels.  Each wrapper is rebound under every name that
refers to the original function in any loaded traplab module, so calls made
through ``from .geometry import riemann`` in ``energy`` or ``verify`` are
traced as well as calls inside the defining module.

Spans are kept in memory as tuples ``(id, parent, request, name, start, end,
note)`` and summarized or written out after the traced passes.  The self time
of a span is its duration minus the durations of its direct child spans, so
it includes any untraced code the function runs (metric-field closures, for
example, count towards the function that evaluates them).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import statistics
import sys
import time
from collections import defaultdict

import numpy.linalg

# (module, function, note) — the note, when given, is computed from
# (args, kwargs, result) after a call that returned and is stored on the span.
FUNCTIONS = [
    ("geometry", "christoffel", None),
    ("geometry", "christoffel_derivative", None),
    ("geometry", "riemann", None),
    ("geometry", "lorentz_frame", None),
    ("submanifold", "extrinsic_data", None),
    ("submanifold", "null_frame", None),
    ("submanifold", "trapping_classify", lambda a, k, r: len(r.per_point)),
    ("conformal", "rescale_metric", None),
    ("conformal", "bump", None),
    ("conformal", "trapping_perturbation", None),
    ("initial_data", "constraint_quantities", None),
    ("initial_data", "initial_data_expansions", None),
    ("stability", "stability_coefficients", None),
    ("stability", "deformation_check", None),
    ("stability", "assemble_stability_operator", None),
    ("stability", "principal_eigenvalue", lambda a, k, r: len(r.eigenfunction)),
    ("energy", "condition_suite", lambda a, k, r: len(a[1])),
    ("energy", "sample_cone", None),
    ("energy", "tidal_operator", None),
    ("scenarios", "build_scenario", None),
    ("reporting", "build_report", None),
    ("reporting", "report_bytes", None),
    ("reporting", "write_report_json", None),
    ("reporting", "write_eigenfunction_csv", None),
    ("cli", "execute_config", lambda a, k, r: a[0].get("command")),
    ("cli", "main", lambda a, k, r: a[0][0]),
]
LINALG_KERNELS = ("eig", "svd", "eigvalsh", "inv", "cond")

# Span names reported as ``.calls`` and ``.self_s`` on every workload.
TIMED = [
    "geometry.MetricJet2", "geometry.MetricJet2.inverse", "geometry.christoffel",
    "geometry.christoffel_derivative", "geometry.riemann", "geometry.lorentz_frame",
    "submanifold.extrinsic_data", "submanifold.null_frame", "submanifold.trapping_classify",
    "conformal.rescale_metric", "conformal.bump", "conformal.trapping_perturbation",
    "initial_data.constraint_quantities", "initial_data.initial_data_expansions",
    "stability.stability_coefficients", "stability.deformation_check",
    "stability.assemble_stability_operator", "stability.principal_eigenvalue",
    "energy.condition_suite", "energy.sample_cone", "energy.tidal_operator",
    "scenarios.build_scenario", "reporting.build_report", "reporting.report_bytes",
    "reporting.write_report_json", "reporting.write_eigenfunction_csv",
    "linear_analysis", "linalg.eig",
]
# Span names reported as ``.calls`` only, and the verify suites, by name.
COUNTED = ["linalg.svd", "linalg.eigvalsh", "linalg.inv", "linalg.cond"]
SUITES = [
    "curvature-perturbation", "trapping-construction", "conformal-dual-path",
    "curvature-axioms", "energy-chain", "constraints", "spectral-suite", "deformation",
    "linear-lemmas", "spectral-properties", "determinism",
]
RATIOS = [
    "ratio.metric_jets_per_extrinsic",
    "ratio.extrinsic_per_classified_sample",
    "ratio.riemann_per_energy_point",
    "ratio.eigensolves_per_spectrum_request",
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, as in BENCHMARK.json."""
    spec = []
    for name in TIMED:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [
        ("stability.principal_eigenvalue.order_max", "count", "lower"),
        ("stability.principal_eigenvalue.order_cubed_sum", "count", "lower"),
    ]
    spec += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    spec += [(f"verify.{suite}.total_s", "s", "lower") for suite in SUITES]
    spec.append(("cli.execute_config.total_s", "s", "lower"))
    spec += [(name, "ratio", "lower") for name in RATIOS]
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    return spec


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self.request = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, note=None):
        index = len(self.names)
        self.names.append(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                mark = None if note is None or result is None else note(args, kwargs, result)
                spans.append((sid, parent, self.request, index, start, end, mark))

        return traced

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace ``original`` under every name a traplab module binds it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "traplab" or mod_name.startswith("traplab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> "Tracer":
        from traplab import geometry, linear_analysis, verify

        # import first, so that every module's bindings exist before rebinding
        modules = {mod: importlib.import_module(f"traplab.{mod}") for mod, _, _ in FUNCTIONS}
        for mod, func, note in FUNCTIONS:
            original = getattr(modules[mod], func)
            self._rebind(original, self.wrap(f"{mod}.{func}", original, note))
        for func, original in list(vars(linear_analysis).items()):
            if (inspect.isfunction(original) and not func.startswith("_")
                    and original.__module__ == linear_analysis.__name__):
                self._rebind(original, self.wrap("linear_analysis", original))
        for suite, original in list(verify.SUITES.items()):
            wrapper = self.wrap(f"verify.{suite}", original)
            self._set(verify.SUITES, suite, wrapper)
            self._rebind(original, wrapper)
        jet = geometry.MetricJet2
        self._set(jet, "__init__", self.wrap("geometry.MetricJet2", jet.__init__))
        self._set(jet, "inverse", self.wrap("geometry.MetricJet2.inverse", jet.inverse))
        for kernel in LINALG_KERNELS:
            original = getattr(numpy.linalg, kernel)
            self._set(numpy.linalg, kernel, self.wrap(f"linalg.{kernel}", original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str) -> None:
        """Write every span as CSV, times in ns from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,request,name,start_ns,end_ns,note\n")
            for sid, parent, req, index, start, end, mark in self.spans:
                fh.write(
                    f"{sid},{parent},{req},{self.names[index]},"
                    f"{int((start - origin) * 1e9)},{int((end - origin) * 1e9)},"
                    f"{'' if mark is None else mark}\n"
                )


def summarize_pass(spans: list[tuple], names: list[str]) -> dict:
    """Calls, self time, top-level totals and waste-ratio counts of one pass."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    child = defaultdict(float)
    for sid, parent, _req, _index, start, end, _mark in spans:
        child[parent] += end - start
    # per span id: the names of its enclosing spans, plus "spectrum" inside a
    # spectrum request; parents have smaller ids, so one sorted pass fills it
    context: dict[int, frozenset] = {0: frozenset()}
    counts: dict[str, float] = defaultdict(float)
    orders = []
    for sid, parent, _req, index, start, end, mark in sorted(spans):
        name = names[index]
        above = context.get(parent, frozenset())
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - child[sid]
        if name not in above:
            total_s[name] += duration
        own = {name}
        if name in ("cli.execute_config", "cli.main") and mark == "spectrum":
            own.add("spectrum")
            if "spectrum" not in above:
                counts["spectrum_requests"] += 1
        context[sid] = above | own
        if name == "linalg.eig" and "spectrum" in above:
            counts["spectrum_eigensolves"] += 1
        elif name == "submanifold.extrinsic_data" and "submanifold.trapping_classify" in above:
            counts["classify_extrinsic"] += 1
        elif name == "geometry.riemann" and "energy.condition_suite" in above:
            counts["energy_riemann"] += 1
        elif name == "submanifold.trapping_classify" and mark is not None:
            counts["classified_samples"] += mark
        elif name == "energy.condition_suite" and mark is not None:
            counts["energy_points"] += mark
        elif name == "stability.principal_eigenvalue" and mark is not None:
            orders.append(mark)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in TIMED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["stability.principal_eigenvalue.order_max"] = max(orders, default=0)
    metrics["stability.principal_eigenvalue.order_cubed_sum"] = sum(n**3 for n in orders)
    for name in COUNTED:
        metrics[f"{name}.calls"] = calls[name]
    for suite in SUITES:
        metrics[f"verify.{suite}.total_s"] = total_s[f"verify.{suite}"]
    metrics["cli.execute_config.total_s"] = total_s["cli.execute_config"]
    metrics["ratio.metric_jets_per_extrinsic"] = ratio(
        calls["geometry.MetricJet2"], calls["submanifold.extrinsic_data"])
    metrics["ratio.extrinsic_per_classified_sample"] = ratio(
        counts["classify_extrinsic"], counts["classified_samples"])
    metrics["ratio.riemann_per_energy_point"] = ratio(
        counts["energy_riemann"], counts["energy_points"])
    metrics["ratio.eigensolves_per_spectrum_request"] = ratio(
        counts["spectrum_eigensolves"], counts["spectrum_requests"])
    return {"metrics": metrics, "self_s": dict(self_s)}


# Rows of the layer-share table: a label and the span names it covers; a key
# ending in "." covers every span name it starts.
SHARE_ROWS = [
    ("geometry", ("geometry.",)),
    ("submanifold", ("submanifold.",)),
    ("conformal", ("conformal.",)),
    ("initial_data", ("initial_data.",)),
    ("stability (coefficients, assembly, deformation)",
     ("stability.stability_coefficients", "stability.assemble_stability_operator",
      "stability.deformation_check")),
    ("stability.principal_eigenvalue", ("stability.principal_eigenvalue",)),
    ("linalg.eig", ("linalg.eig",)),
    ("linalg (svd, eigvalsh, inv, cond)",
     ("linalg.svd", "linalg.eigvalsh", "linalg.inv", "linalg.cond")),
    ("energy", ("energy.",)),
    ("scenarios", ("scenarios.",)),
    ("reporting", ("reporting.",)),
    ("linear_analysis", ("linear_analysis",)),
    ("verify (suite bodies)", ("verify.",)),
    ("cli", ("cli.",)),
]


def _covers(keys: tuple[str, ...], name: str) -> bool:
    return any(name == key or (key.endswith(".") and name.startswith(key)) for key in keys)


def layer_shares(pass_self: list[dict], pass_seconds: list[float]) -> list[tuple[str, float]]:
    """Share of traced pass time spent in each row's self time, medians over passes."""
    rows = []
    for label, keys in SHARE_ROWS:
        shares = [
            sum(v for k, v in self_s.items() if _covers(keys, k)) / seconds
            for self_s, seconds in zip(pass_self, pass_seconds)
        ]
        rows.append((label, statistics.median(shares)))
    outside = [
        1.0 - sum(self_s.values()) / seconds for self_s, seconds in zip(pass_self, pass_seconds)
    ]
    rows.append(("outside any span (benchmark client)", statistics.median(outside)))
    return rows
