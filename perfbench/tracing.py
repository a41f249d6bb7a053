"""Outside-in tracing of midsampling's layer entry points.

Each public function of the layer modules is wrapped where every module of
the package binds it: ``planner``, ``risks``, ``scheme`` and ``welmec`` import
kernel functions by name, so wrapping ``kernel.hypergeometric_cdf`` alone
would miss their calls.  A call stack gives each call its self time (its
duration minus the time of the wrapped calls it made).  Calls outside the
kernel become spans ``(name, start, end, parent, request, kernel_calls,
kernel_s)``, kept in memory; kernel calls, a few hundred thousand per run,
are only aggregated into counts and times, per name and per parent span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from dataclasses import dataclass

import numpy as np

PACKAGE = "midsampling"
LAYERS = ("kernel", "risks", "planner", "scheme", "welmec", "cli")
#: Wrapped names that are not in their module's ``__all__``.
EXTRA_NAMES = {"kernel": ("_hypergeometric_cdf_bulk",), "cli": ("main",)}
#: The scalar tail routines: the planner's tail evaluations.
SCALAR = ("kernel.hypergeometric_cdf", "kernel.binomial_cdf")


def _hypergeometric_terms(args, kwargs, result):
    c, n, K, N = args
    if c >= min(K, n):
        return 0
    x_lo = max(0, n - (N - K))
    return 0 if c < x_lo else c - x_lo + 1


def _binomial_terms(args, kwargs, result):
    c, n, p = args
    return 0 if c == n or float(p) in (0.0, 1.0) else c + 1


def _bulk_elements(args, kwargs, result):
    return int(np.asarray(result).size)


def _points(args, kwargs, result):
    return len(result)


#: Work counted per call, from the arguments or the result.
WORK = {
    "kernel.hypergeometric_cdf": _hypergeometric_terms,
    "kernel.binomial_cdf": _binomial_terms,
    "kernel._hypergeometric_cdf_bulk": _bulk_elements,
    "risks.oc_curve": _points,
}


@dataclass
class Stat:
    calls: int = 0
    entries: int = 0  # calls made from outside the function's own layer
    inner_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    scalar_below: int = 0  # scalar kernel calls made inside these calls


class Tracer:
    """Wraps the layer entry points on :meth:`install` and restores them on
    :meth:`uninstall`.  ``request_id`` tags the spans of the current request."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.absent = {}
        self.request_id = None
        self._stack = []
        self._patched = []

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            names = list(getattr(module, "__all__", ())) + list(EXTRA_NAMES.get(layer, ()))
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent[f"{layer}.{name}"] = f"{module.__name__} defines no {name}"
                elif isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (f"{layer}.{name}", fn)
        wrappers = {
            key: self._wrap(qualname, fn) for key, (qualname, fn) in originals.items()
        }
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, Stat())
        layer = qualname.split(".", 1)[0]
        spanned = layer != "kernel"
        scalar = qualname in SCALAR
        work = WORK.get(qualname)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            if not stack or stack[-1][0] != layer:
                stat.entries += 1
            # layer, child time, scalar calls below, span index, kernel calls, kernel time
            frame = [layer, 0.0, 0, -1, 0, 0.0]
            if spanned:
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
            inner = t2 - t1
            stat.calls += 1
            stat.inner_s += inner
            stat.self_s += inner - frame[1]
            stat.scalar_below += frame[2]
            if work is not None:
                stat.work += work(args, kwargs, result)
            if scalar:
                for outer in stack:
                    outer[2] += 1
            parent = next((f for f in reversed(stack) if f[3] >= 0), None)
            if spanned:
                spans[frame[3]] = (
                    qualname, t1, t2, -1 if parent is None else parent[3],
                    self.request_id, frame[4], frame[5],
                )
            elif parent is not None:
                parent[4] += 1
                parent[5] += inner
            if stack:
                stack[-1][1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in filter(None, self.spans):  # None: the call raised
                name, start, end, parent, request, kernel_calls, kernel_s = span
                out.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "request": request, "kernel_calls": kernel_calls, "kernel_s": kernel_s,
                }) + "\n")


class Absent(Exception):
    """A per-layer metric cannot be computed; the message gives the reason."""


def _stat(tracer: Tracer, qualname: str) -> Stat:
    if qualname not in tracer.stats:
        raise Absent(tracer.absent.get(qualname, f"{qualname} is not wrapped"))
    return tracer.stats[qualname]


def _ratio(num: float, den: float, what: str) -> float:
    if den == 0:
        raise Absent(f"no {what} on this workload")
    return num / den


def _layer(tracer: Tracer, layer: str) -> list:
    return [s for name, s in tracer.stats.items() if name.startswith(layer + ".")]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced pass: name -> (value, unit, absent reason)."""
    def scalar():
        return [_stat(tracer, name) for name in SCALAR]

    def interp():
        return [_stat(tracer, "kernel.interpolated_acceptance"),
                _stat(tracer, "kernel.interpolated_acceptance_curve")]

    def risks_self():
        stats = _layer(tracer, "risks")
        return _ratio(1e6 * sum(s.self_s for s in stats), sum(s.entries for s in stats),
                      "calls into risks")

    def planner_self():
        plans = _stat(tracer, "planner.optimal_plan").calls
        return _ratio(1e6 * sum(s.self_s for s in _layer(tracer, "planner")), plans,
                      "optimal_plan calls")

    def welmec_share():
        compare = _stat(tracer, "welmec.compare_interpretations")
        own = sum(s.self_s for s in _layer(tracer, "welmec"))
        return _ratio(own, compare.inner_s, "compare_interpretations calls")

    definitions = {
        "kernel.scalar_calls": (lambda: sum(s.calls for s in scalar()), "count"),
        "kernel.bulk_elements": (lambda: _stat(tracer, "kernel._hypergeometric_cdf_bulk").work,
                                 "count"),
        "kernel.interp_calls": (lambda: sum(s.calls for s in interp()), "count"),
        "kernel.scalar_terms": (lambda: _ratio(sum(s.work for s in scalar()),
                                               sum(s.calls for s in scalar()),
                                               "scalar tail evaluations"), "terms/call"),
        "kernel.scalar_us": (lambda: _ratio(1e6 * sum(s.inner_s for s in scalar()),
                                            sum(s.calls for s in scalar()),
                                            "scalar tail evaluations"), "us"),
        "kernel.interp_us": (lambda: _ratio(1e6 * sum(s.inner_s for s in interp()),
                                            sum(s.calls for s in interp()),
                                            "interpolated evaluations"), "us"),
        "kernel.bulk_ns_per_element": (
            lambda: _ratio(1e9 * _stat(tracer, "kernel._hypergeometric_cdf_bulk").inner_s,
                           _stat(tracer, "kernel._hypergeometric_cdf_bulk").work,
                           "bulk kernel elements"), "ns"),
        "planner.tail_evals_per_plan": (
            lambda: _ratio(_stat(tracer, "planner.optimal_plan").scalar_below,
                           _stat(tracer, "planner.optimal_plan").calls,
                           "optimal_plan calls"), "count"),
        "planner.self_us_per_plan": (planner_self, "us"),
        "risks.self_us_per_call": (risks_self, "us"),
        "risks.oc_us_per_point": (
            lambda: _ratio(1e6 * _stat(tracer, "risks.oc_curve").inner_s,
                           _stat(tracer, "risks.oc_curve").work, "OC points"), "us"),
        "scheme.self_share": (
            lambda: _ratio(_stat(tracer, "scheme.validate_scheme").self_s,
                           _stat(tracer, "scheme.validate_scheme").inner_s,
                           "validate_scheme calls"), "fraction"),
        "welmec.compare_ms": (
            lambda: _ratio(1e3 * _stat(tracer, "welmec.compare_interpretations").inner_s,
                           _stat(tracer, "welmec.compare_interpretations").calls,
                           "compare_interpretations calls"), "ms"),
        "welmec.self_share": (welmec_share, "fraction"),
    }
    return {name: _measure(compute, unit) for name, (compute, unit) in definitions.items()}


def _measure(compute, unit: str) -> tuple:
    """(value, unit, reason): value 0 and the reason when the metric is absent."""
    try:
        return float(compute()), unit, None
    except Absent as reason:
        return 0.0, unit, str(reason)


def cli_metrics(tracer: Tracer) -> dict:
    """cli.main_ms and cli.overhead_ms of a traced replay through cli.main."""
    def main_ms():
        main = _stat(tracer, "cli.main")
        return _ratio(1e3 * main.inner_s, main.calls, "cli.main calls")

    def overhead_ms():
        own = sum(s.self_s for s in _layer(tracer, "cli"))
        return _ratio(1e3 * own, _stat(tracer, "cli.main").calls, "cli.main calls")

    return {"cli.main_ms": _measure(main_ms, "ms"), "cli.overhead_ms": _measure(overhead_ms, "ms")}
