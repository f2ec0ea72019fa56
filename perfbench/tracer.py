"""Per-layer spans around the public functions of thetalab's modules.

``install()`` wraps each function listed in LAYERS and rebinds every name in
the ``thetalab`` modules that refers to it, because modules bind these names
at import (``from .theta import odd_theta`` in surface, trace and cli).  A
span's self time is its duration minus the durations of the spans it
directly encloses.  Counts are taken at the same boundaries: lattice terms
from the kernel's radius argument, radii from truncation_radius's result,
points from the outermost evaluator call, Newton work from trace_curve's
returned TraceResult.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

LAYERS = {
    "kernel": ("<kernel>", ("theta_sum", "theta_sum_grad")),
    "truncation": ("thetalab.theta", ("truncation_radius",)),
    "evaluator": ("thetalab.theta",
                  ("theta_char", "odd_theta", "odd_theta_with_gradient", "theta_basis")),
    "surface": ("thetalab.surface",
                ("two_torsion_scan", "quasi_periodicity_check", "minus_one_action",
                 "product_case_components", "four_copy_scan")),
    "trace": ("thetalab.trace", ("trace_curve",)),
    "twotorsion": ("thetalab.twotorsion",
                   ("enumerate_klein", "z23_contains_isotropic", "orthogonal_complement",
                    "classify_klein_cover")),
    "lattice": ("thetalab.lattice",
                ("quotient_polarization_type", "feasible_genera", "half_torsion_dictionary")),
    "exact": ("thetalab.exact", ("integer_snf", "det", "inverse")),
    "decomposition": ("thetalab.decomposition",
                      ("assemble_decomposition", "validate_presentation")),
    "cli": ("thetalab.cli", ("main",)),
    "report": ("thetalab.report:Report", ("render",)),
}

SPAN_CAP = 50_000


class Recorder:
    def __init__(self):
        self.stack = []          # frames [layer, child_ns, span_id]
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.fn = {}             # "layer.name" -> [calls, inclusive_ns, self_ns]
        self.kernel_calls = 0
        self.kernel_terms = 0
        self.trunc_calls = 0
        self.trunc_radius_sum = 0
        self.points = 0
        self.grad_points = 0
        self.newton_calls = 0
        self.trace_points = 0
        self.lines_missed = 0
        self.missing = []
        self.spans = []          # raw spans of the answers being recorded
        self.recording = None    # answer id while recording raw spans
        self.paused = False      # True while the benchmark's own checks call the library
        self._next_id = 0

    def wrap(self, layer, name, fn):
        rec = self
        key = f"{layer}.{name}"
        rec.fn.setdefault(key, [0, 0, 0])

        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            stack = rec.stack
            parent = stack[-1] if stack else None
            rec._next_id += 1
            frame = [layer, 0, rec._next_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                rec.self_ns[layer] += own
                stats = rec.fn[key]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                if parent is not None:
                    parent[1] += dur
                rec._count(layer, name, args, result, parent)
                if rec.recording is not None and len(rec.spans) < SPAN_CAP:
                    rec.spans.append((frame[2], parent[2] if parent else None, layer, name,
                                      t0, t1, rec.recording))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer, name, args, result, parent):
        if layer == "kernel":
            r = args[-1]
            self.kernel_calls += 1
            self.kernel_terms += (2 * r + 1) ** 2
        elif layer == "truncation" and result is not None:
            self.trunc_calls += 1
            self.trunc_radius_sum += result
        elif layer == "evaluator" and (parent is None or parent[0] != "evaluator"):
            self.points += 1
            if name == "odd_theta_with_gradient":
                self.grad_points += 1
        elif layer == "trace" and result is not None:
            self.newton_calls += result.newton_calls
            self.trace_points += len(result.points)
            self.lines_missed += len(result.failures)

    def _inclusive_s(self, key):
        return self.fn.get(key, [0, 0, 0])[1] / 1e9

    def metrics(self, answers: int) -> dict:
        s = {layer: ns / 1e9 for layer, ns in self.self_ns.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "kernel.calls": (self.kernel_calls, "count"),
            "kernel.terms": (self.kernel_terms, "count"),
            "kernel.self_s": (s["kernel"], "s"),
            "kernel.ns_per_term": (ratio(self.self_ns["kernel"], self.kernel_terms), "ns"),
            "truncation.calls": (self.trunc_calls, "count"),
            "truncation.radius_mean": (ratio(self.trunc_radius_sum, self.trunc_calls), "count"),
            "truncation.self_s": (s["truncation"], "s"),
            "truncation.calls_per_point": (ratio(self.trunc_calls, self.points), "ratio"),
            "evaluator.points": (self.points, "count"),
            "evaluator.grad_points": (self.grad_points, "count"),
            "evaluator.self_s": (s["evaluator"], "s"),
            "evaluator.us_per_point": (ratio(self.self_ns["evaluator"] / 1e3, self.points), "us"),
            "surface.self_s": (s["surface"], "s"),
            "surface.points_per_answer": (ratio(self.points, answers), "count"),
            "trace.self_s": (s["trace"], "s"),
            "trace.newton_calls": (self.newton_calls, "count"),
            "trace.points": (self.trace_points, "count"),
            "trace.lines_missed": (self.lines_missed, "count"),
            "trace.calls_per_point": (ratio(self.newton_calls, self.trace_points), "ratio"),
            "twotorsion.self_s": (s["twotorsion"], "s"),
            "twotorsion.z23_s": (self._inclusive_s("twotorsion.z23_contains_isotropic"), "s"),
            "twotorsion.enumerate_s": (self._inclusive_s("twotorsion.enumerate_klein"), "s"),
            "lattice.self_s": (s["lattice"], "s"),
            "exact.self_s": (s["exact"], "s"),
            "decomposition.self_s": (s["decomposition"], "s"),
            "cli.self_s": (s["cli"], "s"),
            "report.self_s": (s["report"], "s"),
        }


def _resolve(path):
    """The module (or class, for "module:Class") that owns a layer's names."""
    if path == "<kernel>":
        return getattr(sys.modules["thetalab.theta"], "_KERNEL", None)
    mod_name, _, cls_name = path.partition(":")
    owner = sys.modules.get(mod_name)
    return getattr(owner, cls_name, None) if cls_name and owner else owner


def install(rec: Recorder) -> None:
    """Wrap every function in LAYERS and rebind each reference to it."""
    import thetalab  # noqa: F401  (loads every module the layers name)

    owners = [m for n, m in sys.modules.items() if n == "thetalab" or n.startswith("thetalab.")]
    for layer, (path, names) in LAYERS.items():
        owner = _resolve(path)
        for name in names:
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                rec.missing.append(f"{layer}.{name}")
                continue
            wrapped = rec.wrap(layer, name, fn)
            setattr(owner, name, wrapped)
            for mod in owners:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
