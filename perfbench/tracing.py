"""Spans and counters around qfloquet's public functions, for the traced run.

Each wrapped function is replaced wherever qfloquet's modules look it up
(every module global bound to it, or the class attribute), so nested calls
record nested spans: `logm` calls `expm`, `normal_form` calls `integrate`.
Calls that cost about as much as a wrapper (`Quaternion.__mul__`, `qexp`,
`QMatrix` construction) get counters only, as does `quaternion_schur`, whose
count gives the share of `logm` calls that reach the Schur branch.  Nothing
is recorded while `active` is false, so the benchmark's own checks stay out.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path) of the function it wraps
SPANS = (
    ("cli.main", "qfloquet.cli", "main"),
    ("expressions.parse", "qfloquet.expressions", "parse"),
    ("expressions.evaluate", "qfloquet.expressions", "MatrixSpec.evaluate"),
    ("expressions.periodicity_check", "qfloquet.expressions",
     "MatrixSpec.periodicity_residual"),
    ("hill.problem_init", "qfloquet.hill", "HillProblem.__post_init__"),
    ("integrate.integrate", "qfloquet.integrate", "integrate"),
    ("integrate.trace_quadrature", "qfloquet.integrate", "trace_integral"),
    ("qmatrix.eig", "qfloquet.qmatrix", "standard_eigenvalues"),
    ("qmatrix.expm", "qfloquet.qmatrix", "expm"),
    ("qmatrix.logm", "qfloquet.qmatrix", "logm"),
    ("floquet.normal_form", "qfloquet.floquet", "normal_form"),
    ("floquet.checks", "qfloquet.floquet", "multiplier_product_check"),
    ("floquet.checks", "qfloquet.floquet", "exponent_sum_residual"),
    ("floquet.classify", "qfloquet.floquet", "classify_constant"),
    ("floquet.classify", "qfloquet.floquet", "classify_multipliers"),
    ("hill.analyze", "qfloquet.hill", "analyze"),
)
COUNTERS = (
    ("quaternion.products", "qfloquet.quaternion", "Quaternion.__mul__"),
    ("quaternion.qexp_calls", "qfloquet.quaternion", "qexp"),
    ("qmatrix.objects_created", "qfloquet.qmatrix", "QMatrix.__init__"),
    ("qmatrix.schur_calls", "qfloquet.qmatrix", "quaternion_schur"),
)


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, unit)."""

    def __init__(self):
        self.active = False
        self.unit = -1
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, perf_counter(), parent,
                                     self.unit)
                self._stack.pop()
            if name == "integrate.integrate":
                self.counts["integrate.accepted_steps"] += len(result.times) - 1
            return result
        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every function in SPANS and COUNTERS."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qfloquet" or n.startswith("qfloquet.")]
        for kind, table in ((self.span, SPANS), (self.counter, COUNTERS)):
            for name, module_name, path in table:
                owner = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, kind(name, getattr(cls, attr)))
                    continue
                fn = getattr(owner, path)
                wrapper = kind(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def write_spans(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("index", "name", "start", "end", "parent", "unit"))
            for index, (name, start, end, parent, unit) in enumerate(self.spans):
                writer.writerow((index, name, repr(start), repr(end), parent,
                                 unit))

    def totals(self, first=0):
        """(inclusive seconds, self seconds, calls) by span name, over the
        spans recorded from index `first` on."""
        child = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + end - start
        total, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans[first:],
                                                         first):
            total[name] += end - start
            own[name] += end - start - child.get(index, 0.0)
            calls[name] += 1
        return total, own, calls

    def layer_metrics(self, units):
        """Per-layer metrics, each per unit of work: counts and seconds."""
        total, own, calls = self.totals()
        rhs_evals = sum(1 for name, _, _, parent, _ in self.spans
                        if name == "expressions.evaluate" and parent >= 0
                        and self.spans[parent][0] == "integrate.integrate")
        steps = self.counts["integrate.accepted_steps"]
        logm_calls = calls["qmatrix.logm"]
        raw = {
            "expressions.evaluate_calls": calls["expressions.evaluate"],
            "expressions.evaluate_self_s": own["expressions.evaluate"],
            "expressions.parse_s": total["expressions.parse"],
            "expressions.periodicity_check_s":
                total["expressions.periodicity_check"],
            "quaternion.products": self.counts["quaternion.products"],
            "quaternion.qexp_calls": self.counts["quaternion.qexp_calls"],
            "hill.problem_init_s": total["hill.problem_init"],
            "integrate.calls": calls["integrate.integrate"],
            "integrate.self_s": own["integrate.integrate"],
            "integrate.accepted_steps": steps,
            "integrate.rhs_evals": rhs_evals,
            "integrate.trace_quadrature_s": total["integrate.trace_quadrature"],
            "qmatrix.objects_created": self.counts["qmatrix.objects_created"],
            "qmatrix.eig_calls": calls["qmatrix.eig"],
            "qmatrix.eig_self_s": own["qmatrix.eig"],
            "qmatrix.expm_calls": calls["qmatrix.expm"],
            "qmatrix.expm_self_s": own["qmatrix.expm"],
            "qmatrix.logm_calls": logm_calls,
            "qmatrix.logm_self_s": own["qmatrix.logm"],
            "floquet.normal_form_self_s": own["floquet.normal_form"],
            "floquet.checks_s": total["floquet.checks"],
            "floquet.classify_s": total["floquet.classify"],
            "hill.analyze_self_s": own["hill.analyze"],
            "cli.main_self_s": own["cli.main"],
        }
        metrics = {name: value / units for name, value in raw.items()}
        metrics["integrate.rhs_per_step"] = rhs_evals / steps if steps else 0.0
        metrics["qmatrix.logm_schur_share"] = (
            self.counts["qmatrix.schur_calls"] / logm_calls if logm_calls else 0.0)
        return metrics
