"""Cross-check traced numbers against the ROADMAP baseline.

    python3 perfbench/crosscheck.py

Traces the library calls the ROADMAP baseline timed: `normal_form` on the
growing paper system, `analyze` on the Hill system with an inconclusive
trace, and `normal_form` on criterion-7 random specs (the `periodic_random`
inputs of seed 1, a tuning seed).  Prints each measured value beside the
baseline figure; NOTES.md records the outcome.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def traced_call(tracer, fn, *args):
    """Run fn once under the tracer; return (seconds, self seconds by span
    name, calls by span name)."""
    first = len(tracer.spans)
    tracer.active = True
    try:
        fn(*args)
    finally:
        tracer.active = False
    _, own, calls = tracer.totals(first)
    _, start, end, _, _ = tracer.spans[first]
    return end - start, own, calls


def untraced_ms(fn, *args):
    """Median wall time of fn over REPEATS calls with recording off."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def main():
    tracer = Tracer()
    importlib.import_module("qfloquet")
    tracer.install()
    from qfloquet.expressions import MatrixSpec, parse
    from qfloquet.floquet import normal_form
    from qfloquet.hill import HillProblem, analyze

    growing = MatrixSpec.from_strings(workloads.PAPER_SYSTEMS[0][1], math.pi)
    runs = [traced_call(tracer, normal_form, growing) for _ in range(REPEATS)]
    print(f"normal_form, growing fixture: "
          f"{1000 * statistics.median(r[0] for r in runs):.1f} ms traced, "
          f"{untraced_ms(normal_form, growing):.1f} ms untraced "
          f"(baseline 133 ms); expm calls {runs[0][2]['qmatrix.expm']} "
          f"(baseline about 66)")

    hill = HillProblem(parse("2 + j*cos(2*t)^2 + k*sin(2*t)"), math.pi)
    runs = [traced_call(tracer, analyze, hill) for _ in range(REPEATS)]
    print(f"analyze, inconclusive Hill fixture: "
          f"{1000 * statistics.median(r[0] for r in runs):.1f} ms traced, "
          f"{untraced_ms(analyze, hill):.1f} ms untraced (baseline 80 ms)")

    randoms = itertools.islice(workloads.periodic_inputs(1),
                               len(workloads.PAPER_SYSTEMS), None)
    for unit in itertools.islice(randoms, 3):
        rows = [unit.sources[:2], unit.sources[2:]]
        spec = MatrixSpec.from_strings(rows, math.pi)
        seconds, own, calls = traced_call(tracer, normal_form, spec)
        print(f"normal_form, {unit.label}: {seconds:.3f} s traced, "
              f"{untraced_ms(normal_form, spec) / 1000:.3f} s untraced "
              f"(baseline 1.4 s); "
              f"expression evaluation {own['expressions.evaluate']:.3f} s = "
              f"{own['expressions.evaluate'] / seconds:.0%} (baseline 55%); "
              f"expm calls {calls['qmatrix.expm']} (baseline about 66)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
