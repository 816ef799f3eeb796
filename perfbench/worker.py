"""One workload in a fresh interpreter: set-up, then a closed loop of units.

Started by run.py.  Prints `ready` once imports are done and the first batch
of inputs is built and parsed, then runs units one after another (the next
starts only when the previous verdict is back and checked) until the time is
up and at least `--min-units` units are done, or until exactly `--units`
units are done, and prints one JSON line of results.

    python3 perfbench/worker.py --workload hill_chart --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# inputs built and parsed before the first timed unit; later ones are built
# between units, off the clock
SETUP_BATCH = 8


class Clock:
    """Times the program's share of one unit; the tracer records only inside."""

    def __init__(self, tracer, unit):
        self.tracer = tracer
        self.unit = unit
        self.elapsed = 0.0

    def __enter__(self):
        if self.tracer:
            self.tracer.unit = self.unit
            self.tracer.active = True
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self.start
        if self.tracer:
            self.tracer.active = False


def machine_record():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--units", type=int, default=None,
                        help="run exactly this many units instead of timing")
    parser.add_argument("--min-units", type=int, default=0,
                        help="keep going past --seconds until this many ran")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="CSV file for the recorded spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    qf = types.SimpleNamespace(cli=importlib.import_module("qfloquet.cli"),
                               qmatrix=importlib.import_module("qfloquet.qmatrix"))
    parse = importlib.import_module("qfloquet.expressions").parse
    make_inputs, run_unit = workloads.WORKLOADS[args.workload]
    stream = make_inputs(args.seed)
    batch = list(itertools.islice(stream, SETUP_BATCH))
    for unit in batch:
        for source in unit.sources:
            parse(source, unit.variables)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    records = []
    deadline = time.perf_counter() + args.seconds
    for index, unit in enumerate(itertools.chain(batch, stream)):
        if index == args.units or (args.units is None
                                   and index >= args.min_units
                                   and time.perf_counter() >= deadline):
            break
        clock = Clock(tracer, index)
        try:
            outcomes = run_unit(unit, qf, clock)
        except Exception as exc:  # a unit that raises is a failed unit
            outcomes = [(False, [f"raised:{type(exc).__name__}"])] * unit.systems
        records.append({"seconds": clock.elapsed, "outcomes": outcomes})

    result = {"records": records, "machine": machine_record(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["layers"] = tracer.layer_metrics(len(records))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
