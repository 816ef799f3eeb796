"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload end to end at a tiny size (one-second runs, which
   still do the run's fixed CHECKED_UNITS), untraced and traced, through
   run.py, and checks the result line against BENCHMARK.json and the bypass
   expectations of the traced counts.
2. Corrupts real qfloquet outputs (a perturbed multiplier, a wrong channel
   verdict, a broken residual, ...) and checks that the output checks fail
   them under the right name, and that a run holding such an output reports
   `correct: false` while the program's known defects alone do not.

Exits 0 when every step passes.  Run from the root of a qfloquet checkout.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from run import CHECKED_UNITS, WORKLOADS, result_line  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("PASS " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            tag = f"{workload} trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit code 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            per_unit = len(workloads.HILL_GRID) if workload == "hill_chart" else 1
            expect(result["correct"]
                   and result["attempted"] == CHECKED_UNITS[workload] * per_unit,
                   f"{tag}: correct, attempted counts the checked units")
            expect(set(result["metrics"]) == names[trace],
                   f"{tag}: metrics are the BENCHMARK.json set")
            if trace:
                layers = {k: v["value"] for k, v in result["metrics"].items()}
                if workload == "constant_algebra":
                    expect(layers["expressions.evaluate_calls"] == 0
                           and layers["integrate.calls"] == 0,
                           f"{tag}: no expression evaluation or integration")
                expect((layers["integrate.trace_quadrature_s"] > 0)
                       == (workload == "periodic_random"),
                       f"{tag}: trace quadrature only on periodic_random")


def run_is_correct(workload, outcomes):
    """`correct` of the result line of a one-unit run with these outcomes."""
    return result_line(workload, [{"seconds": 1.0, "outcomes": outcomes}],
                       {}, {})["correct"]


def corrupted_outputs():
    qf = types.SimpleNamespace(
        cli=importlib.import_module("qfloquet.cli"),
        qmatrix=importlib.import_module("qfloquet.qmatrix"))

    def results_of(unit):
        code, out, _ = workloads.call_cli(qf.cli, unit.argv)
        return json.loads(out)["results"]

    growing = next(workloads.periodic_inputs(1))
    good = results_of(growing)
    expect(workloads.check_periodic(good, growing.expected) == [],
           "growing paper system passes its checks")

    def bump_multiplier(r):
        r["multipliers"][0]["value"][0] += 1e-5

    for name, corrupt in (
            ("paper_multipliers", bump_multiplier),
            ("paper_verdict", lambda r: r["verdict"].update(kind="stable")),
            ("product_residual", lambda r: r.update(product_residual=1e-6)),
            ("exponent_sum_residual",
             lambda r: r.update(exponent_sum_residual=1e-7)),
            ("periodicity_residual",
             lambda r: r.update(periodicity_residual=1e-5))):
        bad = copy.deepcopy(good)
        corrupt(bad)
        failures = workloads.check_periodic(bad, growing.expected)
        expect(name in failures, f"periodic check catches a corrupted {name}")
        expect(not run_is_correct("periodic_random", [(True, failures)]),
               f"a periodic run with a corrupted {name} is not correct")
    expect(run_is_correct("periodic_random", [(True, [])]),
           "a periodic run of passing outputs is correct")
    expect(not run_is_correct("periodic_random",
                              [(False, ["raised:OmegaViolation"])]),
           "OmegaViolation is not a known defect of periodic_random")

    chart = next(workloads.hill_inputs(1))
    rows = results_of(chart)["rows"]
    outcomes = workloads.check_hill_rows(rows)
    expect(len(outcomes) == len(workloads.HILL_GRID) and all(v for v, _ in outcomes),
           "hill chart yields a verdict on every grid point")
    expect(run_is_correct("hill_chart", outcomes),
           "a real hill chart run is correct (channel contradictions are known)")
    unstable = next(k for k, row in enumerate(rows)
                    if row["verdict_multipliers"] == "unstable")
    for name, verdict, corrupt in (
            ("channel_contradiction", True, lambda row: row.update(
                verdict_multipliers="stable", verdict_trace="unstable")),
            ("volume", True, lambda row: row.update(abs_rho1=row["abs_rho1"] * 1.01)),
            ("row_error", False, lambda row: row.update(error="ArithmeticError: x"))):
        bad = copy.deepcopy(rows)
        corrupt(bad[unstable])
        got = workloads.check_hill_rows(bad)[unstable]
        expect(got[0] == verdict and name in got[1],
               f"hill check catches a corrupted {name}")
        if name != "channel_contradiction":
            expect(not run_is_correct("hill_chart",
                                      workloads.check_hill_rows(bad)),
                   f"a hill run with a corrupted {name} is not correct")
    expect(workloads.check_hill_rows(rows[1:])[0] == (False, ["missing_row"]),
           "hill check catches a missing row")

    matrix = next(workloads.constant_inputs(1))
    good = results_of(matrix)
    A = qf.qmatrix.QMatrix(matrix.matrix)
    C = qf.qmatrix.expm(A)
    B = qf.qmatrix.logm(C)
    residual = workloads.round_trip_residual(qf.qmatrix, B, C)
    expect(workloads.check_constant(good, A.rows, residual) == [],
           "constant matrix passes its checks")
    bad = copy.deepcopy(good)
    bad["eigenvalues"][0]["algebraic_multiplicity"] += 1
    failures = workloads.check_constant(bad, A.rows, residual)
    expect("multiplicity_sum" in failures,
           "constant check catches a wrong multiplicity")
    expect(not run_is_correct("constant_algebra", [(True, failures)]),
           "a constant run with a wrong multiplicity is not correct")
    expect(run_is_correct("constant_algebra",
                          [(True, []), (False, ["raised:OmegaViolation"])]),
           "a constant run whose only failure is OmegaViolation is correct")
    B_bad = B + qf.qmatrix.QMatrix.identity(A.rows) * 1e-6
    expect("logm_round_trip" in workloads.check_constant(
        good, A.rows, workloads.round_trip_residual(qf.qmatrix, B_bad, C)),
        "constant check catches a perturbed logarithm")


def main():
    corrupted_outputs()
    tiny_runs()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
