"""qfloquet benchmark: time to a checked stability verdict, per workload.

    python3 perfbench/run.py --workload periodic_random --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  Each run starts the workload in a
fresh interpreter (perfbench/worker.py) that drives qfloquet through
`qfloquet.cli.main([...])` and the `qmatrix` functions, one caller in a
closed loop, and checks every output.  `--trace 0` reports the end-to-end
metrics; `--trace 1` runs it with spans and counters around the public
functions of every module, then the same units untraced, and reports
per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  `correct` is false when any output fails a check other than the
program's two known defects; `attempted` and `failed` count the systems of
the first CHECKED_UNITS units, a fixed set of inputs for a given seed, so
they do not grow with speed.  See perfbench/NOTES.md for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("periodic_random", "hill_chart", "constant_algebra")
# seed kept out of all tuning, for checking a later claim on unseen inputs;
# name it explicitly with --seed
HELD_OUT_SEED = 4817
# units whose systems `attempted` and `failed` count: every run does at
# least these (past --seconds if it must), so the counts are speed-independent
CHECKED_UNITS = {"periodic_random": 16, "hill_chart": 12,
                 "constant_algebra": 600}
# fresh interpreters whose set-up time is measured; setup_s is their median
SETUP_SAMPLES = 5
# every run ends within this many seconds or fails
RUN_LIMIT_S = 170.0
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")


class BenchmarkError(Exception):
    """The benchmark could not run or check the workload."""


def run_worker(workload, seed, deadline, extra=()):
    """Run worker.py in a fresh interpreter until it exits.

    Returns (its result line, or None with --setup-only; seconds from spawn
    to `ready`, i.e. imports done and the first inputs built and parsed).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         *extra], stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if not ready or proc.stdout.readline() != "ready\n":
            raise BenchmarkError(f"{workload} worker did not finish set-up")
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited with code {proc.returncode}")
    return (json.loads(out.strip().splitlines()[-1]) if out.strip() else None,
            setup_s)


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tally(records, workload):
    """Failure accounting over every counted system of some units.

    `unexpected` counts the failed systems that fail anything other than the
    workload's known defects (workloads.KNOWN_DEFECTS).
    """
    if not records:
        raise BenchmarkError("no unit ran")
    outcomes = [o for r in records for o in r["outcomes"]]
    failed = [failures or ["no_verdict"] for verdict, failures in outcomes
              if failures or not verdict]
    known = workloads.KNOWN_DEFECTS.get(workload, set())
    return {
        "units": len(records),
        "attempted": len(outcomes),
        "verdicts": sum(1 for verdict, _ in outcomes if verdict),
        "failed": len(failed),
        "unexpected": sum(1 for names in failed if not set(names) <= known),
        "by_check": dict(Counter(name for names in failed
                                 for name in set(names))),
        "busy_s": sum(r["seconds"] for r in records),
    }


def measure(workload, seed, seconds, trace):
    """Run one workload.

    Returns (report dict, metrics dict, extras): the metrics BENCHMARK.json
    lists for this kind of run, and {name: (value, unit)} of figures that are
    only printed.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isdir(os.path.join(ROOT, "src", "qfloquet")):
        raise BenchmarkError("run from the root of a qfloquet checkout "
                             "(src/qfloquet not found)")
    at_least = ["--min-units", str(CHECKED_UNITS[workload])]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.csv")
        # half the time traced, then the same units again untraced: the
        # difference is the tracing overhead
        traced, _ = run_worker(workload, seed, deadline,
                               ["--seconds", str(seconds / 2), "--trace", "1",
                                "--spans", spans, *at_least])
        t = tally(traced["records"], workload)
        plain, _ = run_worker(workload, seed, deadline,
                              ["--units", str(t["units"])])
        p = tally(plain["records"], workload)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_share"] = t["busy_s"] / p["busy_s"] - 1.0
        metrics["hill.channel_contradictions"] = (
            t["by_check"].get("channel_contradiction", 0) / t["units"])
        extras = {"trace.systems_per_s": (t["verdicts"] / t["busy_s"], "1/s"),
                  "trace.untraced_systems_per_s":
                      (p["verdicts"] / p["busy_s"], "1/s")}
        report = {"records": traced["records"], "machine": traced["machine"],
                  "spans": spans}
        return report, metrics, extras

    result, first_setup = run_worker(workload, seed, deadline,
                                     ["--seconds", str(seconds), *at_least])
    setups = [first_setup] + [
        run_worker(workload, seed, deadline, ["--setup-only"])[1]
        for _ in range(SETUP_SAMPLES - 1)]
    t = tally(result["records"], workload)
    latencies = [1000.0 * r["seconds"] for r in result["records"]]
    metrics = {
        "systems_per_s": t["verdicts"] / t["busy_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # printed, not listed: the host's speed swings in phases of 5 to 20 s,
    # and the median unit time jumps between the fast and the slow phase
    # where the throughput averages them (NOTES.md, "Run-to-run noise")
    extras = {"latency_p50_ms": (percentile(latencies, 50), "ms")}
    report = {"records": result["records"], "machine": result["machine"],
              "setup_samples": setups, "latency_samples": len(latencies)}
    # p90 only where a run holds well over 100 units, so that at least ten
    # samples lie beyond it
    if workload == "constant_algebra":
        p90 = percentile(latencies, 90)
        extras["latency_p90_ms"] = (p90, "ms")
        report["beyond_p90"] = sum(1 for v in latencies if v > p90)
    return report, metrics, extras


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(SPEC) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def describe(workload, seed, report, metrics, extras, units):
    """Human-readable lines: machine, checks, every metric with its unit."""
    t = tally(report["records"], workload)
    checked = tally(report["records"][:CHECKED_UNITS[workload]], workload)
    lines = [f"workload {workload}  seed {seed}",
             "machine " + json.dumps(report["machine"], sort_keys=True),
             f"units {t['units']}  systems attempted {t['attempted']}  "
             f"verdicts {t['verdicts']}  failed {t['failed']}  "
             f"failed_share {t['failed'] / t['attempted']:.4f}  "
             f"unexpected failures {t['unexpected']}  "
             f"by check {json.dumps(t['by_check'], sort_keys=True)}",
             f"first {checked['units']} units (the result's attempted/failed): "
             f"attempted {checked['attempted']}  failed {checked['failed']}  "
             f"failed_share {checked['failed'] / checked['attempted']:.4f}"]
    if "latency_samples" in report:
        lines.append(f"latency samples {report['latency_samples']}  "
                     + (f"beyond p90 {report['beyond_p90']}  "
                        if "beyond_p90" in report else "")
                     + "set-up samples "
                     + " ".join(f"{s:.3f}" for s in report["setup_samples"]))
    else:
        lines.append(f"spans written to {report['spans']}")
    for name, unit in units.items():
        lines.append(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    for name, (value, unit) in extras.items():
        lines.append(f"  {name:36s} {value:14.6g} {unit}  (printed only)")
    return lines


def result_line(workload, records, metrics, units):
    """The result object.

    `correct` is false when any output of the run fails a check other than
    the workload's known defects.  `attempted` and `failed` count the systems
    of the first CHECKED_UNITS units, known defects included, so a faster
    program that gets through more units does not report more failures.
    """
    run_all = tally(records, workload)
    checked = tally(records[:CHECKED_UNITS[workload]], workload)
    return {
        "correct": run_all["unexpected"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all': every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True,
                        help=f"input seed; {HELD_OUT_SEED} is held out for "
                             "checking later claims")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        runs = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    for workload, trace in runs:
        try:
            report, metrics, extras = measure(workload, args.seed,
                                              args.seconds, trace)
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        units = metric_units(trace)
        print("\n".join(describe(workload, args.seed, report, metrics, extras,
                                 units)), flush=True)
        results[f"{workload} trace {trace}"] = result_line(
            workload, report["records"], metrics, units)
    print(json.dumps(results if args.workload == "all"
                     else results.popitem()[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
