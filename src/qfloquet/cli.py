"""Command-line front end.

Subcommands: `constant`, `periodic`, `hill`, `sweep`.  Systems are given as
expression strings in the library grammar, either through flags or a JSON
config file; reports are rendered as text tables, JSON, or CSV.  Exit codes:
0 on success, 2 on configuration or parse errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .expressions import MatrixSpec, evaluate, parse
from .floquet import (NotPeriodic, classify_constant, classify_periodic,
                      exponent_sum_residual, multiplier_product_check,
                      normal_form)
from .hill import HillProblem, analyze, analyze_chart
from .integrate import IntegratorConfig
from .qmatrix import (QMatrix, expm, quaternion_data, standard_eigenvalues,
                      sum_norms)

# qfloquet's numerical failures are ArithmeticErrors, but NotPeriodic and
# numpy's LinAlgError are ValueErrors, caught first; any other ValueError (a
# parse error, a malformed config, a bad value), a missing key and a file
# that cannot be read or written are configuration errors
NUMERICAL_ERRORS = (ArithmeticError, NotPeriodic, np.linalg.LinAlgError)
CONFIG_ERRORS = (ValueError, KeyError, OSError)
# largest grid a start/stop/step sweep may ask for
MAX_SWEEP_POINTS = 100_000


# -- serialization ------------------------------------------------------------


def _complex_json(z):
    return [z.real, z.imag]


def _spectrum_json(spectrum):
    return [{"value": _complex_json(e.value),
             "algebraic_multiplicity": e.algebraic_multiplicity,
             "geometric_multiplicity": e.geometric_multiplicity}
            for e in spectrum]


def _verdict_json(verdict):
    return {"kind": verdict.kind.value,
            "evidence": [{"value": _complex_json(e.value),
                          "quantity": e.quantity,
                          "threshold": e.threshold,
                          "margin": e.margin} for e in verdict.evidence]}


def _fmt_complex(z):
    if z.imag == 0:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}i"


def _table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [sep,
             "|" + "|".join(f" {h.ljust(w)} " for h, w in zip(headers, widths)) + "|",
             sep]
    for row in rows:
        lines.append("|" + "|".join(
            f" {cell.ljust(w)} " for cell, w in zip(row, widths)) + "|")
    lines.append(sep)
    return "\n".join(lines)


# -- config handling -----------------------------------------------------------


def _parse_period(text):
    if isinstance(text, (int, float)):
        return float(text)
    if not isinstance(text, str):
        raise ValueError(f"period must be a number or 'pi', got {text!r}")
    if text.strip() == "pi":
        return math.pi
    return float(text)


def _entry_rows(tokens):
    """Split --entry tokens into rows: ';' separates rows, and each repeated
    --entry occurrence starts a fresh row."""
    rows, current = [], []
    for group in tokens:
        for token in group:
            parts = token.split(";")
            for idx, part in enumerate(parts):
                if idx > 0:
                    if current:
                        rows.append(current)
                    current = []
                if part.strip():
                    current.append(part.strip())
        if current:
            rows.append(current)
            current = []
    return rows


def _check_config(config):
    """Return config if its values have the types the modes read, else
    raise ValueError: it is an object, its `integrator`, `output` and
    `sweep` are objects, `a` is a string, `entries` a list of lists of
    strings, `period` a number or a string `_parse_period` reads, and the
    output format text, json or csv."""
    if not isinstance(config, dict):
        raise ValueError("a config must be a JSON object")
    for key in ("integrator", "output", "sweep"):
        if not isinstance(config.get(key, {}), dict):
            raise ValueError(f"config {key!r} must be a JSON object")
    if not isinstance(config.get("a", ""), str):
        raise ValueError("config 'a' must be a string")
    entries = config.get("entries", [])
    if not (isinstance(entries, list) and all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in entries)):
        raise ValueError("config 'entries' must be a list of lists of strings")
    if "period" in config:
        _parse_period(config["period"])
    fmt = config.get("output", {}).get("format", "text")
    if fmt not in ("text", "json", "csv"):
        raise ValueError(f"config output format must be text, json or csv, "
                         f"got {fmt!r}")
    return config


def _config_from_args(args):
    if args.config:
        with open(args.config) as handle:
            config = _check_config(json.load(handle))
    else:
        config = {}
    if args.mode:
        config["mode"] = args.mode
    if getattr(args, "period", None) is not None:
        config["period"] = _parse_period(args.period)
    elif "period" in config:
        config["period"] = _parse_period(config["period"])
    if getattr(args, "entry", None):
        config["entries"] = _entry_rows(args.entry)
    if getattr(args, "a", None):
        config["a"] = args.a
    integ = config.setdefault("integrator", {})
    if args.rtol is not None:
        integ["rtol"] = args.rtol
    if args.atol is not None:
        integ["atol"] = args.atol
    output = config.setdefault("output", {})
    if args.format:
        output["format"] = args.format
    if args.out:
        output["path"] = args.out
    if getattr(args, "p_grid", None):
        config["sweep"] = {"grid": [_parse_period(v)
                                    for v in args.p_grid.split(",") if v.strip()]}
    if getattr(args, "jobs", None):
        config["jobs"] = args.jobs
    if "mode" not in config:
        raise ValueError("no mode given (subcommand or config file required)")
    return config


def _integrator_config(config):
    integ = config.get("integrator", {})
    kwargs = {}
    if "rtol" in integ:
        kwargs["rel_tol"] = float(integ["rtol"])
    if "atol" in integ:
        kwargs["abs_tol"] = float(integ["atol"])
    if "method" in integ:
        kwargs["method"] = integ["method"]
    return IntegratorConfig(**kwargs)


def _matrix_from_config(config, variables):
    entries = config.get("entries")
    if not entries:
        raise ValueError("matrix entries required for this mode")
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise ValueError(f"matrix must be square, got row lengths "
                             f"{[len(r) for r in entries]}")
    return [[parse(src, variables) for src in row] for row in entries]


# -- norm summaries -------------------------------------------------------------


def _norm_trend(norms):
    first, last = norms[0], norms[-1]
    peak = max(norms)
    if last > 10.0 * first:
        return f"||M(t)|| grows ({first:.3g} -> {last:.3g})"
    if last < 0.1 * first:
        return f"||M(t)|| decays ({first:.3g} -> {last:.3g})"
    return f"||M(t)|| stays within [{min(norms):.3g}, {peak:.3g}]"


# -- mode runners ---------------------------------------------------------------


def run_constant(config):
    grid = _matrix_from_config(config, variables=())
    A = QMatrix.from_entries(
        [[evaluate(node, 0.0) for node in row] for row in grid])
    spectrum = standard_eigenvalues(A)
    verdict = classify_constant(A)
    times = range(0, 11, 2)
    # e^{tA} may overflow: its norm is then not a number, and the report
    # holds null for it, while the eigenvalue verdict still stands
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [expm(A * t).sum_norm() for t in times]
    norms = [v if math.isfinite(v) else None for v in norms]
    if None in norms:
        last = max(t for t, v in zip(times, norms) if v is not None)
        summary = f"||M(t)|| overflows after t = {last}"
    else:
        summary = _norm_trend(norms)
    return {
        "matrix": A.data.tolist(),
        "eigenvalues": _spectrum_json(spectrum),
        "verdict": _verdict_json(verdict),
        "norm_samples": norms,
        "norm_summary": summary,
    }


def run_periodic(config):
    if "period" not in config:
        raise ValueError("periodic mode requires a period")
    grid = _matrix_from_config(config, variables=("t",))
    spec = MatrixSpec(grid, period=_parse_period(config["period"]))
    cfg = _integrator_config(config)
    fd = normal_form(spec, cfg)
    b_spectrum = standard_eigenvalues(fd.B)
    verdict = classify_periodic(fd)
    # ||M(t)|| at 0, T/2, T, 3T/2 and 2T: samples of the first period's
    # (odd) grid, then of the second's
    first, second = (traj.adjoints for traj in fd.trajectories)
    norms = sum_norms(np.concatenate([first[[0, len(first) // 2, -1]],
                                      second[[len(second) // 2, -1]]]))
    norms = norms.tolist()
    # t, then the components of M(t), entry by entry in row-major order
    trajectory = [[t] + state.ravel().tolist() for t, state in zip(
        fd.sample_times.tolist(), quaternion_data(first))]
    return {
        "period": fd.period,
        "monodromy": fd.monodromy.data.tolist(),
        "multipliers": _spectrum_json(fd.multipliers),
        "exponents": [_complex_json(mu) for mu in fd.exponents],
        "B": fd.B.data.tolist(),
        "B_spectrum": _spectrum_json(b_spectrum),
        "periodicity_residual": fd.periodicity_residual,
        "product_residual": multiplier_product_check(fd),
        "exponent_sum_residual": exponent_sum_residual(fd),
        "verdict": _verdict_json(verdict),
        "norm_samples": norms,
        "norm_summary": _norm_trend(norms),
        "trajectory_samples": trajectory,
    }


def _hill_coefficient(config, variables):
    """a(t) parsed with the given variables, and the period."""
    if "period" not in config:
        raise ValueError("hill mode requires a period")
    source = config.get("a")
    if not source:
        raise ValueError("hill mode requires the coefficient expression --a")
    return parse(source, variables), _parse_period(config["period"])


def run_hill(config):
    problem = HillProblem(*_hill_coefficient(config, ("t",)))
    report = analyze(problem, _integrator_config(config))
    moduli = sorted(abs(v) for v in report.multipliers.expanded())
    return {
        "period": problem.period,
        "monodromy": report.M_T.data.tolist(),
        "re_trace": report.re_trace,
        "frob_sq": report.frob_sq,
        "multipliers": _spectrum_json(report.multipliers),
        "K_eigs": list(report.K_eigs),
        "multiplier_moduli": moduli,
        "verdict_trace": _verdict_json(report.verdict_trace),
        "verdict_frobenius": _verdict_json(report.verdict_frobenius),
        "verdict_multipliers": _verdict_json(report.verdict_multipliers),
    }


SWEEP_COLUMNS = ("p", "re_trace", "frob_sq", "abs_rho1", "abs_rho2",
                 "verdict_trace", "verdict_frobenius", "verdict_multipliers",
                 "error")


def _sweep_row(p_value, outcome):
    """The sweep row of one grid point from its HillReport or its failure."""
    if isinstance(outcome, Exception):
        return {"p": p_value, **dict.fromkeys(SWEEP_COLUMNS[1:-1], ""),
                "error": f"{type(outcome).__name__}: {outcome}"}
    moduli = sorted(abs(v) for v in outcome.multipliers.expanded())
    return {"p": p_value,
            "re_trace": outcome.re_trace,
            "frob_sq": outcome.frob_sq,
            "abs_rho1": moduli[-1],
            "abs_rho2": moduli[0],
            "verdict_trace": outcome.verdict_trace.kind.value,
            "verdict_frobenius": outcome.verdict_frobenius.kind.value,
            "verdict_multipliers": outcome.verdict_multipliers.kind.value,
            "error": ""}


def _sweep_rows(config, grid):
    """Rows of the grid points, set up and integrated as one chart.  Each
    point's failure, configuration errors included, lands in its own row."""
    try:
        node, period = _hill_coefficient(config, ("t", "p"))
        cfg = _integrator_config(config)
    except Exception as exc:  # per-point failures recorded in-row
        return [_sweep_row(p, exc) for p in grid]
    outcomes = analyze_chart(node, period, {"p": grid}, cfg)
    return [_sweep_row(p, outcome) for p, outcome in zip(grid, outcomes)]


def _sweep_range(start, stop, step):
    """start + index * step for every index that stays within stop."""
    start, stop, step = float(start), float(stop), float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"sweep step must be positive and finite, got {step}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("sweep start and stop must be finite")
    steps = (stop - start) / step
    if steps < 0:
        return []
    if not steps < MAX_SWEEP_POINTS:
        raise ValueError(f"sweep of {steps:.3g} steps exceeds the limit "
                         f"{MAX_SWEEP_POINTS}")
    # the slack keeps `stop` when rounding puts it a hair past the last step
    return [start + index * step for index in range(math.floor(steps + 1e-9) + 1)]


def run_sweep(config):
    sweep = config.get("sweep", {})
    if "grid" in sweep:
        grid = [float(v) for v in sweep["grid"]]
    elif {"start", "stop", "step"} <= set(sweep):
        grid = _sweep_range(sweep["start"], sweep["stop"], sweep["step"])
    else:
        grid = []
    jobs = min(int(config.get("jobs", 1)), len(grid), os.cpu_count() or 1)
    if jobs > 1:
        # imported here: the process pool's modules cost every other run
        # about 0.6 MB of resident memory
        import concurrent.futures
        # one batch per worker, on contiguous runs of the grid
        bounds = [len(grid) * k // jobs for k in range(jobs + 1)]
        chunks = [grid[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for chunk in pool.map(_sweep_rows, [config] * jobs,
                                              chunks) for row in chunk]
    else:
        rows = _sweep_rows(config, grid)
    return {"grid": grid, "rows": rows}


# -- rendering ------------------------------------------------------------------


def _render_text(mode, results):
    if mode == "constant":
        eig_cell = "; ".join(
            f"{_fmt_complex(complex(*e['value']))} (am={e['algebraic_multiplicity']}, "
            f"gm={e['geometric_multiplicity']})" for e in results["eigenvalues"])
        table = _table(
            ["Fundamental matrix", "Standard eigenvalues of A", "Stability"],
            [[results["norm_summary"], eig_cell, results["verdict"]["kind"]]])
        return table
    if mode == "periodic":
        mult_cell = "; ".join(
            f"{_fmt_complex(complex(*e['value']))} (am={e['algebraic_multiplicity']}, "
            f"gm={e['geometric_multiplicity']})" for e in results["multipliers"])
        exp_cell = "; ".join(
            _fmt_complex(complex(*mu)) for mu in results["exponents"])
        table = _table(
            ["Fundamental matrix", "Characteristic multipliers",
             "Standard eigenvalues of B", "Stability"],
            [[results["norm_summary"], mult_cell, exp_cell,
              results["verdict"]["kind"]]])
        extras = (f"periodicity residual {results['periodicity_residual']:.3e}   "
                  f"product residual {results['product_residual']:.3e}")
        return table + "\n" + extras
    if mode == "hill":
        mult_cell = "; ".join(
            f"{_fmt_complex(complex(*e['value']))}" for e in results["multipliers"])
        table = _table(
            ["Re(tr M(T))", "||M(T)||_F^2", "Characteristic multipliers",
             "Stability (multipliers)"],
            [[f"{results['re_trace']:.6g}", f"{results['frob_sq']:.6g}",
              mult_cell, results["verdict_multipliers"]["kind"]]])
        extras = (f"trace channel: {results['verdict_trace']['kind']}   "
                  f"frobenius channel: {results['verdict_frobenius']['kind']}")
        return table + "\n" + extras
    if mode == "sweep":
        rows = [[_cell_str(row[c]) for c in SWEEP_COLUMNS]
                for row in results["rows"]]
        return _table(list(SWEEP_COLUMNS), rows)
    raise ValueError(f"unknown mode {mode}")


def _cell_str(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _render_csv(mode, results):
    if mode == "sweep":
        lines = [",".join(SWEEP_COLUMNS)]
        for row in results["rows"]:
            lines.append(",".join(_csv_field(row[c]) for c in SWEEP_COLUMNS))
        return "\n".join(lines) + "\n"
    if mode in ("periodic", "hill"):
        matrix = results["monodromy"]
        n = len(matrix)
        header = ["t"] + [f"M{i+1}{j+1}_{w}" for i in range(n)
                          for j in range(n) for w in ("q0", "q1", "q2", "q3")]
        if "trajectory_samples" in results:
            rows = [",".join(repr(float(v)) for v in sample)
                    for sample in results["trajectory_samples"]]
        else:
            row = [repr(float(results["period"]))] + [
                repr(component) for mrow in matrix for entry in mrow
                for component in entry]
            rows = [",".join(row)]
        return ",".join(header) + "\n" + "\n".join(rows) + "\n"
    if mode == "constant":
        lines = ["value_re,value_im,algebraic_multiplicity,geometric_multiplicity"]
        for e in results["eigenvalues"]:
            lines.append(f"{e['value'][0]!r},{e['value'][1]!r},"
                         f"{e['algebraic_multiplicity']},{e['geometric_multiplicity']}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown mode {mode}")


def _csv_field(value):
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# -- replay ---------------------------------------------------------------------


def _json_report(config, results):
    """The JSON report of a run, in strict JSON.  A sweep grid may hold nan
    or an infinity, which JSON has no number for: the config names such a
    point ("nan", "inf", "-inf"; float() reads it back on replay), and the
    results hold null for it, in the grid and in its row's "p"."""
    mode = config["mode"]
    if mode == "sweep" and not all(map(math.isfinite, results["grid"])):
        sweep = config["sweep"]
        config = {**config, "sweep": {**sweep, "grid": [
            v if math.isfinite(float(v)) else repr(float(v))
            for v in sweep["grid"]]}}
        results = {**results,
                   "grid": [p if math.isfinite(p) else None
                            for p in results["grid"]],
                   "rows": [{**row, "p": row["p"] if math.isfinite(row["p"])
                             else None} for row in results["rows"]]}
    return {"mode": mode, "config": config, "results": results}


def _numeric_match(a, b, tol=1e-12):
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_numeric_match(a[k], b[k], tol) for k in a))
    if isinstance(a, list) and isinstance(b, list):
        return (len(a) == len(b)
                and all(_numeric_match(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


def run_mode(config):
    mode = config["mode"]
    if mode == "constant":
        return run_constant(config)
    if mode == "periodic":
        return run_periodic(config)
    if mode == "hill":
        return run_hill(config)
    if mode == "sweep":
        return run_sweep(config)
    raise ValueError(f"unknown mode {mode!r}")


# -- entry point ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfloquet",
        description="Stability analysis of quaternion-valued linear ODE systems")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--replay",
                        help="re-run a previous JSON report and verify determinism")
    for flag in ("--rtol", "--atol"):
        parser.add_argument(flag, type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    # the options shared with the top level default to nothing in a mode, so
    # a value given before the mode is kept and one given after it wins
    shared = {"default": argparse.SUPPRESS}
    sub = parser.add_subparsers(dest="mode")
    for name in ("constant", "periodic", "hill", "sweep"):
        mode_parser = sub.add_parser(name)
        mode_parser.add_argument("--config", help="JSON config file", **shared)
        mode_parser.add_argument("--entry", nargs="+", action="append",
                                 help="matrix entries; rows separated by ';'")
        mode_parser.add_argument("--a", help="Hill coefficient expression a(t)")
        mode_parser.add_argument("--period", help="period (number or 'pi')")
        mode_parser.add_argument("--p-grid", dest="p_grid",
                                 help="sweep grid, comma separated")
        mode_parser.add_argument("--jobs", type=int, default=None)
        mode_parser.add_argument("--rtol", type=float, **shared)
        mode_parser.add_argument("--atol", type=float, **shared)
        mode_parser.add_argument("--format", choices=("text", "json", "csv"),
                                 **shared)
        mode_parser.add_argument("--out", help="output path (default stdout)",
                                 **shared)
    return parser


# parsing leaves a parser unchanged, so every `main` call shares one
_parser = functools.cache(build_parser)


def _emit(text, path):
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.replay:
            with open(args.replay) as handle:
                previous = json.load(handle)
            config = _check_config(previous["config"])
            report = _json_report(config, run_mode(config))
            if not _numeric_match(previous["results"], report["results"]):
                sys.stderr.write("replay mismatch: results differ beyond 1e-12\n")
                return 3
            _emit(json.dumps(report), args.out)
            return 0
        config = _config_from_args(args)
        results = run_mode(config)
        fmt, mode = config["output"].get("format", "text"), config["mode"]
        if fmt == "json":
            text = json.dumps(_json_report(config, results))
        elif fmt == "csv":
            text = _render_csv(mode, results)
        else:
            text = _render_text(mode, results)
        _emit(text, config["output"].get("path"))
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return 3
    except CONFIG_ERRORS as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
