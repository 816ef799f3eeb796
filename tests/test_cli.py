import concurrent.futures
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qfloquet import cli
from qfloquet.cli import main
from qfloquet.expressions import MatrixSpec, parse
from qfloquet.hill import HillProblem, analyze
from qfloquet.qmatrix import quaternion_data, sum_norms

GROWING_ENTRIES = ["1", "1", ";", "0", "i + 2*exp(2*i*t)*j"]
HILL_COEFF = "2 + j*cos(2*t)^2 + k*sin(2*t)"


def run_cli(args):
    return main(args)


def test_constant_zero_system(capsys):
    assert run_cli(["constant", "--entry", "0"]) == 0
    out = capsys.readouterr().out
    assert "stable" in out
    assert "0 (am=1, gm=1)" in out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("entry, finite, last",
                         [("100", 4, 6), ("1000", 1, 0), ("1e308", 1, 0)])
def test_constant_overflow_is_strict_json_with_nulls(capsys, entry, finite,
                                                     last):
    # e^{tA} overflows for t past `last`; a numpy warning becomes an error
    # here.  At 1e308 the eigenvalue itself is near the largest float, so
    # averaging its adjoint pair must not overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["constant", "--entry", entry, "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    results = json.loads(out, parse_constant=_reject_constant)["results"]
    samples = results["norm_samples"]
    assert all(math.isfinite(v) for v in samples[:finite])
    assert samples[finite:] == [None] * (6 - finite)
    assert results["norm_summary"] == f"||M(t)|| overflows after t = {last}"
    assert results["verdict"]["kind"] == "unstable"


def test_constant_norm_of_an_entry_beyond_the_square_root_of_max_float(
        capsys):
    # e^{tA} = [[1, 1e300 t], [0, 1]] and its sum norm are finite: the
    # entry modulus must not square 1e300
    code = run_cli(["constant", "--entry", "0", "1e300", ";", "0", "0",
                    "--format", "json"])
    assert code == 0
    results = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)["results"]
    assert results["norm_samples"] == pytest.approx(
        [2.0 + 1e300 * t for t in range(0, 11, 2)], rel=1e-15)
    assert results["norm_summary"] == "||M(t)|| grows (2 -> 1e+301)"


def test_periodic_growing_json(tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli(["periodic", "--period", "pi", "--entry", *GROWING_ENTRIES,
                    "--format", "json", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    mults = sorted((complex(*e["value"])
                    for e in report["results"]["multipliers"]),
                   key=lambda z: z.real)
    assert abs(mults[0] + 1.0) < 1e-6
    assert abs(mults[1] - math.exp(math.pi)) < 1e-4
    assert report["results"]["verdict"]["kind"] == "unstable"
    assert report["results"]["product_residual"] < 1e-7


def test_periodic_samples_are_those_of_the_trajectory(capsys, fd_growing):
    # norm_samples at 0, T/2, T, 3T/2, 2T and trajectory_samples on the
    # P(t) grid, exactly the states of the integrations over [0, T] (on the
    # P(t) grid) and [T, 2T] (on a grid of 49 times)
    assert run_cli(["periodic", "--period", "pi", "--entry", *GROWING_ENTRIES,
                    "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    first, second = fd_growing.trajectories
    assert results["norm_samples"] == sum_norms(np.concatenate([
        first.adjoints[[0, 16, 32]], second.adjoints[[24, 48]]])).tolist()
    assert results["trajectory_samples"] == [
        [t] + state.ravel().tolist() for t, state in zip(
            first.times.tolist(), quaternion_data(first.adjoints))]


def test_periodic_text_and_json_agree(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    run_cli(["periodic", "--period", "pi", "--entry", *GROWING_ENTRIES,
             "--format", "json", "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    assert run_cli(["periodic", "--period", "pi",
                    "--entry", *GROWING_ENTRIES]) == 0
    text = capsys.readouterr().out
    assert report["results"]["verdict"]["kind"] in text
    assert "23.1407" in text  # e^pi rendered with the shared format


def test_hill_json_values(tmp_path):
    report_path = tmp_path / "hill.json"
    code = run_cli(["hill", "--period", "pi", "--a", HILL_COEFF,
                    "--format", "json", "--out", str(report_path)])
    assert code == 0
    results = json.loads(report_path.read_text())["results"]
    assert results["re_trace"] == pytest.approx(-0.262372, abs=0.005)
    assert results["frob_sq"] == pytest.approx(5.146, abs=0.05)
    assert results["verdict_trace"]["kind"] == "undetermined"
    assert results["verdict_frobenius"]["kind"] == "unstable"
    assert results["verdict_multipliers"]["kind"] == "unstable"


def test_periodic_trajectory_csv(capsys):
    assert run_cli(["periodic", "--period", "pi", "--entry", *GROWING_ENTRIES,
                    "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 1 + 4 * 4  # 4 components per entry of a 2x2 matrix
    assert len(lines) >= 10
    times = [float(row.split(",")[0]) for row in lines[1:]]
    assert times == sorted(times)


def test_hill_csv_is_the_header_and_one_row(capsys):
    args = ["hill", "--period", "pi", "--a", HILL_COEFF, "--format"]
    assert run_cli(args + ["json"]) == 0
    monodromy = json.loads(capsys.readouterr().out)["results"]["monodromy"]
    assert run_cli(args + ["csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",") == ["t"] + [
        f"M{i}{j}_{w}" for i in (1, 2) for j in (1, 2)
        for w in ("q0", "q1", "q2", "q3")]
    assert row.split(",") == [repr(math.pi)] + [
        repr(v) for mrow in monodromy for entry in mrow for v in entry]


def test_sweep_text_is_a_table_of_the_rows(capsys):
    grid = [-1.0, 0.5, 2.0]
    args = ["sweep", "--period", "pi", "--a", "p + j*cos(2*t)",
            "--p-grid=" + ",".join(map(repr, grid)), "--format"]
    assert run_cli(args + ["json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert run_cli(args + ["text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # a rule, the header, a rule, one line per grid point, a rule
    assert len(lines) == 4 + len(grid)
    cells = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in lines[1:2] + lines[3:-1]]
    assert cells[0] == list(cli.SWEEP_COLUMNS)
    assert [row[0] for row in cells[1:]] == [repr(p) for p in grid]
    assert [row[1:] for row in cells[1:]] == [
        [repr(row[c]) if isinstance(row[c], float) else row[c]
         for c in cli.SWEEP_COLUMNS[1:]] for row in rows]


def test_sweep_rows_satisfy_volume_constraint(capsys):
    code = run_cli(["sweep", "--period", "pi",
                    "--a", "p + j*cos(2*t) + k*sin(2*t)",
                    "--p-grid=-1,0,1,2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,re_trace,frob_sq,abs_rho1,abs_rho2")
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        product = float(fields[3]) * float(fields[4])
        assert product == pytest.approx(1.0, abs=1e-5)


def test_sweep_reproduces_trace_unstable_row(capsys):
    run_cli(["sweep", "--period", "pi",
             "--a", "p + j*cos(2*t) + k*sin(2*t)",
             "--p-grid=-1", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(27.2976, abs=0.3)
    assert fields[5] == "unstable"


def test_sweep_parallel_jobs_match_sequential(capsys):
    args = ["sweep", "--period", "pi", "--a", "p + j*cos(2*t)",
            "--p-grid=0,1", "--format", "csv"]
    assert run_cli(args) == 0
    sequential = capsys.readouterr().out
    assert run_cli(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential


def test_sweep_empty_grid_emits_header_only(capsys):
    code = run_cli(["sweep", "--period", "pi", "--a", "p + j*cos(2*t)",
                    "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1


def test_sweep_range_is_indexed():
    config = {"mode": "sweep", "sweep": {"start": -1, "stop": 3, "step": 4 / 15}}
    grid = cli.run_sweep(config)["grid"]
    assert grid == [-1 + index * (4 / 15) for index in range(16)]
    assert grid[-1] == 3.0


def sweep_rows(capsys, grid, *extra):
    assert run_cli(["sweep", "--period", "pi", "--a", "p + j*cos(2*t)",
                    f"--p-grid={grid}", "--format", "json", *extra]) == 0
    return json.loads(capsys.readouterr().out)["results"]["rows"]


def test_sweep_failing_point_fails_only_its_row(capsys):
    # p = nan fails the periodicity grid check at set-up
    rows = sweep_rows(capsys, "1,nan,2")
    assert [bool(row["error"]) for row in rows] == [False, True, False]
    assert rows[1]["error"].startswith("NotPeriodic")
    assert [rows[0], rows[2]] == sweep_rows(capsys, "1,2")


NAN_RESIDUAL = ("NotPeriodic: coefficient periodicity residual nan exceeds "
                "1.0e-08 on a 64-point grid")


@pytest.mark.parametrize("period, a, grid, errors", [
    # p = 1 fails the periodicity check alone: cos(t) has period 2 pi
    ("pi", "p + j*cos(p*t)", "1,2,nan,1e400",
     ["NotPeriodic: coefficient periodicity residual 2.000e+00 exceeds "
      "1.0e-08 on a 64-point grid", "", NAN_RESIDUAL, NAN_RESIDUAL]),
    # the batched check raises; only p = 0 fails, checked alone
    ("pi", "p + cos(2*t)/p", "0,1",
     ["DivisionByZero: inverse of zero quaternion", ""]),
    ("-1", "p + j*cos(2*t)", "0,1", ["ValueError: period must be positive"] * 2),
    ("inf", "p + j*cos(2*t)", "0,1", ["ValueError: period must be finite"] * 2),
])
def test_sweep_rows_equal_their_one_point_sweeps(capsys, period, a, grid,
                                                 errors):
    def rows(points):
        assert run_cli(["sweep", "--period", period, "--a", a,
                        f"--p-grid={points}", "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]["rows"]
    chart = rows(grid)
    assert [row["error"] for row in chart] == errors
    alone = [rows(point)[0] for point in grid.split(",")]
    assert json.dumps(chart) == json.dumps(alone)


def test_sweep_setup_is_silent_on_nonfinite_points(capsys):
    # any numpy warning becomes an error here, and stderr stays empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["sweep", "--period", "pi", "--a", "p + j*cos(p*t)",
                        "--p-grid=1,2,nan,1e400", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]["rows"]
    assert [row["error"] for row in rows[2:]] == [NAN_RESIDUAL] * 2


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def test_sweep_report_of_nonfinite_points_is_strict_json(tmp_path, capsys):
    # the config names a non-finite point, the results hold null for it,
    # its row keeps its error, and the report replays to itself
    path = tmp_path / "sweep.json"
    assert run_cli(["sweep", "--period", "pi", "--a", "p + j*cos(p*t)",
                    "--p-grid=1,2,nan,-1e400", "--format", "json",
                    "--out", str(path)]) == 0
    report = strict_json(path.read_text())
    assert report["config"]["sweep"]["grid"] == [1.0, 2.0, "nan", "-inf"]
    assert report["results"]["grid"] == [1.0, 2.0, None, None]
    rows = report["results"]["rows"]
    assert [row["p"] for row in rows] == [1.0, 2.0, None, None]
    assert [row["error"] for row in rows[2:]] == [NAN_RESIDUAL] * 2
    assert not rows[1]["error"]
    assert run_cli(["--replay", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert strict_json(out) == report


def test_sweep_sets_up_once_per_chart(monkeypatch, capsys):
    # one companion and one periodicity check for a 16-point chart
    counts = {"specs": 0, "checks": 0}
    build, check = MatrixSpec.__init__, MatrixSpec.periodicity_residual

    def counted_build(self, *args, **kwargs):
        counts["specs"] += 1
        build(self, *args, **kwargs)

    def counted_check(self, *args, **kwargs):
        counts["checks"] += 1
        return check(self, *args, **kwargs)
    monkeypatch.setattr(MatrixSpec, "__init__", counted_build)
    monkeypatch.setattr(MatrixSpec, "periodicity_residual", counted_check)
    grid = ",".join(repr(p) for p in np.linspace(-1.0, 3.0, 16).tolist())
    rows = sweep_rows(capsys, grid)
    assert len(rows) == 16 and not any(row["error"] for row in rows)
    assert counts == {"specs": 1, "checks": 1}


def test_sweep_rows_match_analyze(capsys):
    rows = sweep_rows(capsys, "-1,0.5,1,2.5")
    node = parse("p + j*cos(2*t)", ("t", "p"))
    for row in rows:
        report = analyze(HillProblem(node, math.pi, {"p": row["p"]}))
        moduli = sorted(abs(v) for v in report.multipliers.expanded())
        expected = {"re_trace": report.re_trace, "frob_sq": report.frob_sq,
                    "abs_rho1": moduli[-1], "abs_rho2": moduli[0],
                    "verdict_multipliers": report.verdict_multipliers.kind.value}
        assert cli._numeric_match(expected, {k: row[k] for k in expected})


@pytest.mark.parametrize("hill_a, sweep_a, p", [
    ("0.5 + j*cos(2*t)", "p + j*cos(2*t)", 0.5),
    # exp(1000) overflows to inf whether folded or evaluated on an array
    ("exp(1000)^0 + j*cos(2*t)", "exp(p)^0 + j*cos(2*t)", 1000.0),
], ids=["0.5", "exp(1000)"])
def test_hill_and_sweep_give_the_same_row(capsys, hill_a, sweep_a, p):
    # one report implementation: `hill` at a = hill_a is the sweep row of
    # sweep_a at p, bit for bit, and neither writes a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["sweep", "--period", "pi", "--a", sweep_a,
                        f"--p-grid={p!r}", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        rows = json.loads(out)["results"]["rows"]
        assert run_cli(["hill", "--period", "pi", "--a", hill_a,
                        "--format", "json"]) == 0
    out, hill_err = capsys.readouterr()
    assert (err, hill_err) == ("", "")
    hill = json.loads(out)["results"]
    assert rows == [{
        "p": p, "re_trace": hill["re_trace"], "frob_sq": hill["frob_sq"],
        "abs_rho1": hill["multiplier_moduli"][-1],
        "abs_rho2": hill["multiplier_moduli"][0],
        **{key: hill[key]["kind"] for key in (
            "verdict_trace", "verdict_frobenius", "verdict_multipliers")},
        "error": ""}]


SCIPY_FREE_RUNS = (
    ["constant", "--entry", "1", "i", ";", "0", "j", "--format", "json"],
    ["periodic", "--period", "pi", "--entry", *GROWING_ENTRIES,
     "--format", "json"],
    ["hill", "--period", "pi", "--a", HILL_COEFF, "--format", "json"],
    ["sweep", "--period", "pi", "--a", "p + j*cos(2*t)", "--p-grid=0,1",
     "--format", "csv"],
)


def test_sweep_leaves_scipy_linalg_unloaded(capsys):
    # importing SciPy fails in the child, as if it were not installed: every
    # mode, the sweep among them, must exit 0 with the output it gives here
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qfloquet import cli\n"
            f"for argv in {SCIPY_FREE_RUNS!r}:\n"
            "    print('exit', cli.main(argv))\n"
            "print(sys.modules['scipy'], 'scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = []
    for argv in SCIPY_FREE_RUNS:
        assert run_cli(argv) == 0
        expected += capsys.readouterr().out.splitlines() + ["exit 0"]
    assert proc.stdout.splitlines() == expected + ["None False"]


def test_options_before_the_mode_are_honored(tmp_path, capsys):
    # a hidden top-level option used to be reset by the mode's default
    out = tmp_path / "x.txt"
    assert run_cli(["--out", str(out), "--format", "json", "--rtol", "1e-9",
                    "--atol", "1e-11", "periodic", "--period", "pi",
                    "--entry", *GROWING_ENTRIES]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["config"]["integrator"] == {"rtol": 1e-9, "atol": 1e-11}
    # given on both sides of the mode, the mode's value wins
    assert run_cli(["--format", "json", "constant", "--entry", "0",
                    "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("value_re,value_im")


def test_unbounded_integration_exits_3():
    # M' = 1e5 M overflows within one period; this used to run for minutes
    proc = subprocess.run(
        [sys.executable, "-m", "qfloquet.cli", "periodic", "--period", "1",
         "--entry", "1e5"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


@pytest.mark.parametrize("step", [0, -0.5])
def test_sweep_rejects_nonpositive_step(tmp_path, capsys, step):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({
        "mode": "sweep", "period": "pi", "a": "p + j*cos(2*t)",
        "sweep": {"start": 0, "stop": 1, "step": step}}))
    assert run_cli(["sweep", "--config", str(config_path)]) == 2
    assert "sweep step must be positive" in capsys.readouterr().err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""
    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_jobs_capped_by_grid_and_cpus(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    args = ["sweep", "--period", "pi", "--a", "p + j*cos(2*t)",
            "--p-grid=0,1,2", "--format", "csv", "--jobs", "64"]
    for cpus in (8, 2, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_cli(args) == 0
    # 3 grid points on 8 cpus, then 2 cpus; one worker runs without a pool
    assert RecordingPool.created == [3, 2]
    outputs = capsys.readouterr().out.split("p,re_trace")[1:]
    assert len(set(outputs)) == 1


def test_parser_limits_exit_2(capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    assert run_cli(["constant", "--entry", deep]) == 2
    assert run_cli(["periodic", "--period", "pi", "--entry", "t^999999999"]) == 2
    err = capsys.readouterr().err
    assert "nests deeper" in err and "exceeds" in err


def test_shared_parser_reports_as_a_first_call(capsys):
    # `main` builds its parser once per process; calls in alternating modes
    # and flags must report what each reports as the process's first call
    calls = [
        ["hill", "--period", "pi", "--a", HILL_COEFF, "--rtol", "1e-9"],
        ["constant", "--entry", "1", "j", "--entry", "0", "-1",
         "--format", "csv"],
        ["--format", "json", "constant", "--entry", "0"],
        ["sweep", "--period", "pi", "--a", "p + j*cos(2*t)", "--p-grid=1,2",
         "--format", "csv", "--atol", "1e-13"],
        ["periodic", "--period", "pi", "--entry", "x"],
        ["constant", "--entry", "0", "--format", "json"],
    ]

    def outcome(argv):
        code = main(argv)
        return code, *capsys.readouterr()

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(outcome(argv))
    assert {code for code, _, _ in first} == {0, 2}
    for argv, expected in [*zip(calls, first), *zip(calls[::-1], first[::-1])]:
        assert outcome(argv) == expected


def test_replay_reproduces_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run_cli(["hill", "--period", "pi", "--a", HILL_COEFF,
             "--format", "json", "--out", str(report_path)])
    code = run_cli(["--replay", str(report_path)])
    assert code == 0
    replayed = json.loads(capsys.readouterr().out)
    original = json.loads(report_path.read_text())
    assert replayed["results"]["re_trace"] == original["results"]["re_trace"]


@pytest.mark.parametrize("change, code, err", [
    (1e-9, 3, "replay mismatch: results differ beyond 1e-12\n"),
    (1e-13, 0, "")], ids=["beyond", "within"])
def test_replay_of_a_changed_report(tmp_path, capsys, change, code, err):
    # a result moved beyond the replay tolerance fails with exit 3 alone
    report_path = tmp_path / "report.json"
    assert run_cli(["hill", "--period", "pi", "--a", HILL_COEFF,
                    "--format", "json", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    report["results"]["re_trace"] *= 1.0 + change
    report_path.write_text(json.dumps(report))
    assert run_cli(["--replay", str(report_path)]) == code
    out, stderr = capsys.readouterr()
    assert stderr == err
    assert (out == "") == (code == 3)


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("fixture", ["growing", "defective", "marginal"])
def test_replay_of_committed_periodic_reports(fixture, capsys):
    # `periodic --format json` reports of the paper's -1 fixtures, whose B
    # comes from logm's Schur route; a change that moves B beyond the replay
    # tolerance regenerates them
    path = os.path.join(DATA, f"periodic_{fixture}.json")
    assert run_cli(["--replay", path]) == 0, capsys.readouterr().err


def test_integrator_flags_are_honored(tmp_path):
    loose = tmp_path / "loose.json"
    tight = tmp_path / "tight.json"
    base = ["hill", "--period", "pi", "--a", HILL_COEFF, "--format", "json"]
    assert run_cli(base + ["--rtol", "1e-6", "--atol", "1e-8",
                           "--out", str(loose)]) == 0
    assert run_cli(base + ["--rtol", "1e-12", "--atol", "1e-14",
                           "--out", str(tight)]) == 0
    a = json.loads(loose.read_text())["results"]["re_trace"]
    b = json.loads(tight.read_text())["results"]["re_trace"]
    assert a != b                       # tolerances actually reached the integrator
    assert abs(a - b) < 1e-3            # but both are close to the true value


def test_retired_integrator_method_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "mode": "hill", "period": math.pi, "a": HILL_COEFF,
        "integrator": {"method": "dp54"}}))
    assert run_cli(["hill", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "'dp54'" in err and "'dop853'" in err and "'rk4'" in err


def test_config_file_matches_flags(tmp_path):
    config = {
        "mode": "hill",
        "period": math.pi,
        "a": HILL_COEFF,
        "integrator": {"rtol": 1e-10, "atol": 1e-12},
        "output": {"format": "json", "path": str(tmp_path / "from_config.json")},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["hill", "--config", str(config_path)]) == 0
    flag_path = tmp_path / "from_flags.json"
    run_cli(["hill", "--period", "pi", "--a", HILL_COEFF,
             "--format", "json", "--out", str(flag_path)])
    a = json.loads((tmp_path / "from_config.json").read_text())["results"]
    b = json.loads(flag_path.read_text())["results"]
    assert a["re_trace"] == b["re_trace"]
    assert a["frob_sq"] == b["frob_sq"]


def test_repeated_entry_flags_give_rows(tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli(["periodic", "--period", "pi",
                    "--entry", "1", "1",
                    "--entry", "0", "i + 2*exp(2*i*t)*j",
                    "--format", "json", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["results"]["monodromy"]) == 2


def test_parse_error_exits_2(capsys):
    assert run_cli(["constant", "--entry", "i + ("]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_infinite_period_exits_2(capsys, tmp_path):
    # refused when the system is built: no numpy warning, no integration
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "mode": "periodic", "period": "Infinity", "entries": [["1"]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in (["periodic", "--period", "inf", "--entry", "cos(t)"],
                     ["periodic", "--period", "inf", "--entry", "1"],
                     ["hill", "--period", "inf", "--a", "1"],
                     ["--config", str(config_path)]):
            assert run_cli(args) == 2
            assert capsys.readouterr().err == \
                "configuration error: period must be finite\n"


def test_dimension_error_exits_2(capsys):
    assert run_cli(["constant", "--entry", "1", "0"]) == 2


def test_missing_mode_exits_2(capsys):
    assert run_cli([]) == 2


def test_numerical_failure_exits_3(capsys):
    code = run_cli(["periodic", "--period", "pi", "--entry", "cos(t)"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_periodic_coefficient_fails_alike_in_every_mode(capsys):
    # cos(t) does not have period 1: `periodic` and `hill` exit 3 and a
    # sweep's row holds the error, each with floquet's one message
    message = ("NotPeriodic: coefficient periodicity residual 9.553e-01 "
               "exceeds 1.0e-08 on a 64-point grid")
    for argv in (["periodic", "--period", "1", "--entry", "cos(t)"],
                 ["hill", "--period", "1", "--a", "cos(t)"]):
        assert run_cli(argv) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
    assert run_cli(["sweep", "--period", "1", "--a", "p + cos(t)",
                    "--p-grid=0", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [row["error"] for row in json.loads(out)["results"]["rows"]] == [
        message]


def expect_configuration_error(capsys, argv):
    """argv exits 2 with one stderr line and an empty stdout."""
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--config", "--replay", "--out"])
def test_unreadable_or_unwritable_file_exits_2(tmp_path, capsys, flag):
    # --out fails only after the run, when the report is written
    missing = str(tmp_path / "missing" / "x.json")
    argv = {"--config": ["periodic", "--config", missing],
            "--replay": ["--replay", missing],
            "--out": ["hill", "--period", "pi", "--a", "1 + j*cos(2*t)",
                      "--out", missing]}[flag]
    expect_configuration_error(capsys, argv)


# the period as a number, the way a report's config holds it
HILL_CONFIG = {"mode": "hill", "period": math.pi, "a": "1 + j*cos(2*t)"}


@pytest.mark.parametrize("config", [
    [HILL_CONFIG],
    {**HILL_CONFIG, "a": 5},
    {**HILL_CONFIG, "period": None},
    {**HILL_CONFIG, "output": "json"},
    {**HILL_CONFIG, "output": {"format": "xml"}},
    {**HILL_CONFIG, "mode": "sweep", "sweep": [1, 2]},
    {**HILL_CONFIG, "integrator": [1]},
    {"mode": "periodic", "period": math.pi, "entries": "t"},
], ids=["list", "a", "period", "output", "format", "sweep", "integrator",
        "entries"])
@pytest.mark.parametrize("flag", ["--config", "--replay"])
def test_malformed_config_exits_2(tmp_path, capsys, config, flag):
    # a replayed report's config is checked the same way
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config if flag == "--config" else
                               {"mode": "hill", "config": config,
                                "results": {}}))
    expect_configuration_error(capsys, [flag, str(path)])


@pytest.mark.parametrize("entry", ["1e400", "exp(1000)"])
def test_nonfinite_constant_entry_is_a_numerical_failure(capsys, entry):
    # 1e400 parses to inf and exp(1000) folds to it, without a numpy
    # warning; numpy's LinAlgError is a ValueError, yet the failure is
    # numerical
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["constant", "--entry", entry, "--format", "json"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "numerical failure: LinAlgError: Array must not contain infs or NaNs"]


# 3x3 quaternion matrices with entries near the float limit, whose adjoint
# eigenvalues overflow (or come back nan)
NEAR_FLOAT_LIMIT = np.random.default_rng(0).uniform(
    -1, 1, (12, 3, 3, 4)) * 1.6e308


@pytest.mark.parametrize("draw", range(len(NEAR_FLOAT_LIMIT)))
def test_constant_near_the_float_limit_is_a_numerical_failure(capsys, draw):
    args = ["constant"]
    for row in NEAR_FLOAT_LIMIT[draw].tolist():
        args += ["--entry", *(f"({a!r} + {b!r}*i + {c!r}*j + {d!r}*k)"
                              for a, b, c, d in row)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(args)
    assert code == 3
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: ")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qfloquet.cli", "constant", "--entry", "i"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stable" in proc.stdout
