"""The benchmark's three workloads: seeded input streams, one unit of work
each, and the output checks that decide whether a unit passed.

A unit is what one latency sample times: one `periodic` call, one 16-point
`sweep` call, or one constant matrix (`constant` plus `logm(expm(A))`).  A unit
yields one outcome per counted system: one for `periodic_random` and
`constant_algebra`, one per grid point for `hill_chart`.  An outcome is
`(verdict, failures)`: `verdict` is false when no verdict came back (raised,
non-zero exit, row error); `failures` names every check that did not hold.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

HILL_GRID = tuple(float(p) for p in np.linspace(-1.0, 3.0, 16))

# tolerances from the acceptance gate (criteria 1, 2, 5 and 7)
PRODUCT_TOL = 1e-7
EXPONENT_SUM_TOL = 1e-8
PERIODICITY_TOL = 1e-6
MULTIPLIER_TOL = 1e-6
VOLUME_TOL = 1e-4
ROUND_TRIP_TOL = 1e-8

# failures the program already produces on these inputs (NOTES.md, "Output
# checks"): counted in `failed`, but they do not make a run incorrect
KNOWN_DEFECTS = {
    "hill_chart": {"channel_contradiction"},
    "constant_algebra": {"raised:OmegaViolation"},
}

_EP, _EM = math.exp(math.pi), math.exp(-math.pi)
# the periodic fixtures of tests/conftest.py, with the multipliers and
# verdicts that acceptance criteria 1 and 2 require of them
PAPER_SYSTEMS = (
    ("growing", [["1", "1"], ["0", "i + 2*exp(2*i*t)*j"]],
     (complex(_EP, 0), complex(-1, 0)), "unstable"),
    ("defective", [["k", "1"], ["0", "i + 2*exp(2*i*t)*j"]],
     (complex(-1, 0), complex(-1, 0)), "unstable"),
    ("marginal", [["k/2", "exp(-2*i*t)"],
                  ["0", "i + 2*j*cos(2*t) + 2*k*sin(2*t)"]],
     (1j, complex(-1, 0)), "stable"),
    ("decaying", [["i/2 - 1", "exp(2*j*t)*exp(-k*sin(2*t))"],
                  ["0", "2*k*cos(2*t) - 1"]],
     (complex(0, _EM), complex(_EM, 0)), "asymptotically stable"),
)


@dataclass
class Unit:
    label: str
    argv: list
    sources: list                      # expression strings, parsed in set-up
    variables: tuple = ("t",)
    expected: tuple = None             # paper systems: multipliers, verdict
    matrix: object = None              # constant_algebra: (n, n, 4) array
    systems: int = 1                   # outcomes the unit yields


# -- input generation -----------------------------------------------------------


def _literal(q):
    """A quaternion as grammar text; repr keeps every bit of each component."""
    a, b, c, d = (float(x) for x in q)
    return f"({a!r} + {b!r}*i + {c!r}*j + {d!r}*k)"


def _entry_args(rows):
    # each --entry occurrence is one row; entries must not start with '-'
    args = []
    for row in rows:
        args += ["--entry", *row]
    return args


def periodic_inputs(seed):
    """The four paper systems, then seeded criterion-7 random 2x2 specs."""
    for name, rows, multipliers, verdict in PAPER_SYSTEMS:
        yield Unit(f"paper:{name}",
                   ["periodic", "--period", "pi", *_entry_args(rows),
                    "--format", "json"],
                   [s for row in rows for s in row],
                   expected=(multipliers, verdict))
    rng = np.random.default_rng([seed, 1])
    for index in itertools.count():
        rows = [[f"{_literal(rng.uniform(-0.6, 0.6, 4))}"
                 f" + {_literal(rng.uniform(-0.6, 0.6, 4))} * cos(2*t)"
                 f" + {_literal(rng.uniform(-0.6, 0.6, 4))} * sin(2*t)"
                 for _ in range(2)] for _ in range(2)]
        yield Unit(f"random:{index}",
                   ["periodic", "--period", "pi", *_entry_args(rows),
                    "--format", "json"],
                   [s for row in rows for s in row])


def hill_inputs(seed):
    """16-point charts of a(t) = p + c1 j cos 2t + c2 k sin 2t, seeded c1, c2."""
    rng = np.random.default_rng([seed, 2])
    grid = ",".join(repr(p) for p in HILL_GRID)
    for index in itertools.count():
        c1, c2 = (float(c) for c in rng.uniform(-1.0, 1.0, 2))
        source = f"p + {c1!r}*j*cos(2*t) + {c2!r}*k*sin(2*t)"
        yield Unit(f"chart:{index}",
                   ["sweep", "--period", "pi", f"--a={source}",
                    f"--p-grid={grid}", "--jobs", "1", "--format", "json"],
                   [source], variables=("t", "p"), systems=len(HILL_GRID))


def _adjoint(a):
    a1 = a[..., 0] + 1j * a[..., 1]
    a2 = a[..., 2] + 1j * a[..., 3]
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]])


def _from_adjoint(chi):
    n = chi.shape[0] // 2
    a1, a2 = chi[:n, :n], chi[:n, n:]
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)


def _pi_rotation(rng, real_part):
    """real_part + pi*u for a random unit pure quaternion u: exp is -e^real_part."""
    u = rng.normal(size=3)
    return np.concatenate([[real_part], math.pi * u / np.linalg.norm(u)])


CONSTANT_KINDS = ("random", "pair", "jordan")


def constant_matrix(rng, kind, n):
    """An n x n quaternion matrix of one of the three kinds.

    `pair` and `jordan` are S J S^-1 where J holds a pi-rotation pair sharing
    one real part, diagonal or as a length-2 Jordan chain, so exp(A) has a
    repeated eigenvalue on the negative real axis.
    """
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (n, n, 4))
    J = np.zeros((n, n, 4))
    for m in range(2, n):
        J[m, m] = rng.uniform(-1.0, 1.0, 4)
    real_part = float(rng.uniform(-0.5, 0.5))
    if kind == "pair":
        J[0, 0] = _pi_rotation(rng, real_part)
        J[1, 1] = _pi_rotation(rng, real_part)
    else:
        J[0, 0] = J[1, 1] = _pi_rotation(rng, real_part)
        J[0, 1, 0] = 1.0
    S = rng.uniform(-0.5, 0.5, (n, n, 4))
    S[np.arange(n), np.arange(n), 0] += 2.0
    chi_s = _adjoint(S)
    return _from_adjoint(chi_s @ _adjoint(J) @ np.linalg.inv(chi_s))


def constant_inputs(seed):
    """Seeded n x n constant matrices, n in 2..6, in equal thirds by kind."""
    rng = np.random.default_rng([seed, 3])
    for index in itertools.count():
        kind = CONSTANT_KINDS[index % 3]
        n = int(rng.integers(2, 7))
        A = constant_matrix(rng, kind, n)
        rows = [[_literal(A[i, j]) for j in range(n)] for i in range(n)]
        yield Unit(f"{kind}:{index}",
                   ["constant", *_entry_args(rows), "--format", "json"],
                   [s for row in rows for s in row], variables=(), matrix=A)


# -- output checks ----------------------------------------------------------------


def _expanded(spectrum):
    return [complex(*e["value"]) for e in spectrum
            for _ in range(e["algebraic_multiplicity"])]


def _values_match(got, expected, tol):
    if len(got) != len(expected):
        return False
    remaining = list(expected)
    for value in got:
        best = min(range(len(remaining)), key=lambda m: abs(remaining[m] - value))
        if abs(remaining[best] - value) > tol:
            return False
        remaining.pop(best)
    return True


def check_periodic(results, expected=None):
    """Names of the failed checks on one `periodic --format json` result."""
    failures = []
    if not results["product_residual"] <= PRODUCT_TOL:
        failures.append("product_residual")
    if not results["exponent_sum_residual"] <= EXPONENT_SUM_TOL:
        failures.append("exponent_sum_residual")
    if not results["periodicity_residual"] <= PERIODICITY_TOL:
        failures.append("periodicity_residual")
    if expected is not None:
        multipliers, verdict = expected
        if not _values_match(_expanded(results["multipliers"]), multipliers,
                             MULTIPLIER_TOL):
            failures.append("paper_multipliers")
        if results["verdict"]["kind"] != verdict:
            failures.append("paper_verdict")
    return failures


def check_hill_rows(rows, grid=HILL_GRID):
    """One outcome per grid point of a `sweep --format json` result."""
    by_p = {row["p"]: row for row in rows}
    outcomes = []
    for p in grid:
        row = by_p.get(p)
        if row is None:
            outcomes.append((False, ["missing_row"]))
            continue
        if row["error"]:
            outcomes.append((False, ["row_error"]))
            continue
        failures = []
        if not abs(row["abs_rho1"] * row["abs_rho2"] - 1.0) <= VOLUME_TOL:
            failures.append("volume")
        # ROADMAP invariant: a secondary channel may not say unstable unless
        # the authoritative multiplier channel does
        if row["verdict_multipliers"] != "unstable" and "unstable" in (
                row["verdict_trace"], row["verdict_frobenius"]):
            failures.append("channel_contradiction")
        outcomes.append((True, failures))
    return outcomes


def check_constant(results, n, round_trip_residual):
    failures = []
    if sum(e["algebraic_multiplicity"] for e in results["eigenvalues"]) != n:
        failures.append("multiplicity_sum")
    if not round_trip_residual <= ROUND_TRIP_TOL:
        failures.append("logm_round_trip")
    return failures


# -- running one unit --------------------------------------------------------------


def call_cli(cli, argv):
    """Run `qfloquet.cli.main` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_failure(code, err):
    # "numerical failure: OmegaViolation: ..." -> "exit3:OmegaViolation"
    parts = err.split(":")
    reason = parts[1].strip() if len(parts) > 2 else parts[0].strip()
    return f"exit{code}:{reason}"


def run_periodic(unit, qf, timed):
    with timed:
        code, out, err = call_cli(qf.cli, unit.argv)
    if code != 0:
        return [(False, [_exit_failure(code, err)])]
    return [(True, check_periodic(json.loads(out)["results"], unit.expected))]


def run_hill(unit, qf, timed):
    with timed:
        code, out, err = call_cli(qf.cli, unit.argv)
    if code != 0:
        return [(False, [_exit_failure(code, err)])] * len(HILL_GRID)
    return check_hill_rows(json.loads(out)["results"]["rows"])


def run_constant(unit, qf, timed):
    """`constant --format json`, then B = logm(expm(A)), checked off the clock."""
    qmatrix = qf.qmatrix
    A = qmatrix.QMatrix(unit.matrix)
    with timed:
        code, out, err = call_cli(qf.cli, unit.argv)
        C = qmatrix.expm(A)
        B = qmatrix.logm(C)
    if code != 0:
        return [(False, [_exit_failure(code, err)])]
    residual = round_trip_residual(qmatrix, B, C)
    return [(True, check_constant(json.loads(out)["results"], A.rows, residual))]


def round_trip_residual(qmatrix, B, C):
    """||expm(B) - C|| relative to max(1, ||C||), the logm residual contract."""
    return (qmatrix.expm(B) - C).sum_norm() / max(1.0, C.sum_norm())


WORKLOADS = {
    "periodic_random": (periodic_inputs, run_periodic),
    "hill_chart": (hill_inputs, run_hill),
    "constant_algebra": (constant_inputs, run_constant),
}
