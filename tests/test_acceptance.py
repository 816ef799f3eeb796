"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (to the real stdout, so the lines survive capture)."""

import functools
import math
import sys

import numpy as np

from qfloquet.expressions import MatrixSpec, parse, quaternion_literal, render
from qfloquet.floquet import (Stability, classify_constant, classify_periodic,
                              exponent_sum_residual,
                              multiplier_product_check, normal_form)
from qfloquet.hill import HillProblem, classify_real
from qfloquet.integrate import IntegratorConfig, integrate, liouville_residual
from qfloquet.qmatrix import (QMatrix, adjoint, expm, inv, logm,
                              spectral_map_check, standard_eigenvalues)
from qfloquet.quaternion import Quaternion

from conftest import (CONST_DECAYING_2X2, CONST_DEFECTIVE_3X3,
                      CONST_MARGINAL_2X2, CONST_UNSTABLE_3X3)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


# one line per criterion; echoed immediately and again in the final summary
RESULTS = []


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"ACCEPTANCE {number} FAIL: {description}")
                print(RESULTS[-1])
                raise
            RESULTS.append(f"ACCEPTANCE {number} PASS: {description}")
            print(RESULTS[-1])
        return run
    return wrap


def match_values(got, expected, tol):
    assert len(got) == len(expected), f"{got} vs {expected}"
    remaining = list(expected)
    for g in got:
        best = min(range(len(remaining)), key=lambda m: abs(remaining[m] - g))
        assert abs(remaining[best] - g) <= tol, f"{g} not within {tol} of {remaining}"
        remaining.pop(best)


@criterion(1, "growing periodic system: monodromy, multipliers, verdict")
def test_criterion_1(fd_growing):
    ep = math.exp(math.pi)
    expected = QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])
    assert (fd_growing.monodromy - expected).max_abs() <= 1e-6
    match_values(fd_growing.multipliers.expanded(),
                 [complex(ep, 0), complex(-1, 0)], 1e-6)
    assert classify_periodic(fd_growing).kind == Stability.UNSTABLE


@criterion(2, "remaining periodic systems: multipliers, multiplicities, verdicts")
def test_criterion_2(fd_defective, fd_marginal, fd_decaying):
    em = math.exp(-math.pi)
    match_values(fd_defective.multipliers.expanded(),
                 [complex(-1, 0), complex(-1, 0)], 1e-6)
    match_values(fd_marginal.multipliers.expanded(), [1j, complex(-1, 0)], 1e-6)
    match_values(fd_decaying.multipliers.expanded(),
                 [complex(0, em), complex(em, 0)], 1e-6)
    assert classify_periodic(fd_defective).kind == Stability.UNSTABLE
    assert classify_periodic(fd_marginal).kind == Stability.STABLE
    assert classify_periodic(fd_decaying).kind == Stability.ASYMPTOTICALLY_STABLE
    entry = fd_defective.multipliers.entries[0]
    assert entry.algebraic_multiplicity == 2
    assert entry.geometric_multiplicity == 1


# criterion 3's reference table: each constant fixture's stated standard
# spectrum, one eigenvalue per conjugate pair of the adjoint, with multiplicity
REFERENCE_SPECTRA = {
    "CONST_UNSTABLE_3X3": (CONST_UNSTABLE_3X3, [0j, 1 + 0j, 1 + 1j]),
    "CONST_DEFECTIVE_3X3": (CONST_DEFECTIVE_3X3, [1j, 1j, 1j]),
    "CONST_MARGINAL_2X2": (CONST_MARGINAL_2X2, [0j, -3 + 3j]),
    # det(x - adjoint) = (x + 1)^2 (x^2 + 4x + 5): roots -1 (double), -2 +- i
    "CONST_DECAYING_2X2": (CONST_DECAYING_2X2,
                           [complex(-1, 0), complex(-2, 1)]),
}


def check_reference_spectrum(name, A, spectrum):
    """The stated spectrum and its conjugates must be the roots of the
    characteristic polynomial of the numpy-only reference adjoint of A."""
    stated = np.poly(list(spectrum) + [z.conjugate() for z in spectrum])
    actual = np.poly(_reference_adjoint(A))
    tol = 1e-9 * np.max(np.abs(actual))
    assert np.max(np.abs(stated - actual)) <= tol, (
        f"reference table: stated spectrum {spectrum} of {name} does not fit "
        f"its matrix; det(x - adjoint) has coefficients {actual.real}, "
        f"the stated spectrum gives {stated.real}")


@criterion(3, "constant systems: spectra to 1e-9 and verdicts")
def test_criterion_3():
    assert classify_constant(CONST_UNSTABLE_3X3).kind == Stability.UNSTABLE
    assert classify_constant(CONST_DEFECTIVE_3X3).kind == Stability.UNSTABLE
    assert classify_constant(CONST_MARGINAL_2X2).kind == Stability.STABLE
    assert (classify_constant(CONST_DECAYING_2X2).kind
            == Stability.ASYMPTOTICALLY_STABLE)

    for name, (A, spectrum) in REFERENCE_SPECTRA.items():
        check_reference_spectrum(name, A, spectrum)
    defective = standard_eigenvalues(CONST_DEFECTIVE_3X3)
    assert (defective.entries[0].geometric_multiplicity
            < defective.entries[0].algebraic_multiplicity)
    for A, spectrum in REFERENCE_SPECTRA.values():
        match_values(standard_eigenvalues(A).expanded(), spectrum, 1e-9)


@criterion(4, "hill with inconclusive trace: values and verdict channels")
def test_criterion_4(hill_report_inconclusive):
    r = hill_report_inconclusive
    assert abs(r.re_trace - (-0.262372)) <= 0.005
    assert abs(r.frob_sq - 5.14637) <= 0.1
    rho1 = max(r.multipliers.expanded(), key=abs)
    assert abs(rho1.real - (-0.197803)) <= 0.02
    assert abs(rho1.imag - 1.73905) <= 0.02
    assert r.verdict_frobenius.kind == Stability.UNSTABLE
    assert r.verdict_multipliers.kind == Stability.UNSTABLE
    assert r.verdict_trace.kind == Stability.UNDETERMINED


@criterion(5, "hill with large trace: values and volume constraint")
def test_criterion_5(hill_report_unstable):
    r = hill_report_unstable
    assert abs(r.re_trace - 27.2976) <= 0.3
    rho1 = max(r.multipliers.expanded(), key=abs)
    assert abs(rho1.real - 27.2621) <= 0.3
    assert abs(rho1.imag - 4.96756) <= 0.3
    moduli = [abs(v) for v in r.multipliers.expanded()]
    assert abs(moduli[0] * moduli[1] - 1.0) <= 1e-4


@criterion(6, "hill with large frobenius norm: values and verdict")
def test_criterion_6(hill_report_frobenius):
    r = hill_report_frobenius
    assert abs(r.frob_sq - 1942.77) <= 0.02 * 1942.77
    assert abs(abs(r.re_trace) - 1.0394) <= 0.02
    assert r.verdict_frobenius.kind == Stability.UNSTABLE


def _random_qmatrix(rng, n):
    return QMatrix(rng.uniform(-1, 1, (n, n, 4)))


def _reference_adjoint(A):
    a1 = A.data[..., 0] + 1j * A.data[..., 1]
    a2 = A.data[..., 2] + 1j * A.data[..., 3]
    n = A.rows
    chi = np.zeros((2 * n, 2 * n), dtype=complex)
    chi[:n, :n] = a1
    chi[:n, n:] = a2
    chi[n:, :n] = -a2.conj()
    chi[n:, n:] = a1.conj()
    return chi


def _random_periodic_spec(rng):
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            q0 = Quaternion(*rng.uniform(-0.6, 0.6, 4))
            q1 = Quaternion(*rng.uniform(-0.6, 0.6, 4))
            q2 = Quaternion(*rng.uniform(-0.6, 0.6, 4))
            row.append(f"({render(quaternion_literal(q0))})"
                       f" + ({render(quaternion_literal(q1))}) * cos(2*t)"
                       f" + ({render(quaternion_literal(q2))}) * sin(2*t)")
        rows.append(row)
    return MatrixSpec.from_strings(rows, period=math.pi)


@criterion(7, "property suite: algebra, spectra, logs, volume laws")
def test_criterion_7(periodic_growing_spec, periodic_defective_spec,
                     periodic_marginal_spec, periodic_decaying_spec,
                     fd_growing, fd_defective, fd_marginal, fd_decaying,
                     hill_trace_inconclusive):
    rng = np.random.default_rng(101)

    # adjoint homomorphism on 1000 random pairs up to 6x6
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A, B = _random_qmatrix(rng, n), _random_qmatrix(rng, n)
        assert np.max(np.abs(adjoint(A @ B)
                             - _reference_adjoint(A) @ _reference_adjoint(B))) <= 1e-12

    # spectral mapping on 200 random 4x4 matrices
    for _ in range(200):
        assert spectral_map_check(_random_qmatrix(rng, 4))

    # expm/logm round trip on 200 random invertible matrices
    for _ in range(200):
        n = int(rng.integers(1, 5))
        C = expm(_random_qmatrix(rng, n))
        assert (expm(logm(C)) - C).sum_norm() <= 1e-8 * max(1.0, C.sum_norm())

    # volume-growth law on every trajectory integrated here
    specs = {
        "growing": (periodic_growing_spec, TIGHT),
        "defective": (periodic_defective_spec, TIGHT),
        "marginal": (periodic_marginal_spec, None),
        "decaying": (periodic_decaying_spec, None),
        "hill": (MatrixSpec(
            [[parse("0"), parse("1")],
             [parse("-(2 + j*cos(2*t)^2 + k*sin(2*t))"), parse("0")]],
            period=math.pi), None),
        "constant": (MatrixSpec.from_qmatrix(CONST_DECAYING_2X2,
                                             period=math.pi), None),
    }
    for name, (spec, cfg) in specs.items():
        traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg,
                         samples=33)
        assert liouville_residual(traj, spec) <= 1e-7, name

    # multiplier product formula and P(t) periodicity on the four systems
    for fd in (fd_growing, fd_defective, fd_marginal, fd_decaying):
        assert multiplier_product_check(fd) <= 1e-7
        assert exponent_sum_residual(fd) <= 1e-8
        assert fd.periodicity_residual <= 1e-6

    # 20 random periodic systems: product formula and the independence of
    # the multipliers from the fundamental-matrix initial value
    for _ in range(20):
        spec = _random_periodic_spec(rng)
        fd = normal_form(spec)
        assert multiplier_product_check(fd) <= 1e-7
        R = QMatrix(rng.uniform(-1, 1, (2, 2, 4))) + QMatrix.identity(2) * 2.0
        traj = integrate(spec, 0.0, math.pi, R)
        alternate = standard_eigenvalues(inv(R) @ traj.final)
        match_values(alternate.expanded(), fd.multipliers.expanded(), 1e-6)


@criterion(8, "fixed-step RK4 order check against the adaptive reference")
def test_criterion_8(periodic_growing_spec):
    reference = integrate(periodic_growing_spec, 0.0, math.pi,
                          QMatrix.identity(2), TIGHT).final
    errors = []
    for n in (100, 200):
        cfg = IntegratorConfig(method="rk4", rk4_step=math.pi / n)
        sol = integrate(periodic_growing_spec, 0.0, math.pi,
                        QMatrix.identity(2), cfg).final
        errors.append((sol - reference).sum_norm())
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0, ratio


@criterion(9, "real-coefficient closed-form classifications")
def test_criterion_9():
    assert classify_real(HillProblem(parse("1"), 2 * math.pi)).kind \
        == Stability.STABLE
    assert classify_real(HillProblem(parse("1"), math.pi)).kind \
        == Stability.STABLE
    assert classify_real(HillProblem(parse("-1"), math.pi)).kind \
        == Stability.UNSTABLE
