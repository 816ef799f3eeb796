"""Quaternion-valued Hill's equation u'' + a(t) u = 0 with periodic a.

The equation is analyzed through its 2x2 companion system.  Three verdict
channels are reported side by side: the real part of the monodromy trace
(inconclusive inside (-2, 2) for quaternion coefficients, and on the band
around +-2 unless M(T) = +-I), the Frobenius channel (the squared Frobenius
norm, reported, and an instability certificate from the traces of powers
of M(T)), and the characteristic multipliers (authoritative).  A
real-coefficient specialization reproduces the classical trace
classification.  `analyze_batch` analyzes the points of a parameter grid
(a stability chart) with one batched integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import MatrixSpec, Neg, Num, compile_expr, grid_max
from .floquet import (COEFF_PERIODICITY_TOL, STAB_TOL, Evidence, Stability,
                      StabilityVerdict, characteristic_multipliers,
                      classify_multipliers)
from .integrate import integrate, integrate_batch
from .qmatrix import QMatrix, adjoint, standard_eigenvalues
from .quaternion import hypot

# band half-width for trace comparisons against +-2
TRACE_TOL = 1e-6
# allowance for the M(T) = +-I tests
IDENTITY_TOL = 1e-6
# largest vector part of a(t) on the grid that classify_real accepts
REAL_COEFF_TOL = 1e-12
# the Frobenius channel tries the powers k = 1, 2, 4, ..., 2**(this - 1)
FROBENIUS_SQUARINGS = 7


class NotRealCoefficient(ValueError):
    """Real-coefficient specialization called with a quaternion a(t)."""


@dataclass(frozen=True)
class HillProblem:
    """u'' + a(t) u = 0; building one checks that a(t) has the period."""
    a: object           # TimeExpr for the coefficient a(t)
    period: float
    # values of variables in a(t) other than t; a dict, so kept out of hash
    params: dict = field(default=None, hash=False)

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")
        # a(t) is the companion's only varying entry, so this is the largest
        # |a(t) - a(t+T)| on the grid
        worst = companion(self).periodicity_residual(params=self.params)
        if not worst <= COEFF_PERIODICITY_TOL:    # nan fails too
            raise ValueError(
                f"a(t) periodicity residual {worst:.3e} exceeds "
                f"{COEFF_PERIODICITY_TOL:.1e}")


@dataclass(frozen=True)
class HillReport:
    M_T: QMatrix
    re_trace: float
    frob_sq: float
    multipliers: object
    K_eigs: tuple
    verdict_trace: StabilityVerdict
    verdict_frobenius: StabilityVerdict
    verdict_multipliers: StabilityVerdict


def companion(problem):
    """2x2 first-order system [[0, 1], [-a(t), 0]] equivalent to the equation."""
    entries = [[Num(0.0), Num(1.0)],
               [Neg(problem.a), Num(0.0)]]
    return MatrixSpec(entries, period=problem.period)


def _near_identity_verdict(M_T, sign, re_trace, otherwise):
    """STABLE when M(T) = sign * I within IDENTITY_TOL, else `otherwise`."""
    target = QMatrix.identity(2) * sign
    distance = (M_T - target).sum_norm()
    kind = Stability.STABLE if distance <= IDENTITY_TOL else otherwise
    evidence = (
        Evidence(complex(re_trace), "Re(tr M(T))", 2.0, abs(re_trace) - 2.0),
        Evidence(complex(sign), f"||M(T) - {sign:+d}I||", IDENTITY_TOL, distance),
    )
    return StabilityVerdict(kind, evidence)


def _trace_verdict(re_trace, M_T):
    # on the band around +-2 with M(T) != +-I, the multipliers of a
    # quaternion M(T) may still lie on the unit circle (a real M(T) would be
    # a Jordan block), so the trace alone decides nothing there
    if abs(re_trace - 2.0) <= TRACE_TOL:
        return _near_identity_verdict(M_T, +1, re_trace, Stability.UNDETERMINED)
    if abs(re_trace + 2.0) <= TRACE_TOL:
        return _near_identity_verdict(M_T, -1, re_trace, Stability.UNDETERMINED)
    evidence = (Evidence(complex(re_trace), "Re(tr M(T))", 2.0,
                         abs(re_trace) - 2.0),)
    if abs(re_trace) > 2.0:
        return StabilityVerdict(Stability.UNSTABLE, evidence)
    return StabilityVerdict(Stability.UNDETERMINED, evidence)


def _frobenius_verdict(M_T):
    """UNSTABLE when a power M(T)^k, k = 1, 2, 4, ..., 64, certifies a
    multiplier off the unit circle, else UNDETERMINED.

    Re tr M^k is the sum of Re(lambda^k) over the n standard eigenvalues, so
    |Re tr M^k| > n (1 + 2 STAB_TOL)^k forces some |lambda| > 1 + 2 STAB_TOL,
    beyond the band where the multiplier channel is undetermined.  The bound
    also allows for the rounding of M^k, k eps ||M^k||_F, and at least
    TRACE_TOL.  The evidence is the power with the largest margin.
    """
    chi = adjoint(M_T)
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        for power in range(FROBENIUS_SQUARINGS):
            if power:
                chi = chi @ chi
            k = 2 ** power
            # the adjoint doubles the trace and the squared Frobenius norm
            trace = 0.5 * np.trace(chi).real
            rounding = (k * np.finfo(float).eps * np.linalg.norm(chi)
                        / math.sqrt(2.0))
            bound = (M_T.rows * (1.0 + 2.0 * STAB_TOL) ** k
                     + max(TRACE_TOL, rounding))
            evidence = Evidence(complex(trace), f"Re tr M(T)^{k}", bound,
                                abs(trace) - bound)
            if evidence.margin > 0:
                return StabilityVerdict(Stability.UNSTABLE, (evidence,))
            if best is None or evidence.margin > best.margin:
                best = evidence
    return StabilityVerdict(Stability.UNDETERMINED, (best,))


def k_matrix_diagnostics(M_T):
    """Eigenvalues of K(T) = M(T) M(T)^dagger and the quadratic residual.

    K is Hermitian positive semidefinite, so its standard eigenvalues are
    real.  The residual max |k^2 - ||M||_F^2 k + 1| probes whether the pair
    solves the trace/determinant quadratic; it is reported, not asserted.
    """
    K = M_T @ M_T.dagger()
    kappas = sorted(v.real for v in standard_eigenvalues(K).expanded())
    frob_sq = M_T.frobenius_sq()
    residual = max(abs(k * k - frob_sq * k + 1.0) for k in kappas)
    return kappas[0], kappas[1], residual


def _monodromy(problem, cfg):
    # HillProblem has already checked the period of a(t)
    return integrate(companion(problem), 0.0, problem.period,
                     QMatrix.identity(2), cfg, params=problem.params).final


def analyze(problem, cfg=None):
    """Integrate the companion system over one period and report all three
    verdict channels."""
    return _report(_monodromy(problem, cfg))


def analyze_batch(problems, cfg=None):
    """`analyze` for problems that share a(t) and the period and differ in
    their parameter values, integrated as one batch with each parameter bound
    to an array of the members' values.

    Returns one entry per problem: its HillReport, or the exception that
    ended it; a failed member leaves the others unchanged.  An entry is the
    same, bit for bit, in a batch of any size.
    """
    if not problems:
        return []
    first = problems[0]
    if any(p.a != first.a or p.period != first.period
           or (p.params or {}).keys() != (first.params or {}).keys()
           for p in problems):
        raise ValueError("a batch must share a(t), the period and the "
                         "parameter names")
    params = {name: [p.params[name] for p in problems]
              for name in first.params or {}}
    outcomes = integrate_batch(companion(first), 0.0, first.period,
                               QMatrix.identity(2), params, cfg)
    reports = []
    for outcome in outcomes:
        if not isinstance(outcome, Exception):
            try:
                outcome = _report(outcome)
            except (ArithmeticError, ValueError) as exc:
                outcome = exc
        reports.append(outcome)
    return reports


def _report(M_T):
    re_trace = M_T.re_trace()
    frob_sq = M_T.frobenius_sq()
    multipliers = characteristic_multipliers(M_T)
    k1, k2, _ = k_matrix_diagnostics(M_T)
    return HillReport(
        M_T=M_T,
        re_trace=re_trace,
        frob_sq=frob_sq,
        multipliers=multipliers,
        K_eigs=(k1, k2),
        verdict_trace=_trace_verdict(re_trace, M_T),
        verdict_frobenius=_frobenius_verdict(M_T),
        verdict_multipliers=classify_multipliers(multipliers),
    )


def classify_real(problem, cfg=None):
    """Classical trace test for real-valued a(t).

    tr M(T) outside [-2, 2] is unstable; strictly inside is stable (not
    asymptotically); on the boundary stability requires M(T) = +-I.
    """
    a = compile_expr(problem.a)
    worst = grid_max(lambda t: hypot(*a(t, problem.params)[1:]),
                     problem.period)
    if not worst <= REAL_COEFF_TOL:
        raise NotRealCoefficient(
            f"coefficient has vector part up to {worst:.3e}")
    M_T = _monodromy(problem, cfg)
    trace = M_T.re_trace()
    if abs(trace - 2.0) <= TRACE_TOL:
        return _near_identity_verdict(M_T, +1, trace, Stability.UNSTABLE)
    if abs(trace + 2.0) <= TRACE_TOL:
        return _near_identity_verdict(M_T, -1, trace, Stability.UNSTABLE)
    evidence = (Evidence(complex(trace), "tr M(T)", 2.0, abs(trace) - 2.0),)
    if abs(trace) > 2.0:
        return StabilityVerdict(Stability.UNSTABLE, evidence)
    return StabilityVerdict(Stability.STABLE, evidence)
