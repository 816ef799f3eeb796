"""Quaternion-valued Hill's equation u'' + a(t) u = 0 with periodic a.

The equation is analyzed through its 2x2 companion system.  Three verdict
channels are reported side by side: the real part of the monodromy trace
(inconclusive inside (-2, 2) for quaternion coefficients, and on the band
around +-2 unless M(T) = +-I), the Frobenius channel (the squared Frobenius
norm, reported, and an instability certificate from the traces of powers
of M(T)), and the characteristic multipliers (authoritative).  A
real-coefficient specialization reproduces the classical trace
classification.  `analyze_chart` analyzes the points of a parameter grid (a
stability chart) with one set-up: one compiled companion system and one
periodicity check for every point.  It and `analyze_batch` integrate the
points as one batch, M(T) alone through `integrate_batch`, and report them
all from array operations on the stack of their monodromy adjoints;
`analyze` and `classify_real` integrate a batch of one the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import MatrixSpec, Neg, Num, compile_expr, grid_max
from .floquet import (COEFF_PERIODICITY_TOL, STAB_TOL, Evidence, Stability,
                      StabilityVerdict, _require_periodic,
                      characteristic_multipliers, classify_multipliers)
from .integrate import batch_params, integrate_batch
from .qmatrix import QMatrix, adjoint, adjoints
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
        # building the companion raises "period must be positive" or
        # "period must be finite"; a(t) is its only varying entry, so its
        # periodicity check is a(t)'s
        _require_periodic(companion(self), self.params)

    @functools.cached_property
    def _spec(self):
        return _companion(self.a, self.period)


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
    """2x2 first-order system [[0, 1], [-a(t), 0]] equivalent to the
    equation, compiled once per problem."""
    return problem._spec


def _companion(a, period):
    return MatrixSpec([[Num(0.0), Num(1.0)], [Neg(a), Num(0.0)]],
                      period=period)


def _trace_band_verdict(re_trace, M_T, inside, quantity):
    """The +-2 verdict of a trace test on M(T).  On the band of half-width
    TRACE_TOL around +-2 it is STABLE when M(T) = +-I within IDENTITY_TOL,
    else UNDETERMINED (M(T) is near a Jordan block, on either side); off
    the band it is UNSTABLE for |tr| > 2 and `inside` within (-2, 2), with
    the trace's evidence labelled `quantity`."""
    for sign in (+1, -1):
        if abs(re_trace - 2.0 * sign) <= TRACE_TOL:
            distance = (M_T - QMatrix.identity(2) * sign).sum_norm()
            kind = (Stability.STABLE if distance <= IDENTITY_TOL
                    else Stability.UNDETERMINED)
            return StabilityVerdict(kind, (
                Evidence(complex(re_trace), "Re(tr M(T))", 2.0,
                         abs(re_trace) - 2.0),
                Evidence(complex(sign), f"||M(T) - {sign:+d}I||",
                         IDENTITY_TOL, distance)))
    kind = Stability.UNSTABLE if abs(re_trace) > 2.0 else inside
    return StabilityVerdict(kind, (Evidence(complex(re_trace), quantity, 2.0,
                                            abs(re_trace) - 2.0),))


def _frobenius_verdicts(chi):
    """For each adjoint in the (B, 2n, 2n) stack: UNSTABLE when a power
    M(T)^k, k = 1, 2, 4, ..., 64, certifies a multiplier off the unit circle,
    else UNDETERMINED.

    Re tr M^k is the sum of Re(lambda^k) over the n standard eigenvalues, so
    |Re tr M^k| > n (1 + 2 STAB_TOL)^k forces some |lambda| > 1 + 2 STAB_TOL,
    beyond the band where the multiplier channel is undetermined.  The bound
    also allows for the rounding of M^k, k eps ||M^k||_F, and at least
    TRACE_TOL.  The evidence is the first power that certifies, or else the
    power with the largest margin.
    """
    n = chi.shape[-1] // 2
    powers = np.empty((FROBENIUS_SQUARINGS,) + chi.shape, dtype=complex)
    powers[0] = chi
    ks = [2 ** power for power in range(FROBENIUS_SQUARINGS)]
    with np.errstate(over="ignore", invalid="ignore"):
        for power in range(1, FROBENIUS_SQUARINGS):
            np.matmul(powers[power - 1], powers[power - 1], out=powers[power])
        # the adjoint doubles the trace and the squared Frobenius norm
        traces = 0.5 * np.trace(powers, axis1=-2, axis2=-1).real
        rounding = (np.multiply(ks, np.finfo(float).eps)[:, None]
                    * np.linalg.norm(powers, axis=(-2, -1)) / math.sqrt(2.0))
        growth = [n * (1.0 + 2.0 * STAB_TOL) ** k for k in ks]
        bounds = np.array(growth)[:, None] + np.fmax(TRACE_TOL, rounding)
        margins = np.abs(traces) - bounds
    certified = margins > 0
    # a nan margin (an overflowed power) never serves as evidence
    best = np.where(np.isnan(margins), -np.inf, margins).argmax(axis=0)
    chosen = np.where(certified.any(axis=0), certified.argmax(axis=0), best)
    members = np.arange(len(chosen))
    verdicts = []
    for power, trace, bound, margin in zip(
            chosen.tolist(), traces[chosen, members].tolist(),
            bounds[chosen, members].tolist(),
            margins[chosen, members].tolist()):
        evidence = Evidence(complex(trace), f"Re tr M(T)^{2 ** power}",
                            bound, margin)
        kind = Stability.UNSTABLE if margin > 0 else Stability.UNDETERMINED
        verdicts.append(StabilityVerdict(kind, (evidence,)))
    return verdicts


def _k_eigenvalues(chi):
    """Standard eigenvalues of K(T) = M(T) M(T)^dagger, ascending, for each
    adjoint in a (B, 2n, 2n) stack: K's adjoint is Hermitian, and each of
    its eigenvalues appears there twice."""
    doubled = np.linalg.eigvalsh(chi @ chi.conj().swapaxes(-2, -1))
    return 0.5 * (doubled[..., 0::2] + doubled[..., 1::2])


def k_matrix_diagnostics(M_T):
    """Eigenvalues of K(T) = M(T) M(T)^dagger and the quadratic residual.

    K is Hermitian positive semidefinite, so its standard eigenvalues are
    real.  The residual max |k^2 - ||M||_F^2 k + 1| probes whether the pair
    solves the trace/determinant quadratic; it is reported, not asserted.
    """
    k1, k2 = (float(k) for k in _k_eigenvalues(adjoint(M_T)[None])[0])
    frob_sq = M_T.frobenius_sq()
    residual = max(abs(k * k - frob_sq * k + 1.0) for k in (k1, k2))
    return k1, k2, residual


def analyze(problem, cfg=None):
    """Integrate the companion system over one period and report all three
    verdict channels: the report of a batch of one, through the path of
    `analyze_batch`, with the problem's scalar parameters."""
    (report,) = _analyze_members(companion(problem), problem.params, cfg)
    if isinstance(report, Exception):
        raise report
    return report


def analyze_batch(problems, cfg=None):
    """`analyze` for problems that share a(t) and the period and differ in
    their parameter values, integrated as one batch with each parameter bound
    to an array of the members' values, and reported on the stack of their
    monodromy adjoints.

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
    outcomes = _analyze_members(companion(first), params, cfg)
    # problems without parameters are one system, analyzed once
    return outcomes if params else outcomes * len(problems)


def analyze_chart(a, period, params, cfg=None):
    """`analyze_batch` for the points of a stability chart, set up once.

    `params` maps each parameter name of a(t) to one value per point (see
    `integrate.batch_params`).  The companion system is compiled once, and one
    periodicity check covers every point; a point that fails it, or every
    point when the batched check raises, is checked again alone.  Returns
    one entry per point: its HillReport, or the exception that ended it,
    the one building its HillProblem would raise included.  An entry is the
    same, bit for bit, in a chart of any size.
    """
    params, size = batch_params(params)
    try:
        spec = _companion(a, period)
    except ValueError as exc:
        return [exc] * size
    outcomes = {}
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            worst = spec.periodicity_residual(params={
                name: values[None] for name, values in params.items()})
        except Exception:  # each point's own check decides
            worst = np.full(size, np.nan)
        suspects = np.flatnonzero(
            np.logical_not(worst <= COEFF_PERIODICITY_TOL)).tolist()
        for k in suspects:
            try:
                _require_periodic(spec, {name: values[k]
                                         for name, values in params.items()})
            except Exception as exc:  # the point's set-up failure
                outcomes[k] = exc
    passing = [k for k in range(size) if k not in outcomes]
    if passing:
        outcomes.update(zip(passing, _analyze_members(
            spec, {name: values[passing] for name, values in params.items()},
            cfg)))
    return [outcomes[k] for k in range(size)]


def _analyze_members(spec, params, cfg):
    """One entry per member of the batch params bind: its HillReport, or
    the exception that ended its integration or its report."""
    outcomes = integrate_batch(spec, 0.0, spec.period, QMatrix.identity(2),
                               params, cfg)
    integrated = [k for k, outcome in enumerate(outcomes)
                  if not isinstance(outcome, Exception)]
    for k, report in zip(integrated,
                         _reports([outcomes[k] for k in integrated])):
        outcomes[k] = report
    return outcomes


def _reports(monodromies):
    """The HillReport of each M(T) in a list, or the exception that ended
    it, from array operations on the stack of their adjoints: Re tr M,
    ||M||_F^2, the multipliers, K's eigenvalues and the seven squarings of
    the Frobenius channel."""
    if not monodromies:
        return []
    tops = np.stack([M.top for M in monodromies])
    chi = adjoints(tops)
    re_traces = np.trace(tops, axis1=-2, axis2=-1).real
    frob_sqs = (tops.view(float) ** 2).sum(axis=(1, 2))
    multipliers = characteristic_multipliers(chi)
    k_eigs = _k_eigenvalues(chi)
    frobenius = _frobenius_verdicts(chi)
    reports = []
    for M_T, re_trace, frob_sq, spectrum, kappas, verdict in zip(
            monodromies, re_traces.tolist(), frob_sqs.tolist(), multipliers,
            k_eigs.tolist(), frobenius):
        if isinstance(spectrum, Exception):
            reports.append(spectrum)
            continue
        reports.append(HillReport(
            M_T=M_T,
            re_trace=re_trace,
            frob_sq=frob_sq,
            multipliers=spectrum,
            K_eigs=tuple(kappas),
            # inside (-2, 2) the multipliers of a quaternion M(T) need not
            # lie on the unit circle, so the trace decides nothing there
            verdict_trace=_trace_band_verdict(
                re_trace, M_T, Stability.UNDETERMINED, "Re(tr M(T))"),
            verdict_frobenius=verdict,
            verdict_multipliers=classify_multipliers(spectrum),
        ))
    return reports


def classify_real(problem, cfg=None):
    """Classical trace test for real-valued a(t).

    tr M(T) outside [-2, 2] is unstable; strictly inside is stable (not
    asymptotically).  On the band of half-width TRACE_TOL around +-2 it is
    stable when M(T) = +-I, and else undetermined: there the trace cannot
    tell a Jordan block from two multipliers on the unit circle.
    """
    a = compile_expr(problem.a)
    worst = grid_max(lambda t: hypot(*a(t, problem.params)[1:]),
                     problem.period)
    if not worst <= REAL_COEFF_TOL:
        raise NotRealCoefficient(
            f"coefficient has vector part up to {worst:.3e}")
    (M_T,) = integrate_batch(companion(problem), 0.0, problem.period,
                             QMatrix.identity(2), problem.params, cfg)
    if isinstance(M_T, Exception):
        raise M_T
    return _trace_band_verdict(M_T.re_trace(), M_T, Stability.STABLE,
                               "tr M(T)")
