"""Floquet machinery for quaternion-valued periodic systems.

Monodromy matrices, characteristic multipliers and exponents, the normal
form M(t) = P(t) e^{tB}, periodic-solution witnesses, and stability
classification for both constant and periodic systems.  Stability hinges on
the standard eigenvalues: real parts for constant systems, moduli of the
multipliers for periodic ones, with defective eigenvalues on the boundary
counting as unstable.  The normal form reads M(t) at step ends of two
integrations, one per period, on sample grids that share every other
first-period time but no step length, so P's periodicity check compares
two different discretizations.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .expressions import GRID_POINTS
from .integrate import integrate, integrate_batch, trace_integral
from .qmatrix import (EIG_CLUSTER_TOL, SINGULAR_TOL, QMatrix,
                      StandardSpectrum, adjoint, expm_adjoint,
                      logm, right_eigenvector, standard_eigenvalues, sum_norms)
from .quaternion import Quaternion

# half-width of the tolerance band around the stability boundary
STAB_TOL = 1e-7
# periodicity residual allowance for P(t), relative to max ||P||
P_PERIODICITY_TOL = 1e-6
# number of P(t) samples kept on [0, T], and of equal intervals of [T, 2T]
# whose ends are second-period samples: 32 and 48 intervals share every
# other first-period time, 17 in all, where P's periodicity is checked
P_SAMPLE_COUNT = 33
SECOND_PERIOD_SAMPLES = 48
# residual allowance for the A(t+T) = A(t) grid test (also used by hill.py)
COEFF_PERIODICITY_TOL = 1e-8


class NotPeriodic(ValueError):
    """System lacks a finite period or fails the periodicity grid test."""


class PeriodicityViolation(ArithmeticError):
    """Computed P(t) failed to repeat after one period."""


class ZeroMultiplier(ArithmeticError):
    """Characteristic exponents are undefined for a zero multiplier."""


class Stability(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    STABLE = "stable"
    UNSTABLE = "unstable"
    UNDETERMINED = "undetermined"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Evidence:
    value: complex
    quantity: str
    threshold: float
    margin: float


@dataclass(frozen=True)
class StabilityVerdict:
    kind: Stability
    evidence: tuple

    def __str__(self):
        return str(self.kind)


@dataclass(frozen=True)
class PeriodicWitness:
    kind: str            # "T_periodic" or "TwoT_periodic"
    multiplier: complex
    eta: QMatrix


@dataclass(frozen=True)
class FloquetData:
    """What `normal_form` finds; its samples are stacks of adjoints."""
    period: float
    monodromy: QMatrix
    B: QMatrix
    multipliers: StandardSpectrum
    exponents: list
    sample_times: np.ndarray   # P_SAMPLE_COUNT times from 0 to T
    P_samples: np.ndarray   # adjoints of P(t) at the sample times
    periodicity_residual: float   # max ||P(t + T) - P(t)||, t on both grids
    trajectories: tuple   # the integrations over [0, T] and [T, 2T]
    trace_integral: float   # integral of Re tr A over [0, T]


# -- stability classification -------------------------------------------------


def _core_verdict(items, tau):
    # items: (margin, defective) with margin > 0 on the unstable side
    if any(m > tau for m, _ in items):
        return Stability.UNSTABLE
    if any(abs(m) <= tau and defective for m, defective in items):
        return Stability.UNSTABLE
    if all(m < -tau for m, _ in items):
        return Stability.ASYMPTOTICALLY_STABLE
    return Stability.STABLE


def _classify_margins(items, tau=STAB_TOL):
    """Verdict from boundary margins, flagging tolerance-band flips.

    Margins that land close to the band edge (within half a band-width) are
    perturbed to either side; if any single perturbation changes the verdict
    the classification is reported as undetermined rather than guessed.
    """
    base = _core_verdict(items, tau)
    for idx, (margin, defective) in enumerate(items):
        if not 0.5 * tau <= abs(margin) <= 1.5 * tau:
            continue
        for alt in (0.0, math.copysign(2.0 * tau, margin) if margin else 2.0 * tau):
            trial = list(items)
            trial[idx] = (alt, defective)
            if _core_verdict(trial, tau) != base:
                return Stability.UNDETERMINED
    return base


def _spectrum_verdict(spectrum, margin_of, quantity, tau=STAB_TOL):
    items = []
    evidence = []
    for entry in spectrum:
        margin = margin_of(entry.value)
        defective = entry.geometric_multiplicity < entry.algebraic_multiplicity
        items.append((margin, defective))
        evidence.append(Evidence(entry.value, quantity, tau, margin))
        if defective:
            evidence.append(Evidence(
                entry.value, "geometric multiplicity deficit", tau,
                float(entry.geometric_multiplicity - entry.algebraic_multiplicity)))
    return StabilityVerdict(_classify_margins(items, tau), tuple(evidence))


def classify_constant(A):
    """Stability of x' = A x from the standard eigenvalues of A.

    Asymptotically stable when every real part is negative; unstable when a
    real part is positive or a zero-real-part eigenvalue is defective; stable
    otherwise.  Margins inside the tolerance band that could flip the verdict
    yield UNDETERMINED.
    """
    spectrum = standard_eigenvalues(A)
    return _spectrum_verdict(spectrum, lambda v: v.real, "Re(eigenvalue)")


def classify_multipliers(multipliers):
    """Periodic-system verdict from the multiplier spectrum (moduli vs 1)."""
    return _spectrum_verdict(multipliers, lambda v: abs(v) - 1.0,
                             "|multiplier| - 1")


def classify_periodic(fd):
    return classify_multipliers(fd.multipliers)


# -- Floquet quantities -------------------------------------------------------


def _require_periodic(spec, params=None):
    if spec.period is None:
        raise NotPeriodic("system has no finite period")
    residual = spec.periodicity_residual(params=params)
    if not residual <= COEFF_PERIODICITY_TOL:     # nan fails too
        raise NotPeriodic(
            f"coefficient periodicity residual {residual:.3e} exceeds "
            f"{COEFF_PERIODICITY_TOL:.1e} on a {GRID_POINTS}-point grid")


def monodromy(spec, cfg=None, params=None):
    """M(T) of the principal fundamental matrix (M(0) = I)."""
    _require_periodic(spec, params)
    (mono,) = integrate_batch(spec, 0.0, spec.period,
                              QMatrix.identity(spec.n), params, cfg)
    if isinstance(mono, Exception):
        raise mono
    return mono


def characteristic_multipliers(mono):
    """Standard eigenvalues of the monodromy matrix, which must be
    invertible: M(T) as a QMatrix, or each member of a (B, 2n, 2n) stack of
    monodromy adjoints, with `standard_eigenvalues`' conventions for a
    stack (a singular member's entry is its Singular exception).  The
    singularity test is logm's, so a spectrum from here can be handed to
    `logm`."""
    return standard_eigenvalues(mono, singular_tol=SINGULAR_TOL)


def characteristic_exponents(multipliers, period):
    """mu with e^{mu T} = rho for each distinct multiplier.

    The principal representative is reported: Im(mu * T) lies in [0, pi];
    the full coset mu + 2 pi i k / T is implied.
    """
    exponents = []
    for entry in multipliers:
        rho = entry.value
        if rho == 0:
            raise ZeroMultiplier("zero characteristic multiplier")
        exponents.append(cmath.log(rho) / period)
    return exponents


def normal_form(spec, cfg=None, params=None):
    """Full Floquet data: monodromy, B, multipliers, exponents, sampled P(t).

    Integrates the principal fundamental matrix over [0, T] on the P(t)
    sample grid and over [T, 2T] on SECOND_PERIOD_SAMPLES intervals, each
    sample a step end, and verifies P(t + T) = P(t), P(t) = M(t) e^{-tB},
    at the times both grids share, where no step of the second period has
    the length of one of the first.  M(T) is the last sample on [0, T]; the
    samples stay stacks of adjoints.
    """
    _require_periodic(spec, params)
    T = spec.period
    first = integrate(spec, 0.0, T, QMatrix.identity(spec.n), cfg, params,
                      P_SAMPLE_COUNT - 1)
    mono = first.final
    second = integrate(spec, T, 2.0 * T, mono, cfg, params,
                       SECOND_PERIOD_SAMPLES)
    multipliers = characteristic_multipliers(mono)
    B = logm(mono, multipliers) * (1.0 / T)
    exponents = characteristic_exponents(multipliers, T)
    # P(t) = M(t) e^{-tB} on the grid, and P(t + T) at the times t the two
    # grids share, every a-th first-period and b-th second-period sample,
    # with e^{-(t+T)B} = e^{-tB} e^{-TB}
    shared = math.gcd(P_SAMPLE_COUNT - 1, SECOND_PERIOD_SAMPLES)
    a, b = (P_SAMPLE_COUNT - 1) // shared, SECOND_PERIOD_SAMPLES // shared
    decay = expm_adjoint(-first.times[:, None, None] * adjoint(B))
    P = first.adjoints @ decay
    shifted = second.adjoints[::b] @ decay[::a] @ decay[-1]
    max_p = float(max(sum_norms(P).max(), sum_norms(shifted).max()))
    residual = float(sum_norms(P[::a] - shifted).max())
    if residual > P_PERIODICITY_TOL * max_p:
        raise PeriodicityViolation(
            f"P(t) periodicity residual {residual:.3e} exceeds "
            f"{P_PERIODICITY_TOL:.1e} * {max_p:.3e}")
    return FloquetData(T, mono, B, multipliers, exponents, first.times, P,
                       residual, (first, second),
                       trace_integral(spec, 0.0, T, params))


def periodic_solutions(fd, tol=EIG_CLUSTER_TOL):
    """Witnesses of periodic solutions from unit multipliers.

    A multiplier at 1 yields a T-periodic solution, at -1 a 2T-periodic one;
    the witness initial vector is a right eigenvector of the monodromy
    matrix, verified against x(T) = x(0) * rho.
    """
    witnesses = []
    for entry in fd.multipliers:
        rho = entry.value
        if abs(rho - 1.0) <= tol:
            kind = "T_periodic"
        elif abs(rho + 1.0) <= tol:
            kind = "TwoT_periodic"
        else:
            continue
        eta = right_eigenvector(fd.monodromy, rho)
        drift = (fd.monodromy @ eta
                 - eta.scale_right(Quaternion.from_complex(rho))).sum_norm()
        if drift > 1e-6 * eta.sum_norm():
            raise PeriodicityViolation(
                f"witness drift {drift:.3e} for multiplier {rho:.6g}")
        witnesses.append(PeriodicWitness(kind, rho, eta))
    return witnesses


def multiplier_product_check(fd):
    """Relative residual of prod |rho_j| against exp(integral of Re tr A),
    with the integral `normal_form` computed for fd."""
    expected = math.exp(fd.trace_integral)
    product = 1.0
    for rho in fd.multipliers.expanded():
        product *= abs(rho)
    return abs(product - expected) / expected


def exponent_sum_residual(fd):
    """|Re(sum of exponents) - (1/T) integral Re tr A|, the companion identity
    to the multiplier product formula, with the integral carried on fd."""
    re_sum = 0.0
    for entry, mu in zip(fd.multipliers, fd.exponents):
        re_sum += entry.algebraic_multiplicity * mu.real
    return abs(re_sum - fd.trace_integral / fd.period)
