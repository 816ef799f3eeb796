"""Numerical integration of the matrix equation M' = A(t) M.

The right-hand side X -> A(t) X is real-linear, so classical Runge-Kutta
order theory carries over to quaternion-valued states unchanged; stages are
combined componentwise in quaternion arithmetic.  The default method is the
adaptive Dormand-Prince 5(4) pair; a fixed-step classical RK4 is available
for convergence studies.  Requested sample times are hit exactly by clipping
steps, and dense output between accepted steps uses cubic Hermite
interpolation on the stored states and derivatives.

The integral of Re tr A behind Liouville's identity is a scalar quadrature,
done directly: adaptive Gauss-Legendre on the compiled diagonal entries of
the specification (`MatrixSpec.re_trace`), bisecting until the two halves
agree with the whole to the accuracy target, and raising QuadratureFailure
when that takes more than TRACE_QUAD_LEVELS bisections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix, qdet


# trace quadrature: accuracy target relative to max(1, integral of |Re tr A|),
# deepest bisection, and points of the Gauss-Legendre rule used on each piece
TRACE_QUAD_TOL = 1e-12
TRACE_QUAD_LEVELS = 20
TRACE_QUAD_POINTS = 10
# relative rounding floor of a Gauss-Legendre sum
_ROUNDING = 64 * np.finfo(float).eps


class StepUnderflow(ArithmeticError):
    """Adaptive controller drove the step below the resolvable size."""


class QuadratureFailure(ArithmeticError):
    """The trace quadrature could not meet its accuracy target."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    method: str = "dp54"          # "dp54" or "rk4"
    rk4_step: float = 1e-2        # used only by the fixed-step method

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if self.method not in ("dp54", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and not self.rk4_step > 0:
            raise ValueError("rk4_step must be positive")


class Trajectory:
    """Accepted integration samples t_0 < ... < t_m with M and M' at each."""

    def __init__(self, times, states, derivs):
        self.times = np.asarray(times)
        self.states = list(states)
        self.derivs = list(derivs)

    @property
    def t0(self):
        return float(self.times[0])

    @property
    def t1(self):
        return float(self.times[-1])

    @property
    def final(self):
        return self.states[-1]

    def matrix_at(self, t):
        """State at time t: exact at sample points, Hermite-interpolated between."""
        span = max(self.t1 - self.t0, 1.0)
        idx = int(np.searchsorted(self.times, t))
        for probe in (idx - 1, idx, idx + 1):
            if 0 <= probe < len(self.times) and abs(self.times[probe] - t) <= 1e-12 * span:
                return self.states[probe]
        if t < self.t0 - 1e-12 * span or t > self.t1 + 1e-12 * span:
            raise ValueError(f"time {t} outside trajectory range")
        hi = int(np.searchsorted(self.times, t))
        lo = hi - 1
        ta, tb = self.times[lo], self.times[hi]
        h = tb - ta
        s = (t - ta) / h
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        return (self.states[lo] * h00 + self.derivs[lo] * (h * h10)
                + self.states[hi] * h01 + self.derivs[hi] * (h * h11))


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# local error coefficients: 5th-order weights minus the embedded 4th-order ones
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
           -17253 / 339200, 22 / 525, -1 / 40)


def _required_times(t0, t1, sample_times):
    required = {t1}
    if sample_times is not None:
        for t in sample_times:
            if t < t0 - 1e-12 or t > t1 + 1e-12:
                raise ValueError(f"sample time {t} outside [{t0}, {t1}]")
            if t > t0:
                required.add(min(float(t), t1))
    return sorted(required)


def integrate(spec, t0, t1, M0, cfg=None, sample_times=None, params=None):
    """Integrate M' = A(t) M from M(t0) = M0 over [t0, t1].

    Returns a Trajectory whose samples are the accepted steps; `sample_times`
    are forced to be step endpoints so they carry no interpolation error.
    """
    cfg = cfg or IntegratorConfig()
    if not M0.is_square() or M0.rows != spec.n:
        raise ValueError("initial matrix shape does not match the system")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")

    def rhs(t, state):
        return spec.evaluate(t, params) @ state

    if cfg.method == "rk4":
        return _integrate_rk4(rhs, t0, t1, M0, cfg, sample_times)
    return _integrate_dp54(rhs, t0, t1, M0, cfg, sample_times)


def _integrate_dp54(rhs, t0, t1, M0, cfg, sample_times):
    span = t1 - t0
    required = _required_times(t0, t1, sample_times)
    times = [t0]
    states = [M0]
    derivs = [rhs(t0, M0)]
    t, y, f = t0, M0, derivs[0]
    h = min(span / 100.0, cfg.max_step, 0.1)
    next_idx = 0
    while t < t1 - 1e-14 * span:
        h = min(h, cfg.max_step, required[next_idx] - t)
        if h < 1e-13 * span:
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t:.6g}")
        k = [f]
        for s in range(1, 7):
            acc = y
            for r, a in enumerate(_DP_A[s]):
                if a:
                    acc = acc + k[r] * (h * a)
            k.append(rhs(t + _DP_C[s] * h, acc))
        y_new = y
        for r, b in enumerate(_DP_A[6]):
            if b:
                y_new = y_new + k[r] * (h * b)
        # stage 7 is f(t+h, y_new): reused as the next step's first stage
        err_mat = QMatrix(sum(e * k[r].data for r, e in enumerate(_DP_ERR) if e) * h)
        scale = cfg.abs_tol + cfg.rel_tol * max(y.sum_norm(), y_new.sum_norm())
        err = err_mat.sum_norm() / scale
        if err <= 1.0:
            t = t + h
            y = y_new
            f = k[6]
            times.append(t)
            states.append(y)
            derivs.append(f)
            if abs(t - required[next_idx]) <= 1e-12 * span:
                next_idx += 1
                if next_idx >= len(required):
                    break
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return Trajectory(times, states, derivs)


def _integrate_rk4(rhs, t0, t1, M0, cfg, sample_times):
    span = t1 - t0
    required = _required_times(t0, t1, sample_times)
    times = [t0]
    states = [M0]
    derivs = [rhs(t0, M0)]
    t, y = t0, M0
    next_idx = 0
    while t < t1 - 1e-14 * span:
        h = min(cfg.rk4_step, cfg.max_step, required[next_idx] - t)
        k1 = derivs[-1]
        k2 = rhs(t + h / 2, y + k1 * (h / 2))
        k3 = rhs(t + h / 2, y + k2 * (h / 2))
        k4 = rhs(t + h, y + k3 * h)
        y = y + (k1 + k2 * 2 + k3 * 2 + k4) * (h / 6)
        t = t + h
        times.append(t)
        states.append(y)
        derivs.append(rhs(t, y))
        if abs(t - required[next_idx]) <= 1e-12 * span:
            next_idx += 1
            if next_idx >= len(required):
                break
    return Trajectory(times, states, derivs)


@functools.cache
def _gauss_legendre_rule():
    # built on first use: leggauss calls LAPACK, whose start-up would
    # otherwise add about 1 MB to every process that imports this module
    return tuple(x.tolist()
                 for x in np.polynomial.legendre.leggauss(TRACE_QUAD_POINTS))


def _gauss(f, a, b):
    """Gauss-Legendre estimates of the integrals of f and of |f| over [a, b]."""
    nodes, weights = _gauss_legendre_rule()
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    values = [f(mid + half * x) for x in nodes]
    return (half * sum(w * v for w, v in zip(weights, values)),
            abs(half) * sum(w * abs(v) for w, v in zip(weights, values)))


def _refine(f, a, b, whole, tol, level):
    """Bisect [a, b] until the halves agree with `whole` within `tol`, which
    each bisection splits evenly between the two halves."""
    mid = 0.5 * (a + b)
    (left, left_abs), (right, right_abs) = _gauss(f, a, mid), _gauss(f, mid, b)
    # never demand more than the rounding floor of the sum itself
    if abs(left + right - whole) <= max(tol, _ROUNDING * (left_abs + right_abs)):
        return left + right
    if level == TRACE_QUAD_LEVELS:
        raise QuadratureFailure(
            f"trace quadrature missed {tol:.1e} on [{a:.6g}, {b:.6g}] after "
            f"{TRACE_QUAD_LEVELS} bisections")
    return (_refine(f, a, mid, left, 0.5 * tol, level + 1)
            + _refine(f, mid, b, right, 0.5 * tol, level + 1))


def trace_integral(spec, t0, t1, params=None):
    """Integral of Re(tr A(t)) over [t0, t1] by adaptive Gauss-Legendre
    quadrature, to within TRACE_QUAD_TOL * max(1, integral of |Re tr A|).

    Raises QuadratureFailure when that is not met within TRACE_QUAD_LEVELS
    bisections, or when the integrand is not finite.
    """
    def f(t):
        return spec.re_trace(t, params)

    whole, whole_abs = _gauss(f, t0, t1)
    if not math.isfinite(whole_abs):
        raise QuadratureFailure(
            f"Re tr A is not finite on [{t0:.6g}, {t1:.6g}]")
    return _refine(f, t0, t1, whole, TRACE_QUAD_TOL * max(1.0, whole_abs), 0)


def liouville_residual(traj, spec, params=None):
    """Largest deviation of qdet(M(t)) from the volume-growth law
    exp(2 * integral(Re tr A)) * qdet(M(t0)) over the trajectory samples,
    normalized by max(1, qdet(M(t0)))."""
    det0 = qdet(traj.states[0])
    integral = 0.0
    worst = 0.0
    for ta, tb, state in zip(traj.times, traj.times[1:], traj.states[1:]):
        integral += trace_integral(spec, float(ta), float(tb), params)
        expected = math.exp(2.0 * integral) * det0
        worst = max(worst, abs(qdet(state) - expected))
    return worst / max(1.0, det0)
