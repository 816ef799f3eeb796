"""Numerical integration of the matrix equation M' = A(t) M.

The right-hand side X -> A(t) X is real-linear, so classical Runge-Kutta
order theory carries over to quaternion-valued states unchanged.  One core
steps a (B, 2n, 2n) stack of complex adjoints (see `qmatrix.adjoint`): A is
evaluated at all stage times of a step in one array call
(`MatrixSpec.adjoint`), each stage is one batched matrix product, and
QMatrix objects appear only where `integrate` takes M0 and returns its
Trajectory.  `integrate` runs the core on one system; `integrate_batch` runs
it on the members of a batch, which share A(t) but bind its parameters to
arrays of different values.  Nothing here needs SciPy.

The default method is the adaptive Dormand-Prince 5(4) pair; a fixed-step
classical RK4 is available for convergence studies.  Step-size control is
per member: each keeps its own time, step and accept/reject decisions, with
the local error measured in the quaternion entrywise sum norm, so a member
takes the steps it would take alone and its result does not depend on the
rest of the batch.  A member that fails (its coefficients cannot be
evaluated, its step underflows, it needs more than MAX_STEPS trial steps,
or its state stops being finite) ends with its own typed error and leaves
the others unchanged.  Requested sample times are hit exactly by clipping
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
from typing import NamedTuple

import numpy as np

from .qmatrix import QMatrix, adjoint, qdet, quaternion_data


# trace quadrature: accuracy target relative to max(1, integral of |Re tr A|),
# deepest bisection, and points of the Gauss-Legendre rule used on each piece
TRACE_QUAD_TOL = 1e-12
TRACE_QUAD_LEVELS = 20
TRACE_QUAD_POINTS = 10
# relative rounding floor of a Gauss-Legendre sum
_ROUNDING = 64 * np.finfo(float).eps
# trial steps (accepted and rejected) one integration may take: over 10x the
# most any test, demo or benchmark input needs (2901, for 40 periods of a
# paper system at rel_tol 1e-8; benchmark inputs need at most 395)
MAX_STEPS = 30_000


class StepUnderflow(ArithmeticError):
    """Adaptive controller drove the step below the resolvable size."""


class StepBudgetExceeded(ArithmeticError):
    """An integration needed more than MAX_STEPS trial steps."""


class NonFiniteState(ArithmeticError):
    """The state or its derivative stopped being finite."""


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


class _Method(NamedTuple):
    """An explicit Runge-Kutta method whose last stage is f(t + h, y_new).

    Weights are arrays shaped (stages, 1, 1, 1), to scale a stack of stages.
    """
    times: np.ndarray  # distinct step fractions at which the stages after
                       # the first evaluate A
    uses: tuple        # index into `times` of each stage after the first,
                       # the last stage included
    a: tuple           # weights of the stages before the last, one array
                       # per stage after the first
    b: np.ndarray      # weights of the new state
    err: np.ndarray    # local error weights of all stages; None for a fixed step


def _method(c, a, b, err=None):
    """A _Method from stage fractions c (c[0] = 0) and weight lists."""
    fractions = c[1:] + (1.0,)
    times = list(dict.fromkeys(fractions))
    return _Method(np.array(times)[:, None],
                   tuple(times.index(x) for x in fractions),
                   tuple(_weights(*row) for row in a), _weights(*b),
                   None if err is None else _weights(*err))


def _weights(*w):
    return np.array(w)[:, None, None, None]


# Dormand-Prince 5(4); the seventh stage f(t + h, y_new) is the next step's first
_DP54 = _method(
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0),
    a=((1 / 5,),
       (3 / 40, 9 / 40),
       (44 / 45, -56 / 15, 32 / 9),
       (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
       (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    # 5th-order weights minus the embedded 4th-order ones
    err=(71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
         -1 / 40),
)
_RK4 = _method(c=(0.0, 0.5, 0.5, 1.0), a=((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
               b=(1 / 6, 1 / 3, 1 / 3, 1 / 6))


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
    _check_shapes(spec, t0, t1, M0)

    def coefficients(members, t):
        return spec.adjoint(t, params)

    steps = [[]]
    (outcome,) = _run(coefficients, t0, t1, adjoint(M0)[None], cfg,
                      _required_times(t0, t1, sample_times), steps)
    if isinstance(outcome, Exception):
        raise outcome
    times, ys, fs = zip(*steps[0])
    states = [QMatrix(data) for data in quaternion_data(np.stack(ys[1:]))]
    derivs = [QMatrix(data) for data in quaternion_data(np.stack(fs))]
    return Trajectory(times, [M0] + states, derivs)


def integrate_batch(spec, t0, t1, M0, params, cfg=None):
    """M(t1) of M' = A(t) M, M(t0) = M0, for each member of a batch.

    `params` maps each parameter name (at least one) to a sequence holding
    one value per member.  Returns one entry per member: its M(t1) as a
    QMatrix, or the ArithmeticError that ended its integration.  A member's
    entry is the same, bit for bit, in a batch of any size.
    """
    cfg = cfg or IntegratorConfig()
    _check_shapes(spec, t0, t1, M0)
    params = {name: np.asarray(values, dtype=float)
              for name, values in params.items()}
    sizes = {values.shape for values in params.values()}
    if len(sizes) != 1 or len(next(iter(sizes))) != 1:
        raise ValueError("a batch binds each parameter to a 1-d array, "
                         "all of one length")
    (size,) = sizes.pop()

    def coefficients(members, t):
        return spec.adjoint(t, {name: values[members]
                                for name, values in params.items()})

    y0 = np.broadcast_to(adjoint(M0), (size,) + (2 * spec.n,) * 2)
    return [outcome if isinstance(outcome, Exception)
            else QMatrix(quaternion_data(outcome))
            for outcome in _run(coefficients, t0, t1, y0, cfg, [t1])]


def _check_shapes(spec, t0, t1, M0):
    if not M0.is_square() or M0.rows != spec.n:
        raise ValueError("initial matrix shape does not match the system")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")


def _sum_norms(y):
    """Quaternion entrywise sum norm of each adjoint in a stack."""
    n = y.shape[-1] // 2
    moduli = np.hypot(np.abs(y[:, :n, :n]), np.abs(y[:, :n, n:]))
    return moduli.reshape(len(y), -1).sum(axis=1)


def _finite(y):
    return np.isfinite(y).reshape(len(y), -1).all(axis=1)


def _trial(method, coefficients, cfg, members, t, h, y, f, size):
    """One trial step of every member.  Returns y_new, f(t + h, y_new), the
    sum norm of y_new, and the local error relative to the tolerance (None
    for a fixed-step method); `size` is the sum norm of y."""
    # A at every stage time of the step, evaluated together
    A = coefficients(members, t + method.times * h)
    step = h[:, None, None]
    k = np.empty((len(method.uses) + 1,) + y.shape, dtype=complex)
    k[0] = f
    for s, (use, weights) in enumerate(zip(method.uses, method.a), 1):
        k[s] = A[use] @ (y + np.add.reduce(weights * k[:s]) * step)
    y_new = y + np.add.reduce(method.b * k[:-1]) * step
    k[-1] = f_new = A[method.uses[-1]] @ y_new
    size_new = _sum_norms(y_new)
    if method.err is None:
        return y_new, f_new, size_new, None
    local = _sum_norms(np.add.reduce(method.err * k) * step)
    return y_new, f_new, size_new, local / (
        cfg.abs_tol + cfg.rel_tol * np.maximum(size, size_new))


def _isolated(attempt, members, *rows):
    """(attempt(members, *rows), {}) for the whole batch; when that raises,
    (None, {row: error}) for the members that raise when run alone."""
    try:
        return attempt(members, *rows), {}
    except ArithmeticError as exc:
        if len(members) == 1:
            return None, {0: exc}
        errors = {}
        for row in range(len(members)):
            try:
                attempt(members[row:row + 1], *(r[row:row + 1] for r in rows))
            except ArithmeticError as member_exc:
                errors[row] = member_exc
        if not errors:
            raise
        return None, errors


def _run(coefficients, t0, t1, y0, cfg, required, steps=None):
    """Integrate the stack y0 over [t0, t1] with per-member step control.

    coefficients(members, t) is the stack of adjoints of A at the times t,
    an array whose last axis runs over the batch members (indices) given;
    its shape is t.shape + (2n, 2n).  Returns, per member, its final
    adjoint or the ArithmeticError that ended it.  With `steps`, a list per
    member, (t0, y0, f(t0)) and then each accepted (t, y, f) are appended.
    """
    method = _RK4 if cfg.method == "rk4" else _DP54
    span = t1 - t0
    required = np.asarray(required)
    first = cfg.rk4_step if method.err is None else min(span / 100.0, 0.1)
    outcomes = [None] * len(y0)
    # one row per member still running; `members` holds their batch indices
    members = np.arange(len(y0))
    t = np.full(len(y0), float(t0))
    h = np.full(len(y0), first)
    target = np.zeros(len(y0), dtype=int)     # index of the next required time
    trials = np.zeros(len(y0), dtype=int)
    y = np.asarray(y0)
    f = size = None

    def retire(results):
        """Record {row: final adjoint or error} and drop those rows."""
        nonlocal members, t, h, target, trials, y, f, size
        for row, result in results.items():
            outcomes[members[row]] = result
        keep = np.ones(len(members), dtype=bool)
        keep[list(results)] = False
        members, t, h, target, trials, y = (
            a[keep] for a in (members, t, h, target, trials, y))
        if f is not None:
            f, size = f[keep], size[keep]

    def not_finite(rows, at):
        return {row: NonFiniteState(f"M(t) or M'(t) is not finite at "
                                    f"t={at[row]:.6g}") for row in rows}

    def derivative(members, t, y):
        return coefficients(members, t) @ y

    trial = functools.partial(_trial, method, coefficients, cfg)

    with np.errstate(all="ignore"):
        while True:     # f(t0); members whose A(t0) fails leave, the rest retry
            f, errors = _isolated(derivative, members, t, y)
            if not errors:
                break
            retire(errors)
        size = _sum_norms(y)
        if steps is not None:
            for row, member in enumerate(members):
                steps[member].append((float(t0), y[row], f[row]))
        bad = ~(_finite(f) & np.isfinite(size))
        if bad.any():
            retire(not_finite(np.flatnonzero(bad), t))
        while len(members):
            done = (t >= t1 - 1e-14 * span) | (target == len(required))
            if done.any():
                retire({row: y[row] for row in np.flatnonzero(done)})
                continue
            h = np.minimum(np.minimum(h, cfg.max_step), required[target] - t)
            under = h < 1e-13 * span
            if under.any():
                retire({row: StepUnderflow(f"step size {h[row]:.3e} underflowed "
                                           f"at t={t[row]:.6g}")
                        for row in np.flatnonzero(under)})
                continue
            spent = trials == MAX_STEPS
            if spent.any():
                retire({row: StepBudgetExceeded(f"more than {MAX_STEPS} steps, "
                                                f"stopped at t={t[row]:.6g}")
                        for row in np.flatnonzero(spent)})
                continue
            result, errors = _isolated(trial, members, t, h, y, f, size)
            if errors:
                retire(errors)
                continue
            y_new, f_new, size_new, err = result
            trials += 1
            ok = np.full(len(members), True) if err is None else err <= 1.0
            t = np.where(ok, t + h, t)
            y = np.where(ok[:, None, None], y_new, y)
            f = np.where(ok[:, None, None], f_new, f)
            size = np.where(ok, size_new, size)
            if steps is not None:
                for row in np.flatnonzero(ok):
                    steps[members[row]].append((float(t[row]), y_new[row],
                                                f_new[row]))
            target = target + (ok & (np.abs(t - required[target])
                                     <= 1e-12 * span))
            h = (np.full(len(members), first) if err is None
                 else h * np.fmin(5.0, np.fmax(0.2, 0.9 * err ** -0.2)))
            bad = ok & ~(np.isfinite(size_new) & _finite(f_new))
            if bad.any():
                retire(not_finite(np.flatnonzero(bad), t))
    return outcomes


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
    expected(t) = exp(2 * integral(Re tr A)) * qdet(M(t0)) over the
    trajectory samples, each normalized by max(1, expected(t))."""
    det0 = qdet(traj.states[0])
    integral = 0.0
    worst = 0.0
    for ta, tb, state in zip(traj.times, traj.times[1:], traj.states[1:]):
        integral += trace_integral(spec, float(ta), float(tb), params)
        expected = math.exp(2.0 * integral) * det0
        worst = max(worst, abs(qdet(state) - expected) / max(1.0, expected))
    return worst
