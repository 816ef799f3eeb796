"""Numerical integration of the matrix equation M' = A(t) M.

The right-hand side X -> A(t) X is real-linear, so classical Runge-Kutta
order theory carries over to quaternion-valued states unchanged.  One core
steps a (B, 2n, 2n) stack of complex adjoints (see `qmatrix.adjoint`): A is
evaluated at all stage times of a step in one array call
(`MatrixSpec.adjoint`) and each stage is one batched matrix product.
`integrate` runs it on one system and returns a Trajectory;
`integrate_batch` runs it on members that share A(t) but bind its
parameters to arrays of different values.  Nothing here needs SciPy.

The default method is DOP853, Dormand and Prince's adaptive 8th-order
pair with its 7th-order continuous extension (Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.5-II.6); a fixed-step classical RK4 is kept for
convergence studies.  Each member keeps its own time, step and
accept/reject decisions, with the local error in the quaternion entrywise
sum norm, so its result does not depend on the rest of the batch; a member
whose coefficients cannot be evaluated, whose step underflows, that needs
more than MAX_STEPS trial steps or whose state stops being finite ends
with its own typed error.  Only the last step is shortened, to end at t1:
a Trajectory evaluates M(t) at any other time from the continuous
extension of the accepted step around it, whose 3 extra stages
`integrate_batch` never computes.

The integral of Re tr A behind Liouville's identity is a scalar quadrature:
adaptive Gauss-Legendre on the compiled diagonal entries of the
specification (`MatrixSpec.re_trace`), bisecting until the two halves agree
with the whole to the accuracy target, and raising QuadratureFailure when
that takes more than TRACE_QUAD_LEVELS bisections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmatrix import QMatrix, adjoint, qdet, quaternion_data, sum_norms


# trace quadrature: accuracy target relative to max(1, integral of |Re tr A|),
# deepest bisection, and points of the Gauss-Legendre rule used on each piece
TRACE_QUAD_TOL = 1e-12
TRACE_QUAD_LEVELS = 20
TRACE_QUAD_POINTS = 10
# relative rounding floor of a Gauss-Legendre sum
_ROUNDING = 64 * np.finfo(float).eps
# trial steps (accepted and rejected) one integration may take: over 50x the
# most any test, demo or benchmark input needs (561, for 40 periods of a
# paper system at rel_tol 1e-8; benchmark inputs need at most 59)
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
    method: str = "dop853"        # "dop853" or "rk4"
    rk4_step: float = 1e-2        # used only by the fixed-step method

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.method not in ("dop853", "rk4"):
            raise ValueError(f"unknown method {self.method!r}; use "
                             f"'dop853' or 'rk4'")
        if self.method == "rk4" and not self.rk4_step > 0:
            raise ValueError("rk4_step must be positive")


class Trajectory:
    """Accepted steps t_0 < ... < t_m, M at each, and M(t) in between.

    `extension[s]` holds the adjoint of M(t_s) and the coefficients F_0,
    F_1, ... of step s's continuous extension: with x = (t - t_s) / (t_{s+1}
    - t_s), M(t) = M(t_s) + x (F_0 + (1 - x) (F_1 + x (F_2 + (1 - x) (F_3 +
    ...)))).  F_0, F_1 and F_2 alone make the cubic Hermite interpolant.
    """

    def __init__(self, times, states, extension):
        self.times = np.asarray(times)
        self.states = list(states)
        self.extension = extension

    @property
    def final(self):
        return self.states[-1]

    def matrix_at(self, t):
        """M(t) for t in [t_0, t_m], from the continuous extension."""
        return QMatrix(quaternion_data(self.adjoints_at([t])[0]))

    def adjoints_at(self, times):
        """The adjoints of M(t) at the given times in [t_0, t_m], stacked."""
        times = np.asarray(times, dtype=float)
        t0, t1 = self.times[0], self.times[-1]
        slack = 1e-12 * max(t1 - t0, 1.0)
        outside = (times < t0 - slack) | (times > t1 + slack)
        if outside.any():
            raise ValueError(f"time {times[outside][0]} outside trajectory "
                             f"range")
        step = np.clip(np.searchsorted(self.times, times, "right") - 1, 0,
                       len(self.extension) - 1)
        x = ((times - self.times[step])
             / (self.times[step + 1] - self.times[step]))[:, None, None]
        start, *F = np.moveaxis(self.extension[step], 1, 0)
        value = 0.0
        for index in reversed(range(len(F))):
            value = (value + F[index]) * (x if index % 2 == 0 else 1.0 - x)
        return start + value


class _Method(NamedTuple):
    """An explicit Runge-Kutta method; the stage after the step's own is
    f(t + h, y_new), the next step's first.  Weights are arrays shaped
    (stages, 1, 1, 1), to scale a stack of stages."""
    times: np.ndarray  # step fraction of each stage after the first
    last: int          # the stage f(t + h, y_new); the stages after it
                       # are the continuous extension's
    a: tuple           # weights of the earlier stages, per stage after
                       # the first: the last stage's are those of y_new
    err: np.ndarray    # 5th- and 3rd-order local error weights, or None
    dense: np.ndarray  # weights of the extension's F_3, F_4, ...


def _method(c, a, b, err5=None, bhh=None, extra_c=(), extra_a=(), dense=()):
    """A _Method from stage fractions c (c[0] = 0) and weight lists.  The
    3rd-order error weights are b - bhh; the extension's extra stages come
    at the fractions extra_c, after f(t + h, y_new)."""
    return _Method(np.array(c[1:] + (1.0,) + extra_c)[:, None], len(b),
                   tuple(_weights(*a, b, *extra_a)),
                   None if err5 is None
                   else np.stack(_weights(err5, np.subtract(b, bhh))),
                   np.stack(_weights(*dense)) if dense
                   else np.zeros((0, 1, 1, 1, 1)))


def _weights(*rows):
    return [np.array(row, dtype=float)[:, None, None, None] for row in rows]


# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.5; coefficients of their Fortran code), with the extra stages and
# weights of its 7th-order continuous extension (sec. II.6)
_DOP853 = _method(
    c=(0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
       0.2816496580927726, 1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0),
    a=((0.05260015195876773,),
       (0.0197250569845379, 0.0591751709536137),
       (0.02958758547680685, 0, 0.08876275643042054),
       (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
       (1 / 27, 0, 0, 0.17082860872947386, 0.12546768756682242),
       (19 / 512, 0, 0, 0.17025221101954405, 0.06021653898045596, -9 / 512),
       (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023),
       (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996),
       (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627),
       (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505,
        2.4936055526796523, -3.0467644718982196),
       (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235,
        -8.87285693353063, 12.360567175794303, 0.6433927460157636)),
    b=(0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, 0.3111643669578199,
       -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    err5=(0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
          -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
          0.3341791187130175, 0.08192320648511571, -0.022355307863886294),
    bhh=(31 / 127, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0, 3 / 136),
    extra_c=(0.1, 0.2, 7 / 9),
    extra_a=((0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
              -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
              0.00820105229563469, 0.007567897660545699, -0.008298),
             (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
              0.053541988307438566, -0.05492374857139099, 0, 0,
              -0.00010834732869724932, 0.0003825710908356584,
              -0.00034046500868740456, 0.1413124436746325),
             (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
              7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0,
              0, -0.0013990241651590145, 2.9475147891527724,
              -9.15095847217987)),
    dense=((-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
            -3.0689499459498917, 2.38466765651207, 2.117034582445028,
            -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
            -0.08899033645133331, 18.148505520854727, -9.194632392478356,
            -4.436036387594894),
           (10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
            165.20045171727028, -374.5467547226902, -22.113666853125306,
            7.733432668472264, -30.674084731089398, -9.332130526430229,
            15.697238121770845, -31.139403219565178, -9.35292435884448,
            35.81684148639408),
           (19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
            -189.17813819516758, 527.8081592054236, -11.57390253995963,
            6.8812326946963, -1.0006050966910838, 0.7777137798053443,
            -2.778205752353508, -60.19669523126412, 84.32040550667716,
            11.99229113618279),
           (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643,
            -231.5293791760455, 357.6391179106141, 93.40532418362432,
            -37.45832313645163, 104.0996495089623, 29.8402934266605,
            -43.53345659001114, 96.32455395918828, -39.17726167561544,
            -149.72683625798564)),
)
_RK4 = _method(c=(0.0, 0.5, 0.5, 1.0), a=((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
               b=(1 / 6, 1 / 3, 1 / 3, 1 / 6))


def integrate(spec, t0, t1, M0, cfg=None, params=None):
    """Integrate M' = A(t) M from M(t0) = M0 over [t0, t1].

    Returns a Trajectory whose samples are the accepted steps, with the
    continuous extension of each step for M(t) in between.
    """
    cfg = cfg or IntegratorConfig()
    _check_shapes(spec, t0, t1, M0)

    def coefficients(members, t):
        return spec.adjoint(t, params)

    steps = [[]]
    (outcome,) = _run(coefficients, t0, t1, adjoint(M0)[None], cfg, steps)
    if isinstance(outcome, Exception):
        raise outcome
    times, ys, extension = zip(*steps[0])
    states = [QMatrix(data) for data in quaternion_data(np.stack(ys))]
    return Trajectory((t0,) + times, [M0] + states, np.stack(extension))


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
            for outcome in _run(coefficients, t0, t1, y0, cfg)]


def _check_shapes(spec, t0, t1, M0):
    if not M0.is_square() or M0.rows != spec.n:
        raise ValueError("initial matrix shape does not match the system")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")


def _finite(y):
    return np.isfinite(y).reshape(len(y), -1).all(axis=1)


def _trial(method, coefficients, cfg, dense, members, t, h, y, f, size):
    """One trial step of every member.  Returns y_new, f(t + h, y_new), the
    sum norm of y_new, the local error relative to the tolerance (None for
    a fixed step) and, with `dense`, the step's continuous extension as a
    Trajectory stores it, members on the second axis; `size` is the sum
    norm of y."""
    step = h[:, None, None]
    last = method.last
    # A at every stage time of the step, evaluated together, times h
    hA = coefficients(members, t + h * method.times[
        :None if dense else last]) * step
    # k[s] is h times the derivative at stage s
    k = np.empty((len(hA) + 1,) + y.shape, dtype=complex)
    k[0] = f * step
    for s in range(1, len(k)):
        argument = y + np.add.reduce(method.a[s - 1] * k[:s])
        k[s] = hA[s - 1] @ argument
        if s == last:
            y_new = argument
    size_new = sum_norms(y_new)
    err = extension = None
    if method.err is not None:
        e5, e3 = sum_norms(np.add.reduce(method.err * k[:last], axis=1)) / (
            cfg.abs_tol + cfg.rel_tol * np.maximum(size, size_new))
        # Hairer's combination of the two estimates; 0 when both vanish
        denominator = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
        err = np.where(denominator == 0.0, 0.0, e5 * e5 / denominator)
    if dense:
        delta = y_new - y
        extension = np.concatenate((
            [y, delta, k[0] - delta, 2.0 * delta - k[0] - k[last]],
            np.add.reduce(method.dense * k, axis=1)))
    return y_new, k[last] / step, size_new, err, extension


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


def _run(coefficients, t0, t1, y0, cfg, steps=None):
    """Integrate the stack y0 over [t0, t1] with per-member step control.

    coefficients(members, t) is the stack of adjoints of A at the times t,
    an array whose last axis runs over the batch members (indices) given;
    its shape is t.shape + (2n, 2n).  Returns, per member, its final
    adjoint or the ArithmeticError that ended it.  With `steps`, a list per
    member, each accepted step's (t, y, continuous extension) is appended.
    """
    method = _RK4 if cfg.method == "rk4" else _DOP853
    span = t1 - t0
    first = cfg.rk4_step if method.err is None else min(span / 100.0, 0.1)
    outcomes = [None] * len(y0)
    # one row per member still running; `members` holds their batch indices
    members = np.arange(len(y0))
    t = np.full(len(y0), float(t0))
    h = np.full(len(y0), first)
    trials = np.zeros(len(y0), dtype=int)
    y = np.asarray(y0)
    f = size = None

    def retire(results):
        """Record {row: final adjoint or error} and drop those rows."""
        nonlocal members, t, h, trials, y, f, size
        for row, result in results.items():
            outcomes[members[row]] = result
        keep = np.ones(len(members), dtype=bool)
        keep[list(results)] = False
        members, t, h, trials, y = (
            a[keep] for a in (members, t, h, trials, y))
        if f is not None:
            f, size = f[keep], size[keep]

    def not_finite(rows, at):
        return {row: NonFiniteState(f"M(t) or M'(t) is not finite at "
                                    f"t={at[row]:.6g}") for row in rows}

    def derivative(members, t, y):
        return coefficients(members, t) @ y

    trial = functools.partial(_trial, method, coefficients, cfg,
                              steps is not None)

    with np.errstate(all="ignore"):
        while True:     # f(t0); members whose A(t0) fails leave, the rest retry
            f, errors = _isolated(derivative, members, t, y)
            if not errors:
                break
            retire(errors)
        size = sum_norms(y)
        bad = ~(_finite(f) & np.isfinite(size))
        if bad.any():
            retire(not_finite(np.flatnonzero(bad), t))
        while len(members):
            h = np.minimum(h, t1 - t)
            # arrival wins over a step underflow, which wins over the budget
            ended = {row: StepBudgetExceeded(f"more than {MAX_STEPS} steps, "
                                             f"stopped at t={t[row]:.6g}")
                     for row in np.flatnonzero(trials == MAX_STEPS)}
            ended.update({row: StepUnderflow(f"step size {h[row]:.3e} "
                                             f"underflowed at t={t[row]:.6g}")
                          for row in np.flatnonzero(h < 1e-13 * span)})
            ended.update({row: y[row]
                          for row in np.flatnonzero(t >= t1 - 1e-14 * span)})
            if ended:
                retire(ended)
                continue
            result, errors = _isolated(trial, members, t, h, y, f, size)
            if errors:
                retire(errors)
                continue
            y_new, f_new, size_new, err, extension = result
            trials += 1
            ok = np.full(len(members), True) if err is None else err <= 1.0
            t = np.where(ok, t + h, t)
            y = np.where(ok[:, None, None], y_new, y)
            f = np.where(ok[:, None, None], f_new, f)
            size = np.where(ok, size_new, size)
            if steps is not None:
                for row in np.flatnonzero(ok):
                    steps[members[row]].append((float(t[row]), y_new[row],
                                                extension[:, row]))
            # a nan error estimate shrinks the step
            h = (np.full(len(members), first) if err is None
                 else h * np.fmin(5.0, np.fmax(0.2, 0.9 * err ** -0.125)))
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
