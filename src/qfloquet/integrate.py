"""Numerical integration of the matrix equation M' = A(t) M.

The right-hand side X -> A(t) X is real-linear, so classical Runge-Kutta
order theory carries over to quaternion-valued states unchanged.  One core
steps a (B, 2n, 2n) stack of complex adjoints (see `qmatrix.adjoint`): A is
evaluated at all stage times of a window of steps in one array call
(`MatrixSpec.adjoint`) and each stage is one batched matrix product.
`integrate` runs it on one system and returns a Trajectory: the accepted
states as one stack of adjoints, and M(t) between them.  `integrate_batch`
returns M(t1) alone, for members that share A(t) but bind its parameters to
different values; scalar values, or none, make a batch of one.  Nothing in
qfloquet needs SciPy.

The default method is DOP853, Dormand and Prince's adaptive 8th-order
pair with its 7th-order continuous extension (Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.5-II.6); a fixed-step classical RK4 is kept for
convergence studies.  Each member keeps its own time, step and
accept/reject decisions, with the local error in the quaternion entrywise
sum norm, so its result does not depend on the rest of the batch; a member
whose coefficients cannot be evaluated, whose step underflows, that needs
more than MAX_STEPS trial steps or whose state stops being finite ends
with its own typed error.

A member advances in windows of equal steps.  Because the system is
linear, a step's stages are propagators that do not depend on the state,
so one array call evaluates A at every stage time of the window and the
stages of all its steps are built together; only the product of each
step's propagator with the state is sequential.  In a batch, a window
covers each member's own steps alone, however many the others take, and
the local error estimates, which read the top block rows of their
products, share one product per step.  Each weighted sum of
stages is built in place over the row's nonzero weights, so a stage costs
the same memory however long the window.  The longest prefix of steps
within the tolerance is accepted, and the next step comes from the first
rejected step's error or else from the window's largest.  A member's
windows have one step until one is accepted, which sizes the step from
the initial guess, and up to WINDOW steps from then on, which usually
reach t1; every step of a window counts against MAX_STEPS, accepted or
not.  A window that reaches t1 is shortened to equal steps that end
exactly there: a Trajectory evaluates M(t) at any other time from the
continuous extension of the accepted step around it.  A is evaluated by
the windows alone, with no separate pass at t0.  `integrate_batch`
evaluates and multiplies only the method's own stages, 12 per DOP853 step
and 4 per RK4 step; `integrate` adds the stage f(t + h, y_new) and, for
DOP853, the extension's 3 further stages: 16 and 5 per step.

The integral of Re tr A behind Liouville's identity is a scalar quadrature:
adaptive Gauss-Legendre on the compiled diagonal entries of the
specification (`MatrixSpec.re_trace`), bisecting until the two halves agree
with the whole to the accuracy target, and raising QuadratureFailure when
that takes more than TRACE_QUAD_LEVELS bisections.  Each rule, or each pair
of halves, is one array call of the integrand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmatrix import adjoint, from_adjoint, sum_norms


# trace quadrature: accuracy target relative to max(1, integral of |Re tr A|),
# deepest bisection, and points of the Gauss-Legendre rule used on each piece
TRACE_QUAD_TOL = 1e-12
TRACE_QUAD_LEVELS = 20
TRACE_QUAD_POINTS = 10
# relative rounding floor of a Gauss-Legendre sum
_ROUNDING = 64 * np.finfo(float).eps
# trial steps (accepted and rejected) one integration may take: over 40x the
# most any test, demo or benchmark input needs (711, for a tight reference
# integration across a sharp bump at rel_tol 1e-13, whose rejected steps
# waste the rest of their windows; 593 for 40 periods of a paper system at
# rel_tol 1e-8; benchmark inputs need at most 155 in their first 150 units
# on seeds 11 and 4817, demos 65)
MAX_STEPS = 30_000
# the most steps in one window (see above).  A sweep over 12, 24, 32, 48,
# 64 and 96 on benchmark inputs (seed 11: 60 periodic systems, 12 Hill
# charts, best of 5 rounds on a 2-core host) cut a periodic system's
# evaluations of A from 7.4 to 5.1, 4.5, 4.0, 3.4 and 3.4 and its report
# from 8.2 ms to 7.1-7.3, 7.0-7.4, 6.9-8.2, 6.8-7.0 and 6.6-6.8 ms; a Hill
# chart took 7.9 ms at 12 and 7.5-9.1 ms at the others.  96 differs from 64 only on the few
# systems that need more than 64 steps, by less than the noise between
# rounds, and 64 keeps the longest window's arrays smaller
WINDOW = 64


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


class StepCounts(NamedTuple):
    """The work of one integration."""
    accepted: int           # accepted steps
    trials: int             # trial steps, accepted or not
    coefficient_calls: int  # array evaluations of A(t)


class Trajectory:
    """Accepted steps t_0 < ... < t_m, M at each, and M(t) in between.

    `adjoints[s]` is the adjoint of M(t_s), a (m + 1, 2n, 2n) stack, and
    `extension[s]` holds the coefficients F_0, F_1, ... of step s's
    continuous extension: with x = (t - t_s) / (t_{s+1} - t_s), M(t) =
    M(t_s) + x (F_0 + (1 - x) (F_1 + x (F_2 + (1 - x) (F_3 + ...)))).  F_0,
    F_1 and F_2 alone make the cubic Hermite interpolant.  `counts` is the
    integration's StepCounts.
    """

    def __init__(self, times, adjoints, extension, counts):
        self.times = np.asarray(times)
        self.adjoints = adjoints
        self.extension = extension
        self.counts = counts

    @property
    def final(self):
        return from_adjoint(self.adjoints[-1], project=False)

    def matrix_at(self, t):
        """M(t) for t in [t_0, t_m], from the continuous extension."""
        return from_adjoint(self.adjoints_at([t])[0], project=False)

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
        F = np.moveaxis(self.extension[step], 1, 0)
        value = 0.0
        for index in reversed(range(len(F))):
            value = (value + F[index]) * (x if index % 2 == 0 else 1.0 - x)
        return self.adjoints[step] + value


class _Method(NamedTuple):
    """An explicit Runge-Kutta method; the stage after the step's own is
    f(t + h, y_new).  Each row of weights holds its nonzero weights alone,
    as (stage, weight) pairs in stage order (see `_stage_sum`)."""
    c: np.ndarray      # step fraction of each stage, shaped (stages, 1)
    last: int          # the stage f(t + h, y_new); the stages after it
                       # are the continuous extension's
    a: tuple           # weights of the earlier stages, per stage after
                       # the first: the last stage's are those of y_new
    err: tuple         # 5th- and 3rd-order local error weights, or none
    dense: tuple       # weights of the extension's F_3, F_4, ...


def _method(c, a, b, err5=None, bhh=None, extra_c=(), extra_a=(), dense=()):
    """A _Method from stage fractions c (c[0] = 0) and weight lists.  The
    3rd-order error weights are b - bhh; the extension's extra stages come
    at the fractions extra_c, after f(t + h, y_new)."""
    return _Method(np.array(c + (1.0,) + extra_c)[:, None], len(b),
                   _weights(*a, b, *extra_a),
                   _weights(err5, np.subtract(b, bhh)) if err5 else (),
                   _weights(*dense))


def _weights(*rows):
    # complex, the type each weight takes in a product with a stage
    return tuple(tuple((stage, np.complex128(weight))
                       for stage, weight in enumerate(row) if weight)
                 for row in rows)


def _stage_sum(row, K, out, scratch):
    """sum_j w_j K[j] over the row's (j, w_j) pairs, added in stage order
    into `out`, with `scratch` (both shaped like K[0]) for each term; so a
    stage sum of any length allocates nothing.  K is a sequence of the
    stages' arrays.  Returns out."""
    (first, weight), *rest = row
    np.multiply(K[first], weight, out)
    for stage, weight in rest:
        np.multiply(K[stage], weight, scratch)
        np.add(out, scratch, out)
    return out


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

    calls = 0

    def coefficients(members, t):
        nonlocal calls
        calls += 1
        return spec.adjoint(t, params)

    steps = [[]]
    (outcome,), (trials,) = _run(coefficients, t0, t1, adjoint(M0)[None],
                                 cfg, steps)
    if isinstance(outcome, Exception):
        raise outcome
    times, ys, extension = (np.concatenate(part) for part in zip(*steps[0]))
    return Trajectory(np.concatenate(([t0], times)),
                      np.concatenate((adjoint(M0)[None], ys)), extension,
                      StepCounts(len(times), int(trials), calls))


def batch_params(params):
    """Each parameter's values as a 1-d float array, and the number of
    members they bind: a scalar value, or no parameters, binds one."""
    params = {name: np.array(values, dtype=float, ndmin=1)
              for name, values in (params or {}).items()}
    sizes = {values.shape for values in params.values()} or {(1,)}
    if len(sizes) != 1 or len(next(iter(sizes))) != 1:
        raise ValueError("a batch binds each parameter to a scalar or a 1-d "
                         "array, all of one length")
    ((size,),) = sizes
    return params, size


def integrate_batch(spec, t0, t1, M0, params, cfg=None):
    """M(t1) of M' = A(t) M, M(t0) = M0, for each member of a batch.

    `params` maps each parameter name to one value per member (see
    `batch_params`); scalar values, or none, make a batch of one.  Returns
    one entry per member: its M(t1) as a QMatrix, or the ArithmeticError
    that ended its integration.  Each step computes the method's own stages
    alone (see `_window`).  A member's entry is the same, bit for bit, in a
    batch of any size, and as the `final` of `integrate`, which alone also
    checks that h M' stays finite at each step's end.
    """
    cfg = cfg or IntegratorConfig()
    _check_shapes(spec, t0, t1, M0)
    params, size = batch_params(params)

    def coefficients(members, t):
        return spec.adjoint(t, {name: values[members]
                                for name, values in params.items()})

    y0 = np.broadcast_to(adjoint(M0), (size,) + (2 * spec.n,) * 2)
    outcomes, _ = _run(coefficients, t0, t1, y0, cfg)
    return [outcome if isinstance(outcome, Exception)
            else from_adjoint(outcome, project=False)
            for outcome in outcomes]


def _check_shapes(spec, t0, t1, M0):
    if not M0.is_square() or M0.rows != spec.n:
        raise ValueError("initial matrix shape does not match the system")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")


def _finite(y):
    return np.isfinite(y).all(axis=(-2, -1))


def _window(method, coefficients, cfg, dense, t1, members, t, h, n, y):
    """n trial steps of length h from t for each member, computed together.

    Each stage's h M' is K_s y for the propagator K_s = h A_s (I + sum_j
    a_sj K_j), and y_{w+1} = R_w y_w.  The stages are built for the window's
    (step, member) pairs alone, step by step: a member takes its own n of
    the W = max(n) steps, and one with fewer keeps its last state through
    the rest.  Without `dense`, only the method's own stages are evaluated,
    DOP853's 12 or RK4's 4: the stage f(t + h, y_new) after them, and the
    stages after that, serve the continuous extension alone, and no error
    weight reads them.  Returns the states y_0 .. y_W; whether each
    member's state and stage 0, h A(t), are finite at the window's start;
    each step's local error relative to the tolerance (None for a fixed
    step); whether each step's end state, and with `dense` h M' there, is
    finite; and, with `dense`, each step's continuous extension as a
    Trajectory stores it (steps on the second axis, members on the third).
    Entries past a member's n steps are not read.  Every operation is
    elementwise or one product per matrix, so a member's results do not
    depend on the rest of the batch.
    """
    last = method.last
    width, size = n.max(), len(n)
    step, member = np.nonzero(np.arange(width)[:, None] < n)
    bounds = np.searchsorted(step, np.arange(width + 1))
    fractions = method.c if dense else method.c[:last]
    # h A at every stage time of the window, evaluated together, shaped
    # (stages, pairs, 2n, 2n); stage by stage, K[s] = h A_s turns into the
    # propagator K_s
    K = coefficients(members[member],
                     np.minimum(t[member] + (step + fractions) * h[member],
                                t1))
    K *= h[member, None, None]
    eye = np.eye(y.shape[-1], dtype=complex)
    # the last stage's I + sum_j b_j K_j is the step's propagator R, which
    # the states need after the loop, so it keeps its own buffer
    argument, scratch, R = (np.empty_like(K[0]) for _ in range(3))
    stages = list(K)
    for s, row in enumerate(method.a if dense else method.a[:last], 1):
        total = _stage_sum(row, stages, R if s == last else argument,
                           scratch)
        total += eye
        if s < len(K):
            np.matmul(K[s], total, out=K[s])
    ys = np.empty((width + 1,) + y.shape, dtype=complex)
    ys[0] = y
    for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi - lo == size:
            np.matmul(R[lo:hi], ys[w], out=ys[w + 1])
        else:
            ys[w + 1] = ys[w]
            ys[w + 1, member[lo:hi]] = R[lo:hi] @ ys[w, member[lo:hi]]
    sizes = sum_norms(ys)
    start = np.isfinite(sizes[0]) & _finite(K[0, :size])
    finite = np.isfinite(sizes[1:])
    # the error and extension weights, each applied to its step's start
    # state
    starts = ys[step, member]
    err = extension = None
    if method.err:
        # the error estimates read their products' top block rows alone, so
        # the top rows of the two error sums, stacked, are one product
        half = y.shape[-1] // 2
        weighted = np.empty((2,) + K.shape[1:], dtype=complex)
        for row, out in zip(method.err, weighted):
            _stage_sum(row, stages, out, scratch)
        tops = weighted[:, :, :half].swapaxes(0, 1).reshape(K.shape[1:])
        products = (tops @ starts).reshape(-1, 2, half, 2 * half)
        e5, e3 = sum_norms(products).T / (
            cfg.abs_tol + cfg.rel_tol * np.maximum(sizes[step, member],
                                                   sizes[step + 1, member]))
        # Hairer's combination of the two estimates; 0 when both vanish
        denominator = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
        err = np.zeros((width, size))
        err[step, member] = np.where(denominator == 0.0, 0.0,
                                     e5 * e5 / denominator)
    if dense:
        weighted = np.empty((len(method.dense),) + K.shape[1:], dtype=complex)
        for row, out in zip(method.dense, weighted):
            _stage_sum(row, stages, out, scratch)
        # h M' at each step's start and end
        k0 = K[0] @ starts
        hf = K[last] @ starts
        finite[step, member] &= _finite(hf)
        delta = ys[step + 1, member] - starts
        extension = np.zeros((len(weighted) + 3, width) + y.shape,
                             dtype=complex)
        for out, part in zip(extension, (delta, k0 - delta,
                                         2.0 * delta - k0 - hf)):
            out[step, member] = part
        extension[3:, step, member] = weighted @ starts
    return ys, start, err, finite, extension


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
    adjoint or the ArithmeticError that ended it, and the array of trial
    steps each member took.  With `steps`, a list per member, the accepted
    steps of each window are appended as arrays of their end times, states
    and continuous extensions; without, no window computes an extension.

    A is evaluated by the windows alone: there is no pass at t0, whose A is
    the first window's stage 0.  A member whose A raises leaves with that
    error, and one whose state or stage 0 is not finite at a window's start
    (a non-finite y0, or A(t0)) leaves as NonFiniteState at that t; the
    rest of the batch then retries the window.  A step whose end state is
    not finite ends its member as NonFiniteState when the step is within
    the tolerance, and is rejected when it is not.
    """
    method = _RK4 if cfg.method == "rk4" else _DOP853
    span = t1 - t0
    first = min(span / 100.0, 0.1) if method.err else cfg.rk4_step
    outcomes = [None] * len(y0)
    trial_counts = np.zeros(len(y0), dtype=int)
    # one row per member still running; `members` holds their batch indices
    members = np.arange(len(y0))
    t = np.full(len(y0), float(t0))
    h = np.full(len(y0), first)
    trials = np.zeros(len(y0), dtype=int)
    length = np.ones(len(y0), dtype=int)
    y = np.asarray(y0)

    def retire(results):
        """Record {row: final adjoint or error} and drop those rows."""
        nonlocal members, t, h, trials, length, y
        for row, result in results.items():
            outcomes[members[row]] = result
            trial_counts[members[row]] = trials[row]
        keep = np.ones(len(members), dtype=bool)
        keep[list(results)] = False
        members, t, h, trials, length, y = (
            a[keep] for a in (members, t, h, trials, length, y))

    def not_finite(rows, at):
        return {row: NonFiniteState(f"M(t) or M'(t) is not finite at "
                                    f"t={at[row]:.6g}") for row in rows}

    window = functools.partial(_window, method, coefficients, cfg,
                               steps is not None, t1)

    with np.errstate(all="ignore"):
        while len(members):
            budget, underflow = trials == MAX_STEPS, h < 1e-13 * span
            arrived = t >= t1 - 1e-14 * span
            if (budget | underflow | arrived).any():
                # arrival wins over a step underflow, which wins over the
                # budget
                ended = {row: StepBudgetExceeded(
                    f"more than {MAX_STEPS} steps, stopped at t={t[row]:.6g}")
                    for row in np.flatnonzero(budget)}
                ended.update({row: StepUnderflow(
                    f"step size {h[row]:.3e} underflowed at t={t[row]:.6g}")
                    for row in np.flatnonzero(underflow)})
                ended.update({row: y[row] for row in np.flatnonzero(arrived)})
                retire(ended)
                continue
            # a window that reaches t1 takes equal steps that end exactly
            # there; the budget may cut a window short
            remaining = t1 - t
            need = np.ceil(remaining / h * (1.0 - 1e-9))
            n = np.minimum(np.minimum(need, length),
                           MAX_STEPS - trials).astype(int)
            arrives = n == need
            h = np.where(arrives, remaining / need, h)
            # members whose A fails leave, and the rest retry the window;
            # so do members that are not finite at the window's start
            result, errors = _isolated(window, members, t, h, n, y)
            if errors:
                retire(errors)
                continue
            ys, start, err, finite, extension = result
            if not start.all():
                retire(not_finite(np.flatnonzero(~start), t))
                continue
            trials += n
            rows = np.arange(len(members))
            ahead = np.arange(len(ys) - 1)[:, None]
            ends = t + (ahead + 1) * h
            ends[n - 1, rows] = np.where(arrives, t1, ends[n - 1, rows])
            # the longest prefix of finite steps within the tolerance is
            # accepted; the step after it, if real, was rejected or, when
            # within the tolerance, ends its member as not finite
            real = ahead < n
            within = real if err is None else real & (err <= 1.0)
            accepted = np.logical_and.accumulate(within & finite).sum(axis=0)
            after = np.minimum(accepted, len(ahead) - 1)
            failed = (accepted < n) & within[after, rows]
            if steps is not None:
                for row in np.flatnonzero(accepted):
                    count = accepted[row]
                    steps[members[row]].append((
                        ends[:count, row], ys[1:count + 1, row],
                        extension[:, :count, row].swapaxes(0, 1)))
            t = np.where(accepted > 0, ends[accepted - 1, rows], t)
            length = np.where(accepted > 0, WINDOW, length)
            y = ys[accepted, rows]
            # the next step comes from the rejected step's error, or else the
            # window's largest; a nan error estimate shrinks the step
            if err is None:
                h = np.full(len(members), first)
            else:
                worst = np.where(accepted < n, err[after, rows],
                                 np.where(real, err, 0.0).max(axis=0))
                h = h * np.fmin(5.0, np.fmax(0.2, 0.9 * worst ** -0.125))
            if failed.any():
                retire(not_finite(np.flatnonzero(failed), ends[after, rows]))
    return outcomes, trial_counts


@functools.cache
def _gauss_legendre_rule():
    # built on first use: leggauss calls LAPACK, whose start-up would
    # otherwise add about 1 MB to every process that imports this module
    return np.polynomial.legendre.leggauss(TRACE_QUAD_POINTS)


def _gauss(f, *edges):
    """Gauss-Legendre estimates of the integrals of f and of |f| over each
    piece between consecutive edges, from one call of f on all their nodes."""
    nodes, weights = _gauss_legendre_rule()
    edges = np.array(edges)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    values = f(mid[:, None] + half[:, None] * nodes)
    return ((half * (values @ weights)).tolist(),
            (abs(half) * (abs(values) @ weights)).tolist())


def _refine(f, a, b, whole, tol, level):
    """Bisect [a, b] until the halves agree with `whole` within `tol`, which
    each bisection splits evenly between the two halves."""
    mid = 0.5 * (a + b)
    (left, right), (left_abs, right_abs) = _gauss(f, a, mid, b)
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

    # a non-finite integrand is a QuadratureFailure, not a numpy warning
    with np.errstate(all="ignore"):
        (whole,), (whole_abs,) = _gauss(f, t0, t1)
        if not math.isfinite(whole_abs):
            raise QuadratureFailure(
                f"Re tr A is not finite on [{t0:.6g}, {t1:.6g}]")
        return _refine(f, t0, t1, whole,
                       TRACE_QUAD_TOL * max(1.0, whole_abs), 0)


def liouville_residual(traj, spec, params=None):
    """Largest deviation of qdet(M(t)) from the volume-growth law
    expected(t) = exp(2 * integral(Re tr A)) * qdet(M(t0)) over the
    trajectory samples, each normalized by max(1, expected(t))."""
    det0, *dets = np.linalg.det(traj.adjoints).real.tolist()
    integral = 0.0
    worst = 0.0
    for ta, tb, det in zip(traj.times, traj.times[1:], dets):
        integral += trace_integral(spec, float(ta), float(tb), params)
        expected = math.exp(2.0 * integral) * det0
        worst = max(worst, abs(det - expected) / max(1.0, expected))
    return worst
