"""Numerical integration of the matrix equation M' = A(t) M.

The right-hand side X -> A(t) X is real-linear, so classical Runge-Kutta
order theory carries over to quaternion-valued states unchanged.  One core
steps a stack of B systems in real arithmetic: A is evaluated at all stage
times of a window of steps in one array call (`MatrixSpec.tops`) and each
stage is one batched real matrix product.  `integrate` runs it on one
system and returns a Trajectory: M at equally spaced sample times, every
one of them a step end, as one stack of complex adjoints (see
`qmatrix.adjoint`).  `integrate_batch` returns M(t1) alone, for members
that share A(t) but bind its parameters to different values; scalar
values, or none, make a batch of one.  Nothing in qfloquet needs SciPy.

The default method is DOP853, Dormand and Prince's adaptive 8th-order pair
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5); a fixed-step
classical RK4 is kept for convergence studies.  A step evaluates the
method's own stages alone, 12 for DOP853 and 4 for RK4.  Each member keeps
its own time, step and accept/reject decisions, with the local error in the
quaternion entrywise sum norm, so its result does not depend on the rest of
the batch; a member whose coefficients cannot be evaluated, whose step
underflows, that needs more than MAX_STEPS trial steps or whose state stops
being finite ends with its own typed error.

A member advances in windows of equal steps.  Because the system is
linear, a step's stages are propagators that do not depend on the state,
so the stages of all the window's steps are built together; only the
product of each step's propagator with the state is sequential.  In a
batch, a window covers each member's own steps alone, and the local error
estimates, which read the top rows of their products, share one product
per step.  Each weighted sum of stages is one `np.einsum`, in stage
order.  The longest prefix of steps within the tolerance is accepted, and
the next step comes from the first rejected step's error or else from the
window's largest.  Every step of a window counts against
MAX_STEPS, accepted or not.  Without sample times, a member's windows have
one step until one is accepted, which sizes the step from the initial
guess, and up to WINDOW steps from then on; a window that reaches t1 is
shortened to equal steps that end exactly there.  With sample times, every
step is the sample spacing over a power of 2 (see `_run`), and the first
trial step, the spacing itself, is almost always accepted: so the first
window holds up to WINDOW steps, and a window that accepts none is
followed by one-step windows until one is accepted, which wastes at most
samples - 1 trials, once.  A is evaluated by the windows alone, with no
separate pass at t0.

Every product is real, on arrays of floats read from complex ones by
numpy's `view`, real and imaginary parts interleaved.  A quaternion matrix
with complex adjoint chi (F. Zhang, "Quaternions and matrices of
quaternions", Linear Algebra Appl. 251, 1997) is held either as the top
block row [A1, A2] of chi that QMatrix stores, n x 2n complex and so
n x 4n as floats, or as its real form, 4n x 4n: the rows of chi and of
i chi interleaved, as floats.  Top rows times a real form are the top rows
of the product of the adjoints, and real forms multiply like the adjoints.
The stages h A_s, the stage sums, the step propagators and the error sums
are top rows, so their weights are plain floats; the right factor of each
product is lifted to its real form by one exact product with a constant
+-1 map (`_lift`).  The states are real forms, whose even rows are their
adjoints: samples are recorded and sizes taken from those rows read as
complex, with no arithmetic.

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

from .qmatrix import adjoint, adjoints, from_adjoint, sum_norms


# trace quadrature: accuracy target relative to max(1, integral of |Re tr A|),
# deepest bisection, and points of the Gauss-Legendre rule used on each piece
TRACE_QUAD_TOL = 1e-12
TRACE_QUAD_LEVELS = 20
TRACE_QUAD_POINTS = 10
# relative rounding floor of a Gauss-Legendre sum
_ROUNDING = 64 * np.finfo(float).eps
# trial steps (accepted and rejected) one integration may take: over 40x the
# most any test, demo or benchmark input needs that ends in time (711, for a
# tight reference integration across a sharp bump at rel_tol 1e-13, whose
# rejected steps waste the rest of their windows; 704 for 40 periods of a
# paper system on 80 sample intervals at rel_tol 1e-8; benchmark inputs and
# demos need at most 48, a period on 48 sample intervals, in the first 150
# units and charts of seeds 11 and 4817)
MAX_STEPS = 30_000
# the most steps in one window (see above).  A sweep over 12, 24, 32, 48,
# 64 and 96 on benchmark inputs (seed 11: 60 periodic systems, 12 Hill
# charts, one BLAS thread, best of 5 rounds on a 2-core host) cut a
# periodic system's evaluations of A from 9.1 to 6.1, 5.1, 4.1, 4.0 and
# 4.0 (from 48 on, 2 per period) and its report from 7.2 ms to 6.3, 6.0,
# 5.8, 5.7 and 5.9 ms; a Hill chart took 4.7 ms at 12 and 4.5-4.7 ms at
# the others.  Since a first window on sample times holds WINDOW steps too,
# a period whose first window is accepted takes 1 evaluation
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
    rk4_step: float = 1e-2        # RK4's step or, with samples, its bound

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


class Trajectory(NamedTuple):
    """M at equally spaced times t_0 < ... < t_m: `adjoints[s]`, a
    (m + 1, 2n, 2n) stack, is the adjoint of M(times[s]).  `counts` is the
    integration's StepCounts."""
    times: np.ndarray
    adjoints: np.ndarray
    counts: StepCounts

    @property
    def final(self):
        return from_adjoint(self.adjoints[-1], project=False)


class _Method(NamedTuple):
    """An explicit Runge-Kutta method, its weights as plain float arrays:
    the stages they weight are top rows read as floats."""
    c: np.ndarray      # step fraction of each stage, shaped (stages, 1)
    a: tuple           # per stage after the first, the weights of the stages
                       # before it; then b, the weights of y_new
    err: tuple         # 5th- and 3rd-order local error weights, or none


def _method(c, a, b, err5=None, bhh=None):
    """A _Method from stage fractions c (c[0] = 0) and weight lists.  The
    3rd-order error weights are b - bhh."""
    def rows(*weights):
        return tuple(np.array(row, dtype=float) for row in weights)
    return _Method(np.array(c)[:, None], rows(*a, b),
                   rows(err5, np.subtract(b, bhh)) if err5 else ())


# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.5; coefficients of their Fortran code)
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
)
_RK4 = _method(c=(0.0, 0.5, 0.5, 1.0), a=((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
               b=(1 / 6, 1 / 3, 1 / 3, 1 / 6))


def integrate(spec, t0, t1, M0, cfg=None, params=None, samples=None):
    """Integrate M' = A(t) M from M(t0) = M0 over [t0, t1].

    Returns a Trajectory of M at t0 and t1, from the steps `integrate_batch`
    takes; or, with `samples`, at the ends of that many equal intervals of
    [t0, t1], every one of them a step end (see `_run`).
    """
    cfg = cfg or IntegratorConfig()
    _check_shapes(spec, t0, t1, M0)
    if samples is not None and not (isinstance(samples, (int, np.integer))
                                    and samples > 0):
        raise ValueError("samples must be a positive integer")

    calls = 0

    def coefficients(members, t):
        nonlocal calls
        calls += 1
        return spec.tops(t, params)

    (states,), (trials,), (accepted,) = _run(
        coefficients, t0, t1, adjoint(M0)[None], cfg, samples)
    if isinstance(states, Exception):
        raise states
    return Trajectory(np.linspace(t0, t1, len(states)), states,
                      StepCounts(int(accepted), int(trials), calls))


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
    that ended its integration.  A member's entry is the same, bit for bit,
    in a batch of any size, and as the `final` of `integrate` without
    samples.
    """
    cfg = cfg or IntegratorConfig()
    _check_shapes(spec, t0, t1, M0)
    params, size = batch_params(params)

    def coefficients(members, t):
        return spec.tops(t, {name: values[members]
                                for name, values in params.items()})

    y0 = np.broadcast_to(adjoint(M0), (size,) + (2 * spec.n,) * 2)
    outcomes, _, _ = _run(coefficients, t0, t1, y0, cfg)
    return [outcome if isinstance(outcome, Exception)
            else from_adjoint(outcome[-1], project=False)
            for outcome in outcomes]


def _check_shapes(spec, t0, t1, M0):
    if not M0.is_square() or M0.rows != spec.n:
        raise ValueError("initial matrix shape does not match the system")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")


@functools.cache
def _lift_map(n):
    """The constant map, as a (4n^2, 16n^2) matrix, from flattened top rows
    read as floats to the flattened real form of their adjoint chi: the rows
    of chi and of i chi, interleaved and read as floats.  Each column holds
    one entry, 1 or -1, so a product with it is exact."""
    chi = adjoints(np.eye(4 * n * n).reshape(-1, n, 4 * n).view(complex))
    lift = np.stack((chi, 1j * chi), axis=-2).view(float)
    lift = lift.reshape(len(chi), -1)
    lift.flags.writeable = False
    return lift


def _lift(tops):
    """The real forms, shaped (..., 4n, 4n), of the adjoints of top rows
    read as floats, shaped (..., n, 4n): a product of top rows with a real
    form is the top rows of the product of their adjoints."""
    n = tops.shape[-2]
    return (tops.reshape(-1, 4 * n * n) @ _lift_map(n)).reshape(
        tops.shape[:-2] + (4 * n, 4 * n))


def _window(method, coefficients, cfg, t0, unit, end, members, t, h, n, y):
    """n trial steps of length h from t for each member, computed together
    (t and h count `unit`s of time from t0; no stage comes after `end`).

    Each stage's h M' is K_s y for the propagator K_s = h A_s (I + sum_j
    a_sj K_j), and y_{w+1} = R_w y_w.  The stages are built for the
    window's (step, member) pairs alone, step by step: a member takes its
    own n of the W = max(n) steps, and one with fewer keeps its last state
    through the rest.  K_s overwrites h A_s in one stack, and each weighted
    sum of stages is one einsum over a prefix of it.  Every left factor is
    held as its top rows read as floats and multiplied by the real form of
    the right factor (`_lift`); the states y are real forms, whose even
    rows are their adjoints.  Returns the states y_0 .. y_W; whether each
    member's state and stage 0, h A(t), are finite at the window's start;
    each step's local error relative to the tolerance (None for a fixed
    step); and whether each step's end state is finite (steps on the first
    axis, members on the second).  Entries past a member's n steps are not
    read.  Every operation is elementwise or one product per matrix, so a
    member's results do not depend on the rest of the batch.
    """
    width, size = n.max(), len(n)
    step, member = np.nonzero(np.arange(width)[:, None] < n)
    bounds = np.searchsorted(step, np.arange(width + 1))
    # h A at every stage time of the window, evaluated together, as top
    # rows read as floats, shaped (stages, pairs, n, 4n)
    K = coefficients(members[member], t0 + unit * np.minimum(
        t[member] + (step + method.c) * h[member], end)).view(float)
    K *= unit * h[member, None, None]
    order = K.shape[-2]
    eye = np.eye(order, 2 * order, dtype=complex).view(float)

    def propagator(row):
        # the real form of I + sum_j row_j K_j, summed in stage order
        total = np.einsum("s,s...->...", row, K[:len(row)])
        total += eye
        return _lift(total)

    for s, row in enumerate(method.a[:-1], 1):
        K[s] = K[s] @ propagator(row)
    R = propagator(method.a[-1])
    ys = np.empty((width + 1,) + y.shape)
    ys[0] = y
    for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi - lo == size:
            np.matmul(R[lo:hi], ys[w], out=ys[w + 1])
        else:
            ys[w + 1] = ys[w]
            ys[w + 1, member[lo:hi]] = R[lo:hi] @ ys[w, member[lo:hi]]
    sizes = sum_norms(ys[..., ::2, :].view(complex))
    start = np.isfinite(sizes[0]) & np.isfinite(K[0, :size]).all(axis=(1, 2))
    err = None
    if method.err:
        # the error weights apply to each step's start state, and the
        # estimates read their products' top rows alone, so the two error
        # sums, stacked, are one product
        weighted = np.stack([np.einsum("s,s...->...", row, K)
                             for row in method.err], axis=1)
        products = (weighted.reshape(len(step), 2 * order, -1)
                    @ ys[step, member]).reshape(weighted.shape)
        e5, e3 = sum_norms(products.view(complex)).T / (
            cfg.abs_tol + cfg.rel_tol * np.maximum(sizes[step, member],
                                                   sizes[step + 1, member]))
        # Hairer's combination of the two estimates; 0 when both vanish
        denominator = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
        err = np.zeros((width, size))
        err[step, member] = np.where(denominator == 0.0, 0.0,
                                     e5 * e5 / denominator)
    return ys, start, err, np.isfinite(sizes[1:])


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


def _lattice(h, t, end):
    """Each member's step on the sample lattice (see `_run`): the largest
    power of 2 within h and 1 that divides its position t; and where its
    window stops: at the next multiple of the step it wants, the power of 2
    within h and 1, when t allows only a finer step, else at `end`."""
    want = np.minimum(1.0, np.ldexp(0.5, np.frexp(h)[1]))
    step = want
    while (t % step).any():
        step = np.where(t % step, 0.5 * step, step)
    return step, np.where(step < want, (np.floor(t / want) + 1.0) * want, end)


def _run(coefficients, t0, t1, y0, cfg, samples=None):
    """Integrate the stack y0 over [t0, t1] with per-member step control.

    coefficients(members, t) is the stack of A's top block rows (see
    `MatrixSpec.tops`) at the times t, an array whose last axis runs over the
    batch members (indices) given; its shape is t.shape + (n, 2n).  y0 is a
    stack of complex adjoints.  Returns, per member, the stack of its
    adjoints at t0 and t1, or with `samples` at the samples + 1 equally
    spaced times from t0 to t1, or else the ArithmeticError that ended it;
    and the arrays of trial and of accepted steps each member took.

    Without `samples`, time counts from t0, steps are free, a member's
    windows have one step until one is accepted, and a window that reaches
    t1 is shortened to equal steps that end exactly there.  With `samples`,
    the first window holds up to WINDOW steps, and a window that accepts no
    step is followed by one-step windows until one is accepted; time counts
    units from t0: the sample spacing, or for RK4 the spacing over the
    fewest equal steps within rk4_step, which then is RK4's step.  Every
    step is 2^-j units, j >= 0, so positions are exact and every sample
    time is a step end.  A member coarsens only as far as its position is a
    multiple of the coarser step, and a window that wants a
    coarser step stops where it may take it (else windows of 64 steps from
    an odd multiple of a step end on one again, and the member keeps the
    finer step for the whole run).

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
    per = 1 if method.err or not samples else math.ceil(
        span / samples / cfg.rk4_step)
    unit, end, spacing = ((span / samples / per, samples * per, per) if samples
                          else (1.0, span, span))
    first = (1.0 if samples else min(span / 100.0, 0.1) if method.err
             else cfg.rk4_step)     # the first trial step
    outcomes = [None] * len(y0)
    trials, taken = (np.zeros(len(y0), dtype=int) for _ in range(2))
    states = np.empty((len(y0), (samples or 1) + 1) + y0.shape[1:],
                      dtype=complex)
    states[:, 0] = y0
    # one row per member still running; `members` holds their batch indices
    members = np.arange(len(y0))
    t = np.zeros(len(y0))
    h = np.full(len(y0), first)
    length = np.full(len(y0), WINDOW if samples else 1)

    def retire(results):
        """Record {row: states or error} and drop those rows."""
        nonlocal members, t, h, length, y
        for row, result in results.items():
            outcomes[members[row]] = result
        keep = np.ones(len(members), dtype=bool)
        keep[list(results)] = False
        members, t, h, length, y = (
            a[keep] for a in (members, t, h, length, y))

    def not_finite(rows, at):
        return {row: NonFiniteState(f"M(t) or M'(t) is not finite at "
                                    f"t={t0 + unit * at[row]:.6g}")
                for row in rows}

    window = functools.partial(_window, method, coefficients, cfg, t0, unit,
                               end)

    with np.errstate(all="ignore"):
        # the states as real forms; a non-finite y0 lifts to nan
        y = _lift(y0[..., :y0.shape[-1] // 2, :].view(float))
        while len(members):
            budget, underflow = trials[members] == MAX_STEPS, h < 1e-13 * end
            arrived = t >= end - 1e-14 * end
            if (budget | underflow | arrived).any():
                # arrival wins over a step underflow, which wins over the
                # budget
                ended = {row: StepBudgetExceeded(
                    f"more than {MAX_STEPS} steps, stopped at "
                    f"t={t0 + unit * t[row]:.6g}")
                    for row in np.flatnonzero(budget)}
                ended.update({row: StepUnderflow(
                    f"step size {unit * h[row]:.3e} underflowed at "
                    f"t={t0 + unit * t[row]:.6g}")
                    for row in np.flatnonzero(underflow)})
                ended.update({row: states[members[row]]
                              for row in np.flatnonzero(arrived)})
                retire(ended)
                continue
            # a window that reaches its stop takes equal steps that end
            # exactly there; the budget may cut a window short
            step, stop = _lattice(h, t, end) if samples else (h, end)
            remaining = stop - t
            need = np.ceil(remaining / step * (1.0 - 1e-9))
            n = np.minimum(np.minimum(need, length),
                           MAX_STEPS - trials[members]).astype(int)
            arrives = n == need
            step = np.where(arrives, remaining / need, step)
            # members whose A fails leave, and the rest retry the window;
            # so do members that are not finite at the window's start
            result, errors = _isolated(window, members, t, step, n, y)
            if errors:
                retire(errors)
                continue
            ys, start, err, finite = result
            if not start.all():
                retire(not_finite(np.flatnonzero(~start), t))
                continue
            trials[members] += n
            rows = np.arange(len(members))
            ahead = np.arange(len(ys) - 1)[:, None]
            ends = t + (ahead + 1) * step
            ends[n - 1, rows] = np.where(arrives, stop, ends[n - 1, rows])
            # the longest prefix of finite steps within the tolerance is
            # accepted; the step after it, if real, was rejected or, when
            # within the tolerance, ends its member as not finite
            real = ahead < n
            within = real if err is None else real & (err <= 1.0)
            accepted = np.logical_and.accumulate(within & finite).sum(axis=0)
            after = np.minimum(accepted, len(ahead) - 1)
            failed = (accepted < n) & within[after, rows]
            taken[members] += accepted
            # an accepted step that ends on a sample time records its state
            w, row = np.nonzero((ahead < accepted) & (ends % spacing == 0.0))
            states[members[row], (ends[w, row] / spacing).astype(int)] = \
                ys[w + 1, row, ::2].view(complex)
            t = np.where(accepted > 0, ends[accepted - 1, rows], t)
            length = np.where(accepted > 0, WINDOW, 1 if samples else length)
            y = ys[accepted, rows]
            # the next step comes from the rejected step's error, or else the
            # window's largest; a nan error estimate shrinks the step
            if err is None:
                h = np.full(len(members), first)
            else:
                worst = np.where(accepted < n, err[after, rows],
                                 np.where(real, err, 0.0).max(axis=0))
                h = step * np.fmin(5.0, np.fmax(0.2, 0.9 * worst ** -0.125))
            if failed.any():
                retire(not_finite(np.flatnonzero(failed), ends[after, rows]))
    return outcomes, trials, taken


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
