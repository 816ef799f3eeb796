import importlib
import math

import numpy as np
import pytest

from qfloquet.expressions import MatrixSpec
from qfloquet.integrate import (IntegratorConfig, NonFiniteState,
                                QuadratureFailure, StepBudgetExceeded,
                                StepUnderflow, integrate, integrate_batch,
                                liouville_residual, trace_integral)
from qfloquet.qmatrix import (QMatrix, adjoint, adjoints, allclose, expm,
                              from_adjoint, qdet)
from qfloquet.quaternion import DivisionByZero, J, K, Quaternion

from conftest import CONST_DECAYING_2X2
from test_acceptance import _random_periodic_spec as criterion_7_spec

# the module, which the package's `integrate` function shadows as an attribute
integrate_module = importlib.import_module("qfloquet.integrate")

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
REFERENCE = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
# sample intervals of a run whose states are checked along the way: 32
# interior sample times
ALONG = 33


def growing_periodic_spec():
    return MatrixSpec.from_strings([["1", "1"], ["0", "i + 2*exp(2*i*t)*j"]],
                                   period=math.pi)


def known_monodromy():
    ep = math.exp(math.pi)
    return QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])


def qdets(traj):
    """qdet(M(t_s)) at each sample time, from the trajectory's stack."""
    return [qdet(from_adjoint(chi, project=False)) for chi in traj.adjoints]


def test_zero_field_is_constant():
    spec = MatrixSpec.from_strings([["0", "0"], ["0", "0"]])
    M0 = QMatrix.from_entries([[1, J], [K, 2]])
    traj = integrate(spec, 0.0, 3.0, M0, samples=ALONG)
    assert allclose(traj.final, M0, 0.0)
    assert np.array_equal(traj.adjoints[0], adjoint(M0))
    assert liouville_residual(traj, spec) == 0.0


def test_constant_system_matches_expm():
    spec = MatrixSpec.from_qmatrix(CONST_DECAYING_2X2)
    traj = integrate(spec, 0.0, 5.0, QMatrix.identity(2))
    oracle = expm(CONST_DECAYING_2X2 * 5.0)
    assert (traj.final - oracle).sum_norm() <= 1e-8


def test_periodic_system_matches_closed_form():
    traj = integrate(growing_periodic_spec(), 0.0, math.pi, QMatrix.identity(2))
    assert (traj.final - known_monodromy()).max_abs() < 1e-7


def test_liouville_zero_trace_system():
    # companion form has zero trace, so qdet(M(t)) must stay 1
    spec = MatrixSpec.from_strings(
        [["0", "1"], ["-(2 + j*cos(2*t)^2 + k*sin(2*t))", "0"]],
        period=math.pi)
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), samples=ALONG)
    assert max(abs(det - 1.0) for det in qdets(traj)) <= 1e-8
    assert liouville_residual(traj, spec) <= 1e-8


def test_liouville_growing_system():
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), TIGHT,
                     samples=ALONG)
    assert liouville_residual(traj, spec) <= 1e-7


def test_trace_integral_quadrature():
    # Re tr A = 1 for the growing system: integral over [0, pi] is pi
    assert trace_integral(growing_periodic_spec(), 0.0, math.pi) == \
        pytest.approx(math.pi, abs=1e-12)


def test_trace_integral_evaluates_arrays(monkeypatch, periodic_growing_spec):
    # the whole rule is one call of re_trace and the two halves one more
    calls = []
    re_trace = MatrixSpec.re_trace

    def counted(self, t, params=None):
        calls.append(type(t))
        return re_trace(self, t, params)
    monkeypatch.setattr(MatrixSpec, "re_trace", counted)
    trace_integral(periodic_growing_spec, 0.0, math.pi)
    assert 1 <= len(calls) <= 2
    assert set(calls) == {np.ndarray}


def test_trace_integral_closed_form_off_period():
    # only the real parts of the diagonal count: Re tr A = cos t + cos 3t + 2t^2
    spec = MatrixSpec.from_strings(
        [["exp(i*t) + cos(3*t)", "j*t"], ["k", "2*t^2 - k*sin(t)"]])
    a, b = 0.3, 2.9
    exact = (math.sin(b) - math.sin(a) + (math.sin(3 * b) - math.sin(3 * a)) / 3
             + 2 * (b ** 3 - a ** 3) / 3)
    assert abs(trace_integral(spec, a, b) - exact) <= 1e-12


def test_trace_integral_fails_loudly_on_a_pole():
    spec = MatrixSpec.from_strings([["1/(t - 1)^2"]])
    with pytest.raises(QuadratureFailure):
        trace_integral(spec, 0.0, 2.0)


@pytest.mark.parametrize("name", ["growing", "defective", "marginal", "decaying"])
def test_liouville_on_normal_form_trajectories(name, request):
    # the [0, T] and [T, 2T] trajectories behind the reports, 31 and 47
    # interior samples; qdet reaches e^(4 pi) on the growing system, so the
    # bound scales with the largest qdet
    spec = request.getfixturevalue(f"periodic_{name}_spec")
    for traj in request.getfixturevalue(f"fd_{name}").trajectories:
        largest = max(qdets(traj))
        assert liouville_residual(traj, spec) <= 1e-7 * max(1.0, largest)


def record_windows(monkeypatch):
    """Spy on `_window` for a run of one member from t0 = 0: each window's
    start t and step h (in sample spacings with samples), step count n,
    step errors (None for a fixed step), and accepted steps, the longest
    prefix of finite steps within the tolerance."""
    windows = []
    window = integrate_module._window

    def recording(*args):
        result = window(*args)
        (t,), (h,), (n,) = args[-4:-1]
        _, _, err, finite = result
        err = None if err is None else err[:n, 0]
        within = finite[:n, 0] & (True if err is None else err <= 1.0)
        windows.append((t, h, n, err,
                        int(np.logical_and.accumulate(within).sum())))
        return result
    monkeypatch.setattr(integrate_module, "_window", recording)
    return windows


def check_step_ends(windows, t1):
    """Each window starts where the previous one's accepted steps end, the
    accepted step ends strictly increase, and the last window's steps are
    all accepted and end exactly at t1."""
    ends = [0.0]
    for t, h, n, _, accepted in windows:
        assert t == ends[-1]
        ends += (t + h * np.arange(1, accepted + 1)).tolist()
    assert np.all(np.diff(ends) > 0)
    t, h, n, _, accepted = windows[-1]
    assert accepted == n and ends[-1] == t1


def test_dop853_tableau_matches_scipy():
    # transcribed from Hairer's code; SciPy's copy is only read here
    reference = pytest.importorskip(
        "scipy.integrate._ivp.dop853_coefficients")
    method = integrate_module._DOP853
    # the step's 12 stages; SciPy's tableau adds f(t + h, y_new) and the
    # continuous extension's 3 stages, which qfloquet does not compute
    c = method.c.ravel().tolist()
    assert c == reference.C[:12].tolist()
    # row s weights the s stages before it; the last row is b
    for s, row in enumerate(method.a, 1):
        assert row.tolist() == reference.A[s, :s].tolist()
        # c_i is the sum of row i, and 1 that of b
        assert abs(row.sum() - (c + [1.0])[s]) <= 1e-14
    assert len(method.a) == len(c)
    assert method.a[-1].tolist() == reference.B.tolist()
    # SciPy's error rows give f(t + h, y_new) a zero weight
    err5, err3 = (row.tolist() + [0.0] for row in method.err)
    assert err5 == reference.E5.tolist()
    assert err3 == reference.E3.tolist()


@pytest.mark.parametrize("members", [1, 16, 345])
def test_stage_sum_matches_a_reduction(members):
    # the stepping kernel's stage and error sums, one einsum over a prefix
    # of the stage stack, against the reduction over weights times stages
    # in stage order, bit for bit: the DOP853 rows, whose zeros sit between
    # nonzero weights, and seeded random rows with zeros first, last and
    # inside.  Stages are top rows read as floats, with three entries in ten
    # zeros of either sign, so that sums of signed zeros are compared too
    rng = np.random.default_rng(71)
    shape = (16, members, 2, 8)
    K = rng.normal(size=shape)
    K = np.where(rng.random(shape) < 0.3, np.copysign(0.0, K), K)
    method = integrate_module._DOP853
    random_rows = [rng.normal(size=length) * (rng.random(length) < 0.6)
                   for length in (1, 3, 8, 16) for _ in range(4)]
    random_rows += [[0.0, 0.0, 2.5], [1.5, 0.0, 0.0], [0.0, -0.75]]
    for weights in method.a + method.err + tuple(map(np.array, random_rows)):
        expected = np.add.reduce(weights[:, None, None, None]
                                 * K[:len(weights)])
        result = np.einsum("s,s...->...", weights, K[:len(weights)])
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_forms_multiply_like_adjoints(n):
    # the stepping kernel's one product, on seeded stacks of 345: top rows
    # read as floats times the real form (`_lift`) of an adjoint's top rows
    rng = np.random.default_rng([83, n])
    left, right = rng.normal(size=(2, 345, n, 4 * n))
    forms = integrate_module._lift(right)
    # the lift copies each entry: its even rows are the adjoint chi and its
    # odd rows i chi, read as floats
    chi = adjoints(right.view(complex))
    assert np.array_equal(forms[..., ::2, :].view(complex), chi)
    assert np.array_equal(forms[..., 1::2, :].view(complex), 1j * chi)
    # the product is the complex one read as floats, within a few ulps of
    # the sum of its terms' moduli
    product = left @ forms
    expected = (left.view(complex) @ chi).view(float)
    bound = 8 * n * np.finfo(float).eps * (np.abs(left) @ np.abs(forms))
    assert np.all(np.abs(product - expected) <= bound)
    # a member's product is the same, bit for bit, in a stack of any size
    for members in (slice(100, 101), slice(100, 107)):
        assert np.array_equal(
            left[members] @ integrate_module._lift(right[members]),
            product[members])
    # a member with an inf or a nan stays non-finite, and the others keep
    # their products
    left[3, 0, 0], right[5, -1, -1] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        spoilt = left @ integrate_module._lift(right)
    finite = np.isfinite(spoilt).all(axis=(1, 2))
    assert np.flatnonzero(~finite).tolist() == [3, 5]
    assert np.array_equal(spoilt[finite], product[finite])


def test_rk4_order_convergence():
    spec = growing_periodic_spec()
    ref = integrate(spec, 0.0, math.pi, QMatrix.identity(2), TIGHT).final
    errors = []
    for n in (100, 200, 400):
        cfg = IntegratorConfig(method="rk4", rk4_step=math.pi / n)
        sol = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg).final
        errors.append((sol - ref).sum_norm())
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_rk4_steps_split_the_sample_spacing_evenly():
    # with samples, RK4 steps the spacing over the fewest equal steps within
    # rk4_step: pi/32 over 10 for rk4_step = 0.01 and over 11 for 0.0098,
    # not over the power of 2 that DOP853's steps take, 16 for both
    spec = growing_periodic_spec()
    for rk4_step, per in ((0.01, 10), (0.0098, 11)):
        cfg = IntegratorConfig(method="rk4", rk4_step=rk4_step)
        traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg,
                         samples=32)
        assert traj.counts.accepted == traj.counts.trials == 32 * per
    # the same steps as a run without samples whose rk4_step divides [0, pi]
    cfg = IntegratorConfig(method="rk4", rk4_step=math.pi / 320)
    sampled = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg,
                        samples=32).final
    alone = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg).final
    assert (sampled - alone).sum_norm() <= 1e-12 * alone.sum_norm()


def test_semigroup_consistency():
    spec = growing_periodic_spec()
    rng = np.random.default_rng(31)
    full = integrate(spec, 0.0, math.pi, QMatrix.identity(2), samples=ALONG)
    k = int(rng.integers(3, ALONG - 3))
    mid = from_adjoint(full.adjoints[k], project=False)
    restarted = integrate(spec, float(full.times[k]), math.pi, mid)
    assert (restarted.final - full.final).sum_norm() <= 1e-8


def test_qdet_positive_along_flow():
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), samples=ALONG)
    assert all(det > 0 for det in qdets(traj))


def test_samples_match_integrations_to_each_time():
    # M(t) at the sample times of a [0, 2T] run against integrations that
    # end at t; M grows to about 600 in the sum norm
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, 2 * math.pi, QMatrix.identity(2),
                     samples=50)
    for t, chi in zip(traj.times.tolist(), traj.adjoints):
        if t == 0.0:
            continue
        direct = integrate(spec, 0.0, t, QMatrix.identity(2)).final
        assert ((from_adjoint(chi, project=False) - direct).sum_norm()
                <= 1e-9 * max(1.0, direct.sum_norm()))


def test_trajectory_states_are_one_stack():
    # M0 first, then M at each sample time, the last of which is `final`
    traj = integrate(growing_periodic_spec(), 0.0, 2 * math.pi,
                     QMatrix.identity(2), samples=ALONG)
    assert traj.times.tolist() == np.linspace(0.0, 2 * math.pi,
                                              ALONG + 1).tolist()
    assert traj.adjoints.shape == (ALONG + 1, 4, 4)
    assert np.array_equal(traj.adjoints[0], np.eye(4))
    assert np.array_equal(traj.final.top, traj.adjoints[-1, :2])


def test_steps_coarsen_on_the_sample_lattice():
    # every step is the sample spacing, 1 here, over a power of 2.  A
    # narrow bump at t = 1 shrinks the step, and past it the member
    # coarsens as far as its position allows.  Without a window's stop on
    # the coarser lattice, 64-step windows from an odd multiple of a fine
    # step would keep that step: 2,098 accepted steps instead of 294
    spec = MatrixSpec.from_strings([["exp(-100*(t-1)^2)*(3 + 2*i)"]])
    traj = integrate(spec, 0.0, 64.0, QMatrix.identity(1), samples=64)
    assert traj.counts.accepted <= 400
    # M(t) = exp((3 + 2i) * integral of the bump from 0 to t)
    for t, chi in zip(traj.times.tolist(), traj.adjoints):
        exact = np.exp((3 + 2j) * math.sqrt(math.pi) / 20
                       * (math.erf(10 * (t - 1)) + math.erf(10)))
        assert abs(chi[0, 0] - exact) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("params", [{}, {"p": 1.1}, {"p": [1.1]}])
def test_scalar_or_no_parameters_make_a_batch_of_one(params):
    a = "-(p + 0.7*j*cos(2*t))" if params else "-(1 + 0.7*j*cos(2*t))"
    spec = MatrixSpec.from_strings([["0", "1"], [a, "0"]], math.pi,
                                   ("t", "p"))
    (batch,) = integrate_batch(spec, 0.0, math.pi, QMatrix.identity(2),
                               params)
    alone = integrate(spec, 0.0, math.pi, QMatrix.identity(2),
                      params={"p": 1.1} if params else None)
    assert np.array_equal(batch.top, alone.final.top)


def test_normal_form_takes_few_steps(fd_growing):
    # a third of the 274 accepted steps a Dormand-Prince 5(4) pair takes
    # here at the same tolerances over [0, 2T] (it takes 32 + 48)
    assert sum(traj.counts.accepted
               for traj in fd_growing.trajectories) <= 274 // 3


def test_normal_form_evaluates_a_once_per_window(fd_growing):
    # A(t) is evaluated once per window of steps, with no pass at t0 (the
    # first window's stage 0 is A(t0)): each period takes 1 call, a full
    # first window whose steps are the sample spacing
    for traj, samples in zip(fd_growing.trajectories, (32, 48)):
        counts = traj.counts
        assert len(traj.times) == samples + 1
        assert counts.trials >= counts.accepted >= samples
        # a window holds at most WINDOW trial steps
        windows = math.ceil(counts.trials / integrate_module.WINDOW)
        assert windows == counts.coefficient_calls == 1


@pytest.mark.parametrize("cfg, stages", [
    (IntegratorConfig(), 12),
    (IntegratorConfig(method="rk4", rk4_step=0.3), 4)])
def test_stage_times_per_step(cfg, stages, monkeypatch):
    # a step evaluates the method's own stages alone, DOP853's 12 or RK4's
    # 4, on every path: a batch, and `integrate` with or without samples.
    # Every call is a window's grid of times, one row per stage and one
    # column per step of a member
    spec = MatrixSpec.from_strings([["0", "1"], ["-(p + j*cos(2*t))", "0"]],
                                   variables=("t", "p"), period=math.pi)
    shapes = []
    tops = spec.tops
    monkeypatch.setattr(spec, "tops", lambda t, params=None: (
        shapes.append(np.shape(t)), tops(t, params))[1])
    integrate_batch(spec, 0.0, math.pi, QMatrix.identity(2),
                    {"p": [0.5, 2.0]}, cfg)
    assert {(len(shape), shape[0]) for shape in shapes} == {(2, stages)}
    # the batch evaluates each member's own trial steps, and no step past
    # them for a member that takes fewer in a window
    pairs = sum(shape[1] for shape in shapes)
    trials = []
    for p in (0.5, 2.0):
        for samples in (None, 32):
            shapes.clear()
            traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg,
                             {"p": p}, samples)
            assert {(len(shape), shape[0]) for shape in shapes} == \
                {(2, stages)}
            assert sum(shape[1] for shape in shapes) == traj.counts.trials
            if samples is None:
                trials.append(traj.counts.trials)
    assert pairs == sum(trials)


def test_windows_match_a_tight_reference():
    rng = np.random.default_rng(97)
    for _ in range(6):
        spec = criterion_7_spec(rng)
        final = integrate(spec, 0.0, 2 * math.pi, QMatrix.identity(2)).final
        reference = integrate(spec, 0.0, 2 * math.pi, QMatrix.identity(2),
                              REFERENCE).final
        assert (final - reference).sum_norm() <= 1e-9 * reference.sum_norm()


@pytest.mark.parametrize("cfg, tol", [
    (IntegratorConfig(), 1e-9),
    (IntegratorConfig(method="rk4", rk4_step=0.3), 1e-2)])
def test_last_window_ends_exactly_at_t1(cfg, tol, monkeypatch):
    # neither step size divides [0, 2.9]; A is never evaluated past t1
    spec = growing_periodic_spec()
    latest = []
    tops = spec.tops
    monkeypatch.setattr(spec, "tops", lambda t, params=None: (
        latest.append(np.max(t)), tops(t, params))[1])
    windows = record_windows(monkeypatch)
    traj = integrate(spec, 0.0, 2.9, QMatrix.identity(2), cfg)
    check_step_ends(windows, 2.9)
    assert max(latest) <= 2.9
    direct = integrate(spec, 0.0, 2.9, QMatrix.identity(2), REFERENCE).final
    assert (traj.final - direct).sum_norm() <= tol * direct.sum_norm()


def test_sharp_coefficient_rejects_steps_mid_window(monkeypatch):
    # a narrow bump at t = 1 rejects a step after earlier steps of its
    # window were accepted; M(t) = exp((3 + 2i) * integral of the bump)
    spec = MatrixSpec.from_strings([["exp(-100*(t-1)^2)*(3 + 2*i)"]])
    windows = record_windows(monkeypatch)
    traj = integrate(spec, 0.0, 2.0, QMatrix.identity(1))
    assert any(0 < np.argmax(~(err <= 1.0)) for _, _, _, err, _ in windows)
    assert traj.counts.trials > traj.counts.accepted
    check_step_ends(windows, 2.0)
    reference = integrate(spec, 0.0, 2.0, QMatrix.identity(1), REFERENCE)
    assert (traj.final - reference.final).sum_norm() <= \
        1e-9 * reference.final.sum_norm()
    exact = np.exp((3 + 2j) * math.sqrt(math.pi) / 10 * math.erf(10))
    assert abs(complex(traj.final[0, 0].q0, traj.final[0, 0].q1)
               - exact) <= 1e-9 * abs(exact)


def test_a_rejected_first_window_wastes_at_most_its_samples(monkeypatch):
    # with samples, the first window tries every sample interval at once;
    # here its first step is rejected, and one-step windows follow until a
    # step is accepted.  From there the run is the one a one-step first
    # window would have started, so the full window costs samples - 1
    # trials more, once
    spec = MatrixSpec.from_strings([["3*cos(40*t)*i + 2*j"]])
    samples = 32
    windows = record_windows(monkeypatch)
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(1),
                     samples=samples)
    (t, h, n, _, accepted), *rest = windows
    assert (t, h, n, accepted) == (0.0, 1.0, samples, 0)
    assert rest[0][0] == 0.0
    for (*_, accepted), (_, _, n, _, _) in zip(windows, rest):
        assert n == 1 or accepted > 0
    assert traj.counts.trials == sum(n for _, _, n, _, _ in windows)
    assert traj.counts.accepted == 256
    check_step_ends(windows, samples)


def test_step_underflow_near_singularity():
    spec = MatrixSpec.from_strings([["1/(1 - t)"]])
    with pytest.raises(StepUnderflow):
        integrate(spec, 0.0, 2.0, QMatrix.identity(1))


def test_eval_error_propagates():
    spec = MatrixSpec.from_strings([["1/0"]])
    with pytest.raises(DivisionByZero):
        integrate(spec, 0.0, 1.0, QMatrix.identity(1))


def test_shape_validation():
    spec = growing_periodic_spec()
    with pytest.raises(ValueError):
        integrate(spec, 0.0, 1.0, QMatrix.identity(3))
    with pytest.raises(ValueError):
        integrate(spec, 1.0, 1.0, QMatrix.identity(2))
    for samples in (0, 2.0):
        with pytest.raises(ValueError):
            integrate(spec, 0.0, 1.0, QMatrix.identity(2), samples=samples)


def test_liouville_relative_to_expected_determinant(fd_growing,
                                                    periodic_growing_spec):
    # qdet grows to e^(4 pi) over [0, 2 pi]; each deviation is measured
    # against the determinant the volume law expects at that sample
    for traj in fd_growing.trajectories:
        assert liouville_residual(traj, periodic_growing_spec) <= 1e-7


def test_step_budget_fails_loudly(monkeypatch):
    # the integration needs 27 accepted steps
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 10)
    with pytest.raises(StepBudgetExceeded):
        integrate(growing_periodic_spec(), 0.0, math.pi, QMatrix.identity(2))


def test_non_finite_state_fails_loudly():
    spec = MatrixSpec.from_strings([["p"]], variables=("t", "p"))
    with pytest.raises(NonFiniteState):
        integrate(spec, 0.0, 1.0, QMatrix.identity(1), params={"p": math.nan})
    with pytest.raises(NonFiniteState):
        integrate(MatrixSpec.from_strings([["1"]]), 0.0, 1.0,
                  QMatrix.from_entries([[math.inf]]))
    # fixed steps accept every step, so the state overflows mid-way
    with pytest.raises(NonFiniteState):
        integrate(MatrixSpec.from_strings([["1000"]]), 0.0, 100.0,
                  QMatrix.identity(1), IntegratorConfig(method="rk4",
                                                        rk4_step=0.5))


def test_overflow_mid_window_ends_its_member():
    # M(t) = e^{pt} overflows at t = 709.78 / p.  For p = 1000 the step
    # that overflows comes after 62 accepted steps of its window and is
    # within the tolerance, with a state and stages that are not finite:
    # that member ends as NonFiniteState, the others integrate as if alone
    spec = MatrixSpec.from_strings([["p"]], variables=("t", "p"))
    grid = [1.0, 1000.0, 3.0]
    outcomes = integrate_batch(spec, 0.0, 1.0, QMatrix.identity(1),
                               {"p": grid})
    assert isinstance(outcomes[1], NonFiniteState)
    assert 0.7097 < float(str(outcomes[1]).rsplit("t=")[1]) < 0.711
    for index in (0, 2):
        (alone,) = integrate_batch(spec, 0.0, 1.0, QMatrix.identity(1),
                                   {"p": [grid[index]]})
        assert np.array_equal(outcomes[index].data, alone.data)
        assert outcomes[index][0, 0].q0 == pytest.approx(
            math.exp(grid[index]), rel=1e-9)
    with pytest.raises(NonFiniteState):
        integrate(spec, 0.0, 1.0, QMatrix.identity(1), params={"p": 1000.0})


def test_integrate_and_batch_take_the_same_steps():
    # without samples, `integrate` takes each member's batch steps
    spec = MatrixSpec.from_strings(
        [["0", "1"], ["-(p + 0.7*j*cos(2*t) - 0.4*k*sin(2*t))", "0"]],
        variables=("t", "p"), period=math.pi)
    grid = [-2.0, 0.5, 3.0, 7.5]
    outcomes = integrate_batch(spec, 0.0, math.pi, QMatrix.identity(2),
                               {"p": grid})
    for p, outcome in zip(grid, outcomes):
        alone = integrate(spec, 0.0, math.pi, QMatrix.identity(2),
                          params={"p": p}).final
        assert np.array_equal(outcome.data, alone.data)


def test_batch_member_failures_stay_in_their_rows():
    # 1/(t - p) at t = 0 divides by zero for p = 0 only; p = nan makes a
    # non-finite state; the other members integrate as if alone
    spec = MatrixSpec.from_strings([["1/(t - p)"]], variables=("t", "p"))
    grid = [5.0, 0.0, 6.0, math.nan]
    outcomes = integrate_batch(spec, 0.0, 1.0, QMatrix.identity(1),
                               {"p": grid})
    assert isinstance(outcomes[1], DivisionByZero)
    assert isinstance(outcomes[3], NonFiniteState)
    for index in (0, 2):
        (alone,) = integrate_batch(spec, 0.0, 1.0, QMatrix.identity(1),
                                   {"p": [grid[index]]})
        assert np.array_equal(outcomes[index].data, alone.data)
        single = integrate(spec, 0.0, 1.0, QMatrix.identity(1),
                           params={"p": grid[index]}).final
        assert (outcomes[index] - single).sum_norm() <= 1e-12
        # M(1) = (p - 1) / p for M' = M / (t - p), M(0) = 1
        assert outcomes[index][0, 0].q0 == pytest.approx(
            (grid[index] - 1.0) / grid[index], rel=1e-9)
