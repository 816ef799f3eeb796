import importlib
import math

import numpy as np
import pytest

from qfloquet.expressions import MatrixSpec
from qfloquet.integrate import (IntegratorConfig, NonFiniteState,
                                QuadratureFailure, StepBudgetExceeded,
                                StepUnderflow, integrate, integrate_batch,
                                liouville_residual, trace_integral)
from qfloquet.qmatrix import (QMatrix, adjoint, allclose, expm, from_adjoint,
                              qdet)
from qfloquet.quaternion import DivisionByZero, J, K, Quaternion

from conftest import CONST_DECAYING_2X2
from test_acceptance import _random_periodic_spec as criterion_7_spec

# the module, which the package's `integrate` function shadows as an attribute
integrate_module = importlib.import_module("qfloquet.integrate")

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
REFERENCE = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)


def growing_periodic_spec():
    return MatrixSpec.from_strings([["1", "1"], ["0", "i + 2*exp(2*i*t)*j"]],
                                   period=math.pi)


def known_monodromy():
    ep = math.exp(math.pi)
    return QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])


def qdets(traj):
    """qdet(M(t_s)) at each accepted step, from the trajectory's stack."""
    return [qdet(from_adjoint(chi, project=False)) for chi in traj.adjoints]


def test_zero_field_is_constant():
    spec = MatrixSpec.from_strings([["0", "0"], ["0", "0"]])
    M0 = QMatrix.from_entries([[1, J], [K, 2]])
    traj = integrate(spec, 0.0, 3.0, M0)
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
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2))
    assert max(abs(det - 1.0) for det in qdets(traj)) <= 1e-8
    assert liouville_residual(traj, spec) <= 1e-8


def test_liouville_growing_system():
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), TIGHT)
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
    # the [0, 2T] trajectories behind the reports; qdet reaches e^(4 pi) on
    # the growing system, so the bound scales with the largest qdet
    spec = request.getfixturevalue(f"periodic_{name}_spec")
    traj = request.getfixturevalue(f"fd_{name}").trajectory
    largest = max(qdets(traj))
    assert liouville_residual(traj, spec) <= 1e-7 * max(1.0, largest)


def _full_row(row, length):
    """A row of (stage, weight) pairs as `length` weights, zeros included."""
    weights = [0.0] * length
    for stage, weight in row:
        weights[stage] = weight
    return weights


def test_dop853_tableau_matches_scipy():
    # transcribed from Hairer's code; SciPy's copy is only read here
    reference = pytest.importorskip(
        "scipy.integrate._ivp.dop853_coefficients")
    method = integrate_module._DOP853
    # stages: the step's 12, f(t + h, y_new), then the extension's 3
    c = method.c.ravel().tolist()
    assert c == reference.C.tolist()
    rows = method.a + method.err + method.dense
    # each row keeps its nonzero weights alone, in stage order
    for row in rows:
        stages = [stage for stage, _ in row]
        assert stages == sorted(set(stages))
        assert all(weight != 0.0 for _, weight in row)
    for s, row in enumerate(method.a, 1):
        assert _full_row(row, s) == reference.A[s, :s].tolist()
        # c_i is the sum of row i
        assert abs(sum(weight for _, weight in row) - c[s]) <= 1e-14
    assert _full_row(method.a[method.last - 1], method.last) == \
        reference.B.tolist()
    err5, err3 = (_full_row(row, method.last + 1) for row in method.err)
    assert err5 == reference.E5.tolist()
    assert err3 == reference.E3.tolist()
    assert [_full_row(row, len(c)) for row in method.dense] == \
        reference.D.tolist()


@pytest.mark.parametrize("members", [1, 16])
def test_stage_sum_matches_a_reduction(members):
    # the in-place sum over a row's nonzero weights against the reduction
    # over all of them: the DOP853 rows, whose zeros sit between nonzero
    # weights, and seeded random rows with zeros first, last and inside
    rng = np.random.default_rng(71)
    shape = (16, 5, members, 4, 4)
    K = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    method = integrate_module._DOP853
    random_rows = [rng.normal(size=length) * (rng.random(length) < 0.6)
                   for length in (1, 3, 8, 16) for _ in range(4)]
    random_rows += [[0.0, 0.0, 2.5], [1.5, 0.0, 0.0], [0.0, -0.75]]
    rows = [_full_row(row, row[-1][0] + 1)
            for row in method.a + method.err + method.dense]
    out, scratch = np.empty_like(K[0]), np.empty_like(K[0])
    for weights in rows + [row for row in random_rows if np.any(row)]:
        (row,) = integrate_module._weights(weights)
        expected = np.add.reduce(
            np.asarray(weights)[:, None, None, None, None] * K[:len(weights)])
        result = integrate_module._stage_sum(row, K, out, scratch)
        assert result is out
        np.testing.assert_array_equal(result, expected)


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


def test_semigroup_consistency():
    spec = growing_periodic_spec()
    rng = np.random.default_rng(31)
    t_star = float(rng.uniform(0.3, 2.5))
    full = integrate(spec, 0.0, math.pi, QMatrix.identity(2))
    mid = full.matrix_at(t_star)
    restarted = integrate(spec, t_star, math.pi, mid)
    assert (restarted.final - full.final).sum_norm() <= 1e-8


def test_qdet_positive_along_flow():
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2))
    assert all(det > 0 for det in qdets(traj))


def test_continuous_extension_matches_integrations_to_each_time():
    # M(t) read from the extension of the [0, 2T] steps against integrations
    # that end at t; M grows to about 600 in the sum norm
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, 2 * math.pi, QMatrix.identity(2))
    rng = np.random.default_rng(53)
    for t in rng.uniform(0.0, 2 * math.pi, 50):
        direct = integrate(spec, 0.0, float(t), QMatrix.identity(2)).final
        assert ((traj.matrix_at(float(t)) - direct).sum_norm()
                <= 1e-9 * max(1.0, direct.sum_norm()))


def test_trajectory_states_are_one_stack_the_extension_starts_from():
    # x = 0 leaves each step's start state, bit for bit
    traj = integrate(growing_periodic_spec(), 0.0, 2 * math.pi,
                     QMatrix.identity(2))
    assert traj.adjoints.shape == (len(traj.times), 4, 4)
    assert np.array_equal(traj.adjoints_at(traj.times[:-1]),
                          traj.adjoints[:-1])
    assert np.array_equal(traj.final.top, traj.adjoints[-1, :2])


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


def test_dense_output_interpolation():
    spec = growing_periodic_spec()
    traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2))
    probe = 1.2345
    reference = integrate(spec, 0.0, probe, QMatrix.identity(2)).final
    interpolated = traj.matrix_at(probe)
    assert (interpolated - reference).sum_norm() < 1e-7


def test_normal_form_takes_few_steps(fd_growing):
    # a third of the 274 accepted steps a Dormand-Prince 5(4) pair takes
    # here at the same tolerances (it takes 47)
    assert len(fd_growing.trajectory.times) - 1 <= 274 // 3


def test_normal_form_evaluates_a_once_per_window(fd_growing):
    # A(t) is evaluated once per window of steps, with no pass at t0 (the
    # first window's stage 0 is A(t0)): the growing fixture's [0, 2T]
    # integration takes 53 steps in 2 calls, a one-step window that sizes
    # the step and one window for the rest
    counts = fd_growing.trajectory.counts
    assert counts.accepted == len(fd_growing.trajectory.times) - 1
    assert counts.trials >= counts.accepted
    # a window holds at most WINDOW trial steps
    windows = math.ceil(counts.trials / integrate_module.WINDOW)
    assert windows < counts.coefficient_calls == 2


@pytest.mark.parametrize("cfg, batch, dense", [
    (IntegratorConfig(), 12, 16),
    (IntegratorConfig(method="rk4", rk4_step=0.3), 4, 5)])
def test_stage_times_per_step(cfg, batch, dense, monkeypatch):
    # without a continuous extension a step evaluates the method's own
    # stages alone, DOP853's 12 or RK4's 4; `integrate` adds the stage at
    # the step's end and DOP853's 3 extension stages.  Every call is a
    # window's grid of times, one row per stage and one column per step of
    # a member
    spec = MatrixSpec.from_strings([["0", "1"], ["-(p + j*cos(2*t))", "0"]],
                                   variables=("t", "p"), period=math.pi)
    shapes = []
    adjoint = spec.adjoint
    monkeypatch.setattr(spec, "adjoint", lambda t, params=None: (
        shapes.append(np.shape(t)), adjoint(t, params))[1])
    integrate_batch(spec, 0.0, math.pi, QMatrix.identity(2),
                    {"p": [0.5, 2.0]}, cfg)
    assert {(len(shape), shape[0]) for shape in shapes} == {(2, batch)}
    # the batch evaluates each member's own trial steps, and no step past
    # them for a member that takes fewer in a window
    pairs = sum(shape[1] for shape in shapes)
    trials = []
    for p in (0.5, 2.0):
        shapes.clear()
        traj = integrate(spec, 0.0, math.pi, QMatrix.identity(2), cfg,
                         {"p": p})
        assert {(len(shape), shape[0]) for shape in shapes} == {(2, dense)}
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
    adjoint = spec.adjoint
    monkeypatch.setattr(spec, "adjoint", lambda t, params=None: (
        latest.append(np.max(t)), adjoint(t, params))[1])
    traj = integrate(spec, 0.0, 2.9, QMatrix.identity(2), cfg)
    assert traj.times[-1] == 2.9
    assert np.all(np.diff(traj.times) > 0)
    assert max(latest) <= 2.9
    direct = integrate(spec, 0.0, 2.9, QMatrix.identity(2), REFERENCE).final
    assert (traj.final - direct).sum_norm() <= tol * direct.sum_norm()


def test_sharp_coefficient_rejects_steps_mid_window(monkeypatch):
    # a narrow bump at t = 1 rejects a step after earlier steps of its
    # window were accepted; M(t) = exp((3 + 2i) * integral of the bump)
    spec = MatrixSpec.from_strings([["exp(-100*(t-1)^2)*(3 + 2*i)"]])
    errors = []     # each window's step errors
    window = integrate_module._window

    def recording(*args):
        result = window(*args)
        errors.append(result[2][:args[-2][0], 0])
        return result
    monkeypatch.setattr(integrate_module, "_window", recording)
    traj = integrate(spec, 0.0, 2.0, QMatrix.identity(1))
    assert any(0 < np.argmax(~(err <= 1.0)) for err in errors)
    assert traj.counts.trials > traj.counts.accepted
    assert np.all(np.diff(traj.times) > 0)
    reference = integrate(spec, 0.0, 2.0, QMatrix.identity(1), REFERENCE)
    assert (traj.final - reference.final).sum_norm() <= \
        1e-9 * reference.final.sum_norm()
    exact = np.exp((3 + 2j) * math.sqrt(math.pi) / 10 * math.erf(10))
    assert abs(complex(traj.final[0, 0].q0, traj.final[0, 0].q1)
               - exact) <= 1e-9 * abs(exact)


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


def test_liouville_relative_to_expected_determinant(fd_growing,
                                                    periodic_growing_spec):
    # qdet grows to e^(4 pi) over [0, 2 pi]; each deviation is measured
    # against the determinant the volume law expects at that sample
    traj = fd_growing.trajectory
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
    # the continuous extension's extra stages do not change a step
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
