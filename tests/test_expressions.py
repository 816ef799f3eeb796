import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfloquet.expressions import (MAX_DEPTH, MAX_EXPONENT, REAL_ARG_TOL,
                                  BinOp, Call, DomainError, EvalError,
                                  ExprSyntaxError, MatrixSpec, Neg, Num, Pow,
                                  Unit, UnknownIdentifier, Var, compile_expr,
                                  evaluate, grid_max, parse,
                                  quaternion_literal, render)
from qfloquet.qmatrix import adjoint
from qfloquet.quaternion import DivisionByZero, I, J, K, Quaternion, qexp


def q(a, b=0.0, c=0.0, d=0.0):
    return Quaternion(a, b, c, d)


def test_parse_and_eval_oscillating_coefficient():
    node = parse("i + 2*exp(2*i*t)*j")
    assert abs(evaluate(node, 0.0) - (I + 2 * J)) < 1e-15
    # exp(2 i t) walks the unit circle in the complex slice
    value = evaluate(node, math.pi / 2)
    assert abs(value - (I - 2 * J)) < 1e-12


def test_variable_lookup():
    assert evaluate(parse("t"), 3.5) == q(3.5)


def test_noncommutative_order_preserved():
    assert evaluate(parse("k*j"), 0.0) == -I
    assert evaluate(parse("j*k"), 0.0) == I


def test_scalar_exponential():
    assert abs(evaluate(parse("exp(2*i*t)"), math.pi / 2) - q(-1)) < 1e-12


def test_hill_coefficient_values():
    assert abs(evaluate(parse("-1 + j*cos(2*t) + k*sin(2*t)"), 0.0)
               - (q(-1) + J)) < 1e-15
    assert abs(evaluate(parse("2 + j*cos(2*t)^2 + k*sin(2*t)"), math.pi / 4)
               - (q(2) + K)) < 1e-12


def test_power_is_repeated_ordered_multiplication():
    node = parse("(1 + i + j)^3")
    base = q(1, 1, 1, 0)
    assert abs(evaluate(node, 0.0) - base * base * base) < 1e-14
    assert evaluate(parse("t^0"), 5.0) == q(1)


def test_unary_minus_binds_at_atom_level():
    # -2^2 parses as (-2)^2 because '-' atom is itself an atom
    assert evaluate(parse("-2^2"), 0.0) == q(4)
    assert evaluate(parse("-k*sin(2*t)"), math.pi / 4) == -K


def test_division_is_right_inverse_multiplication():
    got = evaluate(parse("j/i"), 0.0)
    assert abs(got - J * Quaternion(0, -1, 0, 0)) < 1e-15


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + (2*")
    assert err.value.offset == 7
    with pytest.raises(ExprSyntaxError) as err:
        parse("2i")
    assert err.value.offset == 1
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("t ^ t")  # exponent must be an integer literal


def test_nesting_depth_limit():
    deep = "(" * 3000 + "1" + ")" * 3000
    with pytest.raises(ExprSyntaxError, match="nests deeper"):
        parse(deep)
    with pytest.raises(ExprSyntaxError, match="nests deeper"):
        parse("-" * 3000 + "t")
    with pytest.raises(ExprSyntaxError, match="nests deeper"):
        parse(" + ".join(["t"] * (MAX_DEPTH + 1)))  # a chain nests too
    nested = "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1)
    assert evaluate(parse(nested), 2.0) == Quaternion(2.0)
    assert evaluate(parse(" + ".join(["t"] * MAX_DEPTH)), 1.0) \
        == Quaternion(float(MAX_DEPTH))


def test_exponent_limit():
    with pytest.raises(ExprSyntaxError, match="exceeds") as err:
        parse("t^999999999")
    assert err.value.offset == 2
    assert evaluate(parse(f"t^{MAX_EXPONENT}"), 1.0) == Quaternion(1.0)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("q + 1")
    assert err.value.offset == 0
    with pytest.raises(UnknownIdentifier):
        parse("p + 1")  # p allowed only when requested
    parse("p + 1", variables=("t", "p"))  # and accepted when it is


def test_identifiers_are_case_sensitive():
    with pytest.raises(UnknownIdentifier):
        parse("T")
    with pytest.raises(UnknownIdentifier):
        parse("COS(t)")


def test_domain_error_for_nonreal_trig():
    with pytest.raises(DomainError):
        evaluate(parse("cos(i*t)"), 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sin(j)"), 0.0)


def test_division_by_zero_propagates():
    with pytest.raises(DivisionByZero):
        evaluate(parse("1/t"), 0.0)


def test_constant_errors_wait_for_evaluation():
    for src, error in (("t + 1/0", DivisionByZero), ("cos(i) + t", DomainError),
                       ("1/0", DivisionByZero)):
        node = parse(src)
        spec = MatrixSpec([[node]])
        f = compile_expr(node)
        with pytest.raises(error):
            f(0.5, None)
        with pytest.raises(error):
            spec.evaluate(0.5)


def test_array_evaluation_matches_float_evaluation():
    # one time and parameter per element; numpy's exp may differ from libm's
    # in the last bit, so elements agree to rounding
    spec = MatrixSpec.from_strings(
        [["k/2 + p", "exp(-2*i*t*p) * exp(j*p)"],
         ["3", "i + 2*j*cos(2*t) + k*sin(2*t)/(1 + p^2)"]],
        variables=("t", "p"))
    t = np.array([[0.0, 0.4], [1.3, 2.9]])
    p = np.array([0.5, -1.5])
    batch = spec.adjoint(t, {"p": p})
    assert batch.shape == (2, 2, 4, 4)
    for index in np.ndindex(t.shape):
        single = adjoint(spec.evaluate(t[index], {"p": p[index[1]]}))
        assert np.allclose(batch[index], single, rtol=1e-14, atol=1e-14)
    assert np.array_equal(spec.adjoint(0.4, {"p": 0.5}),
                          adjoint(spec.evaluate(0.4, {"p": 0.5})))


def test_array_evaluation_errors():
    with pytest.raises(DivisionByZero):
        compile_expr(parse("1/(t - 1)"))(np.array([0.0, 1.0]), None)
    # the message names the first element whose argument is not real
    f = compile_expr(parse("cos(p*j*t)", ("t", "p")))
    with pytest.raises(DomainError, match="got 2j"):
        f(np.array([0.0, 1.0, 3.0]), {"p": np.array([5.0, 2.0, 1.0])})


def test_quaternion_components_stay_python_floats():
    # the numpy leaves give numpy scalars (and _sinc a 0-d array); a
    # Quaternion holds Python floats
    values = [qexp(Quaternion(0.5, 1.0, -2.0)), qexp(Quaternion(0.5, 1e-12)),
              qexp(Quaternion(1000.0)),
              evaluate(parse("exp(i*t) * cos(t) + sin(2)*j"), 0.5),
              evaluate(parse("exp(1000)"), 0.0),
              evaluate(parse("exp(j*p*1e-12)", ("t", "p")), 0.0, {"p": 1})]
    for value in values:
        assert all(type(c) is float for c in value.components())
        assert repr(value) == "Quaternion(q0={!r}, q1={!r}, q2={!r}, q3={!r})" \
            .format(*map(float, value.components()))
    assert values[2].q0 == values[4].q0 == math.inf


def test_parameter_evaluation():
    node = parse("p*t + 1", variables=("t", "p"))
    assert evaluate(node, 2.0, {"p": 3.0}) == q(7)
    with pytest.raises(EvalError):
        evaluate(node, 2.0)


def random_ast(rng, depth=0):
    choice = rng.integers(0, 8 if depth < 4 else 4)
    if choice == 0:
        return Num(round(float(rng.uniform(-3, 3)), 3))
    if choice == 1:
        return Unit(str(rng.choice(["i", "j", "k"])))
    if choice == 2:
        return Var("t")
    if choice == 3:
        return Neg(random_ast(rng, depth + 1))
    if choice == 4:
        return BinOp(str(rng.choice(["+", "-", "*"])),
                     random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    if choice == 5:
        return Pow(random_ast(rng, depth + 1), int(rng.integers(0, 4)))
    if choice == 6:
        return Call("exp", random_ast(rng, depth + 1))
    return Call(str(rng.choice(["cos", "sin"])), BinOp("*", Num(2.0), Var("t")))


def test_render_parse_round_trip():
    rng = np.random.default_rng(21)
    count = 0
    while count < 60:
        node = random_ast(rng)
        text = render(node)
        reparsed = parse(text)
        ok = True
        for t in rng.uniform(0.1, 3.0, 100):
            try:
                a = evaluate(node, float(t))
            except (EvalError, DivisionByZero):
                ok = False
                break
            b = evaluate(reparsed, float(t))
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a)), text
        if ok:
            count += 1


def test_order_preservation_of_rendered_products():
    rng = np.random.default_rng(22)
    for _ in range(100):
        e1 = quaternion_literal(Quaternion(*rng.uniform(-1, 1, 4)))
        e2 = quaternion_literal(Quaternion(*rng.uniform(-1, 1, 4)))
        combined = parse(f"({render(e1)}) * ({render(e2)})")
        v1 = evaluate(e1, 0.0)
        v2 = evaluate(e2, 0.0)
        assert abs(evaluate(combined, 0.0) - v1 * v2) < 1e-13


def test_eval_deterministic():
    node = parse("exp(i*t) * (1 - j*cos(2*t))")
    values = {evaluate(node, 1.234).components() for _ in range(5)}
    assert len(values) == 1


def test_matrix_spec_shape_and_periodicity():
    spec = MatrixSpec.from_strings([["1", "1"], ["0", "i + 2*exp(2*i*t)*j"]],
                                   period=math.pi)
    A0 = spec.evaluate(0.0)
    assert A0[1, 1] == I + 2 * J
    assert spec.periodicity_residual() < 1e-12
    aperiodic = MatrixSpec.from_strings([["cos(t)"]], period=math.pi)
    assert aperiodic.periodicity_residual() > 0.5
    with pytest.raises(ValueError):
        MatrixSpec.from_strings([["1", "1"]], period=1.0)


def test_grid_max_propagates_nan():
    # built-in max() drops a nan that is not first
    for nan_at in ({0}, {5}, set(range(64))):
        assert math.isnan(grid_max(
            lambda t: np.where(np.isin(np.round(t / 0.1), list(nan_at)),
                               math.nan, t), 6.4))
    assert grid_max(lambda t: t, 6.4) == pytest.approx(6.3)
    spec = MatrixSpec.from_strings([["p*cos(2*t)"]], period=math.pi,
                                   variables=("t", "p"))
    assert math.isnan(spec.periodicity_residual(params={"p": math.nan}))


def test_grid_checks_are_one_array_call_and_fail_on_one_nan():
    calls = []

    def measure(t):
        calls.append(t)
        return np.where(np.arange(t.size) == 37, math.nan, t)
    assert math.isnan(grid_max(measure, 6.4))
    assert len(calls) == 1 and calls[0].shape == (64,)
    # a parameter bound to one value per grid time: nan at one of them
    from qfloquet.floquet import NotPeriodic, _require_periodic
    spec = MatrixSpec.from_strings([["p*cos(2*t)", "1"], ["0", "p"]],
                                   period=math.pi, variables=("t", "p"))
    p = np.ones(64)
    assert spec.periodicity_residual(params={"p": p}) < 1e-12
    p[37] = math.nan
    assert math.isnan(spec.periodicity_residual(params={"p": p}))
    with pytest.raises(NotPeriodic):
        _require_periodic(spec, {"p": p})


def test_matrix_spec_from_qmatrix():
    from qfloquet.qmatrix import QMatrix
    A = QMatrix.from_entries([[Quaternion(1, -2, 0.5, 0), J], [K, 3]])
    spec = MatrixSpec.from_qmatrix(A, period=2.0)
    assert (spec.evaluate(0.7) - A).max_abs() < 1e-15


# -- compiled evaluator against a reference built from Quaternion operators ---


def reference(node, t, params):
    """Walk the AST with Quaternion arithmetic, one operator per node."""
    if isinstance(node, Num):
        return Quaternion.from_real(node.value)
    if isinstance(node, Unit):
        return {"i": I, "j": J, "k": K}[node.name]
    if isinstance(node, Var):
        return Quaternion.from_real(t if node.name == "t" else params[node.name])
    if isinstance(node, Neg):
        return -reference(node.arg, t, params)
    if isinstance(node, BinOp):
        left = reference(node.left, t, params)
        right = reference(node.right, t, params)
        return {"+": lambda: left + right, "-": lambda: left - right,
                "*": lambda: left * right, "/": lambda: left / right}[node.op]()
    if isinstance(node, Pow):
        base = reference(node.base, t, params)
        out = Quaternion(1.0)
        for _ in range(node.exponent):
            out = out * base
        return out
    arg = reference(node.arg, t, params)
    if node.fn == "exp":
        return qexp(arg)
    if arg.vec_norm() > REAL_ARG_TOL * max(1.0, abs(arg)):
        raise DomainError(node.fn)
    trig = math.cos if node.fn == "cos" else math.sin
    return Quaternion.from_real(trig(arg.q0))


LEAVES = st.one_of(
    st.floats(-3, 3, allow_nan=False).map(Num),
    st.sampled_from("ijk").map(Unit),
    st.sampled_from("tp").map(Var))


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(Call, st.sampled_from(["exp", "cos", "sin"]), children))


@settings(max_examples=300, deadline=None)
@given(st.recursive(LEAVES, _extend, max_leaves=12),
       st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_compiled_matches_reference(node, t, p):
    params = {"p": p}
    try:
        expected = reference(node, t, params)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)):
            evaluate(node, t, params)
        return
    got = evaluate(node, t, params)
    if not all(math.isfinite(c) for c in expected.components()):
        return  # Hamilton products turn 0 * inf into nan where real ones do not
    # same operations in the same order: agreement is exact
    assert got.components() == expected.components(), render(node)
