import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qfloquet.expressions import MatrixSpec, parse
from qfloquet.floquet import Stability
from qfloquet.hill import (HillProblem, NotRealCoefficient, analyze,
                           analyze_batch, analyze_chart, classify_real,
                           companion, k_matrix_diagnostics)
from qfloquet.qmatrix import QMatrix, _complete_unitary, qdet
from qfloquet.quaternion import J, Quaternion


def hermitian_2x2_eigs(K_mat):
    """Closed-form eigenvalues of a 2x2 Hermitian quaternion matrix."""
    a = K_mat[0, 0].q0
    d = K_mat[1, 1].q0
    b = abs(K_mat[0, 1])
    mid = 0.5 * (a + d)
    disc = math.sqrt((0.5 * (a - d)) ** 2 + b * b)
    return mid - disc, mid + disc


def test_companion_of_zero_coefficient():
    p = HillProblem(parse("0"), math.pi)
    spec = companion(p)
    A0 = spec.evaluate(0.0)
    assert A0[0, 0] == Quaternion()
    assert A0[0, 1] == Quaternion(1)
    assert A0[1, 0] == Quaternion()
    assert A0[1, 1] == Quaternion()


def test_companion_entry_signs(hill_trace_inconclusive, hill_trace_unstable):
    spec = companion(hill_trace_inconclusive)
    assert abs(spec.evaluate(0.0)[1, 0] - (-(Quaternion(2) + J))) < 1e-15
    spec = companion(hill_trace_unstable)
    assert abs(spec.evaluate(0.0)[1, 0] - (Quaternion(1) - J)) < 1e-15


def test_trace_inconclusive_case(hill_report_inconclusive):
    r = hill_report_inconclusive
    assert r.re_trace == pytest.approx(-0.262372, abs=0.005)
    assert r.frob_sq == pytest.approx(5.14637, abs=1e-2)
    mults = sorted(r.multipliers.expanded(), key=lambda z: abs(z))
    assert abs(mults[1] - complex(-0.197803, 1.73905)) < 0.02
    assert abs(mults[0] - complex(-0.064569, 0.567682)) < 0.02
    assert r.verdict_trace.kind == Stability.UNDETERMINED
    assert r.verdict_frobenius.kind == Stability.UNSTABLE
    assert r.verdict_multipliers.kind == Stability.UNSTABLE


def test_trace_unstable_case(hill_report_unstable):
    r = hill_report_unstable
    assert r.re_trace == pytest.approx(27.2976, abs=0.3)
    big = max(r.multipliers.expanded(), key=abs)
    assert abs(big - complex(27.2621, 4.96756)) < 0.3
    assert r.verdict_trace.kind == Stability.UNSTABLE
    moduli = [abs(v) for v in r.multipliers.expanded()]
    assert moduli[0] * moduli[1] == pytest.approx(1.0, abs=1e-4)


def test_large_frobenius_case(hill_report_frobenius):
    r = hill_report_frobenius
    assert abs(r.re_trace) == pytest.approx(1.0394, abs=0.02)
    assert r.frob_sq == pytest.approx(1942.77, rel=0.02)
    big = max(r.multipliers.expanded(), key=abs)
    assert abs(big - complex(-1.03876, 40.196)) < 0.5
    assert r.verdict_trace.kind == Stability.UNDETERMINED
    assert r.verdict_frobenius.kind == Stability.UNSTABLE
    assert r.verdict_multipliers.kind == Stability.UNSTABLE


def test_liouville_determinant_one(hill_report_inconclusive,
                                   hill_report_unstable,
                                   hill_report_frobenius):
    for r in (hill_report_inconclusive, hill_report_unstable,
              hill_report_frobenius):
        assert qdet(r.M_T) == pytest.approx(1.0, abs=1e-6)


def test_multiplier_trace_constraint(hill_report_inconclusive,
                                     hill_report_unstable,
                                     hill_report_frobenius):
    for r in (hill_report_inconclusive, hill_report_unstable,
              hill_report_frobenius):
        re_sum = sum(v.real for v in r.multipliers.expanded())
        assert re_sum == pytest.approx(r.re_trace, abs=1e-5)
        moduli = [abs(v) for v in r.multipliers.expanded()]
        assert moduli[0] * moduli[1] == pytest.approx(1.0, abs=1e-5)


def random_hill_family(count=12, seed=7):
    """a(t) = c0 + c1 j cos 2t + c2 k sin 2t with seeded c, then a case whose
    Re tr M(T) = 1.999999995 lies on the band around 2 with M(T) != I."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        c0 = float(rng.uniform(-1.0, 4.0))
        c1, c2 = (float(c) for c in rng.uniform(-1.0, 1.0, 2))
        sources.append(f"{c0!r} + {c1!r}*j*cos(2*t) + {c2!r}*k*sin(2*t)")
    return sources + ["400 + j*cos(2*t)"]


def test_unstable_channels_imply_multiplier_instability(
        hill_report_inconclusive, hill_report_unstable,
        hill_report_frobenius):
    for r in (hill_report_inconclusive, hill_report_unstable,
              hill_report_frobenius):
        if (r.verdict_trace.kind == Stability.UNSTABLE
                or r.verdict_frobenius.kind == Stability.UNSTABLE):
            assert r.verdict_multipliers.kind == Stability.UNSTABLE
    # both secondary channels on the random family too
    for source in random_hill_family():
        r = analyze(HillProblem(parse(source), math.pi))
        if (r.verdict_trace.kind == Stability.UNSTABLE
                or r.verdict_frobenius.kind == Stability.UNSTABLE):
            assert r.verdict_multipliers.kind == Stability.UNSTABLE
    assert r.verdict_trace.kind == Stability.UNDETERMINED
    assert abs(r.re_trace - 2.0) <= 1e-6
    assert r.verdict_multipliers.kind == Stability.STABLE


def test_frobenius_channel_needs_a_certificate():
    # a = 4, T = 1: |tr M(T)| = 2 |cos 2| < 2, so M(T) is stable, yet
    # ||M(T)||_F^2 > 2 since M(T) is not unitary
    r = analyze(HillProblem(parse("4"), 1.0))
    assert r.frob_sq > 2.0
    assert r.verdict_multipliers.kind == Stability.STABLE
    assert r.verdict_frobenius.kind == Stability.UNDETERMINED


def test_frobenius_certificates_of_the_unstable_fixtures(
        hill_report_inconclusive, hill_report_unstable,
        hill_report_frobenius):
    for r, k in ((hill_report_inconclusive, 2), (hill_report_unstable, 1),
                 (hill_report_frobenius, 2)):
        (evidence,) = r.verdict_frobenius.evidence
        assert r.verdict_frobenius.kind == Stability.UNSTABLE
        assert evidence.quantity == f"Re tr M(T)^{k}"
        assert abs(evidence.value.real) > evidence.threshold >= 2.0


def test_k_matrix_identity():
    k1, k2, residual = k_matrix_diagnostics(QMatrix.identity(2))
    assert (k1, k2) == (pytest.approx(1.0), pytest.approx(1.0))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_k_matrix_unitary_monodromy():
    rng = np.random.default_rng(51)
    first = QMatrix(rng.uniform(-1, 1, (2, 1, 4)))
    first = first * (1.0 / math.sqrt(first.frobenius_sq()))
    basis = _complete_unitary(first, 2)
    U = QMatrix(np.concatenate([b.data for b in basis], axis=1))
    k1, k2, _ = k_matrix_diagnostics(U)
    assert k1 == pytest.approx(1.0, abs=1e-10)
    assert k2 == pytest.approx(1.0, abs=1e-10)


def test_k_matrix_eigs_match_closed_form(hill_report_inconclusive):
    M = hill_report_inconclusive.M_T
    k1, k2, _ = k_matrix_diagnostics(M)
    K_mat = M @ M.dagger()
    lo, hi = hermitian_2x2_eigs(K_mat)
    assert k1 == pytest.approx(lo, rel=1e-8)
    assert k2 == pytest.approx(hi, rel=1e-8)
    assert 0.0 <= k1 <= k2
    assert k1 * k2 == pytest.approx(1.0, abs=1e-6)


def test_volume_product_through_floquet_machinery(hill_trace_inconclusive):
    # trace-free companion system: the multiplier moduli must multiply to 1
    from qfloquet.floquet import multiplier_product_check, normal_form
    spec = companion(hill_trace_inconclusive)
    fd = normal_form(spec)
    assert multiplier_product_check(fd) <= 1e-7


def test_k_matrix_residual_is_reported(hill_report_inconclusive):
    k1, k2, residual = k_matrix_diagnostics(hill_report_inconclusive.M_T)
    assert residual >= 0.0  # informational; no assertion on its size


def test_classify_real_rotation_full_period():
    verdict = classify_real(HillProblem(parse("1"), 2 * math.pi))
    assert verdict.kind == Stability.STABLE


def test_classify_real_rotation_half_period():
    # M(pi) = -I with trace -2: still stable
    verdict = classify_real(HillProblem(parse("1"), math.pi))
    assert verdict.kind == Stability.STABLE


def test_classify_real_hyperbolic():
    verdict = classify_real(HillProblem(parse("-1"), math.pi))
    assert verdict.kind == Stability.UNSTABLE


def test_classify_real_interior_trace():
    # 0 < a constant, period short of a full rotation: |tr| < 2
    verdict = classify_real(HillProblem(parse("1"), 1.0))
    assert verdict.kind == Stability.STABLE


def test_classify_real_rejects_quaternion_coefficient(hill_trace_unstable):
    with pytest.raises(NotRealCoefficient):
        classify_real(hill_trace_unstable)


def test_real_specialization_agrees_with_multipliers():
    for const in (-0.5, 0.3, 2.0):
        problem = HillProblem(parse(f"{const} + 0*cos(2*t)"), math.pi)
        trace_verdict = classify_real(problem)
        report = analyze(problem)
        if trace_verdict.kind == Stability.UNSTABLE:
            assert report.verdict_multipliers.kind == Stability.UNSTABLE
        if trace_verdict.kind == Stability.STABLE:
            assert report.verdict_multipliers.kind in (
                Stability.STABLE, Stability.ASYMPTOTICALLY_STABLE)


# |tr M(T)| = 2 for a(t) = p + 0.5 cos 2t (period pi) at p = TONGUE_EDGE, by
# bisection; below it the multipliers lie on the unit circle, above it off
TONGUE_EDGE = 0.7424288259912871


@pytest.mark.parametrize("distance", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_real_specialization_never_contradicts_at_a_tongue_edge(distance):
    # within TRACE_TOL of -2 and M(T) != -I, the trace cannot tell a Jordan
    # block from multipliers on the circle: classify_real says UNDETERMINED
    # there, never the opposite of the multiplier verdict; from 1e-6 on
    # the trace leaves the band and the two agree
    a = parse("p + 0.5*cos(2*t)", ("t", "p"))
    for p, multipliers in ((TONGUE_EDGE - distance, Stability.STABLE),
                           (TONGUE_EDGE + distance, Stability.UNSTABLE)):
        problem = HillProblem(a, math.pi, {"p": p})
        assert analyze(problem).verdict_multipliers.kind == multipliers
        expected = (multipliers if distance >= 1e-6
                    else Stability.UNDETERMINED)
        assert classify_real(problem).kind == expected


def test_hill_problem_requires_periodic_coefficient():
    with pytest.raises(ValueError):
        HillProblem(parse("cos(t)"), math.pi)


def test_hill_problem_rejects_nan_coefficient():
    with pytest.raises(ValueError, match="nan"):
        HillProblem(parse("p + j*cos(2*t)", ("t", "p")), math.pi,
                    {"p": math.nan})


def test_classify_real_rejects_nan_vector_part():
    problem = HillProblem(parse("1 + p*j*cos(2*t)", ("t", "p")), math.pi,
                          {"p": 0.0})
    # past the set-up check, so only classify_real's realness check sees it
    object.__setattr__(problem, "params", {"p": math.nan})
    with pytest.raises(NotRealCoefficient):
        classify_real(problem)


# pi-periodic terms in t and p that reach every array leaf: cos, sin, real
# and quaternion exp, real division, and the real-argument check
BATCH_TERMS = ("p", "cos(2*t)", "p*sin(2*t)", "p^2*cos(4*t)",
               "exp(p*sin(2*t))", "exp(j*p*cos(2*t))",
               "1/(2 + p^2 + cos(2*t))", "cos(2*t*exp(0*i))")


@st.composite
def batch_sources(draw):
    terms = [f"{draw(st.floats(-2.0, 2.0))!r}*"
             f"{draw(st.sampled_from(('', 'i*', 'j*', 'k*')))}"
             f"{draw(st.sampled_from(BATCH_TERMS))}"
             for _ in range(draw(st.integers(1, 3)))]
    return "1 + " + " + ".join(terms)


def _outcome_key(outcome):
    """Every field of a HillReport, bit for bit, or the failure's repr."""
    if isinstance(outcome, Exception):
        return repr(outcome)
    verdicts = (outcome.verdict_trace, outcome.verdict_frobenius,
                outcome.verdict_multipliers)
    return (outcome.M_T.data.tobytes(), outcome.re_trace, outcome.frob_sq,
            [(e.value, e.algebraic_multiplicity, e.geometric_multiplicity)
             for e in outcome.multipliers],
            outcome.multipliers.singular_values.tobytes(), outcome.K_eigs,
            [(v.kind, v.evidence) for v in verdicts])


@settings(max_examples=15, deadline=None)
@given(source=batch_sources(),
       grid=st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=5),
       cuts=st.lists(st.booleans(), min_size=4, max_size=4))
def test_batch_rows_equal_one_member_batches(source, grid, cuts):
    node = parse(source, ("t", "p"))
    problems = [HillProblem(node, math.pi, {"p": p}) for p in grid]
    whole = analyze_batch(problems)
    chunked, start = [], 0
    for end, cut in enumerate(cuts[:len(grid) - 1], 1):
        if cut:
            chunked += analyze_batch(problems[start:end])
            start = end
    chunked += analyze_batch(problems[start:])
    alone = [analyze_batch([problem])[0] for problem in problems]
    keys = [_outcome_key(outcome) for outcome in alone]
    assert [_outcome_key(outcome) for outcome in whole] == keys
    assert [_outcome_key(outcome) for outcome in chunked] == keys
    # a chart sets its points up together and reports them the same
    chart = analyze_chart(node, math.pi, {"p": grid})
    assert [_outcome_key(outcome) for outcome in chart] == keys
    # `analyze` reports a batch of one, integrated on its own
    for problem, key in zip(problems, keys):
        try:
            assert _outcome_key(analyze(problem)) == key
        except (ArithmeticError, ValueError) as exc:
            assert repr(exc) == key


@seed(11)
@settings(max_examples=25, deadline=None)
@given(source=batch_sources(),
       drift=st.sampled_from(("", " + cos(p*t)", " + j*p*sin(t)",
                              " + exp(k*p*t)")),
       grid=st.lists(st.one_of(st.floats(-3.0, 3.0),
                               st.sampled_from((math.nan, math.inf))),
                     min_size=1, max_size=6))
def test_batched_periodicity_check_is_each_members_check(source, drift, grid):
    # drift adds a term that is not pi-periodic for most p
    spec = MatrixSpec.from_strings([["0", "1"], [source + drift, "p"]],
                                   math.pi, ("t", "p"))
    with np.errstate(all="ignore"):
        batched = spec.periodicity_residual(params={"p": np.array([grid])})
        alone = [spec.periodicity_residual(params={"p": p}) for p in grid]
    # repr is exact for a float, and reads "nan" whatever a nan's sign bit
    assert list(map(repr, batched.tolist())) == list(map(repr, alone))


def test_a_problem_compiles_its_companion_once(monkeypatch):
    problem = HillProblem(parse("p + j*cos(2*t)", ("t", "p")), math.pi,
                          {"p": 2.0})
    assert companion(problem) is companion(problem)
    built = []
    monkeypatch.setattr(MatrixSpec, "__init__",
                        lambda self, *args: built.append(args))
    analyze(problem)
    analyze_batch([problem])
    assert built == []


def test_chart_points_fail_alone():
    node = parse("p + j*cos(p*t)", ("t", "p"))
    chart = analyze_chart(node, math.pi, {"p": [2.0, 1.0, math.nan]})
    assert isinstance(chart[0].M_T, QMatrix)
    assert [str(outcome) for outcome in chart[1:]] == [
        "coefficient periodicity residual 2.000e+00 exceeds 1.0e-08 on a "
        "64-point grid",
        "coefficient periodicity residual nan exceeds 1.0e-08 on a 64-point "
        "grid"]
    assert [str(outcome) for outcome in analyze_chart(node, -1.0, {"p": [2.0]})
            ] == ["period must be positive"]
    assert analyze_chart(node, math.pi, {"p": []}) == []
    with pytest.raises(ValueError):
        analyze_chart(node, math.pi, {"p": [1.0], "q": [1.0, 2.0]})


def test_batch_without_parameters_reports_each_problem():
    problem = HillProblem(parse("1 + j*cos(2*t)"), math.pi)
    key = _outcome_key(analyze(problem))
    assert [_outcome_key(outcome)
            for outcome in analyze_batch([problem, problem])] == [key, key]


def test_batch_requires_a_shared_coefficient():
    a, b = parse("p + j*cos(2*t)", ("t", "p")), parse("p", ("t", "p"))
    with pytest.raises(ValueError):
        analyze_batch([HillProblem(a, math.pi, {"p": 1.0}),
                       HillProblem(b, math.pi, {"p": 1.0})])
