import cmath
import math

import numpy as np
import pytest

from qfloquet.expressions import MatrixSpec
from qfloquet.floquet import (P_SAMPLE_COUNT, NotPeriodic, Stability,
                              ZeroMultiplier,
                              characteristic_exponents, classify_constant,
                              classify_periodic, exponent_sum_residual,
                              monodromy, normal_form, periodic_solutions,
                              multiplier_product_check)
from qfloquet.integrate import IntegratorConfig, integrate, integrate_batch
from qfloquet.qmatrix import (QMatrix, StandardSpectrum, SpectrumEntry, inv,
                              expm, from_adjoint, standard_eigenvalues,
                              sum_norms)
from qfloquet.quaternion import K, Quaternion, qexp, standardize

from conftest import (CONST_DECAYING_2X2, CONST_DEFECTIVE_3X3,
                      CONST_MARGINAL_2X2, CONST_UNSTABLE_3X3)


def match_values(got, expected, tol=1e-6):
    assert len(got) == len(expected)
    remaining = list(expected)
    for g in got:
        best = min(range(len(remaining)), key=lambda m: abs(remaining[m] - g))
        assert abs(remaining[best] - g) < tol, f"{g} not near {remaining}"
        remaining.pop(best)


# -- monodromy -----------------------------------------------------------------


def test_monodromy_constant_system_is_expm():
    spec = MatrixSpec.from_qmatrix(CONST_DECAYING_2X2, period=1.5)
    got = monodromy(spec)
    assert (got - expm(CONST_DECAYING_2X2 * 1.5)).sum_norm() < 1e-8


def test_nan_coefficient_is_not_periodic():
    spec = MatrixSpec.from_strings([["p"]], period=1.0, variables=("t", "p"))
    with pytest.raises(NotPeriodic):
        monodromy(spec, params={"p": math.nan})
    with pytest.raises(NotPeriodic):
        normal_form(spec, params={"p": math.nan})


def test_monodromy_growing_system(periodic_growing_spec):
    got = monodromy(periodic_growing_spec)
    ep = math.exp(math.pi)
    expected = QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])
    assert (got - expected).max_abs() < 1e-7


def test_monodromy_marginal_system(periodic_marginal_spec):
    got = monodromy(periodic_marginal_spec)
    expected = QMatrix.from_entries(
        [[K, Quaternion(-2 / 35, -12 / 35, 4 / 3, 2 / 3)],
         [0, Quaternion(-1)]])
    assert (got - expected).max_abs() < 1e-6


def test_monodromy_requires_period():
    spec = MatrixSpec.from_strings([["1"]])
    with pytest.raises(NotPeriodic):
        monodromy(spec)
    mismatched = MatrixSpec.from_strings([["cos(t)"]], period=math.pi)
    with pytest.raises(NotPeriodic):
        monodromy(mismatched)


# -- multipliers and exponents ---------------------------------------------------


def test_multipliers_growing(fd_growing):
    match_values(fd_growing.multipliers.expanded(),
                 [complex(math.exp(math.pi), 0), complex(-1, 0)])


def test_multipliers_defective(fd_defective):
    spec = fd_defective.multipliers
    assert len(spec.entries) == 1
    entry = spec.entries[0]
    assert abs(entry.value + 1.0) < 1e-6
    assert entry.algebraic_multiplicity == 2
    assert entry.geometric_multiplicity == 1


def test_multipliers_marginal(fd_marginal):
    match_values(fd_marginal.multipliers.expanded(), [1j, complex(-1, 0)])


def test_multipliers_decaying(fd_decaying):
    em = math.exp(-math.pi)
    match_values(fd_decaying.multipliers.expanded(),
                 [complex(0, em), complex(em, 0)])


def test_multiplier_invariance_under_initial_matrix(periodic_growing_spec,
                                                    fd_growing):
    rng = np.random.default_rng(41)
    reference = sorted(fd_growing.multipliers.expanded(),
                       key=lambda z: (z.real, z.imag))
    for _ in range(3):
        R = QMatrix(rng.uniform(-1, 1, (2, 2, 4))) + QMatrix.identity(2) * 2.0
        traj = integrate(periodic_growing_spec, 0.0, math.pi, R)
        mono = inv(R) @ traj.final
        got = standard_eigenvalues(mono).expanded()
        match_values(got, reference, 1e-6)


def test_exponent_of_unit_multiplier():
    spectrum = StandardSpectrum([SpectrumEntry(complex(1, 0), 1, 1)])
    assert characteristic_exponents(spectrum, 2.5) == [0j]


def test_exponents_growing(fd_growing):
    match_values(fd_growing.exponents, [complex(1, 0), 1j], 1e-8)


def test_exponents_decaying(fd_decaying):
    match_values(fd_decaying.exponents, [complex(-1, 0.5), complex(-1, 0)],
                 1e-8)


def test_exponents_satisfy_defining_relation(fd_marginal):
    for entry, mu in zip(fd_marginal.multipliers, fd_marginal.exponents):
        assert abs(cmath.exp(mu * fd_marginal.period) - entry.value) < 1e-12


def test_zero_multiplier_rejected():
    spectrum = StandardSpectrum([SpectrumEntry(0j, 1, 1)])
    with pytest.raises(ZeroMultiplier):
        characteristic_exponents(spectrum, 1.0)


# -- normal form -----------------------------------------------------------------


def test_normal_form_constant_system():
    spec = MatrixSpec.from_qmatrix(CONST_DECAYING_2X2, period=1.0)
    fd = normal_form(spec)
    for P in fd.P_samples:
        assert (from_adjoint(P, project=False)
                - QMatrix.identity(2)).max_abs() < 1e-7
    match_values(standard_eigenvalues(fd.B).expanded(),
                 standard_eigenvalues(CONST_DECAYING_2X2).expanded(), 1e-7)


def test_normal_form_growing(fd_growing):
    match_values(standard_eigenvalues(fd_growing.B).expanded(),
                 [complex(1, 0), 1j], 1e-8)
    assert fd_growing.sample_times[0] == 0.0
    P0 = from_adjoint(fd_growing.P_samples[0], project=False)
    assert (P0 - QMatrix.identity(2)).max_abs() < 1e-9
    for P in fd_growing.P_samples:
        assert from_adjoint(P, project=False).max_abs() < 3.0
    assert fd_growing.periodicity_residual <= 1e-6 * 4.0


def test_normal_form_samples_are_adjoint_stacks(fd_growing,
                                               periodic_growing_spec):
    # M(T) is the last sample on [0, T]; the samples hold no QMatrix
    fd = fd_growing
    assert fd.sample_times.tolist() == np.linspace(
        0.0, fd.period, P_SAMPLE_COUNT).tolist()
    assert fd.P_samples.shape == (P_SAMPLE_COUNT, 4, 4)
    # M(t) on each period's grid, the states of its integration; M(T) is
    # the last sample on [0, T]
    first, second = fd.trajectories
    assert first.times.tolist() == fd.sample_times.tolist()
    assert first.adjoints.shape == (P_SAMPLE_COUNT, 4, 4)
    assert second.times.tolist() == np.linspace(fd.period, 2 * fd.period,
                                                49).tolist()
    assert second.adjoints.shape == (49, 4, 4)
    assert np.array_equal(fd.monodromy.top, first.final.top)
    # `monodromy` integrates [0, T] alone, as a batch of one
    alone = integrate(periodic_growing_spec, 0.0, fd.period,
                      QMatrix.identity(2)).final
    assert np.array_equal(monodromy(periodic_growing_spec).top, alone.top)


def test_normal_form_marginal(fd_marginal):
    match_values(standard_eigenvalues(fd_marginal.B).expanded(),
                 [complex(0, 0.5), 1j], 1e-8)


def test_normal_form_reconstructs_fundamental_matrix(fd_growing):
    # M(t) = P(t) e^{tB} at every stored sample
    for t, chi, M_chi in zip(fd_growing.sample_times.tolist(),
                             fd_growing.P_samples,
                             fd_growing.trajectories[0].adjoints):
        P = from_adjoint(chi, project=False)
        M_t = from_adjoint(M_chi, project=False)
        assert (P @ expm(fd_growing.B * t) - M_t).sum_norm() < 1e-7 * max(
            1.0, M_t.sum_norm())


def _fast_coefficient_spec(seed):
    """A seeded 2x2 system C0 + C1 cos(40t) of period pi, whose natural
    step at rel_tol 1e-10 lies below a sixteenth of the sample spacing."""
    rng = np.random.default_rng(seed)

    def literal(low, high):
        parts = rng.uniform(low, high, 4).tolist()
        return "(" + " + ".join(f"{x!r}*{unit}" for x, unit in zip(
            parts, ("1", "i", "j", "k"))) + ")"
    return MatrixSpec.from_strings(
        [[f"{literal(-0.5, 0.5)} + {literal(-1, 1)}*cos(40*t)"
          for _ in range(2)] for _ in range(2)], period=math.pi)


def test_periodicity_defect_sees_the_integration_error(monkeypatch):
    # the second period's steps never have the length of one of the
    # first's, so the periodicity defect (relative to max ||P||, as the
    # check reads it) is at least half the relative error of M(T) against a
    # tight reference.  A second-period grid at half the sample spacing
    # would repeat the first period's steps here, and its defect sees
    # rounding alone
    from qfloquet import floquet
    spec = _fast_coefficient_spec(6)
    (reference,) = integrate_batch(spec, 0.0, math.pi, QMatrix.identity(2),
                                   None, IntegratorConfig(rel_tol=1e-13,
                                                          abs_tol=1e-15))

    def defect_and_error():
        fd = normal_form(spec, IntegratorConfig(rel_tol=1e-10))
        return (fd.periodicity_residual / sum_norms(fd.P_samples).max(),
                (fd.monodromy - reference).sum_norm() / reference.sum_norm())
    defect, error = defect_and_error()
    assert defect >= 0.5 * error > 0.0
    monkeypatch.setattr(floquet, "SECOND_PERIOD_SAMPLES", 64)
    defect, error = defect_and_error()
    assert defect < 0.1 * error


# -- classification ----------------------------------------------------------------


def test_classify_constant_verdicts():
    assert classify_constant(CONST_UNSTABLE_3X3).kind == Stability.UNSTABLE
    assert classify_constant(CONST_DEFECTIVE_3X3).kind == Stability.UNSTABLE
    assert classify_constant(CONST_MARGINAL_2X2).kind == Stability.STABLE
    assert (classify_constant(CONST_DECAYING_2X2).kind
            == Stability.ASYMPTOTICALLY_STABLE)


def test_classify_constant_spectra():
    match_values(standard_eigenvalues(CONST_UNSTABLE_3X3).expanded(),
                 [0j, 1 + 0j, 1 + 1j], 1e-9)
    match_values(standard_eigenvalues(CONST_MARGINAL_2X2).expanded(),
                 [0j, -3 + 3j], 1e-9)


def test_classify_reports_evidence():
    verdict = classify_constant(CONST_UNSTABLE_3X3)
    assert any(e.margin > 0.5 for e in verdict.evidence)


def test_classify_band_edge_is_undetermined():
    # margin sits exactly on the tolerance band edge: membership is uncertain
    # and the two readings disagree, so no verdict is guessed
    A = QMatrix.diag([complex(1e-7, 1.0)])
    assert classify_constant(A).kind == Stability.UNDETERMINED


def test_classify_periodic_verdicts(fd_growing, fd_defective, fd_marginal,
                                    fd_decaying):
    assert classify_periodic(fd_growing).kind == Stability.UNSTABLE
    assert classify_periodic(fd_defective).kind == Stability.UNSTABLE
    assert classify_periodic(fd_marginal).kind == Stability.STABLE
    assert (classify_periodic(fd_decaying).kind
            == Stability.ASYMPTOTICALLY_STABLE)


# -- periodic solutions --------------------------------------------------------------


def test_periodic_witness_for_negative_unit_multiplier(fd_growing):
    witnesses = periodic_solutions(fd_growing)
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.kind == "TwoT_periodic"
    assert abs(w.multiplier + 1.0) < 1e-6
    # the witness solution satisfies x(T) = x(0) * rho
    x_T = fd_growing.monodromy @ w.eta
    drift = (x_T - w.eta.scale_right(Quaternion.from_complex(w.multiplier)))
    assert drift.sum_norm() <= 1e-6 * w.eta.sum_norm()


def test_periodic_witness_constant_zero_system():
    spec = MatrixSpec.from_strings([["0", "0"], ["0", "0"]], period=2.0)
    fd = normal_form(spec)
    witnesses = periodic_solutions(fd)
    assert [w.kind for w in witnesses] == ["T_periodic"]


def test_no_witnesses_for_contracting_system(fd_decaying):
    assert periodic_solutions(fd_decaying) == []


# -- product formula ------------------------------------------------------------------


def test_product_formula_growing(fd_growing):
    # Re tr A = 1, so prod |rho| must equal e^pi
    product = 1.0
    for rho in fd_growing.multipliers.expanded():
        product *= abs(rho)
    assert product == pytest.approx(math.exp(math.pi), rel=1e-7)
    assert multiplier_product_check(fd_growing) <= 1e-7
    assert exponent_sum_residual(fd_growing) <= 1e-8


def test_normal_form_solves_each_spectrum_once(monkeypatch,
                                               periodic_growing_spec):
    # M(T)'s spectrum goes to logm, and the trace integral rides on fd
    from qfloquet import floquet, qmatrix
    calls = {"eig": 0, "trace": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (floquet, qmatrix):
        monkeypatch.setattr(module, "standard_eigenvalues",
                            counted("eig", qmatrix.standard_eigenvalues))
    monkeypatch.setattr(floquet, "trace_integral",
                        counted("trace", floquet.trace_integral))
    fd = normal_form(periodic_growing_spec)
    assert calls == {"eig": 1, "trace": 1}
    multiplier_product_check(fd)
    exponent_sum_residual(fd)
    assert calls == {"eig": 1, "trace": 1}
    assert fd.trace_integral == pytest.approx(math.pi, rel=1e-12)


def test_logm_with_its_spectrum_equals_logm_alone(fd_growing, fd_defective,
                                                  fd_marginal, fd_decaying):
    from qfloquet.qmatrix import logm
    for fd in (fd_growing, fd_defective, fd_marginal, fd_decaying):
        C = fd.monodromy
        alone = logm(C).data
        assert logm(C, standard_eigenvalues(C)).data.tobytes() == \
            alone.tobytes()
        assert fd.B.data.tobytes() == (alone * (1.0 / fd.period)).tobytes()


def test_minus_one_branch_does_not_follow_rounding(fd_growing, fd_marginal):
    # where a multiplier is -1, the direction of log(-1) in B and the
    # witness eta follow a fixed rule, not the rounding of M(T)
    import dataclasses
    from qfloquet.qmatrix import logm
    rng = np.random.default_rng(41)
    for fd in (fd_growing, fd_marginal):
        (witness,) = periodic_solutions(fd)
        C = fd.monodromy
        for _ in range(8):
            C_p = QMatrix(C.data + 1e-14 * rng.uniform(-1, 1, C.data.shape))
            assert (logm(C_p) * (1.0 / fd.period) - fd.B).max_abs() <= 1e-12
            (moved,) = periodic_solutions(
                dataclasses.replace(fd, monodromy=C_p))
            assert (moved.eta - witness.eta).max_abs() <= 1e-12


def random_diagonal_spec(rng, n=2, period=math.pi):
    """Diagonal system a_m(t) = q_m (c_m + cos 2t): commuting in time, so the
    monodromy is exp(q_m c_m T) entrywise in closed form."""
    from qfloquet.expressions import quaternion_literal, render
    directions = []
    consts = []
    rows = []
    for m in range(n):
        q = Quaternion(*rng.uniform(-0.8, 0.8, 4))
        c = float(rng.uniform(-0.7, 0.7))
        directions.append(q)
        consts.append(c)
        literal = render(quaternion_literal(q))
        rows.append([f"({literal}) * ({c!r} + cos(2*t))" if col == m else "0"
                     for col in range(n)])
    spec = MatrixSpec.from_strings(rows, period=period)
    closed_form = [qexp(q * (c * period)) for q, c in zip(directions, consts)]
    return spec, closed_form


def test_product_formula_random_diagonal_systems():
    rng = np.random.default_rng(42)
    for _ in range(5):
        spec, closed_form = random_diagonal_spec(rng)
        fd = normal_form(spec)
        expected = [standardize(v) for v in closed_form]
        match_values(fd.multipliers.expanded(), expected, 1e-7)
        assert multiplier_product_check(fd) <= 1e-8


# -- spectral consistency ---------------------------------------------------------------


def test_exponent_real_parts_match_b_spectrum(fd_growing, fd_marginal,
                                              fd_decaying):
    for fd in (fd_growing, fd_marginal, fd_decaying):
        exps = []
        for entry, mu in zip(fd.multipliers, fd.exponents):
            exps.extend([mu.real] * entry.algebraic_multiplicity)
        b_res = sorted(v.real for v in standard_eigenvalues(fd.B).expanded())
        assert np.allclose(sorted(exps), b_res, atol=1e-6)


def test_unit_modulus_iff_zero_exponent_real_part(fd_growing, fd_marginal,
                                                  fd_decaying):
    for fd in (fd_growing, fd_marginal, fd_decaying):
        for entry, mu in zip(fd.multipliers, fd.exponents):
            on_circle = abs(abs(entry.value) - 1.0) <= 1e-7
            zero_growth = abs(mu.real) <= 1e-7
            assert on_circle == zero_growth


def test_norm_growth_corroborates_verdicts(periodic_growing_spec,
                                           periodic_defective_spec,
                                           periodic_marginal_spec,
                                           periodic_decaying_spec):
    # heuristic cross-check: sample ||M(t)|| over 40 periods
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    horizon = 40.0 * math.pi

    def norms(spec):
        # at 81 equally spaced times
        traj = integrate(spec, 0.0, horizon, QMatrix.identity(2), cfg,
                         samples=80)
        return sum_norms(traj.adjoints).tolist()

    growing = norms(periodic_growing_spec)
    assert max(growing) > 10.0 * growing[0]
    defective = norms(periodic_defective_spec)
    assert max(defective) > 10.0 * defective[0]
    marginal = norms(periodic_marginal_spec)
    assert max(marginal) < 20.0 * marginal[0]
    assert min(marginal) > 0.1 * marginal[0]
    decaying = norms(periodic_decaying_spec)
    assert min(decaying) < 0.1 * decaying[0]
