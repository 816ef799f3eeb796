import cmath
import math

import numpy as np
import pytest

from qfloquet.qmatrix import (NonSquare, NotAnEigenvalue, QMatrix, Singular,
                              adjoint, allclose, expm, from_adjoint, inv,
                              logm, omega_residual, qdet, quaternion_schur,
                              right_eigenvector, spectral_map_check,
                              standard_eigenvalues, sum_norm)
from qfloquet.quaternion import I, J, K, Quaternion, inverse

from conftest import CONST_DEFECTIVE_3X3, CONST_UNSTABLE_3X3


def random_qmatrix(rng, n, m=None):
    m = n if m is None else m
    return QMatrix(rng.uniform(-1, 1, (n, m, 4)))


def reference_adjoint(A):
    """Adjoint built straight from the block definition, as an oracle."""
    a1 = A.data[..., 0] + 1j * A.data[..., 1]
    a2 = A.data[..., 2] + 1j * A.data[..., 3]
    n = A.rows
    chi = np.zeros((2 * n, 2 * n), dtype=complex)
    chi[:n, :n] = a1
    chi[:n, n:] = a2
    chi[n:, :n] = -a2.conj()
    chi[n:, n:] = a1.conj()
    return chi


def sorted_spectrum(A):
    return sorted(standard_eigenvalues(A).expanded(),
                  key=lambda z: (z.real, z.imag))


def assert_spectra_close(got, expected, tol=1e-9):
    got = list(got)
    expected = list(expected)
    assert len(got) == len(expected)
    remaining = list(expected)
    for g in got:
        best = min(range(len(remaining)), key=lambda m: abs(remaining[m] - g))
        assert abs(remaining[best] - g) < tol, f"{g} not within {tol} of {remaining}"
        remaining.pop(best)


# -- adjoint embedding ---------------------------------------------------------


def test_adjoint_single_entry_block_form():
    A = QMatrix.from_entries([[Quaternion(1, 2, 3, 4)]])
    expected = np.array([[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])
    assert np.max(np.abs(adjoint(A) - expected)) == 0.0


def test_adjoint_identity():
    for n in (1, 2, 5):
        assert np.array_equal(adjoint(QMatrix.identity(n)), np.eye(2 * n))


def test_adjoint_round_trip_exact():
    rng = np.random.default_rng(0)
    A = random_qmatrix(rng, 4)
    assert allclose(from_adjoint(adjoint(A)), A, 0.0)


def test_adjoint_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(200):
        A = random_qmatrix(rng, 4)
        B = random_qmatrix(rng, 4)
        lhs = adjoint(A @ B)
        rhs = reference_adjoint(A) @ reference_adjoint(B)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_adjoint_additive_exact():
    rng = np.random.default_rng(2)
    A = random_qmatrix(rng, 5)
    B = random_qmatrix(rng, 5)
    assert np.array_equal(adjoint(A + B), adjoint(A) + adjoint(B))


def test_adjoint_homomorphism_sweep():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A = random_qmatrix(rng, n)
        B = random_qmatrix(rng, n)
        assert np.max(np.abs(adjoint(A @ B)
                             - reference_adjoint(A) @ reference_adjoint(B))) < 1e-12


def test_adjoint_inverse_homomorphism():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        A = random_qmatrix(rng, 3)
        chi = adjoint(A)
        if np.linalg.cond(chi) > 1e3:
            continue
        checked += 1
        lhs = adjoint(inv(A))
        rhs = np.linalg.inv(chi)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_adjoint_requires_square():
    with pytest.raises(NonSquare):
        adjoint(QMatrix.zeros(2, 3))


def test_vector_embedding_intertwines_the_action():
    # the complex representation of columns must satisfy
    # adjoint(A) @ embed(x) = embed(A @ x); eigenvector recovery relies on it
    from qfloquet.qmatrix import embed_vector, lift_vector
    rng = np.random.default_rng(77)
    for _ in range(50):
        A = random_qmatrix(rng, 3)
        x = QMatrix(rng.uniform(-1, 1, (3, 1, 4)))
        lhs = adjoint(A) @ embed_vector(x)
        rhs = embed_vector(A @ x)
        assert np.max(np.abs(lhs - rhs)) < 1e-13
        assert allclose(lift_vector(embed_vector(x)), x, 0.0)


# -- determinant and norms -----------------------------------------------------


def test_qdet_identity():
    assert qdet(QMatrix.identity(3)) == pytest.approx(1.0)


def test_qdet_complex_case_is_squared_modulus():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        A = QMatrix.from_complex(z)
        assert qdet(A) == pytest.approx(abs(np.linalg.det(z)) ** 2, abs=1e-10)


def test_qdet_multiplicative():
    rng = np.random.default_rng(6)
    for _ in range(200):
        A = random_qmatrix(rng, 3)
        B = random_qmatrix(rng, 3)
        lhs = qdet(A @ B)
        rhs = qdet(A) * qdet(B)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_sum_norm_identity():
    assert sum_norm(QMatrix.identity(2)) == 2.0


def test_sum_norm_submultiplicative():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        A = random_qmatrix(rng, n)
        B = random_qmatrix(rng, n)
        assert sum_norm(A @ B) <= sum_norm(A) * sum_norm(B) * (1 + 1e-14)


def test_invertibility_matches_adjoint():
    rng = np.random.default_rng(8)
    for _ in range(50):
        A = random_qmatrix(rng, 3)
        chi = adjoint(A)
        if np.linalg.cond(chi) < 1e6:
            assert qdet(A) > 0
            inv(A)  # must not raise
    # rank-deficient: second column is the first times a quaternion
    A = random_qmatrix(rng, 3)
    arr = A.data.copy()
    factor = Quaternion(0.3, -1.2, 0.5, 0.1)
    for i in range(3):
        arr[i, 1, :] = (Quaternion(*arr[i, 0]) * factor).components()
    singular = QMatrix(arr)
    assert abs(qdet(singular)) < 1e-10
    svals = np.linalg.svd(adjoint(singular), compute_uv=False)
    assert svals[-1] < 1e-12


# -- standard eigenvalues ------------------------------------------------------


def test_spectrum_of_unstable_3x3():
    assert_spectra_close(sorted_spectrum(CONST_UNSTABLE_3X3),
                         [0, 1, 1 + 1j])


def test_spectrum_of_defective_3x3():
    spec = standard_eigenvalues(CONST_DEFECTIVE_3X3)
    assert len(spec.entries) == 1
    entry = spec.entries[0]
    assert abs(entry.value - 1j) < 1e-9
    assert entry.algebraic_multiplicity == 3
    assert entry.geometric_multiplicity == 2


def test_spectrum_of_triangular_matrix():
    A = QMatrix.from_entries([[J, Quaternion(0.3, 1, -2, 0.5)],
                              [0, Quaternion(1, 0, 0, 1)]])
    # oracle: eigenvalues of the hand-built adjoint, standardized
    eigs = np.linalg.eigvals(reference_adjoint(A))
    upper = sorted([complex(w) for w in eigs if w.imag > -1e-12],
                   key=lambda z: (z.real, z.imag))
    assert_spectra_close(sorted_spectrum(A), upper[:2], 1e-9)
    assert_spectra_close(sorted_spectrum(A), [1j, 1 + 1j])


def test_conjugate_pairing_random_sweep():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        standard_eigenvalues(random_qmatrix(rng, n))  # must not raise


def test_real_matrix_spectrum_matches_complex_eig():
    rng = np.random.default_rng(10)
    z = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    A = QMatrix.from_complex(z)
    expected = [complex(w.real, abs(w.imag)) for w in np.linalg.eigvals(z)]
    assert_spectra_close(sorted_spectrum(A), expected, 1e-10)


# -- right eigenvectors ---------------------------------------------------------


def eig_residual(A, eta, value):
    return (A @ eta - eta.scale_right(Quaternion.from_complex(value))).sum_norm()


def test_right_eigenvector_diagonal():
    A = QMatrix.diag([I, K])
    eta = right_eigenvector(A, 1j)
    ratio = eta[0, 0]
    assert abs(eta[1, 0]) < 1e-12
    assert abs(ratio) > 0.9


def test_right_eigenvector_known_2x2():
    B = QMatrix.from_entries([[Quaternion(1), Quaternion(1, -2, 1, 3) * 0.2],
                              [0, I]])
    eta = right_eigenvector(B, 1j)
    assert eig_residual(B, eta, 1j) < 1e-10
    # match the known eigenvector (-(7+i+10j)/10, 2+i) up to a right scalar
    alpha = inverse(eta[1, 0]) * Quaternion(2, 1, 0, 0)
    scaled = eta.scale_right(alpha)
    expected = QMatrix.column([Quaternion(-0.7, -0.1, -1.0, 0.0),
                               Quaternion(2, 1, 0, 0)])
    assert allclose(scaled, expected, 1e-10)


def test_right_eigenvector_residuals_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = random_qmatrix(rng, 3)
        for entry in standard_eigenvalues(A):
            eta = right_eigenvector(A, entry.value)
            assert eig_residual(A, eta, entry.value) <= 1e-10 * max(1.0, sum_norm(A))


def test_right_eigenvector_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        right_eigenvector(QMatrix.identity(2), 5 + 3j)


# -- exponential and logarithm ---------------------------------------------------


def test_expm_zero():
    assert allclose(expm(QMatrix.zeros(3)), QMatrix.identity(3), 1e-15)


def test_expm_diagonal_rotations():
    D = QMatrix.diag([I * math.pi, J * math.pi])
    assert allclose(expm(D), QMatrix.diag([-1.0, -1.0]), 1e-14)


def test_expm_reproduces_known_monodromy():
    # e^{pi B} for the triangular B with spectrum {1, i}
    B = QMatrix.from_entries([[Quaternion(1), Quaternion(1, -2, 1, 3) * 0.2],
                              [0, I]])
    got = expm(B * math.pi)
    ep = math.exp(math.pi)
    expected = QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])
    assert (got - expected).max_abs() < 1e-8


def test_expm_commuting_product():
    rng = np.random.default_rng(12)
    for _ in range(50):
        A = random_qmatrix(rng, 3)
        coeffs = rng.uniform(-0.5, 0.5, 3)
        B = (QMatrix.identity(3) * coeffs[0] + A * coeffs[1]
             + (A @ A) * coeffs[2])
        lhs = expm(A) @ expm(B)
        rhs = expm(A + B)
        assert (lhs - rhs).max_abs() < 1e-10 * max(1.0, rhs.max_abs())


def test_expm_omega_structure():
    rng = np.random.default_rng(13)
    import scipy.linalg
    for _ in range(50):
        A = random_qmatrix(rng, 4)
        assert omega_residual(scipy.linalg.expm(adjoint(A))) < 1e-10


def test_logm_identity():
    assert logm(QMatrix.identity(3)).max_abs() < 1e-12


def test_logm_negative_identity():
    C = QMatrix.diag([-1.0, -1.0])
    B = logm(C)
    assert (expm(B) - C).sum_norm() < 1e-10


def test_logm_known_monodromy_spectrum():
    ep = math.exp(math.pi)
    C = QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])
    B = logm(C)
    assert (expm(B) - C).sum_norm() < 1e-8 * C.sum_norm()
    assert_spectra_close(sorted_spectrum(B * (1 / math.pi)), [1j, 1], 1e-9)


def test_logm_defective_negative_real():
    c = Quaternion(1, 1, 1, 1) * (-math.pi / 4)
    C = QMatrix.from_entries([[Quaternion(-1), c], [0, Quaternion(-1)]])
    B = logm(C)
    assert (expm(B) - C).sum_norm() < 1e-10


def jordan_block_matrix(entries_diag, ones):
    """Upper-triangular matrix with given diagonal and 1s at (i, i+1) slots."""
    n = len(entries_diag)
    rows = [[entries_diag[i] if i == j
             else (1.0 if (j == i + 1 and i in ones) else 0.0)
             for j in range(n)] for i in range(n)]
    return QMatrix.from_entries(rows)


def random_similarity(rng, n):
    while True:
        S = QMatrix(rng.uniform(-1, 1, (n, n, 4)))
        svals = np.linalg.svd(reference_adjoint(S), compute_uv=False)
        if svals[-1] > 0.05 * svals[0]:
            return S


def test_logm_defective_negative_real_with_spectator():
    # one defective -1 pair plus a separate positive eigenvalue
    rng = np.random.default_rng(18)
    rot = Quaternion(0, math.pi, 0, 0)
    J = jordan_block_matrix([rot, rot, Quaternion(1.0)], ones={0})
    S = random_similarity(rng, 3)
    C = expm(S @ J @ inv(S))
    B = logm(C)
    assert (expm(B) - C).sum_norm() <= 1e-8 * C.sum_norm()


def test_logm_two_defective_negative_real_chains():
    rng = np.random.default_rng(19)
    rot = Quaternion(0, math.pi, 0, 0)
    J = jordan_block_matrix([rot, rot, rot, rot], ones={0, 2})
    for _ in range(5):
        S = random_similarity(rng, 4)
        C = expm(S @ J @ inv(S))
        B = logm(C)
        assert (expm(B) - C).sum_norm() <= 1e-8 * C.sum_norm()


def test_logm_defective_negative_real_off_unit_radius():
    rng = np.random.default_rng(20)
    rot = Quaternion(math.log(1.7), math.pi, 0, 0)   # eigenvalue -1.7
    J = jordan_block_matrix([rot, rot], ones={0})
    S = random_similarity(rng, 2)
    C = expm(S @ J @ inv(S))
    B = logm(C)
    assert (expm(B) - C).sum_norm() <= 1e-8 * C.sum_norm()


def test_long_real_jordan_chains_signal_ill_conditioning():
    # a length-3 chain splits computed eigenvalues by ~eps^(1/3), beyond the
    # conjugate-pairing tolerance: the designated failure modes must fire
    from qfloquet.qmatrix import LogFailure, PairingFailure
    rng = np.random.default_rng(21)
    rot = Quaternion(0, math.pi, 0, 0)
    J = jordan_block_matrix([rot, rot, rot], ones={0, 1})
    S = random_similarity(rng, 3)
    C = expm(S @ J @ inv(S))
    with pytest.raises(PairingFailure):
        standard_eigenvalues(C)
    with pytest.raises(LogFailure):
        logm(C)


def test_split_jordan_chains_never_give_a_silent_multiplicity():
    # the chain above under other similarities and 1e-15 perturbations of C:
    # rounding splits -1 (am 3) into three values ~eps^(1/3) apart, which
    # must never come back as a spectrum of smaller multiplicities
    from qfloquet.qmatrix import LogFailure, PairingFailure
    rng = np.random.default_rng(22)
    rot = Quaternion(0, math.pi, 0, 0)
    J = jordan_block_matrix([rot, rot, rot], ones={0, 1})
    for _ in range(6):
        S = random_similarity(rng, 3)
        C = expm(S @ J @ inv(S))
        for _ in range(3):
            C_p = QMatrix(C.data + 1e-15 * rng.uniform(-1, 1, C.data.shape))
            with pytest.raises(PairingFailure):
                standard_eigenvalues(C_p)
            with pytest.raises(LogFailure):
                logm(C_p)


def multiplicities(spectrum):
    return [(e.algebraic_multiplicity, e.geometric_multiplicity)
            for e in spectrum.entries]


def test_close_simple_eigenvalues_are_not_taken_for_a_split_chain():
    # as close as a chain split by rounding, or linked at the longest chain
    # looked for, but with independent eigenvectors: all simple
    rng = np.random.default_rng(25)
    close = QMatrix.diag([Quaternion(1 + 3e-5 * k) for k in range(3)])
    wide = QMatrix.diag([Quaternion(k) for k in range(1, 10)])
    near_identity = QMatrix.identity(16) + 1e-3 * random_qmatrix(rng, 16)
    cases = [close, wide, near_identity]
    for C in (close, wide):
        S = random_similarity(rng, C.rows)
        cases.append(S @ C @ inv(S))
    for C in cases:
        assert multiplicities(standard_eigenvalues(C)) == [(1, 1)] * C.rows
        B = logm(C)
        assert (expm(B) - C).sum_norm() <= 1e-8 * C.sum_norm()


def test_short_chain_beside_a_close_simple_eigenvalue_is_resolved():
    # a length-2 chain (which EIG_CLUSTER_TOL resolves) 3e-5 from a simple
    # eigenvalue: close values, but the clusters' eigenvectors are independent
    rng = np.random.default_rng(26)
    J = jordan_block_matrix([Quaternion(-1), Quaternion(-1),
                             Quaternion(-1 - 3e-5)], ones={0})
    for _ in range(5):
        S = random_similarity(rng, 3)
        spectrum = standard_eigenvalues(S @ J @ inv(S))
        assert multiplicities(spectrum) == [(1, 1), (2, 1)]


# C = expm(A) for a benchmark input (constant_algebra, seed 11, pair:2416):
# its diagonalization candidate for log C has an exponential that leaves
# the quaternion block set
PAIR_2416_C = [
    [[-1.3481594615369201, 0.03667599439808905, 0.11079843880172963, 0.04651172894637498],
     [-0.06279974396409613, -0.0857927444378872, 0.09200625896900488, -0.10430190828660282],
     [-0.5411085514206817, -0.24718310859650733, 0.2548103958208103, 0.10630051204657202]],
    [[0.04917331245810521, 0.06459887636714777, 0.0019252345764290135, -0.008128008500100911],
     [-1.4263765248113773, 0.06515302367834525, 0.057861245364737295, -0.004693106539123127],
     [-0.025057410321103736, 0.18226483475278082, 0.27651655933556163, 0.2661789698915915]],
    [[0.11196516508467494, -0.036099013409408826, -0.28305161857301075, 0.041000584207479054],
     [0.21723619440615782, 0.2895496355125634, 0.04259305144004771, 0.22912977153112318],
     [0.24055292165094141, 0.080826583704433, 0.18771931324383107, 0.13427432886610047]]]


def test_logm_rejects_a_candidate_whose_exponential_leaves_the_block_set():
    from qfloquet.qmatrix import (OmegaViolation, _log_by_diagonalization,
                                  _log_residual_ok)
    C = QMatrix(PAIR_2416_C)
    candidate = _log_by_diagonalization(C, standard_eigenvalues(C))
    with pytest.raises(OmegaViolation):
        expm(candidate)
    assert not _log_residual_ok(candidate, C)
    B = logm(C)
    assert (expm(B) - C).sum_norm() <= 1e-13 * C.sum_norm()


def test_logm_round_trip_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        C = expm(random_qmatrix(rng, n))
        B = logm(C)
        assert (expm(B) - C).sum_norm() <= 1e-8 * max(1.0, C.sum_norm())


def rotation_similar(rng, n, angles, radii):
    """S diag(r_m e^(i a_m)) S^-1: standard eigenvalues at chosen angles."""
    S = random_similarity(rng, n)
    D = QMatrix.diag([Quaternion(r * math.cos(a), r * math.sin(a), 0, 0)
                      for a, r in zip(angles, radii)])
    return S @ D @ inv(S)


def test_expm_and_logm_agree_with_scipy():
    # SciPy serves only as an oracle here; the package itself never loads it
    import scipy.linalg
    from qfloquet.qmatrix import expm_adjoint
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for scale in (0.0, 1e-3, 0.5, 3.0, 40.0, 300.0):   # 300: 7+ squarings
            chi = adjoint(random_qmatrix(rng, n) * scale)
            expected = scipy.linalg.expm(chi)
            assert np.abs(expm_adjoint(chi) - expected).max() \
                <= 1e-12 * np.abs(expected).max()
    logs = [expm(random_qmatrix(rng, n) * scale)
            for n in (1, 2, 3) for scale in (1e-3, 0.5, 1.5)]
    logs.append(QMatrix.identity(3))
    # spectra 0.01 radians from the negative real axis, where the logarithm
    # is 100 times worse conditioned (closer, both agree only to about
    # eps over the distance)
    logs.append(rotation_similar(rng, 2, [math.pi - 0.01, 1.0], [1.0, 2.0]))
    logs.append(rotation_similar(rng, 3, [math.pi - 0.01] * 2 + [0.3],
                                 [0.5, 0.5, 1.0]))
    for C in logs:
        expected = scipy.linalg.logm(adjoint(C))
        assert np.abs(adjoint(logm(C)) - expected).max() \
            <= 1e-12 * max(1.0, np.abs(expected).max())


def test_principal_log_is_accurate_at_the_pade_bound():
    # ||C - I||_1 at LOG_PADE's theta takes no square root, so the Pade
    # approximant alone meets its worst point, C = (1 - theta) I
    from qfloquet.qmatrix import LOG_PADE, _principal_log
    theta = LOG_PADE[1]
    for c in (1 - theta, 1 + theta):
        L = _principal_log(QMatrix.identity(2) * c)
        assert abs(L[0, 0].q0 - math.log(c)) <= 1e-15 * abs(math.log(c))


def test_expm_stack_member_equals_its_single_call():
    from qfloquet.qmatrix import expm_adjoint
    rng = np.random.default_rng(24)
    stack = np.array([adjoint(random_qmatrix(rng, 2) * scale)
                      for scale in (0.0, 1e-3, 1.0, 9.0, 250.0, 0.2)])
    together = expm_adjoint(stack)
    for member, result in zip(stack, together):
        assert np.array_equal(expm_adjoint(member), result)
    assert np.array_equal(expm_adjoint(stack[None]), together[None])


def test_logm_rejects_singular():
    with pytest.raises(Singular):
        logm(QMatrix.zeros(2))


def test_schur_triangularizes():
    rng = np.random.default_rng(15)
    for _ in range(20):
        A = random_qmatrix(rng, 4)
        U, T = quaternion_schur(A)
        assert (U @ T @ U.dagger() - A).max_abs() < 1e-8
        for i in range(4):
            for j in range(i):
                assert abs(T[i, j]) < 1e-10


# -- spectral mapping -------------------------------------------------------------


def test_spectral_map_diagonal():
    A = QMatrix.diag([I, 1.0])
    assert spectral_map_check(A)
    expected = [complex(math.cos(1), math.sin(1)), complex(math.e, 0)]
    assert_spectra_close(sorted_spectrum(expm(A)), expected, 1e-10)


def test_spectral_map_on_unstable_3x3():
    assert spectral_map_check(CONST_UNSTABLE_3X3)
    image = cmath.exp(1 + 1j)
    expected = [1.0 + 0j, math.e + 0j, complex(image.real, abs(image.imag))]
    assert_spectra_close(sorted_spectrum(expm(CONST_UNSTABLE_3X3)),
                         expected, 1e-9)


def test_spectral_map_random_sweep():
    rng = np.random.default_rng(16)
    for _ in range(200):
        assert spectral_map_check(random_qmatrix(rng, 4))
