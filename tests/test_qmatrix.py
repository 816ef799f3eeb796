import cmath
import math

import numpy as np
import pytest

from qfloquet.qmatrix import (EIGVEC_RESID_TOL, LOG_RESID_TOL, NonSquare,
                              NotAnEigenvalue, QMatrix, Singular, adjoint,
                              allclose, expm, from_adjoint, inv, logm,
                              omega_residual, qdet, quaternion_schur,
                              right_eigenvector, spectral_map_check,
                              standard_eigenvalues, sum_norm)
from qfloquet.quaternion import I, J, K, Quaternion, conj, inverse

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


def test_products_match_quaternion_arithmetic():
    # an oracle that does not go through the adjoint: each entry of A @ B
    # (columns included), of A q and of A^dagger from Quaternion operations
    rng = np.random.default_rng(17)
    for n, m, k in [(1, 1, 1), (3, 1, 1), (2, 3, 1), (4, 4, 1), (3, 2, 4),
                    (1, 5, 2), (5, 1, 3), (4, 6, 5)]:
        A, B = random_qmatrix(rng, n, m), random_qmatrix(rng, m, k)
        q = Quaternion(*rng.uniform(-1, 1, 4))
        product, scaled, dagger = A @ B, A.scale_right(q), A.dagger()
        assert (product.shape, scaled.shape, dagger.shape) == \
            ((n, k), (n, m), (m, n))
        scale = m * A.max_abs() * B.max_abs()
        for i in range(n):
            for j in range(k):
                expected = sum((A[i, l] * B[l, j] for l in range(m)),
                               Quaternion())
                assert abs(product[i, j] - expected) <= 1e-13 * scale
            for j in range(m):
                assert abs(scaled[i, j] - A[i, j] * q) \
                    <= 1e-13 * A.max_abs() * abs(q)
                assert dagger[j, i] == conj(A[i, j])


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


def test_sum_norm_is_the_adjoint_stack_norm():
    # one modulus formula for a QMatrix and for a stack of adjoints; it stays
    # finite past the square root of the largest float
    from qfloquet.qmatrix import sum_norms
    rng = np.random.default_rng(8)
    for scale in (1e-200, 1.0, 1e200):
        for _ in range(50):
            A = random_qmatrix(rng, int(rng.integers(1, 5))) * scale
            assert math.isfinite(sum_norm(A))
            assert sum_norm(A) == float(sum_norms(adjoint(A)))


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


def spectrum_key(outcome):
    """Every bit of a spectrum, or the type and message of its failure."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return ([(e.value.real, e.value.imag, e.algebraic_multiplicity,
              e.geometric_multiplicity) for e in outcome],
            outcome.singular_values.tobytes())


def single_key(A, singular_tol=None):
    try:
        return spectrum_key(standard_eigenvalues(A, singular_tol))
    except ArithmeticError as exc:
        return spectrum_key(exc)


def stack_members(rng):
    """3x3 cases for the stacked spectra: complex pairs, real pairs, +-I, a
    Jordan block, a split length-3 chain (PairingFailure), and a singular
    matrix, in a seeded order."""
    rot = Quaternion(0, math.pi, 0, 0)
    S = random_similarity(rng, 3)
    members = [
        random_qmatrix(rng, 3),
        S @ QMatrix.diag([Quaternion(2.0), Quaternion(-0.5),
                          Quaternion(float(rng.uniform(0.1, 1.0)))]) @ inv(S),
        QMatrix.identity(3),
        -QMatrix.identity(3),
        S @ jordan_block_matrix([Quaternion(2.0), Quaternion(2.0),
                                 Quaternion(0, 0, 1, 0)], ones={0}) @ inv(S),
        expm(S @ jordan_block_matrix([rot, rot, rot], ones={0, 1}) @ inv(S)),
        QMatrix.diag([Quaternion(1.0), Quaternion(0.0), I]),
    ]
    return [members[k] for k in rng.permutation(len(members))]


def test_stack_member_spectrum_equals_its_single_call():
    from qfloquet.qmatrix import PairingFailure
    for seed in range(6):
        members = stack_members(np.random.default_rng([31, seed]))
        stack = np.stack([adjoint(A) for A in members])
        for tol in (None, 1e-12):
            stacked = standard_eigenvalues(stack, tol)
            assert [spectrum_key(s) for s in stacked] == \
                [single_key(A, tol) for A in members]
            kinds = [type(s) for s in stacked]
            assert kinds.count(PairingFailure) == 1
            assert kinds.count(Singular) == (1 if tol else 0)


def test_stack_member_alone_is_a_stack_of_one():
    members = stack_members(np.random.default_rng(32))
    stack = np.stack([adjoint(A) for A in members])
    whole = [spectrum_key(s) for s in standard_eigenvalues(stack)]
    for m in range(len(members)):
        (alone,) = standard_eigenvalues(stack[m:m + 1])
        assert spectrum_key(alone) == whole[m]
    assert standard_eigenvalues(stack[:0]) == []


def test_non_finite_stack_member_fails_alone():
    rng = np.random.default_rng(33)
    members = [random_qmatrix(rng, 2) for _ in range(3)]
    stack = np.stack([adjoint(A) for A in members])
    stack[1, 0, 0] = np.nan
    first, middle, last = standard_eigenvalues(stack)
    assert isinstance(middle, np.linalg.LinAlgError)
    assert spectrum_key(first) == single_key(members[0])
    assert spectrum_key(last) == single_key(members[2])


def test_stack_failures_keep_their_types_messages_and_precedence():
    # a singular member, a non-finite one and one whose adjoint eigenvalues
    # (4i, 3i, 2i, i: a complex matrix, not an adjoint) have no conjugates;
    # a singular matrix that cannot be paired either is Singular first
    singular = adjoint(QMatrix.diag([Quaternion(0.0), Quaternion(1, 1, 0, 0)]))
    non_finite = adjoint(QMatrix.identity(2))
    non_finite[1, 2] = np.inf
    unpaired = np.diag([4j, 3j, 2j, 1j])
    both = np.diag([0j, 3j, 2j, 1j])
    stack = np.stack([singular, non_finite, unpaired, both])
    expected = {
        1e-12: [("Singular", "adjoint condition 1.414e+00/0.000e+00 treats "
                 "the matrix as singular"),
                ("LinAlgError", "Array must not contain infs or NaNs"),
                ("PairingFailure", "4 eigenvalues above the real axis vs 0 "
                 "below"),
                ("Singular", "adjoint condition 3.000e+00/0.000e+00 treats "
                 "the matrix as singular")],
        None: [("LinAlgError", "Array must not contain infs or NaNs"),
               ("PairingFailure", "4 eigenvalues above the real axis vs 0 "
                "below"),
               ("PairingFailure", "3 eigenvalues above the real axis vs 0 "
                "below")]}
    for tol, outcomes in expected.items():
        got = [spectrum_key(outcome) for outcome in
               standard_eigenvalues(stack[len(stack) - len(outcomes):], tol)]
        assert got == outcomes


def _reference_pairs(eigs, tau):
    """The n paired representatives of one member's adjoint eigenvalues,
    paired one member at a time in Python's complex arithmetic."""
    from qfloquet.qmatrix import PairingFailure
    reals = [w for w in eigs if abs(w.imag) <= tau]
    upper = sorted((w for w in eigs if w.imag > tau),
                   key=lambda w: (w.real, w.imag))
    lower = [w for w in eigs if w.imag < -tau]
    if len(upper) != len(lower):
        raise PairingFailure(f"{len(upper)} eigenvalues above the real axis "
                             f"vs {len(lower)} below")
    reps = []
    for w in upper:
        target = w.conjugate()
        best = min(range(len(lower)), key=lambda m: abs(lower[m] - target))
        if abs(lower[best] - target) > tau:
            raise PairingFailure(
                f"no conjugate partner for {w:.6g} within {tau:.3e}")
        reps.append(0.5 * w + 0.5 * lower.pop(best).conjugate())
    if len(reals) % 2:
        raise PairingFailure("odd number of real adjoint eigenvalues")
    reals.sort(key=lambda w: w.real)
    for m in range(0, len(reals), 2):
        a, b = reals[m], reals[m + 1]
        if abs(a.real - b.real) > tau:
            raise PairingFailure(
                f"unpaired real eigenvalues {a.real:.6g}, {b.real:.6g}")
        reps.append(complex(0.5 * a.real + 0.5 * b.real, 0.0))
    return reps


def reference_spectrum(chi, singular_tol=None):
    """standard_eigenvalues of one adjoint, member by member: pairing,
    single-linkage clustering and nullity SVDs in Python's arithmetic."""
    from qfloquet.qmatrix import (EIG_CLUSTER_TOL, PairingFailure,
                                  SpectrumEntry, StandardSpectrum, _cluster,
                                  _unresolved_split)
    n = chi.shape[-1] // 2
    try:
        eigs, vecs = np.linalg.eig(chi)
    except np.linalg.LinAlgError as exc:
        return exc
    svals = np.linalg.svd(chi, compute_uv=False)
    chi_norm = svals[0]
    if singular_tol is not None \
            and svals[-1] <= singular_tol * max(1.0, chi_norm):
        return Singular(f"adjoint condition {chi_norm:.3e}/{svals[-1]:.3e} "
                        "treats the matrix as singular")
    tau = 1e-7 * max(1.0, sum_norm(from_adjoint(chi, project=False)))
    try:
        reps = _reference_pairs(eigs.tolist(), tau)
    except PairingFailure as exc:
        return exc
    if len(reps) != n:
        return PairingFailure(f"paired down to {len(reps)} values, "
                              f"expected {n}")
    split = _unresolved_split(reps, eigs, vecs, chi_norm)
    if split is not None:
        spread = max(abs(a - b) for a in split for b in split)
        return PairingFailure(
            f"{len(split)} eigenvalues within {spread:.3e} of each other "
            "may be one defective eigenvalue split by rounding")
    entries = []
    for group in _cluster(reps, EIG_CLUSTER_TOL):
        value = sum(group) / len(group)
        am = len(group)
        real = abs(value.imag) <= tau
        value = complex(value.real, 0.0 if real else abs(value.imag))
        gm = 1
        if am > 1:
            shift = value.real if real else value
            kernel = int((np.linalg.svd(chi - shift * np.eye(2 * n),
                                        compute_uv=False)
                          <= 1e-9 * chi_norm * (2 * n)).sum())
            gm = min(max(round(kernel / 2) if real else kernel, 1), am)
        entries.append(SpectrumEntry(value, am, gm))
    return StandardSpectrum(entries, svals)


def bits_key(outcome):
    """Every bit of a spectrum (signed zeros included), or the type and
    message of its failure."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return ([(e.value.real.hex(), e.value.imag.hex(), e.algebraic_multiplicity,
              e.geometric_multiplicity) for e in outcome],
            outcome.singular_values.tobytes())


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_spectra_match_a_per_member_reference(n):
    # simple, real-pair, repeated (gm 1, and gm 2 or n), singular and
    # non-finite members, in seeded orders: the stacked pairing and
    # clustering give each member's spectrum bit for bit
    rng = np.random.default_rng([41, n])
    for _ in range(8):
        S = random_similarity(rng, n)
        q = Quaternion(*rng.uniform(-1, 1, 4))
        reals = [Quaternion(float(x)) for x in rng.uniform(-2, 2, n)]
        spare = [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(n - 2)]
        non_finite = adjoint(random_qmatrix(rng, n))
        non_finite[0, 1] = np.nan
        members = {
            "simple": adjoint(random_qmatrix(rng, n)),
            "real": adjoint(S @ QMatrix.diag(reals) @ inv(S)),
            "gm1": adjoint(S @ jordan_block_matrix([q, q, *spare], ones={0})
                           @ inv(S)),
            "gm2": adjoint(S @ QMatrix.diag([q, q, *spare]) @ inv(S)),
            "-I": adjoint(-QMatrix.identity(n)),
            "singular": adjoint(S @ QMatrix.diag([Quaternion(0.0), *reals[1:]])
                                @ inv(S)),
            "non-finite": non_finite,
        }
        names = [list(members)[k] for k in rng.permutation(len(members))]
        stack = np.stack([members[name] for name in names])
        for tol in (None, 1e-12):
            stacked = standard_eigenvalues(stack, tol)
            assert [bits_key(s) for s in stacked] == \
                [bits_key(reference_spectrum(chi, tol)) for chi in stack]
        got = dict(zip(names, stacked))
        assert all(e.value.imag == 0.0 for e in got["real"])
        assert (2, 1) in multiplicities(got["gm1"])
        assert (2, 2) in multiplicities(got["gm2"])
        assert multiplicities(got["-I"]) == [(n, n)]
        assert isinstance(got["singular"], Singular)
        assert isinstance(got["non-finite"], np.linalg.LinAlgError)


# C = expm(A) for a benchmark input (constant_algebra, seed 11, pair:2416),
# and a logarithm candidate for it, S diag(log lambda) S^-1 from right
# eigenvectors S, whose exponential leaves the quaternion block set
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
PAIR_2416_CANDIDATE = [
    [[76.75754661988351, -44.743816872821576, -23.538271036401802, 37.52624262967574],
     [-4.6230672633838, -29.514665622043193, -25.494953328640648, 57.76656123114997],
     [32.27433406161699, 21.52537221246028, -31.70952518383956, 15.042011193860036]],
    [[-160.39338051525345, -24.24150860166652, -39.94133941725404, 27.15961143475965],
     [-91.36845148658465, 17.141700429971852, 46.91049716352082, -57.4166407654917],
     [-48.29836226519178, -27.764705084986947, 40.99090750079539, 56.06847789400374]],
    [[28.777596613373365, 34.639651721885976, 29.106188931893925, 28.957227515821884],
     [15.892189651703136, 29.661907455295538, -19.762566322847974, 16.54239619405238],
     [14.301595355010008, 20.23192886914096, 13.713234819441263, -14.403013929991523]]]


def test_logm_rejects_a_candidate_whose_exponential_leaves_the_block_set():
    from qfloquet.qmatrix import OmegaViolation, _log_residual_ok
    C = QMatrix(PAIR_2416_C)
    candidate = QMatrix(PAIR_2416_CANDIDATE)
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


def log_residual(B, C):
    return (expm(B) - C).sum_norm() / max(1.0, C.sum_norm())


def unit_direction(rng):
    v = rng.normal(size=3)
    return Quaternion(0.0, *(v / np.linalg.norm(v)))


def scaled_quaternion(rng, lo, hi):
    q = Quaternion(*rng.normal(size=4))
    return q * (float(rng.uniform(lo, hi)) / abs(q))


def negative_real_logm_inputs(rng):
    """C = S J S^-1, or e^(S L S^-1), with eigenvalues on or next to the
    negative real axis: diagonalizable, a length-2 chain, -r reached from
    two different log directions, and a pair just off the axis."""
    r = float(rng.uniform(0.2, 3.0))
    S = random_similarity(rng, 3)
    other = -r if rng.random() < 0.5 else -float(rng.uniform(0.2, 3.0))
    yield S @ QMatrix.diag([-r, other, scaled_quaternion(rng, 0.3, 3.0)]) \
        @ inv(S)
    chain = QMatrix.from_entries(
        [[-r, scaled_quaternion(rng, 0.1, 2.0), 0], [0, -r, 0],
         [0, 0, scaled_quaternion(rng, 0.3, 3.0)]])
    yield S @ chain @ inv(S)
    lr = Quaternion(math.log(r))
    mixed = QMatrix.from_entries(
        [[lr + unit_direction(rng) * math.pi, scaled_quaternion(rng, 0.1, 2.0)],
         [0, lr + unit_direction(rng) * math.pi]])
    S2 = random_similarity(rng, 2)
    yield expm(S2 @ mixed @ inv(S2))
    near = math.pi - 10 ** float(rng.uniform(-10, -3))
    pair = Quaternion(r * math.cos(near), r * math.sin(near), 0, 0)
    yield S @ QMatrix.diag([pair, pair, scaled_quaternion(rng, 0.3, 3.0)]) \
        @ inv(S)


def test_logm_stress_on_the_negative_real_axis():
    rng = np.random.default_rng(28)
    for _ in range(40):
        for C in negative_real_logm_inputs(rng):
            assert log_residual(logm(C), C) <= LOG_RESID_TOL


def test_logm_just_off_the_negative_axis():
    # a pair 1e-6 from the axis next to a spectator, snapped onto it in
    # most of these draws
    rng = np.random.default_rng(27)
    near = math.pi - 1e-6
    for _ in range(10):
        C = rotation_similar(rng, 3, [near, near, 0.3], [0.5, 0.5, 1.0])
        assert log_residual(logm(C), C) <= LOG_RESID_TOL


@pytest.mark.parametrize("distance", [3e-8, 1e-7])
def test_logm_clusters_snapped_onto_the_negative_axis(distance):
    # lam = r e^(i(pi - distance)) is close enough to the axis for its
    # standard value to read -r, which C does not have: the Schur route
    # deflates with the eigenvalue that C has instead wherever the snapped
    # value's eigenvector misses EIGVEC_RESID_TOL, so its triangular form
    # keeps C within that tolerance.  A lone pair S diag(lam, lam) S^-1, among
    # them real 2x2 matrices P R P^-1 with R the rotation by pi - distance
    # (the M(T) of a Hill equation just inside a band edge), a triple, and
    # a chain S [[lam, z], [0, lam]] S^-1 with complex z
    rng = np.random.default_rng(29)
    angle = math.pi - distance
    inputs = [rotation_similar(rng, 2, [angle] * 2, [1.0] * 2)
              for _ in range(10)]
    for _ in range(4):
        r = float(rng.uniform(0.2, 3.0))
        inputs.append(rotation_similar(rng, 3, [angle] * 3, [r] * 3))
        lam = Quaternion(r * math.cos(angle), r * math.sin(angle), 0, 0)
        z = Quaternion(*rng.normal(size=2), 0, 0)
        S = random_similarity(rng, 2)
        inputs.append(S @ QMatrix.from_entries([[lam, z], [0, lam]]) @ inv(S))
        P = rng.normal(size=(2, 2))
        R = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        inputs.append(QMatrix.from_complex(P @ np.array(R) @ np.linalg.inv(P)))
    for C in inputs:
        U, T = quaternion_schur(C)
        assert allclose(U @ T @ U.dagger(), C, EIGVEC_RESID_TOL * sum_norm(C))
        assert log_residual(logm(C), C) <= LOG_RESID_TOL


def close_blocks_inputs(rng, draws):
    """S T S^-1 for upper-triangular T with a -1 pair, which sends logm down
    the Schur route, and two blocks at 0.5 + 0.3i and 0.5 + gap + 0.3i, the
    gap log-uniform just above EIG_CLUSTER_TOL."""
    for _ in range(draws):
        gap = 10 ** float(rng.uniform(math.log10(2e-6), -3))
        diag = [-1.0, -1.0, complex(0.5, 0.3), complex(0.5 + gap, 0.3)]
        T = QMatrix.from_entries(
            [[diag[a] if a == b
              else Quaternion(*rng.uniform(-1, 1, 4)) if b > a else 0.0
              for b in range(4)] for a in range(4)])
        S = random_similarity(rng, 4)
        yield S @ T @ inv(S)


def test_logm_schur_route_on_close_blocks():
    # the Sylvester solve between two blocks is conditioned by their gap,
    # the weak spot of a Schur-Parlett recurrence
    for C in close_blocks_inputs(np.random.default_rng(31), 60):
        assert log_residual(logm(C), C) <= LOG_RESID_TOL


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


def rotation_inputs(rng):
    """Random quaternions, and quaternions whose vector part points 0 to
    1e-6 radians away from +i and from -i."""
    for _ in range(200):
        yield Quaternion(*rng.normal(size=4))
    for pole in (1.0, -1.0):
        for angle in (0.0, 1e-15, 1e-12, 1e-9, 1e-6):
            for _ in range(20):
                side = rng.normal(size=2)
                side *= math.sin(angle) / np.linalg.norm(side)
                vector = np.array([pole * math.cos(angle), *side])
                yield Quaternion(float(rng.normal()),
                                 *(float(rng.uniform(0.1, 10.0)) * vector))


def test_rotation_to_complex_is_accurate_near_both_poles():
    # w = (1 - u i)/|1 - u i| alone loses all accuracy near u = -i, where
    # 1 - u i vanishes; the similarity by j there keeps |1 - u i| >= sqrt(2)
    from qfloquet.qmatrix import _rotation_to_complex
    for q in rotation_inputs(np.random.default_rng(32)):
        w = _rotation_to_complex(q)
        assert abs(abs(w) - 1.0) <= 1e-15
        image = conj(w) * q * w
        assert math.hypot(image.q2, image.q3) <= 1e-15 * abs(q)
        assert image.q1 >= 0.0


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
