"""Dense quaternion matrices via the complex-adjoint embedding.

A quaternion matrix A splits uniquely as A = A1 + A2*j with A1, A2 complex;
its 2n x 2n complex adjoint is the block matrix [[A1, A2], [-conj(A2),
conj(A1)]].  The embedding is an algebra homomorphism, so determinants,
eigenvalues, exponentials and logarithms of quaternion matrices are computed
on the adjoint and mapped back.  Right eigenvalues are reported through their
standard (complex, nonnegative imaginary part) representatives.

The exponential and the principal logarithm are numpy code: Pade-13
scaling and squaring with a scaling power per member of a stack
(`expm_adjoint`), and inverse scaling and squaring through Denman-Beavers
square roots and a Gauss-Legendre form of the Pade approximant
(`_principal_log`).  Nothing here needs SciPy.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .quaternion import Quaternion

log = logging.getLogger(__name__)

# block-structure tolerance for adjoint round trips through complex kernels
OMEGA_TOL = 1e-10
# absolute clustering tolerance for distinct standard eigenvalues
EIG_CLUSTER_TOL = 1e-6
# rounding splits an eigenvalue with a Jordan chain of length m into m values
# about eps^(1/m) ||A|| apart, which EIG_CLUSTER_TOL cannot rejoin once m >= 3,
# and whose eigenvectors are nearly dependent.  m >= 3 values that it keeps
# apart, linked within EIG_SPLIT_FACTOR times that spread, make the
# multiplicity unresolvable when the eigenvector spans of their clusters are
# dependent within EIG_SPLIT_DEPENDENCE; chains longer than EIG_SPLIT_LONGEST
# are not looked for (eps^(1/m) is no longer small)
EIG_SPLIT_FACTOR = 10.0
EIG_SPLIT_DEPENDENCE = 1e-8
EIG_SPLIT_LONGEST = 6
# residual tolerance for recovered right eigenvectors, relative to ||A||
EIGVEC_RESID_TOL = 1e-9
# residual tolerance for logm, relative to ||C||
LOG_RESID_TOL = 1e-8
# an eigenvalue this close (relatively) to the negative real axis forces the
# quaternion-aware logarithm branches
NEG_AXIS_TOL = 1e-8

# expm: Pade-13 coefficients b_0..b_13 and the largest 1-norm the
# approximant serves to double precision (Higham 2005, table 2.3)
_EXPM_PADE = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
              1187353796428800.0, 129060195264000.0, 10559470521600.0,
              670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
              960960.0, 16380.0, 182.0, 1.0)
EXPM_THETA = 5.371920351148152
# principal log: the points m of the Gauss-Legendre form of the [m/m] Pade
# approximant, and the largest ||E||_1 at which that m keeps its error below
# the unit roundoff (Higham, Functions of Matrices, table 11.1); one pair,
# since theta holds only for its m
LOG_PADE = (16, 0.723)
# most square roots taken
LOG_SQUARE_ROOTS = 64
# Denman-Beavers square root: most steps, and the distance ||M - I||_1 from
# which one more step converges (the distance is squared each step)
SQRTM_STEPS = 64
SQRTM_TOL = 1e-8


class NonSquare(ValueError):
    """Operation requires a square matrix."""


class PairingFailure(ArithmeticError):
    """Adjoint eigenvalues could not be grouped into conjugate pairs."""


class NotAnEigenvalue(ValueError):
    """Requested value is not in the standard spectrum."""


class RecoveryFailure(ArithmeticError):
    """No candidate eigenvector embedding met the residual bound."""


class OmegaViolation(ArithmeticError):
    """Result of an adjoint-level operation left the quaternion block set."""


class Singular(ArithmeticError):
    """Matrix is singular (or too ill-conditioned to treat as invertible)."""


class LogFailure(ArithmeticError):
    """No quaternion logarithm satisfying the residual contract was found."""


# structure tensor: UNITS[a] * UNITS[b] = sum_c QMUL[a, b, c] * UNITS[c]
QMUL = np.zeros((4, 4, 4))
for _a, _row in enumerate([
        [(0, 1), (1, 1), (2, 1), (3, 1)],       # 1 * {1,i,j,k}
        [(1, 1), (0, -1), (3, 1), (2, -1)],     # i * {1,i,j,k}
        [(2, 1), (3, -1), (0, -1), (1, 1)],     # j * {1,i,j,k}
        [(3, 1), (2, 1), (1, -1), (0, -1)],     # k * {1,i,j,k}
]):
    for _b, (_c, _s) in enumerate(_row):
        QMUL[_a, _b, _c] = _s


def _as_components(value):
    if isinstance(value, Quaternion):
        return value.components()
    if isinstance(value, complex):
        return (value.real, value.imag, 0.0, 0.0)
    if isinstance(value, (int, float)):
        return (float(value), 0.0, 0.0, 0.0)
    raise TypeError(f"cannot interpret {value!r} as a quaternion entry")


class QMatrix:
    """Dense matrix of quaternions, stored as an (rows, cols, 4) float array.

    Instances are treated as immutable; arithmetic returns new matrices.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise ValueError("QMatrix data must have shape (rows, cols, 4)")
        self.data = arr
        self.data.flags.writeable = False

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(rows, cols=None):
        cols = rows if cols is None else cols
        return QMatrix(np.zeros((rows, cols, 4)))

    @staticmethod
    def identity(n):
        arr = np.zeros((n, n, 4))
        arr[np.arange(n), np.arange(n), 0] = 1.0
        return QMatrix(arr)

    @staticmethod
    def from_entries(rows):
        """Build from a nested sequence of Quaternion/complex/real entries."""
        nrows = len(rows)
        ncols = len(rows[0])
        arr = np.zeros((nrows, ncols, 4))
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                arr[i, j, :] = _as_components(value)
        return QMatrix(arr)

    @staticmethod
    def diag(values):
        n = len(values)
        arr = np.zeros((n, n, 4))
        for m, value in enumerate(values):
            arr[m, m, :] = _as_components(value)
        return QMatrix(arr)

    @staticmethod
    def column(values):
        return QMatrix.from_entries([[v] for v in values])

    @staticmethod
    def from_complex(array):
        """Embed a complex matrix entrywise (q2 = q3 = 0)."""
        array = np.asarray(array, dtype=complex)
        arr = np.zeros(array.shape + (4,))
        arr[..., 0] = array.real
        arr[..., 1] = array.imag
        return QMatrix(arr)

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape[:2]

    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, index):
        i, j = index
        return Quaternion(*self.data[i, j])

    def entries(self):
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows))
        return f"QMatrix[{body}]"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return QMatrix(self.data + other.data)

    def __sub__(self, other):
        return QMatrix(self.data - other.data)

    def __neg__(self):
        return QMatrix(-self.data)

    def __mul__(self, scalar):
        # real scalars commute with every quaternion, so one-sided is enough
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return QMatrix(self.data * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return QMatrix(np.einsum("ija,jkb,abc->ikc", self.data, other.data, QMUL))

    def scale_right(self, q):
        """Right multiplication A * q by a quaternion scalar."""
        comps = np.asarray(_as_components(q))
        return QMatrix(np.einsum("ija,b,abc->ijc", self.data, comps, QMUL))

    def conjugate(self):
        arr = self.data.copy()
        arr[..., 1:] *= -1.0
        return QMatrix(arr)

    def transpose(self):
        return QMatrix(self.data.transpose(1, 0, 2).copy())

    def dagger(self):
        """Conjugate transpose."""
        return self.conjugate().transpose()

    def trace(self):
        if not self.is_square():
            raise NonSquare("trace of a non-square matrix")
        n = self.rows
        comps = self.data[np.arange(n), np.arange(n), :].sum(axis=0)
        return Quaternion(*comps)

    def re_trace(self):
        return float(self.trace().q0)

    def abs_entries(self):
        return np.sqrt((self.data ** 2).sum(axis=2))

    def sum_norm(self):
        """Entrywise sum norm: sum of the moduli of all entries."""
        return float(self.abs_entries().sum())

    def frobenius_sq(self):
        """Squared Frobenius norm: sum of squared entry moduli."""
        return float((self.data ** 2).sum())

    def max_abs(self):
        return float(self.abs_entries().max()) if self.data.size else 0.0

    def submatrix(self, r0, r1, c0, c1):
        return QMatrix(self.data[r0:r1, c0:c1, :].copy())


def sum_norm(A):
    return A.sum_norm()


def frobenius_sq(A):
    return A.frobenius_sq()


def allclose(A, B, tol=1e-12):
    return (A - B).max_abs() <= tol


# -- adjoint embedding -------------------------------------------------------


def adjoint(A):
    """Complex adjoint of a square quaternion matrix.

    Returns the 2n x 2n complex array [[A1, A2], [-conj(A2), conj(A1)]] for
    the split A = A1 + A2*j.
    """
    if not A.is_square():
        raise NonSquare("adjoint requires a square matrix")
    a1 = A.data[..., 0] + 1j * A.data[..., 1]
    a2 = A.data[..., 2] + 1j * A.data[..., 3]
    top = np.hstack([a1, a2])
    bottom = np.hstack([-a2.conj(), a1.conj()])
    return np.vstack([top, bottom])


def omega_residual(chi):
    """How far a 2n x 2n complex matrix is from the quaternion block form;
    for a stack of them, the largest residual."""
    n = chi.shape[-1] // 2
    if not n:
        return 0.0
    block = (-2, -1)
    r1 = np.abs(chi[..., n:, :n] + chi[..., :n, n:].conj()).max(axis=block)
    r2 = np.abs(chi[..., n:, n:] - chi[..., :n, :n].conj()).max(axis=block)
    scale = np.maximum(1.0, np.abs(chi).max(axis=block))
    return float(np.max(np.maximum(r1, r2) / scale))


def project_omega(chi):
    """Average the redundant blocks onto the exact quaternion block form
    (of each matrix in a stack)."""
    n = chi.shape[-1] // 2
    a1 = 0.5 * (chi[..., :n, :n] + chi[..., n:, n:].conj())
    a2 = 0.5 * (chi[..., :n, n:] - chi[..., n:, :n].conj())
    top = np.concatenate([a1, a2], axis=-1)
    bottom = np.concatenate([-a2.conj(), a1.conj()], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def from_adjoint(chi, project=True):
    """Map a quaternion-structured 2n x 2n complex matrix back to a QMatrix."""
    if project:
        chi = project_omega(chi)
    return QMatrix(quaternion_data(chi))


def quaternion_data(chi):
    """(..., n, n, 4) quaternion components of a (..., 2n, 2n) stack of
    adjoints, read from their top block row [A1, A2]."""
    n = chi.shape[-1] // 2
    a1 = chi[..., :n, :n]
    a2 = chi[..., :n, n:]
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)


def sum_norms(chi):
    """Entrywise sum norm of the quaternion matrix behind each adjoint in a
    (..., 2n, 2n) stack."""
    n = chi.shape[-1] // 2
    moduli = np.hypot(np.abs(chi[..., :n, :n]), np.abs(chi[..., :n, n:]))
    return moduli.sum(axis=(-2, -1))


def embed_vector(x):
    """Complex 2n-vector representing the quaternion column x = x1 + x2*j."""
    x1 = x.data[:, 0, 0] + 1j * x.data[:, 0, 1]
    x2 = x.data[:, 0, 2] + 1j * x.data[:, 0, 3]
    return np.concatenate([x1, -x2.conj()])


def lift_vector(u):
    """Quaternion column for a complex 2n-vector (inverse of embed_vector)."""
    n = u.shape[0] // 2
    u1, u2 = u[:n], u[n:]
    arr = np.zeros((n, 1, 4))
    arr[:, 0, 0] = u1.real
    arr[:, 0, 1] = u1.imag
    arr[:, 0, 2] = -u2.real
    arr[:, 0, 3] = u2.imag
    return QMatrix(arr)


def qdet(A):
    """q-determinant det(adjoint(A)); real and nonnegative up to rounding."""
    chi = adjoint(A)
    value = np.linalg.det(chi)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
        log.debug("qdet imaginary residue %.3e discarded", value.imag)
    return float(value.real)


def inv(A):
    """Quaternion matrix inverse via the adjoint."""
    chi = adjoint(A)
    try:
        chi_inv = np.linalg.inv(chi)
    except np.linalg.LinAlgError as exc:
        raise Singular("matrix is singular") from exc
    res = omega_residual(chi_inv)
    if res > OMEGA_TOL:
        raise OmegaViolation(f"inverse left the quaternion block set ({res:.3e})")
    return from_adjoint(chi_inv)


# -- spectra ------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int


class StandardSpectrum:
    """The n standard eigenvalues of a quaternion matrix, clustered into
    distinct values with algebraic and geometric multiplicities."""

    def __init__(self, entries):
        self.entries = sorted(entries, key=lambda e: (e.value.real, e.value.imag))

    @property
    def n(self):
        return sum(e.algebraic_multiplicity for e in self.entries)

    def expanded(self):
        """All eigenvalues repeated according to algebraic multiplicity."""
        out = []
        for e in self.entries:
            out.extend([e.value] * e.algebraic_multiplicity)
        return out

    def values(self):
        return [e.value for e in self.entries]

    def closest(self, value):
        return min(self.entries, key=lambda e: abs(e.value - value))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        body = ", ".join(
            f"{e.value:.6g} (am={e.algebraic_multiplicity}, gm={e.geometric_multiplicity})"
            for e in self.entries)
        return f"StandardSpectrum[{body}]"


def _pair_adjoint_eigenvalues(eigs, tau):
    """Group the 2n adjoint eigenvalues into conjugate pairs; return the n
    representatives with nonnegative imaginary part."""
    reals = [w for w in eigs if abs(w.imag) <= tau]
    pos = sorted((w for w in eigs if w.imag > tau), key=lambda w: (w.real, w.imag))
    neg = [w for w in eigs if w.imag < -tau]
    if len(pos) != len(neg):
        raise PairingFailure(
            f"{len(pos)} eigenvalues above the real axis vs {len(neg)} below")
    reps = []
    for w in pos:
        target = w.conjugate()
        best = min(range(len(neg)), key=lambda m: abs(neg[m] - target))
        if abs(neg[best] - target) > tau:
            raise PairingFailure(
                f"no conjugate partner for {w:.6g} within {tau:.3e}")
        reps.append(0.5 * (w + neg.pop(best).conjugate()))
    if len(reals) % 2:
        raise PairingFailure("odd number of real adjoint eigenvalues")
    reals.sort(key=lambda w: w.real)
    for m in range(0, len(reals), 2):
        a, b = reals[m], reals[m + 1]
        if abs(a.real - b.real) > tau:
            raise PairingFailure(
                f"unpaired real eigenvalues {a.real:.6g}, {b.real:.6g}")
        reps.append(complex(0.5 * (a.real + b.real), 0.0))
    return reps


def _cluster(values, tol):
    """Single-linkage clustering of complex values with threshold tol."""
    parent = list(range(len(values)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            if abs(values[a] - values[b]) <= tol:
                parent[find(a)] = find(b)
    groups = {}
    for m, v in enumerate(values):
        groups.setdefault(find(m), []).append(v)
    return list(groups.values())


def _unresolved_split(reps, eigs, vecs, scale):
    """A group of m >= 3 paired values, linked within EIG_SPLIT_FACTOR *
    eps^(1/m) * scale, that EIG_CLUSTER_TOL splits into clusters whose
    adjoint eigenvectors are dependent; None when there is none."""
    eps = np.finfo(float).eps
    for m in range(3, min(len(reps), EIG_SPLIT_LONGEST) + 1):
        link = EIG_SPLIT_FACTOR * eps ** (1.0 / m) * scale
        for group in _cluster(reps, link):
            clusters = _cluster(group, EIG_CLUSTER_TOL)
            if len(group) >= m and len(clusters) > 1 \
                    and _dependent_spans(reps, eigs, vecs, clusters):
                return group
    return None


def _dependent_spans(reps, eigs, vecs, clusters):
    """Whether the spans of the clusters' adjoint eigenvectors are dependent
    within EIG_SPLIT_DEPENDENCE.  Each adjoint eigenvalue belongs to its
    nearest paired value; dependence inside one cluster (a defective
    eigenvalue that it resolves) does not count."""
    standard = np.where(eigs.imag < 0, eigs.conj(), eigs)
    owner = [min(reps, key=lambda r: abs(r - w)) for w in standard]
    bases = []
    for cluster in clusters:
        span = vecs[:, [k for k, r in enumerate(owner) if r in cluster]]
        u, svals, _ = np.linalg.svd(span, full_matrices=False)
        bases.append(u[:, svals > EIG_SPLIT_DEPENDENCE * svals[0]])
    svals = np.linalg.svd(np.hstack(bases), compute_uv=False)
    return svals[-1] <= EIG_SPLIT_DEPENDENCE


def _nullity(chi_shifted, rank_tol):
    svals = np.linalg.svd(chi_shifted, compute_uv=False)
    return int((svals <= rank_tol).sum())


def standard_eigenvalues(A):
    """Standard spectrum of a square quaternion matrix.

    The 2n adjoint eigenvalues are paired into conjugates, the n upper-half
    representatives are clustered into distinct values, and geometric
    multiplicities are read off the adjoint kernel dimensions (halved for
    real eigenvalues, whose kernel sees both conjugate blocks).
    """
    if not A.is_square():
        raise NonSquare("eigenvalues of a non-square matrix")
    n = A.rows
    chi = adjoint(A)
    eigs, vecs = np.linalg.eig(chi)
    tau_pair = 1e-7 * max(1.0, A.sum_norm())
    reps = _pair_adjoint_eigenvalues([complex(w) for w in eigs], tau_pair)
    if len(reps) != n:
        raise PairingFailure(f"paired down to {len(reps)} values, expected {n}")

    chi_norm = np.linalg.norm(chi, 2)
    split = _unresolved_split(reps, eigs, vecs, chi_norm)
    if split is not None:
        spread = max(abs(a - b) for a in split for b in split)
        raise PairingFailure(
            f"{len(split)} eigenvalues within {spread:.3e} of each other may "
            "be one defective eigenvalue split by rounding")
    rank_tol = 1e-9 * chi_norm * (2 * n)
    entries = []
    for group in _cluster(reps, EIG_CLUSTER_TOL):
        value = sum(group) / len(group)
        am = len(group)
        if abs(value.imag) <= tau_pair:
            value = complex(value.real, 0.0)
            kernel = _nullity(chi - value.real * np.eye(2 * n), rank_tol)
            gm = int(round(kernel / 2))
        else:
            value = complex(value.real, abs(value.imag))
            gm = _nullity(chi - value * np.eye(2 * n), rank_tol)
        gm = min(max(gm, 1), am)
        entries.append(SpectrumEntry(value, am, gm))
    return StandardSpectrum(entries)


def _kernel_vectors(chi, value, rank_tol):
    """Right singular vectors of chi - value*I with negligible singular value."""
    shifted = chi - value * np.eye(chi.shape[0])
    _, svals, vh = np.linalg.svd(shifted)
    keep = [m for m in range(len(svals)) if svals[m] <= rank_tol]
    if not keep:
        keep = [len(svals) - 1]
    return [vh[m].conj() for m in keep]


_EMBEDDING_FLIPS = (
    (1.0, -1.0),   # derived convention: eta = u1 - conj(u2) * j
    (1.0, 1.0),
    (-1.0, -1.0),
    (-1.0, 1.0),
)


def _candidate_etas(u):
    n = u.shape[0] // 2
    u1, u2 = u[:n], u[n:]
    for s1, s2 in _EMBEDDING_FLIPS:
        arr = np.zeros((n, 1, 4))
        arr[:, 0, 0] = s1 * u1.real
        arr[:, 0, 1] = s1 * u1.imag
        arr[:, 0, 2] = s2 * u2.real
        arr[:, 0, 3] = -s2 * u2.imag
        yield QMatrix(arr)


def _eig_residual(A, eta, value):
    shifted = A @ eta - eta.scale_right(Quaternion.from_complex(value))
    return shifted.sum_norm()


def right_eigenvector(A, value, resid_tol=EIGVEC_RESID_TOL):
    """Right eigenvector for a standard eigenvalue: A @ eta = eta * value.

    The eigenvector is recovered from an adjoint kernel vector; the embedding
    convention is validated against the residual bound, trying sign flips
    before giving up.
    """
    spectrum = standard_eigenvalues(A)
    entry = spectrum.closest(value)
    if abs(entry.value - value) > EIG_CLUSTER_TOL:
        raise NotAnEigenvalue(f"{value:.6g} is not a standard eigenvalue of A")
    chi = adjoint(A)
    n = A.rows
    chi_norm = np.linalg.norm(chi, 2)
    rank_tol = max(1e-9 * chi_norm * 2 * n, 1e3 * np.finfo(float).eps * chi_norm)
    norm_a = A.sum_norm()
    best = None
    best_resid = math.inf
    for u in _kernel_vectors(chi, entry.value, rank_tol):
        for eta in _candidate_etas(u):
            scale = math.sqrt(eta.frobenius_sq())
            if scale < 1e-300:
                continue
            eta = eta * (1.0 / scale)
            resid = _eig_residual(A, eta, entry.value)
            if resid < best_resid:
                best, best_resid = eta, resid
    if best is None or best_resid > resid_tol * max(1.0, norm_a):
        raise RecoveryFailure(
            f"eigenvector residual {best_resid:.3e} exceeds "
            f"{resid_tol * max(1.0, norm_a):.3e}")
    return best


def _independent_columns(candidates, count):
    """Greedily select `count` right-H-independent columns."""
    chosen = []
    for eta in candidates:
        trial = chosen + [eta]
        arr = np.concatenate([c.data for c in trial], axis=1)
        chi = _rect_adjoint(QMatrix(arr))
        svals = np.linalg.svd(chi, compute_uv=False)
        if svals[-1] > 1e-8 * max(1.0, svals[0]):
            chosen.append(eta)
        if len(chosen) == count:
            return chosen
    return None


def _rect_adjoint(A):
    """Adjoint layout for rectangular matrices (used for rank checks only)."""
    a1 = A.data[..., 0] + 1j * A.data[..., 1]
    a2 = A.data[..., 2] + 1j * A.data[..., 3]
    top = np.hstack([a1, a2])
    bottom = np.hstack([-a2.conj(), a1.conj()])
    return np.vstack([top, bottom])


# -- matrix exponential and logarithm ----------------------------------------


def expm(A):
    """Quaternion matrix exponential via the adjoint embedding."""
    if not A.is_square():
        raise NonSquare("expm requires a square matrix")
    return from_adjoint(expm_adjoint(adjoint(A)), project=False)


def _norm1(chi):
    """Largest absolute column sum of each matrix in a stack."""
    return np.abs(chi).sum(axis=-2).max(axis=-1)


def expm_adjoint(chi):
    """The adjoint of the exponential of each quaternion matrix whose
    adjoint is given, for one adjoint or a stack of them: projected onto the
    block form once its residue there is checked.

    Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4),
    2005): each member is scaled by its own power 2^-s so that its 1-norm is
    at most EXPM_THETA, and only the members that still need it are squared,
    so a member's result does not depend on the rest of the stack.
    """
    chi = np.asarray(chi, dtype=complex)
    A = chi.reshape((-1,) + chi.shape[-2:])
    mantissa, exponent = np.frexp(_norm1(A) / EXPM_THETA)
    # ceil(log2(norm / theta)), and no scaling for norms within theta
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    A = A * np.ldexp(1.0, -squarings)[:, None, None]
    b = _EXPM_PADE
    ident = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    # (V - U)^-1 (V + U), written so that a zero matrix gives I exactly
    R = ident + np.linalg.solve(V - U, 2.0 * U)
    for k in range(int(squarings.max(initial=0))):
        rows = np.flatnonzero(squarings > k)
        square = R[rows]
        R[rows] = square @ square
    chi_e = R.reshape(chi.shape)
    res = omega_residual(chi_e)
    if res > OMEGA_TOL:
        raise OmegaViolation(
            f"expm block-structure residue {res:.3e} exceeds {OMEGA_TOL:.1e}")
    return project_omega(chi_e)


def _log_residual_ok(B, C, tol=LOG_RESID_TOL):
    """True when expm(B) reproduces C within the residual contract; a
    candidate whose exponential leaves the block set fails it."""
    try:
        return (expm(B) - C).sum_norm() <= tol * max(1.0, C.sum_norm())
    except OmegaViolation:
        return False


@functools.cache
def _log_pade_rule():
    # built on first use: leggauss calls LAPACK, whose start-up would
    # otherwise add about 1 MB to every process that imports this module
    nodes, weights = np.polynomial.legendre.leggauss(LOG_PADE[0])
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _sqrtm(X):
    """Principal square root of X by the product-form Denman-Beavers
    iteration with determinant scaling (Higham, Functions of Matrices,
    ch. 6), or None when it does not converge in SQRTM_STEPS steps."""
    d = X.shape[-1]
    ident = np.eye(d)
    M, Y = X, X
    for _ in range(SQRTM_STEPS):
        distance = _norm1(M - ident)
        M_inv = np.linalg.inv(M)
        mu2 = math.exp(-np.linalg.slogdet(M)[1] / d)
        Y = 0.5 * math.sqrt(mu2) * Y @ (ident + M_inv / mu2)
        M = 0.5 * ident + 0.25 * (mu2 * M + M_inv / mu2)
        # the step from M within SQRTM_TOL of I squares that distance
        if distance <= SQRTM_TOL:
            return Y
        if not math.isfinite(distance):
            return None
    return None


def _principal_log(C):
    """The principal logarithm of C, from its adjoint, or None when the
    iterations do not converge or the result is not finite or leaves the
    block set.

    Inverse scaling and squaring without a Schur form (Cheng, Higham,
    Kenney & Laub, SIAM J. Matrix Anal. Appl. 22(4), 2001): X = C^(1/2^k)
    by square roots until ||X - I||_1 <= theta of LOG_PADE, then
    log C = 2^k log(I + E) with E = X - I, where log(I + E) is the
    [m/m] Pade approximant, written as m-point Gauss-Legendre quadrature of
    the integral of E (I + tE)^-1 over [0, 1].
    """
    X = adjoint(C)
    ident = np.eye(X.shape[-1])
    roots = 0
    try:
        while _norm1(X - ident) > LOG_PADE[1]:
            root = _sqrtm(X) if roots < LOG_SQUARE_ROOTS else None
            if root is None:
                return None
            # the root of a quaternion matrix is one: drop the rounding
            # that leaves the block form, which later roots would amplify
            X = project_omega(root)
            roots += 1
        E = X - ident
        nodes, weights = _log_pade_rule()
        terms = np.linalg.solve(ident + nodes[:, None, None] * E,
                                np.broadcast_to(E, (len(nodes),) + E.shape))
    except (np.linalg.LinAlgError, OverflowError):
        return None
    chi_l = np.tensordot(weights, terms, axes=1) * 2.0 ** roots
    if not omega_residual(chi_l) <= OMEGA_TOL:    # nan fails too
        return None
    return from_adjoint(chi_l)


def _standard_log(value):
    # principal complex log of a standard eigenvalue: argument in [0, pi]
    v = complex(value.real, max(value.imag, 0.0))
    return cmath.log(v)


def _log_by_diagonalization(C, spectrum):
    """S diag(log lambda) S^-1 for diagonalizable C."""
    if any(e.geometric_multiplicity < e.algebraic_multiplicity for e in spectrum):
        return None
    n = C.rows
    chi = adjoint(C)
    chi_norm = np.linalg.norm(chi, 2)
    rank_tol = max(1e-9 * chi_norm * 2 * n, 1e4 * np.finfo(float).eps * chi_norm)
    columns = []
    diag_vals = []
    for entry in spectrum:
        candidates = []
        for u in _kernel_vectors(chi, entry.value, rank_tol):
            best, best_resid = None, math.inf
            for eta in _candidate_etas(u):
                scale = math.sqrt(eta.frobenius_sq())
                if scale < 1e-300:
                    continue
                eta = eta * (1.0 / scale)
                resid = _eig_residual(C, eta, entry.value)
                if resid < best_resid:
                    best, best_resid = eta, resid
            if best is not None:
                candidates.append(best)
                if abs(entry.value.imag) <= 1e-12:
                    # real class: eta * j is an eigenvector too
                    candidates.append(best.scale_right(Quaternion(0, 0, 1, 0)))
        picked = _independent_columns(candidates, entry.algebraic_multiplicity)
        if picked is None:
            return None
        columns.extend(picked)
        diag_vals.extend([_standard_log(entry.value)] * entry.algebraic_multiplicity)
    arr = np.concatenate([c.data for c in columns], axis=1)
    S = QMatrix(arr)
    chi_s = adjoint(S)
    svals = np.linalg.svd(chi_s, compute_uv=False)
    if svals[-1] < 1e-10 * max(1.0, svals[0]):
        return None
    try:
        s_inv = inv(S)
    except Singular:
        return None
    return S @ QMatrix.diag(diag_vals) @ s_inv


def _rotation_to_complex(q):
    """Unit quaternion w with conj(w) * q * w complex (Im >= 0)."""
    vec_norm = math.hypot(q.q1, q.q2, q.q3)
    if vec_norm < 1e-14 * max(1.0, abs(q)):
        return Quaternion(1.0)
    u = Quaternion(0.0, q.q1 / vec_norm, q.q2 / vec_norm, q.q3 / vec_norm)
    # solve u w = w i: w conjugates the vector direction onto +i
    unit_i = Quaternion(0.0, 1.0, 0.0, 0.0)
    system = np.zeros((4, 4))
    for col, basis in enumerate((Quaternion(1), Quaternion(0, 1, 0, 0),
                                 Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1))):
        image = u * basis - basis * unit_i
        system[:, col] = image.components()
    _, _, vh = np.linalg.svd(system)
    w = Quaternion(*vh[-1])
    return w * (1.0 / abs(w))


def quaternion_schur(A):
    """Unitary triangularization A = U T U^dagger with complex diagonal.

    T is upper triangular; its diagonal entries are the standard eigenvalues
    (as complex numbers) in ascending (Re, Im) order, which keeps repeated
    classes adjacent for the block logarithm.
    """
    n = A.rows
    t = A.data.copy()
    u = QMatrix.identity(n).data.copy()
    for k in range(n - 1):
        sub = QMatrix(t[k:, k:, :].copy())
        spec = standard_eigenvalues(sub)
        target = min(spec.values(), key=lambda v: (v.real, v.imag))
        chi = adjoint(sub)
        m = sub.rows
        chi_norm = np.linalg.norm(chi, 2)
        rank_tol = max(1e-9 * chi_norm * 2 * m, 1e4 * np.finfo(float).eps * chi_norm)
        kernel = _kernel_vectors(chi, target, rank_tol)
        best, best_resid = None, math.inf
        for vec in kernel:
            for eta in _candidate_etas(vec):
                scale = math.sqrt(eta.frobenius_sq())
                if scale < 1e-300:
                    continue
                eta = eta * (1.0 / scale)
                resid = _eig_residual(sub, eta, target)
                if resid < best_resid:
                    best, best_resid = eta, resid
        basis = _complete_unitary(best, m)
        v = QMatrix(np.concatenate([b.data for b in basis], axis=1))
        # similarity by diag(I_k, v)
        sub_new = v.dagger() @ sub @ v
        t[k:, k:, :] = sub_new.data
        if k:
            strip = QMatrix(t[:k, k:, :].copy()) @ v
            t[:k, k:, :] = strip.data
        u_strip = QMatrix(u[:, k:, :].copy()) @ v
        u[:, k:, :] = u_strip.data
    # the trailing 1x1 block is only similar to its standard eigenvalue:
    # rotate it into the complex plane with a scalar unitary similarity
    last = Quaternion(*t[n - 1, n - 1])
    w = _rotation_to_complex(last)
    w_conj = Quaternion(w.q0, -w.q1, -w.q2, -w.q3)
    t[n - 1, n - 1, :] = (w_conj * last * w).components()
    for i in range(n - 1):
        t[i, n - 1, :] = (Quaternion(*t[i, n - 1]) * w).components()
    for i in range(n):
        u[i, n - 1, :] = (Quaternion(*u[i, n - 1]) * w).components()
    # wipe the (tiny) strictly lower triangle left by rounding
    lower_resid = 0.0
    for i in range(n):
        for j in range(i):
            lower_resid = max(lower_resid, float(np.linalg.norm(t[i, j])))
            t[i, j, :] = 0.0
    # diagonal entries are standard eigenvalues: drop their j/k rounding dust
    for i in range(n):
        t[i, i, 2:] = 0.0
    log.debug("schur strictly-lower residue %.3e", lower_resid)
    return QMatrix(u), QMatrix(t)


def _complete_unitary(first_column, m):
    """Extend a unit quaternion column to an orthonormal basis of H^m."""
    basis = [first_column]
    pool = [QMatrix.column([Quaternion(1.0 if r == c else 0.0) for r in range(m)])
            for c in range(m)]
    for cand in pool:
        v = cand
        for _ in range(2):  # two Gram-Schmidt passes for orthogonality
            for b in basis:
                coeff = (b.dagger() @ v)[0, 0]
                v = v - b.scale_right(coeff)
        scale = math.sqrt(v.frobenius_sq())
        if scale < 1e-8:
            continue
        basis.append(v * (1.0 / scale))
        if len(basis) == m:
            break
    return basis


def _block_boundaries(diag_values):
    bounds = [0]
    for m in range(1, len(diag_values)):
        if abs(diag_values[m] - diag_values[m - 1]) > EIG_CLUSTER_TOL:
            bounds.append(m)
    bounds.append(len(diag_values))
    return bounds


def _is_negative_real(value):
    return value.real < 0 and abs(value.imag) <= NEG_AXIS_TOL * max(1.0, abs(value))


def _commuting_directions(L1, scale):
    """Unit pure directions u_m with diag(u) L1 = L1 diag(u), or None.

    Each significant entry x = L1[a, b] imposes u_a x = x u_b, so directions
    propagate along a spanning tree as u_b = w_b^-1 u_root w_b; every extra
    edge closes a cycle whose word must commute with u_root, pinning the
    root direction to the cycle word's vector part.
    """
    m = L1.rows
    one = Quaternion(1.0)
    edges = [(a, b, L1[a, b]) for a in range(m) for b in range(a + 1, m)
             if abs(L1[a, b]) > 1e-9 * scale]
    words = [None] * m          # u_node = word^-1 u_root word per component
    component = [None] * m
    forced = {}                 # component root -> forced vector direction
    for root in range(m):
        if component[root] is not None:
            continue
        component[root] = root
        words[root] = one
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for a, b, x in edges:
                if a == node and component[b] is None:
                    component[b] = root
                    words[b] = words[a] * x
                    frontier.append(b)
                elif b == node and component[a] is None:
                    component[a] = root
                    words[a] = words[b] / x
                    frontier.append(a)
    for a, b, x in edges:
        # cycle closure: u_root must commute with w_a x w_b^-1
        cycle = words[a] * x / words[b]
        vec = (cycle.q1, cycle.q2, cycle.q3)
        vec_norm = math.hypot(*vec)
        if vec_norm <= 1e-9 * max(1.0, abs(cycle)):
            continue  # real cycle word commutes with everything
        direction = Quaternion(0.0, *(c / vec_norm for c in vec))
        root = component[a]
        if root in forced:
            if abs(forced[root] - direction) > 1e-6 \
                    and abs(forced[root] + direction) > 1e-6:
                return None  # incompatible cycle constraints
        else:
            forced[root] = direction
    unit_i = Quaternion(0.0, 1.0, 0.0, 0.0)
    directions = []
    for node in range(m):
        root_dir = forced.get(component[node], unit_i)
        w = words[node]
        candidate = (1.0 / w) * root_dir * w
        vec_norm = candidate.vec_norm()
        if vec_norm < 0.5:  # words are invertible, so this cannot collapse
            return None
        directions.append(Quaternion(0.0, candidate.q1 / vec_norm,
                                     candidate.q2 / vec_norm,
                                     candidate.q3 / vec_norm))
    return directions


def _log_negative_real_block(T_b, radius):
    """Quaternion log of a triangular block with uniform eigenvalue -radius.

    Peels the block as (-radius*I) * U with U unipotent: the log is
    ln(radius)*I + pi*diag(u_m) + log(U) where the pure-unit directions u_m
    are chosen so the diagonal rotation commutes with log(U).
    """
    m = T_b.rows
    U_b = T_b * (-1.0 / radius)
    L1 = _principal_log(U_b)
    if L1 is None:
        return None
    directions = _commuting_directions(L1, max(1.0, L1.max_abs()))
    if directions is None:
        return None
    rotation = QMatrix.diag([d * math.pi for d in directions])
    return QMatrix.diag([math.log(radius)] * m) + rotation + L1


def _frechet_action(B, E):
    """Directional derivative of expm at B along E (block-matrix identity)."""
    n = B.rows
    arr = np.zeros((2 * n, 2 * n, 4))
    arr[:n, :n, :] = B.data
    arr[n:, n:, :] = B.data
    arr[:n, n:, :] = E.data
    return expm(QMatrix(arr)).submatrix(0, n, n, 2 * n)


def _newton_polish(B0, C, max_iter=12):
    """Gauss-Newton correction of an approximate logarithm.

    The derivative of expm is singular where eigenvalues of the candidate
    differ by 2*pi*i (exactly the interesting negative-real cases), so each
    step is a least-squares solve; the best iterate is returned.
    """
    n = C.rows
    dim = 4 * n * n
    basis = []
    for p in range(n):
        for q in range(n):
            for a in range(4):
                arr = np.zeros((n, n, 4))
                arr[p, q, a] = 1.0
                basis.append(QMatrix(arr))
    best, best_resid = B0, (expm(B0) - C).sum_norm()
    B = B0
    for _ in range(max_iter):
        residual = C - expm(B)
        resid_norm = residual.sum_norm()
        if resid_norm < best_resid:
            best, best_resid = B, resid_norm
        if resid_norm <= 1e-14 * max(1.0, C.sum_norm()):
            break
        jac = np.zeros((dim, dim))
        for col, E in enumerate(basis):
            jac[:, col] = _frechet_action(B, E).data.ravel()
        step, *_ = np.linalg.lstsq(jac, residual.data.ravel(), rcond=None)
        if not np.all(np.isfinite(step)) or np.abs(step).max() > 1e3:
            break
        B = B + QMatrix(step.reshape((n, n, 4)))
    final = (expm(B) - C).sum_norm()
    return B if final < best_resid else best


def _phi_matrix(L_ii, L_jj):
    """Real matrix of X -> expm([[L_ii, X], [0, L_jj]]) top-right block."""
    ni, nj = L_ii.rows, L_jj.rows
    dim = 4 * ni * nj
    phi = np.zeros((dim, dim))
    for p in range(ni):
        for q in range(nj):
            for a in range(4):
                arr = np.zeros((ni + nj, ni + nj, 4))
                arr[:ni, :ni, :] = L_ii.data
                arr[ni:, ni:, :] = L_jj.data
                arr[p, ni + q, a] = 1.0
                big = expm(QMatrix(arr))
                block = big.data[:ni, ni:, :]
                phi[:, (p * nj + q) * 4 + a] = block.ravel()
    return phi


def _log_triangular(T, diag_values):
    """Upper-triangular quaternion log of a triangular T, block by block."""
    n = T.rows
    bounds = _block_boundaries(diag_values)
    nblocks = len(bounds) - 1
    L = np.zeros((n, n, 4))
    block_logs = []
    for bidx in range(nblocks):
        r0, r1 = bounds[bidx], bounds[bidx + 1]
        T_b = T.submatrix(r0, r1, r0, r1)
        value = diag_values[r0]
        if _is_negative_real(value):
            L_b = _log_negative_real_block(T_b, abs(value.real))
            if L_b is None:
                return None
            log.debug("negative-real branch used for eigenvalue %.6g", value)
        else:
            L_b = _principal_log(T_b)
            if L_b is None:
                return None
        L[r0:r1, r0:r1, :] = L_b.data
        block_logs.append(L_b)
    for span in range(1, nblocks):
        for bi in range(nblocks - span):
            bj = bi + span
            r0, r1 = bounds[bi], bounds[bi + 1]
            c0, c1 = bounds[bj], bounds[bj + 1]
            current = expm(QMatrix(L.copy()))
            resid = T.submatrix(r0, r1, c0, c1) - current.submatrix(r0, r1, c0, c1)
            phi = _phi_matrix(block_logs[bi], block_logs[bj])
            x, *_ = np.linalg.lstsq(phi, resid.data.ravel(), rcond=None)
            L[r0:r1, c0:c1, :] = x.reshape((r1 - r0, c1 - c0, 4))
    return QMatrix(L)


def logm(C):
    """A quaternion logarithm: returns B with expm(B) = C.

    The principal adjoint logarithm is used when the spectrum avoids the
    closed negative real axis.  Otherwise quaternion-aware fallbacks run:
    diagonalization through right eigenvectors, then a Schur triangularization
    with per-class branch handling for repeated negative-real eigenvalues.
    """
    if not C.is_square():
        raise NonSquare("logm requires a square matrix")
    n = C.rows
    chi = adjoint(C)
    svals = np.linalg.svd(chi, compute_uv=False)
    if svals[-1] <= 1e-12 * max(1.0, svals[0]):
        raise Singular(
            f"qdet {qdet(C):.3e}: adjoint condition {svals[0]:.3e}/{svals[-1]:.3e} "
            "treats the matrix as singular")

    try:
        spectrum = standard_eigenvalues(C)
    except PairingFailure as exc:
        raise LogFailure(f"standard spectrum unavailable: {exc}") from exc
    near_negative_axis = any(_is_negative_real(e.value) for e in spectrum)

    if not near_negative_axis:
        B = _principal_log(C)
        if B is not None and _log_residual_ok(B, C):
            return B

    log.debug("quaternion-aware logarithm branch engaged")
    B = _log_by_diagonalization(C, spectrum)
    if B is not None and _log_residual_ok(B, C):
        return B

    candidates = []
    try:
        U, T = quaternion_schur(C)
        diag_values = [complex(T.data[m, m, 0], T.data[m, m, 1])
                       for m in range(n)]
        L = _log_triangular(T, diag_values)
        if L is not None:
            candidates.append(U @ L @ U.dagger())
    except (OmegaViolation, PairingFailure):
        pass
    if B is not None:
        candidates.append(B)
    for candidate in candidates:
        if _log_residual_ok(candidate, C):
            return candidate
    # last resort: polish the closest candidate through the expm derivative
    for candidate in candidates:
        try:
            polished = _newton_polish(candidate, C)
        except OmegaViolation:
            continue
        if _log_residual_ok(polished, C):
            log.debug("logarithm accepted after least-squares polishing")
            return polished
    raise LogFailure("no quaternion logarithm met the residual contract")


def spectral_map_check(A, tol=EIG_CLUSTER_TOL):
    """True when the standard spectrum of expm(A) equals the exponentials of
    the standard spectrum of A (as multisets, standardized)."""
    lhs = []
    for value in standard_eigenvalues(A).expanded():
        image = cmath.exp(value)
        lhs.append(complex(image.real, abs(image.imag)))
    rhs = standard_eigenvalues(expm(A)).expanded()
    if len(lhs) != len(rhs):
        return False
    remaining = list(rhs)
    for value in lhs:
        best = min(range(len(remaining)), key=lambda m: abs(remaining[m] - value))
        if abs(remaining[best] - value) > tol * max(1.0, abs(value)):
            return False
        remaining.pop(best)
    return True
