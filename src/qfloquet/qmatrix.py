"""Dense quaternion matrices via the complex-adjoint embedding.

A quaternion matrix A splits uniquely as A = A1 + A2*j with A1, A2 complex;
its 2n x 2n complex adjoint is the block matrix [[A1, A2], [-conj(A2),
conj(A1)]].  The embedding is an algebra homomorphism, so determinants,
eigenvalues, exponentials and logarithms of quaternion matrices are computed
on the adjoint and mapped back.  Right eigenvalues are reported through their
standard (complex, nonnegative imaginary part) representatives.

A QMatrix holds the top block row [A1, A2] alone, as one complex array; the
rest of the adjoint follows from it (`adjoints`).  A product is that row
times the other factor's adjoint, and sums, conjugates and norms act on the
row.  Real (rows, cols, 4) quaternion components are met only at the edges:
`top_rows` converts them in (the `QMatrix(data)` constructor) and
`components` converts back (`QMatrix.data`, reports).

The exponential and the principal logarithm are numpy code: Pade-13
scaling and squaring with a scaling power per member of a stack
(`expm_adjoint`), and inverse scaling and squaring through Denman-Beavers
square roots and a Gauss-Legendre form of the Pade approximant
(`_principal_log`).  Nothing here needs SciPy.

Right eigenvectors come from one helper (`_eigenvector`), which lifts an
adjoint kernel vector and, for a real eigenvalue, fixes its quaternion
phase.  `logm` has two routes, the principal logarithm and a Schur route
for eigenvalues on or next to the negative real axis; the phase rule makes
the direction of log(-1) that the Schur route picks independent of
rounding.  The Schur route is one block Schur-Parlett pass: the matrix is
triangularized in the order of its one standard spectrum, each spectrum
entry's run of the diagonal is one block with its own log, and each
off-diagonal block of the log solves a Sylvester equation on the adjoints.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .quaternion import J, Quaternion, conj

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
# logm, and characteristic_multipliers for M(T), treat a matrix as singular
# when its adjoint's smallest singular value is within this factor of
# max(1, largest)
SINGULAR_TOL = 1e-12
# an eigenvalue this close (relatively) to the negative real axis sends logm
# down the Schur route first: the principal log's square roots lose accuracy
# there, and miss the residual contract for about a third of diagonalizable
# pairs within 1e-4 of the axis
NEG_AXIS_TOL = 1e-3

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
    """The recovered eigenvector did not meet the residual bound."""


class OmegaViolation(ArithmeticError):
    """Result of an adjoint-level operation left the quaternion block set."""


class Singular(ArithmeticError):
    """Matrix is singular (or too ill-conditioned to treat as invertible)."""


class LogFailure(ArithmeticError):
    """No quaternion logarithm satisfying the residual contract was found."""


def _as_components(value):
    if isinstance(value, Quaternion):
        return value.components()
    if isinstance(value, complex):
        return (value.real, value.imag, 0.0, 0.0)
    if isinstance(value, (int, float)):
        return (float(value), 0.0, 0.0, 0.0)
    raise TypeError(f"cannot interpret {value!r} as a quaternion entry")


def top_rows(data):
    """(..., r, 2c) top block rows [A1, A2] of the adjoints of the quaternion
    matrices with (..., r, c, 4) components: the one conversion from
    components (the inverse of `components`)."""
    pairs = np.ascontiguousarray(data, dtype=float).view(complex)
    return np.concatenate([pairs[..., 0], pairs[..., 1]], axis=-1)


def components(top):
    """(..., r, c, 4) quaternion components of (..., r, 2c) top block rows:
    the one conversion to components."""
    c = top.shape[-1] // 2
    return np.stack([top[..., :c], top[..., c:]], axis=-1).view(float)


def adjoints(top):
    """(..., 2r, 2c) complex adjoints [[A1, A2], [-conj(A2), conj(A1)]] of
    (..., r, 2c) top block rows [A1, A2]."""
    c = top.shape[-1] // 2
    bottom = np.concatenate([-top[..., c:].conj(), top[..., :c].conj()],
                            axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _block_cols(n, c0, c1):
    """The columns of an n-column matrix's top block row that hold its
    columns c0:c1."""
    return [*range(c0, c1), *range(n + c0, n + c1)]


def _moduli(top):
    # entry moduli |a1 + a2 j| = hypot(|a1|, |a2|), finite wherever the
    # modulus is
    c = top.shape[-1] // 2
    return np.hypot(np.abs(top[..., :c]), np.abs(top[..., c:]))


class QMatrix:
    """Dense matrix of quaternions A = A1 + A2 j, stored as the top block row
    [A1, A2] of its complex adjoint: an (rows, 2 cols) complex array.

    `QMatrix(data)` builds one from (rows, cols, 4) real components and
    `QMatrix(top=row)` from a top block row; `.data` derives the components.
    Instances are treated as immutable; arithmetic returns new matrices.
    """

    __slots__ = ("top",)

    def __init__(self, data=None, *, top=None):
        if top is None:
            data = np.asarray(data, dtype=float)
            if data.ndim != 3 or data.shape[2] != 4:
                raise ValueError("QMatrix data must have shape (rows, cols, 4)")
            top = top_rows(data)
        self.top = np.ascontiguousarray(top, dtype=complex)
        if self.top.ndim != 2 or self.top.shape[1] % 2:
            raise ValueError("a top block row has shape (rows, 2 cols)")
        self.top.flags.writeable = False

    @property
    def data(self):
        """The (rows, cols, 4) real quaternion components, read-only."""
        data = components(self.top)
        data.flags.writeable = False
        return data

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(rows, cols=None):
        cols = rows if cols is None else cols
        return QMatrix(top=np.zeros((rows, 2 * cols), dtype=complex))

    @staticmethod
    def identity(n):
        return QMatrix(top=np.eye(n, 2 * n, dtype=complex))

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
        return QMatrix.from_entries([[v if i == j else 0.0 for j in range(n)]
                                     for i, v in enumerate(values)])

    @staticmethod
    def column(values):
        return QMatrix.from_entries([[v] for v in values])

    @staticmethod
    def from_complex(array):
        """Embed a complex matrix entrywise (q2 = q3 = 0)."""
        array = np.asarray(array, dtype=complex)
        return QMatrix(top=np.concatenate([array, np.zeros_like(array)], axis=1))

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self):
        return self.top.shape[0]

    @property
    def cols(self):
        return self.top.shape[1] // 2

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    def _halves(self):
        return self.top[:, :self.cols], self.top[:, self.cols:]

    def __getitem__(self, index):
        i, j = index
        a1, a2 = self.top[i, j], self.top[i, self.cols + j]
        return Quaternion(a1.real, a1.imag, a2.real, a2.imag)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows))
        return f"QMatrix[{body}]"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return QMatrix(top=self.top + other.top)

    def __sub__(self, other):
        return QMatrix(top=self.top - other.top)

    def __neg__(self):
        return QMatrix(top=-self.top)

    def __mul__(self, scalar):
        # real scalars commute with every quaternion, so one-sided is enough;
        # scaling the real and imaginary parts alone keeps inf * 0 out
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return QMatrix(top=(self.top.view(float) * float(scalar)).view(complex))

    __rmul__ = __mul__

    def __matmul__(self, other):
        # the top block row of adjoint(A) adjoint(B)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return QMatrix(top=self.top @ adjoints(other.top))

    def scale_right(self, q):
        """Right multiplication A * q by a quaternion scalar q = z1 + z2 j."""
        q0, q1, q2, q3 = _as_components(q)
        z1, z2 = complex(q0, q1), complex(q2, q3)
        a1, a2 = self._halves()
        return QMatrix(top=np.concatenate(
            [a1 * z1 - a2 * z2.conjugate(), a1 * z2 + a2 * z1.conjugate()],
            axis=1))

    def dagger(self):
        """Conjugate transpose."""
        a1, a2 = self._halves()
        return QMatrix(top=np.concatenate([a1.conj().T, -a2.T], axis=1))

    def trace(self):
        if not self.is_square():
            raise NonSquare("trace of a non-square matrix")
        a1, a2 = (np.trace(half) for half in self._halves())
        return Quaternion(a1.real, a1.imag, a2.real, a2.imag)

    def re_trace(self):
        return float(self.trace().q0)

    def abs_entries(self):
        """Entry moduli |a1 + a2 j| = hypot(|a1|, |a2|), the formula of
        `sum_norms`, finite wherever the modulus is."""
        return _moduli(self.top)

    def sum_norm(self):
        """Entrywise sum norm: sum of the moduli of all entries."""
        return float(self.abs_entries().sum())

    def frobenius_sq(self):
        """Squared Frobenius norm: sum of squared entry moduli."""
        return float((self.top.view(float) ** 2).sum())

    def max_abs(self):
        return float(self.abs_entries().max()) if self.top.size else 0.0

    def submatrix(self, r0, r1, c0, c1):
        return QMatrix(top=self.top[r0:r1, _block_cols(self.cols, c0, c1)])


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
    return adjoints(A.top)


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


def _projected_top(chi):
    # the top block row of the nearest quaternion block form
    r, c = chi.shape[-2] // 2, chi.shape[-1] // 2
    a1 = 0.5 * (chi[..., :r, :c] + chi[..., r:, c:].conj())
    a2 = 0.5 * (chi[..., :r, c:] - chi[..., r:, :c].conj())
    return np.concatenate([a1, a2], axis=-1)


def project_omega(chi):
    """Average the redundant blocks onto the exact quaternion block form
    (of each matrix in a stack)."""
    return adjoints(_projected_top(chi))


def from_adjoint(chi, project=True):
    """The QMatrix of a quaternion-structured 2n x 2n complex matrix: its
    top block row, after averaging the redundant blocks unless `project` is
    false."""
    return QMatrix(top=_projected_top(chi) if project
                   else chi[:chi.shape[-1] // 2])


def quaternion_data(chi):
    """(..., n, n, 4) quaternion components of a (..., 2n, 2n) stack of
    adjoints, read from their top block row [A1, A2]."""
    return components(chi[..., :chi.shape[-1] // 2, :])


def sum_norms(chi):
    """Entrywise sum norm of the quaternion matrix behind each adjoint in a
    (..., 2n, 2n) stack, read from its top block row; a (..., n, 2n) stack
    of top block rows gives the same."""
    return _moduli(chi[..., :chi.shape[-1] // 2, :]).sum(axis=(-2, -1))


def embed_vector(x):
    """Complex 2n-vector representing the quaternion column x = x1 + x2*j:
    the first column of its adjoint."""
    return np.concatenate([x.top[:, 0], -x.top[:, 1].conj()])


def lift_vector(u):
    """Quaternion column for a complex 2n-vector (inverse of embed_vector)."""
    n = u.shape[0] // 2
    return QMatrix(top=np.stack([u[:n], -u[n:].conj()], axis=1))


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
    distinct values with algebraic and geometric multiplicities, and the
    singular values of its adjoint when they were computed with them."""

    def __init__(self, entries, singular_values=None):
        self.entries = sorted(entries, key=lambda e: (e.value.real, e.value.imag))
        self.singular_values = singular_values

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
    """Pair each member's 2n adjoint eigenvalues, a row of `eigs`, into
    conjugates within the member's tolerance `tau`.  Returns the (B, n)
    array of representatives with nonnegative imaginary part, and a dict
    {member: PairingFailure} of the members that cannot be paired.

    The upper-half values, in order of (real, imag), each take the nearest
    lower-half value still unpaired (the first in `eigs`' order on a tie),
    one step per pair over the whole stack; the real values pair off in
    order of their real parts, and follow the upper-half ones.  A
    representative is the mean of its pair, 0.5 * w + 0.5 * conj(partner),
    which numpy's complex product forms as Python's does but for the sign
    of a zero; no such sign reaches a spectrum (see `_standard_spectra`).
    """
    size, width = eigs.shape
    n = width // 2
    rows = np.arange(size)
    column, pair = rows[:, None], np.arange(n)
    re, im = eigs.real, eigs.imag
    bound = tau[:, None]
    upper, lower, real = im > bound, im < -bound, np.abs(im) <= bound
    above, below = upper.sum(axis=1), lower.sum(axis=1)
    reals = real.sum(axis=1)
    # equal counts above and below, and n pairs in all, leave an even
    # number of real values
    bad = (above != below) | (above + reals // 2 != n)
    reps = np.zeros((size, n), dtype=complex)
    far = apart = None
    most = above.max(initial=0)
    if most:
        w = eigs[column, np.lexsort((im, re, ~upper))[:, :n]]
        gap = eigs[:, None, :] - w.conj()[:, :, None]
        distances = np.hypot(gap.real, gap.imag)
        # lexsort on (distance, taken) gives the first free lower-half
        # value at the least distance, as min() does, an overflowed one too
        taken = ~lower
        partner = np.zeros((size, n), dtype=int)
        for k in range(min(n, most)):
            partner[:, k] = best = np.lexsort((distances[:, k], taken))[:, 0]
            taken[rows, best] = True
        far = (pair < above[:, None]) \
            & (distances[column, pair, partner] > bound)
        bad |= far.any(axis=1)
        reps = 0.5 * w + 0.5 * eigs[column, partner].conj()
    if reals.any():
        ordered = re[column, np.lexsort((re, ~real))]
        a, b = ordered[:, 0::2], ordered[:, 1::2]
        apart = (pair < reals[:, None] // 2) & (np.abs(a - b) > bound)
        bad |= apart.any(axis=1)
        index = pair - above[:, None]
        reps = np.where(index < 0, reps,
                        (0.5 * a + 0.5 * b)[column, np.maximum(index, 0)])
    failures = {}
    for row in bad.nonzero()[0].tolist():
        if above[row] != below[row]:
            message = (f"{above[row]} eigenvalues above the real axis vs "
                       f"{below[row]} below")
        elif far is not None and far[row].any():
            message = (f"no conjugate partner for "
                       f"{complex(w[row, far[row].argmax()]):.6g} within "
                       f"{tau[row]:.3e}")
        elif reals[row] % 2:
            message = "odd number of real adjoint eigenvalues"
        elif apart is not None and apart[row].any():
            k = apart[row].argmax()
            message = (f"unpaired real eigenvalues {a[row, k]:.6g}, "
                       f"{b[row, k]:.6g}")
        else:
            message = (f"paired down to {above[row] + reals[row] // 2} "
                       f"values, expected {n}")
        failures[row] = PairingFailure(message)
    return reps, failures


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


def standard_eigenvalues(A, singular_tol=None):
    """Standard spectrum of a square quaternion matrix, or of each matrix in
    a stack of adjoints.

    `A` is a QMatrix, whose StandardSpectrum is returned, or a (B, 2n, 2n)
    stack of complex adjoints, for which a list is returned with one entry
    per member: its StandardSpectrum, or the exception that ended it
    (PairingFailure, Singular, or LinAlgError for a non-finite member).  A
    single matrix is a stack of one, so a member's entry is the same, bit
    for bit, in a stack of any size.

    One SVD and one eigenvalue call serve the whole stack.  The 2n adjoint
    eigenvalues are paired into conjugates, the n upper-half
    representatives are clustered into distinct values, and geometric
    multiplicities are read
    off the adjoint kernel dimensions (halved for real eigenvalues, whose
    kernel sees both conjugate blocks); a simple eigenvalue has gm = 1.
    The largest singular value is ||chi||_2 for the rank tests and the split
    rule.  With `singular_tol`, a member whose adjoint has its smallest
    singular value within singular_tol * max(1, ||chi||_2) of zero is
    Singular.
    """
    if not isinstance(A, QMatrix):
        chi = np.asarray(A, dtype=complex)
        if chi.ndim != 3 or chi.shape[1] != chi.shape[2] or chi.shape[1] % 2:
            raise NonSquare("eigenvalues need a (B, 2n, 2n) stack of adjoints")
        return _standard_spectra(chi, singular_tol)
    if not A.is_square():
        raise NonSquare("eigenvalues of a non-square matrix")
    (spectrum,) = _standard_spectra(adjoint(A)[None], singular_tol)
    if isinstance(spectrum, Exception):
        raise spectrum
    return spectrum


def _standard_spectra(chi, singular_tol):
    """`standard_eigenvalues` of a (B, 2n, 2n) stack.  LAPACK rejects a
    non-finite matrix, so such a member is left out of the stacked calls and
    fails alone with the LinAlgError that its own call would raise.

    Pairing and clustering are array operations over the stack that loop
    over the n representatives, not over members, and reproduce the
    per-member Python arithmetic they replace: each distinct value is the
    mean of its cluster, summed in index order from 0 and divided by the
    count as Python's complex quotient does, (re + 0.0 im) / count and
    (im - 0.0 re) / count.  That quotient turns the sign of a zero real
    part positive, as the imaginary parts are never negative, so a zero's
    sign in a representative never reaches a spectrum, and a member's
    spectrum is the same, bit for bit, in a stack of any size.  Only a
    repeated value takes a nullity SVD, and only members with n >= 3 whose
    values lie close enough for the split rule take `_unresolved_split`
    and their eigenvectors."""
    finite = np.isfinite(chi).all(axis=(-2, -1))
    outcomes = [None if ok else np.linalg.LinAlgError(
        "Array must not contain infs or NaNs") for ok in finite.tolist()]
    members = finite.nonzero()[0]
    if len(members) < len(chi):
        chi = chi[members]
    size, n = len(chi), chi.shape[-1] // 2
    svals = np.linalg.svd(chi, compute_uv=False)
    # eigenvectors serve the split rule alone; LAPACK's eigenvalues are the
    # same, bit for bit, with or without them
    eigs = np.linalg.eigvals(chi)
    chi_norm = svals[:, 0]
    # silent on values that overflow, as the Python arithmetic below is
    with np.errstate(all="ignore"):
        # np.fmax takes 1.0 over nan, as max(1.0, x) does
        tau = 1e-7 * np.fmax(1.0, sum_norms(chi))
        reps, failures = _pair_adjoint_eigenvalues(eigs, tau)
        # a finite matrix near the float limit can have eigenvalues that
        # overflow; no rule below can read them
        for m in (~np.isfinite(eigs).all(axis=1)).nonzero()[0].tolist():
            failures.setdefault(m, PairingFailure(
                "the adjoint's eigenvalues are not finite"))
        if singular_tol is not None:
            singular = svals[:, -1] <= singular_tol * np.fmax(1.0, chi_norm)
            for m in singular.nonzero()[0].tolist():
                failures[m] = Singular(
                    f"adjoint condition {chi_norm[m]:.3e}/{svals[m, -1]:.3e}"
                    " treats the matrix as singular")
        gap = reps[:, :, None] - reps[:, None, :]
        distance = np.hypot(gap.real, gap.imag)
        if n >= 3:
            # a split needs two of a member's values farther apart than
            # EIG_CLUSTER_TOL yet within the widest link of the split rule
            eps = np.finfo(float).eps
            reach = max(EIG_SPLIT_FACTOR * eps ** (1.0 / m) for m in range(
                3, min(n, EIG_SPLIT_LONGEST) + 1)) * chi_norm
            near = (distance > EIG_CLUSTER_TOL) \
                & (distance <= reach[:, None, None])
            for m in near.any(axis=(1, 2)).nonzero()[0].tolist():
                split = None if m in failures else _unresolved_split(
                    reps[m].tolist(), *np.linalg.eig(chi[m]), chi_norm[m])
                if split is not None:
                    spread = max(abs(a - b) for a in split for b in split)
                    failures[m] = PairingFailure(
                        f"{len(split)} eigenvalues within {spread:.3e} of "
                        "each other may be one defective eigenvalue split "
                        "by rounding")
        # single-linkage clusters within EIG_CLUSTER_TOL: each value takes
        # the smallest index it is linked to, the index of its cluster's
        # first value; the sum of each cluster's values in index order
        linked = (distance <= EIG_CLUSTER_TOL) | np.eye(n, dtype=bool)
        position = np.arange(n)
        label = np.repeat(position[None], size, axis=0)
        for _ in range(n - 1):
            label = np.where(linked, label[:, None, :], n).min(axis=2)
        inside = label[:, None, :] == position[:, None]
        total = np.add.accumulate(np.where(inside, reps[:, None, :], 0),
                                  axis=2)[..., -1]
        am = inside.sum(axis=2)
        owner, first = np.nonzero(label == position)
        total, am = total[owner, first], am[owner, first]
        # the mean as Python's complex quotient by the count forms it
        values = np.empty(len(am), dtype=complex)
        values.real = (total.real + total.imag * 0.0) / am
        values.imag = (total.imag - total.real * 0.0) / am
        magnitude = np.abs(values.imag)
        real = magnitude <= tau[owner]
        values.imag = np.where(real, 0.0, magnitude)
    gm = np.ones(len(am), dtype=int)
    repeated = [e for e in (am > 1).nonzero()[0].tolist()
                if owner[e] not in failures]
    if repeated:
        eye = np.eye(2 * n)
        shifted = np.stack([chi[owner[e]] - (
            values[e].real if real[e] else complex(values[e])) * eye
            for e in repeated])
        rank_tol = 1e-9 * chi_norm[owner[repeated]] * (2 * n)
        kernel = (np.linalg.svd(shifted, compute_uv=False)
                  <= rank_tol[:, None]).sum(axis=1)
        gm[repeated] = np.minimum(np.maximum(
            np.where(real[repeated], np.round(kernel / 2), kernel), 1),
            am[repeated])
    entries = [[] for _ in range(size)]
    for m, value, a, g in zip(owner.tolist(), values.tolist(), am.tolist(),
                              gm.tolist()):
        entries[m].append(SpectrumEntry(value, a, g))
    for m, member in enumerate(members.tolist()):
        outcomes[member] = failures.get(m) or StandardSpectrum(entries[m],
                                                               svals[m])
    return outcomes


def _eigenvector(A, value):
    """Unit right eigenvector of A for the standard eigenvalue `value`, and
    its residual ||A eta - eta value||.

    Each kernel vector of the adjoint's shift by `value` (a right singular
    vector with negligible singular value, or the last one when there is
    none) is lifted by `lift_vector`; the one with the smallest residual is
    kept.  For a real value, eta q is an eigenvector too for every unit
    quaternion q, so q is fixed: the first component whose modulus is at
    least half the largest becomes real and positive, and rounding in A
    cannot turn the vector.
    """
    chi = adjoint(A)
    rank_tol = 1e-9 * np.linalg.norm(chi, 2) * chi.shape[0]
    _, svals, vh = np.linalg.svd(chi - value * np.eye(chi.shape[0]))
    kernel = np.flatnonzero(svals <= rank_tol).tolist() or [len(svals) - 1]
    best, best_resid = None, math.inf
    for m in kernel:
        eta = lift_vector(vh[m].conj())
        resid = (A @ eta - eta.scale_right(value)).sum_norm()
        if resid < best_resid:
            best, best_resid = eta, resid
    if value.imag == 0.0:
        moduli = best.abs_entries()[:, 0]
        first = best[int(np.argmax(moduli >= 0.5 * moduli.max())), 0]
        best = best.scale_right(conj(first) * (1.0 / abs(first)))
    return best, best_resid


def right_eigenvector(A, value, resid_tol=EIGVEC_RESID_TOL):
    """Right eigenvector for a standard eigenvalue: A @ eta = eta * value.

    The eigenvector is recovered from an adjoint kernel vector and checked
    against the residual bound; for a real eigenvalue its quaternion phase
    is fixed (see `_eigenvector`).
    """
    spectrum = standard_eigenvalues(A)
    entry = spectrum.closest(value)
    if abs(entry.value - value) > EIG_CLUSTER_TOL:
        raise NotAnEigenvalue(f"{value:.6g} is not a standard eigenvalue of A")
    eta, resid = _eigenvector(A, entry.value)
    bound = resid_tol * max(1.0, A.sum_norm())
    if not resid <= bound:
        raise RecoveryFailure(
            f"eigenvector residual {resid:.3e} exceeds {bound:.3e}")
    return eta


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


def _rotation_to_complex(q):
    """Unit quaternion w with conj(w) * q * w complex (Im >= 0).

    For the unit vector part u of q, w = (1 - u i) / |1 - u i| solves
    u w = w i, and |1 - u i|^2 = 2 (1 + u1).  When u's i-component u1 is
    negative, a similarity by j (which negates the i- and k-components)
    comes first, so |1 - u i| >= sqrt(2) and w keeps full accuracy.
    """
    vec_norm = math.hypot(q.q1, q.q2, q.q3)
    if vec_norm < 1e-14 * max(1.0, abs(q)):
        return Quaternion(1.0)
    flip = -1.0 if q.q1 < 0 else 1.0
    u1, u2, u3 = flip * q.q1 / vec_norm, q.q2 / vec_norm, flip * q.q3 / vec_norm
    # 1 - u i = (1 + u1) - u3 j + u2 k
    w = Quaternion(1.0 + u1, 0.0, -u3, u2) * (1.0 / math.sqrt(2.0 * (1.0 + u1)))
    return J * w if flip < 0 else w


def quaternion_schur(A, spectrum=None):
    """Unitary triangularization A = U T U^dagger with complex diagonal.

    T is upper triangular.  Its diagonal holds A's standard eigenvalues in
    the order of its StandardSpectrum, ascending (Re, Im), each repeated by
    its algebraic multiplicity: A is deflated one eigenvector at a time in
    that order, so each spectrum entry's run is one diagonal block of T for
    `_log_triangular`.  A value that the spectrum snapped onto the real axis
    but A only nearly has (its eigenvector misses EIGVEC_RESID_TOL) is
    deflated as the adjoint eigenvalue nearest to it, which then stands on
    the diagonal.  `spectrum`, when given, is A's StandardSpectrum;
    otherwise it is computed once here.
    """
    n = A.rows
    if spectrum is None:
        spectrum = standard_eigenvalues(A)
    t = np.array(A.top)
    u = np.eye(n, 2 * n, dtype=complex)
    for k, target in enumerate(spectrum.expanded()[:-1]):
        cols = _block_cols(n, k, n)
        sub = QMatrix(top=t[k:, cols])
        eta, resid = _eigenvector(sub, target)
        if resid > EIGVEC_RESID_TOL * max(1.0, sub.sum_norm()):
            # a pair just off the real axis, snapped onto it: deflate with
            # the eigenvalue it stands for, or the wiped lower triangle
            # would carry the distance
            eigs = np.linalg.eigvals(adjoint(sub))
            nearest = eigs[np.argmin(np.abs(eigs - target))]
            eta, _ = _eigenvector(sub, complex(nearest.real, abs(nearest.imag)))
        basis = _complete_unitary(eta, sub.rows)
        # v's columns are the basis columns, side by side
        v = QMatrix(top=np.stack([b.top for b in basis], axis=-1)
                    .reshape(sub.rows, 2 * sub.rows))
        # similarity by diag(I_k, v)
        t[:, cols] = (QMatrix(top=t[:, cols]) @ v).top
        t[k:, cols] = (v.dagger() @ QMatrix(top=t[k:, cols])).top
        u[:, cols] = (QMatrix(top=u[:, cols]) @ v).top
    # the trailing 1x1 block is only similar to its standard eigenvalue:
    # rotate it into the complex plane with a scalar unitary similarity
    w = _rotation_to_complex(QMatrix(top=t)[n - 1, n - 1])
    rotation = QMatrix.diag([1.0] * (n - 1) + [w])
    T = rotation.dagger() @ QMatrix(top=t) @ rotation
    # wipe the (tiny) strictly lower triangle left by rounding, and the j/k
    # rounding dust of the diagonal, whose entries are standard eigenvalues
    lower = np.tri(n, k=-1, dtype=bool)
    log.debug("schur strictly-lower residue %.3e",
              T.abs_entries()[lower].max(initial=0.0))
    t = np.array(T.top)
    t[:, :n][lower] = 0.0
    t[:, n:][lower | np.eye(n, dtype=bool)] = 0.0
    return QMatrix(top=u) @ rotation, QMatrix(top=t)


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


def _is_negative_real(value):
    return value.real < 0 and abs(value.imag) <= NEG_AXIS_TOL * max(1.0, abs(value))


def _commuting_directions(L1, scale):
    """Unit pure directions u_m with diag(u) L1 = L1 diag(u), or None.

    Each significant entry x = L1[a, b] imposes u_a x = x u_b, so directions
    propagate along a spanning tree as u_b = w_b^-1 u_root w_b; every extra
    edge, and every diagonal entry (a loop, which is not real when its
    eigenvalue lies off the axis), closes a cycle whose word must commute
    with u_root, pinning the root direction to the cycle word's vector part.
    """
    m = L1.rows
    one = Quaternion(1.0)
    edges = [(a, b, L1[a, b]) for a in range(m) for b in range(a, m)
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
    """Quaternion log of a triangular block whose eigenvalues lie at or
    next to -radius.

    Peels the block as (-radius*I) * U with U near unipotent: the log is
    ln(radius)*I + pi*J + log(U) for a rotation J with J^2 = -I that
    commutes with log(U).  When every diagonal entry lies above the axis
    (by more than EIGVEC_RESID_TOL, relatively), J = -i sign(-i log(U)) on
    the adjoint, with sign(X) = (X^2)^(-1/2) X, which puts each eigenvalue's
    log on its principal branch; otherwise J = diag(u_m) with pure-unit
    directions from `_commuting_directions`.
    """
    m = T_b.rows
    U_b = T_b * (-1.0 / radius)
    L1 = _principal_log(U_b)
    if L1 is None:
        return None
    if T_b.top.diagonal().imag.min() > EIGVEC_RESID_TOL * radius:
        X = -1j * adjoint(L1)
        root = _sqrtm(X @ X)
        if root is None:
            return None
        rotation = from_adjoint(-1j * np.linalg.solve(root, X)) * math.pi
    else:
        directions = _commuting_directions(L1, max(1.0, L1.max_abs()))
        if directions is None:
            return None
        rotation = QMatrix.diag([d * math.pi for d in directions])
    return QMatrix.diag([math.log(radius)] * m) + rotation + L1


def _log_triangular(T, spectrum):
    """Upper-triangular quaternion log L of the Schur factor T of a matrix
    with StandardSpectrum `spectrum`, by the block Schur-Parlett recurrence
    (Davies & Higham, SIAM J. Matrix Anal. Appl. 25(2), 2003), or None when a
    diagonal block has no log.

    Each spectrum entry's run of T's diagonal is one block, and the entry's
    value picks its log: the negative-real branch or the principal log.
    L commutes with T, so, superdiagonal by superdiagonal, each off-diagonal
    block solves the Sylvester equation
    T_ii L_ij - L_ij T_jj = L_ii T_ij - T_ij L_jj + sum_{i<k<j} (L_ik T_kj - T_ik L_kj)
    on the adjoints, which is uniquely solvable because the blocks' adjoint
    spectra are disjoint.
    """
    n = T.rows
    stops = np.cumsum([0] + [e.algebraic_multiplicity for e in spectrum]).tolist()
    blocks = list(zip(stops, stops[1:]))
    L = np.zeros((n, 2 * n), dtype=complex)
    for (r0, r1), entry in zip(blocks, spectrum):
        T_b = T.submatrix(r0, r1, r0, r1)
        if _is_negative_real(entry.value):
            L_b = _log_negative_real_block(T_b, abs(entry.value.real))
            log.debug("negative-real branch used for eigenvalue %.6g",
                      entry.value)
        else:
            L_b = _principal_log(T_b)
        if L_b is None:
            return None
        L[r0:r1, _block_cols(n, r0, r1)] = L_b.top
    chi_t = adjoint(T)
    for span in range(1, len(blocks)):
        for (r0, r1), (c0, c1) in zip(blocks, blocks[span:]):
            rows, cols = _block_cols(n, r0, r1), _block_cols(n, c0, c1)
            # with L_ij still zero, block ij of L T - T L is the right side
            chi_l = adjoints(L)
            rhs = (chi_l @ chi_t - chi_t @ chi_l)[np.ix_(rows, cols)]
            # vec(A X - X B) = (I kron A - B^T kron I) vec X, column-major
            sylvester = (np.kron(np.eye(len(cols)), chi_t[np.ix_(rows, rows)])
                         - np.kron(chi_t[np.ix_(cols, cols)].T,
                                   np.eye(len(rows))))
            x = np.linalg.solve(sylvester, rhs.ravel(order="F"))
            L[r0:r1, cols] = _projected_top(x.reshape(rhs.shape, order="F"))
    return QMatrix(top=L)


def _schur_log(C, spectrum):
    """U L U^dagger from the Schur form C = U T U^dagger and a block log L
    of T, or None when a step fails (a singular Sylvester system among
    them)."""
    try:
        U, T = quaternion_schur(C, spectrum)
        L = _log_triangular(T, spectrum)
    except np.linalg.LinAlgError:
        return None
    return None if L is None else U @ L @ U.dagger()


def logm(C, spectrum=None):
    """A quaternion logarithm: returns B with expm(B) = C.

    Two routes are tried in turn, and the first whose result meets the
    residual contract (`_log_residual_ok`) is returned.  The principal
    adjoint logarithm comes first when no eigenvalue is near the negative
    real axis.  Otherwise the Schur route comes first: the Schur form
    C = U T U^dagger (`quaternion_schur`), deflated in the order of C's
    standard spectrum, and a block Schur-Parlett log of T
    (`_log_triangular`).  Each spectrum entry is one diagonal block, logged
    on the negative-real branch or the principal one, and each off-diagonal
    block is one Sylvester solve.  The log(-1) directions follow from
    eigenvectors with a fixed phase, so rounding in C cannot turn them.  The
    principal logarithm then serves an eigenvalue that only lies near the
    axis.
    `spectrum`, when given, is C's StandardSpectrum from
    `standard_eigenvalues`; its singular values and eigenvalues are then not
    computed again.
    """
    if not C.is_square():
        raise NonSquare("logm requires a square matrix")
    svals = (np.linalg.svd(adjoint(C), compute_uv=False) if spectrum is None
             else spectrum.singular_values)
    if svals[-1] <= SINGULAR_TOL * max(1.0, svals[0]):
        raise Singular(
            f"qdet {qdet(C):.3e}: adjoint condition {svals[0]:.3e}/{svals[-1]:.3e} "
            "treats the matrix as singular")

    if spectrum is None:
        try:
            spectrum = standard_eigenvalues(C)
        except PairingFailure as exc:
            raise LogFailure(f"standard spectrum unavailable: {exc}") from exc
    routes = [lambda: _schur_log(C, spectrum), lambda: _principal_log(C)]
    if not any(_is_negative_real(e.value) for e in spectrum):
        routes.reverse()
    for route in routes:
        B = route()
        if B is not None and _log_residual_ok(B, C):
            return B
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
