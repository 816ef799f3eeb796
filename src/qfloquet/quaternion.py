"""Scalar quaternion arithmetic.

Quaternions q = q0 + q1*i + q2*j + q3*k over float64 components, with
Hamilton's product rules (ij = -ji = k and cyclic).  Values are immutable;
every operation returns a fresh quaternion.

The same operations exist on (q0, q1, q2, q3) tuples, whose components are
floats or numpy arrays of floats, one element per time and parameter value
of a batch.  Their leaf functions (exp, cos, sin, hypot) are numpy's on
both, so a value is the same alone or in a batch, and an overflow gives inf
rather than an exception.  `Quaternion` keeps Python floats: `qexp` converts
the leaves' numpy scalars back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# sinc branch threshold: below this vector-part magnitude the closed-form
# sin|v|/|v| is replaced by its series to avoid cancellation
SINC_EPS = 1e-8

# absolute tolerance for similarity-class comparison
SIMILAR_TOL = 1e-9


class DivisionByZero(ZeroDivisionError):
    """Inverse or division requested for a zero quaternion."""


@dataclass(frozen=True)
class Quaternion:
    q0: float = 0.0
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    @staticmethod
    def from_real(x):
        return Quaternion(float(x), 0.0, 0.0, 0.0)

    @staticmethod
    def from_complex(z):
        """Embed a complex number a+bi as the quaternion a + b*i (q2 = q3 = 0)."""
        z = complex(z)
        return Quaternion(z.real, z.imag, 0.0, 0.0)

    @property
    def re(self):
        """Scalar part."""
        return self.q0

    @property
    def vec(self):
        """Vector part as a tuple (q1, q2, q3)."""
        return (self.q1, self.q2, self.q3)

    def vec_norm(self):
        """Magnitude of the vector part |Ve(q)|."""
        return math.hypot(self.q1, self.q2, self.q3)

    def components(self):
        return (self.q0, self.q1, self.q2, self.q3)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                          self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.q0 - other.q0, self.q1 - other.q1,
                          self.q2 - other.q2, self.q3 - other.q3)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(*product(self.components(), other.components()))

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        # division means right-multiplication by the inverse: x/y = x * y^-1
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * inverse(other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * inverse(self)

    def __abs__(self):
        return math.hypot(self.q0, self.q1, self.q2, self.q3)

    def __str__(self):
        return format_quaternion(self)

    def __complex__(self):
        if math.hypot(self.q2, self.q3) > 1e-12 * max(1.0, abs(self)):
            raise ValueError(f"{self} is not in the complex subfield span{{1, i}}")
        return complex(self.q0, self.q1)


def _coerce(x):
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float)):
        return Quaternion.from_real(x)
    if isinstance(x, complex):
        return Quaternion.from_complex(x)
    return NotImplemented


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
UNITS = (ONE, I, J, K)


def conj(q):
    """Quaternion conjugate: negates the vector part."""
    return Quaternion(q.q0, -q.q1, -q.q2, -q.q3)


def norm(q):
    return abs(q)


def inverse(q):
    """q^-1 = conj(q) / |q|^2; raises DivisionByZero for q = 0."""
    return Quaternion(*inverse_components(q.components()))


def qexp(q):
    """Quaternion exponential; see exp_components.  Overflow gives inf."""
    with np.errstate(all="ignore"):
        return Quaternion(*map(float, exp_components(_coerce(q).components())))


# -- leaves on floats or numpy arrays ------------------------------------------


def hypot(*xs):
    """Euclidean norm of the arguments, elementwise on arrays."""
    return functools.reduce(np.hypot, xs)


def _sinc(r):
    # sin(r)/r, switching to its series below SINC_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r < SINC_EPS, 1.0 - r * r / 6.0, np.sin(r) / r)


# -- the same operations on (q0, q1, q2, q3) tuples --------------------------
# Quaternion's operators delegate here, and compiled expressions call these
# directly, so each formula exists once.


def product(a, b):
    """Hamilton product a * b of two component tuples (order matters)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def inverse_components(a):
    """conj(a) / |a|^2; raises DivisionByZero when |a|^2 is 0 (for arrays,
    anywhere)."""
    a0, a1, a2, a3 = a
    n2 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    if np.any(n2 == 0.0):
        raise DivisionByZero("inverse of zero quaternion")
    return (a0 / n2, -a1 / n2, -a2 / n2, -a3 / n2)


def exp_components(a):
    """Quaternion exponential of a component tuple.

    Closed form e^{a0} (cos|v| + (v/|v|) sin|v|) with v the vector part;
    the sin|v|/|v| factor switches to its series below SINC_EPS.
    """
    a0, a1, a2, a3 = a
    r = hypot(a1, a2, a3)
    s = _sinc(r)
    ea = np.exp(a0)
    return (ea * np.cos(r), ea * s * a1, ea * s * a2, ea * s * a3)


def similar(p, q, tol=SIMILAR_TOL):
    """True when p and q lie in the same similarity class.

    Classes are characterized by the scalar part and the vector-part
    magnitude, compared with absolute tolerance `tol`.
    """
    p = _coerce(p)
    q = _coerce(q)
    return (abs(p.q0 - q.q0) <= tol
            and abs(p.vec_norm() - q.vec_norm()) <= tol)


def standardize(q):
    """Canonical complex representative Re(q) + |Ve(q)| i of the class of q.

    Returns a Python complex with nonnegative imaginary part.
    """
    q = _coerce(q)
    return complex(q.q0, q.vec_norm())


def format_quaternion(q, fmt="{:.6g}"):
    """Render as `a+bi+cj+dk`, omitting zero components."""
    parts = []
    for value, unit in zip(q.components(), ("", "i", "j", "k")):
        if value == 0.0:
            continue
        body = fmt.format(abs(value))
        if body == "1" and unit:
            body = ""
        sign = "-" if value < 0 else ("+" if parts else "")
        parts.append(f"{sign}{body}{unit}")
    return "".join(parts) if parts else "0"
