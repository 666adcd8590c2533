"""Quaternion scalars, similarity, and the geometry of similarity classes.

A quaternion q = w + x*i + y*j + z*k is similar to p when s^-1 q s = p for
some nonzero quaternion s.  Similarity preserves the real part and the norm
of the imaginary part, so every class has a unique complex representative
re + im*i with im >= 0.  The class itself is the 2-sphere
{re + im*u : u unit pure imaginary}, collapsing to the single real point re
when im = 0.  All stability checks in this package reduce membership
questions about eigenvalue sets to distances between region centers and
these class spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import APPROX_EQ_ABS, INV_FLOOR, SIMILAR_ABS


class Quaternion:
    """A quaternion over double-precision reals.

    Multiplication follows the right-handed table i*j = k, j*k = i, k*i = j.
    Instances are treated as immutable values; arithmetic returns new ones.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_complex(cls, c: complex) -> "Quaternion":
        """Embed a complex number into the (1, i) plane."""
        c = complex(c)
        return cls(c.real, c.imag, 0.0, 0.0)

    @classmethod
    def from_complex_pair(cls, c1: complex, c2: complex) -> "Quaternion":
        """Build q = c1 + c2*j from the complex pair decomposition."""
        c1 = complex(c1)
        c2 = complex(c2)
        return cls(c1.real, c1.imag, c2.real, c2.imag)

    def as_array(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    def complex_pair(self) -> tuple[complex, complex]:
        """Return (c1, c2) with q = c1 + c2*j."""
        return complex(self.w, self.x), complex(self.y, self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def modulus(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    def modulus_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def vec_norm(self) -> float:
        """Norm of the imaginary (vector) part."""
        return math.hypot(self.x, self.y, self.z)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2.

        Raises ZeroDivisionError below modulus 1e-300; intermediate values
        are rescaled so subnormal moduli do not overflow the division.
        """
        m = self.modulus()
        if not m > INV_FLOOR:
            raise ZeroDivisionError("quaternion has no inverse: modulus below 1e-300")
        s = max(abs(self.w), abs(self.x), abs(self.y), abs(self.z))
        u = Quaternion(self.w / s, self.x / s, self.y / s, self.z / s)
        denom = u.modulus_sq() * s
        return Quaternion(u.w / denom, -u.x / denom, -u.y / denom, -u.z / denom)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            p, q = self, other
            return Quaternion(
                p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
                p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
                p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
                p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
            )
        if isinstance(other, (int, float)):
            f = float(other)
            return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            f = float(other)
            return Quaternion(self.w / f, self.x / f, self.y / f, self.z / f)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def approx_eq(self, other: "Quaternion", tol: float = APPROX_EQ_ABS) -> bool:
        return (self - other).modulus() <= tol


Quaternion.ZERO = Quaternion(0.0)
Quaternion.ONE = Quaternion(1.0)
Quaternion.I = Quaternion(0.0, 1.0)
Quaternion.J = Quaternion(0.0, 0.0, 1.0)
Quaternion.K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class StandardEigenvalue:
    """Complex representative re + im*i (im >= 0) of a similarity class."""

    re: float
    im: float

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if self.im < 0.0:
            raise ValueError("standard eigenvalue must have nonnegative imaginary part")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def lift(self) -> Quaternion:
        """The representative embedded back into the quaternions."""
        return Quaternion(self.re, self.im, 0.0, 0.0)

    def modulus(self) -> float:
        return math.hypot(self.re, self.im)


def standardize(q: Quaternion) -> StandardEigenvalue:
    """Map q to the complex representative of its similarity class.

    The representative keeps the real part and turns the imaginary part into
    its norm, which fully determines the class.
    """
    return StandardEigenvalue(q.w, q.vec_norm())


def similar(p: Quaternion, q: Quaternion, tol: float = SIMILAR_ABS) -> bool:
    """Whether p and q lie in the same similarity class.

    Decided through the representatives: equal real parts and equal imaginary
    norms within ``tol`` (absolute, per component).  This avoids searching for
    an explicit conjugating element.
    """
    ep = standardize(p)
    eq = standardize(q)
    return abs(ep.re - eq.re) <= tol and abs(ep.im - eq.im) <= tol


def class_distance(e: StandardEigenvalue, p: Quaternion) -> float:
    """Euclidean distance from p to the similarity class of e.

    The minimum of |p - (e.re + e.im*u)| over unit pure imaginary u has the
    closed form hypot(Re p - e.re, |vec p| - e.im); for e.im = 0 this is the
    distance to the single real point e.re.
    """
    return math.hypot(p.w - e.re, p.vec_norm() - e.im)


def class_distance_extremes(e: StandardEigenvalue, p: Quaternion) -> tuple[float, float]:
    """Minimum and maximum distance from p to the class sphere of e.

    Distances from p to the sphere sweep a closed interval; the extremes are
    attained at the points aligned with (min) and against (max) the vector
    part of p.
    """
    v = p.vec_norm()
    lo = math.hypot(p.w - e.re, v - e.im)
    hi = math.hypot(p.w - e.re, v + e.im)
    return lo, hi


def class_point(e: StandardEigenvalue, direction: Quaternion) -> Quaternion:
    """Point of the class of e in the given pure-imaginary direction.

    ``direction`` needs a nonzero vector part; its real component is ignored.
    For e.im = 0 every direction returns the real point e.re.
    """
    v = direction.vec_norm()
    if v <= 0.0:
        raise ValueError("direction must have a nonzero vector part")
    s = e.im / v
    return Quaternion(e.re, direction.x * s, direction.y * s, direction.z * s)


def left_action_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> q*p acting on components (w, x, y, z)."""
    return np.array([
        [q.w, -q.x, -q.y, -q.z],
        [q.x, q.w, -q.z, q.y],
        [q.y, q.z, q.w, -q.x],
        [q.z, -q.y, q.x, q.w],
    ])


def right_action_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> p*q acting on components (w, x, y, z)."""
    return right_action_matrices(np.array(q.as_array()))


def right_action_matrices(q: np.ndarray) -> np.ndarray:
    """``right_action_matrix`` of every quaternion in a (..., 4) array of
    components (w, x, y, z), as a (..., 4, 4) array."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([w, -x, -y, -z,
                     x, w, z, -y,
                     y, -z, w, x,
                     z, y, -x, w], axis=-1).reshape(q.shape[:-1] + (4, 4))


# Components of conj(q) are CONJ * q.
CONJ = np.array([1.0, -1.0, -1.0, -1.0])
# The left and right action matrices of u = 1, i, j, k, as (4, 4, 4) arrays
# indexed by u; both actions are linear in the acting quaternion.
UNIT_LEFT_ACTIONS = np.stack([left_action_matrix(Quaternion(*e)) for e in np.eye(4)])
UNIT_RIGHT_ACTIONS = right_action_matrices(np.eye(4))
# Component k of conj(u) v is the sum over a, b of u_a CONJ_PRODUCT[a, k, b] v_b.
CONJ_PRODUCT = CONJ[:, None, None] * UNIT_LEFT_ACTIONS
