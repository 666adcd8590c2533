"""Quaternion matrices, complex adjoint lifting, and realification.

A quaternion matrix A splits uniquely as A = A1 + A2*j with complex blocks
A1, A2; the lift chi(A) = [[A1, A2], [-conj(A2), conj(A1)]] is an injective
algebra homomorphism into 2n x 2n complex matrices, so spectra, norms and
inverses transfer back and forth.  Realification instead represents the
one-sided actions y -> A y and y -> y q as 4n x 4n real matrices; their
singular values decide the singularity oracle used throughout the stability
checks.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .eigensolver import eig_complex, inverse_complex, norm2, singular_values
from .errors import NonSquareError, PairingFailureError
from .quaternion import (
    Quaternion,
    StandardEigenvalue,
    left_action_matrix,
    right_action_matrix,
)
from .tolerances import (APPROX_EQ_ABS, INVERTIBILITY_REL, PAIRING_ABS, PAIRING_REL,
                         RANK_BAND, RANK_PIVOT_REL, SQUARES_MIN)

__all__ = [
    "QuaternionMatrix",
    "qvec",
    "vec_entries",
    "vec4",
    "vec4_to_qvec",
    "complex_adjoint",
    "from_complex_adjoint_blocks",
    "real_rep_left",
    "real_rep_right_scalar",
    "rank_decision",
    "rank_decisions",
    "eig_complex",
    "right_eigenvalues",
    "spectral_norm",
    "inverse",
]

_RANK_STATUSES = ("nonsingular", "singular", "unknown")

# Left actions of 1, i, j, k on (w, x, y, z): real_rep_left is linear in them.
_UNIT_LEFT_ACTIONS = np.stack([left_action_matrix(Quaternion(*e)) for e in np.eye(4)])


def _coerce_entry(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    if isinstance(value, complex):
        return Quaternion.from_complex(value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion entry")


class QuaternionMatrix:
    """Dense quaternion matrix stored as the complex pair A = A1 + A2*j."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2):
        a1 = np.array(a1, dtype=np.complex128)
        a2 = np.array(a2, dtype=np.complex128)
        if a1.ndim != 2 or a1.shape != a2.shape:
            raise ValueError("complex pair blocks must share a 2-D shape")
        self.a1 = a1
        self.a2 = a2

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QuaternionMatrix":
        qrows = [[_coerce_entry(v) for v in row] for row in rows]
        if not qrows or not qrows[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(qrows[0])
        if any(len(row) != ncols for row in qrows):
            raise ValueError("rows have inconsistent lengths")
        a1 = np.array([[complex(q.w, q.x) for q in row] for row in qrows])
        a2 = np.array([[complex(q.y, q.z) for q in row] for row in qrows])
        return cls(a1, a2)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "QuaternionMatrix":
        return cls(np.zeros((n_rows, n_cols), dtype=np.complex128),
                   np.zeros((n_rows, n_cols), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> "QuaternionMatrix":
        return cls(np.eye(n, dtype=np.complex128),
                   np.zeros((n, n), dtype=np.complex128))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "QuaternionMatrix":
        qs = [_coerce_entry(v) for v in entries]
        n = len(qs)
        m = cls.zeros(n, n)
        for t, q in enumerate(qs):
            m.a1[t, t] = complex(q.w, q.x)
            m.a2[t, t] = complex(q.y, q.z)
        return m

    # -- shape and access -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.a1.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a1.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a1.shape

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_complex_pair(self.a1[i, j], self.a2[i, j])

    def to_rows(self) -> list[list[Quaternion]]:
        return [[self.entry(i, j) for j in range(self.n_cols)]
                for i in range(self.n_rows)]

    def copy(self) -> "QuaternionMatrix":
        return QuaternionMatrix(self.a1.copy(), self.a2.copy())

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return QuaternionMatrix(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return QuaternionMatrix(self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "QuaternionMatrix":
        return QuaternionMatrix(-self.a1, -self.a2)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return QuaternionMatrix(self.a1 * other, self.a2 * other)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch for product: {self.shape} @ {other.shape}")
        # (A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j
        c1 = self.a1 @ other.a1 - self.a2 @ np.conj(other.a2)
        c2 = self.a1 @ other.a2 + self.a2 @ np.conj(other.a1)
        return QuaternionMatrix(c1, c2)

    def scale_right(self, q: Quaternion) -> "QuaternionMatrix":
        """Entrywise right multiplication a_ij * q."""
        q1, q2 = q.complex_pair()
        return QuaternionMatrix(self.a1 * q1 - self.a2 * np.conj(q2),
                                self.a1 * q2 + self.a2 * np.conj(q1))

    def adjoint(self) -> "QuaternionMatrix":
        """Conjugate transpose."""
        return QuaternionMatrix(np.conj(self.a1).T, -self.a2.T)

    # -- metrics ------------------------------------------------------------

    def frobenius_norm(self) -> float:
        with np.errstate(over="ignore"):
            squares = float(np.sum(np.abs(self.a1) ** 2 + np.abs(self.a2) ** 2))
        if SQUARES_MIN <= squares < math.inf:
            return math.sqrt(squares)
        # Squares under- or overflowed: redo on the entries divided by a
        # power of two near the largest one, which is exact.
        s = _pow2_near(self.max_entry_modulus())
        return s * math.sqrt(float(np.sum(np.abs(self.a1 / s) ** 2 + np.abs(self.a2 / s) ** 2)))

    def max_entry_modulus(self) -> float:
        if self.a1.size == 0:
            return 0.0
        return float(np.max(np.hypot(np.abs(self.a1), np.abs(self.a2))))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.a1).all() and np.isfinite(self.a2).all())

    def is_zero(self) -> bool:
        return self.max_entry_modulus() == 0.0

    def allclose(self, other: "QuaternionMatrix", tol: float = APPROX_EQ_ABS) -> bool:
        return (self - other).max_entry_modulus() <= tol

    def __repr__(self) -> str:
        return f"QuaternionMatrix({self.n_rows}x{self.n_cols})"


def _pow2_near(x: float) -> float:
    """2^e with x / 2^e in [1/2, 1), e clamped so 2^e and 2^-e are normal floats."""
    return math.ldexp(1.0, min(max(math.frexp(x)[1], -1020), 1020))


def qvec(entries: Iterable) -> QuaternionMatrix:
    """Column vector from an iterable of quaternion-like entries."""
    return QuaternionMatrix.from_rows([[v] for v in entries])


def vec_entries(v: QuaternionMatrix) -> list[Quaternion]:
    if v.n_cols != 1:
        raise ValueError("expected a column vector")
    return [v.entry(i, 0) for i in range(v.n_rows)]


def vec4(v: QuaternionMatrix) -> np.ndarray:
    """Stack a quaternion column vector into 4n reals, (w, x, y, z) per entry."""
    if v.n_cols != 1:
        raise ValueError("expected a column vector")
    out = np.empty(4 * v.n_rows)
    c1 = v.a1[:, 0]
    c2 = v.a2[:, 0]
    out[0::4] = c1.real
    out[1::4] = c1.imag
    out[2::4] = c2.real
    out[3::4] = c2.imag
    return out


def vec4_to_qvec(arr: np.ndarray) -> QuaternionMatrix:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size % 4 != 0:
        raise ValueError("expected a flat real vector of length 4n")
    c1 = arr[0::4] + 1j * arr[1::4]
    c2 = arr[2::4] + 1j * arr[3::4]
    return QuaternionMatrix(c1.reshape(-1, 1), c2.reshape(-1, 1))


def _lift(a: QuaternionMatrix) -> np.ndarray:
    top = np.hstack([a.a1, a.a2])
    bottom = np.hstack([-np.conj(a.a2), np.conj(a.a1)])
    return np.vstack([top, bottom])


def complex_adjoint(a: QuaternionMatrix) -> np.ndarray:
    """The 2n x 2n complex lift [[A1, A2], [-conj(A2), conj(A1)]]."""
    if a.n_rows != a.n_cols:
        raise NonSquareError("complex adjoint is defined for square matrices")
    return _lift(a)


def from_complex_adjoint_blocks(m: np.ndarray, n: int) -> QuaternionMatrix:
    """Read a quaternion matrix back off the block structure of its lift."""
    return QuaternionMatrix(m[:n, :n], m[:n, n:])


def real_rep_left(a: QuaternionMatrix) -> np.ndarray:
    """4n x 4n real matrix L with vec4(A y) = L vec4(y) for all y."""
    if a.n_rows != a.n_cols:
        raise NonSquareError("realification is defined for square matrices")
    n = a.n_rows
    planes = np.stack([a.a1.real, a.a1.imag, a.a2.real, a.a2.imag])
    return np.einsum("krc,kpq->rpcq", planes, _UNIT_LEFT_ACTIONS).reshape(4 * n, 4 * n)


def real_rep_right_scalar(q: Quaternion, n: int) -> np.ndarray:
    """Block-diagonal 4n x 4n real matrix R with vec4(y q) = R vec4(y)."""
    if n < 1:
        raise ValueError("vector length must be at least 1")
    return np.kron(np.eye(n), right_action_matrix(q))


def rank_decisions(stack, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Tri-state rank decisions for a stack of real matrices from one values-only SVD.

    With tau = RANK_PIVOT_REL * max(sigma_max, scale[b]), where the optional
    per-slice ``scale`` is the size of the terms a slice sums (its own
    sigma_max may be their cancellation noise), each singular value below
    tau / RANK_BAND is a kernel direction, a least one above tau * RANK_BAND
    means full column rank, and one in between is refused as "unknown".  A
    wide matrix always has a kernel; the zero matrix is singular with kernel
    e_0.  A matrix with a non-finite entry never reaches LAPACK and is
    "unknown", as is one whose sigma_max overflows.

    Returns (status, kernels): status[b] is "nonsingular", "singular" or
    "unknown"; kernels[b] is ``_canonical_kernel`` of a singular matrix, else 0.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("expected a stack of 2-D real matrices")
    count, n_rows, n_cols = stack.shape
    code = np.full(count, 2)
    kernels = np.zeros((count, n_cols))
    finite = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2)))
    sigma = singular_values(stack[finite])
    tau = RANK_PIVOT_REL * (sigma[:, 0] if scale is None else np.maximum(sigma[:, 0], scale[finite]))
    nullity = (sigma < tau[:, None] / RANK_BAND).sum(axis=1) + max(n_cols - n_rows, 0)
    code[finite] = np.select(
        [~np.isfinite(tau), (nullity > 0) | (tau == 0.0), sigma[:, -1] > tau * RANK_BAND],
        [2, 1, 0], 2)
    for b, d in zip(finite, nullity):
        if code[b] == 1:
            kernels[b] = _canonical_kernel(stack[b], d)
    return np.array(_RANK_STATUSES)[code], kernels


def _canonical_kernel(m: np.ndarray, nullity: int) -> np.ndarray:
    """A unit kernel vector that depends on the null space of m alone.

    With N the last ``nullity`` right singular vectors, P = N N^T is free of
    the basis LAPACK picks; the witness is P e_f / ||P e_f|| for the first f
    with P_ff >= max_j P_jj / 2, which exact ties (a realified kernel holds
    y q for every q commuting with mu) cannot flip.  The zero matrix takes e_0.
    """
    if not m.any():
        return np.eye(m.shape[1])[0]
    _, vt = singular_values(m, vectors=True)
    null = vt[-nullity:].T
    weight = np.sum(null * null, axis=1)
    f = int(np.argmax(weight >= 0.5 * weight.max()))
    kernel = null @ null[f]
    return kernel / np.linalg.norm(kernel)


def rank_decision(m: np.ndarray) -> tuple[str, np.ndarray | None]:
    """Tri-state rank decision for one real matrix, as a stack of one.

    Returns ("nonsingular", None), ("singular", kernel_vector) or
    ("unknown", None); see ``rank_decisions``.
    """
    status, kernels = rank_decisions(np.asarray(m, dtype=float)[None])
    status = str(status[0])
    return status, (kernels[0] if status == "singular" else None)


def _pairing_scale(a: QuaternionMatrix) -> float:
    # Frobenius norm of the lift: an operator-norm proxy that never
    # undershoots the spectral norm.
    return math.sqrt(2.0) * a.frobenius_norm()


def _pair_conjugates(vals: np.ndarray, tol: float) -> list[StandardEigenvalue]:
    count = vals.size
    if count % 2 != 0:
        raise PairingFailureError("odd number of eigenvalues cannot pair")
    used = np.zeros(count, dtype=bool)
    order = sorted(range(count), key=lambda t: (-abs(vals[t].imag), vals[t].real))
    out = []
    for t in order:
        if used[t]:
            continue
        used[t] = True
        target = np.conj(vals[t])
        best = -1
        best_dist = math.inf
        for s in range(count):
            if used[s]:
                continue
            d = abs(vals[s] - target)
            if d < best_dist:
                best_dist = d
                best = s
        if best < 0 or best_dist > max(tol, PAIRING_ABS):
            raise PairingFailureError(
                f"no conjugate partner for {vals[t]:.6g} within {tol:.3e} "
                f"(closest at {best_dist:.3e})")
        used[best] = True
        a, b = vals[t], vals[best]
        out.append(StandardEigenvalue(0.5 * (a.real + b.real),
                                      0.5 * abs(a.imag - b.imag)))
    return out


def _standards(vals: np.ndarray, scale: float) -> list[StandardEigenvalue]:
    standards = _pair_conjugates(vals, PAIRING_REL * scale)
    standards.sort(key=lambda e: (e.modulus(), e.re, e.im))
    return standards


def _standard_eigenpairs(chi: np.ndarray, scale: float) -> list[tuple[StandardEigenvalue, np.ndarray]]:
    """Standard eigenvalues of a lift, each with a unit lifted eigenvector.

    One eigensolve gives every value and vector; each standard eigenvalue
    takes the column whose lifted eigenvalue lies nearest to it.
    """
    vals, vecs = eig_complex(chi, vectors=True)
    return [(ev, vecs[:, int(np.argmin(np.abs(vals - ev.as_complex())))])
            for ev in _standards(vals, scale)]


def right_eigenvalues(a: QuaternionMatrix) -> list[StandardEigenvalue]:
    """The n standard right eigenvalues of a square quaternion matrix.

    Eigenvalues of the complex lift come in conjugate pairs; each pair is
    merged into its representative with nonnegative imaginary part.  Output
    is sorted by (modulus, real part).
    """
    if a.n_rows != a.n_cols:
        raise NonSquareError("right eigenvalues are defined for square matrices")
    return _standards(eig_complex(complex_adjoint(a)), _pairing_scale(a))


def spectral_norm(a: QuaternionMatrix) -> float:
    """Largest singular value: the LAPACK 2-norm of the complex lift."""
    return norm2(_lift(a))


def inverse(a: QuaternionMatrix) -> QuaternionMatrix:
    """Inverse on the complex lift.

    Raises SingularMatrixError when an LU pivot falls below
    INVERTIBILITY_REL times the lift's Frobenius norm; this same threshold
    is the package-wide invertibility test.
    """
    if a.n_rows != a.n_cols:
        raise NonSquareError("inverse is defined for square matrices")
    chi = complex_adjoint(a)
    tol = INVERTIBILITY_REL * math.sqrt(2.0) * a.frobenius_norm()
    inv_chi = inverse_complex(chi, min_pivot=tol)
    return from_complex_adjoint_blocks(inv_chi, a.n_rows)
