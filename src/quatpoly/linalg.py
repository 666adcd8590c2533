"""Quaternion matrices, complex adjoint lifting, and realification.

A quaternion matrix A splits uniquely as A = A1 + A2*j with complex blocks
A1, A2; the lift chi(A) = [[A1, A2], [-conj(A2), conj(A1)]] is an injective
algebra homomorphism into 2n x 2n complex matrices, so spectra, norms and
inverses transfer back and forth: a class x + s i shows in a lift spectrum as
x +- s i, a k-fold class as k such pairs, which ``_standard_classes`` reads
back for matrix and matrix polynomial eigenvalues and scalar zeros alike.
Realification instead represents the one-sided actions y -> A y and y -> y q
as 4n x 4n real matrices; their singular values decide the singularity
oracle used throughout the stability checks.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .eigensolver import _EPS, eig_complex, inverse_complex, inverses, singular_values
from .errors import NonSquareError, PairingFailureError, SingularMatrixError
from .quaternion import UNIT_LEFT_ACTIONS, Quaternion, StandardEigenvalue, right_action_matrix
from .tolerances import (APPROX_EQ_ABS, INVERTIBILITY_REL, MULTIPLE_ROOT_REL, RANK_BAND,
                         RANK_PIVOT_REL, ROOT_CLUSTER_REL, SCALE_FLOOR, SPHERE_REL, SQUARES_MIN)

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
    return np.einsum("krc,kpq->rpcq", planes, UNIT_LEFT_ACTIONS).reshape(4 * n, 4 * n)


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

    A square slice that ``_cleared`` certifies skips the SVD: its
    sigma_min is proved above RANK_BAND^2 tau_F, tau_F = RANK_PIVOT_REL *
    max(||M||_F, scale[b]) >= tau, with ||M||_F RANK_BAND times within the
    float range.  LAPACK's singular values are within p(n) eps sigma_max <<
    tau of the exact ones, so the SVD would find a finite tau, no value below
    tau / RANK_BAND and sigma_min above tau * RANK_BAND: "nonsingular".  Every
    other slice takes the SVD, so no status and no kernel moves.

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
    if n_rows == n_cols and finite.size > 1:  # one SVD costs less than the certificate
        cleared = _cleared(stack[finite], None if scale is None else scale[finite])
        code[finite[cleared]] = 0
        finite = finite[~cleared]
    if finite.size:
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


def _cleared(stack: np.ndarray, scale) -> np.ndarray:
    """Which slices M of a finite square (B, N, N) stack have a certified
    sigma_min(M) > RANK_BAND^2 tau_F (``rank_decisions``), from one batched
    inverse.

    Each slice is divided by a power of two near its largest entry (exact up
    to subnormal rounding of entries far below it), so no norm below over-
    or underflows.  With X ~ M^-1 and E = I - M X, ||E|| < 1 gives
    M^-1 = X (I - E)^-1 and sigma_min(M) >= (1 - ||E||) / ||X||_F.  The
    computed R = fl(I - M X) is within gamma_(N+1) (|I| + |M| |X|) of E
    entrywise (Higham, Accuracy and Stability, 2002, sec. 3.5), so
    ||E||_F <= ||R||_F + gamma_(N+1) (sqrt N + ||M||_F ||X||_F).  The few
    roundings of the norms themselves are relative and far inside the one
    spare RANK_BAND factor.  A stack that LAPACK refuses for an exactly
    singular slice, and a slice whose inverse overflows, clear nothing.
    """
    count, n, _ = stack.shape
    exps = np.frexp(np.abs(stack).max(axis=(1, 2)))[1]
    m = np.ldexp(stack, -exps[:, None, None])
    x = inverses(m)
    with np.errstate(all="ignore"):
        r = -(m @ x)
        r.reshape(count, n * n)[:, ::n + 1] += 1.0
        m_f, x_f, r_f = (np.sqrt(np.einsum("bij,bij->b", a, a)) for a in (m, x, r))
        u = (n + 1) * 0.5 * _EPS  # gamma_(N+1) = (N + 1) u / (1 - (N + 1) u), u = eps / 2
        e_f = r_f + u / (1.0 - u) * (math.sqrt(n) + m_f * x_f)
        size = m_f if scale is None else np.maximum(m_f, np.ldexp(scale, -exps))
        return ((e_f < 1.0) & np.isfinite(np.ldexp(RANK_BAND * m_f, exps))
                & ((1.0 - e_f) / x_f > RANK_BAND * (RANK_BAND * RANK_PIVOT_REL * size)))


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


def _nearest(roots: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each root's neighbours, nearest first, and the sizes k at which it may be in a k-fold group.

    nearest[..., i, :] orders a row of an (..., N) stack by distance from
    root i in units of scales[..., i], root i first.  candidate[..., i, k - 1]
    holds when the k-th lies within 2 MULTIPLE_ROOT_REL^(1/k) and the offsets h
    of the k nearest from their mean have |sum h^2| <= MULTIPLE_ROOT_REL: both
    are necessary for ``_root_groups``, and cumulative sums test every k at
    once in O(N^2) memory a row.
    """
    count = roots.shape[-1]
    per_size = 1.0 / np.arange(1, count + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # far offsets fail the first test anyway
        # (r_j - r_i) / scale_i at [..., i, j], as an add: a broadcast complex subtract is slow.
        offsets = (roots[..., None, :] + -roots[..., :, None]) * (1.0 / scales)[..., None]
        gaps = np.abs(offsets)
        gaps.reshape(*gaps.shape[:-2], count * count)[..., ::count + 1] = -1.0  # a root is its own nearest
        nearest = np.argsort(gaps, axis=-1)
        candidate = np.sort(gaps, axis=-1) <= 2.0 * MULTIPLE_ROOT_REL ** per_size
        if candidate[..., 1:].any():
            d = np.take_along_axis(offsets, nearest, axis=-1)
            sums = np.cumsum(d, axis=-1)
            candidate &= np.abs(np.cumsum(d * d, axis=-1) - sums * sums * per_size) <= MULTIPLE_ROOT_REL
    return nearest, candidate


def _root_groups(roots: np.ndarray, scales: np.ndarray, nearest: np.ndarray,
                 candidate: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean, size and mean |Im| of each group of one row of roots, one group
    per multiple root, from that row's ``_nearest`` (nearest, candidate).

    A root and its k - 1 nearest form a k-fold group when their offsets h
    from their mean, in units of the root's scale, lie within
    r_k = MULTIPLE_ROOT_REL^(1/k) and have power sums |sum h^q| <=
    MULTIPLE_ROOT_REL for q = 2..k.  The group's factor is then within about
    that of (t - mean)^k, coefficient by coefficient, so the characteristic
    polynomial is within that relative perturbation of one with a k-fold root
    there (Zeng, Math. Comp. 74, 2005).  Each root takes its largest passing
    k, tried downward over its candidates; a group stands when all its
    members take it, and every other root joins the first earlier such root
    within ROOT_CLUSTER_REL.
    """
    count = len(roots)
    picks = [frozenset([i]) for i in range(count)]
    for i in np.flatnonzero(candidate[:, 1:].any(axis=1)):
        near = roots[nearest[i]]
        for k in np.flatnonzero(candidate[i, 1:])[::-1] + 2:
            h = (near[:k] - near[:k].mean()) / scales[i]
            bound = np.abs(h).max()
            # |sum h^q| <= k max|h|^2 for q >= 2 spares a tight group its power sums.
            if bound ** k <= MULTIPLE_ROOT_REL and (k * bound * bound <= MULTIPLE_ROOT_REL or np.abs(
                    np.vander(h, k + 1, increasing=True)[:, 2:].sum(axis=0)).max() <= MULTIPLE_ROOT_REL):
                picks[i] = frozenset(nearest[i, :k].tolist())
                break
    picks = list(map({pick: pick for pick in picks}.__getitem__, picks))  # one object per distinct pick
    standing = [all(picks[j] is pick for j in pick) for pick in picks]
    labels = np.arange(count)
    for i, pick in enumerate(picks):
        labels[i] = min(pick) if standing[i] else next(
            (h for h in range(i) if not standing[h] and labels[h] == h
             and abs(roots[i] - roots[h]) <= ROOT_CLUSTER_REL * scales[i]), i)
    member = (np.unique(labels)[:, None] == labels).astype(float)
    counts = member.sum(axis=1)
    return member @ roots / counts, counts, member @ np.abs(roots.imag) / counts


def _standard_classes(roots, scales) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classes x + i s of a conjugate-closed lift spectrum, or of an (S, N)
    stack of them: (x, s, share, axis), each (S, N), a class where share > 0.

    Only a row in which ``_nearest`` leaves some root a multiple candidate
    is grouped by ``_root_groups``.  Groups are matched to mirrors in
    rounds: each takes the group left whose mean lies nearest the conjugate
    of its mean, itself only at an even size, and a mutual choice is a
    match.  A group that is its own mirror is on the real axis, a class of
    share half its size with s the mean |Im| of its roots.  Any other group
    must have its mirror's size and lie on the other side of the axis; the
    one above is the class, at the mean of its mean and its mirror's
    conjugate, of share its size.  A row whose shares are not whole or do
    not sum to N / 2 is not conjugate-closed: PairingFailureError names
    every such row.
    """
    roots, scales = np.atleast_2d(roots), np.atleast_2d(scales)
    count, width = roots.shape
    means, sizes, folded = roots.copy(), np.ones(roots.shape, dtype=int), np.abs(roots.imag)
    nearest, candidate = _nearest(roots, scales)
    for r in np.flatnonzero(candidate[..., 1:].any(axis=(1, 2))):
        groups = _root_groups(roots[r], scales[r], nearest[r], candidate[r])
        for out, got in zip((means, sizes, folded), groups):
            out[r] = np.pad(got, (0, width - len(got)))
    gaps = np.where(sizes[:, None] > 0, np.abs(means[:, None] + -means.conj()[..., None]), np.inf)
    rows, slots = np.ogrid[:count, :width]
    near = gaps.argmin(axis=2)
    odd = sizes % 2 == 1
    mirror = np.where((near[rows, near] == slots) & ~(odd & (near == slots)), near, -1)
    # Further rounds match the groups left the same way; gaps is symmetric,
    # so the closest pair left is always mutual.
    while (left := (mirror < 0) & (sizes > 0)).any():
        free = left[:, None] & left[..., None] & ~(odd[..., None] & np.eye(width, dtype=bool))
        near = np.where(free, gaps, np.inf).argmin(axis=2)
        mutual = left & (near[rows, near] == slots)
        if not mutual.any():
            break
        mirror = np.where(mutual, near, mirror)
    axis = mirror == slots
    other = means[rows, mirror]  # a group on the axis is its own mirror
    kept = (mirror >= 0) & (sizes[rows, mirror] == sizes) & (means.imag > 0.0) & (other.imag <= 0.0)
    share = np.where(axis, sizes / 2, sizes * kept)
    failing = np.flatnonzero((share % 1).any(axis=1) | (share.sum(axis=1) != width / 2))
    if len(failing):
        raise PairingFailureError(f"lift spectrum of {width} values is not conjugate-closed: class "
                                  f"shares sum to {share[failing].sum(axis=1).tolist()}, not {width / 2}",
                                  rows=failing)
    return (0.5 * (means.real + other.real), np.where(axis, folded, 0.5 * (means.imag - other.imag)),
            share.astype(int), axis)


def _relative_actions(z: np.ndarray, lifts: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """W(mu) = sum_i lifts[i] mu^i over its scale sum_i norms[i] |mu|^i, for each mu of z,
    both in units of the power of two below the largest norm (exact, and no
    underflow of tiny scales) and, for |mu| > 1, divided by mu^m so that no
    power exceeds 1.  A scale below 1/2 and its W(mu) are scaled up by a power
    of two of their own (exact): numpy divides a complex array by the
    reciprocal of a real, which a subnormal scale would overflow.  A zero
    scale means a zero action."""
    unit = math.ldexp(1.0, math.frexp(norms.max())[1] - 1)
    big = np.abs(z) > 1.0
    z = z.astype(complex)
    z[big] = 1.0 / z[big]
    powers = z[:, None] ** np.arange(len(norms))
    powers[big] = powers[big, ::-1]
    weights = np.abs(powers) @ (norms / unit)
    shift = -np.minimum(np.frexp(weights)[1], 0)
    w = np.ldexp(np.tensordot(powers, lifts / unit, axes=1).view(np.float64), shift[:, None, None])
    weights = np.ldexp(weights, shift)
    return w.view(complex) / np.where(weights > 0.0, weights, 1.0)[:, None, None]


def _standard_eigenvalues(vals, lifts, norms) -> list[StandardEigenvalue]:
    """The classes of the lift spectrum of a polynomial with coefficient
    lifts ``lifts`` of norms ``norms``, each as often as its share, sorted
    by (modulus, re, im).

    Roots are compared in units of max(|root|, tau), tau the least tropical
    root of the norms from the first nonzero one on (Gaubert and Sharify,
    2009): below it an eigenvalue is zero at the scale of the coefficients.
    An axis class of share 1 keeps the mean |Im| of its roots, split to first
    order.  A multiple one, split by a root of the rounding, is real where
    x is an eigenvalue to SPHERE_REL, by its backward error sigma_min(W(x))
    (``_relative_actions``), as a real scalar zero is decided at x.
    """
    lead = norms[np.flatnonzero(norms)[0]:]
    with np.errstate(divide="ignore", over="ignore"):
        tau = max(SCALE_FLOOR, min((lead[0] / lead[1:]) ** (1.0 / np.arange(1, len(lead))), default=np.inf))
    x, s, share, axis = (c[0] for c in _standard_classes(vals, np.maximum(np.abs(vals), tau)))
    multiple = np.flatnonzero(axis & (share > 1))
    if len(multiple):
        errors = singular_values(_relative_actions(x[multiple], lifts, norms))[:, -1]
        s[multiple[errors <= SPHERE_REL]] = 0.0
    evs = map(StandardEigenvalue, np.repeat(x, share).tolist(), np.repeat(s, share).tolist())
    return sorted(evs, key=lambda e: (e.modulus(), e.re, e.im))


def right_eigenvalues(a: QuaternionMatrix) -> list[StandardEigenvalue]:
    """The n standard right eigenvalues of a square quaternion matrix, with
    multiplicity, sorted by (modulus, real part): the classes of its complex
    lift, read as those of the polynomial t I - A."""
    if a.n_rows != a.n_cols:
        raise NonSquareError("right eigenvalues are defined for square matrices")
    chi = complex_adjoint(a)
    lifts = np.stack([-chi, np.eye(len(chi))])
    return _standard_eigenvalues(eig_complex(chi), lifts, np.array([spectral_norm(a), 1.0]))


def lift_singular_values(matrices: Sequence[QuaternionMatrix]) -> np.ndarray:
    """Descending singular values of the lift of each same-shape matrix, a row
    each from one batched SVD: ||A_b||_2 first and 1 / ||A_b^-1||_2 last."""
    return singular_values(np.array([_lift(a) for a in matrices]))


def invertible(sigma: np.ndarray):
    """The invertibility test on rows of ``lift_singular_values``:
    sigma_min > INVERTIBILITY_REL * sigma_max, elementwise over leading axes."""
    return sigma[..., -1] > INVERTIBILITY_REL * sigma[..., 0]


def spectral_norm(a: QuaternionMatrix) -> float:
    """Largest singular value: sigma_max of the complex lift."""
    return float(lift_singular_values([a])[0, 0])


def inverse(a: QuaternionMatrix, sigma: np.ndarray | None = None) -> QuaternionMatrix:
    """Inverse on the complex lift, one LAPACK solve.

    Raises SingularMatrixError when ``invertible`` refuses the lift's
    singular values: ``sigma`` when the caller has them, else one SVD here.
    """
    if a.n_rows != a.n_cols:
        raise NonSquareError("inverse is defined for square matrices")
    sigma = lift_singular_values([a])[0] if sigma is None else sigma
    if not invertible(sigma):
        raise SingularMatrixError(f"least singular value {sigma[-1]:.3e} of the lift is not above "
                                  f"{INVERTIBILITY_REL:g} times its largest, {sigma[0]:.3e}")
    return from_complex_adjoint_blocks(inverse_complex(complex_adjoint(a)), a.n_rows)
