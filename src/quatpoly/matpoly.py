"""Right quaternion matrix polynomials and their eigenvalue machinery.

A right polynomial P(t) = A_m t^m + ... + A_1 t + A_0 acts on vectors as
y -> sum_i A_i y mu^i with the scalar powers applied on the right of the
vector; mu is a right eigenvalue when that action kills some nonzero y.
Three independent routes to the same eigenvalues are kept side by side:

* companion linearization plus the complex lift (the fast path),
* the realified 4n x 4n singularity oracle (the exact brute-force check),
  which is the one-letter case of the realified sweep that stability
  verdicts and multivariate tuples share,
* for 1 x 1 polynomials, the real characteristic polynomial of degree 2m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .eigensolver import eig_complex, singular_values
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotMonicError,
    ResidualFailureError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
    ZeroLeadingError,
)
from .linalg import (
    QuaternionMatrix,
    _lift,
    _pow2_near,
    _relative_actions,
    _standard_classes,
    _standard_eigenvalues,
    complex_adjoint,
    inverse,
    qvec,
    rank_decisions,
    real_rep_left,
    spectral_norm,
    vec4_to_qvec,
)
from .quaternion import Quaternion, StandardEigenvalue, left_action_matrix, right_action_matrices
from .tolerances import BLOCK_NORM_REL, IDENTITY_ABS, POLYEIG_RESIDUAL_REL, SLOPE_REL, SPHERE_REL

# Components of conj(q) are _CONJ * q, and (q @ _RIGHT_UNITS).reshape(4, 4)
# is the right action matrix of q, linear in q; _LEFT_UNITS the same for the left.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_RIGHT_UNITS = right_action_matrices(np.eye(4)).reshape(4, 16)
_LEFT_UNITS = np.stack([left_action_matrix(Quaternion(*e)) for e in np.eye(4)]).reshape(4, 16)

# A chunk of operators in the realified sweep holds at most this many doubles.
SWEEP_CHUNK_DOUBLES = 2 ** 16


class MatrixPolynomial:
    """Coefficient list (A_0, ..., A_m) of square quaternion matrices."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[QuaternionMatrix], *, trim: bool = False):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a matrix polynomial needs at least one coefficient")
        n = coeffs[0].n_rows
        for a in coeffs:
            if a.n_rows != a.n_cols:
                raise ValueError("coefficients must be square")
            if a.n_rows != n:
                raise ValueError("coefficients must share one dimension")
            if not a.is_finite():
                raise ValueError("coefficients must be finite")
        if trim:
            while len(coeffs) > 1 and coeffs[-1].is_zero():
                coeffs.pop()
        if coeffs[-1].is_zero():
            raise ValueError("leading coefficient must be nonzero")
        self.coeffs = tuple(c.copy() for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def size(self) -> int:
        return self.coeffs[0].n_rows

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], QuaternionMatrix], ...]:
        """(word, A_i) pairs with the one-letter word (1,) * i."""
        return tuple(((1,) * i, a) for i, a in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"MatrixPolynomial(degree={self.degree}, size={self.size})"


def _as_column(y, n: int) -> QuaternionMatrix:
    if isinstance(y, QuaternionMatrix):
        v = y
    else:
        v = qvec(y)
    if v.n_cols != 1 or v.n_rows != n:
        raise DimensionMismatchError(
            f"vector has shape {v.shape}, expected ({n}, 1)")
    return v


def evaluate_action(p: MatrixPolynomial, y, mu: Quaternion) -> QuaternionMatrix:
    """sum_i A_i y mu^i with powers of mu on the right of the vector."""
    v = _as_column(y, p.size)
    acc = p.coeffs[0] @ v
    power = v
    for i in range(1, len(p.coeffs)):
        power = power.scale_right(mu)
        acc = acc + (p.coeffs[i] @ power)
    return acc


def reversal(p: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient order reversed; swaps eigenvalues with reciprocals."""
    if p.coeffs[0].is_zero():
        raise ZeroLeadingError("reversal needs a nonzero constant coefficient")
    return MatrixPolynomial(tuple(reversed(p.coeffs)))


def companion(p: MatrixPolynomial) -> QuaternionMatrix:
    """Block companion of the monic normalization inverse(A_m) * P.

    Identity blocks sit on the superdiagonal and the last block row holds
    the negated normalized coefficients; a normalized coefficient that
    overflows raises NoConvergenceError.
    """
    if p.degree < 1:
        raise ValueError("companion linearization needs degree at least 1")
    try:
        am_inv = inverse(p.coeffs[-1])
    except SingularMatrixError as exc:
        raise SingularLeadingCoefficientError(
            "leading coefficient is singular; the realified oracle still applies") from exc
    n, m = p.size, p.degree
    c = QuaternionMatrix.zeros(m * n, m * n)
    c.a1[:-n, n:] = np.eye((m - 1) * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            tilde = am_inv @ p.coeffs[i]
            c.a1[-n:, i * n:(i + 1) * n], c.a2[-n:, i * n:(i + 1) * n] = -tilde.a1, -tilde.a2
    if not c.is_finite():
        raise NoConvergenceError("the monic normalization inverse(A_m) * A_i overflows")
    return c


def polyeig_with_residuals(p: MatrixPolynomial) -> list[tuple[StandardEigenvalue, float]]:
    """Standard eigenvalues paired with their relative action residuals.

    ``linalg._standard_eigenvalues`` reads the classes off the spectrum of
    the lifted companion; a k-fold class comes k times, at the mean of its
    roots.  The residual for mu is ||sum_i A_i y mu^i|| / ((sum_i ||A_i|| |mu|^i) ||y||),
    taken in the complex lift: the lifted vector v of y gives the action as
    W(mu) v with W(mu) = sum_i chi(A_i) mu^i.  Every block of the companion
    eigenvector at least BLOCK_NORM_REL times the longest is a candidate y,
    longest first; the first passing block is reported, else the least
    residual.  When no block passes, the residual is sigma_min(W(mu)) over the
    same scale, the backward error of mu, which no vector beats (Tisseur,
    LAA 309, 2000; Higham, Li and Tisseur, SIMAX 29, 2007).  Anything not
    at or below POLYEIG_RESIDUAL_REL raises ResidualFailureError.
    """
    if p.degree == 0:
        try:
            inverse(p.coeffs[0])
        except SingularMatrixError as exc:
            raise SingularLeadingCoefficientError(
                "degree-zero polynomial with singular coefficient") from exc
        return []
    n, m = p.size, p.degree
    norms = np.array([spectral_norm(a) for a in p.coeffs])
    lifts = np.array([complex_adjoint(a) for a in p.coeffs])
    vals, vecs = eig_complex(complex_adjoint(companion(p)), vectors=True)
    evs = _standard_eigenvalues(vals, lifts, norms)
    z = np.array([ev.as_complex() for ev in evs])
    # Each eigenvalue takes the eigenvector of its nearest lift eigenvalue; lifted
    # block b of a companion eigenvector [v1; v2] is (v1[b], v2[b]).
    blocks = vecs[:, np.abs(z[:, None] - vals).argmin(axis=1)].T.reshape(-1, 2, m, n)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(-1, m, 2 * n)
    w = _relative_actions(z, lifts, norms)  # a zero action counts as exact
    lengths = np.linalg.norm(blocks, axis=2)
    eligible = lengths >= BLOCK_NORM_REL * lengths.max(axis=1, keepdims=True)
    actions = np.linalg.norm(w @ blocks.transpose(0, 2, 1), axis=1)
    rel = np.divide(actions, lengths, out=np.full(actions.shape, np.inf), where=eligible)
    rel = np.take_along_axis(rel, np.argsort(-lengths, axis=1, kind="stable"), axis=1)
    passing = rel <= POLYEIG_RESIDUAL_REL
    first = rel[np.arange(len(evs)), passing.argmax(axis=1)]
    residuals = np.where(passing.any(axis=1), first, rel.min(axis=1))
    fallback = ~(residuals <= POLYEIG_RESIDUAL_REL)
    if fallback.any():
        residuals[fallback] = singular_values(w[fallback])[:, -1]
    for ev, r in zip(evs, residuals):
        if not r <= POLYEIG_RESIDUAL_REL:
            raise ResidualFailureError(
                f"eigenvalue {ev.as_complex():.6g} failed the action residual check")
    return [(ev, float(r)) for ev, r in zip(evs, residuals)]


def polyeig(p: MatrixPolynomial) -> list[StandardEigenvalue]:
    """All m*n standard eigenvalues via the companion linearization.

    A k-fold class is listed k times, at the mean of its lift eigenvalues;
    each passes the action residual check or its backward error.  Output is
    sorted by (modulus, real part).
    """
    return [ev for ev, _ in polyeig_with_residuals(p)]


def eval_word(word: Sequence[int], mus: Sequence[Quaternion]) -> Quaternion:
    """Ordered left-to-right product of the substituted letters."""
    acc = Quaternion.ONE
    for letter in word:
        idx = int(letter) - 1
        if idx < 0 or idx >= len(mus):
            raise ValueError(f"letter {letter} outside 1..{len(mus)}")
        acc = acc * mus[idx]
    return acc


def _word_values(word: Sequence[int], mus: np.ndarray) -> np.ndarray:
    """w(mu) for every row of a (P, k, 4) array of substituted components.

    The letters are multiplied left to right with the operation order of
    ``Quaternion.__mul__``, so each row equals ``eval_word`` bit for bit.
    """
    acc = np.zeros((mus.shape[0], 4))
    acc[:, 0] = 1.0
    for letter in word:
        if not 1 <= letter <= mus.shape[1]:
            raise ValueError(f"letter {letter} outside 1..{mus.shape[1]}")
        pw, px, py, pz = acc.T
        qw, qx, qy, qz = mus[:, letter - 1].T
        acc = np.stack([pw * qw - px * qx - py * qy - pz * qz,
                        pw * qx + px * qw + py * qz - pz * qy,
                        pw * qy - px * qz + py * qw + pz * qx,
                        pw * qz + px * qy - py * qx + pz * qw], axis=1)
    return acc


def _realified_operators(lefts, norms, chunk) -> tuple[np.ndarray, np.ndarray]:
    """The (P, 4n, 4n) realified actions of a chunk of substitution tuples,
    and each one's term scale sum_w ||A_w||_2 |w(mu)|, ``norms`` the ||A_w||_2
    in the units of ``lefts``.

    With each letter value in units of a power of two 2^e near its modulus,
    w(mu) is 2^E times a value of modulus below 1, E the sum of its letters'
    e; every term of a tuple is divided by its largest 2^E (exact, no overflow).
    """
    mus = np.array([[(q.w, q.x, q.y, q.z) for q in tup] for tup in chunk],
                   dtype=float).reshape(len(chunk), -1, 4)
    exps = np.frexp(np.hypot.reduce(mus, axis=2))[1]
    units = np.ldexp(mus, -exps[..., None])
    values = np.array([_word_values(word, units) for word, _ in lefts])
    counts = [[word.count(letter) for letter in range(1, mus.shape[1] + 1)] for word, _ in lefts]
    word_exps = np.array(counts) @ exps.T
    values = np.ldexp(values, (word_exps - word_exps.max(axis=0))[..., None])
    rows, n = lefts[0][1].shape[:2]
    ops = np.zeros((len(chunk), rows, n, 4))
    for (_, left), action in zip(lefts, right_action_matrices(values)):
        ops += left[None] @ action[:, None]
    # R(w) is |w| times an orthogonal matrix and realification keeps 2-norms.
    return ops.reshape(len(chunk), rows, rows), norms @ np.linalg.norm(values, axis=2)


def realified_sweep(terms: Sequence[tuple[Sequence[int], QuaternionMatrix]],
                    tuples: Iterable[Sequence[Quaternion]]):
    """The realified oracle over an ordered iterable of substitution tuples.

    ``terms`` are (word, A_w) pairs of y -> sum_w A_w y w(mu_1, ..., mu_k);
    each left factor is realified once, and the right factor w(mu) is
    applied per 4 x 4 block.  Tuples are drawn lazily in chunks of 1, 4,
    16, ... operators (at most SWEEP_CHUNK_DOUBLES doubles a chunk), and
    each chunk is decided by one ``rank_decisions`` pass, scaled by the
    terms' sizes (at an eigenvalue they cancel, and so would the operator's
    own sigma_max).  Returns
    ("singular", tuple, unit kernel vector) for the first singular tuple,
    else ("unknown", None, None) when some tuple fell in the rank dead band,
    else ("nonsingular", None, None).
    """
    n = terms[0][1].n_rows
    # One exact power-of-two scale keeps the operators finite; no rank decision moves.
    scale = _pow2_near(max(a.max_entry_modulus() for _, a in terms))
    lefts = [(word, (real_rep_left(a) / scale).reshape(4 * n, n, 4)) for word, a in terms]
    norms = singular_values(np.array([_lift(a) for _, a in terms]))[:, 0] / scale
    cap = max(1, SWEEP_CHUNK_DOUBLES // (4 * n) ** 2)
    tuples = iter(tuples)
    undecided = False
    size = 1
    while chunk := list(itertools.islice(tuples, size)):
        status, kernels = rank_decisions(*_realified_operators(lefts, norms, chunk))
        hits = np.flatnonzero(status == "singular")
        if hits.size:
            kernel = kernels[hits[0]]
            return "singular", chunk[hits[0]], vec4_to_qvec(kernel / np.linalg.norm(kernel))
        undecided = undecided or bool((status == "unknown").any())
        size = min(4 * size, cap)
    return ("unknown" if undecided else "nonsingular"), None, None


def is_eigenvalue_oracle(p: MatrixPolynomial, mu: Quaternion):
    """Exact brute-force eigenvalue test through realification.

    The one-point sweep of y -> sum_i A_i y mu^i.  Returns True, False, or
    None when the pivot lands in the undecided band.
    """
    status, _, _ = realified_sweep(p.terms, [(mu,)])
    if status == "unknown":
        return None
    return status == "singular"


def eigenvector_at(p: MatrixPolynomial, mu: Quaternion) -> QuaternionMatrix | None:
    """A unit kernel vector of the realified action at mu, if one exists."""
    return realified_sweep(p.terms, [(mu,)])[2]


# ---------------------------------------------------------------------------
# Scalar quaternion polynomials
# ---------------------------------------------------------------------------


class ScalarQPolynomial:
    """Scalar polynomial sum a_i t^i with quaternion coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Quaternion]):
        coeffs = [c if isinstance(c, Quaternion) else Quaternion(float(c))
                  for c in coeffs]
        if not coeffs:
            raise ValueError("a scalar polynomial needs at least one coefficient")
        if coeffs[-1].modulus() == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, q: Quaternion) -> Quaternion:
        acc = self.coeffs[-1]
        for i in range(self.degree - 1, -1, -1):
            acc = acc * q + self.coeffs[i]
        return acc

    def is_monic(self) -> bool:
        return (self.coeffs[-1] - Quaternion.ONE).modulus() <= IDENTITY_ABS

    def monic(self) -> "ScalarQPolynomial":
        """Left-multiply by the inverse leading coefficient (same zeros)."""
        lead_inv = self.coeffs[-1].inverse()
        coeffs = [lead_inv * c for c in self.coeffs[:-1]]
        coeffs.append(Quaternion.ONE)
        return ScalarQPolynomial(coeffs)

    def as_matrix_polynomial(self) -> MatrixPolynomial:
        return MatrixPolynomial([QuaternionMatrix.from_rows([[c]]) for c in self.coeffs])

    def __repr__(self) -> str:
        return f"ScalarQPolynomial(degree={self.degree})"


def scalar_char_poly(p: ScalarQPolynomial) -> list[float]:
    """Real coefficients c_k = sum_{i+j=k} a_i conj(a_j), k = 0..2m.

    Requires p monic.  Zeros of this degree-2m real polynomial, sum_c P_c^2
    for the real component polynomials P_c of p (Janovska and Opfer, SIAM J.
    Numer. Anal. 48, 2010), with nonnegative imaginary part are exactly the
    standard eigenvalues of p.
    """
    if not p.is_monic():
        raise NotMonicError("characteristic coefficients need a monic polynomial")
    a = np.array([c.as_array() for c in p.coeffs])
    steps = np.arange(len(a))
    # c_k = sum_{i+j=k} <a_i, a_j>, the anti-diagonal sums of the Gram matrix a a^T.
    return np.bincount(np.add.outer(steps, steps).ravel(), weights=(a @ a.T).ravel()).tolist()


@dataclass(frozen=True)
class PolynomialZero:
    """A zero of a scalar quaternion polynomial.

    ``point`` is the zero itself for the isolated case, or the class
    representative when the whole similarity sphere is a zero set.
    ``multiplicity`` is the class's share of the degree: k for a k-fold
    isolated or real zero, 2k for a sphere whose real quadratic divides the
    polynomial k times (one more for an extra zero on that sphere).
    """

    eigenvalue_class: StandardEigenvalue
    point: Quaternion
    spherical: bool
    residual: float
    multiplicity: int = 1


def _lift_roots(a: np.ndarray) -> np.ndarray:
    """The 2d roots of C for every monic component array of an (S, d+1, 4)
    stack, from one ``eig_complex`` call on the block companions of the
    2 x 2 complex lifts [[A1, A2], [-conj(A2), conj(A1)]], whose determinants
    are the C.

    A simple real zero or sphere of p is a double root of C but a semisimple
    eigenvalue of this companion, so it comes out to rounding, not to its
    square root as from the coefficients of C.
    """
    count, d = a.shape[0], a.shape[1] - 1
    lift = np.ascontiguousarray(a[:, :-1]).view(np.complex128)  # rows (A1, A2)
    comp = np.tile(np.eye(2 * d, 2 * d, 2, dtype=np.complex128), (count, 1, 1))
    comp[:, -2] = -lift.reshape(count, 2 * d)
    comp[:, -1] = (lift[..., ::-1].conj() * (1.0, -1.0)).reshape(count, 2 * d)
    return eig_complex(comp)


def stacked_zeros(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Zeros of every polynomial of an (S, d+1, 4) stack of component arrays
    P_c (d >= 1, leading rows nonzero), one entry per class, counted with
    multiplicity.

    Each row is divided by a power of two near its largest coefficient and
    made monic; the 2d roots of C = sum_c P_c^2 come from ``_lift_roots``
    and their classes x + i s, with shares of d, from the classifier of the
    matrix spectra, ``linalg._standard_classes``, in units of max(1, |root|).
    p takes the remainder beta t + alpha of the division by t^2 - 2x t + x^2
    + s^2: beta = Im P_c(z) / s and alpha = Re P_c(z) - beta x at z = x + i s.
    A class on the real axis (s the mean |Im| of its roots) is a real zero
    where Re P_c(z), the remainder at x, is below SPHERE_REL; any other
    class below it is a sphere of zeros, given by its representative, else
    its one zero is -inv(beta) * alpha.

    Returns the row, class (re, im), point, sphere flag, share and residual
    of every class, by row and within a row by (modulus, re, im).
    """
    count, d = a.shape[0], a.shape[1] - 1
    a = np.ldexp(a, -np.frexp(np.hypot.reduce(a, axis=2).max(axis=1))[1][:, None, None])
    # inv(q) = conj(q) / |q|^2, with q first divided by its largest component.
    big = np.abs(a[:, -1]).max(axis=1, keepdims=True)
    lead = a[:, -1] / big
    inv = lead * _CONJ / ((lead * lead).sum(axis=1, keepdims=True) * big)
    a = a @ (inv @ _LEFT_UNITS).reshape(-1, 4, 4).transpose(0, 2, 1)
    a[:, -1] = (1.0, 0.0, 0.0, 0.0)
    roots = _lift_roots(a)
    x, s, shares, axis = _standard_classes(roots, np.maximum(1.0, np.abs(roots)))
    steps = np.arange(d + 1)
    grow = np.maximum(1.0, np.hypot(x, s))
    pscale = (grow[..., None] ** steps @ np.hypot.reduce(a, axis=2)[..., None])[..., 0]
    values = (x + 1j * s)[..., None] ** steps @ a
    real = axis & (np.hypot.reduce(values.real, axis=2) <= SPHERE_REL * pscale)
    s = np.where(real, 0.0, s)
    beta = np.divide(values.imag, s[..., None], out=np.zeros_like(values.real),
                     where=(s > 0.0)[..., None])
    alpha = values.real - beta * x[..., None]
    slope = np.hypot.reduce(beta, axis=2)
    remainder = slope * grow + np.hypot.reduce(alpha, axis=2)
    spherical = ~real & (remainder <= SPHERE_REL * pscale)
    isolated = ~real & ~spherical & (slope > SLOPE_REL * pscale)
    # The one zero -inv(beta) alpha = -conj(beta) alpha / |beta|^2 of each
    # isolated class, and p there by Horner's rule.
    zeta = ((alpha @ _RIGHT_UNITS).reshape(count, 2 * d, 4, 4) @ (beta * -_CONJ)[..., None])[..., 0]
    zeta = zeta / np.where(isolated, slope, 1.0)[..., None] ** 2
    times_zeta = (zeta @ _RIGHT_UNITS).reshape(count, 2 * d, 4, 4)
    value = zeta + a[:, -2, None]  # the monic leading term gives 1 zeta
    for i in range(d - 2, -1, -1):
        value = (times_zeta @ value[..., None])[..., 0] + a[:, i, None]
    rows, cols = np.nonzero((shares > 0) & (real | spherical | isolated))
    zeta, isolated, x, s = zeta[rows, cols], isolated[rows, cols], x[rows, cols], s[rows, cols]
    points = np.where(isolated[:, None], zeta, np.stack([x, s, *np.zeros((2, len(s)))], axis=1))
    classes = np.stack([points[:, 0], np.where(isolated, np.hypot.reduce(zeta[:, 1:], axis=1), s)], 1)
    residuals = np.where(isolated, np.hypot.reduce(value[rows, cols], axis=1), remainder[rows, cols])
    shares = shares[rows, cols]
    order = np.lexsort((classes[:, 1], classes[:, 0], np.hypot(*classes.T), rows))
    return (rows[order], classes[order], points[order], spherical[rows, cols][order],
            shares[order], residuals[order])


def scalar_zeros(p: ScalarQPolynomial) -> list[PolynomialZero]:
    """Zeros of p, one entry per eigenvalue class, counted with multiplicity
    and sorted by (modulus, re, im): ``stacked_zeros`` of a stack of one."""
    if p.degree == 0:
        return []
    _, *zeros = stacked_zeros(np.array([[c.as_array() for c in p.coeffs]]))
    return [PolynomialZero(StandardEigenvalue(*c), Quaternion(*q), spherical, residual, share)
            for c, q, spherical, share, residual in zip(*(z.tolist() for z in zeros))]
