"""Right quaternion matrix polynomials and their eigenvalue machinery.

A right polynomial P(t) = A_m t^m + ... + A_1 t + A_0 acts on vectors as
y -> sum_i A_i y mu^i with the scalar powers applied on the right of the
vector; mu is a right eigenvalue when that action kills some nonzero y.
Three independent routes to the same eigenvalues are kept side by side:

* companion linearization plus the complex lift (the fast path),
* the realified 4n x 4n singularity oracle (the exact brute-force check),
  which is the one-letter case of the realified sweep over (P, 4) point
  rows that stability verdicts and multivariate tuples share,
* for 1 x 1 polynomials, the real characteristic polynomial of degree 2m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .eigensolver import eig_complex, singular_values, solve
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
    _pow2_near,
    _relative_actions,
    _standard_classes,
    _standard_eigenvalues,
    complex_adjoint,
    inverse,
    invertible,
    lift_singular_values,
    qvec,
    rank_decisions,
    real_rep_left,
    vec4_to_qvec,
)
from .quaternion import (CONJ, UNIT_LEFT_ACTIONS, UNIT_RIGHT_ACTIONS, Quaternion,
                         StandardEigenvalue, moduli, right_action_matrices)
from .tolerances import IDENTITY_ABS, POLYEIG_RESIDUAL_REL, SLOPE_REL, SPHERE_REL

# A chunk of operators in the realified sweep holds at most this many doubles.
SWEEP_CHUNK_DOUBLES = 2 ** 16
# A word's running product is renormalised after this many letters of modulus
# in [1/2, 1): it stays above 2^-513, far from underflow.
RENORM_LETTERS = 512


class MatrixPolynomial:
    """Coefficient list (A_0, ..., A_m) of square quaternion matrices."""

    __slots__ = ("coeffs", "_sigma")

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
        self._sigma = None

    @property
    def lift_sigma(self) -> np.ndarray:
        """``lift_singular_values`` of the coefficients, taken once per polynomial."""
        if self._sigma is None:
            self._sigma = lift_singular_values(self.coeffs)
        return self._sigma

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
    overflows raises NoConvergenceError.  The lift singular values of A_m
    come from ``p.lift_sigma``, which spares ``inverse`` its SVD.
    """
    if p.degree < 1:
        raise ValueError("companion linearization needs degree at least 1")
    try:
        am_inv = inverse(p.coeffs[-1], p.lift_sigma[-1])
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

    ``linalg._standard_eigenvalues`` reads the classes off the values-only
    spectrum of the lifted companion; a k-fold class comes k times, at the
    mean of its roots.  The residual for mu is ||sum_i A_i y mu^i|| /
    ((sum_i ||A_i|| |mu|^i) ||y||), taken in the lift, where W(mu) = sum_i
    chi(A_i) mu^i acts on the lifted y.  Each y comes from one batched step of
    inverse iteration, W(mu) y = b for a fixed b.  Where W(mu) is exactly
    singular or y does not pass, the residual is sigma_min(W(mu)) over the
    same scale, the backward error of mu, which no vector beats (Tisseur, LAA
    309, 2000; Higham, Li and Tisseur, SIMAX 29, 2007).  Anything not at or
    below POLYEIG_RESIDUAL_REL raises ResidualFailureError.
    """
    lifts = np.array([complex_adjoint(a) for a in p.coeffs])
    sigma = p.lift_sigma
    if p.degree == 0:
        if not invertible(sigma[0]):
            raise SingularLeadingCoefficientError("degree-zero polynomial with singular coefficient")
        return []
    norms = sigma[:, 0]
    evs = _standard_eigenvalues(eig_complex(complex_adjoint(companion(p))), lifts, norms)
    w = _relative_actions(np.array([ev.as_complex() for ev in evs]), lifts, norms)
    # b_k = e^(2 pi i k g), g = 0.618... the golden section: unlike all ones, not orthogonal
    # to [1, -1] and its like.  As ||W(mu)|| <= 1, max |y_k| >= 1 unless y is not
    # finite (a zero pivot, or overflow).
    y = solve(w, np.exp(1j * np.pi * (5.0 ** 0.5 - 1.0) * np.arange(2 * p.size)))
    with np.errstate(over="ignore", invalid="ignore"):
        y /= np.abs(y).max(axis=1, keepdims=True)
        residuals = np.linalg.norm((w @ y[..., None])[..., 0], axis=1) / np.linalg.norm(y, axis=1)
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


def _word_values(words: Sequence[tuple[int, ...]], letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w(mu) of every word at every row of the (P, k, 4, 4) right action
    matrices R of the substituted letters, as (W, P, 4) values and (W, P)
    exps with w(mu) = values * 2^exps.

    The letters act left to right, each as p -> R p = p mu_j with the four
    products R[a, i] p_i summed in the order i = 0..3 of ``Quaternion.__mul__``
    (R holds the letter's components and their negations, exactly).  After
    every RENORM_LETTERS letters of a word, counted from its start, each row
    is divided by a power of two near its largest component (exact), so a
    long word of letters below 1 does not underflow; a shorter word is not
    touched, and its values equal the Quaternion product bit for bit.  Each
    distinct prefix is multiplied out once: the words go in sorted order, and
    each starts from the longest prefix it shares with the word before, kept
    on a stack that holds a prefix only at a length two neighbours share.
    """
    count, k = letters.shape[:2]
    order = sorted(range(len(words)), key=words.__getitem__)
    shared = [0] + [next((i for i, (a, b) in enumerate(zip(words[s], words[t])) if a != b),
                         min(len(words[s]), len(words[t]))) for s, t in zip(order, order[1:])]
    kept = set(shared)
    one = np.zeros((count, 4))
    one[:, 0] = 1.0
    stack = [(0, one, np.zeros(count, dtype=int))]
    values = np.empty((len(words), count, 4))
    exps = np.empty((len(words), count), dtype=int)
    for t, start in zip(order, shared):
        while stack[-1][0] > start:
            stack.pop()
        _, acc, shift_sum = stack[-1]
        for done, letter in enumerate(words[t][start:], start + 1):
            if not 1 <= letter <= k:
                raise ValueError(f"letter {letter} outside 1..{k}")
            terms = letters[:, letter - 1] * acc[:, None, :]
            acc = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]
            if done % RENORM_LETTERS == 0:
                shift = np.frexp(np.abs(acc).max(axis=1))[1]
                acc = np.ldexp(acc, -shift[:, None])
                shift_sum = shift_sum + shift
            if done in kept:
                stack.append((done, acc, shift_sum))
        values[t], exps[t] = acc, shift_sum
    return values, exps


def _realified_operators(lefts, words, counts, norms, mus) -> tuple[np.ndarray, np.ndarray]:
    """The (C, 4n, 4n) realified actions of a (C, k, 4) array of substitution
    tuples, and each one's term scale sum_w ||A_w||_2 |w(mu)|.  ``lefts`` is
    the (4n n, 4T) stack of the realified left factors, term t's (4n, n, 4)
    blocks flattened into columns 4t..4t+3, ``norms`` the ||A_w||_2 in its
    units and ``counts`` the (T, k) times each letter occurs in each word.

    With each letter value in units of a power of two 2^e near its modulus,
    w(mu) is 2^E times a value of modulus below 2, E the sum of its letters'
    e and of ``_word_values``' renormalisations; every term of a tuple is
    divided by its largest 2^E (exact, no overflow).  Each term adds one
    (4n n, 4) x (4, 4C) product, its blocks times every tuple's right action,
    into one buffer in term order; one transposed copy makes the stack.
    """
    exps = np.frexp(moduli(mus))[1]
    units = np.ldexp(mus, -exps[..., None])
    values, renorms = _word_values(words, right_action_matrices(units))
    word_exps = counts @ exps.T + renorms
    # frexp's int32 takes ldexp's fast loop; past its range every value goes to 0 alike.
    values = np.ldexp(values, np.maximum(word_exps - word_exps.max(axis=0), -2 ** 31).astype(np.int32)[..., None])
    count, n = len(mus), math.isqrt(len(lefts) // 4)
    # Term t's (4, 4C) action: R(w(mu_c))[a, b] in row a, column b C + c.
    actions = right_action_matrices(np.moveaxis(values, 2, 1), axis=1).reshape(len(words), 4, 4 * count)
    products = np.zeros((len(lefts), 4 * count))
    for t, action in enumerate(actions):
        products += lefts[:, 4 * t:4 * t + 4] @ action
    ops = products.reshape(4 * n, n, 4, count).transpose(3, 0, 1, 2).reshape(count, 4 * n, 4 * n)
    # R(w) is |w| times an orthogonal matrix and realification keeps 2-norms.
    return ops, norms @ np.linalg.norm(values, axis=2)


def sweep_chunks(count: int, doubles_each: int, _first_alone: bool = False) -> Iterator[tuple[int, int]]:
    """The (start, stop) chunks of a sweep over ``count`` candidates of ``doubles_each`` doubles:
    as many as SWEEP_CHUNK_DOUBLES doubles hold, since a chunk's fixed cost outweighs many
    candidates (README, realified oracle), but the first alone where it is likely the witness."""
    cap = max(1, SWEEP_CHUNK_DOUBLES // doubles_each)
    start, stop = 0, min(1 if _first_alone else cap, count)
    while start < count:
        yield start, stop
        start, stop = stop, min(stop + cap, count)


def realified_sweep(terms: Sequence[tuple[Sequence[int], QuaternionMatrix]],
                    points: np.ndarray, k: int = 1, norms: np.ndarray | None = None,
                    _first_alone: bool = False):
    """The realified oracle over every k-tuple of the (P, 4) [w, x, y, z]
    rows ``points``, in lexicographic order (that of ``itertools.product``).

    ``terms`` are (word, A_w) pairs of y -> sum_w A_w y w(mu_1, ..., mu_k);
    the left factors are realified once, side by side in one array, and the
    right factor w(mu) is applied per 4 x 4 block.  The P^k tuples go in
    the chunks of ``sweep_chunks`` at (4n)^2 doubles an operator, each indexed
    out of ``points`` by the base-P digits of its tuple numbers (what
    ``np.unravel_index`` gives, without its limit of 64 letters) and
    decided by one ``rank_decisions`` pass, scaled by the terms' sizes (at an eigenvalue
    they cancel, and so would the operator's own sigma_max).  Returns
    ("singular", its (k, 4) rows, unit kernel vector) for the first singular
    tuple, else ("unknown", None, None) when some tuple fell in the rank
    dead band, else ("nonsingular", None, None).  ``norms``, the ||A_w||_2
    when the caller has them, spares the sweep its SVD of the term lifts;
    ``_first_alone`` sends the first tuple to the rank test on its own.
    """
    n = terms[0][1].n_rows
    # One exact power-of-two scale keeps the operators finite; no rank decision moves.
    scale = _pow2_near(max(a.max_entry_modulus() for _, a in terms))
    lefts = np.concatenate([(real_rep_left(a) / scale).reshape(4 * n * n, 4) for _, a in terms], axis=1)
    words = [tuple(word) for word, _ in terms]
    if norms is None:
        norms = lift_singular_values([a for _, a in terms])[:, 0]
    norms = norms / scale
    counts = np.array([np.bincount(word, minlength=k + 1)[1:k + 1] for word in words])
    strides = len(points) ** np.arange(k - 1, -1, -1)
    undecided = False
    for start, stop in sweep_chunks(len(points) ** k, (4 * n) ** 2, _first_alone):
        tuples = points[np.arange(start, stop)[:, None] // strides % len(points)]
        status, kernels = rank_decisions(*_realified_operators(lefts, words, counts, norms, tuples))
        hits = np.flatnonzero(status == "singular")
        if hits.size:
            kernel = kernels[hits[0]]
            return "singular", tuples[hits[0]], vec4_to_qvec(kernel / np.linalg.norm(kernel))
        undecided = undecided or bool((status == "unknown").any())
    return ("unknown" if undecided else "nonsingular"), None, None


def is_eigenvalue_oracle(p: MatrixPolynomial, mu: Quaternion):
    """Exact brute-force eigenvalue test through realification.

    The one-point sweep of y -> sum_i A_i y mu^i.  Returns True, False, or
    None when the pivot lands in the undecided band.
    """
    status, _, _ = realified_sweep(p.terms, np.array([mu.as_array()]), norms=p.lift_sigma[:, 0])
    return None if status == "unknown" else status == "singular"


def eigenvector_at(p: MatrixPolynomial, mu: Quaternion) -> QuaternionMatrix | None:
    """A unit kernel vector of the realified action at mu, if one exists."""
    return realified_sweep(p.terms, np.array([mu.as_array()]), norms=p.lift_sigma[:, 0])[2]


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

    def __repr__(self) -> str:
        return f"ScalarQPolynomial(degree={self.degree})"


def scalar_char_poly(p: ScalarQPolynomial) -> list[float]:
    """Real coefficients c_k = sum_{i+j=k} a_i conj(a_j), k = 0..2m.

    Requires p monic.  Zeros of this degree-2m real polynomial, sum_c P_c^2
    for the real component polynomials P_c of p (Janovska and Opfer, SIAM J.
    Numer. Anal. 48, 2010), with nonnegative imaginary part are exactly the
    standard eigenvalues of p.
    """
    if not (p.coeffs[-1] - Quaternion.ONE).modulus() <= IDENTITY_ABS:
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
    P_c(z) at z = x + i s and its scale are formed on all 2d slots, as numpy's
    matmul rounds by operand shape; all that follows runs on the class slots.
    p takes the remainder beta t + alpha of the division by t^2 - 2x t + x^2 + s^2:
    beta = Im P_c(z) / s and alpha = Re P_c(z) - beta x.  A class on the real axis
    (s the mean |Im| of its roots) is a real zero where Re P_c(z), the remainder at
    x, is below SPHERE_REL; any other class below it is a sphere of zeros, given by
    its representative, else its one zero is -inv(beta) * alpha.

    Returns the row, class (re, im), point, sphere flag, share and residual
    of every class, by row and within a row by (modulus, re, im).
    """
    d = a.shape[1] - 1
    a = np.ldexp(a, -np.frexp(moduli(a).max(axis=1))[1][:, None, None])
    # inv(q) = conj(q) / |q|^2, with q first divided by its largest component.
    big = np.abs(a[:, -1]).max(axis=1, keepdims=True)
    lead = a[:, -1] / big
    inv = lead * CONJ / ((lead * lead).sum(axis=1, keepdims=True) * big)
    a = a @ (inv @ UNIT_LEFT_ACTIONS.reshape(4, 16)).reshape(-1, 4, 4).transpose(0, 2, 1)
    a[:, -1] = (1.0, 0.0, 0.0, 0.0)
    roots = _lift_roots(a)
    x, s, shares, axis = _standard_classes(roots, np.maximum(1.0, np.abs(roots)))
    steps = np.arange(d + 1)
    grow = np.maximum(1.0, np.hypot(x, s))
    pscale = (grow[..., None] ** steps @ moduli(a)[..., None])[..., 0]
    values = (x + 1j * s)[..., None] ** steps @ a
    rows, _ = slots = np.nonzero(shares > 0)
    x, s, axis, grow, pscale, values = (v[slots] for v in (x, s, axis, grow, pscale, values))
    real = axis & (moduli(values.real) <= SPHERE_REL * pscale)
    s = np.where(real, 0.0, s)
    beta = np.divide(values.imag, s[..., None], out=np.zeros_like(values.real), where=(s > 0.0)[..., None])
    alpha = values.real - beta * x[..., None]
    slope = moduli(beta)
    remainder = slope * grow + moduli(alpha)
    spherical = ~real & (remainder <= SPHERE_REL * pscale)
    isolated = ~real & ~spherical & (slope > SLOPE_REL * pscale)
    # The one zero -inv(beta) alpha = -conj(beta) alpha / |beta|^2 of each
    # isolated class, and p there by Horner's rule; (q @ right).reshape(4, 4)
    # is the right action matrix of q.
    right = UNIT_RIGHT_ACTIONS.reshape(4, 16)
    zeta = ((alpha @ right).reshape(-1, 4, 4) @ (beta * -CONJ)[..., None])[..., 0]
    zeta = zeta / np.where(isolated, slope, 1.0)[..., None] ** 2
    times_zeta = (zeta @ right).reshape(-1, 4, 4)
    value = zeta + a[rows, -2]  # the monic leading term gives 1 zeta
    for i in range(d - 2, -1, -1):
        value = (times_zeta @ value[..., None])[..., 0] + a[rows, i]
    kept = real | spherical | isolated
    rows, shares = rows[kept], shares[slots][kept]
    zeta, isolated, spherical, x, s = (v[kept] for v in (zeta, isolated, spherical, x, s))
    points = np.where(isolated[:, None], zeta, np.stack([x, s, *np.zeros((2, len(s)))], axis=1))
    classes = np.stack([points[:, 0], np.where(isolated, moduli(zeta[:, 1:]), s)], 1)
    residuals = np.where(isolated, moduli(value[kept]), remainder[kept])
    order = np.lexsort((classes[:, 1], classes[:, 0], np.hypot(*classes.T), rows))
    return rows[order], classes[order], points[order], spherical[order], shares[order], residuals[order]


def scalar_zeros(p: ScalarQPolynomial) -> list[PolynomialZero]:
    """Zeros of p, one entry per eigenvalue class, counted with multiplicity
    and sorted by (modulus, re, im): ``stacked_zeros`` of a stack of one."""
    if p.degree == 0:
        return []
    _, *zeros = stacked_zeros(np.array([[c.as_array() for c in p.coeffs]]))
    return [PolynomialZero(StandardEigenvalue(*c), Quaternion(*q), spherical, residual, share)
            for c, q, spherical, share, residual in zip(*(z.tolist() for z in zeros))]
