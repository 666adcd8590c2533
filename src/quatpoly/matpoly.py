"""Right quaternion matrix polynomials and their eigenvalue machinery.

A right polynomial P(t) = A_m t^m + ... + A_1 t + A_0 acts on vectors as
y -> sum_i A_i y mu^i with the scalar powers applied on the right of the
vector; mu is a right eigenvalue when that action kills some nonzero y.
Three independent routes to the same eigenvalues are kept side by side:

* companion linearization plus the complex lift (the fast path),
* the realified 4n x 4n singularity oracle (the exact brute-force check),
  which is the one-letter case of the realified sweep that finite sets,
  sample grids and multivariate tuples share,
* for 1 x 1 polynomials, the real characteristic polynomial of degree 2m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    _pairing_scale,
    _pow2_near,
    _standard_eigenpairs,
    complex_adjoint,
    inverse,
    qvec,
    rank_decisions,
    real_rep_left,
    spectral_norm,
    vec4_to_qvec,
)
from .quaternion import Quaternion, StandardEigenvalue, right_action_matrices, standardize
from .tolerances import (BLOCK_NORM_REL, DIFF_STEP, GN_DAMPING, GN_STEP_REL, IDENTITY_ABS,
                         POLYEIG_RESIDUAL_REL, REAL_CLASS_REL, ROOT_CLUSTER_REL, SCALE_FLOOR,
                         SLOPE_REL, SPHERE_REL, SPHERE_TRY_REL)

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
    n = p.size
    m = p.degree
    c = QuaternionMatrix.zeros(m * n, m * n)
    for r in range(m - 1):
        rows = slice(r * n, (r + 1) * n)
        cols = slice((r + 1) * n, (r + 2) * n)
        c.a1[rows, cols] = np.eye(n)
    last = slice((m - 1) * n, m * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            tilde = am_inv @ p.coeffs[i]
            cols = slice(i * n, (i + 1) * n)
            c.a1[last, cols] = -tilde.a1
            c.a2[last, cols] = -tilde.a2
    if not c.is_finite():
        raise NoConvergenceError("the monic normalization inverse(A_m) * A_i overflows")
    return c


def polyeig_with_residuals(p: MatrixPolynomial) -> list[tuple[StandardEigenvalue, float]]:
    """Standard eigenvalues paired with their relative action residuals.

    The residual for mu is ||sum_i A_i y mu^i|| / ((sum_i ||A_i|| |mu|^i) ||y||),
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
    comp = companion(p)
    pairs = _standard_eigenpairs(complex_adjoint(comp), _pairing_scale(comp))
    n = p.size
    m = p.degree
    # Lifted block b of a companion eigenvector [v1; v2] is (v1[b], v2[b]).
    blocks = np.array([vec for _, vec in pairs]).reshape(-1, 2, m, n)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(-1, m, 2 * n)
    # Coefficients are taken in units of the power of two just below the
    # largest norm: exact scaling, and no underflow of the scale for tiny
    # polynomials.
    norms = np.array([spectral_norm(a) for a in p.coeffs])
    unit = math.ldexp(1.0, math.frexp(norms.max())[1] - 1)
    lifts = np.array([complex_adjoint(a) for a in p.coeffs]) / unit
    # For |mu| > 1 both sides are divided by mu^m, so mu^i becomes
    # (1/mu)^(m-i): the same ratio, and no power exceeds 1.
    z = np.array([ev.as_complex() for ev, _ in pairs])
    big = np.abs(z) > 1.0
    z[big] = 1.0 / z[big]
    powers = z[:, None] ** np.arange(m + 1)
    powers[big] = powers[big, ::-1]
    weights = np.abs(powers) @ (norms / unit)
    # W(mu) over its scale before any norm is taken; a zero scale means a
    # zero action, which counts as exact.
    w = np.tensordot(powers, lifts, axes=1) / np.where(weights > 0.0, weights, 1.0)[:, None, None]
    lengths = np.linalg.norm(blocks, axis=2)
    eligible = lengths >= BLOCK_NORM_REL * np.maximum(lengths.max(axis=1, keepdims=True),
                                                      SCALE_FLOOR)
    actions = np.linalg.norm(w @ blocks.transpose(0, 2, 1), axis=1)
    rel = np.divide(actions, lengths, out=np.full(actions.shape, np.inf), where=eligible)
    rel = np.take_along_axis(rel, np.argsort(-lengths, axis=1, kind="stable"), axis=1)
    passing = rel <= POLYEIG_RESIDUAL_REL
    first = rel[np.arange(len(pairs)), passing.argmax(axis=1)]
    residuals = np.where(passing.any(axis=1), first, rel.min(axis=1))
    fallback = ~(residuals <= POLYEIG_RESIDUAL_REL)
    if fallback.any():
        residuals[fallback] = singular_values(w[fallback])[:, -1]
    for (ev, _), r in zip(pairs, residuals):
        if not r <= POLYEIG_RESIDUAL_REL:
            raise ResidualFailureError(
                f"eigenvalue {ev.as_complex():.6g} failed the action residual check")
    return [(ev, float(r)) for (ev, _), r in zip(pairs, residuals)]


def polyeig(p: MatrixPolynomial) -> list[StandardEigenvalue]:
    """All m*n standard eigenvalues via the companion linearization.

    Every returned eigenvalue is backed by a recovered eigenvector passing
    the action residual check; output is sorted by (modulus, real part).
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


def _realified_operators(lefts, chunk) -> np.ndarray:
    """The (P, 4n, 4n) realified actions of a chunk of substitution tuples."""
    mus = np.array([[(q.w, q.x, q.y, q.z) for q in tup] for tup in chunk],
                   dtype=float).reshape(len(chunk), -1, 4)
    rows, n = lefts[0][1].shape[:2]
    ops = np.zeros((len(chunk), rows, n, 4))
    for word, left in lefts:
        ops += left[None] @ right_action_matrices(_word_values(word, mus))[:, None]
    return ops.reshape(len(chunk), rows, rows)


def realified_sweep(terms: Sequence[tuple[Sequence[int], QuaternionMatrix]],
                    tuples: Iterable[Sequence[Quaternion]]):
    """The realified oracle over an ordered iterable of substitution tuples.

    ``terms`` are (word, A_w) pairs of y -> sum_w A_w y w(mu_1, ..., mu_k);
    each left factor is realified once, and the right factor w(mu) is
    applied per 4 x 4 block.  Tuples are drawn lazily in chunks of 1, 4,
    16, ... operators (at most SWEEP_CHUNK_DOUBLES doubles a chunk), and
    each chunk is decided by one ``rank_decisions`` pass.  Returns
    ("singular", tuple, unit kernel vector) for the first singular tuple,
    else ("unknown", None, None) when some tuple fell in the rank dead band,
    else ("nonsingular", None, None).
    """
    n = terms[0][1].n_rows
    # One exact power-of-two scale keeps the operators finite; no rank decision moves.
    scale = _pow2_near(max(a.max_entry_modulus() for _, a in terms))
    lefts = [(word, (real_rep_left(a) / scale).reshape(4 * n, n, 4)) for word, a in terms]
    cap = max(1, SWEEP_CHUNK_DOUBLES // (4 * n) ** 2)
    tuples = iter(tuples)
    undecided = False
    size = 1
    while chunk := list(itertools.islice(tuples, size)):
        status, kernels = rank_decisions(_realified_operators(lefts, chunk))
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

    def __init__(self, coeffs: Sequence[Quaternion], *, trim: bool = False):
        coeffs = [c if isinstance(c, Quaternion) else Quaternion(float(c))
                  for c in coeffs]
        if not coeffs:
            raise ValueError("a scalar polynomial needs at least one coefficient")
        if trim:
            while len(coeffs) > 1 and coeffs[-1].modulus() == 0.0:
                coeffs.pop()
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

    Requires p monic.  Zeros of this degree-2m real polynomial with
    nonnegative imaginary part are exactly the standard eigenvalues of p;
    the k = 0 term |a_0|^2 is included so the constant coefficient is kept.
    """
    if not p.is_monic():
        raise NotMonicError("characteristic coefficients need a monic polynomial")
    m = p.degree
    a = p.coeffs
    out = []
    for k in range(2 * m + 1):
        # Terms i and k - i are conjugates: only the real parts add up.
        acc = 0.0
        for i in range(max(0, k - m), min(m, k) + 1):
            b = a[k - i]
            acc = acc + (a[i].w * b.w + a[i].x * b.x + a[i].y * b.y + a[i].z * b.z)
        out.append(acc)
    return out


@dataclass(frozen=True)
class PolynomialZero:
    """A zero of a scalar quaternion polynomial.

    ``point`` is the zero itself for the isolated case, or the class
    representative when the whole similarity sphere is a zero set.
    """

    eigenvalue_class: StandardEigenvalue
    point: Quaternion
    spherical: bool
    residual: float


def _poly_eval_real(coeffs: Sequence[float], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_eval_real_deriv(coeffs: Sequence[float], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + i * coeffs[i]
    return acc


def _real_poly_roots(coeffs: Sequence[float]) -> list[complex]:
    """Roots of a real polynomial (ascending coefficients) via its companion."""
    coeffs = [float(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    d = len(coeffs) - 1
    if d < 1:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    comp = np.zeros((d, d), dtype=np.complex128)
    for r in range(d - 1):
        comp[r, r + 1] = 1.0
    comp[d - 1, :] = [-c for c in monic[:-1]]
    roots = list(eig_complex(comp))
    polished = []
    for z in roots:
        # Newton, accepting only residual-decreasing steps: at multiple
        # roots both f and f' sit at noise level and a raw step diverges.
        fz = _poly_eval_real(monic, z)
        for _ in range(5):
            if fz == 0:
                break
            dz = _poly_eval_real_deriv(monic, z)
            if dz == 0:
                break
            step = fz / dz
            if not np.isfinite(step):
                break
            cand = z - step
            f_cand = _poly_eval_real(monic, cand)
            if abs(f_cand) >= abs(fz):
                break
            z, fz = cand, f_cand
        polished.append(complex(z))
    return polished


def _divide_by_real_linear(coeffs: Sequence[Quaternion], x: float) -> Quaternion:
    """Remainder of division by (t - x); equals the evaluation at x."""
    work = list(coeffs)
    for i in range(len(work) - 1, 0, -1):
        work[i - 1] = work[i - 1] + work[i] * x
    return work[0]


def _divide_by_real_quadratic(coeffs: Sequence[Quaternion], u: float,
                              v: float) -> tuple[Quaternion, Quaternion]:
    """Remainder beta*t + alpha of division by t^2 + u t + v.

    Real divisor coefficients commute with quaternions, so the division is
    well defined and the remainder equals the polynomial on the whole class
    sphere cut out by the divisor.
    """
    work = list(coeffs)
    for i in range(len(work) - 1, 1, -1):
        q = work[i]
        work[i - 1] = work[i - 1] - q * u
        work[i - 2] = work[i - 2] - q * v
    if len(work) == 1:
        return Quaternion.ZERO, work[0]
    return work[1], work[0]


def _remainder_vector(coeffs, u, v) -> np.ndarray:
    beta, alpha = _divide_by_real_quadratic(coeffs, u, v)
    return np.array(beta.as_array() + alpha.as_array())


def _refine_quadratic_factor(coeffs, u: float,
                             v: float) -> tuple[float, float, Quaternion, Quaternion]:
    """Gauss-Newton on (u, v) minimizing the division remainder.

    Used to pin down class spheres that divide the polynomial exactly but
    arrive with the O(sqrt(eps)) noise of multiple characteristic roots.
    """
    for _ in range(6):
        r = _remainder_vector(coeffs, u, v)
        du = max(DIFF_STEP, DIFF_STEP * abs(u))
        dv = max(DIFF_STEP, DIFF_STEP * abs(v))
        ju = (_remainder_vector(coeffs, u + du, v) - _remainder_vector(coeffs, u - du, v)) / (2 * du)
        jv = (_remainder_vector(coeffs, u, v + dv) - _remainder_vector(coeffs, u, v - dv)) / (2 * dv)
        jac = np.column_stack([ju, jv])
        jtj = jac.T @ jac
        rhs = -jac.T @ r
        try:
            delta = solve(jtj + GN_DAMPING * np.eye(2), rhs)
        except NoConvergenceError:
            break
        if not np.all(np.isfinite(delta)):
            break
        u += float(delta[0])
        v += float(delta[1])
        if np.linalg.norm(delta) <= GN_STEP_REL * max(1.0, abs(u), abs(v)):
            break
    beta, alpha = _divide_by_real_quadratic(coeffs, u, v)
    return u, v, beta, alpha


def _cluster_classes(roots: list[complex], span: float) -> list[tuple[float, float]]:
    reps = sorted((z.real, abs(z.imag)) for z in roots)
    tol = ROOT_CLUSTER_REL * max(1.0, span)
    clusters: list[list[tuple[float, float]]] = []
    for rep in reps:
        for group in clusters:
            gx, gy = group[0]
            if abs(rep[0] - gx) <= tol and abs(rep[1] - gy) <= tol:
                group.append(rep)
                break
        else:
            clusters.append([rep])
    out = []
    for group in clusters:
        xs = [g[0] for g in group]
        ys = [g[1] for g in group]
        out.append((sum(xs) / len(xs), sum(ys) / len(ys)))
    return out


def scalar_zeros(p: ScalarQPolynomial) -> list[PolynomialZero]:
    """Zeros of p, one entry per eigenvalue class.

    Each class either contains exactly one zero (extracted from the division
    remainder as -inv(beta) * alpha) or consists entirely of zeros, in which
    case the entry is marked spherical and carries the class representative.
    """
    poly = ScalarQPolynomial(p.coeffs, trim=True)
    if poly.degree == 0:
        return []
    # Dividing by a power of two near the largest coefficient is exact and
    # moves no zero, and the leading coefficient stays invertible.
    e = math.frexp(max(c.modulus() for c in poly.coeffs))[1]
    monic = ScalarQPolynomial([Quaternion(*(math.ldexp(v, -e) for v in c.as_array()))
                               for c in poly.coeffs]).monic()
    coeffs = list(monic.coeffs)
    char = scalar_char_poly(monic)
    roots = _real_poly_roots(char)
    if not roots:
        return []
    span = max(abs(z) for z in roots)
    classes = _cluster_classes(roots, span)
    out = []
    for x, s in classes:
        rho = math.hypot(x, s)
        pscale = sum(c.modulus() * max(1.0, rho) ** i for i, c in enumerate(coeffs))
        if s <= REAL_CLASS_REL * max(1.0, rho):
            alpha = _divide_by_real_linear(coeffs, x)
            point = Quaternion(x)
            out.append(PolynomialZero(StandardEigenvalue(x, 0.0), point,
                                      False, alpha.modulus()))
            continue
        u = -2.0 * x
        v = x * x + s * s
        beta, alpha = _divide_by_real_quadratic(coeffs, u, v)
        rem = beta.modulus() * max(1.0, rho) + alpha.modulus()
        if rem <= SPHERE_TRY_REL * pscale:
            u2, v2, beta2, alpha2 = _refine_quadratic_factor(coeffs, u, v)
            rem2 = beta2.modulus() * max(1.0, rho) + alpha2.modulus()
            if rem2 <= SPHERE_REL * pscale:
                x2 = -u2 / 2.0
                s2 = math.sqrt(max(v2 - x2 * x2, 0.0))
                cls = StandardEigenvalue(x2, s2)
                out.append(PolynomialZero(cls, cls.lift(), True, rem2))
                continue
            beta, alpha = beta2, alpha2
        if beta.modulus() <= SLOPE_REL * pscale:
            # Residual class with no recoverable zero; numerically spurious.
            continue
        zeta = -(beta.inverse() * alpha)
        best = zeta
        best_res = monic.evaluate(zeta).modulus()
        for _ in range(2):
            cls = standardize(best)
            if cls.im <= REAL_CLASS_REL * max(1.0, cls.modulus()):
                break
            b2, a2 = _divide_by_real_quadratic(
                coeffs, -2.0 * cls.re, cls.re ** 2 + cls.im ** 2)
            if b2.modulus() <= SLOPE_REL * pscale:
                break
            cand = -(b2.inverse() * a2)
            res = monic.evaluate(cand).modulus()
            if res < best_res:
                best, best_res = cand, res
            else:
                break
        out.append(PolynomialZero(standardize(best), best, False, best_res))
    out.sort(key=lambda z: (z.eigenvalue_class.modulus(),
                            z.eigenvalue_class.re, z.eigenvalue_class.im))
    return out
