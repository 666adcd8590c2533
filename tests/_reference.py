"""Scalar references for array code of the package: the similarity class of
one quaternion, its distances to a point and its point in a direction, which
``stability.Region`` computes on arrays of classes as margins and class
witnesses; ``vec4`` of one column vector; a scalar polynomial's Horner value,
monic form and 1 x 1 matrix polynomial; region membership of one point or
class sphere by ``math.hypot``, the Halton ball grid and its rejection
sampler one point at a time, as the package once computed them, and a
multivariate action from ``Quaternion`` products of the letters.  Also the
ball grid as ``Quaternion`` objects, for tests that probe with them, and the
zero finder as it once ran, over all 2d root slots of every row, the
relative residual actions as they were once scaled, into fresh arrays, and
the witness point of one class sphere in a region, one ``Quaternion`` at a
time."""

import math
from typing import Sequence

import numpy as np

from quatpoly import (DimensionMismatchError, MatrixPolynomial, MultiPolynomial, Quaternion,
                      QuaternionMatrix, Region, RegionKind, ScalarQPolynomial, qvec)
from quatpoly.linalg import _standard_classes
from quatpoly.matpoly import _lift_roots
from quatpoly.quaternion import CONJ, UNIT_LEFT_ACTIONS, UNIT_RIGHT_ACTIONS, StandardEigenvalue
from quatpoly.stability import _BALL_KINDS, _ball_grid
from quatpoly.tolerances import FINITE_SET_REL, SLOPE_REL, SPHERE_REL


def standardize(q: Quaternion) -> StandardEigenvalue:
    """Map q to the complex representative of its similarity class.

    The representative keeps the real part and turns the imaginary part into
    its norm, which fully determines the class.
    """
    return StandardEigenvalue(q.w, q.vec_norm())


def similar(p: Quaternion, q: Quaternion, tol: float = 1e-10) -> bool:
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


def evaluate(p: ScalarQPolynomial, q: Quaternion) -> Quaternion:
    acc = p.coeffs[-1]
    for i in range(p.degree - 1, -1, -1):
        acc = acc * q + p.coeffs[i]
    return acc


def monic(p: ScalarQPolynomial) -> ScalarQPolynomial:
    """Left-multiply by the inverse leading coefficient (same zeros)."""
    lead_inv = p.coeffs[-1].inverse()
    coeffs = [lead_inv * c for c in p.coeffs[:-1]]
    coeffs.append(Quaternion.ONE)
    return ScalarQPolynomial(coeffs)


def as_matrix_polynomial(p: ScalarQPolynomial) -> MatrixPolynomial:
    return MatrixPolynomial([QuaternionMatrix.from_rows([[c]]) for c in p.coeffs])


def eval_word(word: Sequence[int], mus: Sequence[Quaternion]) -> Quaternion:
    """Ordered left-to-right product of the substituted letters."""
    acc = Quaternion.ONE
    for letter in word:
        idx = int(letter) - 1
        if idx < 0 or idx >= len(mus):
            raise ValueError(f"letter {letter} outside 1..{len(mus)}")
        acc = acc * mus[idx]
    return acc


def eval_action_multi(p: MultiPolynomial, y, mus: Sequence[Quaternion]) -> QuaternionMatrix:
    """sum over terms of A_w y w(mu_1, ..., mu_k)."""
    if len(mus) != p.k:
        raise DimensionMismatchError(
            f"expected {p.k} substitution values, got {len(mus)}")
    v = y if isinstance(y, QuaternionMatrix) else qvec(y)
    if v.n_cols != 1 or v.n_rows != p.size:
        raise DimensionMismatchError(
            f"vector has shape {v.shape}, expected ({p.size}, 1)")
    acc = QuaternionMatrix.zeros(p.size, 1)
    for word, coeff in p.terms:
        acc = acc + (coeff @ v).scale_right(eval_word(word, mus))
    return acc


def contains(region: Region, q: Quaternion, spherical: bool = False) -> bool:
    """Whether q, or its class sphere when ``spherical``, meets the region."""
    e = standardize(q)
    if region.kind is RegionKind.FINITE_SET:
        return any((class_distance(e, p) if spherical else (q - p).modulus())
                   <= FINITE_SET_REL * max(1.0, p.modulus())
                   for p in map(Quaternion, *region.points.T.tolist()))
    if spherical:
        dmin, dmax = class_distance_extremes(e, region.center)
    else:
        dmin = dmax = (q - region.center).modulus()
    if region.kind in (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL):
        margin = region.radius - dmin
    elif region.kind is RegionKind.COMPLEMENT_CLOSED_BALL:
        margin = dmax - region.radius
    else:
        margin = min(region.outer_radius - dmin, dmax - region.inner_radius)
    if region.kind in (RegionKind.OPEN_BALL, RegionKind.COMPLEMENT_CLOSED_BALL):
        return margin > 0.0
    return margin >= 0.0


def _radical_inverse(index: int, base: int) -> float:
    out = 0.0
    f = 1.0 / base
    while index > 0:
        out += f * (index % base)
        index //= base
        f /= base
    return out


def _unit_sphere_point(u1: float, u2: float, u3: float) -> tuple[float, float, float, float]:
    # Uniform distribution on the unit 3-sphere.
    a = math.sqrt(max(0.0, 1.0 - u1))
    b = math.sqrt(u1)
    t1 = 2.0 * math.pi * u2
    t2 = 2.0 * math.pi * u3
    return (a * math.sin(t1), a * math.cos(t1), b * math.sin(t2), b * math.cos(t2))


def ball_grid_point(center: Quaternion, radius: float, index: int) -> Quaternion:
    """Point ``index`` (from 1) of the Halton grid of the ball."""
    u0, u1, u2, u3 = (_radical_inverse(index, base) for base in (2, 3, 5, 7))
    rho = radius * u0 ** 0.25
    s = _unit_sphere_point(u1, u2, u3)
    return Quaternion(center.w + rho * s[0], center.x + rho * s[1],
                      center.y + rho * s[2], center.z + rho * s[3])


def quaternion_ball_grid(center: Quaternion, radius: float,
                         count: int) -> list[Quaternion]:
    """Deterministic low-discrepancy grid of ``count`` points in the open
    ball around ``center`` (all moduli strictly below ``radius``)."""
    return [Quaternion(*q) for q in _ball_grid(center, radius, 1, count + 1).tolist()]


def region_sample_grids(region: Region, top: int) -> dict[int, list[Quaternion]]:
    """What the rejection sampler gives an annulus or a complement for every
    count c = 1, ..., top: the first c grid points inside the region among
    the points 1, ..., 60 c + 64, tested one at a time in one pass."""
    base_radius = (region.outer_radius if region.kind is RegionKind.ANNULUS
                   else 2.0 * region.radius + 1.0)
    inside = []
    for index in range(1, 60 * top + 65):
        q = ball_grid_point(region.center, base_radius, index)
        if contains(region, q):
            inside.append((index, q))
            if len(inside) == top:
                break
    return {c: [q for index, q in inside[:c] if index <= 60 * c + 64] for c in range(1, top + 1)}


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
    inv = lead * CONJ / ((lead * lead).sum(axis=1, keepdims=True) * big)
    a = a @ (inv @ UNIT_LEFT_ACTIONS.reshape(4, 16)).reshape(-1, 4, 4).transpose(0, 2, 1)
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
    # isolated class, and p there by Horner's rule; (q @ right).reshape(4, 4)
    # is the right action matrix of q.
    right = UNIT_RIGHT_ACTIONS.reshape(4, 16)
    zeta = ((alpha @ right).reshape(count, 2 * d, 4, 4) @ (beta * -CONJ)[..., None])[..., 0]
    zeta = zeta / np.where(isolated, slope, 1.0)[..., None] ** 2
    times_zeta = (zeta @ right).reshape(count, 2 * d, 4, 4)
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


def relative_actions(z: np.ndarray, lifts: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``linalg._relative_actions`` as it once ran: ldexp and a complex by
    real division, each into a fresh array."""
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


def _orthogonal_imaginary(direction: Quaternion) -> Quaternion:
    """A unit pure-imaginary quaternion orthogonal to the given nonzero
    vector part."""
    v = np.array([direction.x, direction.y, direction.z])
    v /= np.linalg.norm(v)
    pick = int(np.argmin(np.abs(v)))
    w = np.eye(3)[pick] - v[pick] * v
    w /= np.linalg.norm(w)
    return Quaternion(0.0, w[0], w[1], w[2])


def _class_point_at_distance(e: StandardEigenvalue, center: Quaternion,
                             target: float) -> Quaternion:
    """A point of the class of e (e.im > 0) at (approximately) the target
    distance from a center with a nonzero vector part; exact whenever the
    target is attainable."""
    v = center.vec_norm()
    u_hat = Quaternion(0.0, center.x / v, center.y / v, center.z / v)
    gap = e.re - center.w
    cos_t = (e.im ** 2 + v ** 2 + gap ** 2 - target ** 2) / (2.0 * e.im * v)
    cos_t = min(1.0, max(-1.0, cos_t))
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t ** 2))
    w_hat = _orthogonal_imaginary(u_hat)
    direction = Quaternion(0.0,
                           cos_t * u_hat.x + sin_t * w_hat.x,
                           cos_t * u_hat.y + sin_t * w_hat.y,
                           cos_t * u_hat.z + sin_t * w_hat.z)
    return class_point(e, direction)


def _class_witness(e: StandardEigenvalue, region: Region) -> Quaternion:
    """A point of the class of e inside the region: the nearest point to the
    center for a ball, the farthest for its complement (both aligned with
    the center's vector part, so exact), and for an annulus the point at the
    middle of the distances the class and the annulus share."""
    center = region.center
    if e.im == 0.0:
        return Quaternion(e.re)
    if center.vec_norm() == 0.0:
        return class_point(e, Quaternion.I)
    if region.kind in _BALL_KINDS:
        return class_point(e, center)
    if region.kind is RegionKind.COMPLEMENT_CLOSED_BALL:
        return class_point(e, -center)
    dmin, dmax = class_distance_extremes(e, center)
    target = 0.5 * (max(dmin, region.inner_radius) + min(dmax, region.outer_radius))
    return _class_point_at_distance(e, center, target)
