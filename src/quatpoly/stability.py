"""Regions of the quaternions and stability / hyperstability verdicts.

Stability of P with respect to a region means no right eigenvalue falls in
the region.  Since the eigenvalue set is a union of similarity-class
spheres, membership against balls, ball complements and annuli reduces to
closed-form distances between the region center and each class; a thin dead
band around every boundary yields UNKNOWN instead of a guess.
Hyperstability is strictly stronger and is only ever certified through a
structural theorem (scalar, triangular, or block composition); sampling can
refute it but never establish it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateCoefficientsError,
    NoConvergenceError,
    NoSignChangeError,
    PairingFailureError,
    SingularCoefficientError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
)
from .linalg import (
    QuaternionMatrix,
    _pow2_near,
    inverse,
    qvec,
    real_rep_left,
    spectral_norm,
    vec4_to_qvec,
)
from .matpoly import (
    _CONJ,
    MatrixPolynomial,
    ScalarQPolynomial,
    eigenvector_at,
    is_eigenvalue_oracle,
    polyeig,
    realified_sweep,
    scalar_zeros,
    stacked_zeros,
)
from .quaternion import (
    Quaternion,
    StandardEigenvalue,
    class_distance,
    class_distance_extremes,
    class_point,
    left_action_matrix,
    right_action_matrices,
)
from .tolerances import (BISECTION_WIDTH, BOUNDARY_BAND, DEGREE_TRIM_REL, DRAW_NORM_MIN,
                         FINITE_SET_REL, IDENTITY_ABS, INDUCED_VANISHING_REL, INV_FLOOR,
                         PRODUCT_MODULUS_SLACK, PROPORTIONAL_REL, ROOT_RESIDUAL_REL,
                         SPAN_INDEPENDENT_REL, SPAN_ZERO_REL, STRUCTURE_REL,
                         UNIT_BALL_ABS, VANISHING_REL)


class RegionKind(str, Enum):
    OPEN_BALL = "open_ball"
    CLOSED_BALL = "closed_ball"
    COMPLEMENT_CLOSED_BALL = "complement_closed_ball"
    ANNULUS = "annulus"
    FINITE_SET = "finite_set"


_BALL_KINDS = (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL)
_SEARCH_KINDS = (*_BALL_KINDS, RegionKind.FINITE_SET)


@dataclass(frozen=True)
class Region:
    """A subset of the quaternions with a total membership predicate."""

    kind: RegionKind
    center: Quaternion = Quaternion.ZERO
    radius: float = 0.0
    inner_radius: float = 0.0
    outer_radius: float = 0.0
    points: tuple[Quaternion, ...] = ()

    def __post_init__(self):
        values = [self.radius, self.inner_radius, self.outer_radius]
        values += [v for q in (self.center, *self.points) for v in q.as_array()]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("region values must be finite")
        if self.kind in (*_BALL_KINDS, RegionKind.COMPLEMENT_CLOSED_BALL):
            if not self.radius > 0.0:
                raise ValueError("ball kinds need a positive radius")
        elif self.kind is RegionKind.ANNULUS:
            if self.inner_radius < 0.0 or self.inner_radius > self.outer_radius:
                raise ValueError("annulus needs 0 <= inner_radius <= outer_radius")
        elif self.kind is RegionKind.FINITE_SET:
            if not self.points:
                raise ValueError("finite set region needs at least one point")

    @classmethod
    def open_ball(cls, center: Quaternion, radius: float) -> "Region":
        return cls(RegionKind.OPEN_BALL, center=center, radius=radius)

    @classmethod
    def closed_ball(cls, center: Quaternion, radius: float) -> "Region":
        return cls(RegionKind.CLOSED_BALL, center=center, radius=radius)

    @classmethod
    def complement_closed_ball(cls, center: Quaternion, radius: float) -> "Region":
        return cls(RegionKind.COMPLEMENT_CLOSED_BALL, center=center, radius=radius)

    @classmethod
    def annulus(cls, center: Quaternion, inner_radius: float,
                outer_radius: float) -> "Region":
        return cls(RegionKind.ANNULUS, center=center,
                   inner_radius=inner_radius, outer_radius=outer_radius)

    @classmethod
    def finite_set(cls, points: Sequence[Quaternion]) -> "Region":
        return cls(RegionKind.FINITE_SET, points=tuple(points))

    def margin(self, dmin: float, dmax: float) -> float:
        """Signed margin by which a set at distances [dmin, dmax] from the
        center meets this region: positive inside, negative outside."""
        if self.kind in _BALL_KINDS:
            return self.radius - dmin
        if self.kind is RegionKind.COMPLEMENT_CLOSED_BALL:
            return dmax - self.radius
        if self.kind is RegionKind.ANNULUS:
            return min(self.outer_radius - dmin, dmax - self.inner_radius)
        raise ValueError("class geometry does not apply to finite sets")

    def contains(self, q: Quaternion) -> bool:
        if self.kind is RegionKind.FINITE_SET:
            return any((q - p).modulus() <= FINITE_SET_REL * max(1.0, p.modulus())
                       for p in self.points)
        d = (q - self.center).modulus()
        strict = self.kind in (RegionKind.OPEN_BALL, RegionKind.COMPLEMENT_CLOSED_BALL)
        return self.margin(d, d) > 0.0 if strict else self.margin(d, d) >= 0.0


class StabilityStatus(str, Enum):
    STABLE = "STABLE"
    NOT_STABLE = "NOT_STABLE"
    UNKNOWN = "UNKNOWN"


class HyperStatus(str, Enum):
    HYPERSTABLE = "HYPERSTABLE"
    NOT_HYPERSTABLE_SAMPLED = "NOT_HYPERSTABLE_SAMPLED"
    UNKNOWN = "UNKNOWN"


@dataclass
class StabilityVerdict:
    status: StabilityStatus
    certificate: str
    witness: Optional[Quaternion] = None


@dataclass
class HyperVerdict:
    status: HyperStatus
    certificate: str
    witness: Optional[QuaternionMatrix] = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Deterministic sampling grids
# ---------------------------------------------------------------------------


def _radical_inverse(index: int, base: int) -> float:
    out = 0.0
    f = 1.0 / base
    while index > 0:
        out += f * (index % base)
        index //= base
        f /= base
    return out


def _halton4(index: int) -> tuple[float, float, float, float]:
    return (_radical_inverse(index, 2), _radical_inverse(index, 3),
            _radical_inverse(index, 5), _radical_inverse(index, 7))


def _unit_sphere_point(u1: float, u2: float, u3: float) -> tuple[float, float, float, float]:
    # Uniform distribution on the unit 3-sphere.
    a = math.sqrt(max(0.0, 1.0 - u1))
    b = math.sqrt(u1)
    t1 = 2.0 * math.pi * u2
    t2 = 2.0 * math.pi * u3
    return (a * math.sin(t1), a * math.cos(t1), b * math.sin(t2), b * math.cos(t2))


def _ball_grid_point(center: Quaternion, radius: float, index: int) -> Quaternion:
    u0, u1, u2, u3 = _halton4(index)
    rho = radius * u0 ** 0.25
    s = _unit_sphere_point(u1, u2, u3)
    return Quaternion(center.w + rho * s[0], center.x + rho * s[1],
                      center.y + rho * s[2], center.z + rho * s[3])


def quaternion_ball_grid(center: Quaternion, radius: float,
                         count: int) -> list[Quaternion]:
    """Deterministic low-discrepancy grid of ``count`` points in the open
    ball around ``center`` (all moduli strictly below ``radius``)."""
    return [_ball_grid_point(center, radius, t) for t in range(1, count + 1)]


def region_sample_grid(region: Region, count: int) -> list[Quaternion]:
    """Deterministic probe points inside a region (rejection off a ball grid)."""
    if region.kind is RegionKind.FINITE_SET:
        return list(region.points)
    if region.kind in _BALL_KINDS:
        return quaternion_ball_grid(region.center, region.radius, count)
    if region.kind is RegionKind.ANNULUS:
        base_radius = region.outer_radius
    else:  # complement: probe a shell just outside the excluded ball
        base_radius = 2.0 * region.radius + 1.0
    points = []
    index = 1
    budget = 60 * count + 64
    while len(points) < count and index <= budget:
        q = _ball_grid_point(region.center, base_radius, index)
        index += 1
        if region.contains(q):
            points.append(q)
    return points


# ---------------------------------------------------------------------------
# Class sphere versus region geometry
# ---------------------------------------------------------------------------


def _orthogonal_imaginary(direction: Quaternion) -> Quaternion:
    """A unit pure-imaginary quaternion orthogonal to the given vector part."""
    v = np.array([direction.x, direction.y, direction.z])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return Quaternion.J
    v /= nv
    pick = int(np.argmin(np.abs(v)))
    w = np.eye(3)[pick] - v[pick] * v
    w /= np.linalg.norm(w)
    return Quaternion(0.0, w[0], w[1], w[2])


def _class_point_at_distance(e: StandardEigenvalue, center: Quaternion,
                             target: float) -> Quaternion:
    """A point of the class of e at (approximately) the target distance
    from the center; exact whenever the target is attainable."""
    v = center.vec_norm()
    if e.im == 0.0:
        return Quaternion(e.re)
    if v == 0.0:
        return class_point(e, Quaternion.I)
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


def _class_region_relation(e: StandardEigenvalue, region: Region,
                           band: float) -> tuple[str, Optional[Quaternion]]:
    """Whether the class sphere of e meets the region.

    Returns ("inside", witness), ("outside", None) or ("boundary", None);
    "inside"/"outside" refer to the intersection test, and any margin inside
    the dead band is reported as "boundary".
    """
    dmin, dmax = class_distance_extremes(e, region.center)
    margin = region.margin(dmin, dmax)
    if margin > band:
        if region.kind in _BALL_KINDS:
            target = dmin
        elif region.kind is RegionKind.COMPLEMENT_CLOSED_BALL:
            target = dmax
        else:
            target = 0.5 * (max(dmin, region.inner_radius) + min(dmax, region.outer_radius))
        return "inside", _class_point_at_distance(e, region.center, target)
    if margin < -band:
        return "outside", None
    return "boundary", None


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def check_stability(p: MatrixPolynomial, region: Region, *,
                    band: float = BOUNDARY_BAND, samples: int = 500) -> StabilityVerdict:
    """Decide whether P has no right eigenvalue in the region.

    Finite sets are decided pointwise by the realified oracle.  For ball,
    complement and annulus regions the full spectrum is computed through the
    companion linearization and each similarity class is compared against
    the region geometry exactly; polynomials with a singular leading
    coefficient fall back to deterministic oracle sampling, which can refute
    stability but never certify it.
    """
    if region.kind is RegionKind.FINITE_SET:
        status, tup, _ = realified_sweep(p.terms, ((q,) for q in region.points))
        if status == "singular":
            return StabilityVerdict(StabilityStatus.NOT_STABLE,
                                    "pointwise-oracle", tup[0])
        if status == "unknown":
            return StabilityVerdict(StabilityStatus.UNKNOWN,
                                    "pointwise-oracle-deadband")
        return StabilityVerdict(StabilityStatus.STABLE, "pointwise-oracle")

    try:
        spectrum = polyeig(p)
    except SingularLeadingCoefficientError:
        return _sampled_stability(p, region, samples)

    boundary_seen = False
    for ev in spectrum:
        relation, witness = _class_region_relation(ev, region, band)
        if relation == "inside":
            confirmed = is_eigenvalue_oracle(p, witness)
            if confirmed is True:
                return StabilityVerdict(StabilityStatus.NOT_STABLE,
                                        "spectrum-class-geometry", witness)
            # Eigenvalue noise pushed the witness into the oracle dead band.
            boundary_seen = True
        elif relation == "boundary":
            boundary_seen = True
    if boundary_seen:
        return StabilityVerdict(StabilityStatus.UNKNOWN,
                                "spectrum-class-geometry-deadband")
    return StabilityVerdict(StabilityStatus.STABLE, "spectrum-class-geometry")


def _sampled_stability(p: MatrixPolynomial, region: Region,
                       samples: int) -> StabilityVerdict:
    grid = region_sample_grid(region, samples)
    status, tup, _ = realified_sweep(p.terms, ((q,) for q in grid))
    if status == "singular":
        return StabilityVerdict(StabilityStatus.NOT_STABLE, "oracle-sampling", tup[0])
    return StabilityVerdict(StabilityStatus.UNKNOWN,
                            "oracle-sampling-inconclusive")


# ---------------------------------------------------------------------------
# Eigenvalue annulus bounds
# ---------------------------------------------------------------------------


# Every positive root of a real polynomial with nonzero float end
# coefficients lies within 2^(+-2100) (Cauchy's bound on a ratio of floats).
_ROOT_EXPONENT_SPAN = 2200


def _substituted(coeffs: Sequence[float], s: int) -> list[float]:
    """Coefficients of f(2^s t), divided by one power of two so the largest
    is in [1/2, 1); exact except for terms that fall below the float range."""
    top = max(math.frexp(c)[1] + s * i for i, c in enumerate(coeffs) if c != 0.0)
    return [math.ldexp(c, s * i - top) for i, c in enumerate(coeffs)]


def unique_positive_root(coeffs: Sequence[float]) -> float:
    """The unique positive zero of a real polynomial whose coefficient
    sequence has exactly one sign change.

    Bisects over exponents k for 2^(k-1) < z <= 2^k and substitutes z = 2^k t,
    which is exact; bisects t in [1/2, 1] to width BISECTION_WIDTH and
    polishes with a few Newton steps.  A root that fails its residual check
    or is no positive finite float raises NoConvergenceError.
    """
    coeffs = [float(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    # Positive roots are unaffected by factoring out powers of z.
    while coeffs and coeffs[0] == 0.0:
        coeffs.pop(0)
    nonzero = [c for c in coeffs if c != 0.0]
    changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a < 0) != (b < 0))
    if changes != 1:
        raise NoSignChangeError(
            f"expected exactly one sign change, found {changes}")

    sign0 = coeffs[0] < 0
    lo_exp, binade = -_ROOT_EXPONENT_SPAN, _ROOT_EXPONENT_SPAN
    while binade - lo_exp > 1:
        mid = (lo_exp + binade) // 2
        if (math.fsum(_substituted(coeffs, mid)) < 0) == sign0:
            lo_exp = mid
        else:
            binade = mid
    coeffs = _substituted(coeffs, binade)

    def f(z: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def fprime(z: float) -> float:
        acc = 0.0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * z + i * coeffs[i]
        return acc

    lo, hi = 0.5, 1.0
    for _ in range(300):
        if hi - lo <= BISECTION_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0) == sign0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    froot = f(root)
    for _ in range(3):
        d = fprime(root)
        if d == 0.0 or froot == 0.0:
            break
        cand = root - froot / d
        if cand <= 0.0 or not math.isfinite(cand):
            break
        fcand = f(cand)
        if abs(fcand) >= abs(froot):
            break
        root, froot = cand, fcand
    scale = sum(abs(c) * root ** i for i, c in enumerate(coeffs))
    if abs(f(root)) > ROOT_RESIDUAL_REL * scale:
        raise NoConvergenceError("positive root failed its residual check")
    root = math.ldexp(root, binade)
    if not 0.0 < root < math.inf:
        raise NoConvergenceError("positive root lies outside the float range")
    return root


def eigenvalue_annulus(p: MatrixPolynomial) -> tuple[float, float]:
    """Radii (r, R) with every eigenvalue modulus inside [r, R].

    r is the unique positive zero of
    ||A_m|| z^m + ... + ||A_1|| z - 1/||A_0^-1||, and R of
    (1/||A_m^-1||) z^m - ||A_{m-1}|| z^{m-1} - ... - ||A_0||; all norms are
    spectral.  Both the constant and leading coefficients must be invertible.
    """
    if p.degree < 1:
        raise ValueError("annulus bounds need degree at least 1")
    try:
        a0_inv = inverse(p.coeffs[0])
    except SingularMatrixError as exc:
        raise SingularCoefficientError("constant coefficient is singular") from exc
    try:
        am_inv = inverse(p.coeffs[-1])
    except SingularMatrixError as exc:
        raise SingularCoefficientError("leading coefficient is singular") from exc
    norms = [spectral_norm(a) for a in p.coeffs]
    lower_coeffs = [-1.0 / spectral_norm(a0_inv), *norms[1:]]
    upper_coeffs = [-c for c in norms[:-1]] + [1.0 / spectral_norm(am_inv)]
    return unique_positive_root(lower_coeffs), unique_positive_root(upper_coeffs)


# ---------------------------------------------------------------------------
# Numerical range sampling
# ---------------------------------------------------------------------------
#
# A probe vector is a row of a real (S, 4n) array in vec4 order.  Both
# samplers form every coefficient set u* A_i v of their scalar polynomials
# at once, as an (S, m+1, 4) array, screened and trimmed by _trimmed.


@dataclass(frozen=True)
class RangePoint:
    point: Quaternion
    spherical: bool


class NumericalRangeResult(NamedTuple):
    points: list[RangePoint]
    skipped: int


# Component k of conj(u) v is the sum over a, b of u_a T[a, k, b] v_b with
# T = _CONJ_PRODUCT.
_CONJ_PRODUCT = np.stack([c * left_action_matrix(Quaternion(*e)) for c, e in zip(_CONJ, np.eye(4))])
# Column block u of p -> p @ _UNIT_RIGHT_ACTIONS is p u, for u = 1, i, j, k.
_UNIT_RIGHT_ACTIONS = right_action_matrices(np.eye(4)).transpose(2, 0, 1).reshape(4, 16)


def _unit_draws(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """``count`` unit rows, each a Gaussian draw of ``length`` normalized
    and drawn again while shorter than DRAW_NORM_MIN.  One block draw reads
    the generator as row-by-row draws do; a short row puts the generator
    back and the rows are drawn one by one, so the redraws match too."""
    state = rng.bit_generator.state
    block = rng.standard_normal((count, length))
    norms = np.array([math.sqrt(r @ r) for r in block]).reshape(count, 1)
    if (norms > DRAW_NORM_MIN).all():
        return block / norms
    rng.bit_generator.state = state
    rows = []
    while len(rows) < count:
        raw = rng.standard_normal(length)
        norm = math.sqrt(raw @ raw)
        if norm > DRAW_NORM_MIN:
            rows.append(raw / norm)
    return np.array(rows)


def _scaled_actions(p: MatrixPolynomial, ys: np.ndarray) -> tuple[np.ndarray, float]:
    """vec4(A_i y) for every row y, as an (S, m+1, 4n) array, and max ||A_i||_F,
    both divided by one power of two near the largest entry modulus: exact,
    and it moves no zero and no threshold scaled by them."""
    scale = _pow2_near(max(a.max_entry_modulus() for a in p.coeffs))
    lefts = np.stack([real_rep_left(a) for a in p.coeffs]) / scale
    coeff_scale = max(a.frobenius_norm() for a in p.coeffs) / scale
    return (lefts @ ys.T).transpose(2, 0, 1), coeff_scale


def _qinner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Quaternion inner products u_s* v = sum_t conj(u_st) v_t of vec4 rows:
    u is (S, 4n) and v is (S, R, 4n) or (R, 4n), broadcast to (S, R, 4)."""
    # The (4n, 4) real matrix of v -> u_s* v, for every s.
    forms = (u.reshape(len(u), -1, 4) @ _CONJ_PRODUCT.reshape(4, 16)).reshape(len(u), -1, 4, 4)
    return v @ forms.transpose(0, 1, 3, 2).reshape(len(u), -1, 4)


def _trimmed(cs: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """For an (S, m+1, 4) stack of scalar polynomials: which vanish (no
    coefficient modulus above ``floor``), and each one's degree, that of its
    last coefficient over DEGREE_TRIM_REL times the largest."""
    moduli = np.hypot.reduce(cs, axis=2)
    top = moduli.max(axis=1)
    above = moduli > DEGREE_TRIM_REL * top[:, None]
    return top <= floor, cs.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)


def sample_numerical_range(p: MatrixPolynomial, samples: int,
                           seed: int) -> NumericalRangeResult:
    """Inner approximation of the numerical range of P.

    For each of ``samples`` unit vectors y the scalar polynomial with
    coefficients y* A_i y is formed and all its zeros are collected with
    multiplicity: an isolated or real zero once per unit of its share, a
    spherical zero set once per two units as its class representative,
    flagged as such, and an odd unit as that representative unflagged (it is
    itself a zero).  Samples whose coefficients all vanish, or whose zeros
    cannot be classified (PairingFailureError), are skipped and counted.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ys = _unit_draws(np.random.default_rng(seed), samples, 4 * p.size)
    actions, coeff_scale = _scaled_actions(p, ys)
    cs = _qinner(ys, actions)
    vanishing, degrees = _trimmed(cs, VANISHING_REL * coeff_scale)
    skipped = int(vanishing.sum())
    if skipped == samples:
        raise DegenerateCoefficientsError(
            "every sample produced identically vanishing coefficients")
    # One stacked zero call per degree; a nonzero constant has no zeros.
    points = []
    for degree in np.unique(degrees[~vanishing & (degrees > 0)]).tolist():
        rows = np.flatnonzero(~vanishing & (degrees == degree))
        try:
            found, _, zeros, spherical, shares, _ = stacked_zeros(cs[rows, :degree + 1])
        except PairingFailureError as exc:  # the other rows classify as they do alone
            skipped += len(exc.rows)
            rows = np.delete(rows, exc.rows)
            found, _, zeros, spherical, shares, _ = stacked_zeros(cs[rows, :degree + 1])
        spheres = np.where(spherical, shares // 2, 0)
        flags = np.repeat(np.tile([True, False], len(shares)),
                          np.column_stack([spheres, shares - 2 * spheres]).ravel())
        take = np.repeat(np.arange(len(shares)), shares - spheres)
        points += zip(rows[found][take].tolist(), zeros[take].tolist(), flags.tolist())
    points.sort(key=lambda point: point[0])  # by sample, stable within one
    return NumericalRangeResult([RangePoint(Quaternion(*q), f) for _, q, f in points], skipped)


# ---------------------------------------------------------------------------
# Hyperstability
# ---------------------------------------------------------------------------


class SearchWitness(NamedTuple):
    vector: QuaternionMatrix
    certificate: str


def _region_contains_closed_unit_ball(region: Region) -> bool:
    if region.center.modulus() > UNIT_BALL_ABS:
        return False
    if region.kind is RegionKind.CLOSED_BALL:
        return region.radius >= 1.0 - UNIT_BALL_ABS
    if region.kind is RegionKind.OPEN_BALL:
        return region.radius > 1.0 + UNIT_BALL_ABS
    return False


def _span_basis(vs: np.ndarray) -> np.ndarray:
    """Orthonormal real basis, as rows, of the realified right span of the
    rows of ``vs``; the longest has norm in [1/2, 1), which SPAN_ZERO_REL assumes."""
    width = vs.shape[1]
    candidates = (vs.reshape(len(vs), -1, 4) @ _UNIT_RIGHT_ACTIONS).reshape(len(vs), -1, 4, 4)
    candidates = candidates.transpose(0, 2, 1, 3).reshape(-1, width)
    basis: list[np.ndarray] = []
    for cand in candidates:
        norm0 = math.sqrt(cand @ cand)
        if norm0 <= SPAN_ZERO_REL:
            continue
        for b in basis:
            cand = cand - (b @ cand) * b
        norm = math.sqrt(cand @ cand)
        if norm > SPAN_INDEPENDENT_REL * norm0:
            basis.append(cand / norm)
    return np.array(basis).reshape(-1, width)


def _zero_meets_region(zero, region: Region, band: float) -> bool:
    if region.kind is RegionKind.FINITE_SET:
        if zero.spherical:
            return any(class_distance(zero.eigenvalue_class, q) <= band
                       for q in region.points)
        return region.contains(zero.point)
    if zero.spherical:
        dmin, dmax = class_distance_extremes(zero.eigenvalue_class, region.center)
    else:
        dmin = dmax = (zero.point - region.center).modulus()
    # A zero within the dead band of the boundary does not count as inside.
    return region.margin(dmin, dmax) > band


def not_hyperstable_search(p: MatrixPolynomial, region: Region, *,
                           y_samples: int = 16, seed: int = 42) -> Optional[SearchWitness]:
    """Search for a vector y witnessing failure of hyperstability.

    For each candidate y (the 4n canonical unit vectors, then ``y_samples``
    random ones) the scalar polynomials z* P(t) y are examined over z drawn
    from the realified span of {A_i y}: y is a witness when every such
    polynomial vanishes somewhere in the region.  Two certificates can back
    a hit: the exact quadratic product-of-roots argument (constant and
    leading coefficient proportional by a factor of modulus <= 1, with the
    region containing the closed unit ball), or exhaustion of all sampled z.
    """
    if region.kind not in _SEARCH_KINDS:
        raise ValueError("search supports ball regions and finite sets only")
    rng = np.random.default_rng(seed)
    width = 4 * p.size
    ys = np.vstack([np.eye(width), _unit_draws(rng, max(0, y_samples), width)])
    actions, coeff_scale = _scaled_actions(p, ys)
    quadratic_certificate = p.degree == 2 and _region_contains_closed_unit_ball(region)
    for y, vs in zip(ys, actions):
        vnorm = float(np.linalg.norm(vs, axis=1).max())
        if vnorm <= VANISHING_REL * coeff_scale:
            # P(t) y vanishes identically for every t and z.
            return SearchWitness(vec4_to_qvec(y), "universal-kernel")
        # An exact power-of-two scale moves no zero of any z* P(t) y and
        # puts max ||A_i y|| in [1/2, 1).
        vs = vs / _pow2_near(vnorm)
        if quadratic_certificate and _quadratic_product_certificate(vs):
            return SearchWitness(vec4_to_qvec(y), "quadratic-product-certificate")
        if _all_sampled_z_fail(vs, region, rng):
            return SearchWitness(vec4_to_qvec(y), "sampled-z-exhaustion")
    return None


def _quadratic_product_certificate(vs: np.ndarray) -> bool:
    """Exact certificate for quadratics over regions containing the closed
    unit ball: if A_0 y = (A_2 y) q with |q| <= 1, then for every z the
    induced scalar polynomial has the root-moduli product |q| <= 1, so some
    root stays inside the unit ball (degenerate cases fall back to the root
    at zero).  ``vs`` holds the rows vec4(A_i y)."""
    v0, v2 = vs[0], vs[2]
    n0, n2 = math.hypot(*v0), math.hypot(*v2)
    if n2 <= INV_FLOOR:
        # Induced polynomials are multiples of t: root at 0.
        return n0 <= INV_FLOOR
    q = _qinner(v2[None], v0[None])[0, 0] / n2 / n2
    residual = np.linalg.norm(v0 - (v2.reshape(-1, 4) @ right_action_matrices(q).T).ravel())
    if residual > PROPORTIONAL_REL * max(n0, n2):
        return False
    return math.hypot(*q) <= 1.0 + PRODUCT_MODULUS_SLACK


def _all_sampled_z_fail(vs: np.ndarray, region: Region,
                        rng: np.random.Generator) -> bool:
    """Whether every sampled z makes z* P(t) y vanish somewhere in the region;
    z runs over each span basis vector b and then -b, then (b_a + b_b)/sqrt(2)
    for a < b, then 48 random unit combinations."""
    basis = _span_basis(vs)
    if not len(basis):
        return True  # no z sees the action at all
    first, second = np.triu_indices(len(basis), 1)
    zs = np.vstack([np.stack([basis, -basis], axis=1).reshape(-1, basis.shape[1]),
                    (basis[first] + basis[second]) / math.sqrt(2.0),
                    _unit_draws(rng, 48, len(basis)) @ basis])
    floor = INDUCED_VANISHING_REL * float(np.linalg.norm(vs, axis=1).max())
    # Every z* A_i y at once, as the conjugates of (A_i y)* z.
    css = _qinner(vs, zs).swapaxes(0, 1) * _CONJ
    vanishing, degrees = _trimmed(css, floor)
    # A vanishing polynomial fails everywhere; one without zeros in the
    # region (a nonzero constant has none) ends the search for this y.
    for cs, degree in zip(css[~vanishing], degrees[~vanishing].tolist()):
        coeffs = [Quaternion(*c) for c in cs[:degree + 1].tolist()]
        zeros = scalar_zeros(ScalarQPolynomial(coeffs)) if degree else []
        if not any(_zero_meets_region(zero, region, BOUNDARY_BAND) for zero in zeros):
            return False
    return True


def _block_partition_slices(partition: Sequence[int], n: int) -> list[slice]:
    sizes = [int(s) for s in partition]
    if any(s < 1 for s in sizes) or sum(sizes) != n:
        raise ValueError(f"partition {sizes} does not tile dimension {n}")
    return [slice(end - s, end) for s, end in zip(sizes, itertools.accumulate(sizes))]


def _is_block_upper_triangular(p: MatrixPolynomial, slices: list[slice],
                               tol: float) -> bool:
    """Whether every coefficient is zero, to ``tol`` in entry modulus,
    strictly below the diagonal blocks; triangular is the case of 1 x 1 blocks."""
    blocks = np.concatenate([np.full(sl.stop - sl.start, b) for b, sl in enumerate(slices)])
    below = blocks[:, None] > blocks[None, :]
    return all(np.hypot(np.abs(a.a1), np.abs(a.a2))[below].max(initial=0.0) <= tol
               for a in p.coeffs)


def _diagonal_block_polynomial(p: MatrixPolynomial, sl: slice) -> Optional[MatrixPolynomial]:
    coeffs = [QuaternionMatrix(a.a1[sl, sl], a.a2[sl, sl]) for a in p.coeffs]
    if all(c.is_zero() for c in coeffs):
        return None
    return MatrixPolynomial(coeffs, trim=True)


def check_hyperstability(p: MatrixPolynomial, region: Region, *,
                         partition: Optional[Sequence[int]] = None,
                         band: float = BOUNDARY_BAND,
                         y_samples: int = 16, seed: int = 42,
                         evidence_samples: int = 120) -> HyperVerdict:
    """Certificate ladder for hyperstability; first match wins.

    (1) scalar polynomials: hyperstable iff stable;
    (2) upper triangular with identity leading coefficient: likewise;
    (3) block upper triangular with a declared partition: hyperstable when
        every diagonal block is (composition is one-directional);
    (4) counterexample search producing a sampled negative witness;
    (5) otherwise UNKNOWN, with sampled numerical-range disjointness quoted
        as evidence in the certificate text but never as a proof.
    """
    struct_tol = STRUCTURE_REL * max(1.0, max(a.max_entry_modulus() for a in p.coeffs))

    if p.size == 1:
        return _equivalence_verdict(p, region, band, "scalar-equivalence")

    identity = QuaternionMatrix.identity(p.size)
    if p.coeffs[-1].allclose(identity, IDENTITY_ABS) and _is_block_upper_triangular(
            p, _block_partition_slices([1] * p.size, p.size), struct_tol):
        return _equivalence_verdict(p, region, band, "triangular-equivalence")

    if partition is not None and len(partition) >= 2:
        slices = _block_partition_slices(partition, p.size)
        blocks = (_diagonal_block_polynomial(p, sl) for sl in slices)
        if _is_block_upper_triangular(p, slices, struct_tol) and all(
                block is not None and check_hyperstability(
                    block, region, band=band, y_samples=y_samples, seed=seed,
                    evidence_samples=evidence_samples).status is HyperStatus.HYPERSTABLE
                for block in blocks):
            return HyperVerdict(HyperStatus.HYPERSTABLE, "block-composition")

    if region.kind in _SEARCH_KINDS:
        hit = not_hyperstable_search(p, region, y_samples=y_samples, seed=seed)
        if hit is not None:
            return HyperVerdict(HyperStatus.NOT_HYPERSTABLE_SAMPLED,
                                hit.certificate, witness=hit.vector)

    evidence = _numerical_range_evidence(p, region, evidence_samples, seed)
    return HyperVerdict(HyperStatus.UNKNOWN,
                        f"inconclusive ({evidence}; evidence only)",
                        details={"evidence": evidence})


def _equivalence_verdict(p: MatrixPolynomial, region: Region, band: float,
                         certificate: str) -> HyperVerdict:
    stab = check_stability(p, region, band=band)
    if stab.status is StabilityStatus.STABLE:
        return HyperVerdict(HyperStatus.HYPERSTABLE, certificate)
    if stab.status is StabilityStatus.NOT_STABLE:
        witness = eigenvector_at(p, stab.witness)
        if witness is None and p.size == 1:
            witness = qvec([Quaternion.ONE])
        return HyperVerdict(HyperStatus.NOT_HYPERSTABLE_SAMPLED, certificate,
                            witness=witness,
                            details={"witness_eigenvalue": stab.witness})
    return HyperVerdict(HyperStatus.UNKNOWN, certificate + "-inconclusive")


def _numerical_range_evidence(p: MatrixPolynomial, region: Region,
                              samples: int, seed: int) -> str:
    try:
        result = sample_numerical_range(p, samples, seed)
    except DegenerateCoefficientsError:
        return "numerical-range sampling degenerate"
    hits = sum(1 for rp in result.points if region.contains(rp.point))
    if hits:
        return (f"sampled numerical range meets the region "
                f"({hits} of {len(result.points)} points)")
    return (f"sampled numerical range disjoint from the region "
            f"({len(result.points)} points)")
