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

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateCoefficientsError,
    NoSignChangeError,
    SingularCoefficientError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
)
from .linalg import (
    QuaternionMatrix,
    inverse,
    qvec,
    spectral_norm,
    vec4,
    vec4_to_qvec,
)
from .matpoly import (
    MatrixPolynomial,
    ScalarQPolynomial,
    eigenvector_at,
    is_eigenvalue_oracle,
    polyeig,
    realified_sweep,
    scalar_zeros,
)
from .quaternion import (
    Quaternion,
    StandardEigenvalue,
    class_distance,
    class_distance_extremes,
    class_point,
)
from .tolerances import (BISECTION_WIDTH, BOUNDARY_BAND, DEGREE_TRIM_REL, DRAW_NORM_MIN,
                         FINITE_SET_REL, IDENTITY_ABS, INDUCED_VANISHING_REL, INV_FLOOR,
                         PRODUCT_MODULUS_SLACK, PROPORTIONAL_REL, ROOT_RESIDUAL_REL,
                         SCALE_FLOOR, SPAN_INDEPENDENT_REL, SPAN_ZERO_REL, STRUCTURE_REL,
                         UNIT_BALL_ABS, VANISHING_REL)


class RegionKind(str, Enum):
    OPEN_BALL = "open_ball"
    CLOSED_BALL = "closed_ball"
    COMPLEMENT_CLOSED_BALL = "complement_closed_ball"
    ANNULUS = "annulus"
    FINITE_SET = "finite_set"


_BALL_KINDS = (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL)


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
        if self.kind in (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL,
                         RegionKind.COMPLEMENT_CLOSED_BALL):
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


def quaternion_ball_grid(center: Quaternion, radius: float,
                         count: int) -> list[Quaternion]:
    """Deterministic low-discrepancy grid of ``count`` points in the open
    ball around ``center`` (all moduli strictly below ``radius``)."""
    points = []
    for t in range(1, count + 1):
        u0, u1, u2, u3 = _halton4(t)
        rho = radius * u0 ** 0.25
        s = _unit_sphere_point(u1, u2, u3)
        points.append(Quaternion(center.w + rho * s[0], center.x + rho * s[1],
                                 center.y + rho * s[2], center.z + rho * s[3]))
    return points


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
        u0, u1, u2, u3 = _halton4(index)
        index += 1
        rho = base_radius * u0 ** 0.25
        s = _unit_sphere_point(u1, u2, u3)
        q = Quaternion(region.center.w + rho * s[0], region.center.x + rho * s[1],
                       region.center.y + rho * s[2], region.center.z + rho * s[3])
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
    axes = np.eye(3)
    pick = int(np.argmin(np.abs(axes @ v)))
    w = axes[pick] - (axes[pick] @ v) * v
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


def unique_positive_root(coeffs: Sequence[float]) -> float:
    """The unique positive zero of a real polynomial whose coefficient
    sequence has exactly one sign change.

    Brackets by doubling from [0, 1], bisects to absolute width 1e-12, then
    polishes with a few Newton steps.
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

    sign0 = coeffs[0] < 0
    hi = 1.0
    guard = 0
    while (f(hi) < 0) == sign0 and f(hi) != 0.0:
        hi *= 2.0
        guard += 1
        if guard > 2000:
            raise NoSignChangeError("failed to bracket a positive root")
    lo = 0.0
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
    if abs(f(root)) > ROOT_RESIDUAL_REL * max(scale, SCALE_FLOOR):
        raise RuntimeError("positive root failed its residual check")
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
    lower_coeffs = [-1.0 / spectral_norm(a0_inv)]
    lower_coeffs.extend(norms[1:])
    upper_coeffs = [-norms[i] for i in range(p.degree)]
    upper_coeffs.append(1.0 / spectral_norm(am_inv))
    return unique_positive_root(lower_coeffs), unique_positive_root(upper_coeffs)


# ---------------------------------------------------------------------------
# Numerical range sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangePoint:
    point: Quaternion
    spherical: bool


class NumericalRangeResult(NamedTuple):
    points: list[RangePoint]
    skipped: int


def _random_unit_qvec(rng: np.random.Generator, n: int) -> QuaternionMatrix:
    while True:
        raw = rng.standard_normal(4 * n)
        norm = float(np.linalg.norm(raw))
        if norm > DRAW_NORM_MIN:
            return vec4_to_qvec(raw / norm)


def sample_numerical_range(p: MatrixPolynomial, samples: int,
                           seed: int) -> NumericalRangeResult:
    """Inner approximation of the numerical range of P.

    For each of ``samples`` unit vectors y the scalar polynomial with
    coefficients y* A_i y is formed and all its zeros are collected; a
    spherical zero set contributes its class representative, flagged as
    such.  Samples whose coefficients all vanish are skipped and counted.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = p.size
    coeff_scale = max(a.frobenius_norm() for a in p.coeffs)
    points: list[RangePoint] = []
    skipped = 0
    for _ in range(samples):
        y = _random_unit_qvec(rng, n)
        y_adj = y.adjoint()
        cs = [(y_adj @ (a @ y)).entry(0, 0) for a in p.coeffs]
        top = max(c.modulus() for c in cs)
        if top <= VANISHING_REL * coeff_scale:
            skipped += 1
            continue
        degree = max(i for i, c in enumerate(cs) if c.modulus() > DEGREE_TRIM_REL * top)
        if degree == 0:
            continue  # nonzero constant: no zeros contributed
        poly = ScalarQPolynomial(cs[:degree + 1])
        for zero in scalar_zeros(poly):
            points.append(RangePoint(zero.point, zero.spherical))
    if skipped == samples:
        raise DegenerateCoefficientsError(
            "every sample produced identically vanishing coefficients")
    return NumericalRangeResult(points, skipped)


# ---------------------------------------------------------------------------
# Hyperstability
# ---------------------------------------------------------------------------


class SearchWitness(NamedTuple):
    vector: QuaternionMatrix
    certificate: str


def _canonical_unit_vectors(n: int) -> list[QuaternionMatrix]:
    units = [Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K]
    out = []
    for t in range(n):
        for u in units:
            entries = [Quaternion.ZERO] * n
            entries[t] = u
            out.append(qvec(entries))
    return out


def _region_contains_closed_unit_ball(region: Region) -> bool:
    if region.center.modulus() > UNIT_BALL_ABS:
        return False
    if region.kind is RegionKind.CLOSED_BALL:
        return region.radius >= 1.0 - UNIT_BALL_ABS
    if region.kind is RegionKind.OPEN_BALL:
        return region.radius > 1.0 + UNIT_BALL_ABS
    return False


def _span_basis(vectors: list[QuaternionMatrix]) -> list[np.ndarray]:
    """Orthonormal real basis of the realified right span of the vectors.

    The longest vector has norm in [1/2, 1), so SPAN_ZERO_REL acts relative to it.
    """
    basis: list[np.ndarray] = []
    units = [Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K]
    for v in vectors:
        for u in units:
            cand = vec4(v.scale_right(u))
            norm0 = float(np.linalg.norm(cand))
            if norm0 <= SPAN_ZERO_REL:
                continue
            for b in basis:
                cand = cand - (b @ cand) * b
            norm = float(np.linalg.norm(cand))
            if norm > SPAN_INDEPENDENT_REL * norm0:
                basis.append(cand / norm)
    return basis


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

    For each candidate y the scalar polynomials z* P(t) y are examined over
    z drawn from the realified span of {A_i y}: y is a witness when every
    such polynomial vanishes somewhere in the region.  Two certificates can
    back a hit: the exact quadratic product-of-roots argument (constant and
    leading coefficient proportional by a factor of modulus <= 1, with the
    region containing the closed unit ball), or exhaustion of all sampled z.
    """
    if region.kind not in (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL,
                           RegionKind.FINITE_SET):
        raise ValueError("search supports ball regions and finite sets only")
    rng = np.random.default_rng(seed)
    n = p.size
    candidates = _canonical_unit_vectors(n)
    for _ in range(max(0, y_samples)):
        candidates.append(_random_unit_qvec(rng, n))
    unit_ball_region = _region_contains_closed_unit_ball(region)
    coeff_scale = max(a.frobenius_norm() for a in p.coeffs)
    for y in candidates:
        vs = [a @ y for a in p.coeffs]
        vnorm = max(v.frobenius_norm() for v in vs)
        if vnorm <= VANISHING_REL * coeff_scale:
            # P(t) y vanishes identically for every t and z.
            return SearchWitness(y, "universal-kernel")
        # An exact power-of-two scale moves no zero of any z* P(t) y and
        # puts max ||A_i y|| in [1/2, 1), clear of under- and overflow
        # (2^1023 is the largest power of two a float holds).
        vs = [v * math.ldexp(1.0, -max(math.frexp(vnorm)[1], -1023)) for v in vs]
        if p.degree == 2 and unit_ball_region:
            witness = _quadratic_product_certificate(vs, y)
            if witness is not None:
                return witness
        if _all_sampled_z_fail(vs, region, rng):
            return SearchWitness(y, "sampled-z-exhaustion")
    return None


def _quadratic_product_certificate(vs: list[QuaternionMatrix],
                                   y: QuaternionMatrix) -> Optional[SearchWitness]:
    """Exact certificate for quadratics over regions containing the closed
    unit ball: if A_0 y = (A_2 y) q with |q| <= 1, then for every z the
    induced scalar polynomial has the root-moduli product |q| <= 1, so some
    root stays inside the unit ball (degenerate cases fall back to the root
    at zero)."""
    v2, v0 = vs[2], vs[0]
    n2 = v2.frobenius_norm()
    if n2 <= INV_FLOOR:
        if v0.frobenius_norm() <= INV_FLOOR:
            # Induced polynomials are multiples of t: root at 0.
            return SearchWitness(y, "quadratic-product-certificate")
        return None
    inner = (v2.adjoint() @ v0).entry(0, 0)
    q = inner / (n2 * n2)
    residual = (v0 - v2.scale_right(q)).frobenius_norm()
    if residual > PROPORTIONAL_REL * max(v0.frobenius_norm(), n2):
        return None
    if q.modulus() <= 1.0 + PRODUCT_MODULUS_SLACK:
        return SearchWitness(y, "quadratic-product-certificate")
    return None


def _all_sampled_z_fail(vs: list[QuaternionMatrix], region: Region,
                        rng: np.random.Generator) -> bool:
    basis = _span_basis(vs)
    if not basis:
        return True  # no z sees the action at all
    dim = len(basis)
    zs: list[np.ndarray] = []
    for b in basis:
        zs.append(b)
        zs.append(-b)
    for a in range(dim):
        for b in range(a + 1, dim):
            zs.append((basis[a] + basis[b]) / math.sqrt(2.0))
    while len(zs) < 2 * dim + dim * (dim - 1) // 2 + 48:  # and 48 random directions
        w = rng.standard_normal(dim)
        norm = float(np.linalg.norm(w))
        if norm <= DRAW_NORM_MIN:
            continue
        zs.append(sum(c * b for c, b in zip(w / norm, basis)))
    vmax = max(v.frobenius_norm() for v in vs)
    for z_arr in zs:
        z = vec4_to_qvec(z_arr)
        z_adj = z.adjoint()
        cs = [(z_adj @ v).entry(0, 0) for v in vs]
        top = max(c.modulus() for c in cs)
        if top <= INDUCED_VANISHING_REL * vmax:
            continue  # identically zero polynomial: fails everywhere
        degree = max(i for i, c in enumerate(cs) if c.modulus() > DEGREE_TRIM_REL * top)
        if degree == 0:
            return False  # nonzero constant: this z never vanishes on the region
        zeros = scalar_zeros(ScalarQPolynomial(cs[:degree + 1]))
        if not any(_zero_meets_region(zero, region, BOUNDARY_BAND)
                   for zero in zeros):
            return False
    return True


def _is_identity(a: QuaternionMatrix) -> bool:
    return (a - QuaternionMatrix.identity(a.n_rows)).max_entry_modulus() <= IDENTITY_ABS


def _is_upper_triangular(a: QuaternionMatrix, tol: float) -> bool:
    for i in range(a.n_rows):
        for j in range(i):
            if a.entry(i, j).modulus() > tol:
                return False
    return True


def _block_partition_slices(partition: Sequence[int], n: int) -> list[slice]:
    sizes = [int(s) for s in partition]
    if any(s < 1 for s in sizes) or sum(sizes) != n:
        raise ValueError(f"partition {sizes} does not tile dimension {n}")
    slices = []
    start = 0
    for s in sizes:
        slices.append(slice(start, start + s))
        start += s
    return slices


def _is_block_upper_triangular(a: QuaternionMatrix, slices: list[slice],
                               tol: float) -> bool:
    for bi in range(len(slices)):
        for bj in range(bi):
            block = QuaternionMatrix(a.a1[slices[bi], slices[bj]],
                                     a.a2[slices[bi], slices[bj]])
            if block.max_entry_modulus() > tol:
                return False
    return True


def _diagonal_block_polynomial(p: MatrixPolynomial, sl: slice) -> Optional[MatrixPolynomial]:
    coeffs = [QuaternionMatrix(a.a1[sl, sl], a.a2[sl, sl]) for a in p.coeffs]
    if all(c.is_zero() for c in coeffs):
        return None
    return MatrixPolynomial(coeffs, trim=True)


def _negative_witness(p: MatrixPolynomial, mu: Optional[Quaternion]) -> Optional[QuaternionMatrix]:
    if mu is None:
        return None
    return eigenvector_at(p, mu)


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

    if _is_identity(p.coeffs[-1]) and all(
            _is_upper_triangular(a, struct_tol) for a in p.coeffs):
        return _equivalence_verdict(p, region, band, "triangular-equivalence")

    if partition is not None and len(partition) >= 2:
        slices = _block_partition_slices(partition, p.size)
        if all(_is_block_upper_triangular(a, slices, struct_tol) for a in p.coeffs):
            sub_ok = True
            for sl in slices:
                block_poly = _diagonal_block_polynomial(p, sl)
                if block_poly is None:
                    sub_ok = False
                    break
                sub = check_hyperstability(block_poly, region, band=band,
                                           y_samples=y_samples, seed=seed,
                                           evidence_samples=evidence_samples)
                if sub.status is not HyperStatus.HYPERSTABLE:
                    sub_ok = False
                    break
            if sub_ok:
                return HyperVerdict(HyperStatus.HYPERSTABLE, "block-composition")

    if region.kind in (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL,
                       RegionKind.FINITE_SET):
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
        witness = _negative_witness(p, stab.witness)
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
