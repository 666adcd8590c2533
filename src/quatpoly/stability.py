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
)
from .linalg import (
    QuaternionMatrix,
    _pow2_near,
    invertible,
    real_rep_left,
    vec4_to_qvec,
)
from .matpoly import (
    SWEEP_CHUNK_DOUBLES,
    MatrixPolynomial,
    ScalarQPolynomial,
    polyeig,
    realified_sweep,
    scalar_zeros,
    stacked_zeros,
)
from .quaternion import (
    CONJ,
    CONJ_PRODUCT,
    UNIT_RIGHT_ACTIONS,
    Quaternion,
    StandardEigenvalue,
    class_distance_extremes,
    class_point,
    right_action_matrices,
)
from .tolerances import (BOUNDARY_BAND, DEGREE_TRIM_REL, DRAW_NORM_MIN,
                         FINITE_SET_REL, IDENTITY_ABS, INDUCED_VANISHING_REL, INV_FLOOR,
                         MODULUS_BOUND_SLACK, PRODUCT_MODULUS_SLACK,
                         PROPORTIONAL_REL, ROOT_RESIDUAL_REL,
                         SPAN_INDEPENDENT_REL, SPAN_ZERO_REL, STRUCTURE_REL,
                         UNIT_BALL_ABS, VANISHING_REL)


class RegionKind(str, Enum):
    OPEN_BALL = "open_ball"
    CLOSED_BALL = "closed_ball"
    COMPLEMENT_CLOSED_BALL = "complement_closed_ball"
    ANNULUS = "annulus"
    FINITE_SET = "finite_set"


_BALL_KINDS = (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL)
_OPEN_KINDS = (RegionKind.OPEN_BALL, RegionKind.COMPLEMENT_CLOSED_BALL)
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

    def margins(self, rows, spherical=False) -> np.ndarray:
        """Signed margins by which every [w, x, y, z] row of a (P, 4) array,
        or where ``spherical`` flags it its class sphere {w + |vec| u : u unit
        pure imaginary}, meets this region: positive inside, negative
        outside.  A ball, its complement and an annulus map the least and
        greatest distances (dmin, dmax) from the center; a finite set gives
        the largest FINITE_SET_REL max(1, |p|) - dmin over its points p."""
        rows = np.asarray(rows, dtype=float).reshape(-1, 4)
        spherical = np.broadcast_to(spherical, len(rows))[:, None]
        finite = self.kind is RegionKind.FINITE_SET
        targets = np.array([q.as_array() for q in (self.points if finite else [self.center])])
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = rows[:, None, 0] - targets[:, 0]
            vecs = np.hypot.reduce(rows[:, 1:], axis=1)[:, None]
            target_vecs = np.hypot.reduce(targets[:, 1:], axis=1)
            dists = np.hypot.reduce(rows[:, None] - targets, axis=2)
            dmin = np.where(spherical, np.hypot(gaps, vecs - target_vecs), dists)
            if finite:
                reach = FINITE_SET_REL * np.maximum(1.0, np.hypot.reduce(targets, axis=1))
                return np.fmax.reduce(reach - dmin, axis=1)
            dmin = dmin[:, 0]
            dmax = np.where(spherical[:, 0], np.hypot(gaps, vecs + target_vecs)[:, 0], dmin)
            if self.kind in _BALL_KINDS:
                return self.radius - dmin
            if self.kind is RegionKind.COMPLEMENT_CLOSED_BALL:
                return dmax - self.radius
            return np.minimum(self.outer_radius - dmin, dmax - self.inner_radius)

    def contains_rows(self, rows, spherical=False) -> np.ndarray:
        """Which rows of a (P, 4) array, or their class spheres where
        ``spherical`` flags them, meet the region: a positive margin for the
        open ball and the complement of the closed ball, else a nonnegative one."""
        margins = self.margins(rows, spherical)
        return margins > 0.0 if self.kind in _OPEN_KINDS else margins >= 0.0

    def contains(self, q: Quaternion) -> bool:
        return bool(self.contains_rows(q.as_array())[0])

    def meets(self, rows, spherical, band: float) -> np.ndarray:
        """Which rows, or their class spheres where flagged, count as inside
        for a verdict: a margin above ``band``, so nothing within the dead
        band of the boundary counts.  A finite set has no dead band; its
        rule is that of ``contains_rows``."""
        if self.kind is RegionKind.FINITE_SET:
            return self.contains_rows(rows, spherical)
        return self.margins(rows, spherical) > band

    def modulus_reach(self, band: float) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lows, highs) on the modulus of a zero that ``meets``
        counts as inside a ball or a finite set, one pair for a ball and one
        per point of a finite set: within the radius less ``band`` of the
        center's modulus, or within FINITE_SET_REL max(1, |p|) of a point's
        (every point of a class sphere has the modulus of its class).  Each
        end is widened by MODULUS_BOUND_SLACK times max(1, end), for the
        rounding of the zero finder and of the bound, and kept within [0,
        the largest float]."""
        if self.kind is RegionKind.FINITE_SET:
            moduli = np.array([p.modulus() for p in self.points])
            radii = FINITE_SET_REL * np.maximum(1.0, moduli)
        else:
            moduli, radii = np.array([self.center.modulus()]), np.array([self.radius - band])
        with np.errstate(over="ignore", invalid="ignore"):
            lows, highs = moduli - radii, moduli + radii
            lows = lows - MODULUS_BOUND_SLACK * np.maximum(1.0, lows)
            highs = highs + MODULUS_BOUND_SLACK * np.maximum(1.0, highs)
        top = np.finfo(float).max
        return np.clip(np.nan_to_num(lows), 0.0, top), np.clip(np.nan_to_num(highs, nan=top), 0.0, top)


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
    """``witness`` is a point of the region where the realified oracle found
    P singular and ``vector`` a unit kernel vector there (NOT_STABLE only)."""

    status: StabilityStatus
    certificate: str
    witness: Optional[Quaternion] = None
    vector: Optional[QuaternionMatrix] = None


@dataclass
class HyperVerdict:
    status: HyperStatus
    certificate: str
    witness: Optional[QuaternionMatrix] = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Deterministic sampling grids
# ---------------------------------------------------------------------------


def _ball_grid(center: Quaternion, radius: float, start: int, stop: int) -> np.ndarray:
    """Points start, ..., stop - 1 of the ball grid as [w, x, y, z] rows: the
    radical inverses u_0..u_3 of the index in bases 2, 3, 5, 7 (a Halton
    point) give the radius ``radius`` u_0^(1/4) and a uniform direction on
    the unit 3-sphere."""
    index = np.arange(start, stop)
    u = np.zeros((4, len(index)))
    for row, base in zip(u, (2, 3, 5, 7)):
        rest, f = index, 1.0 / base
        while rest.any():
            row += f * (rest % base)
            rest, f = rest // base, f / base
    # Python's pow: numpy's differs from it in the last bit for some u.
    rho = radius * np.array([v ** 0.25 for v in u[0].tolist()])
    a, b = np.sqrt(np.maximum(0.0, 1.0 - u[1])), np.sqrt(u[1])
    t1, t2 = 2.0 * math.pi * u[2], 2.0 * math.pi * u[3]
    sphere = np.stack([a * np.sin(t1), a * np.cos(t1), b * np.sin(t2), b * np.cos(t2)], axis=1)
    return np.array(center.as_array()) + rho[:, None] * sphere


def quaternion_ball_grid(center: Quaternion, radius: float,
                         count: int) -> list[Quaternion]:
    """Deterministic low-discrepancy grid of ``count`` points in the open
    ball around ``center`` (all moduli strictly below ``radius``)."""
    return [Quaternion(*q) for q in _ball_grid(center, radius, 1, count + 1).tolist()]


def region_sample_grid(region: Region, count: int) -> list[Quaternion]:
    """Deterministic probe points inside a region: for an annulus or a
    complement, the first ``count`` points of a ball grid inside it, among
    at most 60 count + 64, drawn in blocks of 2 count."""
    if region.kind is RegionKind.FINITE_SET:
        return list(region.points)
    if region.kind in _BALL_KINDS:
        return quaternion_ball_grid(region.center, region.radius, count)
    if region.kind is RegionKind.ANNULUS:
        base_radius = region.outer_radius
    else:  # complement: probe a shell just outside the excluded ball
        base_radius = 2.0 * region.radius + 1.0
    points, start, budget = np.empty((0, 4)), 1, 60 * count + 64
    while len(points) < count and start <= budget:
        stop = min(start + 2 * count, budget + 1)
        block = _ball_grid(region.center, base_radius, start, stop)
        points = np.concatenate([points, block[region.contains_rows(block)]])
        start = stop
    return [Quaternion(*q) for q in points[:count].tolist()]


# ---------------------------------------------------------------------------
# Witness points of class spheres
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def check_stability(p: MatrixPolynomial, region: Region, *,
                    band: float = BOUNDARY_BAND, samples: int = 500) -> StabilityVerdict:
    """Decide whether P has no right eigenvalue in the region.

    First the points to confirm are collected: a finite set's own points;
    for ball, complement and annulus regions, one witness point of each
    similarity class of the companion spectrum that meets the region, in
    spectrum order, all class spheres compared against the region by one
    ``Region.margins`` call; and, when the leading coefficient is singular,
    a deterministic sample grid of the region, which can refute stability
    but never certify it.  One realified sweep then decides them all.  NOT_STABLE
    carries the first singular point and the sweep's unit kernel vector
    there.  A spectrum class inside the region that the oracle does not
    confirm, or one within the dead band of the boundary, gives UNKNOWN.
    """
    boundary_seen = False
    if region.kind is RegionKind.FINITE_SET:
        points, route = region.points, "pointwise-oracle"
    else:
        try:
            spectrum = polyeig(p)
        except SingularLeadingCoefficientError:
            points, route = region_sample_grid(region, samples), "oracle-sampling"
        else:
            margins = region.margins([[ev.re, ev.im, 0.0, 0.0] for ev in spectrum], True)
            points = [_class_witness(ev, region)
                      for ev, margin in zip(spectrum, margins.tolist()) if margin > band]
            boundary_seen = not (margins < -band).all()
            route = "spectrum-class-geometry"
    status, tup, vector = (realified_sweep(p.terms, ((q,) for q in points), p.lift_sigma[:, 0])
                           if points else ("nonsingular", None, None))
    if status == "singular":
        return StabilityVerdict(StabilityStatus.NOT_STABLE, route, tup[0], vector)
    if route == "oracle-sampling":
        return StabilityVerdict(StabilityStatus.UNKNOWN, "oracle-sampling-inconclusive")
    if boundary_seen or status == "unknown":
        return StabilityVerdict(StabilityStatus.UNKNOWN, route + "-deadband")
    return StabilityVerdict(StabilityStatus.STABLE, route)


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
    which is exact; bisects t in [1/2, 1] until the bracket is two adjacent
    doubles and keeps the one with the smaller |f|.  A root that fails its
    residual check or is no positive finite float raises NoConvergenceError.
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

    lo, hi = 0.5, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (f(mid) < 0) == sign0:
            lo = mid
        else:
            hi = mid
    root = min(lo, hi, key=lambda t: abs(f(t)))
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
    spectral, and all come from one SVD of the coefficient lifts: ||A_i|| is
    sigma_max(A_i) and 1/||A^-1|| is sigma_min(A).  Both the constant and
    leading coefficients must be invertible.
    """
    if p.degree < 1:
        raise ValueError("annulus bounds need degree at least 1")
    sigma = p.lift_sigma
    if not invertible(sigma[0]):
        raise SingularCoefficientError("constant coefficient is singular")
    if not invertible(sigma[-1]):
        raise SingularCoefficientError("leading coefficient is singular")
    norms = sigma[:, 0].tolist()
    lower_coeffs = [-sigma[0, -1], *norms[1:]]
    upper_coeffs = [-c for c in norms[:-1]] + [sigma[-1, -1]]
    return unique_positive_root(lower_coeffs), unique_positive_root(upper_coeffs)


# ---------------------------------------------------------------------------
# Numerical range sampling
# ---------------------------------------------------------------------------
#
# A probe vector is a row of a real (S, 4n) array in vec4 order.  Both
# samplers form every coefficient set u* A_i v of their scalar polynomials
# at once, as an (S, m+1, 4) array, screened and trimmed by _trimmed.


class NumericalRangeResult(NamedTuple):
    """Sampled zeros as (P, 4) [w, x, y, z] rows, ordered by sample and
    stable within one, their (P,) sphere flags, and the skipped samples."""
    points: np.ndarray
    spherical: np.ndarray
    skipped: int


# Random unit combinations of a span basis the search tries as probes z.
RANDOM_PROBES = 48


def _unit_draws(rng: np.random.Generator, count: int,
                length: int | Sequence[int]) -> np.ndarray:
    """``count`` unit rows, each a Gaussian draw of ``length`` normalized
    and drawn again while shorter than DRAW_NORM_MIN.  For a sequence of
    lengths, ``count`` rows of each length in turn, as consecutive calls
    draw them, zero-padded to one (len(length), count, max(length)) array.
    One block draw reads the generator as row-by-row draws do; a short row
    puts the generator back and the rows are drawn one by one, so the
    redraws match too."""
    lengths = np.atleast_1d(length)
    state = rng.bit_generator.state
    block = rng.standard_normal(count * int(lengths.sum()))
    starts = count * (np.cumsum(lengths) - lengths)
    draws = np.zeros((len(lengths), count, int(lengths.max(initial=0))))
    for size in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == size)
        rows = block[starts[group, None] + np.arange(count * size)].reshape(-1, size)
        norms = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]
        if not (norms > DRAW_NORM_MIN).all():
            rng.bit_generator.state = state
            for out, n in zip(draws, lengths.tolist()):
                k = 0
                while k < count:
                    raw = rng.standard_normal(n)
                    norm = math.sqrt(raw @ raw)
                    if norm > DRAW_NORM_MIN:
                        out[k, :n] = raw / norm
                        k += 1
            break
        draws[group, :, :size] = (rows / norms).reshape(len(group), count, size)
    return draws if np.ndim(length) else draws[0]


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
    u is (..., S, 4n) and v is (..., S, R, 4n), broadcast, to (..., S, R, 4)."""
    # The (4n, 4) real matrix of v -> u_s* v, for every s.
    forms = (u.reshape(*u.shape[:-1], -1, 4) @ CONJ_PRODUCT.reshape(4, 16))
    return v @ forms.reshape(*u.shape[:-1], -1, 4, 4).swapaxes(-1, -2).reshape(*u.shape, 4)


def _trimmed(cs: np.ndarray, floor) -> tuple[np.ndarray, np.ndarray]:
    """For an (..., m+1, 4) stack of scalar polynomials: which vanish (no
    coefficient modulus above ``floor``, broadcast), and each one's degree,
    that of its last coefficient over DEGREE_TRIM_REL times the largest."""
    moduli = np.hypot.reduce(cs, axis=-1)
    top = moduli.max(axis=-1)
    above = moduli > DEGREE_TRIM_REL * top[..., None]
    return top <= floor, cs.shape[-2] - 1 - np.argmax(above[..., ::-1], axis=-1)


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
    sample_of, points, flags = [np.empty(0, int)], [np.empty((0, 4))], [np.empty(0, bool)]
    for degree in np.unique(degrees[~vanishing & (degrees > 0)]).tolist():
        rows = np.flatnonzero(~vanishing & (degrees == degree))
        try:
            found, _, zeros, spherical, shares, _ = stacked_zeros(cs[rows, :degree + 1])
        except PairingFailureError as exc:  # the other rows classify as they do alone
            skipped += len(exc.rows)
            rows = np.delete(rows, exc.rows)
            found, _, zeros, spherical, shares, _ = stacked_zeros(cs[rows, :degree + 1])
        spheres = np.where(spherical, shares // 2, 0)
        flags.append(np.repeat(np.tile([True, False], len(shares)),
                               np.column_stack([spheres, shares - 2 * spheres]).ravel()))
        take = np.repeat(np.arange(len(shares)), shares - spheres)
        sample_of.append(rows[found][take])
        points.append(zeros[take])
    order = np.argsort(np.concatenate(sample_of), kind="stable")  # by sample, stable within one
    return NumericalRangeResult(np.concatenate(points)[order], np.concatenate(flags)[order], skipped)


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


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_s . v_s for the rows of two (S, k) arrays, each one dot product as
    ``u_s @ v_s`` computes it."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _span_bases(vss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real bases, as rows, of the realified right spans of the
    rows of each (m+1, 4n) stack of ``vss``, zero-padded to one (Y, K, 4n)
    array, and their sizes.  Gram-Schmidt takes the candidates (A_i y) u,
    u = 1, i, j, k, in order, masked per stack: a padding row projects out
    nothing, so every stack goes through the operations it would go through
    alone.  The longest row of a stack has norm in [1/2, 1), which
    SPAN_ZERO_REL assumes."""
    count, rows, width = vss.shape
    # Column block u of p @ units is p u, for u = 1, i, j, k.
    units = UNIT_RIGHT_ACTIONS.transpose(2, 0, 1).reshape(4, 16)
    candidates = (vss.reshape(count, rows, -1, 4) @ units).reshape(count, rows, -1, 4, 4)
    candidates = candidates.transpose(1, 3, 0, 2, 4).reshape(-1, count, width)
    bases = np.zeros((count, min(len(candidates), width), width))
    sizes = np.zeros(count, int)
    for cand in candidates:
        norm0 = np.sqrt(_row_dots(cand, cand))
        for b in bases.swapaxes(0, 1)[:sizes.max()]:
            cand = cand - _row_dots(b, cand)[:, None] * b
        norm = np.sqrt(_row_dots(cand, cand))
        new = np.flatnonzero((norm0 > SPAN_ZERO_REL) & (norm > SPAN_INDEPENDENT_REL * norm0))
        bases[new, sizes[new]] = cand[new] / norm[new, None]
        sizes[new] += 1
    return bases, sizes


def not_hyperstable_search(p: MatrixPolynomial, region: Region, *, band: float = BOUNDARY_BAND,
                           y_samples: int = 16, seed: int = 42) -> Optional[SearchWitness]:
    """Search for a vector y witnessing failure of hyperstability.

    For each candidate y (the 4n canonical unit vectors, then ``y_samples``
    random ones) the scalar polynomials z* P(t) y are examined over z drawn
    from the realified span of {A_i y}: y is a witness when every such
    polynomial vanishes somewhere in the region, a zero within ``band`` of
    its boundary not counting as inside.  Two certificates can back
    a hit: the exact quadratic product-of-roots argument (constant and
    leading coefficient proportional by a factor of modulus <= 1, with the
    region containing the closed unit ball), or exhaustion of all sampled z.
    The candidates are taken in chunks of 1, 4, 16, ... (at most
    SWEEP_CHUNK_DOUBLES doubles of probes z a chunk), in order, and the
    first witness is returned.
    """
    if region.kind not in _SEARCH_KINDS:
        raise ValueError("search supports ball regions and finite sets only")
    rng = np.random.default_rng(seed)
    width = 4 * p.size
    ys = np.vstack([np.eye(width), _unit_draws(rng, max(0, y_samples), width)])
    actions, coeff_scale = _scaled_actions(p, ys)
    quadratic_certificate = p.degree == 2 and _region_contains_closed_unit_ball(region)
    # A span basis has at most rank = min(4n, 4(m+1)) vectors, and it gives
    # each vector and its negative, the pairwise sums and RANDOM_PROBES
    # random combinations as probes z.
    rank = min(width, 4 * len(p.coeffs))
    cap = max(1, SWEEP_CHUNK_DOUBLES // ((2 * rank + rank * (rank - 1) // 2 + RANDOM_PROBES) * width))
    start, size = 0, 1
    while start < len(ys):
        hit = _chunk_witness(actions[start:start + size], coeff_scale, quadratic_certificate,
                             region, band, rng)
        if hit is not None:
            return SearchWitness(vec4_to_qvec(ys[start + hit[0]]), hit[1])
        start += size
        size = min(4 * size, cap)
    return None


def _chunk_witness(actions: np.ndarray, coeff_scale: float, quadratic_certificate: bool,
                   region: Region, band: float,
                   rng: np.random.Generator) -> Optional[tuple[int, str]]:
    """The first witness (row, certificate) of a chunk of candidates y, given
    their rows vec4(A_i y) as a (Y, m+1, 4n) array, or None.  The exact
    tests run per y in order up to the first hit; the y before it are then
    decided by their sampled z, drawing from ``rng`` as they would one by one."""
    vnorms = np.linalg.norm(actions, axis=2).max(axis=1).tolist()
    # An exact power-of-two scale moves no zero of any z* P(t) y and puts
    # max ||A_i y|| in [1/2, 1).
    vss = actions / np.array([_pow2_near(v) for v in vnorms])[:, None, None]
    exact = None
    for row, vnorm in enumerate(vnorms):
        if vnorm <= VANISHING_REL * coeff_scale:
            # P(t) y vanishes identically for every t and z.
            exact = row, "universal-kernel"
            break
        if quadratic_certificate and _quadratic_product_certificate(vss[row]):
            exact = row, "quadratic-product-certificate"
            break
    end = len(vnorms) if exact is None else exact[0]
    sampled = _first_sampled_witness(vss[:end], region, band, rng) if end else None
    return exact if sampled is None else (sampled, "sampled-z-exhaustion")


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


def _first_sampled_witness(vss: np.ndarray, region: Region, band: float,
                           rng: np.random.Generator) -> Optional[int]:
    """The first of a chunk of candidates y, given their scaled rows
    vec4(A_i y) as a (Y, m+1, 4n) array, for which every sampled z makes
    z* P(t) y vanish somewhere in the region, or None.  z runs over each
    span basis vector b and then -b, then (b_a + b_b)/sqrt(2) for a < b,
    then RANDOM_PROBES random unit combinations.  The random combinations
    are drawn for every y, but only the first probe b_0 of every y is formed
    at once; a y it does not refute forms its other probes."""
    bases, sizes = _span_bases(vss)
    # No basis is empty: max ||A_i y|| lies in [1/2, 1) and a unit right
    # factor keeps norms, so the candidate (A_i y) 1 of that row is far
    # above SPAN_ZERO_REL, and the first candidate kept always joins.
    draws = _unit_draws(rng, RANDOM_PROBES, sizes)
    floors = INDUCED_VANISHING_REL * np.linalg.norm(vss, axis=2).max(axis=1)
    reach = region.modulus_reach(band)
    firsts = _probe_coefficients(vss, bases[:, :1])
    vanishing, degrees = _trimmed(firsts[:, 0], floors)
    refuted = ~vanishing & _outside_moduli(firsts[:, 0], degrees, *reach)
    for row in np.flatnonzero(~refuted).tolist():
        if not _every_probe_meets(firsts[row], floors[row], reach, region, band):
            continue
        size = sizes[row]
        later = _probes(bases[row, :size], draws[row, :, :size])[1:]
        if _every_probe_meets(_probe_coefficients(vss[row], later), floors[row], reach, region, band):
            return row
    return None


def _probes(basis: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The probes z of one span basis, as rows in search order: b_0, -b_0,
    b_1, -b_1, ..., the pair sums and the unit combinations ``draws``."""
    first, second = np.triu_indices(len(basis), 1)
    return np.concatenate([np.stack([basis, -basis], axis=1).reshape(-1, basis.shape[1]),
                           (basis[first] + basis[second]) / math.sqrt(2.0),
                           draws @ basis])


def _probe_coefficients(vs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Every z* A_i y, as the conjugates of (A_i y)* z: an (..., Z, m+1, 4)
    array from rows vec4(A_i y) (..., m+1, 4n) and probes z (..., Z, 4n)."""
    return (_qinner(vs, zs[..., None, :, :]) * CONJ).swapaxes(-3, -2)


def _every_probe_meets(css: np.ndarray, floor: float, reach: tuple[np.ndarray, np.ndarray],
                       region: Region, band: float) -> bool:
    """Whether every polynomial of a (Z, m+1, 4) stack vanishes somewhere in
    the region, taken in order up to the first that does not.  A vanishing
    polynomial vanishes everywhere; one the modulus bound puts outside
    ``reach`` (a nonzero constant among them) has no zero there; the zeros
    of the others are found one polynomial at a time."""
    vanishing, degrees = _trimmed(css, floor)
    outside = _outside_moduli(css, degrees, *reach)
    for cs, degree, out in zip(css[~vanishing], degrees[~vanishing].tolist(),
                               outside[~vanishing].tolist()):
        if out:
            return False
        zeros = scalar_zeros(ScalarQPolynomial([Quaternion(*c) for c in cs[:degree + 1].tolist()]))
        rows = [zero.point.as_array() for zero in zeros]
        if not region.meets(rows, [zero.spherical for zero in zeros], band).any():
            return False
    return True


def _outside_moduli(css: np.ndarray, degrees: np.ndarray, lows: np.ndarray,
                    highs: np.ndarray) -> np.ndarray:
    """Which polynomials of an (N, m+1, 4) stack, trimmed to ``degrees``,
    have no zero with modulus in any [lows[k], highs[k]].  As |a_i t^i| =
    |a_i| |t|^i in the quaternions, q(t) = sum a_i t^i of degree d has no
    zero of modulus <= h when |a_0| > sum_{i>=1} |a_i| h^i, and none of
    modulus >= l when |a_d| l^d > sum_{i<d} |a_i| l^i; a nonzero constant
    passes both.  Each term |a_i| t^i is formed as the product of the
    mantissas of |a_i| and t^i and a power of two, scaled by the largest
    power of its sum, so no term overflows."""
    powers = np.arange(css.shape[-2])
    moduli = np.where(powers <= degrees[:, None], np.hypot.reduce(css, axis=-1), 0.0)
    mantissas, exponents = np.frexp(moduli)
    t_mantissas, t_exponents = np.frexp(np.concatenate([highs, lows]))
    mant = mantissas[:, None, :] * t_mantissas[:, None] ** powers
    expo = exponents[:, None, :] + t_exponents[:, None] * powers
    # A zero term sets no scale; a sum of zero terms stays 0 under any.
    top = np.where(mant > 0.0, expo, np.iinfo(np.int32).min).max(axis=-1, keepdims=True)
    terms = np.ldexp(mant, np.minimum(expo - top, 0))
    k = len(highs)
    below_high = terms[:, :k, 0] > terms[:, :k, 1:].sum(axis=-1)
    at_low = terms[:, k:]
    lead = np.take_along_axis(at_low, degrees[:, None, None], axis=-1)[..., 0]
    above_low = lead > np.where(powers < degrees[:, None, None], at_low, 0.0).sum(axis=-1)
    return (below_high | above_low).all(axis=1)


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
        hit = not_hyperstable_search(p, region, band=band, y_samples=y_samples, seed=seed)
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
        return HyperVerdict(HyperStatus.NOT_HYPERSTABLE_SAMPLED, certificate,
                            witness=stab.vector,
                            details={"witness_eigenvalue": stab.witness})
    return HyperVerdict(HyperStatus.UNKNOWN, certificate + "-inconclusive")


def _numerical_range_evidence(p: MatrixPolynomial, region: Region,
                              samples: int, seed: int) -> str:
    try:
        result = sample_numerical_range(p, samples, seed)
    except DegenerateCoefficientsError:
        return "numerical-range sampling degenerate"
    hits = int(region.contains_rows(result.points, result.spherical).sum())
    if hits:
        return (f"sampled numerical range meets the region "
                f"({hits} of {len(result.points)} points)")
    return (f"sampled numerical range disjoint from the region "
            f"({len(result.points)} points)")
