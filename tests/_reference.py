"""Scalar references for array code of the package: region membership of one
point or class sphere by ``math.hypot``, and the Halton ball grid and its
rejection sampler one point at a time, as the package once computed them."""

import math

from quatpoly import Quaternion, Region, RegionKind, class_distance, class_distance_extremes
from quatpoly.quaternion import standardize
from quatpoly.tolerances import FINITE_SET_REL


def contains(region: Region, q: Quaternion, spherical: bool = False) -> bool:
    """Whether q, or its class sphere when ``spherical``, meets the region."""
    e = standardize(q)
    if region.kind is RegionKind.FINITE_SET:
        return any((class_distance(e, p) if spherical else (q - p).modulus())
                   <= FINITE_SET_REL * max(1.0, p.modulus()) for p in region.points)
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
