"""Soundness of the search's modulus bound on scalar quaternion polynomials.

``stability._outside_moduli`` lets the hyperstability search refute a
candidate without finding any zero: no zero of q(t) = sum a_i t^i has
modulus <= h when |a_0| > sum_{i>=1} |a_i| h^i, and none has modulus >= l
when |a_d| l^d > sum_{i<d} |a_i| l^i.  Here polynomials with coefficient
moduli spread over up to 300 decades meet balls of radius 1 to 1e200 and
1e-200 and finite sets: wherever the bound excludes, the zero finder finds
no credible zero in the region, and a zero planted just inside is never
excluded.
"""

import math
import warnings

import numpy as np
import pytest

from quatpoly import PairingFailureError, Quaternion, Region, ScalarQPolynomial
from quatpoly import stability
from quatpoly.matpoly import scalar_zeros
from quatpoly.tolerances import BOUNDARY_BAND, FINITE_SET_REL

SPREADS = [0, 8, 50, 150]
DEGREES = [1, 2, 3, 4]
REGIONS = [
    Region.open_ball(Quaternion.ZERO, 1.0),
    Region.closed_ball(Quaternion(0.3, -0.4, 0.1, 0.2), 0.5),
    Region.open_ball(Quaternion(2.0, 0.0, 1.0, 0.0), 1.5),
    Region.open_ball(Quaternion.ZERO, 1e200),
    Region.closed_ball(Quaternion(0.6, 0.0, 0.8, 0.0), 1e-200),
    Region.open_ball(Quaternion(0.0, 3e-201, 0.0, 4e-201), 1e-200),
    Region.closed_ball(Quaternion(1e150, 0.0, 0.0, 1e150), 1e-200),
    Region.finite_set([Quaternion.ZERO, Quaternion(0.5, 0.0, 1.0, 0.0), Quaternion(-40.0, 3.0)]),
    Region.finite_set([Quaternion(1e-200, 1e-200), Quaternion(0.0, 0.0, 1e200)]),
]
BANDS = [0.0, BOUNDARY_BAND]


@pytest.fixture(autouse=True)
def _runtime_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _units(rng, count):
    raw = rng.standard_normal((count, 4))
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def _spread_polynomials(rng, count, degree, spread):
    """(count, degree+1, 4) coefficients of moduli 10^U(-spread, spread)."""
    moduli = 10.0 ** rng.uniform(-spread, spread, (count, degree + 1, 1))
    return _units(rng, count * (degree + 1)).reshape(count, degree + 1, 4) * moduli


def _outside(css, degrees, region, band):
    return stability._outside_moduli(css, degrees, *region.modulus_reach(band))


def _meets(zero, region, band):
    return region.meets([zero.point.as_array()], [zero.spherical], band)[0]


def _credible_zeros(cs):
    """The zeros ``stacked_zeros`` gives one polynomial of degree >= 1 (a
    (d+1, 4) array, through its stack-of-one wrapper), without those whose backward error |q(x)| / sum |a_i|
    |x|^i exceeds 1e-8, or None where it refuses the polynomial or
    overflows.  Where the bound excludes, every point x with a modulus that
    counts as inside has a backward error of at least about
    MODULUS_BOUND_SLACK / 2, so no credible zero can lie there; on these
    spreads the zero finder also returns points that are no zeros, such as
    one of modulus 2e-13 for a polynomial whose zeros all have moduli above 1e-5."""
    q = ScalarQPolynomial([Quaternion(*c) for c in cs.tolist()])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            zeros = scalar_zeros(q)
    except (PairingFailureError, RuntimeWarning):
        return None
    moduli = [c.modulus() for c in q.coeffs]
    return [z for z in zeros
            if q.evaluate(z.point).modulus()
            <= 1e-8 * sum(m * z.point.modulus() ** i for i, m in enumerate(moduli))]


@pytest.mark.parametrize("spread", SPREADS)
def test_an_excluded_polynomial_has_no_zero_in_the_region(spread):
    rng = np.random.default_rng(9100 + spread)
    excluded = kept = refused = 0
    for degree in DEGREES:
        css = _spread_polynomials(rng, 200, degree, spread)
        # The search hands over trimmed polynomials, so the zero finder never
        # sees a leading coefficient below DEGREE_TRIM_REL times the largest.
        _, degrees = stability._trimmed(css, 0.0)
        zeros = [_credible_zeros(cs[:d + 1]) if d else [] for cs, d in zip(css, degrees.tolist())]
        refused += sum(found is None for found in zeros)
        for region in REGIONS:
            for band in BANDS:
                outside = _outside(css, degrees, region, band)
                excluded += int(outside.sum())
                kept += int((~outside).sum())
                assert not [row for row in np.flatnonzero(outside).tolist() if zeros[row] and any(
                    _meets(zero, region, band) for zero in zeros[row])]
    # The bound decides a real share of these probes either way, and the
    # zero finder answers for nearly all of them.
    assert excluded > 1000 and kept > 1000
    assert refused <= 8


def _inside_point(rng, region, band):
    """A point at margin 1e-6 inside the region: a zero there counts as inside."""
    u = Quaternion(*_units(rng, 1)[0])
    if region.kind is stability.RegionKind.FINITE_SET:
        p = region.points[rng.integers(len(region.points))]
        return p + u * ((1.0 - 1e-6) * FINITE_SET_REL * max(1.0, p.modulus()))
    return region.center + u * ((1.0 - 1e-6) * (region.radius - band))


def _planted(rng, degree, spread, zeta):
    """Coefficients a_1..a_d of moduli 10^U(-spread, spread) times 2^(-k i),
    2^k about |zeta|, and a_0 = -sum a_i zeta^i, so that zeta is a zero of
    sum a_i t^i; None where a coefficient leaves the normal float range."""
    k = math.frexp(zeta.modulus())[1]
    scaled = zeta * math.ldexp(1.0, -k)
    tail = _spread_polynomials(rng, 1, degree, spread)[0, 1:]
    with np.errstate(over="ignore", under="ignore"):
        coeffs = [Quaternion(*np.ldexp(c, -k * i).tolist()) for i, c in enumerate(tail, 1)]
    if not all(2.0 ** -1000 < c.modulus() < 2.0 ** 1000 for c in coeffs):
        return None
    power, total = Quaternion.ONE, Quaternion.ZERO
    for c in tail:
        power = power * scaled
        total = total + Quaternion(*c) * power
    return np.array([(-total).as_array(), *(c.as_array() for c in coeffs)])


@pytest.mark.parametrize("spread", SPREADS)
def test_a_zero_planted_inside_the_region_is_never_excluded(spread):
    rng = np.random.default_rng(9200 + spread)
    planted = 0
    for region in REGIONS:
        for band in BANDS:
            if region.kind is not stability.RegionKind.FINITE_SET and region.radius <= band:
                continue  # no zero counts as inside
            for degree in DEGREES:
                for _ in range(12):
                    zeta = _inside_point(rng, region, band)
                    cs = _planted(rng, degree, spread, zeta)
                    if cs is None:
                        continue
                    planted += 1
                    assert not _outside(cs[None], np.array([degree]), region, band)[0]
    assert planted > 300


def test_a_constant_is_outside_every_region_and_a_zero_constant_term_is_inside_the_origin():
    constant = np.array([[[0.0, 2.0, 0.0, 0.0]]])
    ball = Region.closed_ball(Quaternion.ZERO, 1.0)
    assert _outside(constant, np.array([0]), ball, BOUNDARY_BAND).tolist() == [True]
    # t^2 + t has the zero 0 inside the ball, and 1e-300 t + 1 none within 1e299.
    line = np.array([[[0.0] * 4, [1.0, 0, 0, 0], [1.0, 0, 0, 0]],
                     [[1.0, 0, 0, 0], [1e-300, 0, 0, 0], [0.0] * 4]])
    assert _outside(line, np.array([2, 1]), ball, BOUNDARY_BAND).tolist() == [False, True]
