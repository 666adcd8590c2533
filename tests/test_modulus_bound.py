"""Soundness of the search's exclusion test on scalar quaternion polynomials.

``stability._excluded`` lets the hyperstability search refute a candidate
without finding any zero.  It widens the ball in which ``Region.meets``
counts a zero, of center c and radius rho, and excludes q(t) = sum a_i t^i
when |q(c)| > sum |a_i| ((|c| + rho)^i - |c|^i) (the center-value bound) or
when |a_d| l^d > sum_{i<d} |a_i| l^i with l = max(|c| - rho, 0) (the low
half of the paper's annulus).  Here polynomials with coefficient moduli
spread over up to 300 decades meet balls of radius 1 to 1e200 and 1e-200:
wherever the test excludes, the zero finder finds no credible zero in the
region, a zero planted just inside is never excluded, the annulus's upper
half excludes nothing that the test keeps, and the low half decides alone
where the center-value bound cannot.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quatpoly import PairingFailureError, Quaternion, Region, ScalarQPolynomial
from quatpoly import stability
from quatpoly.matpoly import scalar_zeros
from quatpoly.tolerances import BOUNDARY_BAND
from test_sampling import _ref_center_excluded, _ref_radius
from _reference import evaluate

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
    return stability._excluded(css, degrees, region, band)


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
            if evaluate(q, z.point).modulus()
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
            if region.radius <= band:
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


# Balls around planted zeros, where the center-value bound does the work:
# zeros of moduli 1e-3 to 3e4 are planted strictly inside a ball of radius
# 1e-9 to 1e3, in polynomials scaled by 2^0 and 2^(+-500); some carry a
# coefficient beyond their degree that the trim drops.
CENTER_SCALES = [0, 500, -500]
CENTER_RADII = [10.0 ** k for k in range(-9, 4)]
ZERO_KINDS = ["isolated", "real", "spherical"]
CENTER_WIDTH = 6  # coefficients a_0..a_5: degrees 1 to 4 and one trimmed tail


def _product(r, f):
    """Coefficients of r(t) f(t) for t central: a zero of f is one of the product."""
    out = [Quaternion.ZERO] * (len(r) + len(f) - 1)
    for i, a in enumerate(r):
        for j, b in enumerate(f):
            out[i + j] = out[i + j] + a * b
    return out


def _planted_at(rng, kind, point, k):
    """Coefficients (CENTER_WIDTH, 4), times 2^k, and the degree of a
    polynomial of degree 1 to 4 that vanishes at ``point`` (for "spherical",
    on its whole class sphere)."""
    if kind == "spherical":
        factor = [Quaternion(point.modulus_sq()), Quaternion(-2.0 * point.w), Quaternion.ONE]
    else:
        factor = [-point, Quaternion.ONE]
    degree = int(rng.integers(len(factor) - 1, 5))
    r = [Quaternion(*c) for c in _spread_polynomials(rng, 1, degree - len(factor) + 1, 1)[0]]
    coeffs = np.ldexp(np.array([c.as_array() for c in _product(r, factor)]), k)
    out = np.zeros((CENTER_WIDTH, 4))
    out[:degree + 1] = coeffs
    if degree + 1 < CENTER_WIDTH and rng.random() < 0.5:
        # Below DEGREE_TRIM_REL times the largest modulus: the trim drops it.
        top = np.hypot.reduce(coeffs, axis=1).max()
        out[degree + 1] = _units(rng, 1)[0] * top * 10.0 ** rng.uniform(-14.0, -12.5)
    return out, degree


def _offset(rng, reach):
    """A step shorter than ``reach``: anywhere in the ball, or just inside its edge."""
    fraction = rng.choice([rng.random(), 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40, 0.0])
    return Quaternion(*_units(rng, 1)[0]) * (fraction * reach)


def _center_cases(rng, k, radius, kind, count):
    """A ball region, its band and ``count`` planted polynomials with a zero
    in it that ``Region.meets`` counts (none where rounding puts the zero
    outside)."""
    point = Quaternion(*(_units(rng, 1)[0] * 10.0 ** rng.uniform(-3.0, 4.5)))
    if kind == "real":
        point = Quaternion(point.w)
    band = BOUNDARY_BAND if radius > 10.0 * BOUNDARY_BAND else 0.0
    center = point + _offset(rng, radius - band)
    kinds = (Region.open_ball, Region.closed_ball)
    region = kinds[rng.integers(2)](center, radius)
    if not region.meets([point.as_array()], [kind == "spherical"], band)[0]:
        return region, band, []
    return region, band, [_planted_at(rng, kind, point, k) for _ in range(count)]


# A tiny ball far from most planted zeros, on which the exclusion test
# must exclude, so that the test above is not vacuous.
FAR_BALL = Region.closed_ball(Quaternion(3.0, 0.0, -1.0, 2.0), 1e-9)


def test_a_zero_planted_in_a_ball_is_never_excluded_by_its_center_value():
    rng = np.random.default_rng(9300)
    cases = excluded_elsewhere = 0
    for k in CENTER_SCALES:
        for radius in CENTER_RADII:
            for kind in ZERO_KINDS * 6:
                region, band, planted = _center_cases(rng, k, radius, kind, 16)
                if not planted:
                    continue
                css = np.array([cs for cs, _ in planted])
                _, degrees = stability._trimmed(css, 0.0)
                assert degrees.tolist() == [d for _, d in planted]
                assert not _outside(css, degrees, region, band).any()
                cases += len(planted)
                far = _outside(css, degrees, FAR_BALL, 0.0)
                excluded_elsewhere += int(far.sum())
    assert cases >= 10_000
    # The test does exclude: the far ball is mostly far from every zero.
    assert excluded_elsewhere > 1000


@pytest.mark.parametrize("spread", SPREADS)
def test_a_center_excluded_polynomial_has_no_zero_in_the_ball(spread):
    # Balls of radius 1e200 and 1e-200 and centers near 1e150: the scaled
    # Horner pass neither overflows nor excludes a credible zero.
    rng = np.random.default_rng(9400 + spread)
    excluded = 0
    for degree in DEGREES:
        css = _spread_polynomials(rng, 100, degree, spread)
        _, degrees = stability._trimmed(css, 0.0)
        zeros = [_credible_zeros(cs[:d + 1]) if d else [] for cs, d in zip(css, degrees.tolist())]
        for region in REGIONS:
            for band in BANDS:
                out = _outside(css, degrees, region, band)
                excluded += int(out.sum())
                ball = Region.closed_ball(region.center, float(_ref_radius(region.center, region.radius - band)))
                for row in np.flatnonzero(out).tolist():
                    near = [z for z in zeros[row] or []
                            if ball.meets([z.point.as_array()], [z.spherical], 0.0)[0]]
                    assert not near
    assert excluded > 1000


def test_the_annulus_upper_half_excludes_nothing_that_the_test_keeps():
    # |a_0| > sum_{i>=1} |a_i| (|c| + rho)^i, in exact rationals over the
    # widened ball, makes |q(c)| >= |a_0| - sum_{i>=1} |a_i| |c|^i exceed
    # the center-value bound, so that half of the annulus needs no test.
    rng = np.random.default_rng(9500)
    below = 0
    for spread in SPREADS:
        for degree in DEGREES:
            css = _spread_polynomials(rng, 60, degree, spread)
            _, degrees = stability._trimmed(css, 0.0)
            moduli = [[Fraction(m) for m in row] for row in np.hypot.reduce(css, axis=-1).tolist()]
            for region in REGIONS:
                for band in BANDS:
                    end = Fraction(region.center.modulus()) + _ref_radius(region.center, region.radius - band)
                    out = _outside(css, degrees, region, band).tolist()
                    for row, d in enumerate(degrees.tolist()):
                        m = moduli[row]
                        if m[0] > sum(m[i] * end ** i for i in range(1, d + 1)):
                            below += 1
                            assert out[row]
    assert below > 3000


# Balls that nearly reach the origin, with every zero of modulus below
# max(|c| - rho, 0): t^2 - 1e-6 over the closed ball of center 1 and radius
# 0.9 (|q(c)| about 1 against a center bound of 2.61), and i t^3 + 1e-7 t +
# 1e-9 j over the open ball of center 0.6 + 0.8j and radius 0.95.
LOW_MODULUS_CASES = [
    ([[-1e-6, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], Region.closed_ball(Quaternion.ONE, 0.9)),
    ([[0, 0, 1e-9, 0], [1e-7, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
     Region.open_ball(Quaternion(0.6, 0.0, 0.8, 0.0), 0.95)),
]


@pytest.mark.parametrize("coeffs, region", LOW_MODULUS_CASES, ids=["real-quadratic", "cubic"])
def test_the_low_modulus_half_decides_where_the_center_value_cannot(coeffs, region):
    cs = [Quaternion(*c) for c in coeffs]
    assert not [z for z in scalar_zeros(ScalarQPolynomial(cs)) if _meets(z, region, 0.0)]
    for band in BANDS:
        assert not _ref_center_excluded(cs, region.center, region.radius - band)
        assert _outside(np.array([coeffs], float), np.array([len(cs) - 1]), region, band).tolist() == [True]
