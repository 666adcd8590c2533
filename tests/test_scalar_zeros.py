"""Zeros of scalar quaternion polynomials, counted with multiplicity.

Planted repeated zeros check the class count, the shares of the degree and
the accuracy of every class; seeded generic 1 x 1 polynomials are checked
against the two other routes to their eigenvalues, the companion lift
(``polyeig``) and the realified oracle at every isolated zero.
"""

import numpy as np
import pytest
from _helpers import random_quaternion

from quatpoly import Quaternion, ScalarQPolynomial, is_eigenvalue_oracle, polyeig, scalar_zeros
from quatpoly.quaternion import standardize

ONE = Quaternion(1.0)
I, J = Quaternion(0.0, 1.0), Quaternion(0.0, 0.0, 1.0)


def product(*factors):
    """Coefficients (ascending) of the product of polynomials in a central t."""
    out = [ONE]
    for f in factors:
        acc = [Quaternion(0.0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] = acc[i + j] + a * b
        out = acc
    return out


def linear(z):
    return [-z, ONE]


def quadratic(x, s):
    """t^2 - 2x t + x^2 + s^2, whose zeros are the class sphere of x + s i."""
    return [Quaternion(x * x + s * s), Quaternion(-2.0 * x), ONE]


def summary(coeffs):
    """(spherical, multiplicity) of every class, and the shares' sum."""
    zeros = scalar_zeros(ScalarQPolynomial(coeffs))
    return sorted((z.spherical, z.multiplicity) for z in zeros), zeros


@pytest.mark.parametrize("factors, want", [
    ([linear(ONE)] * 2, [(False, 2)]),
    ([linear(ONE)] * 3, [(False, 3)]),
    ([quadratic(0.0, 1.0)] * 2, [(True, 4)]),
    ([quadratic(0.0, 1.0)] * 3, [(True, 6)]),
    ([linear(Quaternion(2.0))] * 2 + [quadratic(0.0, 1.0)], [(False, 2), (True, 2)]),
    ([linear(I)] * 2, [(False, 2)]),
    ([linear(I), linear(J)], [(False, 2)]),
    ([quadratic(0.0, 1.0), linear(J)], [(True, 3)]),
], ids=["(t-1)^2", "(t-1)^3", "(t^2+1)^2", "(t^2+1)^3", "(t-2)^2(t^2+1)", "(t-i)^2",
        "(t-i)(t-j)", "(t^2+1)(t-j)"])
def test_repeated_zeros_give_one_class_each(factors, want):
    coeffs = product(*factors)
    got, zeros = summary(coeffs)
    assert got == want
    assert sum(z.multiplicity for z in zeros) == len(coeffs) - 1
    for z in zeros:
        # Every representative is a zero; (t-i)(t-j) has j, (t-i)^2 has i.
        assert ScalarQPolynomial(coeffs).evaluate(z.point).modulus() <= 1e-12


def test_isolated_repeated_zeros_sit_at_the_right_point():
    assert scalar_zeros(ScalarQPolynomial(product(linear(I), linear(J))))[0].point.approx_eq(J, 1e-12)
    assert scalar_zeros(ScalarQPolynomial(product(linear(I), linear(I))))[0].point.approx_eq(I, 1e-12)


@pytest.mark.parametrize("factors, want", [
    ([linear(Quaternion(0.3)), linear(Quaternion(0.301))], [(0.3, 0.0, 1), (0.301, 0.0, 1)]),
    ([linear(Quaternion(0.3)), linear(Quaternion(0.3005))], [(0.3, 0.0, 1), (0.3005, 0.0, 1)]),
    ([linear(Quaternion(0.3)), linear(Quaternion(0.5)), linear(Quaternion(1000.0))],
     [(0.3, 0.0, 1), (0.5, 0.0, 1), (1000.0, 0.0, 1)]),
    ([linear(Quaternion(0.3 + 0.01 * i)) for i in range(3)],
     [(0.3, 0.0, 1), (0.31, 0.0, 1), (0.32, 0.0, 1)]),
    ([linear(Quaternion(0.5, 0.8)), linear(Quaternion(0.5, 0.0, 0.80001))],
     [(0.5, 0.8, 1), (0.5, 0.80001, 1)]),
    ([linear(Quaternion(0.5, 0.8)), linear(Quaternion(0.50001, 0.0, 0.8))],
     [(0.5, 0.8, 1), (0.50001, 0.8, 1)]),
    ([quadratic(0.3, 1.0), quadratic(0.301, 1.0)], [(0.3, 1.0, 2), (0.301, 1.0, 2)]),
], ids=["real-1e-3", "real-5e-4", "real-0.3-0.5-1000", "three-real-1e-2", "isolated-1e-5-im",
        "isolated-1e-5-re", "spheres-1e-3"])
def test_close_distinct_zeros_stay_apart(factors, want):
    zeros = scalar_zeros(ScalarQPolynomial(product(*factors)))
    got = sorted((z.eigenvalue_class.re, z.eigenvalue_class.im, z.multiplicity) for z in zeros)
    assert [m for *_, m in got] == [m for *_, m in want]
    for (re, im, _), (wre, wim, _) in zip(got, want):
        assert abs(complex(re - wre, im - wim)) <= 1e-10 * max(1.0, abs(complex(wre, wim)))


def _planted(rng, kind, k):
    """A planted polynomial with a random leading coefficient, and its
    expected classes as (re, im, spherical, multiplicity, point or None)."""
    lead = random_quaternion(rng)
    x, s = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)
    zeta = random_quaternion(rng)
    cls = standardize(zeta)
    if kind == "real":
        coeffs = product([lead], *[linear(Quaternion(x))] * k, linear(zeta))
        want = [(x, 0.0, False, k, None), (cls.re, cls.im, False, 1, zeta)]
    elif kind == "sphere":
        coeffs = product([lead], *[quadratic(x, s)] * k)
        want = [(x, s, True, 2 * k, None)]
    else:
        coeffs = product([lead], *[linear(zeta)] * k)
        want = [(cls.re, cls.im, False, k, zeta)]
    return coeffs, sorted(want, key=lambda c: (c[0], c[1]))


def _planted_failures(k, tol, draws=100):
    rng = np.random.default_rng(8100 + k)
    failures = 0
    for kind in ("real", "sphere", "isolated"):
        for _ in range(draws):
            coeffs, want = _planted(rng, kind, k)
            zeros = sorted(scalar_zeros(ScalarQPolynomial(coeffs)),
                           key=lambda z: (z.eigenvalue_class.re, z.eigenvalue_class.im))
            ok = len(zeros) == len(want)
            for z, (re, im, spherical, mult, point) in zip(zeros, want):
                bound = tol * max(1.0, abs(complex(re, im)))
                ok = ok and (z.spherical, z.multiplicity) == (spherical, mult)
                ok = ok and abs(z.eigenvalue_class.re - re) <= bound
                ok = ok and abs(z.eigenvalue_class.im - im) <= bound
                if point is not None:
                    ok = ok and (z.point - point).modulus() <= bound
            failures += not ok
    return failures


def test_planted_double_zeros_all_pass():
    assert _planted_failures(2, 1e-8) == 0


def test_planted_triple_zeros_almost_all_pass():
    assert _planted_failures(3, 1e-6) <= 3  # at most 1 % of 300 draws


def _generic(rng, degree, sphere):
    coeffs = [random_quaternion(rng) for _ in range(degree + 1 - 2 * sphere)]
    if sphere:
        coeffs = product(coeffs, quadratic(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5)))
    return ScalarQPolynomial(coeffs)


@pytest.mark.parametrize("sphere", [False, True])
def test_zeros_agree_with_the_companion_and_the_oracle(sphere):
    rng = np.random.default_rng(8200 + sphere)
    for trial in range(40):
        degree = 1 + trial % 4 if not sphere else 2 + trial % 3
        p = _generic(rng, degree, sphere)
        zeros = scalar_zeros(p)
        assert sum(z.multiplicity for z in zeros) == degree
        classes = sorted((z.eigenvalue_class.re, z.eigenvalue_class.im)
                         for z in zeros for _ in range(z.multiplicity))
        mp = p.as_matrix_polynomial()
        eigen = sorted((e.re, e.im) for e in polyeig(mp))
        for (re, im), (ere, eim) in zip(classes, eigen, strict=True):
            assert abs(complex(re - ere, im - eim)) <= 1e-8 * max(1.0, abs(complex(ere, eim)))
        # At a point of a sphere of a 1 x 1 polynomial the whole realified
        # action cancels to rounding noise, which the oracle's rank test,
        # scaled by that noise, cannot tell from a nonsingular operator; the
        # companion comparison above covers the spheres.
        for z in zeros:
            assert z.spherical or is_eigenvalue_oracle(mp, z.point) is True
        assert any(z.spherical for z in zeros) == sphere


def test_groups_that_do_not_stand_fall_back_to_the_fixed_radius():
    # Each pair of neighbours is a 1e-11 perturbation of a double root, the
    # three together are not.  Roots 0 and 1 both take the pair {0, 1}, which
    # stands; root 2 takes {1, 2}, which does not, and, farther than the fixed
    # radius from any other root, stays alone.
    from quatpoly.matpoly import _root_groups

    roots = np.array([0.0, 3e-6, 6.1e-6 + 1e-7j])
    means, sizes, folded = _root_groups(roots)
    assert sizes.tolist() == [2.0, 1.0]
    np.testing.assert_allclose(means, [1.5e-6, roots[2]], rtol=1e-15)
    np.testing.assert_allclose(folded, [0.0, 1e-7], rtol=1e-15)


def test_a_near_real_zero_keeps_its_imaginary_part():
    # The roots 0.5 +- 1e-7 i of C form one group on the real axis, but p is
    # not small at 0.5: the class is the near-real one of the zero itself.
    zeta = Quaternion(0.5, 0.0, 1e-7, 0.0)
    zeros = scalar_zeros(ScalarQPolynomial([-zeta, ONE]))
    assert [(z.spherical, z.multiplicity) for z in zeros] == [(False, 1)]
    assert zeros[0].point.approx_eq(zeta, 1e-15)
