import math

import numpy as np
import pytest

from quatpoly import (
    Quaternion,
    StandardEigenvalue,
    class_distance,
    class_distance_extremes,
    class_point,
    similar,
    standardize,
)
from _helpers import random_quaternion, random_unit_imaginary

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def test_multiplication_table():
    assert (I * J).approx_eq(K, 0.0)
    assert (J * K).approx_eq(I, 0.0)
    assert (K * I).approx_eq(J, 0.0)
    assert (I * J).approx_eq(-(J * I), 0.0)
    assert (I * I).approx_eq(Quaternion(-1.0), 0.0)
    assert ((I * J) * K).approx_eq(Quaternion(-1.0), 0.0)


def test_mul_identity_and_distributivity():
    q = Quaternion(0.3, -1.2, 2.0, 0.7)
    assert (q * ONE).approx_eq(q, 0.0)
    # (1+i)(1+j) = 1 + i + j + k by expanding the table
    left = Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0)
    assert left.approx_eq(Quaternion(1, 1, 1, 1), 0.0)


def test_mul_modulus_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        assert (p * q).modulus() == pytest.approx(p.modulus() * q.modulus(),
                                                  rel=1e-12)


def test_conj_times_self_is_real():
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = random_quaternion(rng, scale=3.0)
        prod = q.conj() * q
        assert prod.vec_norm() <= 1e-14 * q.modulus_sq()
        assert prod.w == pytest.approx(q.modulus_sq(), rel=1e-12)


def test_inverse_examples():
    assert I.inverse().approx_eq(-I, 1e-15)
    assert Quaternion(2).inverse().approx_eq(Quaternion(0.5), 1e-15)
    # conj(q) / |q|^2 with |1+i+j+k|^2 = 4
    got = Quaternion(1, 1, 1, 1).inverse()
    assert got.approx_eq(Quaternion(0.25, -0.25, -0.25, -0.25), 1e-15)


def test_inverse_roundtrip_and_zero():
    rng = np.random.default_rng(9)
    for _ in range(100):
        q = random_quaternion(rng)
        if q.modulus() < 1e-6:
            continue
        assert (q * q.inverse()).approx_eq(ONE, 1e-12)
    with pytest.raises(ZeroDivisionError):
        Quaternion(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Quaternion(1e-310).inverse()


def test_standardize_examples():
    e = standardize(J)
    assert (e.re, e.im) == (0.0, 1.0)
    e = standardize(Quaternion(3))
    assert (e.re, e.im) == (3.0, 0.0)
    e = standardize(Quaternion(1, 2, 2, 1))
    assert e.re == pytest.approx(1.0)
    assert e.im == pytest.approx(3.0)


def test_standard_eigenvalue_rejects_negative_imaginary():
    with pytest.raises(ValueError):
        StandardEigenvalue(0.0, -1e-3)


def test_similar_examples():
    assert similar(I, J)
    assert not similar(Quaternion(1), Quaternion(-1))
    assert similar(K, -K)


def test_similarity_invariance_under_conjugation():
    rng = np.random.default_rng(10)
    for _ in range(100):
        q = random_quaternion(rng)
        s = random_quaternion(rng)
        if s.modulus() < 1e-6:
            continue
        conjugated = s.inverse() * q * s
        a, b = standardize(conjugated), standardize(q)
        assert abs(a.re - b.re) <= 1e-9 * max(1.0, q.modulus())
        assert abs(a.im - b.im) <= 1e-9 * max(1.0, q.modulus())


def test_class_distance_examples():
    assert class_distance(standardize(I), J) == pytest.approx(0.0, abs=1e-15)
    assert class_distance(StandardEigenvalue(1, 0), Quaternion(0)) == pytest.approx(1.0)
    got = class_distance(StandardEigenvalue(0.5, 0.5), Quaternion(2))
    assert got == pytest.approx(math.sqrt(1.5 ** 2 + 0.5 ** 2), abs=1e-12)
    assert got == pytest.approx(1.58113883, abs=1e-8)


def test_class_distance_matches_brute_force():
    # The closed form must agree with direct minimization over the class
    # sphere, sampled at 10^3 directions.
    rng = np.random.default_rng(11)
    for _ in range(20):
        e = StandardEigenvalue(rng.standard_normal(), abs(rng.standard_normal()))
        p = random_quaternion(rng, scale=2.0)
        us = [random_unit_imaginary(rng) for _ in range(1000)]
        brute = min((p - (Quaternion(e.re) + u * e.im)).modulus() for u in us)
        exact = class_distance(e, p)
        assert brute >= exact - 1e-12
        assert brute <= exact + 0.05 * max(e.im, 0.1)


def test_class_distance_zero_on_class_sphere():
    rng = np.random.default_rng(12)
    e = StandardEigenvalue(0.7, 1.3)
    for _ in range(200):
        u = random_unit_imaginary(rng)
        point = Quaternion(e.re) + u * e.im
        assert class_distance(e, point) <= 1e-12


def test_similar_iff_class_distance_zero():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = random_quaternion(rng)
        u = random_unit_imaginary(rng)
        same_class = Quaternion(q.w) + u * q.vec_norm()
        assert similar(q, same_class, tol=1e-9)
        assert class_distance(standardize(q), same_class) <= 1e-9
        other = random_quaternion(rng)
        dist = class_distance(standardize(q), other)
        assert similar(q, other, tol=1e-9) == (dist <= 1e-9)


def test_class_distance_extremes_bracket_samples():
    rng = np.random.default_rng(14)
    e = StandardEigenvalue(-0.4, 0.9)
    center = random_quaternion(rng)
    lo, hi = class_distance_extremes(e, center)
    for _ in range(300):
        u = random_unit_imaginary(rng)
        d = (center - (Quaternion(e.re) + u * e.im)).modulus()
        assert lo - 1e-12 <= d <= hi + 1e-12


def test_class_point_lies_on_class():
    e = StandardEigenvalue(2.0, 3.0)
    p = class_point(e, Quaternion(0.5, 1.0, -2.0, 0.25))
    assert similar(p, e.lift())


def test_unit_action_tables():
    from quatpoly.quaternion import CONJ, CONJ_PRODUCT, UNIT_LEFT_ACTIONS, UNIT_RIGHT_ACTIONS

    rng = np.random.default_rng(8)
    for _ in range(20):
        p, q = random_quaternion(rng), random_quaternion(rng)
        for unit, left, right in zip((ONE, I, J, K), UNIT_LEFT_ACTIONS, UNIT_RIGHT_ACTIONS):
            assert np.array_equal(left @ p.as_array(), (unit * p).as_array())
            assert np.array_equal(right @ p.as_array(), (p * unit).as_array())
        assert np.array_equal(CONJ * p.as_array(), p.conj().as_array())
        got = np.einsum("a,akb,b->k", p.as_array(), CONJ_PRODUCT, q.as_array())
        np.testing.assert_allclose(got, (p.conj() * q).as_array(), rtol=0, atol=1e-15)
