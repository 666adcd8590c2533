"""The array samplers against a copy of the former per-vector sampler.

``sample_numerical_range`` and ``not_hyperstable_search`` form every
coefficient set u* A_i v at once from (S, 4n) arrays of probe vectors.  The
reference below builds each one through ``QuaternionMatrix`` products,
``y.adjoint() @ (a @ y)`` and ``z_adj @ v``, as the samplers once did, with
the same random draws in the same order.
"""

import math
import sys

import numpy as np
import pytest

from quatpoly import (
    MatrixPolynomial,
    Quaternion,
    QuaternionMatrix,
    Region,
    ScalarQPolynomial,
    not_hyperstable_search,
    sample_numerical_range,
)
from quatpoly.linalg import qvec, vec4, vec4_to_qvec
from quatpoly import stability
from quatpoly.matpoly import scalar_zeros
from quatpoly.stability import (
    _quadratic_product_certificate,
    _region_contains_closed_unit_ball,
    _zero_meets_region,
)
from quatpoly.tolerances import (BOUNDARY_BAND, DEGREE_TRIM_REL, DRAW_NORM_MIN,
                                 INDUCED_VANISHING_REL, INV_FLOOR, PRODUCT_MODULUS_SLACK,
                                 PROPORTIONAL_REL, SPAN_INDEPENDENT_REL, SPAN_ZERO_REL,
                                 VANISHING_REL)
from test_matpoly import (
    example_golden_poly,
    example_j_shift_poly,
    example_no_eigenvalue_poly,
    example_projection_poly,
)
from _helpers import random_polynomial

UNITS = [Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K]


def _ref_unit_qvec(rng, n):
    while True:
        raw = rng.standard_normal(4 * n)
        norm = float(np.linalg.norm(raw))
        if norm > DRAW_NORM_MIN:
            return vec4_to_qvec(raw / norm)


def _ref_zeros(cs, floor):
    """None for a vanishing polynomial, else its zeros after the degree trim."""
    top = max(c.modulus() for c in cs)
    if top <= floor:
        return None
    degree = max(i for i, c in enumerate(cs) if c.modulus() > DEGREE_TRIM_REL * top)
    return scalar_zeros(ScalarQPolynomial(cs[:degree + 1])) if degree else []


def ref_numerical_range(p, samples, seed):
    rng = np.random.default_rng(seed)
    coeff_scale = max(a.frobenius_norm() for a in p.coeffs)
    points, skipped = [], 0
    for _ in range(samples):
        y = _ref_unit_qvec(rng, p.size)
        y_adj = y.adjoint()
        zeros = _ref_zeros([(y_adj @ (a @ y)).entry(0, 0) for a in p.coeffs],
                           VANISHING_REL * coeff_scale)
        if zeros is None:
            skipped += 1
        else:
            points.extend((zero.point, zero.spherical) for zero in zeros)
    return points, skipped


def _ref_span_basis(vs):
    basis = []
    for v in vs:
        for u in UNITS:
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


def _ref_all_sampled_z_fail(vs, region, rng):
    basis = _ref_span_basis(vs)
    if not basis:
        return True
    dim = len(basis)
    zs = [s * b for b in basis for s in (1.0, -1.0)]
    zs += [(basis[a] + basis[b]) / math.sqrt(2.0)
           for a in range(dim) for b in range(a + 1, dim)]
    while len(zs) < 2 * dim + dim * (dim - 1) // 2 + 48:
        w = rng.standard_normal(dim)
        norm = float(np.linalg.norm(w))
        if norm > DRAW_NORM_MIN:
            zs.append(sum(c * b for c, b in zip(w / norm, basis)))
    vmax = max(v.frobenius_norm() for v in vs)
    for z_arr in zs:
        z_adj = vec4_to_qvec(z_arr).adjoint()
        zeros = _ref_zeros([(z_adj @ v).entry(0, 0) for v in vs], INDUCED_VANISHING_REL * vmax)
        if zeros is not None and not any(_zero_meets_region(zero, region, BOUNDARY_BAND)
                                         for zero in zeros):
            return False
    return True


def _ref_quadratic_certificate(vs):
    v2, v0 = vs[2], vs[0]
    n2 = v2.frobenius_norm()
    if n2 <= INV_FLOOR:
        return v0.frobenius_norm() <= INV_FLOOR
    q = (v2.adjoint() @ v0).entry(0, 0) / n2 / n2
    residual = (v0 - v2.scale_right(q)).frobenius_norm()
    if residual > PROPORTIONAL_REL * max(v0.frobenius_norm(), n2):
        return False
    return q.modulus() <= 1.0 + PRODUCT_MODULUS_SLACK


def ref_search(p, region, y_samples, seed):
    rng = np.random.default_rng(seed)
    n = p.size
    candidates = [qvec([u if s == t else Quaternion.ZERO for s in range(n)])
                  for t in range(n) for u in UNITS]
    candidates += [_ref_unit_qvec(rng, n) for _ in range(y_samples)]
    coeff_scale = max(a.frobenius_norm() for a in p.coeffs)
    for y in candidates:
        vs = [a @ y for a in p.coeffs]
        vnorm = max(v.frobenius_norm() for v in vs)
        if vnorm <= VANISHING_REL * coeff_scale:
            return y, "universal-kernel"
        vs = [v * math.ldexp(1.0, -math.frexp(vnorm)[1]) for v in vs]
        if (p.degree == 2 and _region_contains_closed_unit_ball(region)
                and _ref_quadratic_certificate(vs)):
            return y, "quadratic-product-certificate"
        if _ref_all_sampled_z_fail(vs, region, rng):
            return y, "sampled-z-exhaustion"
    return None


SHAPES = [(n, m) for n in range(1, 7) for m in range(1, 5)]


@pytest.mark.parametrize("n,m", SHAPES)
def test_numerical_range_matches_the_per_vector_sampler(n, m):
    rng = np.random.default_rng(7000 + 10 * n + m)
    p = random_polynomial(rng, n, m)
    samples, seed = 24, int(rng.integers(1 << 30))
    got = sample_numerical_range(p, samples, seed)
    want, skipped = ref_numerical_range(p, samples, seed)
    assert got.skipped == skipped
    assert len(got.points) == len(want)
    assert [rp.spherical for rp in got.points] == [spherical for _, spherical in want]
    for rp, (point, _) in zip(got.points, want):
        assert (rp.point - point).modulus() <= 1e-12 * max(1.0, point.modulus())


@pytest.mark.parametrize("example", [example_golden_poly, example_j_shift_poly,
                                     example_projection_poly, example_no_eigenvalue_poly])
def test_numerical_range_of_the_examples_matches_the_per_vector_sampler(example):
    # Spherical zero sets (j shifts) and constant polynomials (projections).
    p = example()
    got = sample_numerical_range(p, 40, 5)
    want, skipped = ref_numerical_range(p, 40, 5)
    assert (got.skipped, len(got.points)) == (skipped, len(want))
    assert [rp.spherical for rp in got.points] == [spherical for _, spherical in want]
    for rp, (point, _) in zip(got.points, want):
        assert (rp.point - point).modulus() <= 1e-12 * max(1.0, point.modulus())


def _regions():
    return [Region.closed_ball(Quaternion.ZERO, 1.0),
            Region.open_ball(Quaternion.ZERO, 2.5),
            Region.open_ball(Quaternion(0.5, 0.5), 0.8),
            Region.finite_set([Quaternion(0.5), Quaternion(0.0, 1.0)])]


def _assert_same_hit(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.certificate == want[1]
    assert np.array_equal(got.vector.a1, want[0].a1)
    assert np.array_equal(got.vector.a2, want[0].a2)


@pytest.mark.parametrize("n,m", SHAPES)
def test_search_matches_the_per_vector_sampler(n, m):
    rng = np.random.default_rng(8000 + 10 * n + m)
    p = random_polynomial(rng, n, m)
    region = _regions()[(n + m) % 4]
    seed = int(rng.integers(1 << 30))
    got = not_hyperstable_search(p, region, y_samples=2, seed=seed)
    _assert_same_hit(got, ref_search(p, region, 2, seed))


def test_search_hits_and_certificates_match_the_per_vector_sampler():
    rng = np.random.default_rng(8100)
    # A common kernel vector, a quadratic with A_0 = A_2 q (|q| < 1), and a
    # polynomial whose every induced polynomial is a multiple of t.
    base = random_polynomial(rng, 3, 2)
    cols = [QuaternionMatrix(a.a1.copy(), a.a2.copy()) for a in base.coeffs]
    for c in cols:
        c.a1[:, 1] = 0.0
        c.a2[:, 1] = 0.0
    kernel = MatrixPolynomial(cols)
    a2 = base.coeffs[2]
    proportional = MatrixPolynomial([a2.scale_right(Quaternion(0.3, 0.2, -0.4, 0.1)),
                                     base.coeffs[1], a2])
    multiple_of_t = MatrixPolynomial([QuaternionMatrix.zeros(3, 3), *base.coeffs[1:]])
    seen = set()
    for p in (kernel, proportional, multiple_of_t):
        for region in _regions():
            got = not_hyperstable_search(p, region, y_samples=2, seed=11)
            _assert_same_hit(got, ref_search(p, region, 2, 11))
            seen.add(None if got is None else got.certificate)
    assert {"universal-kernel", "quadratic-product-certificate",
            "sampled-z-exhaustion"} <= seen


def test_search_hands_the_same_polynomials_to_the_zero_finder(monkeypatch):
    # Every coefficient set z* A_i y the search examines, in order: the
    # draws, the probe order and the conjugation must all match.
    got, want = [], []
    array_zeros, object_zeros = stability._sampled_zeros, _ref_zeros
    monkeypatch.setattr(stability, "_sampled_zeros",
                        lambda cs, floor: got.append(cs) or array_zeros(cs, floor))
    monkeypatch.setattr(sys.modules[__name__], "_ref_zeros",
                        lambda cs, floor: want.append([c.as_array() for c in cs])
                        or object_zeros(cs, floor))
    rng = np.random.default_rng(8200)
    for n, m in [(2, 2), (3, 1), (3, 3)]:
        p = random_polynomial(rng, n, m)
        for region in _regions():
            got.clear()
            want.clear()
            not_hyperstable_search(p, region, y_samples=2, seed=13)
            ref_search(p, region, 2, 13)
            assert len(got) == len(want)
            np.testing.assert_allclose(np.array(got), np.array(want), rtol=0.0, atol=1e-12)


def test_quadratic_certificate_survives_a_tiny_leading_action():
    # ||A_2 y|| = 1e-200 next to ||A_0 y|| ~ 1: dividing by ||A_2 y||^2 at
    # once underflowed to 0 and raised ZeroDivisionError.
    vs = np.zeros((3, 8))
    vs[0, 0], vs[2, 0] = 0.75, 1e-200
    assert not _quadratic_product_certificate(vs)
