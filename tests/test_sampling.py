"""The array samplers against a copy of the former per-vector sampler.

``sample_numerical_range`` and ``not_hyperstable_search`` form every
coefficient set u* A_i v at once from (S, 4n) arrays of probe vectors.  The
reference below builds each one through ``QuaternionMatrix`` products,
``y.adjoint() @ (a @ y)`` and ``z_adj @ v``, as the samplers once did, with
the same random draws in the same order.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from quatpoly import (
    MatrixPolynomial,
    Quaternion,
    QuaternionMatrix,
    Region,
    RegionKind,
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
)
from quatpoly.tolerances import (BOUNDARY_BAND, DEGREE_TRIM_REL, DRAW_NORM_MIN,
                                 FINITE_SET_REL, INDUCED_VANISHING_REL, INV_FLOOR,
                                 MODULUS_BOUND_SLACK, PRODUCT_MODULUS_SLACK,
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


def _ref_trimmed(cs, floor):
    """None for a vanishing polynomial, else its coefficients after the degree trim."""
    top = max(c.modulus() for c in cs)
    if top <= floor:
        return None
    degree = max(i for i, c in enumerate(cs) if c.modulus() > DEGREE_TRIM_REL * top)
    return cs[:degree + 1]


def _ref_zeros(cs, floor):
    """None for a vanishing polynomial, else its zeros after the degree trim."""
    cs = _ref_trimmed(cs, floor)
    if cs is None:
        return None
    return scalar_zeros(ScalarQPolynomial(cs)) if len(cs) > 1 else []


def _widened(low, high):
    low = max(0.0, low - MODULUS_BOUND_SLACK * max(1.0, low))
    high = max(0.0, high + MODULUS_BOUND_SLACK * max(1.0, high))
    return low, min(high, sys.float_info.max)


def _ref_outside_moduli(cs, region, band):
    """The modulus bound for one trimmed polynomial, in exact rational
    arithmetic: no zero can have a modulus that counts as inside the region."""
    if region.kind is RegionKind.FINITE_SET:
        reach = [(p.modulus(), FINITE_SET_REL * max(1.0, p.modulus())) for p in region.points]
    else:
        reach = [(region.center.modulus(), region.radius - band)]
    moduli = [Fraction(c.modulus()) for c in cs]
    d = len(cs) - 1
    for center, radius in reach:
        low, high = map(Fraction, _widened(center - radius, center + radius))
        below_high = moduli[0] > sum(m * high ** i for i, m in enumerate(moduli) if i)
        above_low = moduli[d] * low ** d > sum(m * low ** i for i, m in enumerate(moduli[:d]))
        if not (below_high or above_low):
            return False
    return True


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


def _ref_all_sampled_z_fail(vs, region, rng, bound):
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
    floor = INDUCED_VANISHING_REL * vmax
    for z_arr in zs:
        z_adj = vec4_to_qvec(z_arr).adjoint()
        cs = [(z_adj @ v).entry(0, 0) for v in vs]
        if bound and (kept := _ref_trimmed(cs, floor)) is not None and _ref_outside_moduli(
                kept, region, BOUNDARY_BAND):
            return False
        zeros = _ref_zeros(cs, floor)
        if zeros is not None and not region.meets([zero.point.as_array() for zero in zeros],
                                                  [zero.spherical for zero in zeros],
                                                  BOUNDARY_BAND).any():
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


def ref_search(p, region, y_samples, seed, bound=False):
    """The former per-vector search; with ``bound``, a probe the modulus
    bound puts outside the region refutes y before any zero is found."""
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
        if _ref_all_sampled_z_fail(vs, region, rng, bound):
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
    assert got.spherical.tolist() == [spherical for _, spherical in want]
    for q, (point, _) in zip(map(Quaternion, *got.points.T.tolist()), want):
        assert (q - point).modulus() <= 1e-12 * max(1.0, point.modulus())


@pytest.mark.parametrize("example", [example_golden_poly, example_j_shift_poly,
                                     example_projection_poly, example_no_eigenvalue_poly])
def test_numerical_range_of_the_examples_matches_the_per_vector_sampler(example):
    # Spherical zero sets (j shifts) and constant polynomials (projections).
    p = example()
    got = sample_numerical_range(p, 40, 5)
    want, skipped = ref_numerical_range(p, 40, 5)
    assert (got.skipped, len(got.points)) == (skipped, len(want))
    assert got.spherical.tolist() == [spherical for _, spherical in want]
    for q, (point, _) in zip(map(Quaternion, *got.points.T.tolist()), want):
        assert (q - point).modulus() <= 1e-12 * max(1.0, point.modulus())


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
    # Every polynomial z* P(t) y the search hands to scalar_zeros, in order:
    # the draws, the probe order, the conjugation, the trim and the modulus
    # bound, which keeps a probe from the zero finder, must all match.
    got, want = [], []

    def recording(seen, zeros=scalar_zeros):
        return lambda p: seen.append([c.as_array() for c in p.coeffs]) or zeros(p)

    monkeypatch.setattr(stability, "scalar_zeros", recording(got))
    monkeypatch.setattr(sys.modules[__name__], "scalar_zeros", recording(want))
    rng = np.random.default_rng(8200)
    for n, m in [(2, 2), (3, 1), (3, 3)]:
        p = random_polynomial(rng, n, m)
        for region in _regions():
            got.clear()
            want.clear()
            not_hyperstable_search(p, region, y_samples=2, seed=13)
            ref_search(p, region, 2, 13, bound=True)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_allclose(np.array(g), np.array(w), rtol=0.0, atol=1e-12)


def test_quadratic_certificate_survives_a_tiny_leading_action():
    # ||A_2 y|| = 1e-200 next to ||A_0 y|| ~ 1: dividing by ||A_2 y||^2 at
    # once underflowed to 0 and raised ZeroDivisionError.
    vs = np.zeros((3, 8))
    vs[0, 0], vs[2, 0] = 0.75, 1e-200
    assert not _quadratic_product_certificate(vs)


def _loop_draws(rng, count, length, floor):
    """Unit rows drawn one by one, a row again while its norm is at most floor."""
    rows = []
    while len(rows) < count:
        raw = rng.standard_normal(length)
        norm = math.sqrt(raw @ raw)
        if norm > floor:
            rows.append(raw / norm)
    return np.array(rows).reshape(count, length)


@pytest.mark.parametrize("floor", [DRAW_NORM_MIN, 1.0], ids=["block", "forced-rejection"])
def test_block_draws_equal_the_row_by_row_loop(monkeypatch, floor):
    # A floor of 1 rejects many rows (every short one of length 1 or 2), so
    # the block draw must put the generator back and redraw row by row.
    monkeypatch.setattr(stability, "DRAW_NORM_MIN", floor)
    for count, length in [(0, 4), (1, 4), (5, 1), (16, 8), (48, 3), (7, 12), (100, 2)]:
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stability._unit_draws(rng, count, length)
            assert got.shape == (count, length)
            assert np.array_equal(got, _loop_draws(ref, count, length, floor))
            assert rng.bit_generator.state == ref.bit_generator.state


# The search takes its candidates in chunks [0], [1, 4], [5, 20], [21, 84],
# ...  With n = 5 the candidates 0-19 are the canonical e_t u (position
# 4t + u for u = 1, i, j, k) and 20 on are random.  An exact certificate of
# e_t u is one of e_t too, since A_i e_t u = (A_i e_t) u, so it lands at
# position 4t; only a sampled one can be planted at e_t i.
BOUNDARY_N, BOUNDARY_Y_SAMPLES, BOUNDARY_SEED = 5, 4, 17
EIGENVALUE = Quaternion(0.3, 0.0, 0.5, 0.0)  # i EIGENVALUE / i = 0.3 - 0.5j
PRODUCT_FACTOR = Quaternion(0.3, 0.2, -0.4, 0.1)


def _ref_candidates(n, y_samples, seed):
    rng = np.random.default_rng(seed)
    canonical = [qvec([u if s == t else Quaternion.ZERO for s in range(n)])
                 for t in range(n) for u in UNITS]
    return canonical + [_ref_unit_qvec(rng, n) for _ in range(y_samples)]


def _planted(coeffs, x, certificate):
    """Coefficients changed on the unit vector x alone so that x backs
    ``certificate``: x in the kernel of every A_i (for a canonical x, a
    zeroed column), A_0 x = (A_2 x) PRODUCT_FACTOR, or x a right eigenvector
    for EIGENVALUE, so that every z* P(t) x vanishes there."""
    coeffs = list(coeffs)
    x_adj = x.adjoint()
    if certificate == "universal-kernel":
        return [a - (a @ x) @ x_adj for a in coeffs]
    if certificate == "quadratic-product-certificate":
        target = (coeffs[2] @ x).scale_right(PRODUCT_FACTOR)
    else:
        target, power = QuaternionMatrix.zeros(len(coeffs[0].a1), 1), Quaternion.ONE
        for a in coeffs[1:]:
            power = power * EIGENVALUE
            target = target - (a @ x).scale_right(power)
    coeffs[0] = coeffs[0] + (target - coeffs[0] @ x) @ x_adj
    return coeffs


def _boundary_case(plants, region, seed):
    """A random quadratic with A_0 made large, so that no unplanted
    candidate is a witness, and ``plants`` as (certificate, position)."""
    rng = np.random.default_rng(seed)
    base = random_polynomial(rng, BOUNDARY_N, 2)
    coeffs = [base.coeffs[0] * 8.0, *base.coeffs[1:]]
    ys = _ref_candidates(BOUNDARY_N, BOUNDARY_Y_SAMPLES, BOUNDARY_SEED)
    for certificate, position in plants:
        coeffs = _planted(coeffs, ys[position], certificate)
    p = MatrixPolynomial(coeffs)
    got = not_hyperstable_search(p, region, y_samples=BOUNDARY_Y_SAMPLES, seed=BOUNDARY_SEED)
    _assert_same_hit(got, ref_search(p, region, BOUNDARY_Y_SAMPLES, BOUNDARY_SEED))
    return got, ys


UNIT_BALL = Region.closed_ball(Quaternion.ZERO, 1.0)
AT_EIGENVALUE = Region.finite_set([EIGENVALUE])
BOUNDARY_CASES = ([("universal-kernel", position) for position in (0, 4, 20, 21)]
                  + [("quadratic-product-certificate", position) for position in (0, 4, 20, 21)]
                  + [("sampled-z-exhaustion", position) for position in (0, 1, 4, 5, 20, 21)])


@pytest.mark.parametrize("certificate,position", BOUNDARY_CASES)
def test_search_finds_witnesses_on_both_sides_of_each_chunk_boundary(certificate, position):
    region = UNIT_BALL if certificate == "quadratic-product-certificate" else AT_EIGENVALUE
    got, ys = _boundary_case([(certificate, position)], region, 8300 + position)
    assert got.certificate == certificate
    assert np.array_equal(vec4(got.vector), vec4(ys[position]))


@pytest.mark.parametrize("sampled,certificate,exact,region", [
    (1, "universal-kernel", 4, AT_EIGENVALUE),
    (8, "quadratic-product-certificate", 12, UNIT_BALL),
], ids=["kernel", "quadratic"])
def test_an_earlier_sampled_witness_beats_a_later_exact_one_in_its_chunk(sampled, certificate,
                                                                         exact, region):
    # The exact test of the later candidate fires first within the chunk, but
    # the earlier candidate, decided by its sampled z, is the witness.
    plants = [("sampled-z-exhaustion", sampled), (certificate, exact)]
    got, ys = _boundary_case(plants, region, 8400 + sampled)
    assert got.certificate == "sampled-z-exhaustion"
    assert np.array_equal(vec4(got.vector), vec4(ys[sampled]))
    alone, _ = _boundary_case(plants[1:], region, 8400 + sampled)
    assert (alone.certificate, alone.vector.allclose(ys[exact])) == (certificate, True)


def _span_stacks(rng):
    """(Y, m+1, 4n) stacks of rows vec4(A_i y): full rank, a repeated row,
    a row in the right span of another, zero rows, an all-zero stack, at
    scales 1e-3 to 1e3."""
    n, m = 4, 3
    stacks = rng.standard_normal((12, m + 1, 4 * n))
    stacks[1, 2] = stacks[1, 0]
    stacks[2, 3] = vec4(vec4_to_qvec(stacks[2, 1]).scale_right(Quaternion.I))
    stacks[3, 1:] = 0.0
    stacks[4, 0] = 0.0
    stacks[5] = 0.0
    stacks[6, :, 4:8] = 0.0
    stacks[7, 3] = stacks[7, 0] * 2.0 - stacks[7, 1]
    return stacks * 10.0 ** rng.integers(-3, 4, size=(12, 1, 1))


def test_batched_span_bases_equal_the_per_stack_gram_schmidt():
    for seed in range(5):
        stacks = _span_stacks(np.random.default_rng(8500 + seed))
        bases, sizes = stability._span_bases(stacks)
        assert bases.shape[:2] == (len(stacks), min(4 * stacks.shape[1], stacks.shape[2]))
        for basis, size, stack in zip(bases, sizes.tolist(), stacks):
            want = _ref_span_basis([vec4_to_qvec(row) for row in stack])
            assert size == len(want)
            assert np.array_equal(basis[:size], np.array(want).reshape(size, stacks.shape[2]))
            assert not basis[size:].any()


@pytest.mark.parametrize("floor", [DRAW_NORM_MIN, 1.0], ids=["block", "forced-rejection"])
def test_draws_of_many_lengths_equal_consecutive_calls(monkeypatch, floor):
    monkeypatch.setattr(stability, "DRAW_NORM_MIN", floor)
    for count, lengths in [(48, [3]), (48, [1, 2, 12]), (48, [16, 16, 7, 16]), (5, [2, 1, 2]),
                           (0, [4, 8]), (3, [])]:
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stability._unit_draws(rng, count, np.array(lengths, int))
            assert got.shape == (len(lengths), count, max(lengths, default=0))
            for rows, length in zip(got, lengths):
                assert np.array_equal(rows[:, :length], _loop_draws(ref, count, length, floor))
                assert not rows[:, length:].any()
            assert rng.bit_generator.state == ref.bit_generator.state
