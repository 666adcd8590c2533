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
    MultiPolynomial,
    Quaternion,
    QuaternionMatrix,
    Region,
    ScalarQPolynomial,
    StabilityStatus,
    check_stability,
    check_stability_multi,
    not_hyperstable_search,
    sample_numerical_range,
)
from quatpoly.linalg import qvec, vec4_to_qvec
from quatpoly import matpoly, stability
from quatpoly.matpoly import scalar_zeros
from quatpoly.stability import (
    _quadratic_product_certificate,
    _region_contains_closed_unit_ball,
)
from quatpoly.tolerances import (BOUNDARY_BAND, DEGREE_TRIM_REL, DRAW_NORM_MIN,
                                 INDUCED_VANISHING_REL, INV_FLOOR,
                                 MODULUS_BOUND_SLACK, PRODUCT_MODULUS_SLACK,
                                 PROPORTIONAL_REL, SPAN_INDEPENDENT_REL, SPAN_ZERO_REL,
                                 VANISHING_REL)
from test_matpoly import (
    example_golden_poly,
    example_j_shift_poly,
    example_no_eigenvalue_poly,
    example_projection_poly,
)
from _helpers import random_polynomial, random_qmatrix, random_quaternion
from _reference import vec4

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


def _ref_radius(center, radius):
    """The radius of the ball the search must exclude: ``radius`` kept >= 0
    and widened by MODULUS_BOUND_SLACK max(1, |c| + radius)."""
    radius = max(0.0, radius)
    return Fraction(radius + MODULUS_BOUND_SLACK * max(1.0, center.modulus() + radius))


def _ref_low_modulus_excluded(cs, center, radius):
    """The low half of the modulus bound for one trimmed polynomial and one
    ball, in exact rational arithmetic: no zero has modulus >= l = max(|c| -
    rho, 0) when |a_d| l^d > sum_{i<d} |a_i| l^i."""
    moduli = [Fraction(c.modulus()) for c in cs]
    d = len(cs) - 1
    low = max(Fraction(center.modulus()) - _ref_radius(center, radius), Fraction(0))
    return moduli[d] * low ** d > sum(m * low ** i for i, m in enumerate(moduli[:d]))


def _ref_qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _ref_center_excluded(cs, center, radius):
    """The center-value bound for one trimmed polynomial and one ball, in
    exact rational arithmetic: |q(c)| > sum |a_i| ((|c| + rho)^i - |c|^i),
    with the radius widened as the search widens it."""
    rho = _ref_radius(center, radius)
    c = tuple(map(Fraction, center.as_array()))
    value = (Fraction(0),) * 4
    for a in reversed(cs):
        value = tuple(v + Fraction(x) for v, x in zip(_ref_qmul(value, c), a.as_array()))
    modulus = Fraction(center.modulus())
    bound = sum(Fraction(a.modulus()) * ((modulus + rho) ** i - modulus ** i)
                for i, a in enumerate(cs))
    return sum(v * v for v in value) > bound * bound


def _ref_excluded(cs, region, band):
    """The ball in which a zero counts as inside, the radius less the band,
    is ruled out by the center-value bound or the low-modulus bound."""
    center, radius = region.center, region.radius - band
    return _ref_center_excluded(cs, center, radius) or _ref_low_modulus_excluded(cs, center, radius)


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
        if bound and (kept := _ref_trimmed(cs, floor)) is not None and _ref_excluded(
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
    """The former per-vector search; with ``bound``, a probe that the
    center-value bound or the low-modulus bound puts outside the ball region
    refutes y before any zero is found."""
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
            Region.closed_ball(Quaternion(0.0, 1.0), 0.3)]


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
    # the draws, the probe order, the conjugation, the trim and the
    # center-value and low-modulus bounds, which keep a probe from the zero
    # finder, must all match.
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


# With a cap of 4 candidates the search takes its 24 candidates in chunks
# [0, 3], [4, 7], ..., [20, 23].  With n = 5 the candidates 0-19 are the
# canonical e_t u (position 4t + u for u = 1, i, j, k) and 20 on are random.
# An exact certificate of e_t u is one of e_t too, since A_i e_t u =
# (A_i e_t) u, so it lands at position 4t, and a sampled one planted at
# e_t k makes e_t i one too, so the last place before an edge is 4t + 1.
# Exact ones go at 16 and just after the edges 4, 8 and 20, sampled ones
# at 4t + 1 before each of those edges and at 4t after it, and both at the
# ends of the last chunk.
BOUNDARY_N, BOUNDARY_Y_SAMPLES, BOUNDARY_SEED = 5, 4, 17
BOUNDARY_CAP, BOUNDARY_CHUNKS = 4, [4, 4, 4, 4, 4, 4]
EIGENVALUE = Quaternion(0.3, 0.0, 0.5, 0.0)  # i EIGENVALUE / i = 0.3 - 0.5j
PRODUCT_FACTOR = Quaternion(0.3, 0.2, -0.4, 0.1)


def _probe_doubles(n, m):
    """The doubles of one search candidate's probes z: 2 r + r (r - 1) / 2 +
    RANDOM_PROBES of 4n doubles each, r = min(4n, 4(m + 1)) the span rank."""
    rank = min(4 * n, 4 * (m + 1))
    return (2 * rank + rank * (rank - 1) // 2 + stability.RANDOM_PROBES) * 4 * n


@pytest.fixture
def chunk_lengths(monkeypatch):
    """Records the length of each chunk of candidates the search takes."""
    lengths, chunk_witness = [], stability._chunk_witness

    def record(actions, *args):
        lengths.append(len(actions))
        return chunk_witness(actions, *args)

    monkeypatch.setattr(stability, "_chunk_witness", record)
    return lengths


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
AT_EIGENVALUE = Region.closed_ball(EIGENVALUE, 1e-3)
BOUNDARY_CASES = ([("universal-kernel", position) for position in (0, 4, 8, 16, 20, 21, 23)]
                  + [("quadratic-product-certificate", position) for position in (0, 4, 8, 16, 20, 21, 23)]
                  + [("sampled-z-exhaustion", position)
                     for position in (0, 1, 4, 5, 8, 9, 17, 20, 21, 23)])


@pytest.mark.parametrize("certificate,position", BOUNDARY_CASES)
def test_search_finds_witnesses_on_both_sides_of_each_chunk_boundary(monkeypatch, chunk_lengths,
                                                                     certificate, position):
    monkeypatch.setattr(matpoly, "SWEEP_CHUNK_DOUBLES", BOUNDARY_CAP * _probe_doubles(BOUNDARY_N, 2))
    region = UNIT_BALL if certificate == "quadratic-product-certificate" else AT_EIGENVALUE
    got, ys = _boundary_case([(certificate, position)], region, 8300 + position)
    assert got.certificate == certificate
    assert np.array_equal(vec4(got.vector), vec4(ys[position]))
    assert chunk_lengths == BOUNDARY_CHUNKS[:len(chunk_lengths)]


@pytest.mark.parametrize("sampled,certificate,exact,region", [
    (1, "universal-kernel", 4, AT_EIGENVALUE),
    (8, "quadratic-product-certificate", 12, UNIT_BALL),
], ids=["kernel", "quadratic"])
def test_an_earlier_sampled_witness_beats_a_later_exact_one_in_its_chunk(chunk_lengths, sampled,
                                                                         certificate, exact, region):
    # The exact test of the later candidate fires first within the chunk, but
    # the earlier candidate, decided by its sampled z, is the witness.
    plants = [("sampled-z-exhaustion", sampled), (certificate, exact)]
    got, ys = _boundary_case(plants, region, 8400 + sampled)
    assert sum(chunk_lengths[:-1]) <= sampled < exact < sum(chunk_lengths)
    assert got.certificate == "sampled-z-exhaustion"
    assert np.array_equal(vec4(got.vector), vec4(ys[sampled]))
    alone, _ = _boundary_case(plants[1:], region, 8400 + sampled)
    assert (alone.certificate, alone.vector.allclose(ys[exact])) == (certificate, True)


def _killed_at_e0(rng, n, value):
    """Random (A, B) but for B e_0 = -value A e_0, exact for a power of two
    ``value``: A y value + B y vanishes at y = e_0."""
    a, b = random_qmatrix(rng, n), random_qmatrix(rng, n)
    b.a1[:, 0], b.a2[:, 0] = -value * a.a1[:, 0], -value * a.a2[:, 0]
    return a, b


def test_sweeps_and_the_search_do_not_depend_on_the_chunk_cap(monkeypatch, chunk_lengths):
    # Each chunk is decided on its own and the search draws per y in order,
    # so caps of 1, 2 and 7 candidates give the default cap's results bit
    # for bit.  Past the first chunk edge of the small caps, a finite-set
    # sweep hits point 17 of 30, a two-letter sweep tuple 29 of 64 and the
    # search a sampled witness at candidate 9 of 24.  A finite set whose
    # first point is its only eigenvalue hits there, alone at a cap of 1 and
    # in a chunk of 18 at the default cap.
    rng = np.random.default_rng(8500)
    a, b = _killed_at_e0(rng, 3, 0.5)
    p = MatrixPolynomial([b, a])
    points = [Quaternion(10.0) + random_quaternion(rng) for _ in range(30)]
    points[17] = Quaternion(0.5)
    first = Region.finite_set(points[17:0:-1] + points[:1])
    a, b = _killed_at_e0(rng, 2, 0.125)
    q = MultiPolynomial.build(2, [((1, 2), a), ((), b)])
    letters = [Quaternion(10.0) + random_quaternion(rng) for _ in range(8)]
    letters[3], letters[5] = Quaternion(0.5), Quaternion(0.25)
    default, decide = matpoly.SWEEP_CHUNK_DOUBLES, matpoly.rank_decisions
    operators = []
    monkeypatch.setattr(matpoly, "rank_decisions",
                        lambda stack, scale: operators.append(len(stack)) or decide(stack, scale))

    def capped(cap, doubles_each, call):
        monkeypatch.setattr(matpoly, "SWEEP_CHUNK_DOUBLES", cap * doubles_each if cap else default)
        return call()

    def results(cap):
        operators.clear()
        chunk_lengths.clear()
        one = capped(cap, 12 ** 2, lambda: check_stability(p, Region.finite_set(points)))
        head = capped(cap, 12 ** 2, lambda: check_stability(p, first))
        multi = capped(cap, 8 ** 2, lambda: check_stability_multi(q, Region.finite_set(letters)))
        hit, ys = capped(cap, _probe_doubles(BOUNDARY_N, 2),
                         lambda: _boundary_case([("sampled-z-exhaustion", 9)], AT_EIGENVALUE, 8309))
        if cap:
            assert max(operators) == max(chunk_lengths) == cap
        assert np.array_equal(vec4(hit.vector), vec4(ys[9]))
        return [one.status, np.array(one.witness.as_array()).tobytes(), vec4(one.vector).tobytes(),
                head.status, np.array(head.witness.as_array()).tobytes(), vec4(head.vector).tobytes(),
                multi.status, np.array([x.as_array() for x in multi.witness_tuple]).tobytes(),
                vec4(multi.witness_vector).tobytes(), hit.certificate, vec4(hit.vector).tobytes()]

    want = results(None)
    assert want[0] is want[3] is want[6] is StabilityStatus.NOT_STABLE
    assert want[1] == want[4] == np.array([0.5, 0, 0, 0]).tobytes()
    assert want[7] == np.array([[0.5, 0, 0, 0], [0.25, 0, 0, 0]]).tobytes()
    for cap in (1, 2, 7):
        assert results(cap) == want, cap


def test_only_class_witnesses_go_to_the_rank_test_alone(monkeypatch):
    # A class witness is a computed eigenvalue, so the spectrum-class route
    # hands its first point over alone.  A finite set, an oracle-sampling
    # grid and a tuple sweep start at min(cap, count) operators; at n = 8
    # the cap is 2^16 / 32^2 = 64.
    decide, stacks = matpoly.rank_decisions, []
    monkeypatch.setattr(matpoly, "rank_decisions",
                        lambda stack, scale: stacks.append(len(stack)) or decide(stack, scale))
    rng = np.random.default_rng(8600)
    p = random_polynomial(rng, 8, 2, invertible_ends=True)
    verdict = check_stability(p, Region.closed_ball(Quaternion.ZERO, 1e6))
    assert (verdict.status, verdict.certificate) == (StabilityStatus.NOT_STABLE, "spectrum-class-geometry")
    assert stacks == [1]
    cap = matpoly.SWEEP_CHUNK_DOUBLES // (4 * 8) ** 2
    far = [Quaternion(1e3) + random_quaternion(rng) for _ in range(100)]
    lead = random_qmatrix(rng, 8)
    lead.a1[:, 0], lead.a2[:, 0] = 0.0, 0.0
    singular = MatrixPolynomial([*p.coeffs[:2], lead])
    ball = Region.closed_ball(Quaternion(1e3), 1.0)
    a, b = random_qmatrix(rng, 8), random_qmatrix(rng, 8)
    q = MultiPolynomial.build(2, [((1, 2), a), ((), b)])
    for call, count in ((lambda: check_stability(p, Region.finite_set(far)), 100),
                        (lambda: check_stability(singular, ball, samples=40), 40),
                        (lambda: check_stability(singular, ball), 500),
                        (lambda: check_stability_multi(q, Region.finite_set(far[:10])), 100)):
        stacks.clear()
        call()
        assert stacks[0] == min(cap, count) and sum(stacks) == count


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


# Orthonormality and span agree with the real Gram-Schmidt to this bound; the
# quaternionic one orthogonalizes whole quadruples, so its last bits differ.
SPAN_BOUND = 1e-12


def test_quaternionic_span_bases_span_what_the_real_gram_schmidt_spans():
    for seed in range(5):
        stacks = _span_stacks(np.random.default_rng(8500 + seed))
        bases, sizes = stability._span_bases(stacks)
        assert bases.shape[:2] == (len(stacks), min(4 * stacks.shape[1], stacks.shape[2]))
        for basis, size, stack in zip(bases, sizes.tolist(), stacks):
            want = np.array(_ref_span_basis([vec4_to_qvec(row) for row in stack]))
            want = want.reshape(-1, stacks.shape[2])
            assert len(want) == size
            for k in range(0, size, 4):  # each b_k with its right unit multiples, bit for bit
                b = vec4_to_qvec(basis[k])
                assert np.array_equal(basis[k:k + 4], [vec4(b.scale_right(u)) for u in UNITS])
            assert not basis[size:].any()
            got = basis[:size]
            assert np.abs(got @ got.T - np.eye(size)).max(initial=0.0) <= SPAN_BOUND
            assert np.abs(got.T @ got - want.T @ want).max() <= SPAN_BOUND


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
