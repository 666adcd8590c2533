"""Zeros of scalar quaternion polynomials, counted with multiplicity.

Planted repeated zeros check the class count, the shares of the degree and
the accuracy of every class; seeded generic 1 x 1 polynomials are checked
against the two other routes to their eigenvalues, the companion lift
(``polyeig``) and the realified oracle at every isolated zero and at two
points of every sphere.
"""

import math
import warnings

import numpy as np
import pytest
import _reference
from _helpers import linear, product, quadratic, random_quaternion
from _reference import as_matrix_polynomial, class_point, evaluate, standardize

from quatpoly import (MatrixPolynomial, PairingFailureError, Quaternion, QuaternionMatrix, ScalarQPolynomial,
                      StandardEigenvalue, is_eigenvalue_oracle, polyeig, sample_numerical_range,
                      scalar_zeros, stability)
from quatpoly.matpoly import stacked_zeros
from quatpoly.tolerances import DEGREE_TRIM_REL

ONE = Quaternion(1.0)
I, J, K = Quaternion(0.0, 1.0), Quaternion(0.0, 0.0, 1.0), Quaternion(0.0, 0.0, 0.0, 1.0)


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
    ([linear(Quaternion(0.3 + 1e-5 * i)) for i in range(3)], [(False, 1)] * 3),
    ([linear(Quaternion(0.3 + 1e-4 * i)) for i in range(3)], [(False, 1)] * 3),
], ids=["(t-1)^2", "(t-1)^3", "(t^2+1)^2", "(t^2+1)^3", "(t-2)^2(t^2+1)", "(t-i)^2",
        "(t-i)(t-j)", "(t^2+1)(t-j)", "three-real-1e-5", "three-real-1e-4"])
def test_repeated_zeros_give_one_class_each(factors, want):
    coeffs = product(*factors)
    got, zeros = summary(coeffs)
    assert got == want
    assert sum(z.multiplicity for z in zeros) == len(coeffs) - 1
    for z in zeros:
        # Every representative is a zero; (t-i)(t-j) has j, (t-i)^2 has i.
        assert evaluate(ScalarQPolynomial(coeffs), z.point).modulus() <= 1e-12


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
    assert len(zeros) == len(want)
    for wre, wim, wm in want:
        # Classes with equal real parts come in no fixed order: match by distance.
        [z] = [z for z in zeros if abs(complex(z.eigenvalue_class.re - wre, z.eigenvalue_class.im - wim))
               <= 1e-10 * max(1.0, abs(complex(wre, wim)))]
        assert z.multiplicity == wm


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
        mp = as_matrix_polynomial(p)
        eigen = sorted((e.re, e.im) for e in polyeig(mp))
        for (re, im), (ere, eim) in zip(classes, eigen, strict=True):
            assert abs(complex(re - ere, im - eim)) <= 1e-8 * max(1.0, abs(complex(ere, eim)))
        # The oracle confirms every isolated zero and two points of every
        # sphere, where the realified terms cancel to rounding noise.
        for z in zeros:
            points = [z.point, class_point(z.eigenvalue_class, J + K)] if z.spherical else [z.point]
            assert all(is_eigenvalue_oracle(mp, point) is True for point in points)
        assert any(z.spherical for z in zeros) == sphere


def test_groups_that_do_not_stand_fall_back_to_the_fixed_radius():
    # Each pair of neighbours is a 1e-11 perturbation of a double root, the
    # three together are not.  Roots 0 and 1 both take the pair {0, 1}, which
    # stands; root 2 takes {1, 2}, which does not, and, farther than the fixed
    # radius from any other root, stays alone.
    from quatpoly.linalg import _nearest, _root_groups

    roots = np.array([0.0, 3e-6, 6.1e-6 + 1e-7j])
    scales = np.maximum(1.0, np.abs(roots))
    means, sizes, folded = _root_groups(roots, scales, *_nearest(roots, scales))
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


def _sampler_stack(rng):
    """An (S, 6, 4) stack of scalar polynomials of degrees 0 to 5 in a
    shuffled order, as the numerical-range sampler forms them: planted
    repeated, close, real and spherical zeros, generic rows, a row that
    trims to a lower degree, vanishing rows, and copies scaled by 2^600 and
    2^-600.  Returns the stack, the vanishing rows and the (plain, scaled)
    row pairs."""
    zeta, x = random_quaternion(rng), rng.uniform(-2.0, 2.0)

    def lead(*factors):
        return product([random_quaternion(rng)], *factors)

    polys = [
        lead(linear(Quaternion(x)), linear(Quaternion(x))),
        lead(linear(zeta), linear(zeta)),
        lead(quadratic(0.4, 1.3), quadratic(0.4, 1.3)),
        lead(*[linear(Quaternion(r)) for r in (-1.5, 0.2, 0.7, 2.5)]),
        lead(*[linear(Quaternion(0.3 + 1e-5 * k)) for k in range(3)]),
        lead(*[linear(zeta + Quaternion(0.0, 1e-6 * k)) for k in range(3)]),
        lead(quadratic(-0.5, 0.8)),
        lead(quadratic(0.0, 1.0), linear(J)),
        lead(quadratic(x, 0.6), linear(zeta)),
        lead(quadratic(0.3, 1.0), quadratic(-1.0, 0.5), linear(Quaternion(x))),
        [random_quaternion(rng)],
        *[[random_quaternion(rng) for _ in range(d + 1)] for d in range(1, 6)],
    ]
    rows = [np.array([c.as_array() for c in p] + [[0.0] * 4] * (6 - len(p))) for p in polys]
    trimmed = np.array([c.as_array() for c in lead(linear(zeta), quadratic(0.1, 0.9))] + [[0.0] * 4] * 2)
    trimmed[5] = 1e-14 * np.abs(trimmed).max()  # below DEGREE_TRIM_REL times the largest
    scaled = [0, 2, 4, 7, 9]
    rows += [trimmed, np.zeros((6, 4)), np.full((6, 4), 1e-300)]
    rows += [np.ldexp(rows[i], 600) for i in scaled] + [np.ldexp(rows[i], -600) for i in scaled]
    order = rng.permutation(len(rows))
    where = np.argsort(order)
    pairs = [(where[i], where[len(polys) + 3 + k]) for k, i in enumerate(scaled + scaled)]
    vanishing = {where[len(polys) + 1], where[len(polys) + 2]}
    return np.array(rows)[order], vanishing, pairs


def _one_at_a_time(cs):
    """(class, point, spherical, share, residual) of every zero of one
    (6, 4) row after the sampler's trim, from scalar_zeros alone."""
    moduli = [math.hypot(*c) for c in cs]
    degree = max(i for i, m in enumerate(moduli) if m > DEGREE_TRIM_REL * max(moduli))
    zeros = scalar_zeros(ScalarQPolynomial([Quaternion(*c) for c in cs[:degree + 1]]))
    return [(z.eigenvalue_class, z.point.as_array(), z.spherical, z.multiplicity, z.residual)
            for z in zeros]


def _sampled_points(zeros):
    """The sampler's (point, spherical) entries for ``_one_at_a_time`` zeros:
    a sphere once per two units of its share, any other unit once unflagged."""
    points = []
    for _, point, sphere, share, _ in zeros:
        spheres = share // 2 if sphere else 0
        points += [(point, True)] * spheres + [(point, False)] * (share - 2 * spheres)
    return points


def test_stacked_zeros_match_one_at_a_time(monkeypatch):
    # One numerical-range call over the whole stack: every stacked zero call
    # must give each row exactly what scalar_zeros gives it alone.
    stack, vanishing, pairs = _sampler_stack(np.random.default_rng(8300))
    calls = []

    def recording(a, zeros=stability.stacked_zeros):
        calls.append((a, zeros(a)))
        return calls[-1][1]

    monkeypatch.setattr(stability, "stacked_zeros", recording)
    monkeypatch.setattr(stability, "_qinner", lambda ys, actions: stack)
    # A floor far below every row but the vanishing ones.
    monkeypatch.setattr(stability, "_scaled_actions", lambda p, ys: (None, 2.0 ** -900))
    result = sample_numerical_range(MatrixPolynomial([QuaternionMatrix.from_rows([[ONE]])] * 6),
                                    len(stack), seed=0)
    assert result.skipped == len(vanishing)
    assert sorted(len(a[0]) - 1 for a, _ in calls) == [1, 2, 3, 4, 5]
    want = {i: _one_at_a_time(cs) for i, cs in enumerate(stack) if i not in vanishing}
    seen = dict.fromkeys(want, [])  # a nonzero constant has no zeros
    for a, (rows, classes, points, spherical, shares, residuals) in calls:
        # Every row's shares sum to its degree.
        assert np.bincount(rows, weights=shares, minlength=len(a)).tolist() == [len(a[0]) - 1] * len(a)
        got = [(StandardEigenvalue(*c), q, f, k, r) for c, q, f, k, r in zip(
            classes.tolist(), points.tolist(), spherical.tolist(), shares.tolist(), residuals.tolist())]
        for row, cs in enumerate(a):
            [index] = np.flatnonzero((stack[:, :len(cs)] == cs).all(axis=(1, 2))).tolist()
            seen[index] = [g for g, r in zip(got, rows) if r == row]
    assert seen == want
    for plain, scaled in pairs:
        assert want[scaled] == want[plain]
    assert any(f for zeros in want.values() for _, _, f, _, _ in zeros)
    assert max(k for zeros in want.values() for _, _, _, k, _ in zeros) >= 4
    points = [point for i in sorted(want) for point in _sampled_points(want[i])]
    assert list(zip(result.points.tolist(), result.spherical.tolist())) == points


def test_sampler_skips_and_counts_rows_it_cannot_classify(monkeypatch):
    # Three real zeros 1e-5 apart behind a random quaternion leading
    # coefficient: rounding moves them by about their gap, and some such rows
    # come out not conjugate-closed.  The sampler skips and counts each of
    # them, also when every row of a degree fails, and reads every other row
    # as scalar_zeros reads it alone.
    rng = np.random.default_rng(2)
    close = [product([random_quaternion(rng)], *[linear(Quaternion(x + 1e-5 * k)) for k in range(3)])
             for x in rng.uniform(-2.0, 2.0, 12)]
    polys = close + [product([random_quaternion(rng)], linear(random_quaternion(rng)))]
    stack = np.array([[c.as_array() for c in p] + [[0.0] * 4] * (4 - len(p)) for p in polys])
    failing = []
    for i, cs in enumerate(stack):
        try:
            _one_at_a_time(cs)
        except PairingFailureError:
            failing.append(i)
    assert 0 < len(failing) < len(close)
    for rows in (range(len(stack)), failing + [len(close)]):
        monkeypatch.setattr(stability, "_qinner", lambda ys, actions: stack[list(rows)])
        monkeypatch.setattr(stability, "_scaled_actions", lambda p, ys: (None, 2.0 ** -900))
        result = sample_numerical_range(MatrixPolynomial([QuaternionMatrix.from_rows([[ONE]])] * 4),
                                        len(rows), seed=0)
        assert result.skipped == len(failing)
        points = [point for i in rows if i not in failing for point in _sampled_points(_one_at_a_time(stack[i]))]
        assert list(zip(result.points.tolist(), result.spherical.tolist())) == points


def _stacks(rng, d, count=24):
    """Seeded (count, d+1, 4) stacks of degree d: generic quaternion rows,
    real rows (real zeros and spheres), planted (t - a)^2 and (t^2 + bt + c)^2
    behind random factors, and generic rows spread by 2^(+-27) per coefficient."""
    generic = rng.standard_normal((count, d + 1, 4))
    real = rng.standard_normal((count, d + 1, 1)) * (1.0, 0.0, 0.0, 0.0)
    planted = []
    for i in range(count if d >= 2 else 0):
        a = random_quaternion(rng) if rng.random() < 0.5 else Quaternion(rng.standard_normal())
        b, c = rng.uniform(-2.0, 2.0), rng.uniform(1.5, 3.0)
        line, sphere = [linear(a)] * 2, [quadratic(-0.5 * b, math.sqrt(c - 0.25 * b * b))] * 2
        # Alternate (t - a)^2 and (t^2 + bt + c)^2, both where the degree has room.
        factors = [[random_quaternion(rng)]] + (line if d < 4 or i % 2 else sphere) + (line if d >= 6 else [])
        factors += [linear(random_quaternion(rng)) for _ in range(d + 1 - len(product(*factors)))]
        planted.append([q.as_array() for q in product(*factors)])
    spread = rng.standard_normal((count, d + 1, 4)) * 2.0 ** rng.integers(-27, 28, (count, d + 1, 1))
    return {"generic": generic, "real": real, "planted": np.array(planted).reshape(-1, d + 1, 4),
            "spread": spread}


def _outcome(finder, a):
    """The bits of every array ``finder`` returns on a, or its refusal's
    message and rows; and whether it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = [(z.dtype, z.shape, z.tobytes()) for z in finder(a)]
        except PairingFailureError as exc:
            got = str(exc), exc.rows.tolist()
    return got, bool(caught)


def _same_outcome(a):
    """The all-slot outcome on a, which the class-slot finder must match bit
    for bit, warning only where the all-slot one warns (the spread rows
    overflow Horner's rule in both)."""
    (got, warned), (want, was_warned) = _outcome(stacked_zeros, a), _outcome(_reference.stacked_zeros, a)
    assert got == want and (was_warned or not warned)
    return want


@pytest.mark.parametrize("d", range(1, 9))
def test_class_slot_zero_finder_keeps_every_bit_of_the_all_slot_one(d):
    # The products that numpy rounds by operand shape stay on the full
    # layout, so degrees 5 and up see the same kernels as degrees 1-4.
    for kind, stack in _stacks(np.random.default_rng(3000 + d), d).items():
        refused = [i for i, row in enumerate(stack) if isinstance(_same_outcome(row[None]), tuple)]
        assert len(refused) <= len(stack) // 4, kind
        assert isinstance(_same_outcome(stack), tuple) == bool(refused), kind
        assert isinstance(_same_outcome(np.delete(stack, refused, axis=0)), list), kind


def test_class_slot_zero_finder_refuses_the_rows_the_all_slot_one_refuses():
    # Three real zeros 1e-5 apart behind a random quaternion leading
    # coefficient: some rows come out not conjugate-closed.
    rng = np.random.default_rng(2)
    stack = np.array([[q.as_array() for q in product(
        [random_quaternion(rng)], *[linear(Quaternion(x + 1e-5 * k)) for k in range(3)])]
        for x in rng.uniform(-2.0, 2.0, 12)])
    message, rows = _same_outcome(stack)
    assert 0 < len(rows) < len(stack)
