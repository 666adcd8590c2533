import math

import numpy as np
import pytest

from quatpoly import (
    DimensionMismatchError,
    MatrixPolynomial,
    NotMonicError,
    PairingFailureError,
    Quaternion,
    QuaternionMatrix,
    ResidualFailureError,
    ScalarQPolynomial,
    SingularLeadingCoefficientError,
    SingularMatrixError,
    ZeroLeadingError,
    companion,
    complex_adjoint,
    eig_complex,
    evaluate_action,
    inverse,
    is_eigenvalue_oracle,
    polyeig,
    polyeig_with_residuals,
    qvec,
    real_rep_left,
    real_rep_right_scalar,
    reversal,
    scalar_char_poly,
    scalar_zeros,
    spectral_norm,
    vec_entries,
)
from quatpoly import linalg, matpoly
from quatpoly.eigensolver import singular_values
from quatpoly.quaternion import StandardEigenvalue
from quatpoly.tolerances import POLYEIG_RESIDUAL_REL
import _reference
from _reference import (as_matrix_polynomial, class_distance, class_point, evaluate, monic, similar,
                        standardize)
from _helpers import (
    linear,
    product,
    quadratic,
    random_invertible_qmatrix,
    random_polynomial,
    random_qmatrix,
    random_quaternion,
    right_eigenvalues,
    spread_polynomial,
)

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K
GOLDEN_LO = (-1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_HI = (1.0 + math.sqrt(5.0)) / 2.0


def example_projection_poly():
    """I t - diag(1, 0): eigenvalues 0 and 1, numerical range [0, 1]."""
    return MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-1), Quaternion(0)]),
                             QuaternionMatrix.identity(2)])


def example_no_eigenvalue_poly():
    """[[1, t], [t, t^2 + 1]]: no quaternion is an eigenvalue."""
    a0 = QuaternionMatrix.identity(2)
    a1 = QuaternionMatrix.from_rows([[Quaternion(0), Quaternion(1)],
                                     [Quaternion(1), Quaternion(0)]])
    a2 = QuaternionMatrix.diagonal([Quaternion(0), Quaternion(1)])
    return MatrixPolynomial([a0, a1, a2])


def example_j_shift_poly():
    """I t + j I: every unit pure imaginary is an eigenvalue."""
    return MatrixPolynomial([QuaternionMatrix.diagonal([J, J]),
                             QuaternionMatrix.identity(2)])


def example_golden_poly():
    """I t^2 + diag(i, j) t + I: eigenvalue moduli hit both annulus radii."""
    eye = QuaternionMatrix.identity(2)
    return MatrixPolynomial([eye, QuaternionMatrix.diagonal([I, J]), eye])


def test_evaluate_action_examples():
    p = example_projection_poly()
    out = evaluate_action(p, [ONE, Quaternion(0)], ONE)
    assert out.max_entry_modulus() <= 1e-15

    rng = np.random.default_rng(30)
    q = random_polynomial(rng, 2, 2)
    y = qvec([random_quaternion(rng), random_quaternion(rng)])
    at_zero = evaluate_action(q, y, Quaternion(0))
    assert (at_zero - q.coeffs[0] @ y).max_entry_modulus() <= 1e-14

    p3 = example_j_shift_poly()
    out = evaluate_action(p3, [ONE, Quaternion(0)], I)
    assert vec_entries(out)[0].approx_eq(I + J, 1e-15)
    assert vec_entries(out)[1].approx_eq(Quaternion(0), 1e-15)


def test_evaluate_action_dimension_mismatch():
    p = example_projection_poly()
    with pytest.raises(DimensionMismatchError):
        evaluate_action(p, [ONE], ONE)


def test_companion_scalar_linear():
    # t - k normalizes to itself; companion is the 1x1 matrix [k].
    p = as_matrix_polynomial(ScalarQPolynomial([-K, ONE]))
    c = companion(p)
    assert c.shape == (1, 1)
    assert c.entry(0, 0).approx_eq(K, 1e-15)


def test_companion_golden_blocks():
    c = companion(example_golden_poly())
    assert c.shape == (4, 4)
    eye = np.eye(2)
    np.testing.assert_allclose(c.a1[:2, 2:], eye, atol=0)
    np.testing.assert_allclose(c.a1[:2, :2], np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(c.a1[2:, :2], -eye, atol=1e-15)
    minus_a1 = complex_adjoint(QuaternionMatrix.diagonal([I, J]) * -1.0)
    np.testing.assert_allclose(complex_adjoint(
        QuaternionMatrix(c.a1[2:, 2:], c.a2[2:, 2:])), minus_a1, atol=1e-15)


def test_companion_rejects_singular_leading():
    with pytest.raises(SingularLeadingCoefficientError):
        companion(example_no_eigenvalue_poly())


def test_polyeig_projection():
    evs = polyeig(example_projection_poly())
    assert [(round(e.re, 10), round(e.im, 10)) for e in evs] == [(0.0, 0.0), (1.0, 0.0)]


def test_polyeig_j_shift():
    evs = polyeig(example_j_shift_poly())
    assert len(evs) == 2
    for e in evs:
        assert abs(e.re) <= 1e-12
        assert e.im == pytest.approx(1.0, abs=1e-12)
        assert e.modulus() == pytest.approx(1.0, abs=1e-12)


def test_polyeig_golden_moduli():
    evs = polyeig(example_golden_poly())
    moduli = sorted(e.modulus() for e in evs)
    assert len(moduli) == 4
    assert moduli[0] == pytest.approx(GOLDEN_LO, abs=1e-10)
    assert moduli[-1] == pytest.approx(GOLDEN_HI, abs=1e-10)


def test_reversal_basics():
    p = example_golden_poly()
    r = reversal(p)
    assert all((a - b).max_entry_modulus() == 0.0
               for a, b in zip(r.coeffs, reversed(p.coeffs)))
    rr = reversal(r)
    assert all((a - b).max_entry_modulus() == 0.0
               for a, b in zip(rr.coeffs, p.coeffs))
    with pytest.raises(ZeroLeadingError):
        reversal(MatrixPolynomial([QuaternionMatrix.zeros(2, 2),
                                   QuaternionMatrix.identity(2)]))


def test_reversal_reciprocal_moduli():
    rng = np.random.default_rng(32)
    for _ in range(10):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        direct = sorted(e.modulus() for e in polyeig(p))
        flipped = sorted(1.0 / e.modulus() for e in polyeig(reversal(p)))
        for a, b in zip(direct, flipped):
            assert a == pytest.approx(b, rel=1e-7)
    golden = sorted(e.modulus() for e in polyeig(example_golden_poly()))
    golden_rev = sorted(1.0 / e.modulus() for e in polyeig(reversal(example_golden_poly())))
    for a, b in zip(golden, golden_rev):
        assert a == pytest.approx(b, rel=1e-10)


def test_zero_eigenvalue_iff_singular_constant():
    rng = np.random.default_rng(33)
    for trial in range(50):
        p = random_polynomial(rng, 2, 1 + trial % 3, invertible_ends=False)
        coeffs = list(p.coeffs)
        coeffs[-1] = random_invertible_qmatrix(rng, 2)
        if trial % 2 == 0:
            a0 = random_qmatrix(rng, 2)
            a0.a1[:, 0] = 0.0
            a0.a2[:, 0] = 0.0
            coeffs[0] = a0
        p = MatrixPolynomial(coeffs)
        try:
            inverse(p.coeffs[0])
            constant_singular = False
        except SingularMatrixError:
            constant_singular = True
        has_zero = any(e.modulus() <= 1e-8 for e in polyeig(p))
        assert has_zero == constant_singular
    # A0 = 0 and a dense singular A1: n exact zeros and one from A1, carrying
    # its rounding, are all read at the scale of the coefficients.
    for trial in range(12):
        n = 2 + trial % 3
        a1 = random_qmatrix(rng, n) @ QuaternionMatrix.diagonal([0.0] + [1.0] * (n - 1)) @ random_qmatrix(rng, n)
        p = MatrixPolynomial([QuaternionMatrix.zeros(n, n), a1, random_invertible_qmatrix(rng, n)])
        assert sum(e.modulus() <= 1e-8 for e in polyeig(p)) == n + 1


def test_lift_transfer_consistency():
    rng = np.random.default_rng(34)
    for _ in range(10):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        lifted_vals = eig_complex(complex_adjoint(companion(p)))
        expected = []
        for e in polyeig(p):
            expected.append(complex(e.re, e.im))
            expected.append(complex(e.re, -e.im))
        remaining = list(lifted_vals)
        for b in expected:
            idx = min(range(len(remaining)), key=lambda t: abs(remaining[t] - b))
            assert abs(remaining[idx] - b) <= 1e-7 * max(1.0, abs(b))
            remaining.pop(idx)
        assert not remaining


def test_oracle_on_named_examples():
    assert is_eigenvalue_oracle(example_projection_poly(), ONE) is True
    assert is_eigenvalue_oracle(example_j_shift_poly(), J) is True
    p = example_no_eigenvalue_poly()
    rng = np.random.default_rng(35)
    for _ in range(50):
        mu = random_quaternion(rng)
        if mu.modulus() > 2.0:
            mu = mu / mu.modulus() * 2.0 * rng.uniform(0.1, 1.0)
        assert is_eigenvalue_oracle(p, mu) is False


def test_oracle_equivalence_with_polyeig():
    rng = np.random.default_rng(36)
    for trial in range(15):
        n = 1 + trial % 3
        m = 1 + trial % 3
        p = random_polynomial(rng, n, m, invertible_ends=True)
        evs = polyeig(p)
        for e in evs:
            assert is_eigenvalue_oracle(p, e.lift()) is True
        rejected = 0
        while rejected < 20:
            q = random_quaternion(rng, scale=2.0)
            cls = standardize(q)
            if min(math.hypot(cls.re - e.re, cls.im - e.im) for e in evs) < 0.05:
                continue
            assert is_eigenvalue_oracle(p, q) is False
            rejected += 1


@pytest.mark.parametrize("real", [False, True], ids=["quaternion", "real"])
def test_oracle_confirms_two_points_of_every_class(real):
    # Real coefficients make many classes spheres at whose points the
    # realified terms cancel to rounding noise; the rank test is scaled by
    # the terms, so the oracle still confirms them, and no point 1e-4 away
    # from every class reads singular.
    rng = np.random.default_rng(4300 + real)
    for trial in range(60):
        n, m = 1 + trial % 3, 1 + (trial // 3) % 3
        if real:
            p = MatrixPolynomial([QuaternionMatrix.from_rows(
                [[Quaternion(v) for v in row] for row in rng.standard_normal((n, n))])
                for _ in range(m + 1)])
        else:
            p = random_polynomial(rng, n, m)
        evs = polyeig(p)
        for e in evs:
            assert is_eigenvalue_oracle(p, e.lift()) is True
            assert is_eigenvalue_oracle(p, class_point(e, Quaternion(0.0, 0.0, 1.0, 1.0))) is True
        q = random_quaternion(rng, scale=2.0)
        if all(class_distance(e, q) >= 1e-4 * max(1.0, e.modulus()) for e in evs):
            assert is_eigenvalue_oracle(p, q) is not True


def test_polyeig_on_badly_scaled_coefficients():
    # Coefficient norms spanning twelve orders of magnitude: the companion
    # form is terribly scaled, far worse than the polynomial itself.
    rng = np.random.default_rng(77)
    a0 = random_qmatrix(rng, 2)
    a0.a1 *= 1e6
    a0.a2 *= 1e6
    a1 = random_qmatrix(rng, 2)
    a2 = random_qmatrix(rng, 2)
    a2.a1 *= 1e-6
    a2.a2 *= 1e-6
    p = MatrixPolynomial([a0, a1, a2])
    evs = polyeig(p)
    assert len(evs) == 4
    for e in (evs[0], evs[-1]):
        assert is_eigenvalue_oracle(p, e.lift()) is True


def _realified_backward_error(p, ev):
    """sigma_min of the realified y -> sum_i A_i y mu^i over sum_i ||A_i|| |mu|^i."""
    mu = ev.lift()
    op = np.zeros((4 * p.size, 4 * p.size))
    power = ONE
    scale = 0.0
    for a in p.coeffs:
        op += real_rep_left(a) @ real_rep_right_scalar(power, p.size)
        scale += spectral_norm(a) * power.modulus()
        power = power * mu
    return np.linalg.svd(op, compute_uv=False)[-1] / scale


@pytest.mark.parametrize("seed", [1136, 541])
def test_no_residual_beats_the_backward_error(seed):
    # Coefficient norms 10^U(-6, 6): every residual passes, and none beats
    # the backward error that the realified operator gives.
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    p = spread_polynomial(rng, n, m, 6)
    pairs = polyeig_with_residuals(p)
    assert len(pairs) == m * n
    etas = [_realified_backward_error(p, ev) for ev, _ in pairs]
    for (_, r), eta in zip(pairs, etas):
        assert eta <= POLYEIG_RESIDUAL_REL
        # No vector beats the backward error, up to rounding.
        assert eta <= r * (1.0 + 1e-6) + 1e-15


def _fallback_sizes(monkeypatch):
    """Stack sizes of the SVDs polyeig_with_residuals takes: the coefficient
    lifts' (``MatrixPolynomial.lift_sigma``, in linalg), then the fallback ones."""
    sizes = []

    def spy(stack, **kwargs):
        sizes.append(len(stack))
        return singular_values(stack, **kwargs)

    for module in (linalg, matpoly):
        monkeypatch.setattr(module, "singular_values", spy)
    return sizes


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_backward_error_only_where_the_solve_fails(monkeypatch):
    # t I - diag(1, B): W(1) is exactly singular and takes the backward error,
    # 0; the two classes of B keep the residuals of their solved vectors.
    b = random_qmatrix(np.random.default_rng(5), 2)
    a = QuaternionMatrix.zeros(3, 3)
    a.a1[0, 0] = 1.0
    a.a1[1:, 1:], a.a2[1:, 1:] = b.a1, b.a2
    p = MatrixPolynomial([-a, QuaternionMatrix.identity(3)])
    sizes = _fallback_sizes(monkeypatch)
    pairs = polyeig_with_residuals(p)
    assert sizes == [2, 1]
    assert pairs[0] == (StandardEigenvalue(1.0, 0.0), 0.0)
    for ev, r in pairs[1:]:
        assert 0.0 < r <= POLYEIG_RESIDUAL_REL
        assert _realified_backward_error(p, ev) <= r * (1.0 + 1e-6) + 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [1136, 541])
def test_backward_error_is_the_fallback(seed, monkeypatch):
    # Coefficient norms 10^U(-6, 6): the vector of the worst class does not
    # pass, and its residual is its backward error.
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    p = spread_polynomial(rng, n, m, 6)
    sizes = _fallback_sizes(monkeypatch)
    pairs = polyeig_with_residuals(p)
    assert len(sizes) == 2 and 1 <= sizes[1] < m * n
    etas = [_realified_backward_error(p, ev) for ev, _ in pairs]
    assert max(r for _, r in pairs) == pytest.approx(max(etas), rel=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_residual_lies_between_the_backward_error_and_the_tolerance():
    # 40 draws, n 1-6, m 1-4, coefficient norms 10^U(-2, 2).
    rng = np.random.default_rng(18)
    for _ in range(40):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        p = spread_polynomial(rng, n, m, 2)
        for ev, r in polyeig_with_residuals(p):
            eta = _realified_backward_error(p, ev)
            assert eta * (1.0 - 1e-6) - 1e-15 <= r <= POLYEIG_RESIDUAL_REL


def test_residual_check_across_coefficient_spreads():
    # 60 draws per spread 10^U(-s, s), n 1-6, m 1-4, one generator for all
    # s: every draw passes up to s = 4.  At s = 6 the bound is the 9 of 60
    # that fail with inverse-iteration refinement in place of the backward
    # error; 2 of them now stop earlier, at a lift spectrum that is not
    # conjugate-closed.
    rng = np.random.default_rng(1)
    failures = {}
    for s in (2, 4, 6):
        failures[s] = 0
        for _ in range(60):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            try:
                polyeig_with_residuals(spread_polynomial(rng, n, m, s))
            except (ResidualFailureError, PairingFailureError):
                failures[s] += 1
    assert failures[2] == failures[4] == 0
    assert failures[6] <= 9


def test_relative_actions_in_place_equal_the_fresh_array_scaling():
    # W(mu) is scaled in place, by ldexp only where a scale is shifted and
    # then by the reciprocal of its scale: the bits are those of the former
    # ldexp and complex-by-real division into fresh arrays.  Draws plant -0
    # and zero entries, zero and real coefficients, mu of 0, +-1 and beyond
    # the unit circle, and coefficient scales 2^(+-300), which shift.
    rng = np.random.default_rng(6100)
    shifted = 0
    for draw in range(600):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        lifts = np.array([complex_adjoint(random_qmatrix(rng, n)) for _ in range(m + 1)])
        kind = draw % 5
        if kind == 1:
            lifts[int(rng.integers(0, m + 1))] = 0.0
        elif kind == 2:
            lifts = lifts.real.astype(complex)
        elif kind == 3:
            lifts *= rng.random(lifts.shape) < 0.5
        elif kind == 4:
            lifts = np.where(rng.random(lifts.shape) < 0.3, -0.0, lifts)
        if draw % 2:
            lifts *= 2.0 ** rng.integers(-300, 301, (m + 1, 1, 1))
        norms = np.linalg.norm(lifts, 2, axis=(1, 2))
        count = int(rng.integers(1, 2 * m * n + 1))
        z = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * 10.0 ** rng.uniform(-4, 4, count)
        z[rng.random(count) < 0.2] = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -3.0])
        want = _reference.relative_actions(z, lifts, norms)
        assert np.array_equal(linalg._relative_actions(z, lifts, norms).view(np.int64), want.view(np.int64))
        # A scale under a quarter of the largest norm is shifted up.
        mod = np.abs(z)[:, None]
        with np.errstate(divide="ignore"):  # 0 ** -i in the branch not taken
            scales = np.where(mod > 1.0, mod ** (np.arange(m + 1) - m), mod ** np.arange(m + 1)) @ norms
        shifted += bool((scales < 0.25 * norms.max()).any())
    assert shifted > 50


def test_oracle_deadband_returns_unknown():
    p = MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-1), Quaternion(-2)]),
                          QuaternionMatrix.identity(2)])
    # 3e-11 away from the eigenvalue 1: realified pivots land in the
    # undecided band relative to the operator scale.
    assert is_eigenvalue_oracle(p, Quaternion(1.0 + 3e-11)) is None


def test_scalar_char_poly_examples():
    p = ScalarQPolynomial([-K, ONE])
    assert scalar_char_poly(p) == pytest.approx([1.0, 0.0, 1.0])
    p = ScalarQPolynomial([Quaternion(-3), ONE])
    assert scalar_char_poly(p) == pytest.approx([9.0, -6.0, 1.0])
    with pytest.raises(NotMonicError):
        scalar_char_poly(ScalarQPolynomial([ONE, Quaternion(2)]))


def test_scalar_char_poly_roots_match_companion():
    rng = np.random.default_rng(37)
    for trial in range(50):
        m = 1 + trial % 4
        coeffs = [random_quaternion(rng) for _ in range(m)] + [ONE]
        p = ScalarQPolynomial(coeffs)
        char = scalar_char_poly(p)
        roots = np.roots(list(reversed(char)))
        char_standards = sorted(
            (round(z.real, 7), round(abs(z.imag), 7))
            for z in roots if z.imag >= -1e-9)
        comp_standards = sorted(
            (round(e.re, 7), round(e.im, 7))
            for e in right_eigenvalues(companion(as_matrix_polynomial(p))))
        assert len(char_standards) == len(comp_standards)
        for a, b in zip(char_standards, comp_standards):
            assert abs(a[0] - b[0]) <= 1e-7 * max(1.0, abs(b[0]))
            assert abs(a[1] - b[1]) <= 1e-7 * max(1.0, abs(b[1]))


def _planted_scalar(rng, kind):
    """A 1 x 1 polynomial with a random leading coefficient and a planted
    double real zero, double sphere or three real zeros 1e-4 apart; and the
    tolerance its classes meet."""
    x = rng.uniform(-2.0, 2.0)
    if kind == "double-real":
        factors, tol = [linear(Quaternion(x))] * 2 + [linear(random_quaternion(rng))], 1e-8
    elif kind == "double-sphere":
        factors, tol = [quadratic(x, rng.uniform(0.3, 1.5))] * 2, 1e-8
    else:
        # Rounding moves each of these zeros by up to about 1e-6.
        factors, tol = [linear(Quaternion(x + 1e-4 * k)) for k in range(3)], 1e-5
    return ScalarQPolynomial(product([random_quaternion(rng)], *factors)), tol


@pytest.mark.parametrize("kind", ["double-real", "double-sphere", "three-close-real"])
def test_polyeig_classes_match_scalar_zeros_with_multiplicity(kind):
    # Two routes to the classes of a 1 x 1 polynomial, through one
    # classifier but two lifts: each zero class, as often as its share of
    # the degree (a sphere twice per quadratic factor), is an eigenvalue.
    rng = np.random.default_rng(["double-real", "double-sphere", "three-close-real"].index(kind))
    for _ in range(20):
        p, tol = _planted_scalar(rng, kind)
        zeros = sorted((z.eigenvalue_class.re, z.eigenvalue_class.im)
                       for z in scalar_zeros(p) for _ in range(z.multiplicity))
        eigen = sorted((e.re, e.im) for e in polyeig(as_matrix_polynomial(p)))
        assert len(zeros) == len(eigen) == p.degree
        for (re, im), (ere, eim) in zip(zeros, eigen):
            assert abs(complex(re - ere, im - eim)) <= tol * max(1.0, abs(complex(ere, eim)))


def test_scalar_zeros_linear():
    zeros = scalar_zeros(ScalarQPolynomial([-K, ONE]))
    assert len(zeros) == 1
    assert not zeros[0].spherical
    assert zeros[0].point.approx_eq(K, 1e-10)


def test_scalar_zeros_spherical():
    zeros = scalar_zeros(ScalarQPolynomial([ONE, Quaternion(0), ONE]))
    assert len(zeros) == 1
    assert zeros[0].spherical
    assert zeros[0].eigenvalue_class.re == pytest.approx(0.0, abs=1e-10)
    assert zeros[0].eigenvalue_class.im == pytest.approx(1.0, abs=1e-10)


def test_scalar_zeros_golden_moduli():
    zeros = scalar_zeros(ScalarQPolynomial([ONE, I, ONE]))
    moduli = sorted(z.point.modulus() for z in zeros)
    assert moduli[0] == pytest.approx(GOLDEN_LO, abs=1e-9)
    assert moduli[1] == pytest.approx(GOLDEN_HI, abs=1e-9)
    for z in zeros:
        assert not z.spherical


def test_scalar_zeros_residuals_and_classes():
    rng = np.random.default_rng(38)
    for trial in range(30):
        m = 1 + trial % 3
        coeffs = [random_quaternion(rng) for _ in range(m + 1)]
        if coeffs[-1].modulus() < 1e-6:
            coeffs[-1] = ONE
        p = ScalarQPolynomial(coeffs)
        scale = sum(c.modulus() for c in monic(p).coeffs)
        for z in scalar_zeros(p):
            assert similar(z.point, z.eigenvalue_class.lift(), tol=1e-6)
            if not z.spherical:
                value = evaluate(monic(p), z.point)
                bound = 1e-8 * sum(
                    c.modulus() * max(1.0, z.point.modulus()) ** i
                    for i, c in enumerate(monic(p).coeffs))
                assert value.modulus() <= bound


def test_scalar_char_poly_real_square():
    # (t - 3)^2 has real coefficients; its characteristic polynomial is the
    # square and both roots sit at 3.
    p = ScalarQPolynomial([Quaternion(-3), ONE])
    char = scalar_char_poly(p)
    roots = sorted(z.real for z in np.roots(list(reversed(char))))
    assert roots == pytest.approx([3.0, 3.0], abs=1e-6)


def test_char_poly_coefficients_always_real():
    # The sums are conjugation-invariant, so only their real parts are
    # formed: one float per coefficient of the degree-2m polynomial.
    assert scalar_char_poly(ScalarQPolynomial([I, ONE])) == pytest.approx([1.0, 0.0, 1.0])
    rng = np.random.default_rng(39)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        coeffs = [random_quaternion(rng, scale=2.0) for _ in range(m)] + [ONE]
        out = scalar_char_poly(ScalarQPolynomial(coeffs))
        assert len(out) == 2 * m + 1
        assert all(isinstance(c, float) for c in out)
