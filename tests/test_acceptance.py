"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is pinned, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from quatpoly import (
    HyperStatus,
    MatrixPolynomial,
    MultiPolynomial,
    Quaternion,
    QuaternionMatrix,
    Region,
    ScalarQPolynomial,
    SingularLeadingCoefficientError,
    SingularMatrixError,
    StabilityStatus,
    StandardEigenvalue,
    check_hyperstability,
    check_stability,
    check_stability_multi,
    companion,
    complex_adjoint,
    derive_hyperstability_cubic,
    derive_hyperstability_quadratic,
    eig_complex,
    eigenvalue_annulus,
    inverse,
    is_eigenvalue_oracle,
    not_hyperstable_search,
    polyeig,
    reversal,
    sample_numerical_range,
    scalar_char_poly,
    scalar_zeros,
    spectral_norm,
    vec_entries,
)
from _helpers import (
    random_invertible_qmatrix,
    random_polynomial,
    random_qmatrix,
    random_quaternion,
    random_unit_qvec,
    right_eigenvalues,
)
from _reference import (as_matrix_polynomial, class_distance, evaluate, monic, quaternion_ball_grid,
                        standardize)

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K
GOLDEN_LO = (-1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_HI = (1.0 + math.sqrt(5.0)) / 2.0


def golden_poly():
    eye = QuaternionMatrix.identity(2)
    return MatrixPolynomial([eye, QuaternionMatrix.diagonal([I, J]), eye])


def projection_poly():
    return MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-1), Quaternion(0)]),
                             QuaternionMatrix.identity(2)])


def no_eigenvalue_poly():
    return MatrixPolynomial([
        QuaternionMatrix.identity(2),
        QuaternionMatrix.from_rows([[Quaternion(0), ONE], [ONE, Quaternion(0)]]),
        QuaternionMatrix.diagonal([Quaternion(0), ONE]),
    ])


def j_shift_poly():
    return MatrixPolynomial([QuaternionMatrix.diagonal([J, J]),
                             QuaternionMatrix.identity(2)])


def test_criterion_1_golden_ratio_annulus():
    started = time.perf_counter()
    p = golden_poly()
    r, big_r = eigenvalue_annulus(p)
    assert abs(r - 0.6180339887) <= 1e-9
    assert abs(big_r - 1.6180339887) <= 1e-9
    moduli = sorted(e.modulus() for e in polyeig(p))
    assert abs(moduli[0] - r) <= 1e-8
    assert abs(moduli[-1] - big_r) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: golden-ratio annulus r={r:.10f} R={big_r:.10f} "
          f"({elapsed:.3f}s)")


def test_criterion_2_projection_polynomial():
    p = projection_poly()
    evs = polyeig(p)
    assert len(evs) == 2
    assert abs(evs[0].re - 0.0) <= 1e-10 and abs(evs[0].im) <= 1e-10
    assert abs(evs[1].re - 1.0) <= 1e-10 and abs(evs[1].im) <= 1e-10

    probes = Region.finite_set([Quaternion(0.5), Quaternion(2), I, J,
                                Quaternion(1, 0, 0, 1)])
    verdict = check_hyperstability(p, probes)
    assert verdict.status is HyperStatus.HYPERSTABLE
    assert verdict.certificate == "triangular-equivalence"

    sampled = sample_numerical_range(p, 500, seed=42)
    assert sampled.skipped == 0
    for point in map(Quaternion, *sampled.points.T.tolist()):
        assert point.vec_norm() <= 1e-9
        assert -1e-9 <= point.w <= 1.0 + 1e-9
    print("\nACCEPTANCE 2 PASS: projection polynomial (eigenvalues {0,1}, "
          "triangular-equivalence hyperstability, numerical range in [0,1])")


def test_criterion_3_no_eigenvalue_polynomial():
    started = time.perf_counter()
    p = no_eigenvalue_poly()

    grid = quaternion_ball_grid(Quaternion(0), 2.0, 1000)
    assert len(grid) == 1000
    assert all(q.modulus() <= 2.0 for q in grid)
    assert all(is_eigenvalue_oracle(p, q) is False for q in grid)

    with pytest.raises(SingularLeadingCoefficientError):
        companion(p)

    region = Region.closed_ball(Quaternion(0), 1.0)
    hit = not_hyperstable_search(p, region)
    assert hit is not None
    assert hit.certificate == "quadratic-product-certificate"

    verdict = check_hyperstability(p, region)
    assert verdict.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: eigenvalue-free quadratic (1000-point oracle "
          f"sweep, singular leading coefficient, product-of-roots witness) "
          f"({elapsed:.3f}s)")


def test_criterion_4_j_shift_ball_geometry():
    p = j_shift_poly()
    evs = polyeig(p)
    assert len(evs) == 2
    for e in evs:
        assert abs(e.re) <= 1e-9
        assert abs(e.im - 1.0) <= 1e-9

    ball = Region.open_ball(J, 1.0)
    verdict = check_stability(p, ball)
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert class_distance(StandardEigenvalue(0.0, 1.0), J) == 0.0
    assert (verdict.witness - J).modulus() < 1.0

    # The complex slice of the ball is empty: |z - j|^2 = |z|^2 + 1 >= 1 for
    # every complex z.
    for re in np.linspace(-2, 2, 41):
        for im in np.linspace(-2, 2, 41):
            assert not ball.contains(Quaternion(re, im, 0, 0))

    # 100 deterministic probes inside the quaternion ball: all at distance
    # at least sqrt(2) - 1 from both i and -i, and none is an eigenvalue.
    probes = quaternion_ball_grid(J, 1.0, 100)
    floor = math.sqrt(2.0) - 1.0
    for z in probes:
        assert (z - I).modulus() >= floor - 1e-12
        assert (z + I).modulus() >= floor - 1e-12
    slice_verdict = check_stability(p, Region.finite_set(probes))
    assert slice_verdict.status is StabilityStatus.STABLE
    print("\nACCEPTANCE 4 PASS: j-shift polynomial (standard set {i,i}, "
          "unstable on the quaternion ball, stable on the 100-point probe)")


def test_criterion_5_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)

    # chi homomorphism.
    for _ in range(50):
        a = random_qmatrix(rng, 3)
        b = random_qmatrix(rng, 3)
        gap = np.max(np.abs(complex_adjoint(a @ b)
                            - complex_adjoint(a) @ complex_adjoint(b)))
        assert gap <= 1e-10 * max(1.0, a.frobenius_norm() * b.frobenius_norm())

    # Spectral norm consistency: the norm matches the lift and bounds the
    # action on random vectors.
    for _ in range(50):
        a = random_qmatrix(rng, 2)
        norm = spectral_norm(a)
        lift = complex_adjoint(a)
        embedded = QuaternionMatrix(lift, np.zeros_like(lift))
        assert abs(spectral_norm(embedded) - norm) <= 1e-9 * max(1.0, norm)
        for _ in range(3):
            x = random_unit_qvec(rng, 2)
            assert (a @ x).frobenius_norm() <= norm * (1.0 + 1e-10)

    # Zero eigenvalue iff singular constant coefficient.
    for trial in range(50):
        coeffs = [random_qmatrix(rng, 2) for _ in range(2)]
        coeffs.append(random_invertible_qmatrix(rng, 2))
        if trial % 2 == 0:
            coeffs[0].a1[:, 0] = 0.0
            coeffs[0].a2[:, 0] = 0.0
        p = MatrixPolynomial(coeffs)
        try:
            inverse(p.coeffs[0])
            singular = False
        except SingularMatrixError:
            singular = True
        assert singular == any(e.modulus() <= 1e-8 for e in polyeig(p))

    # Reversal swaps moduli with reciprocals.
    for _ in range(50):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        direct = sorted(e.modulus() for e in polyeig(p))
        flipped = sorted(1.0 / e.modulus() for e in polyeig(reversal(p)))
        for x, y in zip(direct, flipped):
            assert abs(x - y) <= 1e-7 * max(1.0, abs(y))

    # Conjugate-center symmetry of complex ball emptiness.
    for _ in range(50):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        lifted = list(eig_complex(complex_adjoint(companion(p))))
        a = complex(rng.standard_normal(), rng.standard_normal())
        radius = 0.5 + abs(rng.standard_normal())
        empty = all(abs(z - a) >= radius for z in lifted)
        empty_conj = all(abs(z - a.conjugate()) >= radius for z in lifted)
        assert empty == empty_conj

    # Oracle equivalence.
    for trial in range(50):
        n = 1 + trial % 3
        m = 1 + (trial // 3) % 3
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

    # Annulus soundness.
    for _ in range(50):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        r, big_r = eigenvalue_annulus(p)
        for e in polyeig(p):
            assert r - 1e-9 <= e.modulus() <= big_r + 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: property suite (7 invariants x 50 seeded "
          f"trials) ({elapsed:.3f}s)")


def test_criterion_6_scalar_characteristic_lemma():
    rng = np.random.default_rng(60)
    for trial in range(50):
        m = 1 + trial % 4
        coeffs = [random_quaternion(rng) for _ in range(m)] + [ONE]
        p = ScalarQPolynomial(coeffs)

        char = scalar_char_poly(p)
        roots = np.roots(list(reversed(char)))
        char_classes = sorted((z.real, abs(z.imag)) for z in roots
                              if z.imag >= -1e-9)
        comp_classes = sorted((e.re, e.im) for e in
                              right_eigenvalues(companion(as_matrix_polynomial(p))))
        assert len(char_classes) == len(comp_classes)
        for a, b in zip(char_classes, comp_classes):
            assert abs(a[0] - b[0]) <= 1e-7 * max(1.0, abs(b[0]))
            assert abs(a[1] - b[1]) <= 1e-7 * max(1.0, abs(b[1]))

        for zero in scalar_zeros(p):
            if zero.spherical:
                continue
            value = evaluate(monic(p), zero.point).modulus()
            bound = 1e-8 * sum(c.modulus() * max(1.0, zero.point.modulus()) ** i
                               for i, c in enumerate(monic(p).coeffs))
            assert value <= bound
    print("\nACCEPTANCE 6 PASS: scalar characteristic lemma (50 random monic "
          "polynomials, roots vs companion, residual-checked zeros)")


def test_criterion_7_multivariate_fixtures():
    started = time.perf_counter()
    eye = QuaternionMatrix.identity(2)
    proj = QuaternionMatrix.diagonal([ONE, Quaternion(0)])

    mixed = MultiPolynomial.build(2, [((1, 2), eye), ((2, 1), proj),
                                      ((1,), eye), ((), eye)])
    omega = Region.finite_set([Quaternion(-0.5), Quaternion(0.5)])
    verdict = check_stability_multi(mixed, omega)
    assert verdict.status is StabilityStatus.NOT_STABLE
    mu1, mu2 = verdict.witness_tuple
    assert mu1.approx_eq(Quaternion(-0.5), 0.0)
    assert mu2.approx_eq(Quaternion(0.5), 0.0)
    entries = vec_entries(verdict.witness_vector)
    assert entries[0].modulus() == pytest.approx(1.0, abs=1e-12)
    assert entries[1].modulus() <= 1e-12

    probe4 = Region.finite_set([Quaternion(0.5), Quaternion(-2), I, K])
    derived = derive_hyperstability_quadratic(eye, eye, QuaternionMatrix.zeros(2, 2),
                                              probe4, "ii")
    assert derived.status is HyperStatus.HYPERSTABLE

    cubic = derive_hyperstability_cubic(eye, eye, eye, eye,
                                        Region.finite_set([Quaternion(-1)]))
    assert cubic.status is HyperStatus.UNKNOWN

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 7 PASS: multivariate fixtures (mixed-word witness, "
          f"quadratic form-ii derivation, cubic one-directionality) "
          f"({elapsed:.3f}s)")
