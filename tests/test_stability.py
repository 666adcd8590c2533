import collections
import itertools
import math

import numpy as np
import pytest

from quatpoly import (
    HyperStatus,
    MatrixPolynomial,
    NoSignChangeError,
    Quaternion,
    QuaternionMatrix,
    Region,
    RegionKind,
    ScalarQPolynomial,
    SingularCoefficientError,
    StabilityStatus,
    check_hyperstability,
    check_stability,
    eig_complex,
    eigenvalue_annulus,
    is_eigenvalue_oracle,
    complex_adjoint,
    companion,
    not_hyperstable_search,
    polyeig,
    region_sample_grid,
    reversal,
    sample_numerical_range,
    unique_positive_root,
    vec_entries,
)
from test_matpoly import (
    GOLDEN_HI,
    GOLDEN_LO,
    example_golden_poly,
    example_j_shift_poly,
    example_no_eigenvalue_poly,
    example_projection_poly,
)
from _helpers import random_polynomial, random_quaternion, random_unit_imaginary
import _reference
from _reference import (as_matrix_polynomial, class_distance_extremes, class_point,
                        quaternion_ball_grid, similar)
from quatpoly.eigensolver import singular_values
from quatpoly.stability import _block_slices

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


# -- regions -----------------------------------------------------------------


def test_region_membership():
    ball = Region.open_ball(J, 1.0)
    assert ball.contains(J)
    assert not ball.contains(Quaternion(0))  # |0 - j| = 1 is not < 1
    closed = Region.closed_ball(J, 1.0)
    assert closed.contains(Quaternion(0))
    comp = Region.complement_closed_ball(Quaternion(0), 2.0)
    assert comp.contains(Quaternion(3))
    assert not comp.contains(Quaternion(2))
    ann = Region.annulus(Quaternion(0), 1.0, 2.0)
    assert ann.contains(Quaternion(1.5))
    assert ann.contains(Quaternion(1))
    assert not ann.contains(Quaternion(0.5))
    finite = Region.finite_set([I, J])
    assert finite.contains(I)
    assert not finite.contains(K)


def test_row_membership_equals_a_scalar_reference():
    # Random points and class spheres, the centers, and points on every
    # boundary, where the strict and closed comparisons differ, against
    # math.hypot one row at a time.
    rng = np.random.default_rng(47)
    center = Quaternion(0.5, 0.0, -1.0, 0.0)
    regions = [Region.open_ball(center, 1.0), Region.closed_ball(center, 1.0),
               Region.complement_closed_ball(center, 1.0), Region.annulus(center, 1.0, 2.0),
               Region.finite_set([I, Quaternion(3.0), Quaternion(1e15)])]
    points = [center, I, Quaternion(3.0 + 1e-12), Quaternion(1e15 + 1.0), Quaternion(1e15 + 8.0)]
    points += [center + u * r for u in (ONE, I, J, K, -J) for r in (1.0, 2.0)]
    points += [center + Quaternion(*q) for q in rng.uniform(-2.5, 2.5, (400, 4)).tolist()]
    rows = np.array([q.as_array() for q in points])
    # Spheres: through I (and so meeting the finite set), touching the
    # balls' boundary from outside, the real point on it, and random ones.
    spheres = [J, Quaternion(0.5, 0.0, 0.0, 2.0), Quaternion(0.5, 3.0), Quaternion(3.0),
               Quaternion(0.5)]
    spheres += [Quaternion(*q) for q in rng.uniform(-2.5, 2.5, (200, 4)).tolist()]
    sphere_rows = np.array([q.as_array() for q in spheres])
    for region in regions:
        got = region.contains_rows(rows)
        assert got.tolist() == [_reference.contains(region, q) for q in points]
        assert got.any() and not got.all()
        got = region.contains_rows(sphere_rows, True)
        assert got.tolist() == [_reference.contains(region, q, True) for q in spheres]
        assert got.any() and not got.all()
        flags = np.arange(len(spheres)) % 2 == 0
        mixed = region.contains_rows(sphere_rows, flags)
        assert mixed.tolist() == [_reference.contains(region, q, bool(f))
                                  for q, f in zip(spheres, flags)]


def test_finite_set_membership_ignores_the_band():
    # The unit sphere misses 0.8 j by 0.2, and a point matches within
    # FINITE_SET_REL max(1, |p|); membership has no band, and the verdicts
    # over a finite set, decided point by point, take none.
    region = Region.finite_set([Quaternion(0.0, 0.0, 0.8)])
    near = [0.0, 0.0, 0.8 + 1e-13, 0.0]
    assert region.contains_rows([[0.0, 1.0, 0.0, 0.0], near], [True, False]).tolist() == [
        False, True]
    sphere = as_matrix_polynomial(ScalarQPolynomial([ONE, Quaternion(0.0), ONE]))  # t^2 + 1
    for band in (0.0, 1e-9, 0.3):
        verdict = check_stability(sphere, region, band=band)
        assert (verdict.status, verdict.certificate) == (StabilityStatus.STABLE, "pointwise-oracle")


def test_region_validation():
    with pytest.raises(ValueError):
        Region.open_ball(J, 0.0)
    with pytest.raises(ValueError):
        Region.annulus(J, 2.0, 1.0)
    with pytest.raises(ValueError):
        Region.finite_set([])


def test_ball_grid_deterministic_and_inside():
    grid1 = quaternion_ball_grid(J, 1.0, 100)
    grid2 = quaternion_ball_grid(J, 1.0, 100)
    assert all(a.approx_eq(b, 0.0) for a, b in zip(grid1, grid2))
    assert all((q - J).modulus() < 1.0 for q in grid1)
    outer = quaternion_ball_grid(Quaternion(0), 2.0, 1000)
    assert len(outer) == 1000
    assert all(q.modulus() <= 2.0 for q in outer)


def test_region_sample_grid_annulus_and_complement():
    ann = Region.annulus(Quaternion(0), 0.5, 1.5)
    pts = region_sample_grid(ann, 50)
    assert pts.shape == (50, 4)
    assert all(ann.contains(q) for q in map(Quaternion, *pts.T.tolist()))
    comp = Region.complement_closed_ball(Quaternion(0), 1.0)
    pts = region_sample_grid(comp, 50)
    assert pts.shape == (50, 4)
    assert all(comp.contains(q) for q in map(Quaternion, *pts.T.tolist()))


def test_region_sample_grid_refuses_a_finite_set():
    # check_stability decides a finite set's own points and asks for no grid.
    with pytest.raises(ValueError, match="finite set"):
        region_sample_grid(Region.finite_set([ONE, J]), 4)


def _rows(quaternions):
    return np.array([q.as_array() for q in quaternions]).reshape(-1, 4)


@pytest.mark.parametrize("region", [
    Region.open_ball(J, 1.0),
    Region.closed_ball(Quaternion(0.3, -0.4, 0.1, 0.2), 2.5),
    Region.annulus(Quaternion(0), 0.5, 1.5),
    Region.annulus(J, 1.0, 3.0),
    Region.complement_closed_ball(Quaternion(0), 1.0),
    Region.complement_closed_ball(Quaternion(0.5, 0.0, -1.0, 2.0), 0.3),
    # About 1.2 % of the ball grid: 60 c + 64 points hold fewer than c from c = 3 on.
    Region.annulus(Quaternion(0.2, 0.0, 0.0, -0.1), 0.997, 1.0),
], ids=["open", "closed", "annulus", "off-center-annulus", "complement",
        "off-center-complement", "thin-annulus"])
def test_grids_equal_the_scalar_reference_bit_for_bit(region):
    top = 500
    if region.kind in (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL):
        grid = quaternion_ball_grid(region.center, region.radius, top)
        expected = [_reference.ball_grid_point(region.center, region.radius, t)
                    for t in range(1, top + 1)]
        assert grid == expected
        assert np.array_equal(region_sample_grid(region, top), _rows(grid))
        counts = range(1, top + 1)
        assert all(quaternion_ball_grid(region.center, region.radius, c) == grid[:c] for c in counts)
        return
    expected = _reference.region_sample_grids(region, top)
    counts = range(1, top + 1)
    if region.kind is RegionKind.ANNULUS and region.outer_radius - region.inner_radius < 0.01:
        # Every count draws its whole budget here, so a sample of them.
        assert len(expected[top]) < top
        counts = [*range(1, 41), 97, 250, 499, top]
    for count in counts:
        assert np.array_equal(region_sample_grid(region, count), _rows(expected[count])), count


# -- stability ----------------------------------------------------------------


def test_stability_j_shift_on_ball():
    verdict = check_stability(example_j_shift_poly(), Region.open_ball(J, 1.0))
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert verdict.witness is not None
    assert similar(verdict.witness, I, tol=1e-9)
    assert (verdict.witness - J).modulus() < 1.0


def test_stability_projection_balls():
    p = example_projection_poly()
    inside = check_stability(p, Region.closed_ball(Quaternion(0), 0.5))
    assert inside.status is StabilityStatus.NOT_STABLE
    assert inside.witness.modulus() <= 1e-9

    clear = check_stability(p, Region.closed_ball(Quaternion(0.5), 0.25))
    assert clear.status is StabilityStatus.STABLE


def test_stability_finite_set_pointwise():
    p = example_projection_poly()
    bad = Region.finite_set([Quaternion(0.5), ONE])
    verdict = check_stability(p, bad)
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert verdict.witness.approx_eq(ONE, 0.0)
    good = Region.finite_set([Quaternion(0.5), Quaternion(2), I, J, Quaternion(1, 0, 0, 1)])
    assert check_stability(p, good).status is StabilityStatus.STABLE


def test_stability_boundary_deadband():
    p = MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-1), Quaternion(-1)]),
                          QuaternionMatrix.identity(2)])
    verdict = check_stability(p, Region.open_ball(Quaternion(0), 1.0))
    assert verdict.status is StabilityStatus.UNKNOWN


def test_stability_complement_and_annulus():
    p = example_projection_poly()  # eigenvalues {0, 1}
    comp = check_stability(p, Region.complement_closed_ball(Quaternion(0), 2.0))
    assert comp.status is StabilityStatus.STABLE
    comp2 = check_stability(p, Region.complement_closed_ball(Quaternion(0), 0.5))
    assert comp2.status is StabilityStatus.NOT_STABLE
    assert comp2.witness.approx_eq(ONE, 1e-9)
    ann = check_stability(p, Region.annulus(Quaternion(0), 0.25, 0.75))
    assert ann.status is StabilityStatus.STABLE
    ann2 = check_stability(p, Region.annulus(Quaternion(0), 0.5, 1.5))
    assert ann2.status is StabilityStatus.NOT_STABLE
    assert is_eigenvalue_oracle(p, ann2.witness) is True


@pytest.mark.parametrize("region", [
    Region.open_ball(J, 0.5),
    Region.complement_closed_ball(J, 1.0),
    Region.annulus(J, 1.0, 1.5),
], ids=lambda region: region.kind.value)
def test_witness_lies_in_the_region_of_every_centered_kind(region):
    # P(t) = I t + J I has the class of j, the unit sphere of pure
    # imaginaries; seen from j its distances span [0, 2], so each kind has to
    # aim its witness at its own part of that range.
    p = MatrixPolynomial([QuaternionMatrix.diagonal([J, J]), QuaternionMatrix.identity(2)])
    verdict = check_stability(p, region)
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert region.contains(verdict.witness)


def test_stability_fallback_sampling_for_singular_leading():
    unknown = check_stability(example_no_eigenvalue_poly(),
                              Region.closed_ball(Quaternion(0), 1.0), samples=60)
    assert unknown.status is StabilityStatus.UNKNOWN
    assert "sampling" in unknown.certificate

    # Every quaternion is an eigenvalue (first row vanishes identically), so
    # sampling finds a witness immediately.
    everywhere = MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(0), ONE]),
                                   QuaternionMatrix.diagonal([Quaternion(0), ONE])])
    verdict = check_stability(everywhere, Region.closed_ball(Quaternion(0), 1.0),
                              samples=60)
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert is_eigenvalue_oracle(everywhere, verdict.witness) is True


def test_quaternion_centered_ball_beyond_complex_theory():
    # Center has no complex representative: the class geometry still decides.
    p = example_projection_poly()
    verdict = check_stability(p, Region.open_ball(Quaternion(0.5, 0, 0.5, 0.5), 0.5))
    assert verdict.status is StabilityStatus.STABLE
    verdict = check_stability(p, Region.open_ball(Quaternion(0.9, 0.1, 0.1, 0), 0.5))
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert similar(verdict.witness, ONE, tol=1e-9)


# -- positive-root bounds -------------------------------------------------------


def test_unique_positive_root_examples():
    assert unique_positive_root([-1.0, 1.0, 1.0]) == pytest.approx(GOLDEN_LO, abs=1e-12)
    assert unique_positive_root([-1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert unique_positive_root([-1.0, -1.0, 1.0]) == pytest.approx(GOLDEN_HI, abs=1e-12)


def test_unique_positive_root_guards():
    with pytest.raises(NoSignChangeError):
        unique_positive_root([1.0, 1.0])
    with pytest.raises(NoSignChangeError):
        unique_positive_root([-1.0, 2.0, -1.0, 1.0])
    with pytest.raises(NoSignChangeError):
        unique_positive_root([0.0])
    # factoring powers of z is fine
    assert unique_positive_root([0.0, -1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_eigenvalue_annulus_examples():
    r, big_r = eigenvalue_annulus(example_golden_poly())
    assert r == pytest.approx(GOLDEN_LO, abs=1e-9)
    assert big_r == pytest.approx(GOLDEN_HI, abs=1e-9)

    shift = MatrixPolynomial([QuaternionMatrix.identity(2) * -1.0,
                              QuaternionMatrix.identity(2)])
    r, big_r = eigenvalue_annulus(shift)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert big_r == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(SingularCoefficientError):
        eigenvalue_annulus(example_projection_poly())  # constant is singular


def test_annulus_soundness_random():
    rng = np.random.default_rng(40)
    for _ in range(20):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        r, big_r = eigenvalue_annulus(p)
        for e in polyeig(p):
            assert r - 1e-9 <= e.modulus() <= big_r + 1e-9


def test_annulus_matches_radii_from_explicit_inverses():
    # r and R from one SVD of the lifts equal those built from 2-norms of
    # the lifts and of their explicit inverses.
    rng = np.random.default_rng(1602)
    for trial in range(100):
        n, m = 1 + trial % 6, 1 + trial // 6 % 3
        p = random_polynomial(rng, n, m, invertible_ends=True)
        chis = [complex_adjoint(a) for a in p.coeffs]
        norms = [np.linalg.norm(chi, 2) for chi in chis]
        lower = [-1.0 / np.linalg.norm(np.linalg.inv(chis[0]), 2), *norms[1:]]
        upper = [-c for c in norms[:-1]] + [1.0 / np.linalg.norm(np.linalg.inv(chis[-1]), 2)]
        want = unique_positive_root(lower), unique_positive_root(upper)
        assert eigenvalue_annulus(p) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_complement_transfer_matches_reversal():
    rng = np.random.default_rng(41)
    rho = 1.7
    for _ in range(10):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        moduli = [e.modulus() for e in polyeig(p)]
        if any(abs(m - rho) < 1e-3 or abs(m - 1.0 / rho) < 1e-3 for m in moduli):
            continue
        outer = check_stability(p, Region.complement_closed_ball(Quaternion(0), rho))
        inner = check_stability(reversal(p), Region.open_ball(Quaternion(0), 1.0 / rho))
        assert outer.status == inner.status


def test_ball_transfer_agrees_with_complex_slice():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        center = Quaternion(rng.standard_normal(), rng.standard_normal(), 0, 0)
        radius = 0.3 + abs(rng.standard_normal())
        lifted = eig_complex(complex_adjoint(companion(p)))
        margins = [abs(abs(z - center.complex_pair()[0]) - radius) for z in lifted]
        if min(margins) < 1e-3:
            continue
        slice_empty = all(abs(z - center.complex_pair()[0]) >= radius for z in lifted)
        verdict = check_stability(p, Region.open_ball(center, radius))
        if verdict.status is StabilityStatus.UNKNOWN:
            continue
        assert (verdict.status is StabilityStatus.STABLE) == slice_empty


def test_conjugate_center_ball_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(10):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        lifted = list(eig_complex(complex_adjoint(companion(p))))
        a = complex(rng.standard_normal(), rng.standard_normal())
        radius = 0.5 + abs(rng.standard_normal())
        empty_a = all(abs(z - a) >= radius for z in lifted)
        empty_conj = all(abs(z - a.conjugate()) >= radius for z in lifted)
        assert empty_a == empty_conj
        # ...because the lifted spectrum is closed under conjugation:
        for z in lifted:
            assert min(abs(z.conjugate() - w) for w in lifted) <= 1e-7 * max(1.0, abs(z))


# -- numerical range -------------------------------------------------------------


def test_numerical_range_projection_interval():
    result = sample_numerical_range(example_projection_poly(), 500, seed=42)
    assert result.skipped == 0
    for point in map(Quaternion, *result.points.T.tolist()):
        assert point.vec_norm() <= 1e-9
        assert -1e-9 <= point.w <= 1.0 + 1e-9
    assert not result.spherical.any()


def test_numerical_range_identity_shift():
    p = MatrixPolynomial([QuaternionMatrix.identity(2) * -1.0,
                          QuaternionMatrix.identity(2)])
    result = sample_numerical_range(p, 100, seed=1)
    assert len(result.points) == 100
    for point in map(Quaternion, *result.points.T.tolist()):
        assert point.approx_eq(ONE, 1e-9)


def test_numerical_range_scalar_j_shift():
    # Scalar t + j: every sampled zero is a unit pure imaginary, and each is
    # a genuine eigenvalue of the polynomial.
    p = MatrixPolynomial([QuaternionMatrix.from_rows([[J]]),
                          QuaternionMatrix.identity(1)])
    result = sample_numerical_range(p, 100, seed=3)
    for point in map(Quaternion, *result.points.T.tolist()):
        assert abs(point.w) <= 1e-9
        assert point.modulus() == pytest.approx(1.0, abs=1e-9)
        assert is_eigenvalue_oracle(p, point) is True


def test_numerical_range_matrix_j_shift_pure_imaginary():
    # For the 2x2 version the sampled zeros stay pure imaginary with
    # modulus at most 1 (mixing across components shortens the vector).
    result = sample_numerical_range(example_j_shift_poly(), 200, seed=4)
    for point in map(Quaternion, *result.points.T.tolist()):
        assert abs(point.w) <= 1e-9
        assert point.modulus() <= 1.0 + 1e-9


# -- hyperstability ---------------------------------------------------------------


def test_hyperstable_projection_triangular():
    probes = Region.finite_set([Quaternion(0.5), Quaternion(2), I, J,
                                Quaternion(1, 0, 0, 1)])
    verdict = check_hyperstability(example_projection_poly(), probes)
    assert verdict.status is HyperStatus.HYPERSTABLE
    assert verdict.certificate == "triangular-equivalence"


def test_hyperstable_scalar_equivalence():
    p = as_matrix_polynomial(ScalarQPolynomial([-K, ONE]))
    verdict = check_hyperstability(p, Region.finite_set([ONE]))
    assert verdict.status is HyperStatus.HYPERSTABLE
    assert verdict.certificate == "scalar-equivalence"

    hit = check_hyperstability(p, Region.finite_set([K]))
    assert hit.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED
    assert hit.certificate == "scalar-equivalence"
    assert hit.witness is not None


def test_not_hyperstable_sampled_for_stable_polynomial():
    verdict = check_hyperstability(example_no_eigenvalue_poly(),
                                   Region.closed_ball(Quaternion(0), 1.0))
    assert verdict.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED
    assert verdict.certificate == "quadratic-product-certificate"
    entries = vec_entries(verdict.witness)
    assert entries[0].modulus() <= 1e-12
    assert entries[1].modulus() > 0.9


def test_open_ball_weakens_quadratic_certificate():
    # Over the open unit ball the product-of-roots argument does not close:
    # some induced quadratics put both roots on the unit sphere.
    # The leading coefficient is singular, so the stability step that
    # follows the search samples the ball, and its refusal is the certificate.
    verdict = check_hyperstability(example_no_eigenvalue_poly(),
                                   Region.open_ball(Quaternion(0), 1.0))
    assert verdict.status is HyperStatus.UNKNOWN
    assert verdict.certificate == "oracle-sampling-inconclusive"


def test_block_composition():
    # Block upper triangular with a leading coefficient that is not the
    # identity, so the entrywise-triangular rule cannot fire.  Its exact zeros
    # cut it into three 1 x 1 blocks, each scalar and so hyperstable over the
    # probe set, and composition certifies the whole.
    zero = Quaternion(0)
    a0 = QuaternionMatrix.from_rows([
        [Quaternion(-2), Quaternion(0.5, 0.5, 0, 0), Quaternion(1, 0, 2, 0)],
        [zero, zero, J],
        [zero, zero, -K],
    ])
    a1 = QuaternionMatrix.diagonal([Quaternion(2), ONE, ONE])
    p = MatrixPolynomial([a0, a1])
    assert _block_slices(p) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    # Eigenvalue classes of the blocks: {1}, {0}, and the class of i.
    probes = Region.finite_set([Quaternion(0.5), Quaternion(2), Quaternion(1, 0, 0, 1)])
    verdict = check_hyperstability(p, probes)
    assert (verdict.status, verdict.certificate) == (HyperStatus.HYPERSTABLE, "block-composition")

    # Over a ball clear of the classes the detected blocks certify too.
    ball = Region.closed_ball(Quaternion(3), 0.5)
    verdict = check_hyperstability(p, ball)
    assert (verdict.status, verdict.certificate) == (HyperStatus.HYPERSTABLE, "block-composition")


def _polynomial(raw):
    """The matrix polynomial of an (m + 1, n, n, 4) array of [w, x, y, z] entries."""
    pairs = np.ascontiguousarray(raw, dtype=float).view(np.complex128)
    return MatrixPolynomial([QuaternionMatrix(a[..., 0], a[..., 1]) for a in pairs])


def _planted_blocks(rng, sizes, m):
    """Block upper triangular, degree m, on consecutive diagonal blocks of ``sizes``:
    every entry on and above the diagonal blocks Gaussian, every one below exactly 0."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    upper = (block[:, None] <= block[None, :])[..., None]
    return rng.standard_normal((m + 1, len(block), len(block), 4)) * upper


def _block_slices_by_definition(p):
    """Every cut k with no nonzero entry of any coefficient in rows k.. and columns ..k-1."""
    entries = np.array([[[any(v != 0.0 for v in a.entry(r, c).as_array()) for c in range(p.size)]
                         for r in range(p.size)] for a in p.coeffs])
    cuts = [0] + [k for k in range(1, p.size) if not entries[:, k:, :k].any()] + [p.size]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def test_block_slices_are_the_cuts_with_exact_zeros_below():
    rng = np.random.default_rng(3707)
    counts = set()
    for trial in range(200):
        n, m = 1 + trial % 6, 1 + trial % 3
        raw = rng.standard_normal((m + 1, n, n, 4))
        raw *= rng.random((m + 1, n, n, 1)) < 0.15  # sparse, so that some cuts stand
        raw[m, np.arange(n), np.arange(n), 0] = 1.0  # a nonzero leading coefficient, on no cut
        if trial % 4 == 0:  # a subnormal entry counts, a negative zero does not
            raw[rng.integers(m + 1), rng.integers(n), rng.integers(n), rng.integers(4)] = 5e-324
            raw[rng.integers(m), rng.integers(n), rng.integers(n)] *= -0.0
        p = _polynomial(raw)
        assert _block_slices(p) == _block_slices_by_definition(p)
        counts.add(len(_block_slices(p)))
    assert {1, 2, 3, 4} <= counts


def test_detected_blocks_decide_hyperstability_as_stability():
    # Planted consecutive partitions with dense diagonal blocks (so each is
    # irreducible) and a leading coefficient far from the identity.  Where
    # every block is scalar or a pencil, stability and hyperstability agree
    # block by block, so the composition gives hyperstable = stable, status
    # for status; a larger block of higher degree may stay UNKNOWN, but no
    # verdict may contradict stability.
    rng = np.random.default_rng(1137)
    same = {StabilityStatus.STABLE: HyperStatus.HYPERSTABLE,
            StabilityStatus.NOT_STABLE: HyperStatus.NOT_HYPERSTABLE_SAMPLED}
    decided = collections.Counter()
    for trial in range(36):
        n, m = 2 + trial % 4, 1 + trial % 3
        cuts = sorted(rng.choice(np.arange(1, n), int(rng.integers(1, n)), replace=False))
        sizes = np.diff([0, *cuts, n]).tolist()
        p = _polynomial(_planted_blocks(rng, sizes, m))
        assert [sl.stop - sl.start for sl in _block_slices(p)] == sizes
        evs = polyeig(p)
        hit = class_point(evs[int(rng.integers(len(evs)))], random_unit_imaginary(rng))
        center = random_quaternion(rng)
        clear = min(class_distance_extremes(ev, center)[0] for ev in evs)
        for region in (Region.open_ball(hit, 0.1), Region.closed_ball(center, clear / 2)):
            stab = check_stability(p, region).status
            hyper = check_hyperstability(p, region, y_samples=4)
            assert stab is not StabilityStatus.UNKNOWN
            if m == 1 or max(sizes) == 1:
                assert hyper.status is same[stab], (sizes, m, hyper)
                decided[stab] += 1
            elif stab is StabilityStatus.NOT_STABLE:
                assert hyper.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED
            else:
                assert hyper.status is not HyperStatus.HYPERSTABLE
            if hyper.status is HyperStatus.HYPERSTABLE:
                assert hyper.certificate == "block-composition"
    assert min(decided[StabilityStatus.STABLE], decided[StabilityStatus.NOT_STABLE]) >= 6, decided


@pytest.mark.parametrize("entry", [1e-3, 1e-300])
def test_an_entry_below_the_blocks_takes_no_structural_rung(entry):
    # One nonzero entry in the bottom-left corner leaves no cut standing,
    # however small it is; the identity-led triangular draw is the case of
    # 1 x 1 blocks, where it would take the triangular rung.
    rng = np.random.default_rng(4242)
    for trial in range(8):
        n, m = 2 + trial % 3, 1 + trial % 2
        raw = _planted_blocks(rng, [1] * n, m)
        if trial % 2 == 0:
            raw[-1] = np.eye(n)[..., None] * [1.0, 0.0, 0.0, 0.0]
        raw[trial % (m + 1), n - 1, 0] = [0.0, entry, 0.0, 0.0]
        p = _polynomial(raw)
        assert _block_slices(p) == [slice(0, n)]
        evs = polyeig(p)
        center = random_quaternion(rng)
        clear = min(class_distance_extremes(ev, center)[0] for ev in evs)
        for region in (Region.closed_ball(center, clear / 2), Region.finite_set([center])):
            verdict = check_hyperstability(p, region, y_samples=4)
            assert verdict.certificate not in ("block-composition", "triangular-equivalence")


def test_negative_witness_kills_the_action():
    # When the equivalence rules refute hyperstability, the reported vector
    # must genuinely witness it: the polynomial action at the offending
    # eigenvalue annihilates it, so no z can save stability there.
    from quatpoly import evaluate_action, eigenvector_at

    p = example_projection_poly()
    verdict = check_hyperstability(p, Region.finite_set([ONE, Quaternion(3)]))
    assert verdict.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED
    assert verdict.certificate == "triangular-equivalence"
    mu = verdict.details["witness_eigenvalue"]
    assert mu.approx_eq(ONE, 1e-9)
    y = verdict.witness
    assert y is not None
    residual = evaluate_action(p, y, mu).frobenius_norm()
    assert residual <= 1e-9 * y.frobenius_norm()

    # The realified kernel route agrees.
    direct = eigenvector_at(p, ONE)
    assert direct is not None
    assert evaluate_action(p, direct, ONE).frobenius_norm() <= 1e-9


def test_hyperstable_implies_stable():
    cases = [
        (example_projection_poly(),
         Region.finite_set([Quaternion(0.5), Quaternion(2), I, J])),
        (as_matrix_polynomial(ScalarQPolynomial([-K, ONE])),
         Region.finite_set([ONE, Quaternion(2)])),
        (MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(-3), Quaternion(-4)]),
                           QuaternionMatrix.identity(2)]),
         Region.closed_ball(Quaternion(0), 1.0)),
    ]
    for poly, region in cases:
        hyper = check_hyperstability(poly, region)
        if hyper.status is HyperStatus.HYPERSTABLE:
            assert check_stability(poly, region).status is StabilityStatus.STABLE


def test_numerical_range_overlap_is_only_evidence():
    # The projection polynomial is hyperstable over {0.5} although its
    # numerical range [0, 1] passes through 0.5; theorem-backed certificates
    # take priority over the (necessarily weaker) sampled evidence.  The
    # samples come near 0.5 (38 of 300 within 0.05) but never within
    # FINITE_SET_REL of it, so the overlap shows in a ball, not in the set.
    probes = Region.finite_set([Quaternion(0.5)])
    result = sample_numerical_range(example_projection_poly(), 300, seed=42)
    near = Region.closed_ball(Quaternion(0.5), 0.05)
    assert len(result.points) == 300
    assert int(near.contains_rows(result.points, result.spherical).sum()) == 38
    assert not probes.contains_rows(result.points, result.spherical).any()
    verdict = check_hyperstability(example_projection_poly(), probes)
    assert verdict.status is HyperStatus.HYPERSTABLE
    assert verdict.certificate == "triangular-equivalence"


def test_search_no_witness_cases():
    p = MatrixPolynomial([QuaternionMatrix.identity(2) * -1.0,
                          QuaternionMatrix.identity(2)])
    # Region far from the class of 1.
    assert not_hyperstable_search(p, Region.closed_ball(Quaternion(5), 1.0)) is None
    proj = example_projection_poly()
    assert not_hyperstable_search(proj, Region.closed_ball(Quaternion(0.5), 0.1)) is None


def test_search_rejects_unsupported_region():
    # A finite set is decided exactly by its stability, never searched.
    for region in (Region.complement_closed_ball(Quaternion(0), 1.0),
                   Region.finite_set([Quaternion(0.5)])):
        with pytest.raises(ValueError, match="ball regions only"):
            not_hyperstable_search(example_projection_poly(), region)


_TRANSLATED = {StabilityStatus.STABLE: HyperStatus.HYPERSTABLE,
               StabilityStatus.NOT_STABLE: HyperStatus.NOT_HYPERSTABLE_SAMPLED,
               StabilityStatus.UNKNOWN: HyperStatus.UNKNOWN}


def test_finite_set_hyperstability_is_stability():
    # Over {p_1, ..., p_K}, hyperstable iff stable: a witness y would need
    # every z in one of K proper real subspaces {z : z* P(p_k) y = 0}, so
    # P(p_k) y = 0 at some k.  Every draw gets the stability verdict,
    # translated, with the oracle's kernel vector as an exact witness.
    from quatpoly import evaluate_action

    rng = np.random.default_rng(48)
    seen = set()
    for trial in range(60):
        n, m = 2 + trial % 3, 1 + (trial // 3) % 3
        p = random_polynomial(rng, n, m, invertible_ends=True)
        points = [random_quaternion(rng, scale=1.5) for _ in range(3)]
        if trial % 2 == 0:
            evs = polyeig(p)
            points.insert(int(rng.integers(4)), evs[int(rng.integers(len(evs)))].lift())
        region = Region.finite_set(points)
        stab = check_stability(p, region)
        hyper = check_hyperstability(p, region)
        assert hyper.status is _TRANSLATED[stab.status]
        assert hyper.certificate.startswith("finite-set-equivalence")
        seen.add(hyper.status)
        if hyper.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED:
            mu, y = hyper.details["witness_eigenvalue"], hyper.witness
            assert mu == stab.witness and region.contains(mu)
            scale = sum(a.frobenius_norm() * mu.modulus() ** i for i, a in enumerate(p.coeffs))
            residual = evaluate_action(p, y, mu).frobenius_norm()
            assert residual <= 1e-9 * scale * y.frobenius_norm()
    assert seen == {HyperStatus.HYPERSTABLE, HyperStatus.NOT_HYPERSTABLE_SAMPLED}


def _region_around(rng, p, kind, planted):
    """A region of ``kind`` that one class of P's spectrum meets well inside
    its boundary when ``planted``, and that no class meets otherwise."""
    classes = polyeig(p)
    center = random_quaternion(rng, scale=1.5)
    e = classes[int(rng.integers(len(classes)))]
    point = class_point(e, random_unit_imaginary(rng))
    lo, hi = class_distance_extremes(e, center)
    nearest = min(class_distance_extremes(c, center)[0] for c in classes)
    farthest = max(class_distance_extremes(c, center)[1] for c in classes)
    if kind is RegionKind.FINITE_SET:
        points = [random_quaternion(rng, scale=1.5) for _ in range(2)]
        return Region.finite_set(points + [point] if planted else points)
    if kind is RegionKind.ANNULUS:
        return (Region.annulus(center, 0.5 * lo, 0.5 * (lo + hi) + 0.2) if planted
                else Region.annulus(center, 0.25 * nearest, 0.5 * nearest))
    if kind is RegionKind.COMPLEMENT_CLOSED_BALL:
        return Region(kind, center=center, radius=0.5 * hi if planted else 1.5 * farthest)
    if planted:  # a ball around the class point, off center by half its radius
        radius = rng.uniform(0.2, 1.0)
        center = point + random_unit_imaginary(rng) * (0.5 * radius)
        return Region(kind, center=center, radius=radius)
    return Region(kind, center=center, radius=0.5 * nearest)


def _assert_exact_witness(p, region, verdict):
    """The refutation carries a point mu of the region and a vector y with
    P(mu) y = 0, to a relative action residual of 1e-8."""
    from quatpoly import evaluate_action

    mu, y = verdict.details["witness_eigenvalue"], verdict.witness
    assert region.contains(mu)
    scale = sum(a.frobenius_norm() * mu.modulus() ** i for i, a in enumerate(p.coeffs))
    assert evaluate_action(p, y, mu).frobenius_norm() <= 1e-8 * scale * y.frobenius_norm()


def test_linear_pencil_hyperstability_is_stability():
    # For m = 1, hyperstable iff stable over every region kind: if A_0 y is
    # not in the right span of A_1 y, some probe is a nonzero constant;
    # otherwise every probe is (z* A_1 y)(t - mu) with P(mu) y = 0.
    rng = np.random.default_rng(331)
    seen = set()
    for n, kind, planted in itertools.product(range(1, 5), RegionKind, (True, False)):
        p = random_polynomial(rng, n, 1, invertible_ends=True)
        region = _region_around(rng, p, kind, planted)
        stab = check_stability(p, region)
        hyper = check_hyperstability(p, region)
        assert hyper.status is _TRANSLATED[stab.status], (n, kind, planted, hyper.certificate)
        seen.add(hyper.status)
        if hyper.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED:
            _assert_exact_witness(p, region, hyper)
    assert seen == {HyperStatus.HYPERSTABLE, HyperStatus.NOT_HYPERSTABLE_SAMPLED}


def test_an_eigenvalue_in_the_region_refutes_hyperstability():
    # m 2-3: an eigenvalue planted in a ball, a complement or an annulus
    # refutes hyperstability, by the search on a ball or else by the stability
    # rung's exact witness.  Without one the verdict is the search's, or UNKNOWN.
    rng = np.random.default_rng(332)
    kinds = (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL, RegionKind.COMPLEMENT_CLOSED_BALL,
             RegionKind.ANNULUS)
    decided = 0
    for n, m, kind, planted in itertools.product((2, 3, 4), (2, 3), kinds, (True, False)):
        p = random_polynomial(rng, n, m, invertible_ends=True)
        region = _region_around(rng, p, kind, planted)
        hyper = check_hyperstability(p, region)
        if planted:
            assert hyper.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED, (n, m, kind)
            if hyper.certificate == "stability-witness":
                _assert_exact_witness(p, region, hyper)
                decided += 1
            continue
        ball = kind in (RegionKind.OPEN_BALL, RegionKind.CLOSED_BALL)
        if ball and not_hyperstable_search(p, region) is not None:
            assert hyper.status is HyperStatus.NOT_HYPERSTABLE_SAMPLED
        else:
            assert (hyper.status, hyper.certificate) == (HyperStatus.UNKNOWN, (
                "stable; no search witness" if ball else "stable; no search for this region kind"))
    assert decided >= 12


def test_finite_set_verdict_matches_oracle_both_directions():
    # No eigenvalue in the set iff stable with respect to it, decided point
    # by point: the verdict must agree with a direct oracle sweep.
    rng = np.random.default_rng(44)
    for trial in range(25):
        n = 1 + trial % 3
        m = 1 + trial % 2
        p = random_polynomial(rng, n, m, invertible_ends=True)
        points = [random_quaternion(rng, scale=1.5) for _ in range(4)]
        if trial % 2 == 0:
            evs = polyeig(p)
            cls = evs[trial % len(evs)]
            points.append(cls.lift())
        region = Region.finite_set(points)
        verdict = check_stability(p, region)
        hits = [is_eigenvalue_oracle(p, q) for q in points]
        if any(h is None for h in hits):
            assert verdict.status in (StabilityStatus.UNKNOWN,
                                      StabilityStatus.NOT_STABLE)
            continue
        assert (verdict.status is StabilityStatus.NOT_STABLE) == any(hits)
        if verdict.status is StabilityStatus.NOT_STABLE:
            assert region.contains(verdict.witness)
            assert is_eigenvalue_oracle(p, verdict.witness) is True


def test_ball_witness_lies_in_region():
    rng = np.random.default_rng(45)
    found = 0
    for _ in range(25):
        p = random_polynomial(rng, 2, 2, invertible_ends=True)
        center = random_quaternion(rng)
        verdict = check_stability(p, Region.open_ball(center, 1.0))
        if verdict.status is StabilityStatus.NOT_STABLE:
            found += 1
            assert (verdict.witness - center).modulus() < 1.0
            assert is_eigenvalue_oracle(p, verdict.witness) is True
    assert found >= 5  # the sweep must actually exercise the witness path


def test_sample_numerical_range_needs_samples():
    with pytest.raises(ValueError):
        sample_numerical_range(example_projection_poly(), 0, seed=1)


@pytest.mark.parametrize("kind", ["open_ball", "closed_ball"])
def test_isolated_zero_on_ball_boundary_is_in_the_dead_band(kind):
    # A zero on the sphere must not be decided by its last bit: 1.0 and its
    # neighbours 1 - 2^-53 and 1 + 2^-52 all sit in the dead band.
    from quatpoly.stability import BOUNDARY_BAND

    region = getattr(Region, kind)(Quaternion(0), 1.0)

    def meets(x):
        return region.meets([[x, 0.0, 0.0, 0.0]], False, BOUNDARY_BAND)[0]

    assert {meets(1.0 - 2.0 ** -53), meets(1.0), meets(1.0 + 2.0 ** -52)} == {False}
    assert meets(1.0 - 1e-6) and not meets(1.0 + 1e-6)
    assert region.meets([[0.0, 0.5, 0.0, 0.0]], True, BOUNDARY_BAND)[0]


def test_huge_realified_action_is_decided():
    # At t = 1e120 the unscaled t^3 term, 1e100 * 1e360, is far outside the
    # float range; each term in units of its own power of two keeps the
    # operator finite, and no such t is an eigenvalue of 1e100 (1 + t + t^2 + t^3).
    p = MatrixPolynomial([QuaternionMatrix.identity(1) * 1e100] * 4)
    with np.errstate(over="raise", invalid="raise"):
        for t in (1e80, 1e120, 1e300):
            verdict = check_stability(p, Region.finite_set([Quaternion(t)]))
            assert (verdict.status, verdict.certificate) == (StabilityStatus.STABLE,
                                                             "pointwise-oracle")
        # 1 + t + t^2 + t^3 = (1 + t)(1 + t^2) vanishes at -1 and on the sphere of i.
        for point in (Quaternion(-1.0), Quaternion(0.0, 0.6, 0.0, 0.8)):
            verdict = check_stability(p, Region.finite_set([point]))
            assert verdict.status is StabilityStatus.NOT_STABLE


# -- one realified sweep per verdict ---------------------------------------------


def test_not_stable_verdicts_carry_the_kernel_vector_at_their_witness():
    # The finite-set, spectrum and sampled routes all end in one sweep; the
    # vector it returns is the kernel vector of the realified action at the
    # witness, whichever chunk of the sweep held it.
    from quatpoly import eigenvector_at

    rng = np.random.default_rng(46)
    cases = []
    for trial in range(12):
        p = random_polynomial(rng, 1 + trial % 3, 1 + trial % 2, invertible_ends=True)
        points = [random_quaternion(rng, scale=1.5) for _ in range(7)]
        evs = polyeig(p)
        points.insert((0, 1, 3, 6)[trial % 4], evs[trial % len(evs)].lift())
        cases += [(p, Region.finite_set(points)),
                  (p, Region.closed_ball(random_quaternion(rng), 2.0)),
                  (p, Region.complement_closed_ball(random_quaternion(rng), 0.5)),
                  (p, Region.annulus(Quaternion(0), 0.5, 2.0))]
    # A vanishing first row makes every quaternion an eigenvalue, and its
    # singular leading coefficient sends the verdict to the sample grid.
    everywhere = MatrixPolynomial([QuaternionMatrix.diagonal([Quaternion(0), ONE])] * 2)
    cases.append((everywhere, Region.closed_ball(Quaternion(0), 1.0)))
    certificates = set()
    for p, region in cases:
        verdict = check_stability(p, region, samples=60)
        if verdict.status is StabilityStatus.NOT_STABLE:
            certificates.add(verdict.certificate)
            direct = eigenvector_at(p, verdict.witness)
            assert np.array_equal(verdict.vector.a1, direct.a1)
            assert np.array_equal(verdict.vector.a2, direct.a2)
        else:
            assert verdict.vector is None
    assert certificates == {"pointwise-oracle", "spectrum-class-geometry", "oracle-sampling"}


def test_scalar_equivalence_verdict_makes_one_realified_sweep(monkeypatch):
    # The equivalence rung takes its witness vector from the stability
    # verdict's own sweep rather than sweeping the same point again.
    from quatpoly import matpoly, stability

    calls = []

    def counting(original):
        def sweep(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return sweep

    for module in (matpoly, stability):
        monkeypatch.setattr(module, "realified_sweep", counting(module.realified_sweep))
    p = as_matrix_polynomial(ScalarQPolynomial([Quaternion(-2.0), Quaternion(0.0), ONE]))
    verdict = check_hyperstability(p, Region.closed_ball(Quaternion(0), 2.0))
    assert (verdict.status, verdict.certificate) == (HyperStatus.NOT_HYPERSTABLE_SAMPLED,
                                                     "scalar-equivalence")
    assert len(calls) == 1


def test_ball_and_complement_witnesses_are_the_aligned_class_points():
    # A class sphere is nearest to a center along the center's vector part
    # and farthest against it.  Solving for the angle from the distances
    # instead meets cos t = +-1 exactly there, where rounding leaves
    # sin t ~ sqrt(eps) and turns the witness by about 1e-8.
    from quatpoly.quaternion import StandardEigenvalue
    from quatpoly.stability import BOUNDARY_BAND

    rng = np.random.default_rng(47)
    for _ in range(200):
        e = StandardEigenvalue(rng.standard_normal(), abs(rng.standard_normal()) + 0.1)
        center = random_quaternion(rng)
        axis = np.array([center.x, center.y, center.z]) / center.vec_norm()
        for region, sign in ((Region.closed_ball(center, 10.0), 1.0),
                             (Region.complement_closed_ball(center, 1e-3), -1.0)):
            assert region.margins([[e.re, e.im, 0.0, 0.0]], True)[0] > BOUNDARY_BAND
            witness = region.class_witnesses([[e.re, e.im]])[0]
            assert witness[0] == e.re
            turn = witness[1:] - sign * e.im * axis
            assert np.linalg.norm(turn) <= 1e-15 * e.im


def test_class_witnesses_equal_the_scalar_reference_bit_for_bit():
    # Balls and complements scale the center's vector part for all classes
    # at once; an annulus turns it class by class.  Every row must be the
    # scalar witness exactly, signed zeros included, also where cos t
    # clamps at +-1: a class that misses the annulus or only grazes it.
    from quatpoly.quaternion import StandardEigenvalue

    rng = np.random.default_rng(53)
    clamps = {1.0: 0, -1.0: 0}
    for trial in range(150):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        center = Quaternion(*(scale * rng.standard_normal(4)))
        if trial % 5 == 0:
            center = Quaternion(center.w)
        classes = np.column_stack([center.w + scale * rng.standard_normal(16),
                                   scale * np.abs(rng.standard_normal(16))])
        classes[::5, 1] = 0.0
        v = center.vec_norm()
        near = [math.hypot(center.w - x, v - s) for x, s in classes.tolist()]
        far = [math.hypot(center.w - x, v + s) for x, s in classes.tolist()]
        inner = scale * rng.uniform(0.0, 1.5)
        regions = [Region.open_ball(center, scale), Region.closed_ball(center, scale),
                   Region.complement_closed_ball(center, scale),
                   Region.annulus(center, inner, inner + scale * rng.uniform(0.1, 2.0)),
                   Region.annulus(center, 0.5 * near[1], near[1]),  # grazes from inside
                   Region.annulus(center, far[2], 2.0 * far[2])]  # grazes from outside
        for region in regions:
            got = region.class_witnesses(classes)
            want = np.array([_reference._class_witness(StandardEigenvalue(x, s), region).as_array()
                             for x, s in classes.tolist()])
            assert got.shape == (16, 4)
            assert got.tobytes() == want.tobytes()
            if region.kind is RegionKind.ANNULUS and v > 0.0:
                for lo, hi, s in zip(near, far, classes[:, 1].tolist()):
                    if s > 0.0 and lo > region.outer_radius:
                        clamps[1.0] += 1
                    elif s > 0.0 and hi < region.inner_radius:
                        clamps[-1.0] += 1
    assert min(clamps.values()) >= 20, clamps


def test_stable_over_a_ball_takes_one_svd_of_the_coefficient_lifts(monkeypatch):
    # The spectrum and the realified sweep share the singular values of the
    # coefficient lifts, taken once per polynomial.
    from quatpoly import linalg, matpoly

    shapes = []

    def counting(stack, **kwargs):
        shapes.append(np.shape(stack))
        return singular_values(stack, **kwargs)

    for module in (linalg, matpoly):
        monkeypatch.setattr(module, "singular_values", counting)
    rows = [[[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]],
            [[[0, 0, 0, 0], [1, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]],
            [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]]
    p = MatrixPolynomial([QuaternionMatrix.from_rows([[Quaternion(*e) for e in row] for row in a])
                          for a in rows])
    verdict = check_stability(p, Region.open_ball(Quaternion(0), 2.0))
    assert verdict.status is StabilityStatus.NOT_STABLE
    assert shapes.count((3, 4, 4)) == 1
