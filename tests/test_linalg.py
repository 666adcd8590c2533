import warnings

import numpy as np
import pytest

from quatpoly import (
    MatrixPolynomial,
    NonSquareError,
    Quaternion,
    QuaternionMatrix,
    Region,
    SingularCoefficientError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
    StabilityStatus,
    check_stability,
    companion,
    complex_adjoint,
    eigenvalue_annulus,
    inverse,
    polyeig,
    qvec,
    rank_decision,
    rank_decisions,
    real_rep_left,
    real_rep_right_scalar,
    spectral_norm,
    vec4_to_qvec,
    vec_entries,
)
from quatpoly.quaternion import left_action_matrix, right_action_matrix
from quatpoly.tolerances import RANK_BAND, RANK_PIVOT_REL
from _helpers import (random_invertible_qmatrix, random_polynomial, random_qmatrix, random_quaternion,
                      random_unit_quaternion, random_unit_qvec, right_eigenvalues)
from _reference import vec4

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K
BASIS = [ONE, I, J, K]


def test_complex_adjoint_of_j():
    a = QuaternionMatrix.from_rows([[J]])
    np.testing.assert_allclose(complex_adjoint(a), np.array([[0, 1], [-1, 0]]),
                               atol=1e-15)


def test_complex_adjoint_of_identity():
    for n in (1, 2, 4):
        np.testing.assert_allclose(complex_adjoint(QuaternionMatrix.identity(n)),
                                   np.eye(2 * n), atol=0)


def test_complex_adjoint_of_diag_i_j():
    a = QuaternionMatrix.diagonal([I, J])
    expected = np.array([
        [1j, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1j, 0],
        [0, -1, 0, 0],
    ])
    np.testing.assert_allclose(complex_adjoint(a), expected, atol=1e-15)


def test_complex_adjoint_requires_square():
    rect = QuaternionMatrix.zeros(2, 3)
    with pytest.raises(NonSquareError):
        complex_adjoint(rect)


def test_adjoint_homomorphism():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a = random_qmatrix(rng, 3)
        b = random_qmatrix(rng, 3)
        lhs = complex_adjoint(a @ b)
        rhs = complex_adjoint(a) @ complex_adjoint(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(
            1.0, a.frobenius_norm() * b.frobenius_norm())


def test_lift_of_conjugate_transpose():
    rng = np.random.default_rng(21)
    a = random_qmatrix(rng, 3)
    np.testing.assert_allclose(complex_adjoint(a.adjoint()),
                               complex_adjoint(a).conj().T, atol=1e-14)


def _action_matrix_by_columns(action):
    # Independent construction: column b is the action applied to the b-th
    # basis quaternion, written in (w, x, y, z) coordinates.
    cols = [np.array(action(b).as_array()) for b in BASIS]
    return np.column_stack(cols)


def test_left_action_matrix_from_products():
    for q in [I, J, K, Quaternion(0.3, -1.0, 0.5, 2.0)]:
        expected = _action_matrix_by_columns(lambda b: q * b)
        np.testing.assert_allclose(left_action_matrix(q), expected, atol=1e-15)
    # i * (w + xi + yj + zk) = -x + wi - zj + yk
    np.testing.assert_allclose(
        left_action_matrix(I) @ np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([-2.0, 1.0, -4.0, 3.0]), atol=0)


def test_right_action_matrix_from_products():
    for q in [I, J, K, Quaternion(0.3, -1.0, 0.5, 2.0)]:
        expected = _action_matrix_by_columns(lambda b: b * q)
        np.testing.assert_allclose(right_action_matrix(q), expected, atol=1e-15)
    # (w + xi + yj + zk) * j = -y - zi + wj + xk
    np.testing.assert_allclose(
        right_action_matrix(J) @ np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([-3.0, -4.0, 1.0, 2.0]), atol=0)


def test_real_rep_left_identity_and_scalar():
    np.testing.assert_allclose(real_rep_left(QuaternionMatrix.identity(1)),
                               np.eye(4), atol=0)
    got = real_rep_left(QuaternionMatrix.from_rows([[I]]))
    np.testing.assert_allclose(got, left_action_matrix(I), atol=0)


def test_real_rep_left_matches_action():
    rng = np.random.default_rng(22)
    for _ in range(10):
        a = random_qmatrix(rng, 2)
        left = real_rep_left(a)
        y = random_unit_qvec(rng, 2)
        np.testing.assert_allclose(left @ vec4(y), vec4(a @ y), atol=1e-12)


def test_real_rep_left_equals_blockwise_left_actions():
    rng = np.random.default_rng(23)
    for n in range(1, 5):
        a = random_qmatrix(rng, n)
        expected = np.block([[left_action_matrix(a.entry(r, c)) for c in range(n)]
                             for r in range(n)])
        assert np.array_equal(real_rep_left(a), expected)


def test_real_rep_left_requires_square():
    with pytest.raises(NonSquareError):
        real_rep_left(QuaternionMatrix.zeros(2, 3))


def test_real_rep_right_scalar_basics():
    np.testing.assert_allclose(real_rep_right_scalar(ONE, 3), np.eye(12), atol=0)
    got = real_rep_right_scalar(J, 1)
    np.testing.assert_allclose(got, right_action_matrix(J), atol=0)


def test_real_rep_right_scalar_contravariant_composition():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        lhs = real_rep_right_scalar(p, 2) @ real_rep_right_scalar(q, 2)
        rhs = real_rep_right_scalar(q * p, 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(
            1.0, p.modulus() * q.modulus())


def test_right_eigenvalues_examples():
    evs = right_eigenvalues(QuaternionMatrix.diagonal([Quaternion(1), Quaternion(0)]))
    assert [(round(e.re, 12), round(e.im, 12)) for e in evs] == [(0.0, 0.0), (1.0, 0.0)]

    evs = right_eigenvalues(QuaternionMatrix.diagonal([J, J]))
    assert len(evs) == 2
    for e in evs:
        assert e.re == pytest.approx(0.0, abs=1e-12)
        assert e.im == pytest.approx(1.0, abs=1e-12)

    evs = right_eigenvalues(QuaternionMatrix.zeros(3, 3))
    assert len(evs) == 3
    assert all(e.re == 0.0 and e.im == 0.0 for e in evs)

    # Two copies of 1 + 1e-6 j: a multiple class near the axis is real only
    # where 1 itself is an eigenvalue to SPHERE_REL, which it is not here.
    s = random_invertible_qmatrix(np.random.default_rng(12), 2)
    evs = right_eigenvalues(s @ QuaternionMatrix.diagonal([Quaternion(1.0, 0.0, 1e-6, 0.0)] * 2) @ inverse(s))
    assert [abs(complex(e.re, e.im) - complex(1.0, 1e-6)) <= 1e-12 for e in evs] == [True, True]


def test_conjugate_pairing_on_random_matrices():
    rng = np.random.default_rng(24)
    for trial in range(100):
        n = 1 + trial % 8
        a = random_qmatrix(rng, n)
        evs = right_eigenvalues(a)  # raises PairingFailureError on failure
        assert len(evs) == n


def test_pairing_rejects_non_conjugate_spectra():
    from quatpoly import PairingFailureError
    from quatpoly.linalg import _standard_classes

    # A lifted spectrum is always conjugate-closed; a fabricated one that
    # is not must be refused rather than silently averaged.
    for vals in (np.array([1.0 + 1.0j, 1.0 + 0.5j]), np.array([1.0j])):
        with pytest.raises(PairingFailureError):
            _standard_classes(vals, np.maximum(1.0, np.abs(vals)))


def test_mirrors_are_matched_in_rounds():
    from quatpoly.linalg import _standard_classes

    # The lift spectrum of a 1x1 cubic with three real zeros 1e-5 apart
    # behind a quaternion leading coefficient, as LAPACK returned it:
    # rounding scatters the six roots by about their gap.  By nearest mirror
    # alone the last root, a single one, took itself; matched in rounds
    # every root finds a mirror across the axis, and the classes lie within
    # the scatter of the zeros.
    x = 1.6968675860272966
    roots = x + 1e-5 * np.array([-0.5976409964 + 1.0516188537j, -0.2044272426 - 1.3760469539j,
                                 0.1612868639 + 1.5506757659j, 0.6950178765 - 1.6674073199j,
                                 2.9026231202 + 0.6157884663j, 3.0431403785 - 0.1746288121j])
    cx, cs, share, _ = _standard_classes(roots, np.maximum(1.0, np.abs(roots)))
    assert sorted(share[share > 0].tolist()) == [1, 1, 1]
    assert np.abs(cx[share > 0] - x).max() <= 4e-5 and cs[share > 0].max() <= 2e-5


def test_spectral_norm_examples():
    assert spectral_norm(QuaternionMatrix.identity(4)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(QuaternionMatrix.diagonal([I, J])) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(QuaternionMatrix.from_rows([[Quaternion(2)]])) == pytest.approx(2.0)
    # rectangular input works: the 2-norm of the rectangular lift
    assert spectral_norm(qvec([Quaternion(3), Quaternion(0, 4)])) == pytest.approx(5.0)


def test_spectral_norm_matches_lift_and_bounds_action():
    rng = np.random.default_rng(25)
    for _ in range(10):
        a = random_qmatrix(rng, 3)
        norm = spectral_norm(a)
        # Cross-check against the lift's largest singular value.
        reference = np.linalg.svd(complex_adjoint(a), compute_uv=False)[0]
        assert norm == pytest.approx(reference, rel=1e-10)
        for _ in range(5):
            x = random_unit_qvec(rng, 3)
            assert (a @ x).frobenius_norm() <= norm * (1.0 + 1e-10)


def test_inverse_examples():
    eye = QuaternionMatrix.identity(3)
    assert inverse(eye).allclose(eye, 1e-14)
    inv_j = inverse(QuaternionMatrix.from_rows([[J]]))
    assert inv_j.entry(0, 0).approx_eq(-J, 1e-14)
    with pytest.raises(SingularMatrixError):
        inverse(QuaternionMatrix.diagonal([Quaternion(1), Quaternion(0)]))


def _random_unitary(rng, n):
    """A complex unitary, a diagonal of unit quaternions, a complex unitary."""
    def complex_unitary():
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return QuaternionMatrix(q * (np.diag(r) / np.abs(np.diag(r))), np.zeros((n, n)))
    phases = QuaternionMatrix.diagonal([random_unit_quaternion(rng) for _ in range(n)])
    return complex_unitary() @ phases @ complex_unitary()


def _planted(rng, n, ratio):
    """U diag(sigma) V with sigma_max = 1, sigma_min = ratio, the rest between."""
    sigma = np.concatenate([[1.0], 10.0 ** rng.uniform(np.log10(ratio), 0.0, n - 2), [ratio]])
    return _random_unitary(rng, n) @ QuaternionMatrix.diagonal(sigma.tolist()) @ _random_unitary(rng, n)


@pytest.mark.parametrize("ratio, invertible", [(1e-9, True), (2e-12, True),
                                                (5e-13, False), (1e-14, False)])
def test_invertibility_is_decided_by_the_singular_values_of_the_lift(ratio, invertible):
    # Invertible means sigma_min / sigma_max above INVERTIBILITY_REL = 1e-12,
    # for inverse and for the coefficients eig and bounds must invert.  (A
    # nonzero 1 x 1 lift is |a| times a unitary, so n starts at 2.)
    rng = np.random.default_rng(1601)
    for trial in range(25):
        n = 2 + trial % 5
        eye = QuaternionMatrix.identity(n)
        a = _planted(rng, n, ratio)
        if invertible:
            inverse(a)
            companion(MatrixPolynomial([eye, a]))  # where eig inverts A_m
            eigenvalue_annulus(MatrixPolynomial([eye, a]))
            eigenvalue_annulus(MatrixPolynomial([a, eye]))
            continue
        with pytest.raises(SingularMatrixError):
            inverse(a)
        with pytest.raises(SingularLeadingCoefficientError):
            polyeig(MatrixPolynomial([eye, a]))
        with pytest.raises(SingularCoefficientError, match="leading"):
            eigenvalue_annulus(MatrixPolynomial([eye, a]))
        with pytest.raises(SingularCoefficientError, match="constant"):
            eigenvalue_annulus(MatrixPolynomial([a, eye]))


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(26)
    eye = QuaternionMatrix.identity(3)
    for _ in range(10):
        a = random_qmatrix(rng, 3)
        try:
            b = inverse(a)
        except SingularMatrixError:
            continue
        assert (a @ b - eye).max_entry_modulus() <= 1e-9 * max(
            1.0, a.frobenius_norm() * b.frobenius_norm())


def test_realification_singular_iff_zero_eigenvalue():
    rng = np.random.default_rng(27)
    for trial in range(30):
        n = 2 + trial % 2
        a = random_qmatrix(rng, n)
        if trial % 3 == 0:
            # Zero out a column: 0 becomes a right eigenvalue.
            a.a1[:, 0] = 0.0
            a.a2[:, 0] = 0.0
        status, _ = rank_decision(real_rep_left(a))
        has_zero = any(e.modulus() <= 1e-9 for e in right_eigenvalues(a))
        if status == "unknown":
            continue
        assert (status == "singular") == has_zero


def test_rank_decision_kernel_and_deadband():
    status, kernel = rank_decision(np.eye(4))
    assert status == "nonsingular" and kernel is None

    m = np.array([[1.0, 2.0, 3.0],
                  [2.0, 4.0, 6.0],
                  [0.0, 1.0, 1.0]])
    status, kernel = rank_decision(m)
    assert status == "singular"
    assert np.linalg.norm(m @ kernel) <= 1e-9 * np.linalg.norm(kernel)

    # Pivot inside the undecided band: refuse to guess.
    band_matrix = np.diag([1.0, 5e-11, 1.0, 1.0])
    status, kernel = rank_decision(band_matrix)
    assert status == "unknown" and kernel is None

    status, kernel = rank_decision(np.zeros((3, 3)))
    assert status == "singular"
    assert np.linalg.norm(kernel) > 0


def _rank_decision_row_loop(m):
    """Reference Gauss-Jordan that eliminates one row at a time."""
    work = np.array(m, dtype=float)
    n_rows, n_cols = work.shape
    tau = 1e-10 * float(np.max(np.sum(np.abs(work), axis=1)))
    if tau == 0.0:
        # The zero matrix is singular by fiat, with the first unit vector.
        return "singular", np.eye(n_cols)[0]
    pivot_rows, free_cols, r = [], [], 0
    for c in range(n_cols):
        if r == n_rows:
            free_cols.extend(range(c, n_cols))
            break
        p_rel = int(np.argmax(np.abs(work[r:, c])))
        p_val = abs(work[r + p_rel, c])
        if p_val > 10.0 * tau:
            work[[r, r + p_rel], :] = work[[r + p_rel, r], :]
            work[r, :] /= work[r, c]
            for rr in range(n_rows):
                if rr != r and work[rr, c] != 0.0:
                    work[rr, :] -= work[rr, c] * work[r, :]
            pivot_rows.append((r, c))
            r += 1
        elif p_val < tau / 10.0:
            work[r:, c] = 0.0
            free_cols.append(c)
        else:
            return "unknown", None
    if not free_cols:
        return "nonsingular", None
    kernel = np.zeros(n_cols)
    kernel[free_cols[0]] = 1.0
    for row, pc in pivot_rows:
        kernel[pc] = -work[row, free_cols[0]]
    return "singular", kernel


def _assert_kernel(m, kernel, ref_kernel):
    """A unit vector in the kernel of m; where the kernel is a line, the row
    loop's kernel vector up to sign."""
    assert np.linalg.norm(kernel) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(m @ kernel) <= 1e-12 * np.linalg.norm(m, 2)
    if m.shape[1] - np.linalg.matrix_rank(m) == 1:
        ref = ref_kernel / np.linalg.norm(ref_kernel)
        assert min(np.linalg.norm(kernel - ref), np.linalg.norm(kernel + ref)) <= 1e-10


def test_rank_decision_matches_row_loop_reference():
    rng = np.random.default_rng(29)
    statuses = set()
    for trial in range(24):
        n, rank = 4 + trial % 5, 2 + trial % 6
        m = rng.standard_normal((n, min(rank, n))) @ rng.standard_normal((min(rank, n), n))
        status, kernel = rank_decision(m)
        ref_status, ref_kernel = _rank_decision_row_loop(m)
        statuses.add(status)
        assert status == ref_status
        assert (kernel is None) == (ref_kernel is None)
        if kernel is not None:
            _assert_kernel(m, kernel, ref_kernel)
    assert statuses == {"singular", "nonsingular"}


def _mixed_stack(rng, n_rows, n_cols):
    """Full-rank, rank-deficient, dead-band, all-zero and tied-entry
    matrices of one shape, with signed zeros among the entries."""
    short = min(n_rows, n_cols)
    band = np.zeros((n_rows, n_cols))
    band[range(short), range(short)] = [1.0, 5e-11] + [1.0] * (short - 2)
    deficient = rng.standard_normal((n_rows, short - 1)) @ rng.standard_normal((short - 1, n_cols))
    ties = rng.integers(-2, 3, (n_rows, n_cols)).astype(float)
    ties[ties == 0.0] = -0.0
    signed = np.round(rng.standard_normal((n_rows, n_cols)))
    signed[:, 1] = 0.0
    signed[1::2, 1] = -0.0
    return np.stack([rng.standard_normal((n_rows, n_cols)), deficient, band,
                     np.zeros((n_rows, n_cols)), ties, signed,
                     -deficient, rng.standard_normal((n_rows, n_cols))])


@pytest.mark.parametrize("shape", [(4, 4), (6, 6), (4, 7), (3, 9), (7, 4)])
def test_rank_decisions_matches_row_loop_per_slice(shape):
    rng = np.random.default_rng(30)
    stack = _mixed_stack(rng, *shape)
    status, kernels = rank_decisions(stack, np.zeros(len(stack)))
    assert len(status) == len(kernels) == len(stack)
    seen = set()
    for index, (m, got, kernel) in enumerate(zip(stack, status, kernels)):
        ref_status, ref_kernel = _rank_decision_row_loop(m)
        one_status, one_kernel = rank_decision(m)
        seen.add(ref_status)
        if index == 2 and shape[1] > shape[0]:
            # A wide matrix always has a kernel; the row loop meets the band
            # pivot of the dead-band slice before it runs out of rows.
            assert ref_status == "unknown"
            ref_status = "singular"
        assert got == ref_status == one_status
        if ref_status != "singular":
            assert one_kernel is None and not kernel.any()
            continue
        assert np.array_equal(kernel, one_kernel)
        _assert_kernel(m, kernel, ref_kernel)
    assert {"singular", "unknown"} <= seen


@pytest.mark.parametrize("poison", [False, True], ids=["finite", "one-non-finite"])
def test_rank_decisions_leave_the_stack_untouched(monkeypatch, poison):
    # An all-finite stack goes to the certificate as it is, and the kernels
    # of its singular slices are read from it afterwards: nothing may write it.
    from quatpoly import linalg

    passed = []

    def cleared(stack, scale):
        passed.append(stack)
        return certify(stack, scale)

    certify = linalg._cleared
    monkeypatch.setattr(linalg, "_cleared", cleared)
    rng = np.random.default_rng(32)
    stack = _mixed_stack(rng, 6, 6)
    if poison:
        stack[0, 2, 3] = np.nan
    scale = np.where(rng.random(len(stack)) < 0.5, 0.0, 2.0)
    before = stack.copy()
    status, kernels = rank_decisions(stack, scale)
    assert np.array_equal(stack.view(np.uint64), before.view(np.uint64))
    assert (passed[0] is stack) is not poison
    for b in range(len(stack)):
        one_status, one_kernel = rank_decisions(before[b:b + 1], scale[b:b + 1])
        assert status[b] == one_status[0]
        assert np.array_equal(kernels[b].view(np.uint64), one_kernel[0].view(np.uint64))
    assert {"nonsingular", "singular", "unknown"} <= set(status)


def _planted_realified_operator(rng, n, mu):
    """Realified action y -> sum_i A_i y mu^i of a random quadratic whose
    A_0 is corrected so that a random y lies in its kernel."""
    coeffs = [random_qmatrix(rng, n) for _ in range(3)]
    op = sum(real_rep_left(a) @ real_rep_right_scalar(power, n)
             for a, power in zip(coeffs, [ONE, mu, mu * mu]))
    y = rng.standard_normal(4 * n)
    # A_0 - (P(mu) y) y* / |y|^2 sends y to -sum_{i>0} A_i y mu^i.
    correction = vec4_to_qvec(op @ y) @ vec4_to_qvec(y).adjoint()
    return op - real_rep_left(correction * (1.0 / float(y @ y)))


@pytest.mark.parametrize("real", [False, True], ids=["non-real", "real"])
def test_rank_decision_witness_ignores_the_null_space_basis(real):
    # A non-real eigenvalue leaves a kernel of real dimension 2, a real one
    # of dimension 4 (y q for every q commuting with mu); an orthogonal
    # change of rows keeps that space and must keep the witness.  At a real
    # eigenvalue n starts at 2: a 1 x 1 polynomial vanishes there outright,
    # which leaves the realified action as pure rounding noise.
    rng = np.random.default_rng(41)
    for trial in range(100):
        n = 2 + trial % 4 if real else 1 + trial % 5
        mu = Quaternion(rng.standard_normal()) if real else random_quaternion(rng)
        m = _planted_realified_operator(rng, n, mu)
        sigma = np.linalg.svd(m, compute_uv=False)
        assert np.sum(sigma < 1e-10 * sigma[0]) == (4 if real else 2)
        q, _ = np.linalg.qr(rng.standard_normal((4 * n, 4 * n)))
        status, kernel = rank_decision(m)
        rotated_status, rotated = rank_decision(q @ m)
        assert status == rotated_status == "singular"
        assert np.linalg.norm(rotated - kernel) <= 1e-12


def test_rank_decisions_refuse_non_finite_and_overflowing_matrices():
    huge = np.full((4, 4), 1.7e308)
    huge[0, 1] = -1.7e308
    stack = np.stack([np.diag([np.nan, 1.0, 1.0, 1.0]), np.diag([np.inf, 0.0, 1.0, 1.0]),
                      huge, np.diag([1.0, 1.0, 1.0, 0.0])])
    status, kernels = rank_decisions(stack, np.zeros(4))
    # The finite entries of huge give a largest singular value beyond the
    # float range, which no threshold can be scaled by.
    assert list(status) == ["unknown", "unknown", "unknown", "singular"]
    assert not kernels[:3].any() and np.array_equal(kernels[3], np.eye(4)[3])


def test_rank_decisions_of_an_empty_stack():
    status, kernels = rank_decisions(np.zeros((0, 3, 3)), np.zeros(0))
    assert status.shape == (0,) and kernels.shape == (0, 3)


def _planted_stack(rng, n, ratios):
    """U diag(sigma) V^T per ratio, sigma descending from 1 to the ratio."""
    out = []
    for ratio in ratios:
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = np.sort(np.concatenate([[1.0, ratio], 10 ** rng.uniform(np.log10(ratio), 0, n - 2)]))
        out.append((u * sigma[::-1]) @ v.T)
    return np.stack(out)


def _svd_only(monkeypatch, stack, scale):
    """rank_decisions with no slice cleared: every finite slice takes the SVD."""
    from quatpoly import linalg
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_cleared", lambda s, _scale: np.zeros(len(s), dtype=bool))
        return rank_decisions(stack, scale)


def _svd_slices(monkeypatch):
    """A list that gets the slice count of every stacked SVD made in linalg:
    those of rank_decisions, not the one-matrix SVD of a kernel."""
    from quatpoly import linalg
    counts = []
    original = linalg.singular_values

    def counting(stack, **kwargs):
        if np.ndim(stack) == 3:
            counts.append(len(stack))
        return original(stack, **kwargs)

    monkeypatch.setattr(linalg, "singular_values", counting)
    return counts


# The least singular value at the dead band's two edges, the clearing
# threshold, and either side of each, in units of sigma_max.
_EDGES = [1e-14, 1e-12, 9e-12, 1e-11, 1.1e-11, 3e-11, 9e-10, 1e-9, 1.1e-9, 5e-9, 1e-8,
          2e-8, 5e-8, 1e-7, 1e-6, 1e-4, 1e-2]


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("with_scale", [False, True], ids=["own-size", "term-scale"])
def test_cleared_slices_decide_as_the_svd(monkeypatch, n, with_scale):
    rng = np.random.default_rng(50 + n)
    ratios = np.concatenate([_EDGES, 10 ** rng.uniform(-14, -2, 40)])
    stack = _planted_stack(rng, n, ratios)
    scale = 10 ** rng.uniform(-1, 2, len(stack)) if with_scale else np.zeros(len(stack))
    counts = _svd_slices(monkeypatch)
    status, kernels = rank_decisions(stack, scale)
    ref_status, ref_kernels = _svd_only(monkeypatch, stack, scale)
    assert list(status) == list(ref_status)
    assert np.array_equal(kernels, ref_kernels)
    assert set(status) == {"nonsingular", "singular", "unknown"}
    # The well-conditioned slices were cleared without an SVD.
    assert counts[0] <= len(stack) - np.sum(ratios >= 1e-6)


def test_an_exactly_singular_slice_clears_nothing(monkeypatch):
    # A singular slice fails its own factorization and takes the SVD alone;
    # the others clear beside it.
    rng = np.random.default_rng(51)
    stack = _planted_stack(rng, 8, [1e-1, 1e-3, 1e-2])
    stack[1, :, 3] = 0.0
    stack = np.concatenate([stack, np.diag([1.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])[None]])
    counts = _svd_slices(monkeypatch)
    status, kernels = rank_decisions(stack, np.zeros(len(stack)))
    assert list(status) == ["nonsingular", "singular", "nonsingular", "singular"]
    assert counts == [2]
    assert np.array_equal(kernels[3], np.eye(8)[2])


def test_non_finite_slices_stay_unknown_beside_cleared_ones(monkeypatch):
    rng = np.random.default_rng(52)
    stack = _planted_stack(rng, 8, [1e-1, 1e-2, 1e-3, 1e-1])
    stack[1, 2, 5] = np.nan
    stack[3, 0, 0] = -np.inf
    counts = _svd_slices(monkeypatch)
    status, kernels = rank_decisions(stack, np.ones(4))
    assert list(status) == ["nonsingular", "unknown", "nonsingular", "unknown"]
    assert not kernels.any() and counts == []


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_cleared_decisions_survive_extreme_scales_silently(monkeypatch, exponent):
    rng = np.random.default_rng(53)
    ratios = [1e-1, 1e-4, 5e-9, 3e-11, 1e-13, 1e-2, 1e-7, 1.1e-9]
    stack = _planted_stack(rng, 8, ratios)
    scale = 10 ** rng.uniform(-1, 1, len(stack))
    counts = _svd_slices(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for plain in (np.zeros(len(stack)), scale):
            status, _ = rank_decisions(stack, plain)
            scaled = np.ldexp(plain, exponent)
            got_status, got_kernels = rank_decisions(np.ldexp(stack, exponent), scaled)
            # As many slices cleared at 2^exponent as at 1, four of them.
            assert counts[-2:] == [4, 4]
            ref_status, ref_kernels = _svd_only(monkeypatch, np.ldexp(stack, exponent), scaled)
            assert list(got_status) == list(status) == list(ref_status)
            assert np.array_equal(got_kernels, ref_kernels)


@pytest.mark.parametrize("n", [4, 12, 32])
@pytest.mark.parametrize("with_scale", [False, True], ids=["own-size", "term-scale"])
def test_the_cholesky_certificate_is_sound_and_useful(monkeypatch, n, with_scale):
    # sigma_min / ||M||_F log-uniform over [1e-11, 1e-5]: across the dead band
    # [theta / RANK_BAND^2, theta] below the claim sigma_min > theta, and
    # across the band that squaring puts out of the certificate's reach.  The
    # Gram product's rounding lifts about one dead-band slice in a hundred
    # over theta^2: many slices, so that a shift of theta^2 alone shows.
    from quatpoly import linalg
    rng = np.random.default_rng(55 + n)
    count = 1500
    ratio = 10 ** rng.uniform(-11, -5, count)
    u, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    rest = np.concatenate([np.ones((count, 1)), 10 ** rng.uniform(-4, 0, (count, n - 2))], axis=1)
    least = ratio * np.linalg.norm(rest, axis=1) / np.sqrt(1.0 - ratio * ratio)
    stack = (u * np.append(rest, least[:, None], axis=1)[:, None]) @ np.swapaxes(v, 1, 2)
    fro = np.linalg.norm(stack, axis=(1, 2))
    scale = fro * 10 ** rng.uniform(-1, 1, len(stack)) if with_scale else np.zeros(len(stack))
    sigma_min = np.linalg.svd(stack, compute_uv=False)[:, -1]
    theta = RANK_BAND * RANK_BAND * RANK_PIVOT_REL * np.maximum(fro, scale)
    dead_band = (sigma_min >= theta / RANK_BAND ** 2) & (sigma_min <= theta)
    reachable = sigma_min >= 1e-6 * fro
    assert dead_band.sum() >= 10 and reachable.sum() >= 10
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for exponent in (0, -1000, 1000):
            scaled, scaled_scale = np.ldexp(stack, exponent), np.ldexp(scale, exponent)
            cleared = linalg._cleared(scaled, scaled_scale)
            ref_status, _ = _svd_only(monkeypatch, scaled, scaled_scale)
            assert set(ref_status[cleared]) == {"nonsingular"}
            assert not (cleared & (sigma_min <= theta)).any()
            assert cleared[reachable].all()


def test_a_finite_set_sweep_clears_most_operators(monkeypatch):
    rng = np.random.default_rng(54)
    p = random_polynomial(rng, 2, 2)
    points = [random_quaternion(rng) for _ in range(200)]
    assert p.lift_sigma.shape == (3, 4)  # the coefficient lifts' SVD, taken before counting
    counts = _svd_slices(monkeypatch)
    verdict = check_stability(p, Region.finite_set(points))
    assert verdict.status is StabilityStatus.STABLE
    assert sum(counts) < 0.1 * len(points)


def test_vec4_roundtrip():
    rng = np.random.default_rng(28)
    v = random_unit_qvec(rng, 3)
    back = vec4_to_qvec(vec4(v))
    assert (back - v).max_entry_modulus() <= 1e-15


def test_qvec_and_entries():
    v = qvec([ONE, J])
    entries = vec_entries(v)
    assert entries[0].approx_eq(ONE, 0.0)
    assert entries[1].approx_eq(J, 0.0)
    assert v.adjoint().shape == (1, 2)
