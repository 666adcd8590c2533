import numpy as np
import pytest

from quatpoly import (
    NonSquareError,
    Quaternion,
    QuaternionMatrix,
    SingularMatrixError,
    complex_adjoint,
    inverse,
    qvec,
    rank_decision,
    rank_decisions,
    real_rep_left,
    real_rep_right_scalar,
    right_eigenvalues,
    spectral_norm,
    vec4,
    vec4_to_qvec,
    vec_entries,
)
from quatpoly.quaternion import left_action_matrix, right_action_matrix
from _helpers import random_qmatrix, random_quaternion, random_unit_qvec

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


def test_conjugate_pairing_on_random_matrices():
    rng = np.random.default_rng(24)
    for trial in range(100):
        n = 1 + trial % 8
        a = random_qmatrix(rng, n)
        evs = right_eigenvalues(a)  # raises PairingFailureError on failure
        assert len(evs) == n


def test_pairing_rejects_non_conjugate_spectra():
    from quatpoly import PairingFailureError
    from quatpoly.linalg import _pair_conjugates

    # A lifted spectrum is always conjugate-closed; a fabricated one that
    # is not must be refused rather than silently averaged.
    vals = np.array([1.0 + 1.0j, 1.0 + 0.5j])
    with pytest.raises(PairingFailureError):
        _pair_conjugates(vals, tol=1e-6)
    with pytest.raises(PairingFailureError):
        _pair_conjugates(np.array([1.0j]), tol=1e-6)


def test_right_eigenpairs_satisfy_eigen_relation():
    from quatpoly import right_eigenpairs

    rng = np.random.default_rng(29)
    for _ in range(10):
        a = random_qmatrix(rng, 3)
        scale = max(a.frobenius_norm(), 1.0)
        for ev, v in right_eigenpairs(a):
            # A v = v mu for the lifted representative.
            lhs = a @ v
            rhs = v.scale_right(ev.lift())
            assert (lhs - rhs).frobenius_norm() <= 1e-8 * scale * v.frobenius_norm()


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
    status, kernels = rank_decisions(stack)
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
    status, kernels = rank_decisions(stack)
    # The finite entries of huge give a largest singular value beyond the
    # float range, which no threshold can be scaled by.
    assert list(status) == ["unknown", "unknown", "unknown", "singular"]
    assert not kernels[:3].any() and np.array_equal(kernels[3], np.eye(4)[3])


def test_rank_decisions_of_an_empty_stack():
    status, kernels = rank_decisions(np.zeros((0, 3, 3)))
    assert status.shape == (0,) and kernels.shape == (0, 3)


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
