"""The LAPACK seam, its Python LU kernels, and the test-side QR reference.

Tests that exercise balancing, Hessenberg reduction and QR sweeps run
against ``qr_eig`` from ``_qr_reference``; the seam's ``eig_complex`` is
compared with it on lifted and characteristic-polynomial companions.
"""

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from _helpers import random_polynomial, random_quaternion
from _qr_reference import qr_eig
from _reference import monic

from quatpoly import (
    NoConvergenceError,
    NonSquareError,
    QuaternionMatrix,
    ScalarQPolynomial,
    SingularMatrixError,
    companion,
    complex_adjoint,
    eig_complex,
    inverse,
    scalar_char_poly,
    spectral_norm,
)
from quatpoly.eigensolver import (MAX_DIM, cholesky_completes, eigenvector, inverse_complex, lu_factor,
                                  lu_solve, singular_values, solve)


def sorted_vals(vals):
    return np.array(sorted(vals, key=lambda z: (z.real, z.imag)))


def assert_spectra_match(mine, reference, tol):
    mine = sorted_vals(mine)
    reference = sorted_vals(reference)
    assert mine.shape == reference.shape
    assert np.max(np.abs(mine - reference)) <= tol


def test_rotation_block():
    vals = qr_eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_spectra_match(vals, [1j, -1j], 1e-12)


def test_diagonal():
    vals = qr_eig(np.diag([1.0, 0.0]))
    assert_spectra_match(vals, [1.0, 0.0], 1e-14)


def test_companion_of_quadratic():
    # z^2 + z - 1: roots (-1 +- sqrt(5)) / 2
    comp = np.array([[0.0, 1.0], [1.0, -1.0]])
    vals = qr_eig(comp)
    golden = np.sqrt(5.0)
    assert_spectra_match(vals, [(-1 + golden) / 2, (-1 - golden) / 2], 1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_matches_library_eigensolver(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mine = qr_eig(a)
        reference = np.linalg.eigvals(a)
        assert_spectra_match(mine, reference, 1e-8 * np.linalg.norm(a))


def test_hermitian_eigenvalues_real():
    rng = np.random.default_rng(200)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    vals = qr_eig(h)
    assert np.max(np.abs(vals.imag)) <= 1e-10 * np.linalg.norm(h)
    assert_spectra_match(vals, np.linalg.eigvalsh(h), 1e-8 * np.linalg.norm(h))


def test_defective_jordan_block():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    vals = qr_eig(a)
    assert np.max(np.abs(vals - 1.0)) <= 1e-6


def test_badly_scaled_matrix_balanced():
    rng = np.random.default_rng(300)
    a = rng.standard_normal((5, 5))
    d = np.diag([1e-6, 1e-3, 1.0, 1e3, 1e6])
    scaled = np.linalg.solve(d, a) @ d
    assert_spectra_match(qr_eig(scaled), np.linalg.eigvals(a),
                         1e-7 * np.linalg.norm(a))


def test_eigenvector_residuals():
    rng = np.random.default_rng(400)
    for n in (3, 6, 9):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scale = np.linalg.norm(a)
        for lam in eig_complex(a):
            v, res = eigenvector(a, lam)
            assert res <= 1e-8 * scale
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * scale * np.linalg.norm(v)


def test_eigenvector_for_multiple_eigenvalue():
    a = np.diag([2.0, 2.0, 5.0]).astype(complex)
    v, res = eigenvector(a, 2.0)
    assert res <= 1e-10
    assert abs(v[2]) <= 1e-8


def test_no_convergence_on_exhausted_sweep_budget():
    rng = np.random.default_rng(600)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.raises(NoConvergenceError):
        qr_eig(a, max_sweeps_per_dim=0)


def test_shape_and_size_guards():
    with pytest.raises(NonSquareError):
        eig_complex(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eig_complex(np.zeros((513, 513)))
    with pytest.raises(ValueError):
        eig_complex(np.array([[np.nan, 0], [0, 1.0]]))


def test_lu_solve_roundtrip():
    rng = np.random.default_rng(500)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_inverse_complex_and_singularity():
    rng = np.random.default_rng(501)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    inv = inverse_complex(a)
    assert np.linalg.norm(a @ inv - np.eye(5)) <= 1e-9
    with pytest.raises(NoConvergenceError):
        inverse_complex(np.zeros((2, 2)))
    # The invertibility test is linalg.inverse's, on the singular values of the lift.
    singular = QuaternionMatrix(np.ones((3, 3)), np.zeros((3, 3)))
    with pytest.raises(SingularMatrixError):
        inverse(singular)


def nearest_gap(mine, reference):
    """Largest distance from a value of either spectrum to the other."""
    d = np.abs(np.asarray(mine)[:, None] - np.asarray(reference)[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _char_poly_companion(poly):
    c = scalar_char_poly(monic(poly))
    d = len(c) - 1
    comp = np.zeros((d, d))
    comp[np.arange(d - 1), np.arange(1, d)] = 1.0
    comp[-1, :] = -np.array(c[:-1])
    return comp


def test_seam_matches_qr_reference():
    rng = np.random.default_rng(2024)
    matrices = [np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([1.0, 0.0]),
                np.array([[1.0, 1.0], [0.0, 1.0]])]
    for n in range(1, 9):
        for m in range(1, 4):
            p = random_polynomial(rng, n, m, invertible_ends=True)
            matrices.append(complex_adjoint(companion(p)))
    for m in range(1, 7):
        coeffs = [random_quaternion(rng) for _ in range(m + 1)]
        matrices.append(_char_poly_companion(ScalarQPolynomial(coeffs)))
    for a in matrices:
        mine, reference = eig_complex(a), qr_eig(a)
        assert mine.shape == reference.shape
        assert nearest_gap(mine, reference) <= 1e-10 * max(np.linalg.norm(a), 1.0)


@pytest.mark.parametrize("shape", [(1, 4, 4), (9, 6, 6), (2, 3, 5, 5)])
def test_a_stack_equals_its_slices_bit_for_bit(shape):
    rng = np.random.default_rng(710)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[0, ..., 0, :] = stack[0, ..., 1, :]  # a singular slice
    slices = stack.reshape(-1, *shape[-2:])
    vals = eig_complex(stack)
    assert vals.shape == shape[:-1]
    assert np.array_equal(vals.reshape(len(slices), -1), [eig_complex(m) for m in slices])


def test_lapack_failure_is_no_convergence(monkeypatch):
    # One failing LAPACK call for each seam function that makes one.
    def failing(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    monkeypatch.setattr(np.linalg, "svd", failing)
    monkeypatch.setattr(np.linalg, "inv", failing)
    with pytest.raises(NoConvergenceError):
        inverse_complex(np.eye(3))
    with pytest.raises(NoConvergenceError):
        spectral_norm(QuaternionMatrix.identity(3))
    with pytest.raises(NoConvergenceError):
        eig_complex(np.eye(3))
    with pytest.raises(NoConvergenceError):
        singular_values(np.eye(3)[None])
    with pytest.raises(NoConvergenceError):
        singular_values(np.eye(3), vectors=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_hands_back_singular_slices_as_nan():
    rng = np.random.default_rng(720)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    b = np.exp(1j * np.arange(4))
    x = solve(stack, b)
    assert np.allclose(np.einsum("kij,kj->ki", stack, x), b)
    # One exactly singular slice: numpy refuses the whole batch, the others
    # are still solved, each as on its own; a huge one overflows quietly.
    stack[2, 3] = 0.0
    stack[4] *= 1e-310
    x = solve(stack, b)
    assert np.isnan(x[2]).all() and not np.isfinite(x[4]).all()
    for k in (0, 1, 3):
        assert np.array_equal(x[k], solve(stack[k], b))
        assert np.allclose(stack[k] @ x[k], b)
    assert np.isnan(solve(np.zeros((1, 1)), [1.0])).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_failed_cholesky_slice_fails_alone():
    rng = np.random.default_rng(722)
    a = rng.standard_normal((6, 5, 5))
    stack = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    stack[1] = (q * [3.0, 2.0, 1.0, -1e-3, 1.0]) @ q.T  # indefinite
    stack[4, 2, :] = stack[4, :, 2] = 0.0  # exactly singular: a zero pivot
    assert list(cholesky_completes(stack)) == [True, False, True, True, False, True]
    assert [bool(cholesky_completes(m)) for m in stack] == [True, False, True, True, False, True]
    # numpy's gufunc hands a failed slice back as NaN, alone; the public
    # routine refuses the whole stack.
    with np.errstate(invalid="ignore"):
        factors = _umath_linalg.cholesky_lo(stack)
    assert np.isnan(factors[[1, 4]]).all() and np.isfinite(factors[[0, 2, 3, 5]]).all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    # Only the lower triangle is read.
    upper = stack + np.triu(np.full((5, 5), 7.0), 1)
    assert list(cholesky_completes(upper)) == [True, False, True, True, False, True]
    stack[3, 0, 0] = np.nan
    with pytest.raises(ValueError):
        cholesky_completes(stack)


def test_singular_values_of_a_stack():
    # The dimension cap bounds each matrix, not the number of matrices.
    rng = np.random.default_rng(701)
    stack = rng.standard_normal((MAX_DIM + 1, 5, 3))
    values = singular_values(stack)
    values_too, vt = singular_values(stack, vectors=True)
    assert values.shape == (MAX_DIM + 1, 3) and vt.shape == (MAX_DIM + 1, 3, 3)
    assert np.allclose(values, values_too)
    assert np.allclose(values[7], np.linalg.svd(stack[7], compute_uv=False))
    assert np.allclose(np.linalg.norm(stack[7] @ vt[7].T, axis=0), values[7])
    with pytest.raises(ValueError):
        singular_values(np.zeros((1, MAX_DIM + 1, 2)))
    # A complex stack is not cast to its real part.
    lifted = stack[:4] + 1j * rng.standard_normal((4, 5, 3))
    values, vt = singular_values(lifted, vectors=True)
    assert np.allclose(values[2], np.linalg.svd(lifted[2], compute_uv=False))
    assert np.allclose(np.linalg.norm(lifted[2] @ vt[2].conj().T, axis=0), values[2])

