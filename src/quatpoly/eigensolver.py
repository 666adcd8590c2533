"""Dense kernels behind one seam, backed by LAPACK through numpy.

Eigenvalues (no eigenvectors) of one matrix or of every matrix of a
(..., n, n) stack come from one batched ``zgeev`` call, the singular values
(and on request the right singular vectors) of a stack of real or complex
matrices from one batched ``dgesdd`` or ``zgesdd`` call, solutions and
inverses from ``gesv``, and whether the Cholesky factorization of each
slice of a real stack completes from one batched ``potrf`` call that
reports every slice on its own (``linalg._cleared`` proves sigma_min bounds
with it); every ``LinAlgError`` but a singular solve is reported as
NoConvergenceError.
Spectral norms and the package-wide invertibility test are read off
``singular_values`` (``linalg.lift_singular_values``).  One LU kernel with a
pivot floor stays in Python for shifted inverse iteration against a matrix
that is singular by design; no command calls it.  ``tests/_qr_reference.py``
holds the plain QR eigensolver LAPACK is checked against.  Everything is
deterministic for a fixed input.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergenceError, NonSquareError
from .tolerances import INVERSE_ITERATION_REL, SCALE_FLOOR

_EPS = float(np.finfo(np.float64).eps)

MAX_DIM = 512


def _checked(a: np.ndarray) -> np.ndarray:
    # The cap bounds the matrix axes; a stack may hold any number of matrices.
    if max(a.shape[-2:]) > MAX_DIM:
        raise ValueError(f"matrix dimension {max(a.shape[-2:])} exceeds the desk-scale cap {MAX_DIM}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains non-finite entries")
    return a


def _as_square(matrix, dtype=np.complex128) -> np.ndarray:
    a = np.asarray(matrix, dtype=dtype)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return _checked(a)


@contextmanager
def _lapack(task: str):
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK {task} failed: {exc}") from exc


def eig_complex(matrix):
    """All eigenvalues of a dense complex matrix, or of every matrix of a
    (..., n, n) stack, sorted by (real, imag) along the last axis.  A stack is
    solved slice by slice in one batched values-only ``zgeev`` call, and each
    slice comes out bit for bit as from a call of its own.
    """
    a = _as_square(matrix)
    with _lapack("eigensolver"):
        vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def solve(stack, rhs) -> np.ndarray:
    """x with A x = b for every matrix A of a (..., n, n) stack, b of ``rhs`` (..., n),
    from one batched ``gesv`` call.  Singularity raises and warns of nothing: a
    slice with an exactly zero pivot, which makes numpy refuse the whole stack,
    comes back NaN, the others solved one by one; an overflow comes back non-finite."""
    a = _as_square(stack)
    b = np.broadcast_to(np.asarray(rhs, dtype=np.complex128), a.shape[:-1])[..., None]
    with np.errstate(all="ignore"):
        try:
            return np.linalg.solve(a, b)[..., 0]
        except np.linalg.LinAlgError:
            if a.ndim == 2:
                return np.full(len(a), np.nan, dtype=np.complex128)
    n = a.shape[-1]
    return np.array([solve(*ab) for ab in zip(a.reshape(-1, n, n), b.reshape(-1, n))]).reshape(b.shape[:-1])


def singular_values(stack, *, vectors: bool = False):
    """Descending singular values of every matrix in a real or complex (..., m, n) stack.

    With ``vectors=True`` returns (values, vt), the rows of each n x n slice
    of vt being the (conjugated) right singular vectors in the order of the
    values.
    """
    a = _checked(np.asarray(stack, dtype=np.complex128 if np.iscomplexobj(stack) else np.float64))
    with _lapack("singular value decomposition"):
        if vectors:
            _, values, vt = np.linalg.svd(a)
            return values, vt
        return np.linalg.svd(a, compute_uv=False)


def cholesky_completes(stack) -> np.ndarray:
    """Whether LAPACK's lower Cholesky factorization (``potrf``) of each
    matrix of a finite real (..., n, n) stack runs to completion, every
    pivot positive, from one batched call; only the lower triangle is read.
    A slice that fails is False alone: numpy's ``cholesky_lo`` gufunc hands
    it back as NaN where ``np.linalg.cholesky`` would refuse the whole stack.
    """
    a = _as_square(stack, np.float64)
    with np.errstate(invalid="ignore"):
        return ~np.isnan(_umath_linalg.cholesky_lo(a)[..., 0, 0])


def lu_factor(a: np.ndarray, *, pivot_floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting.

    ``pivot_floor`` > 0 replaces smaller pivots (used by inverse iteration,
    where the shifted matrix is singular by design).
    """
    lu = np.array(a, dtype=np.complex128)
    n = lu.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
            piv[[k, p]] = piv[[p, k]]
        pivot = lu[k, k]
        if abs(pivot) < pivot_floor:
            phase = 1.0 if pivot == 0 else pivot / abs(pivot)
            pivot = pivot_floor * phase
            lu[k, k] = pivot
        if k + 1 < n:
            lu[k + 1:, k] /= pivot
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = lu.shape[0]
    x = np.array(b, dtype=np.complex128)[piv]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def inverse_complex(a: np.ndarray) -> np.ndarray:
    """Dense complex inverse from one ``gesv`` call; invertibility is the
    caller's test, and a matrix LAPACK refuses raises NoConvergenceError."""
    a = _as_square(a)
    with _lapack("solve"):
        return np.linalg.inv(a)


def eigenvector(matrix, eigenvalue: complex) -> tuple[np.ndarray, float]:
    """Unit eigenvector for a known eigenvalue, via shifted inverse iteration.

    Returns (vector, residual) where residual = ||M v - lambda v||.  Tiny
    pivots of the shifted matrix are floored at eps * ||M|| so the solve
    stays finite; three solves from each of four deterministic starts guard
    against a start vector orthogonal to the eigenspace.
    """
    a = _as_square(matrix)
    n = a.shape[0]
    scale = np.linalg.norm(a)
    shifted = a - complex(eigenvalue) * np.eye(n, dtype=np.complex128)
    floor = _EPS * max(scale, SCALE_FLOOR)
    lu, piv = lu_factor(shifted, pivot_floor=floor)
    best_vec = None
    best_res = math.inf
    for attempt in range(4):
        if attempt == 0:
            v = np.ones(n, dtype=np.complex128) / math.sqrt(n)
        else:
            rng = np.random.default_rng(1009 + attempt)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
        for _ in range(3):
            v = lu_solve(lu, piv, v)
            nv = np.linalg.norm(v)
            if not np.isfinite(nv) or nv == 0.0:
                break
            v /= nv
        else:
            res = float(np.linalg.norm(a @ v - complex(eigenvalue) * v))
            if res < best_res:
                best_res = res
                best_vec = v
            if res <= INVERSE_ITERATION_REL * max(scale, 1.0):
                break
    if best_vec is None:
        raise NoConvergenceError("inverse iteration produced no finite vector")
    return best_vec, best_res
