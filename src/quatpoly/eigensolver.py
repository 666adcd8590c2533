"""Dense kernels behind one seam, backed by LAPACK through numpy.

Eigenvalues, with or without eigenvectors, of one matrix or of every matrix
of a (..., n, n) stack come from one batched ``zgeev`` call, the spectral
norm from ``zgesdd``, the singular values (and on request the right
singular vectors) of a stack of real or complex matrices from one batched
``dgesdd`` or ``zgesdd`` call, inverses from ``gesv``; every
``LinAlgError`` is reported as NoConvergenceError.  Two LU kernels stay in
Python because they need the pivots LAPACK does not expose: one with a pivot
threshold (the package-wide invertibility test) and one with a pivot floor
(shifted inverse iteration against a matrix that is singular by design).
``tests/_qr_reference.py`` holds the plain QR eigensolver LAPACK is checked
against.  Everything is deterministic for a fixed input.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import NoConvergenceError, NonSquareError, SingularMatrixError
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


def _as_square(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return _checked(a)


@contextmanager
def _lapack(task: str):
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK {task} failed: {exc}") from exc


def eig_complex(matrix, *, vectors: bool = False):
    """All eigenvalues of a dense complex matrix, or of every matrix of a
    (..., n, n) stack, sorted by (real, imag) along the last axis.

    With ``vectors=True`` returns (values, vectors): the unit eigenvector
    columns, permuted alike, from the same single LAPACK call.  A stack is
    solved slice by slice in one batched call, and each slice comes out bit
    for bit as from a call of its own.
    """
    a = _as_square(matrix)
    with _lapack("eigensolver"):
        if vectors:
            vals, vecs = np.linalg.eig(a)
        else:
            vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    if vectors:
        return (np.take_along_axis(vals, order, axis=-1),
                np.take_along_axis(vecs, order[..., None, :], axis=-1))
    return np.take_along_axis(vals, order, axis=-1)


def norm2(matrix) -> float:
    """Largest singular value of a dense complex matrix, any shape."""
    a = np.array(matrix, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    a = _checked(a)
    with _lapack("singular value decomposition"):
        return float(np.linalg.norm(a, 2))


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


def lu_factor(a: np.ndarray, *, min_pivot: float = 0.0,
              pivot_floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting.

    ``min_pivot`` > 0 raises SingularMatrixError on any smaller pivot;
    ``pivot_floor`` > 0 instead replaces tiny pivots (used by inverse
    iteration where the shifted matrix is singular by design).
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
        if pivot_floor > 0.0:
            if abs(pivot) < pivot_floor:
                phase = 1.0 if pivot == 0 else pivot / abs(pivot)
                pivot = pivot_floor * phase
                lu[k, k] = pivot
        elif abs(pivot) <= min_pivot:
            raise SingularMatrixError(
                f"pivot magnitude {abs(pivot):.3e} at step {k} is below threshold {min_pivot:.3e}")
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


def inverse_complex(a: np.ndarray, min_pivot: float) -> np.ndarray:
    """Dense inverse; SingularMatrixError when an LU pivot is below ``min_pivot``.

    The pivot test runs on the in-repo LU; the inverse itself is one LAPACK
    solve.
    """
    a = _as_square(a)
    lu_factor(a, min_pivot=min_pivot)
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
