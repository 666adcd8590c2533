"""Independent numpy reference for quaternion matrix polynomials.

Nothing here imports quatpoly: the benchmark checks the program's outputs
against these routines.  A quaternion is a length-4 array [w, x, y, z], a
quaternion matrix an (n, n, 4) array, a vector an (n, 4) array.  Spectra come
from ``numpy.linalg.eigvals`` of the block companion of the complex-lifted
coefficients; singularity of the action y -> sum_i A_i y mu^i comes from the
singular values of its realified 4n x 4n matrix.
"""

from __future__ import annotations

import math

import numpy as np


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product over the last axis, broadcasting the rest."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def qconj(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def qpow(mu: np.ndarray, i: int) -> np.ndarray:
    out = np.zeros_like(mu)
    out[..., 0] = 1.0
    for _ in range(i):
        out = qmul(out, mu)
    return out


def matvec(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A y for A of shape (..., n, n, 4) and y of shape (..., n, 4)."""
    return qmul(a, y[..., None, :, :]).sum(axis=-2)


def chi(a: np.ndarray) -> np.ndarray:
    """Complex lift [[A1, A2], [-conj(A2), conj(A1)]] with A = A1 + A2 j."""
    a1 = a[..., 0] + 1j * a[..., 1]
    a2 = a[..., 2] + 1j * a[..., 3]
    return np.block([[a1, a2], [-np.conj(a2), np.conj(a1)]])


def lift_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """The 2mn eigenvalues of sum_i chi(A_i) t^i (leading coefficient invertible)."""
    lifted = [chi(a) for a in coeffs]
    m = len(lifted) - 1
    d = lifted[0].shape[0]
    comp = np.zeros((m * d, m * d), dtype=complex)
    comp[:-d, d:] = np.eye((m - 1) * d)
    lead = lifted[-1]
    for i in range(m):
        comp[-d:, i * d:(i + 1) * d] = -np.linalg.solve(lead, lifted[i])
    return np.linalg.eigvals(comp)


def standard_classes(vals: np.ndarray) -> np.ndarray:
    """Class representatives (re, im >= 0), one per conjugate pair of lift values."""
    reps = sorted((float(v.real), abs(float(v.imag))) for v in vals)
    return np.array(reps[0::2])


def class_extremes(classes: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest distance from the center to each class sphere."""
    gap = classes[:, 0] - center[0]
    v = math.hypot(*center[1:])
    return np.hypot(gap, np.abs(classes[:, 1] - v)), np.hypot(gap, classes[:, 1] + v)


def _left(a: np.ndarray) -> np.ndarray:
    """Realified y -> A y as (4n out, n, 4 in)."""
    n = a.shape[0]
    basis = np.eye(4 * n).reshape(4 * n, n, 4)
    return matvec(a, basis).reshape(4 * n, 4 * n).T.reshape(4 * n, n, 4)


def _right(q: np.ndarray) -> np.ndarray:
    """Realified y -> y q per quaternion, batched: (..., 4 in, 4 out)."""
    return qmul(np.eye(4), q[..., None, :])


def _combine(lefts, rights) -> np.ndarray:
    """sum_t L_t kron(I, R_t) for a batch of right factors: (P, 4n, 4n)."""
    out = sum(np.einsum("ocj,pkj->pock", left, right) for left, right in zip(lefts, rights))
    return out.reshape(out.shape[0], out.shape[1], -1)


def realified(coeffs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Real 4n x 4n matrices of y -> sum_i A_i y mu^i for a batch of mus (P, 4)."""
    mus = np.atleast_2d(mus)
    return _combine([_left(a) for a in coeffs],
                    [_right(qpow(mus, i)) for i in range(len(coeffs))])


def realified_multi(terms, tuples: np.ndarray) -> np.ndarray:
    """Real 4n x 4n matrices of y -> sum_w A_w y w(mu) for tuples (P, k, 4)."""
    tuples = np.asarray(tuples, dtype=float).reshape(-1, np.shape(tuples)[-2], 4)
    rights = []
    for word, _ in terms:
        value = np.broadcast_to(np.array([1.0, 0.0, 0.0, 0.0]), (len(tuples), 4))
        for letter in word:
            value = qmul(value, tuples[:, letter - 1])
        rights.append(_right(value))
    return _combine([_left(c) for _, c in terms], rights)


def sigma_ratio(m: np.ndarray) -> np.ndarray:
    """Smallest over largest singular value of each matrix in a batch."""
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[..., -1] / np.maximum(sv[..., 0], 1e-300)


def action_residual(coeffs: np.ndarray, y: np.ndarray, mu: np.ndarray) -> float:
    """||sum_i A_i y mu^i|| / (sum_i ||A_i|| |mu|^i ||y||)."""
    acc = sum(matvec(a, qmul(y, qpow(mu, i))) for i, a in enumerate(coeffs))
    r = float(np.linalg.norm(mu))
    scale = sum(np.linalg.norm(a) * r ** i for i, a in enumerate(coeffs))
    return float(np.linalg.norm(acc)) / (scale * float(np.linalg.norm(y)))


def plant_constant(a0: np.ndarray, y: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Rank-one update A_0 + d y^* / |y|^2 whose product with y is ``value``.

    With value = -sum_{i>=1} A_i y mu^i, mu becomes an eigenvalue with
    eigenvector y.
    """
    d = value - matvec(a0, y)
    return a0 + qmul(d[:, None, :], qconj(y)[None, :, :]) / float(np.sum(y * y))


def norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(chi(a), 2))


def unique_positive_root(coeffs) -> float:
    """The positive real root of an ascending real polynomial with one sign change."""
    roots = np.roots(list(reversed(coeffs)))
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0]
    return max(real)


def annulus(coeffs: np.ndarray) -> tuple[float, float]:
    """Norm-bound radii (r, R) with spectral norms from numpy."""
    norms = [norm2(a) for a in coeffs]
    inv0 = 1.0 / float(np.linalg.norm(np.linalg.inv(chi(coeffs[0])), 2))
    invm = 1.0 / float(np.linalg.norm(np.linalg.inv(chi(coeffs[-1])), 2))
    r = unique_positive_root([-inv0] + norms[1:])
    big_r = unique_positive_root([-v for v in norms[:-1]] + [invm])
    return r, big_r
