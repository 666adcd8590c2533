"""Reference dense complex eigensolver for differential tests.

The classical pipeline, written out on numpy arrays: diagonal balancing,
unitary reduction to upper Hessenberg form, then implicitly shifted QR
iteration with Wilkinson shifts and machine-epsilon-scaled deflation.  The
library computes eigenvalues with LAPACK; this slow, readable solver is
what the tests compare it against at small sizes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from quatpoly.eigensolver import _as_square
from quatpoly.errors import NoConvergenceError

_EPS = float(np.finfo(np.float64).eps)


def _balance(a: np.ndarray) -> np.ndarray:
    """Diagonal similarity scaling equalizing row and column 1-norms."""
    a = a.copy()
    n = a.shape[0]
    radix = 2.0
    converged = False
    while not converged:
        converged = True
        for i in range(n):
            r = np.sum(np.abs(a[i, :])) - abs(a[i, i])
            c = np.sum(np.abs(a[:, i])) - abs(a[i, i])
            if r == 0.0 or c == 0.0:
                continue
            f = 1.0
            s = c + r
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c >= r * radix:
                c /= radix
                r *= radix
                f /= radix
            if (c + r) < 0.95 * s:
                converged = False
                a[i, :] /= f
                a[:, i] *= f
    return a


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Householder reduction to upper Hessenberg form (in a copy)."""
    h = a.copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k]
        xnorm = np.linalg.norm(x)
        if xnorm == 0.0:
            continue
        alpha = -xnorm if x[0] == 0 else -(x[0] / abs(x[0])) * xnorm
        v = x.copy()
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm <= _EPS * xnorm:
            continue
        v /= vnorm
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h


def _givens(a: complex, b: complex) -> tuple[float, complex]:
    """Rotation [[c, s], [-conj(s), c]] sending (a, b) to (r, 0), c real."""
    if b == 0:
        return 1.0, 0.0 + 0.0j
    if a == 0:
        return 0.0, b.conjugate() / abs(b)
    t = abs(a)
    d = math.hypot(t, abs(b))
    c = t / d
    s = (a / t) * b.conjugate() / d
    return c, s


def _wilkinson_shift(h: np.ndarray, hi: int) -> complex:
    """Eigenvalue of the trailing 2x2 block closest to the corner entry."""
    a = h[hi - 1, hi - 1]
    b = h[hi - 1, hi]
    c = h[hi, hi - 1]
    d = h[hi, hi]
    p = (a - d) / 2.0
    q = cmath.sqrt(p * p + b * c)
    if abs(p + q) <= abs(p - q):
        root = d + p + q
    else:
        root = d + p - q
    return root


def _qr_eigenvalues(h: np.ndarray, sweep_limit: int) -> np.ndarray:
    n = h.shape[0]
    eigs = np.zeros(n, dtype=np.complex128)
    hnorm = np.linalg.norm(h)
    hi = n - 1
    sweeps = 0
    stall = 0
    while hi >= 0:
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if s == 0.0:
                s = hnorm
            if abs(h[lo, lo - 1]) <= _EPS * s:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            eigs[hi] = h[hi, hi]
            hi -= 1
            stall = 0
            continue
        sweeps += 1
        stall += 1
        if sweeps > sweep_limit:
            raise NoConvergenceError(
                f"QR iteration exceeded {sweep_limit} sweeps on dimension {n}")
        if stall % 12 == 0:
            # Occasional ad-hoc shift to break symmetric limit cycles.
            shift = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            shift = _wilkinson_shift(h, hi)
        x = h[lo, lo] - shift
        y = h[lo + 1, lo]
        for k in range(lo, hi):
            c, s = _givens(x, y)
            col0 = max(lo, k - 1)
            rk = h[k, col0:hi + 1].copy()
            rk1 = h[k + 1, col0:hi + 1].copy()
            h[k, col0:hi + 1] = c * rk + s * rk1
            h[k + 1, col0:hi + 1] = -np.conj(s) * rk + c * rk1
            row1 = min(hi, k + 2) + 1
            ck = h[lo:row1, k].copy()
            ck1 = h[lo:row1, k + 1].copy()
            h[lo:row1, k] = c * ck + np.conj(s) * ck1
            h[lo:row1, k + 1] = -s * ck + c * ck1
            if k < hi - 1:
                x = h[k + 1, k]
                y = h[k + 2, k]
    return eigs


def qr_eig(matrix, max_sweeps_per_dim: int = 30) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, sorted by (real, imag).

    Raises NoConvergenceError if the QR iteration needs more than
    ``max_sweeps_per_dim * dim`` sweeps.
    """
    a = _as_square(matrix)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    if n == 1:
        return a.ravel().copy()
    h = _hessenberg(_balance(a))
    vals = _qr_eigenvalues(h, max_sweeps_per_dim * n)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]
