"""Shared random generators for the test suite (all seeded by callers)."""

import numpy as np

from quatpoly import (
    MatrixPolynomial,
    Quaternion,
    QuaternionMatrix,
    SingularMatrixError,
    inverse,
    qvec,
)


def random_quaternion(rng, scale=1.0):
    w, x, y, z = scale * rng.standard_normal(4)
    return Quaternion(w, x, y, z)


def random_unit_quaternion(rng):
    while True:
        q = random_quaternion(rng)
        m = q.modulus()
        if m > 1e-6:
            return q / m


def random_unit_imaginary(rng):
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return Quaternion(0.0, v[0] / n, v[1] / n, v[2] / n)


def random_qmatrix(rng, n, scale=1.0):
    return QuaternionMatrix.from_rows(
        [[random_quaternion(rng, scale) for _ in range(n)] for _ in range(n)])


def random_invertible_qmatrix(rng, n):
    while True:
        a = random_qmatrix(rng, n)
        try:
            inverse(a)
        except SingularMatrixError:
            continue
        return a


def random_polynomial(rng, n, m, invertible_ends=False):
    coeffs = [random_qmatrix(rng, n) for _ in range(m + 1)]
    if invertible_ends:
        coeffs[0] = random_invertible_qmatrix(rng, n)
        coeffs[-1] = random_invertible_qmatrix(rng, n)
    return MatrixPolynomial(coeffs)


def spread_polynomial(rng, n, m, s):
    """Degree m, n x n: each coefficient a complex Gaussian pair scaled to Frobenius norm 10^U(-s, s)."""
    coeffs = []
    for _ in range(m + 1):
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm = np.sqrt(np.sum(np.abs(a1) ** 2 + np.abs(a2) ** 2))
        scale = 10 ** rng.uniform(-s, s)
        coeffs.append(QuaternionMatrix(a1 / norm * scale, a2 / norm * scale))
    return MatrixPolynomial(coeffs)


def product(*factors):
    """Coefficients (ascending) of the product of scalar polynomials in a central t."""
    out = [Quaternion(1.0)]
    for f in factors:
        acc = [Quaternion(0.0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] = acc[i + j] + a * b
        out = acc
    return out


def linear(z):
    return [-z, Quaternion(1.0)]


def quadratic(x, s):
    """t^2 - 2x t + x^2 + s^2, whose zeros are the class sphere of x + s i."""
    return [Quaternion(x * x + s * s), Quaternion(-2.0 * x), Quaternion(1.0)]


def random_unit_qvec(rng, n):
    while True:
        raw = rng.standard_normal(4 * n)
        norm = np.linalg.norm(raw)
        if norm > 1e-9:
            entries = [Quaternion(*raw[4 * t:4 * t + 4] / norm) for t in range(n)]
            return qvec(entries)
