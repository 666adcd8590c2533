import math

import numpy as np
import pytest

from quatpoly import (
    MatrixPolynomial,
    MultiPolynomial,
    Quaternion,
    QuaternionMatrix,
    Region,
    RegionKind,
)
from quatpoly.io import (
    InputFormatError,
    matrix_from_json,
    matrix_to_json,
    multipolynomial_from_json,
    polynomial_from_json,
    quaternion_from_json,
    quaternion_to_json,
    region_from_json,
    region_to_json,
    round_sig,
)

EYE1 = [[[1, 0, 0, 0]]]


def test_quaternion_roundtrip():
    q = Quaternion(1.25, -2.5, 0.0, 3.0)
    assert quaternion_from_json(quaternion_to_json(q)).approx_eq(q, 0.0)
    with pytest.raises(InputFormatError):
        quaternion_from_json([1, 2, 3])
    with pytest.raises(InputFormatError):
        quaternion_from_json("nope")


def test_matrix_roundtrip():
    a = QuaternionMatrix.from_rows([[Quaternion.I, Quaternion(2)],
                                    [Quaternion(0, 0, 0.5, 0), Quaternion.ONE]])
    back = matrix_from_json(matrix_to_json(a))
    assert back.allclose(a, 0.0)
    with pytest.raises(InputFormatError):
        matrix_from_json([[[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]])


def test_matrix_reader_is_exact():
    # One pass into the complex pair equals the per-entry reading, down to
    # signed zeros, subnormals, the float range and integers rounded to a float.
    rows = [[[1, -0.0, 5e-324, 1e308], [2 ** 53 + 1, 0, -5e-324, -0.0]],
            [[-0.0, 0.1, -1e308, 10 ** 20], [0, 0, 0, -3]]]
    got = matrix_from_json(rows)
    ref = QuaternionMatrix.from_rows([[Quaternion(*q) for q in row] for row in rows])
    for a, b in ((got.a1, ref.a1), (got.a2, ref.a2)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
        assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    q = quaternion_from_json([-0.0, 5e-324, 2 ** 53 + 1, -1e308])
    assert [math.copysign(1.0, v) for v in q.as_array()] == [-1.0, 1.0, 1.0, -1.0]
    assert q.as_array() == [0.0, 5e-324, float(2 ** 53 + 1), -1e308]


def test_polynomial_with_partition():
    poly, partition = polynomial_from_json({"coeffs": [EYE1, EYE1],
                                            "partition": [1]})
    assert poly.degree == 1 and poly.size == 1
    assert partition == [1]
    with pytest.raises(InputFormatError):
        polynomial_from_json({"coeffs": []})
    with pytest.raises(InputFormatError):
        polynomial_from_json({"coeffs": [EYE1], "partition": [0]})
    with pytest.raises(InputFormatError):
        polynomial_from_json({})


def test_region_roundtrips_all_kinds():
    regions = [
        Region.open_ball(Quaternion.J, 1.5),
        Region.closed_ball(Quaternion(1), 0.25),
        Region.complement_closed_ball(Quaternion(0), 2.0),
        Region.annulus(Quaternion(0.5), 0.5, 1.5),
        Region.finite_set([Quaternion.I, Quaternion(2)]),
    ]
    for region in regions:
        back = region_from_json(region_to_json(region))
        assert back.kind is region.kind
        if region.kind is RegionKind.FINITE_SET:
            assert all(a.approx_eq(b, 0.0)
                       for a, b in zip(back.points, region.points))
        else:
            assert back.center.approx_eq(region.center, 0.0)
    with pytest.raises(InputFormatError):
        region_from_json({"kind": "square", "center": [0, 0, 0, 0]})
    with pytest.raises(InputFormatError):
        region_from_json({"kind": "open_ball", "center": [0, 0, 0, 0]})


def test_multipolynomial_schema():
    multi = multipolynomial_from_json(
        {"k": 2, "terms": [{"word": [1, 2], "coeff": EYE1},
                           {"word": [], "coeff": EYE1}]})
    assert multi.k == 2 and multi.size == 1
    with pytest.raises(InputFormatError):
        multipolynomial_from_json({"k": 2, "terms": [{"word": [3], "coeff": EYE1}]})
    with pytest.raises(InputFormatError):
        multipolynomial_from_json({"terms": []})


def test_round_sig():
    assert round_sig(0.6180339887498948) == 0.61803398875
    assert round_sig(0.0) == 0.0
    assert round_sig(-1.0) == -1.0
    assert round_sig(123456789012345.0) == 123456789012000.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_library_constructors_reject_non_finite(bad):
    coeff = QuaternionMatrix.from_rows([[Quaternion(1.0, bad, 0.0, 0.0)]])
    with pytest.raises(ValueError):
        MatrixPolynomial([coeff])
    with pytest.raises(ValueError):
        MultiPolynomial.build(1, [((1,), coeff)])
    with pytest.raises(ValueError):
        Region.open_ball(Quaternion.ZERO, abs(bad))
    with pytest.raises(ValueError):
        Region.annulus(Quaternion(bad), 0.5, 1.0)
    with pytest.raises(ValueError):
        Region.finite_set([Quaternion.ONE, Quaternion(0.0, 0.0, bad, 0.0)])
