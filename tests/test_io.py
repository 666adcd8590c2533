import json
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
    FlaggedPoints,
    dumps,
    matrix_from_json,
    multipolynomial_from_json,
    polynomial_from_json,
    quaternion_from_json,
    quaternion_to_json,
    region_from_json,
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
    back = matrix_from_json([[[0, 1, 0, 0], [2, 0, 0, 0]], [[0, 0, 0.5, 0], [1, 0, 0, 0]]])
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
        (Region.open_ball(Quaternion.J, 1.5),
         {"kind": "open_ball", "center": [0.0, 0.0, 1.0, 0.0], "radius": 1.5}),
        (Region.closed_ball(Quaternion(1), 0.25),
         {"kind": "closed_ball", "center": [1.0, 0.0, 0.0, 0.0], "radius": 0.25}),
        (Region.complement_closed_ball(Quaternion(0), 2.0),
         {"kind": "complement_closed_ball", "center": [0.0, 0.0, 0.0, 0.0], "radius": 2.0}),
        (Region.annulus(Quaternion(0.5), 0.5, 1.5),
         {"kind": "annulus", "center": [0.5, 0.0, 0.0, 0.0], "inner_radius": 0.5,
          "outer_radius": 1.5}),
        (Region.finite_set([Quaternion.I, Quaternion(2)]),
         {"kind": "finite_set", "points": [[0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]}),
    ]
    for region, data in regions:
        back = region_from_json(data)
        assert back.kind is region.kind
        if region.kind is RegionKind.FINITE_SET:
            assert np.array_equal(back.points, region.points)
            assert back.points.shape == (2, 4) and not back.points.flags.writeable
        else:
            assert back.center.approx_eq(region.center, 0.0)
    with pytest.raises(InputFormatError):
        region_from_json({"kind": "square", "center": [0, 0, 0, 0]})
    with pytest.raises(InputFormatError):
        region_from_json({"kind": "open_ball", "center": [0, 0, 0, 0]})


@pytest.mark.parametrize("bad, message", [
    (True, "expected a 4-array [w, x, y, z], got True"),
    ([1, 2, 3], "expected a 4-array [w, x, y, z], got [1, 2, 3]"),
    ([math.nan, 0, 0, 0], "quaternion entries must be finite, got [nan, 0, 0, 0]"),
    ([0, False, 0, 0], "quaternion entry must be a number, got False"),
])
def test_finite_set_reader_names_the_first_bad_point(bad, message):
    # The points are read in one array pass; a bad one is named as a
    # per-point reader would name it, after two good ones and before a worse one.
    points = [[1, 0, 0, 0], [0, 1.5, -0.0, 5e-324], bad, "worse"]
    with pytest.raises(InputFormatError) as info:
        region_from_json({"kind": "finite_set", "points": points})
    assert str(info.value) == message
    region = region_from_json({"kind": "finite_set", "points": points[:2]})
    assert region.points.tolist() == [quaternion_from_json(p).as_array() for p in points[:2]]
    assert math.copysign(1.0, region.points[1, 2]) == -1.0


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


# -- report writer ----------------------------------------------------------------

# Where "%.12g" and repr part ways: subnormals (digits), whole numbers (".0")
# and 1e12 to 1e16 (exponent form), the last two also after the rounding.
TINY = float(np.finfo(float).tiny)
FORMAT_BOUNDARIES = [12345678901234.5, 1e15 + 0.5, 1e12, 2.9999999999999, 999999999999.9,
                     9.9999999999999e15, TINY, float(np.nextafter(TINY, 0.0)), -0.0]
SPECIAL_COMPONENTS = np.array([0.0, 5e-324, 1e308, 1.0, 2.5, 0.1] + FORMAT_BOUNDARIES)


def _point_set(rng, count):
    """(count, 4) components over the whole float range, with signed zeros,
    subnormals, the largest floats and round values, and random flags."""
    points = np.ldexp(rng.standard_normal((count, 4)), rng.integers(-1074, 1020, (count, 4)))
    mask = rng.random((count, 4)) < 0.3
    points[mask] = rng.choice(SPECIAL_COMPONENTS, mask.sum()) * rng.choice([1.0, -1.0], mask.sum())
    return points, rng.random(count) < 0.5


def _per_point_dicts(points, spherical):
    return [{"point": [round_sig(v) for v in q], "spherical": f}
            for q, f in zip(points.tolist(), spherical.tolist())]


@pytest.mark.parametrize("count", [0, 1, 600])
def test_flagged_points_equal_the_per_point_round_sig_dicts(count):
    points, spherical = _point_set(np.random.default_rng(count), count)
    value, dicts = FlaggedPoints(points, spherical), _per_point_dicts(points, spherical)
    assert dumps(value) == json.dumps(dicts, indent=2)
    report = {"result": {"points": value, "skipped": 3}}
    assert dumps(report) == json.dumps({"result": {"points": dicts, "skipped": 3}}, indent=2)


def test_flagged_points_write_every_format_boundary_as_repr_does():
    points, spherical = _point_set(np.random.default_rng(27), 2000)
    flat = points.ravel()
    rounded = np.array([round_sig(v) for v in flat])
    classes = {
        "exponent from 1e12 to 1e16": (np.abs(rounded) >= 1e12) & (np.abs(rounded) < 1e16),
        "whole only after the rounding": (flat != np.rint(flat)) & (rounded == np.rint(rounded)),
        "largest subnormal": np.abs(flat) == np.nextafter(TINY, 0.0),
        "smallest normal": np.abs(flat) == TINY,
        "negative zero": (flat == 0.0) & np.signbit(flat),
    }
    assert {name: int(hit.sum()) >= 20 for name, hit in classes.items()} == dict.fromkeys(classes, True)
    assert (dumps({"points": FlaggedPoints(points, spherical)})
            == json.dumps({"points": _per_point_dicts(points, spherical)}, indent=2))


def test_flagged_points_spell_non_finite_components_as_json_does():
    points = np.array([[math.nan, math.inf, -math.inf, -0.0], [1.0, 0.1, -5e-324, 2.0 ** 70]])
    spherical = np.array([True, False])
    assert (dumps({"points": FlaggedPoints(points, spherical)})
            == json.dumps({"points": _per_point_dicts(points, spherical)}, indent=2))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
               0.1, 1e16, 1e-5, 2.0 ** 53, 1.0 / 3.0]
EDGE_INTS = [0, -1, 2 ** 63, -(10 ** 40), 10 ** 300]
EDGE_STRINGS = ["", "plain", "null", 'say "hi"', "back\\slash", "tab\tline\nfeed\r\x00\x1f\x7f",
                "naïve — ünïcode ∑ 漢字", "\U0001f600", "\ud800"]


def _random_report(rng, depth=0):
    """A seeded JSON value of every kind, nested up to 4 deep, with
    FlaggedPoints values (some with non-finite components) among the leaves."""
    kind = int(rng.integers(10 if depth < 4 else 8))
    if kind == 0:
        return EDGE_FLOATS[rng.integers(len(EDGE_FLOATS))]
    if kind == 1:
        return float(np.ldexp(rng.standard_normal(), int(rng.integers(-1074, 1020))))
    if kind == 2:
        return EDGE_INTS[rng.integers(len(EDGE_INTS))] + int(rng.integers(-5, 5))
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return None
    if kind == 5:
        return EDGE_STRINGS[rng.integers(len(EDGE_STRINGS))]
    if kind in (6, 7):
        points, spherical = _point_set(rng, int(rng.integers(4)))
        if len(points) and rng.random() < 0.25:
            points[0, rng.integers(4)] = EDGE_FLOATS[6 + rng.integers(3)]
        return FlaggedPoints(points, spherical)
    size = int(rng.integers(4))
    if kind == 8:
        return [_random_report(rng, depth + 1) for _ in range(size)]
    return {EDGE_STRINGS[rng.integers(len(EDGE_STRINGS))] + str(i): _random_report(rng, depth + 1)
            for i in range(size)}


def _as_dicts(report):
    """``report`` with each FlaggedPoints value replaced by its per-point dicts."""
    if isinstance(report, FlaggedPoints):
        return _per_point_dicts(report.points, report.spherical)
    if isinstance(report, list):
        return [_as_dicts(v) for v in report]
    if isinstance(report, dict):
        return {k: _as_dicts(v) for k, v in report.items()}
    return report


@pytest.mark.parametrize("seed", range(60))
def test_writer_equals_json_dumps_indent_2(seed):
    # The points are spliced in at their own place, however deep, next to
    # nulls and strings that spell "null" or hold NUL.
    rng = np.random.default_rng(seed)
    obj = _random_report(rng)
    assert dumps(obj) == json.dumps(_as_dicts(obj), indent=2)
    points = FlaggedPoints(*_point_set(rng, 3))
    nested = {"inputs": {"region": "null\x00"}, "empty": [[], {}], "top": EDGE_FLOATS + EDGE_INTS,
              "result": [obj, {"deeper": [None, obj, "null"], "points": points}]}
    assert dumps(nested) == json.dumps(_as_dicts(nested), indent=2)


def test_writer_keys_and_refusals_follow_json():
    value = FlaggedPoints(np.array([[1.0, -0.0, 0.1, 2.5]]), np.array([True]))
    obj = {"s": 1, 2: [], 2.5: value, -0.0: None, math.nan: value, None: True, False: "x"}
    assert dumps(obj) == json.dumps(_as_dicts(obj), indent=2)
    # Only a FlaggedPoints value may reach the encoder's default hook.
    for bad in ({(1, 2): 0}, {1, 2}, np.float32(1.0), np.int64(3), np.bool_(True),
                {"result": [object()]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            dumps(bad)
