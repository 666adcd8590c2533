"""JSON readers and writers for the CLI's file formats.

Quaternions are 4-arrays [w, x, y, z]; matrices are 2-D arrays of those;
a polynomial file is {"coeffs": [A_0, ..., A_m]} with an optional
"partition" list of diagonal block sizes; a region file carries a "kind"
plus the fields that kind needs; a multivariate polynomial file is
{"k": ..., "terms": [{"word": [...], "coeff": ...}]}.  All numbers are
plain decimal JSON numbers.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from .linalg import QuaternionMatrix, vec_entries
from .matpoly import MatrixPolynomial
from .multivar import MultiPolynomial
from .quaternion import Quaternion, StandardEigenvalue
from .stability import Region, RegionKind


class InputFormatError(ValueError):
    """Raised when an input file does not match its expected schema."""


def _is_int(value) -> bool:
    # JSON true/false load as Python bools, which are ints.
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A JSON number as a float; strings and booleans are refused."""
    if not isinstance(value, float) and not _is_int(value):
        raise InputFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputFormatError(f"{what} is an integer too large for a float") from exc


def quaternion_from_json(data) -> Quaternion:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise InputFormatError(f"expected a 4-array [w, x, y, z], got {data!r}")
    q = Quaternion(*(_number(v, "quaternion entry") for v in data))
    if not all(math.isfinite(v) for v in q.as_array()):
        raise InputFormatError(f"quaternion entries must be finite, got {data!r}")
    return q


def quaternion_to_json(q: Quaternion) -> list[float]:
    return [round_sig(v) for v in q.as_array()]


def matrix_from_json(data) -> QuaternionMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputFormatError("expected a 2-D array of quaternion 4-arrays")
    rows = [[quaternion_from_json(v) for v in row] for row in data]
    try:
        return QuaternionMatrix.from_rows(rows)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def matrix_to_json(a: QuaternionMatrix) -> list[list[list[float]]]:
    return [[quaternion_to_json(q) for q in row] for row in a.to_rows()]


def vector_to_json(v: QuaternionMatrix) -> list[list[float]]:
    return [quaternion_to_json(q) for q in vec_entries(v)]


def polynomial_from_json(data) -> tuple[MatrixPolynomial, Optional[list[int]]]:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise InputFormatError('polynomial file needs a "coeffs" list')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise InputFormatError('"coeffs" must be a nonempty list of matrices')
    try:
        poly = MatrixPolynomial([matrix_from_json(c) for c in coeffs])
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    partition = data.get("partition")
    if partition is not None:
        if (not isinstance(partition, list)
                or not all(_is_int(s) and s > 0 for s in partition)):
            raise InputFormatError('"partition" must be a list of positive block sizes')
    return poly, partition


def region_from_json(data) -> Region:
    if not isinstance(data, dict) or "kind" not in data:
        raise InputFormatError('region file needs a "kind"')
    try:
        kind = RegionKind(data["kind"])
    except ValueError as exc:
        raise InputFormatError(f"unknown region kind {data['kind']!r}") from exc
    try:
        if kind is RegionKind.FINITE_SET:
            points = data.get("points")
            if not isinstance(points, list) or not points:
                raise InputFormatError('finite_set region needs a nonempty "points" list')
            return Region.finite_set([quaternion_from_json(p) for p in points])
        center = quaternion_from_json(data.get("center", [0, 0, 0, 0]))
        if kind is RegionKind.ANNULUS:
            return Region.annulus(center, _number(data["inner_radius"], "inner_radius"),
                                  _number(data["outer_radius"], "outer_radius"))
        return Region(kind, center=center, radius=_number(data["radius"], "radius"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(f"bad region file: {exc}") from exc


def region_to_json(region: Region) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": region.kind.value}
    if region.kind is RegionKind.FINITE_SET:
        out["points"] = [quaternion_to_json(p) for p in region.points]
        return out
    out["center"] = quaternion_to_json(region.center)
    if region.kind is RegionKind.ANNULUS:
        out["inner_radius"] = round_sig(region.inner_radius)
        out["outer_radius"] = round_sig(region.outer_radius)
    else:
        out["radius"] = round_sig(region.radius)
    return out


def multipolynomial_from_json(data) -> MultiPolynomial:
    if not isinstance(data, dict) or "k" not in data or "terms" not in data:
        raise InputFormatError('multivariate file needs "k" and "terms"')
    terms = data["terms"]
    if not isinstance(terms, list) or not terms:
        raise InputFormatError('"terms" must be a nonempty list')
    pairs = []
    for term in terms:
        if not isinstance(term, dict) or "word" not in term or "coeff" not in term:
            raise InputFormatError('each term needs a "word" and a "coeff"')
        word = term["word"]
        if not isinstance(word, list) or not all(_is_int(v) for v in word):
            raise InputFormatError(f'bad word {word!r}')
        pairs.append((tuple(word), matrix_from_json(term["coeff"])))
    if not _is_int(data["k"]):
        raise InputFormatError(f'"k" must be an integer, got {data["k"]!r}')
    try:
        return MultiPolynomial.build(data["k"], pairs)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def standard_eigenvalue_to_json(e: StandardEigenvalue) -> dict[str, float]:
    return {"re": round_sig(e.re), "im": round_sig(e.im)}


def round_sig(value: float, digits: int = 12) -> float:
    """Quantize to 12 significant digits for stable decimal output."""
    v = float(value)
    if v == 0.0:
        return 0.0
    return float(f"{v:.{digits}g}")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
