"""JSON readers and writers for the CLI's file formats.

Quaternions are 4-arrays [w, x, y, z]; matrices are 2-D arrays of those;
a polynomial file is {"coeffs": [A_0, ..., A_m]} with an optional
"partition" list of diagonal block sizes; a region file carries a "kind"
plus the fields that kind needs; a multivariate polynomial file is
{"k": ..., "terms": [{"word": [...], "coeff": ...}]}.  All numbers are
plain decimal JSON numbers.  Reports are written by ``dumps``, byte for
byte as ``json.dumps(report, indent=2)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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


def _quaternion_array(data, ndim: int) -> np.ndarray:
    """``ndim`` levels of lists around [w, x, y, z] entries as one float array.

    The shape is (..., 4).  Booleans, strings, null, non-finite values,
    integers too large for a float, entries that are not 4-arrays and
    ragged or empty rows are refused with InputFormatError.
    """
    entries = [data]
    for _ in range(ndim):
        entries = [e for row in entries for e in row]
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = np.empty(0)
    # np.array reads true and "1" as 1.0: only JSON numbers may pass.
    if (arr.shape[ndim:] == (4,) and {type(v) for e in entries for v in e} <= {int, float}
            and np.isfinite(arr).all()):
        return arr
    for entry in entries:  # name the first bad entry, as a per-entry reader would
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise InputFormatError(f"expected a 4-array [w, x, y, z], got {entry!r}")
        if not all(math.isfinite(v) for v in [_number(v, "quaternion entry") for v in entry]):
            raise InputFormatError(f"quaternion entries must be finite, got {entry!r}")
    if not data[0]:
        raise InputFormatError("matrix needs at least one row and one column")
    raise InputFormatError("rows have inconsistent lengths")


def quaternion_from_json(data) -> Quaternion:
    return Quaternion(*_quaternion_array(data, 0).tolist())


def quaternion_to_json(q: Quaternion) -> list[float]:
    return [round_sig(v) for v in q.as_array()]


def matrix_from_json(data) -> QuaternionMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputFormatError("expected a 2-D array of quaternion 4-arrays")
    # (w, x, y, z) read as the complex pair (w + x i, y + z i) is exact.
    pairs = _quaternion_array(data, 2).view(np.complex128)
    return QuaternionMatrix(pairs[..., 0], pairs[..., 1])


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
            return Region.finite_set([Quaternion(*q) for q in _quaternion_array(points, 1).tolist()])
        center = quaternion_from_json(data.get("center", [0, 0, 0, 0]))
        if kind is RegionKind.ANNULUS:
            return Region.annulus(center, _number(data["inner_radius"], "inner_radius"),
                                  _number(data["outer_radius"], "outer_radius"))
        return Region(kind, center=center, radius=_number(data["radius"], "radius"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(f"bad region file: {exc}") from exc


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


_SIG = "%.12g"


def round_sig(value: float) -> float:
    """Quantize to 12 significant digits for stable decimal output."""
    v = float(value)
    if v == 0.0:
        return 0.0
    return float(_SIG % v)


@dataclass(frozen=True)
class FlaggedPoints:
    """(P, 4) quaternion rows and their (P,) flags, written by ``dumps`` as
    the list [{"point": [w, x, y, z], "spherical": flag}, ...] with every
    component rounded by ``round_sig``."""

    points: np.ndarray
    spherical: np.ndarray

    def encode(self, indent: str) -> str:
        """The list as ``json.dumps(indent=2)`` writes it on a line that
        starts with ``indent``."""
        if not len(self.points):
            return "[]"
        if not np.isfinite(self.points).all():  # "%r" would write nan and inf
            return _encode([{"point": [round_sig(v) for v in q], "spherical": f}
                            for q, f in zip(self.points.tolist(), self.spherical.tolist())], indent)
        # round_sig in one pass: adding 0.0 turns -0.0 into 0.0 and keeps
        # every other value; no nonzero value prints as zero.
        flat = (self.points + 0.0).ravel().tolist()
        rounded = map(float, ((_SIG + " ") * len(flat) % tuple(flat)).split())
        item, field, value = indent + "  ", indent + "    ", indent + "      "
        point = (f'{{\n{field}"point": [\n{value}' + f",\n{value}".join(["%r"] * 4)
                 + f'\n{field}],\n{field}"spherical": %s\n{item}}}')
        flags = ["true" if f else "false" for f in self.spherical.tolist()]
        return (f"[\n{item}" + f",\n{item}".join([
            point % (*q, f) for q, f in zip(zip(*[rounded] * 4), flags)])  # 4 at a time
            + f"\n{indent}]")


_quote = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _encode(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it on a line that
    starts with ``indent``."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return (f"[\n{inner}" + f",\n{inner}".join([_encode(v, inner) for v in obj])
                + f"\n{indent}]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return (f"{{\n{inner}" + f",\n{inner}".join([
            f"{_quote(_key(k))}: {_encode(v, inner)}" for k, v in obj.items()])
            + f"\n{indent}}}")
    if isinstance(obj, FlaggedPoints):
        return obj.encode(indent)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dumps(report) -> str:
    """``report`` as ``json.dumps(report, indent=2)`` writes it, byte for
    byte, with any FlaggedPoints value written as its list of dicts."""
    return _encode(report, "")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
