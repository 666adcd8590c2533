"""Verdicts of different commands on one input must not contradict each other.

Every command runs in-process through ``cli.main``, with RuntimeWarning an
error.  Over a finite set Omega, hyperstability is stability, so a
derivation rule's HYPERSTABLE must be met by ``hyperstable``'s, and an
eigenvalue planted in Omega must get HYPERSTABLE from no command.
"""

import json
import warnings

import numpy as np
import pytest

from quatpoly import polyeig
from quatpoly.cli import main
from _helpers import random_polynomial, random_quaternion

# (rule, degree, extra multivar arguments) of every derivation rule.
RULES = [("i", 2, ["--form", "i"]), ("ii", 2, ["--form", "ii"]),
         ("a3", 3, ["--cubic-leading", "a3"]), ("literal", 3, ["--cubic-leading", "literal"])]
DRAWS = 24


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return json.loads(out)["result"]["status"]


def _poly_json(p):
    n = p.size
    return {"coeffs": [[[a.entry(r, c).as_array() for c in range(n)] for r in range(n)]
                       for a in p.coeffs]}


def _draws(degree):
    """Seeded (polynomial, Omega points, planted) draws of one degree: n 1-3,
    two random points and, in every other draw, a class point of the spectrum."""
    rng = np.random.default_rng(9500 + degree)
    for trial in range(DRAWS):
        p = random_polynomial(rng, 1 + trial % 3, degree, invertible_ends=True)
        points = [random_quaternion(rng, scale=1.5) for _ in range(2)]
        planted = trial % 2 == 0
        if planted:
            evs = polyeig(p)
            points.append(evs[int(rng.integers(len(evs)))].lift())
        yield p, points, planted


def _verdicts(tmp_path, capsys, degree, extra):
    """(planted, multivar status, hyperstable status) of every draw."""
    out = []
    for index, (p, points, planted) in enumerate(_draws(degree)):
        poly = _write(tmp_path, f"p{index}.json", _poly_json(p))
        omega = _write(tmp_path, f"omega{index}.json", {"kind": "finite_set", "points":
                                                        [q.as_array() for q in points]})
        derived = _run(capsys, ["multivar", "--input", poly, "--region", omega, *extra])
        hyper = _run(capsys, ["hyperstable", "--input", poly, "--region", omega])
        out.append((planted, derived, hyper))
    return out


def _assert_consistent(verdicts):
    for planted, derived, hyper in verdicts:
        if planted:
            assert "HYPERSTABLE" not in (derived, hyper)
        elif derived == "HYPERSTABLE":
            assert hyper == "HYPERSTABLE"
    # Both directions are exercised.
    assert any(derived == "HYPERSTABLE" for planted, derived, _ in verdicts if not planted)
    assert all(hyper == "NOT_HYPERSTABLE_SAMPLED" for planted, _, hyper in verdicts if planted)


@pytest.mark.parametrize("degree,extra", [rule[1:] for rule in RULES[:3]],
                         ids=[rule[0] for rule in RULES[:3]])
def test_derived_hyperstability_agrees_with_hyperstable(tmp_path, capsys, degree, extra):
    _assert_consistent(_verdicts(tmp_path, capsys, degree, extra))


def test_literal_cubic_reading_agrees_with_hyperstable(tmp_path, capsys):
    _, degree, extra = RULES[3]
    _assert_consistent(_verdicts(tmp_path, capsys, degree, extra))
