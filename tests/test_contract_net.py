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


# ROADMAP item 13(a): two simple eigenvalues 1 + d +- sqrt(eps) closer than
# the classifier's admission radius (MULTIPLE_ROOT_REL^(1/2), about 3.2e-6)
# are grouped into one double class at their mean.  That certifies a nearby
# polynomial with a double eigenvalue, not P, so the verdicts built on the
# mean are wrong wherever a boundary passes between the true pair.
ITEM_13 = "ROADMAP item 13(a): a grouped class is decided at its mean, not within its radius"


def _pencil(tmp_path, name, m):
    """tI - M for a real 2 x 2 matrix M."""
    return _write(tmp_path, name, {"coeffs": [[[[-v, 0, 0, 0] for v in row] for row in m],
                                              [[[1, 0, 0, 0], [0, 0, 0, 0]],
                                               [[0, 0, 0, 0], [1, 0, 0, 0]]]]})


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_13)
@pytest.mark.parametrize("d, eps", [(1e-8, 1e-12), (1e-8, 1e-14), (1e-7, 1e-13), (2e-9, 1e-16),
                                    (2.0 ** -27, 2.0 ** -40)],
                         ids=["1e-8,1e-12", "1e-8,1e-14", "1e-7,1e-13", "2e-9,1e-16", "2^-27,2^-40"])
def test_a_grouped_pair_with_a_root_in_the_ball_is_not_stable(tmp_path, capsys, d, eps):
    # The lower eigenvalue 1 + d - sqrt(eps) lies in the open unit ball.
    poly = _pencil(tmp_path, "p.json", [[1 + d, 1], [eps, 1 + d]])
    ball = _write(tmp_path, "r.json", {"kind": "open_ball", "center": [0, 0, 0, 0], "radius": 1})
    stable = _run(capsys, ["stable", "--input", poly, "--region", ball])
    hyper = _run(capsys, ["hyperstable", "--input", poly, "--region", ball])
    assert stable != "STABLE" and hyper != "HYPERSTABLE", (stable, hyper)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_13)
@pytest.mark.parametrize("delta, radius", [(1e-6, 1e-7), (1e-7, 1e-8), (1e-8, 2e-9)])
def test_a_grouped_pair_around_an_empty_ball_is_not_refuted(tmp_path, capsys, delta, radius):
    # Eigenvalues 1 +- delta, both outside the open ball at 1; the group mean 1 is inside.
    poly = _pencil(tmp_path, "p.json", [[1, 1], [delta ** 2, 1]])
    ball = _write(tmp_path, "r.json", {"kind": "open_ball", "center": [1, 0, 0, 0],
                                       "radius": radius})
    assert _run(capsys, ["stable", "--input", poly, "--region", ball]) != "NOT_STABLE"


def test_a_pair_beyond_the_grouping_radius_is_decided_exactly(tmp_path, capsys):
    # The control of the cases above: at eps = 1e-11 the pair 1 + 1e-6 -+ 3.2e-6
    # is not grouped, and the lower eigenvalue in the ball refutes both.
    poly = _pencil(tmp_path, "p.json", [[1 + 1e-6, 1], [1e-11, 1 + 1e-6]])
    ball = _write(tmp_path, "r.json", {"kind": "open_ball", "center": [0, 0, 0, 0], "radius": 1})
    assert _run(capsys, ["stable", "--input", poly, "--region", ball]) == "NOT_STABLE"
    assert (_run(capsys, ["hyperstable", "--input", poly, "--region", ball])
            == "NOT_HYPERSTABLE_SAMPLED")
