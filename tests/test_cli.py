import argparse
import json
import math

import numpy as np
import pytest
from _helpers import random_hermitian, random_invertible_qmatrix

from quatpoly import Quaternion, QuaternionMatrix, inverse
from quatpoly.cli import main

GOLDEN_LO = (-1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_HI = (1.0 + math.sqrt(5.0)) / 2.0

ZERO = [0, 0, 0, 0]
ONE_Q = [1, 0, 0, 0]
I_Q = [0, 1, 0, 0]
J_Q = [0, 0, 1, 0]
K_Q = [0, 0, 0, 1]

EYE2 = [[ONE_Q, ZERO], [ZERO, ONE_Q]]
GOLDEN_POLY = {"coeffs": [EYE2, [[I_Q, ZERO], [ZERO, J_Q]], EYE2]}
PROJECTION_POLY = {"coeffs": [[[[-1, 0, 0, 0], ZERO], [ZERO, ZERO]], EYE2]}
J_SHIFT_POLY = {"coeffs": [[[J_Q, ZERO], [ZERO, J_Q]], EYE2]}
NO_EIG_POLY = {"coeffs": [EYE2,
                          [[ZERO, ONE_Q], [ONE_Q, ZERO]],
                          [[ZERO, ZERO], [ZERO, ONE_Q]]]}
MIXED_MULTI = {"k": 2, "terms": [
    {"word": [1, 2], "coeff": EYE2},
    {"word": [2, 1], "coeff": [[ONE_Q, ZERO], [ZERO, ZERO]]},
    {"word": [1], "coeff": EYE2},
    {"word": [], "coeff": EYE2},
]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eig_golden(tmp_path, capsys):
    path = write(tmp_path, "p.json", GOLDEN_POLY)
    code, out, _ = run_cli(capsys, ["eig", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "eig"
    assert len(report["result"]["eigenvalues"]) == 4
    moduli = sorted(report["result"]["moduli"])
    assert moduli[:2] == pytest.approx([GOLDEN_LO, GOLDEN_LO], abs=1e-9)
    assert moduli[2:] == pytest.approx([GOLDEN_HI, GOLDEN_HI], abs=1e-9)
    assert report["diagnostics"]["timings_ms"] is None
    assert report["diagnostics"]["residuals"]["max_action_residual"] <= 1e-7


def test_bounds_golden(tmp_path, capsys):
    path = write(tmp_path, "p.json", GOLDEN_POLY)
    code, out, _ = run_cli(capsys, ["bounds", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["r"] == pytest.approx(0.6180339887, abs=1e-9)
    assert report["result"]["R"] == pytest.approx(1.6180339887, abs=1e-9)


def test_stable_j_shift_ball(tmp_path, capsys):
    p = write(tmp_path, "p.json", J_SHIFT_POLY)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": J_Q, "radius": 1.0})
    code, out, _ = run_cli(capsys, ["stable", "--input", p, "--region", r])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_STABLE"
    w = report["witness"]
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    assert math.hypot(w[1], w[2], w[3]) == pytest.approx(1.0, abs=1e-9)


def test_witness_reverifies_through_finite_set(tmp_path, capsys):
    p = write(tmp_path, "p.json", J_SHIFT_POLY)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": J_Q, "radius": 1.0})
    code, out, _ = run_cli(capsys, ["stable", "--input", p, "--region", r])
    witness = json.loads(out)["witness"]
    probe = write(tmp_path, "probe.json", {"kind": "finite_set", "points": [witness]})
    code, out, _ = run_cli(capsys, ["stable", "--input", p, "--region", probe])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_STABLE"
    assert report["witness"] == witness


def test_hyperstable_projection(tmp_path, capsys):
    p = write(tmp_path, "p.json", PROJECTION_POLY)
    r = write(tmp_path, "r.json", {"kind": "finite_set",
                                   "points": [[0.5, 0, 0, 0], [2, 0, 0, 0],
                                              I_Q, J_Q, [1, 0, 0, 1]]})
    code, out, _ = run_cli(capsys, ["hyperstable", "--input", p, "--region", r])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "HYPERSTABLE"
    assert report["certificate"] == "triangular-equivalence"


def test_hyperstable_closed_toggle(tmp_path, capsys):
    p = write(tmp_path, "p.json", NO_EIG_POLY)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 1.0})
    code, out, _ = run_cli(capsys, ["hyperstable", "--input", p, "--region", r])
    assert code == 0
    assert json.loads(out)["result"]["status"] == "UNKNOWN"

    code, out, _ = run_cli(capsys, ["hyperstable", "--input", p, "--region", r,
                                    "--closed"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_HYPERSTABLE_SAMPLED"
    assert report["certificate"] == "quadratic-product-certificate"
    assert report["witness"] is not None


def test_nrange_projection(tmp_path, capsys):
    p = write(tmp_path, "p.json", PROJECTION_POLY)
    code, out, _ = run_cli(capsys, ["nrange", "--input", p, "--samples", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["skipped"] == 0
    for entry in report["result"]["points"]:
        w, x, y, z = entry["point"]
        assert -1e-9 <= w <= 1 + 1e-9
        assert math.hypot(x, y, z) <= 1e-9


def test_multivar_stability_and_witness(tmp_path, capsys):
    p = write(tmp_path, "p.json", MIXED_MULTI)
    r = write(tmp_path, "r.json", {"kind": "finite_set",
                                   "points": [[-0.5, 0, 0, 0], [0.5, 0, 0, 0]]})
    code, out, _ = run_cli(capsys, ["multivar", "--input", p, "--region", r])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_STABLE"
    assert report["witness"]["tuple"] == [[-0.5, 0, 0, 0], [0.5, 0, 0, 0]]
    vec = report["witness"]["vector"]
    assert vec[0][0] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(c) <= 1e-12 for c in vec[1])


def test_multivar_quadratic_derivation(tmp_path, capsys):
    p = write(tmp_path, "p.json",
              {"coeffs": [[[ZERO, ZERO], [ZERO, ZERO]], EYE2, EYE2]})
    r = write(tmp_path, "r.json", {"kind": "finite_set",
                                   "points": [[0.5, 0, 0, 0], [-2, 0, 0, 0],
                                              I_Q, K_Q]})
    code, out, _ = run_cli(capsys, ["multivar", "--input", p, "--region", r,
                                    "--form", "ii"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "HYPERSTABLE"
    assert report["certificate"] == "multivariate-quadratic-ii"

    # form is mandatory for quadratics
    code, _, err = run_cli(capsys, ["multivar", "--input", p, "--region", r])
    assert code == 2
    assert "form" in json.loads(err)["error"]


def test_multivar_cubic_derivation(tmp_path, capsys):
    eye1 = [[ONE_Q]]
    p = write(tmp_path, "p.json", {"coeffs": [eye1, eye1, eye1, eye1]})
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": [[-1, 0, 0, 0]]})
    code, out, _ = run_cli(capsys, ["multivar", "--input", p, "--region", r])
    assert code == 0
    assert json.loads(out)["result"]["status"] == "UNKNOWN"

    r2 = write(tmp_path, "r2.json", {"kind": "finite_set", "points": [[2, 0, 0, 0]]})
    code, out, _ = run_cli(capsys, ["multivar", "--input", p, "--region", r2,
                                    "--cubic-leading", "a3"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["status"] == "HYPERSTABLE"
    assert report["certificate"] == "multivariate-cubic-a3"


def test_an_eigenvalue_in_omega_gets_hyperstable_from_no_command(tmp_path, capsys):
    # (t - 1)(t - 2)(t - 3) over {1}: the literal cubic reading's operator at
    # u = v is not P and is stable on {1}^2, but P has the eigenvalue 1 there.
    eye1 = [[ONE_Q]]
    p = write(tmp_path, "p.json", {"coeffs": [[[[-6, 0, 0, 0]]], [[[11, 0, 0, 0]]],
                                              [[[-6, 0, 0, 0]]], eye1]})
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": [ONE_Q]})
    statuses = {}
    for argv in (["multivar"], ["multivar", "--cubic-leading", "a3"], ["hyperstable"],
                 ["stable"]):
        code, out, err = run_cli(capsys, [*argv, "--input", p, "--region", r])
        assert code == 0, err
        report = json.loads(out)
        statuses[" ".join(argv)] = (report["result"]["status"], report["certificate"])
    assert statuses == {
        "multivar": ("UNKNOWN", "multivariate-cubic-literal (P has an eigenvalue in omega)"),
        "multivar --cubic-leading a3": (
            "UNKNOWN", "multivariate-cubic-a3 (multivariate stability not established)"),
        "hyperstable": ("NOT_HYPERSTABLE_SAMPLED", "scalar-equivalence"),
        "stable": ("NOT_STABLE", "pointwise-oracle"),
    }


def test_determinism_byte_identical(tmp_path, capsys):
    p = write(tmp_path, "p.json", GOLDEN_POLY)
    _, out1, _ = run_cli(capsys, ["eig", "--input", p, "--seed", "7"])
    _, out2, _ = run_cli(capsys, ["eig", "--input", p, "--seed", "7"])
    assert out1 == out2

    poly = write(tmp_path, "p2.json", PROJECTION_POLY)
    _, out1, _ = run_cli(capsys, ["nrange", "--input", poly, "--samples", "50"])
    _, out2, _ = run_cli(capsys, ["nrange", "--input", poly, "--samples", "50"])
    assert out1 == out2

    # A non-triangular 2 x 2 quadratic runs the sampled search, and then the
    # stability verdict, which is STABLE and so ends UNKNOWN.
    full = write(tmp_path, "p3.json", {"coeffs": [[[ONE_Q, I_Q], [J_Q, K_Q]],
                                                  [[ZERO, ONE_Q], [ONE_Q, ZERO]], EYE2]})
    region = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 0.5})
    argv = ["hyperstable", "--input", full, "--region", region, "--samples", "64", "--seed", "5"]
    code, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert code == 0
    assert out1 == out2
    assert '"status": "UNKNOWN"' in out1


def _indent_2(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv, poly, region", [
    pytest.param(["eig"], GOLDEN_POLY, None, id="eig"),
    pytest.param(["bounds"], GOLDEN_POLY, None, id="bounds"),
    pytest.param(["stable"], J_SHIFT_POLY, {"kind": "open_ball", "center": J_Q, "radius": 1.0},
                 id="stable"),
    pytest.param(["hyperstable", "--closed"], NO_EIG_POLY,
                 {"kind": "open_ball", "center": ZERO, "radius": 1.0}, id="hyperstable"),
    pytest.param(["hyperstable", "--samples", "64", "--seed", "5"],
                 {"coeffs": [[[ONE_Q, I_Q], [J_Q, K_Q]], [[ZERO, ONE_Q], [ONE_Q, ZERO]], EYE2]},
                 {"kind": "open_ball", "center": ZERO, "radius": 0.5}, id="hyperstable-unknown"),
    pytest.param(["nrange", "--samples", "50"], GOLDEN_POLY, None, id="nrange"),
    pytest.param(["nrange", "--samples", "20"], J_SHIFT_POLY, None, id="nrange-spheres"),
    pytest.param(["multivar"], MIXED_MULTI,
                 {"kind": "finite_set", "points": [[-0.5, 0, 0, 0], [0.5, 0, 0, 0]]}, id="multivar"),
])
def test_reports_are_written_as_json_dumps_indent_2(tmp_path, capsys, argv, poly, region):
    argv = [argv[0], "--input", write(tmp_path, "p.json", poly), *argv[1:]]
    if region is not None:
        argv += ["--region", write(tmp_path, "r.json", region)]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == _indent_2(out)


@pytest.mark.parametrize("region", [
    "\x00", "\x00FlaggedPoints\x00", "\\u0000FlaggedPoints\\u0000", '"\x00FlaggedPoints\x00"',
    "null", "\x00null",
], ids=["nul", "nul-name", "escaped-name", "quoted-name", "null", "nul-null"])
def test_nrange_points_land_in_result_whatever_inputs_spell(tmp_path, capsys, region):
    # nrange never opens --region, so any string reaches inputs.region,
    # which the report writes before result.points.  Texts that a marker for
    # the points could spell, raw, escaped or quoted, must not draw them there.
    p = write(tmp_path, "p.json", GOLDEN_POLY)
    _, plain, _ = run_cli(capsys, ["nrange", "--input", p, "--samples", "8"])
    code, out, err = run_cli(capsys, ["nrange", "--input", p, "--samples", "8", "--region", region])
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    report = json.loads(out)
    assert report["inputs"]["region"] == region
    assert report["result"] == json.loads(plain)["result"] and report["result"]["points"]


def test_nrange_of_nonzero_constants_writes_no_points(tmp_path, capsys):
    # Every sample of a degree-0 polynomial is a nonzero constant.
    p = write(tmp_path, "p.json", {"coeffs": [EYE2]})
    code, out, _ = run_cli(capsys, ["nrange", "--input", p, "--samples", "8"])
    assert code == 0
    assert json.loads(out)["result"] == {"points": [], "skipped": 0}
    assert '"points": []' in out and out == _indent_2(out)


@pytest.mark.parametrize("real", [True, False], ids=["real-symmetric", "hermitian"])
def test_nrange_of_a_hermitian_quadratic_counts_every_zero(tmp_path, capsys, real):
    # y* P(t) y has real coefficients for Hermitian P, so each of its m zeros
    # a sample is a real zero, unflagged, or one of a pair on a sphere,
    # flagged once for both.  A positive definite A_2 keeps the degree at m.
    rng = np.random.default_rng(7 + real)
    coeffs = [random_hermitian(rng, 3, real, shift).tolist() for shift in (0.0, 0.0, 8.0)]
    p = write(tmp_path, "p.json", {"coeffs": coeffs})
    code, out, _ = run_cli(capsys, ["nrange", "--input", p, "--samples", "4000"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["skipped"] == 0
    assert sum(2 if z["spherical"] else 1 for z in result["points"]) == 2 * 4000
    assert all(z["point"][1:] == [0.0, 0.0, 0.0] for z in result["points"] if not z["spherical"])
    assert any(z["spherical"] for z in result["points"]) and not all(z["spherical"] for z in result["points"])


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND line: nrange skips samples of a 1 x 1 real polynomial whose samples are "
    "all the same polynomial; stacked_zeros refuses two rows with PairingFailureError (class "
    "shares sum to [1.0], not 2.0); the fix belongs to ROADMAP item 6, the two-sided companion"))
def test_nrange_of_a_real_polynomial_with_far_zeros_skips_no_sample(tmp_path, capsys):
    # Zeros 999999999999.6 and -1, coefficient spread 1.1e12, inside the degree trim.
    p = write(tmp_path, "p.json", {"coeffs": [[[[-999999999999.59, 0, 0, 0]]], [[[-999999999998.6, 0, 0, 0]]],
                                              [[[1, 0, 0, 0]]]]})
    code, out, _ = run_cli(capsys, ["nrange", "--input", p, "--samples", "6"])
    assert code == 0
    assert json.loads(out)["result"]["skipped"] == 0


def test_error_report_is_written_as_json_dumps_indent_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["eig", "--input", str(tmp_path / "missing-é.json")])
    assert (code, out) == (2, "")
    assert err == _indent_2(err)
    assert "\\u00e9" in err


def test_exit_codes_for_input_errors(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["eig", "--input", str(tmp_path / "missing.json")])
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, ["eig", "--input", str(bad)])
    assert code == 2

    # singular leading coefficient: companion-based eig cannot run
    p = write(tmp_path, "p.json", NO_EIG_POLY)
    code, _, err = run_cli(capsys, ["eig", "--input", p])
    assert code == 2
    assert json.loads(err)["error_kind"] == "SingularLeadingCoefficientError"

    # bounds on a polynomial with singular constant coefficient
    proj = write(tmp_path, "proj.json", PROJECTION_POLY)
    code, _, err = run_cli(capsys, ["bounds", "--input", proj])
    assert code == 2
    assert json.loads(err)["error_kind"] == "SingularCoefficientError"


NAN = float("nan")
FINITE_SET = {"kind": "finite_set", "points": [[0.5, 0, 0, 0], [2, 0, 0, 0]]}
ONE_LETTER = [{"word": [1], "coeff": EYE2}, {"word": [], "coeff": EYE2}]
# Non-identity leading coefficient, upper triangular with exact zeros:
# composition over the three detected 1 x 1 blocks is the only positive route.
TRI = {"coeffs": [[[[-2, 0, 0, 0], [0.5, 0.5, 0, 0], [1, 0, 2, 0]],
                   [ZERO, ZERO, J_Q],
                   [ZERO, ZERO, [0, 0, 0, -1]]],
                  [[[2, 0, 0, 0], ZERO, ZERO], [ZERO, ONE_Q, ZERO], [ZERO, ZERO, ONE_Q]]]}


@pytest.mark.parametrize("command, poly, region", [
    pytest.param("stable", {"coeffs": [[[[NAN, 0, 0, 0], ZERO], [ZERO, ZERO]], EYE2]},
                 FINITE_SET, id="nan-coefficient-stable-finite-set"),
    pytest.param("multivar", {"k": 2, "terms": MIXED_MULTI["terms"] + [
                     {"word": [2], "coeff": [[[0, NAN, 0, 0], ZERO], [ZERO, ZERO]]}]},
                 FINITE_SET, id="nan-coefficient-multivar"),
    pytest.param("stable", PROJECTION_POLY,
                 {"kind": "finite_set", "points": [[NAN, 0, 0, 0]]}, id="nan-probe-point"),
    pytest.param("stable", PROJECTION_POLY,
                 {"kind": "finite_set", "points": [[True, 0, 0, 0]]}, id="bool-probe-point"),
    pytest.param("stable", J_SHIFT_POLY,
                 {"kind": "open_ball", "center": ZERO, "radius": float("inf")},
                 id="infinite-radius"),
    pytest.param("multivar", {"k": True, "terms": ONE_LETTER}, FINITE_SET, id="bool-k"),
    pytest.param("multivar", {"k": 1, "terms": ONE_LETTER + [{"word": [True], "coeff": EYE2}]},
                 FINITE_SET, id="bool-word-letter"),
])
def test_non_finite_and_boolean_inputs_exit_2(tmp_path, capsys, command, poly, region):
    p = write(tmp_path, "p.json", poly)
    r = write(tmp_path, "r.json", region)
    code, out, err = run_cli(capsys, [command, "--input", p, "--region", r])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error_kind"] == "InputFormatError"


@pytest.mark.parametrize("command, poly, region", [
    pytest.param("stable", J_SHIFT_POLY, {"kind": "open_ball", "center": ["0", 0, 0, 0],
                                          "radius": 0.5}, id="string-center"),
    pytest.param("stable", J_SHIFT_POLY, {"kind": "closed_ball", "center": ZERO,
                                          "radius": "0.5"}, id="string-radius"),
    pytest.param("multivar", {"k": "2", "terms": MIXED_MULTI["terms"]}, FINITE_SET,
                 id="string-k"),
    pytest.param("multivar", {"k": 2.5, "terms": MIXED_MULTI["terms"]}, FINITE_SET,
                 id="fractional-k"),
    pytest.param("stable", J_SHIFT_POLY, {"kind": "open_ball", "center": ZERO,
                                          "radius": 10 ** 400}, id="huge-integer-radius"),
    pytest.param("stable", {"coeffs": [[[[10 ** 400, 0, 0, 0]]], [[ONE_Q]]]}, FINITE_SET,
                 id="huge-integer-coefficient"),
    pytest.param("stable", {"coeffs": [[[[0, False, 0, 0]]], [[ONE_Q]]]}, FINITE_SET,
                 id="bool-coefficient-entry"),
    pytest.param("eig", {"coeffs": [[[[0, 0, "1", 0]]], [[ONE_Q]]]}, FINITE_SET,
                 id="string-coefficient-entry"),
    pytest.param("bounds", {"coeffs": [[[[1, 0, 0]]], [[ONE_Q]]]}, FINITE_SET,
                 id="three-array-coefficient-entry"),
    pytest.param("nrange", {"coeffs": [[[None]], [[ONE_Q]]]}, FINITE_SET,
                 id="null-coefficient-entry"),
    pytest.param("hyperstable", {"coeffs": [[[ONE_Q, ZERO], [ONE_Q]], EYE2]}, FINITE_SET,
                 id="ragged-coefficient-rows"),
])
def test_non_numbers_where_numbers_belong_exit_2(tmp_path, capsys, command, poly, region):
    # Strings would pass float() and int(), true would count as 1, and an
    # integer beyond the float range would raise OverflowError in float().
    p = write(tmp_path, "p.json", poly)
    r = write(tmp_path, "r.json", region)
    code, out, err = run_cli(capsys, [command, "--input", p, "--region", r])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error_kind"] == "InputFormatError"


@pytest.mark.parametrize("band", ["-0.5", "nan", "inf"])
def test_boundary_band_must_be_finite_and_nonnegative(tmp_path, capsys, band):
    p = write(tmp_path, "p.json", J_SHIFT_POLY)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": J_Q, "radius": 0.5})
    code, out, err = run_cli(capsys, ["stable", "--input", p, "--region", r,
                                      f"--boundary-band={band}"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error_kind"] == "InputFormatError"


@pytest.mark.parametrize("option, value", [("--samples", "0"), ("--seed", "-1")])
@pytest.mark.parametrize("command", ["eig", "bounds", "stable", "hyperstable", "nrange", "multivar"])
def test_samples_below_one_and_negative_seeds_exit_2_before_any_file_is_read(tmp_path, capsys,
                                                                             command, option, value):
    # Neither file exists: reading one would end in FileNotFoundError instead.
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, [command, "--input", missing, "--region", missing,
                                      option, value])
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["error_kind"] == "InputFormatError"
    assert report["error"].startswith(option)


@pytest.mark.parametrize("offset, multi, single", [
    (1e-8, ("STABLE", "realified-tuple-test"), ("STABLE", "pointwise-oracle")),
    (1e-10, ("UNKNOWN", "realified-tuple-test-deadband"), ("UNKNOWN", "pointwise-oracle-deadband")),
    (1e-12, ("NOT_STABLE", "realified-tuple-test"), ("NOT_STABLE", "pointwise-oracle")),
])
def test_multivar_and_stable_share_the_rank_dead_band(tmp_path, capsys, offset, multi, single):
    # t - 1 over {1 + d}: the operator is d times an orthogonal matrix over a
    # term scale of about 2, which the rank test clears above 2e-9, finds
    # singular below 2e-11 and refuses to decide in between.
    m = write(tmp_path, "m.json", {"k": 1, "terms": [{"word": [1], "coeff": [[ONE_Q]]},
                                                     {"word": [], "coeff": [[[-1, 0, 0, 0]]]}]})
    p = write(tmp_path, "p.json", {"coeffs": [[[[-1, 0, 0, 0]]], [[ONE_Q]]]})
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": [[1.0 + offset, 0, 0, 0]]})
    reports = []
    for command, path in (("multivar", m), ("stable", p)):
        code, out, _ = run_cli(capsys, [command, "--input", path, "--region", r])
        assert code == 0
        report = json.loads(out)
        reports.append((report["result"]["status"], report["certificate"]))
    assert reports == [multi, single]


def _refuse_sweep(monkeypatch):
    from quatpoly import multivar

    def no_sweep(*_args):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(multivar, "realified_sweep", no_sweep)


def test_multivar_refuses_too_many_tuples(tmp_path, capsys, monkeypatch):
    # 1001^2 tuples pass the cap: refused before the sweep starts.
    _refuse_sweep(monkeypatch)
    points = [[1.0 + t / 1000.0, 0, 0, 0] for t in range(1001)]
    p = write(tmp_path, "p.json", MIXED_MULTI)
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": points})
    code, out, err = run_cli(capsys, ["multivar", "--input", p, "--region", r])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error_kind"] == "InputFormatError"


def test_multivar_refuses_too_many_letters_at_one_point(tmp_path, capsys, monkeypatch):
    # One point gives one tuple at any k, but each tuple holds k letters:
    # 10^6 + 1 letters pass the cap on tuples times letters.
    _refuse_sweep(monkeypatch)
    p = write(tmp_path, "p.json", {"k": 10 ** 6 + 1, "terms": ONE_LETTER})
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": [[2, 0, 0, 0]]})
    code, out, err = run_cli(capsys, ["multivar", "--input", p, "--region", r])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error_kind"] == "InputFormatError"


@pytest.mark.parametrize("poly, form, message", [
    pytest.param({"k": 1, "terms": ONE_LETTER}, [], "finite sets only", id="terms"),
    pytest.param(GOLDEN_POLY, ["--form", "i"], "finite probe sets only", id="form-i"),
])
def test_multivar_over_a_ball_is_an_input_format_error(tmp_path, capsys, monkeypatch, poly, form, message):
    # Multivariate stability and the derivation rules run over finite sets only.
    _refuse_sweep(monkeypatch)
    p = write(tmp_path, "p.json", poly)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 1.0})
    code, out, err = run_cli(capsys, ["multivar", "--input", p, "--region", r, *form])
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error_kind"] == "InputFormatError"
    assert message in report["error"]


UNSTRUCTURED = {"coeffs": [[[ONE_Q, I_Q], [J_Q, K_Q]], [[ZERO, ONE_Q], [ONE_Q, ZERO]], EYE2]}


@pytest.mark.parametrize("command, poly", [
    ("nrange", {"coeffs": [[[[2, 0, 0, 0]]], [[ONE_Q]]]}),
    ("hyperstable", UNSTRUCTURED),  # the search draws samples // 32 vectors y
    ("stable", NO_EIG_POLY),  # a singular leading coefficient samples a grid
])
def test_samples_past_the_limit_exit_2_before_any_draw(tmp_path, capsys, command, poly):
    # 10^12 samples would ask numpy for terabytes at once.
    from quatpoly.multivar import MAX_SAMPLE_DOUBLES

    p = write(tmp_path, "p.json", poly)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 0.5})
    code, out, err = run_cli(capsys, [command, "--input", p, "--region", r,
                                      "--samples", str(10 ** 12)])
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["error_kind"] == "InputFormatError"
    assert f"limit of {MAX_SAMPLE_DOUBLES}" in report["error"]


def test_hyperstable_with_partition_in_file(tmp_path, capsys):
    # The blocks come from the coefficients' exact zeros; a "partition" key,
    # well formed or not, is read past and changes nothing in the report.
    r = write(tmp_path, "r.json", {"kind": "finite_set",
                                   "points": [[0.5, 0, 0, 0], [2, 0, 0, 0],
                                              [1, 0, 0, 1]]})
    outs = []
    for name, poly in (("p.json", TRI), ("declared.json", {**TRI, "partition": [1, 2]}),
                       ("bad.json", {**TRI, "partition": [2, True]})):
        p = write(tmp_path, name, poly)
        code, out, _ = run_cli(capsys, ["hyperstable", "--input", p, "--region", r])
        assert code == 0
        outs.append(out.replace(name, "p.json"))
    assert outs[1:] == outs[:1] * 2
    report = json.loads(outs[0])
    assert report["result"]["status"] == "HYPERSTABLE"
    assert report["certificate"] == "block-composition"


@pytest.mark.parametrize("root", [1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, None])
def test_hyperstable_verdict_ignores_how_a_boundary_zero_rounds(tmp_path, capsys, monkeypatch,
                                                                root):
    # Sampled scalar polynomials of TRI have a double zero at exactly 1, on
    # the sphere of the closed unit ball; the verdict must not depend on how
    # the root finder rounds it (None keeps the root finder's own value).
    # The pencil TRI has the eigenvalue 0 strictly inside the ball, so the
    # linear rung refutes with that exact witness after the search.
    from quatpoly import matpoly

    if root is not None:
        roots = matpoly._lift_roots
        monkeypatch.setattr(matpoly, "_lift_roots", lambda a: np.where(
            np.abs(roots(a) - 1.0) < 1e-6, complex(root), roots(a)))
    p = write(tmp_path, "p.json", TRI)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 1.0})
    code, out, _ = run_cli(capsys, ["hyperstable", "--input", p, "--region", r, "--closed"])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"status": "NOT_HYPERSTABLE_SAMPLED",
                                "witness_eigenvalue": [0, 0, 0, 0]}
    assert report["certificate"] == "linear-equivalence"


def test_exit_code_3_for_numerical_failures(tmp_path, capsys, monkeypatch):
    from quatpoly import NoConvergenceError
    from quatpoly import cli as cli_module

    def exploding_runner(spec):
        raise NoConvergenceError("synthetic stall")

    monkeypatch.setitem(cli_module._RUNNERS, "eig", exploding_runner)
    p = write(tmp_path, "p.json", GOLDEN_POLY)
    code, out, err = run_cli(capsys, ["eig", "--input", p])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error_kind"] == "NoConvergenceError"


def test_exit_code_3_when_lapack_fails(tmp_path, capsys, monkeypatch):
    def failing(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)  # eig asks for no eigenvectors
    p = write(tmp_path, "p.json", GOLDEN_POLY)
    code, out, err = run_cli(capsys, ["eig", "--input", p])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error_kind"] == "NoConvergenceError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("payload, values", [
    ({"coeffs": [[[[-1, 0, 0, 0], ZERO], [ZERO, [-2, 0, 0, 0]]], EYE2]}, [1.0, 2.0]),
    ({"coeffs": [[[[2, 0, 0, 0]]], [[ONE_Q]]]}, [-2.0]),
])
def test_eig_with_an_exactly_singular_action(tmp_path, capsys, payload, values):
    # W(mu) is exactly singular at every eigenvalue, so the solve for the
    # residual vector refuses it and the backward error, 0, certifies it.
    code, out, _ = run_cli(capsys, ["eig", "--input", write(tmp_path, "p.json", payload)])
    assert code == 0
    report = json.loads(out)
    assert [(v["re"], v["im"]) for v in report["result"]["eigenvalues"]] == [(x, 0.0) for x in values]
    assert report["diagnostics"]["residuals"]["max_action_residual"] == 0.0


def test_exit_code_3_when_the_rank_oracle_fails(tmp_path, capsys, monkeypatch):
    def failing(*_args, **_kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    p = write(tmp_path, "p.json", J_SHIFT_POLY)
    r = write(tmp_path, "r.json", FINITE_SET)
    code, out, err = run_cli(capsys, ["stable", "--input", p, "--region", r])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error_kind"] == "NoConvergenceError"


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e-100, 1e100, 1e150, 1e200])
def test_scaled_polynomial_keeps_spectrum_and_annulus(tmp_path, capsys, scale):
    # s*P has the spectrum and the annulus of P at any representable scale.
    coeffs = np.random.default_rng(31).standard_normal((3, 3, 3, 4))

    def result(command, s):
        p = write(tmp_path, f"p{s:g}.json", {"coeffs": (s * coeffs).tolist()})
        code, out, err = run_cli(capsys, [command, "--input", p])
        assert code == 0, err
        return json.loads(out)["result"]

    moduli = result("eig", scale)["moduli"]
    assert moduli == pytest.approx(result("eig", 1.0)["moduli"], rel=1e-12)
    bounds, reference = result("bounds", scale), result("bounds", 1.0)
    assert [bounds["r"], bounds["R"]] == pytest.approx([reference["r"], reference["R"]], rel=1e-12)


def _scaled_reports(tmp_path, capsys, s):
    # nrange of s*P, and hyperstable over the open ball of radius 0.5 at 0
    # and over the closed unit ball (the quadratic product certificate), all
    # without the inputs block, which names the files.
    coeffs = np.random.default_rng(31).standard_normal((3, 3, 3, 4))
    p = write(tmp_path, f"p{s!r}.json", {"coeffs": (s * coeffs).tolist()})
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 0.5})
    unit = write(tmp_path, "unit.json", {"kind": "closed_ball", "center": ZERO, "radius": 1.0})
    reports = []
    for argv in (["nrange"], ["hyperstable", "--region", r],
                 ["hyperstable", "--region", r, "--closed"], ["hyperstable", "--region", unit]):
        code, out, err = run_cli(capsys, argv + ["--input", p, "--samples", "128"])
        assert code == 0, err
        report = json.loads(out)
        del report["inputs"]
        reports.append(json.dumps(report))
    return reports


@pytest.mark.parametrize("k", [-990, -600, -60, 60, 600, 660])
def test_power_of_two_scale_keeps_zeros_and_hyperstability(tmp_path, capsys, k):
    # 2^k * P has the zeros, the numerical range and the verdicts of P, bit for bit.
    assert _scaled_reports(tmp_path, capsys, 2.0 ** k) == _scaled_reports(tmp_path, capsys, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200])
def test_extreme_scales_end_without_error_or_warning(tmp_path, capsys, scale):
    _scaled_reports(tmp_path, capsys, scale)


# a1 t + a0 with |a1| = 1e308: its one eigenvalue has modulus |a0|/|a1| ~ 3e-308.
NEAR_MAX_POLY = {"coeffs": [[[[1, -0.0, 5e-324, 3]]], [[[2, 1e308, 0, 1]]]]}


def test_bounds_near_the_float_range_find_the_root(tmp_path, capsys):
    p = write(tmp_path, "p.json", NEAR_MAX_POLY)
    code, out, err = run_cli(capsys, ["bounds", "--input", p])
    assert code == 0, err
    modulus = math.hypot(1.0, 3.0) / math.hypot(2.0, 1e308, 1.0)
    result = json.loads(out)["result"]
    assert [result["r"], result["R"]] == pytest.approx([modulus, modulus], rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_realified_sweep_near_the_float_range_decides(tmp_path, capsys):
    p = write(tmp_path, "p.json", NEAR_MAX_POLY)
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": [[2, 0, 0, 0], [0, 3, 0, 1]]})
    code, out, err = run_cli(capsys, ["stable", "--input", p, "--region", r])
    assert code == 0, err
    report = json.loads(out)
    assert (report["result"]["status"], report["certificate"]) == ("STABLE", "pointwise-oracle")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_with_a_huge_middle_coefficient(tmp_path, capsys):
    # t^2 + 1e200 t has the eigenvalues 0 and -1e200: powers of 1/mu keep
    # the residual of the large one finite.
    p = write(tmp_path, "p.json", {"coeffs": [[[ZERO]], [[[1e200, 0, 0, 0]]], [[ONE_Q]]]})
    code, out, err = run_cli(capsys, ["eig", "--input", p])
    assert code == 0, err
    assert json.loads(out)["result"]["moduli"] == pytest.approx([0.0, 1e200], rel=1e-12)
    # With a constant term 1 the computed 0 is wrong (the true eigenvalue is
    # -1e-200), and its residual must say so.
    q = write(tmp_path, "q.json", {"coeffs": [[[ONE_Q]], [[[1e200, 0, 0, 0]]], [[ONE_Q]]]})
    code, out, err = run_cli(capsys, ["eig", "--input", q])
    assert (code, out) == (3, "")
    assert json.loads(err)["error_kind"] == "ResidualFailureError"


def _rows(a):
    return [[a.entry(i, j).as_array() for j in range(a.n_cols)] for i in range(a.n_rows)]


def _jordan(rng, q, n):
    """S J S^-1 for the n x n Jordan block J at q and a random invertible S."""
    block = QuaternionMatrix.diagonal([q] * n)
    block.a1[range(n - 1), range(1, n)] = 1.0
    s = random_invertible_qmatrix(rng, n)
    return s @ block @ inverse(s)


# The planted non-real eigenvalue: its class is 0.3 + sqrt(0.65) i.
PLANTED = Quaternion(0.3, 0.5, 0.6, -0.2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["(t-1)^2", "(t-1)^3", "(t-1)^4", "3x3 linear", "2x2 quadratic",
                                  "2x2 split copies"])
def test_eig_groups_a_defective_eigenvalue(tmp_path, capsys, case):
    # A k-fold class splits by about the k-th root of the rounding in the
    # lift; it is read as one class, k times, at the mean of its roots.  Two
    # copies of 1 + 1e-6 j lie near the axis but not on it, and keep their |Im|.
    rng = np.random.default_rng(12)
    tol = 1e-6
    if case.startswith("(t-1)"):
        coeffs = [[[[c, 0, 0, 0]]] for c in np.poly([1.0] * int(case[-1]))[::-1].tolist()]
        want = 1.0
    elif case == "2x2 split copies":
        s = random_invertible_qmatrix(rng, 2)
        a = s @ QuaternionMatrix.diagonal([Quaternion(1.0, 0.0, 1e-6, 0.0)] * 2) @ inverse(s)
        coeffs = [_rows(-a), _rows(QuaternionMatrix.identity(2))]
        want, tol = complex(1.0, 1e-6), 1e-12
    elif case == "3x3 linear":
        coeffs = [_rows(-_jordan(rng, PLANTED, 3)), _rows(QuaternionMatrix.identity(3))]
        want = complex(0.3, math.sqrt(0.65))
    else:
        b = _jordan(rng, PLANTED, 2)
        coeffs = [_rows(b @ b), _rows(-2.0 * b), _rows(QuaternionMatrix.identity(2))]
        want = complex(0.3, math.sqrt(0.65))
    p = write(tmp_path, "p.json", {"coeffs": coeffs})
    code, out, err = run_cli(capsys, ["eig", "--input", p])
    assert code == 0, err
    report = json.loads(out)
    values = [complex(e["re"], e["im"]) for e in report["result"]["eigenvalues"]]
    assert len(values) == (len(coeffs) - 1) * len(coeffs[0])
    assert max(abs(v - want) for v in values) <= tol
    assert report["diagnostics"]["residuals"]["max_action_residual"] <= 1e-7


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("region", [
    {"kind": "complement_closed_ball", "center": ZERO, "radius": 1.0},
    {"kind": "finite_set", "points": [[-1e200, 0, 0, 0]]},
], ids=["complement_closed_ball", "finite_set"])
def test_stable_confirms_a_huge_eigenvalue(tmp_path, capsys, region):
    # The oracle confirms -1e200 on t^2 + 1e200 t although mu^2 is no float:
    # each word value is taken in units of a power of two near |mu|^2.
    p = write(tmp_path, "p.json", {"coeffs": [[[ZERO]], [[[1e200, 0, 0, 0]]], [[ONE_Q]]]})
    r = write(tmp_path, "r.json", region)
    code, out, err = run_cli(capsys, ["stable", "--input", p, "--region", r])
    assert code == 0, err
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_STABLE"
    assert report["witness"] == [-1e200, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("coeffs, region", [
    ([-2.0, 0.0, 1.0], {"kind": "finite_set", "points": [[math.sqrt(2.0), 0, 0, 0]]}),
    ([1.0, 0.0, 1.0], {"kind": "closed_ball", "center": ZERO, "radius": 2.0}),
    ([0.25, 0.0, 1.0], {"kind": "closed_ball", "center": ZERO, "radius": 2.0}),
    ([2.0, -3.0, 1.0], {"kind": "closed_ball", "center": ZERO, "radius": 2.0}),
], ids=["t^2-2-at-sqrt2", "t^2+1-in-ball", "t^2+0.25-in-ball", "(t-1)(t-2)-in-ball"])
def test_stable_finds_eigenvalues_whose_terms_cancel(tmp_path, capsys, coeffs, region):
    # At an eigenvalue of a 1 x 1 polynomial the realified terms cancel to
    # rounding noise; the rank test is scaled by the terms, not by that noise.
    from quatpoly import MatrixPolynomial, Quaternion, QuaternionMatrix, is_eigenvalue_oracle

    p = write(tmp_path, "p.json", {"coeffs": [[[[c, 0, 0, 0]]] for c in coeffs]})
    r = write(tmp_path, "r.json", region)
    code, out, err = run_cli(capsys, ["stable", "--input", p, "--region", r])
    assert code == 0, err
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_STABLE"
    assert not report["certificate"].endswith("deadband")
    poly = MatrixPolynomial([QuaternionMatrix.from_rows([[Quaternion(c)]]) for c in coeffs])
    assert is_eigenvalue_oracle(poly, Quaternion(*report["witness"])) is True


def test_nrange_lists_a_double_zero_twice(tmp_path, capsys):
    # Every sampled polynomial of the 1 x 1 (t - 1)^2 is |y|^2 (t - 1)^2: one
    # real class of multiplicity 2, listed once per unit.
    p = write(tmp_path, "p.json", {"coeffs": [[[ONE_Q]], [[[-2, 0, 0, 0]]], [[ONE_Q]]]})
    code, out, err = run_cli(capsys, ["nrange", "--input", p, "--samples", "5"])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["skipped"] == 0
    assert result["points"] == [{"point": [1.0, 0.0, 0.0, 0.0], "spherical": False}] * 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["eig", "stable"])
def test_overflowing_monic_normalization_exits_3(tmp_path, capsys, command):
    # 1e-300 t^2 + 1e300: inverse(A_2) A_0 = 1e600 is no float.
    p = write(tmp_path, "p.json", {"coeffs": [[[[1e300, 0, 0, 0]]], [[ZERO]],
                                              [[[1e-300, 0, 0, 0]]]]})
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 0.5})
    code, out, err = run_cli(capsys, [command, "--input", p, "--region", r])
    assert (code, out) == (3, "")
    assert json.loads(err)["error_kind"] == "NoConvergenceError"


def test_hyperstable_with_a_tiny_leading_action_ends_cleanly(tmp_path, capsys):
    # A_2 e_1 = 1e-200 e_1 beside A_0 e_1 ~ 1: the quadratic product
    # certificate once divided by ||A_2 y||^2, which underflows to 0.
    poly = {"coeffs": [[[ONE_Q, [0.3, 0, 0, 0]], [[0.2, 0, 0, 0], I_Q]],
                       [[J_Q, ZERO], [ONE_Q, K_Q]],
                       [[[1e-200, 0, 0, 0], ONE_Q], [ZERO, ONE_Q]]]}
    p = write(tmp_path, "p.json", poly)
    r = write(tmp_path, "r.json", {"kind": "closed_ball", "center": ZERO, "radius": 1.0})
    code, _, err = run_cli(capsys, ["hyperstable", "--input", p, "--region", r,
                                    "--samples", "64"])
    assert code == 0, err


def test_one_call_builds_one_argument_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    p = write(tmp_path, "p.json", GOLDEN_POLY)
    code, _, _ = run_cli(capsys, ["eig", "--input", p])
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "out", "usage: quatpoly"),
    (["eig"], 2, "err", "the following arguments are required: --input"),
    (["solve", "--input", "p.json"], 2, "err", "invalid choice: 'solve'"),
    (["eig", "--input", "p.json", "--samples", "many"], 2, "err", "invalid int value: 'many'"),
])
def test_help_and_bad_arguments_exit_from_argparse(capsys, argv, code, stream, text):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    assert text in getattr(capsys.readouterr(), stream)


def test_tiny_polynomial_reports_a_true_action_residual(tmp_path, capsys):
    # The relative residual does not depend on the scale of P, also where
    # the coefficient norms are near the bottom of the exponent range.
    coeffs = np.random.default_rng(31).standard_normal((3, 3, 3, 4))

    def residual(s):
        p = write(tmp_path, f"p{s:g}.json", {"coeffs": (s * coeffs).tolist()})
        code, out, err = run_cli(capsys, ["eig", "--input", p])
        assert code == 0, err
        return json.loads(out)["diagnostics"]["residuals"]["max_action_residual"]

    reference = residual(1.0)
    assert reference / 10.0 <= residual(1e-300) <= 10.0 * reference


def test_timings_flag(tmp_path, capsys):
    p = write(tmp_path, "p.json", GOLDEN_POLY)
    code, out, _ = run_cli(capsys, ["eig", "--input", p, "--timings"])
    assert code == 0
    timings = json.loads(out)["diagnostics"]["timings_ms"]
    assert timings is not None and timings["total"] >= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_eig_at_subnormal_eigenvalues(tmp_path, capsys, n):
    # t I + 1e-319 I: the action scale sum_i ||A_i|| |mu|^i is about 2e-319
    # there, whose reciprocal is no float.
    eye = [[ONE_Q if i == j else ZERO for j in range(n)] for i in range(n)]
    tiny = [[[1e-319, 0, 0, 0] if i == j else ZERO for j in range(n)] for i in range(n)]
    p = write(tmp_path, "p.json", {"coeffs": [tiny, eye]})
    code, out, err = run_cli(capsys, ["eig", "--input", p])
    assert code == 0, err
    assert json.loads(out)["result"]["eigenvalues"] == [{"re": -1e-319, "im": 0.0}] * n


# A_1 t + A_0 with both rows of A_1 e_1 equal to 1 and of A_0 e_1 to -0.85:
# P(t) e_1 = (1, 1)^T (t - 0.85), so every z* P(t) e_1 has its zero 0.85,
# 0.15 inside the open unit ball.
BAND_POLY = {"coeffs": [[[[-0.85, 0, 0, 0], [0.3, 0, 0.2, 0]], [[-0.85, 0, 0, 0], [0.7, 0.1, 0, 0]]],
                        [[ONE_Q, [0.5, 0, 0, 0.4]], [ONE_Q, [-0.2, 0.3, 0, 0]]]]}
E1 = [ONE_Q, ZERO]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hyperstability_search_keeps_the_boundary_band(tmp_path, capsys):
    p = write(tmp_path, "p.json", BAND_POLY)
    r = write(tmp_path, "r.json", {"kind": "open_ball", "center": ZERO, "radius": 1.0})
    witnesses = {}
    for band in ([], ["--boundary-band", "0.1"], ["--boundary-band", "0.2"]):
        code, out, err = run_cli(capsys, ["hyperstable", "--input", p, "--region", r, *band])
        assert code == 0, err
        report = json.loads(out)
        assert report["certificate"] == "sampled-z-exhaustion"
        witnesses[tuple(band)] = report["witness"]
    assert witnesses[()] == witnesses[("--boundary-band", "0.1")] == E1
    # With the band wider than 0.15 the zero of e_1 lies in the dead band.
    assert witnesses[("--boundary-band", "0.2")] != E1


# P(t) e_1 = (1, 1)^T (t^2 + 1): every z* P(t) e_1 vanishes on the unit
# sphere, which misses the point 0.8 j by 0.2.
SPHERE_POLY = {"coeffs": [[[ONE_Q, [0.3, 0, 0.2, 0]], [ONE_Q, [0.7, 0.1, 0, 0]]],
                          [[ZERO, [0.4, 0, 0, 0.1]], [ZERO, [-0.2, 0.5, 0, 0]]],
                          [[ONE_Q, [0.5, 0, 0, 0.4]], [ONE_Q, [-0.2, 0.3, 0, 0]]]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_band_does_not_widen_a_finite_set(tmp_path, capsys):
    p = write(tmp_path, "p.json", SPHERE_POLY)
    r = write(tmp_path, "r.json", {"kind": "finite_set", "points": [[0, 0, 0.8, 0]]})
    reports = set()
    for band in ("1e-9", "0.1", "0.3"):
        code, out, err = run_cli(capsys, ["hyperstable", "--input", p, "--region", r,
                                          "--boundary-band", band])
        assert code == 0, err
        report = json.loads(out)
        reports.add(json.dumps([report["result"], report["certificate"], report["witness"]]))
    assert len(reports) == 1
    assert json.loads(reports.pop()) == [{"status": "HYPERSTABLE"}, "finite-set-equivalence", None]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spherical_numerical_range_samples_count_as_spheres(tmp_path, capsys):
    # Every y* P(t) y of P = (t^2 + 1) M has the unit sphere as its zeros,
    # and the sphere passes through the center j of the annulus.
    from quatpoly import sample_numerical_range
    from quatpoly.io import polynomial_from_json, region_from_json

    m = [[ONE_Q, [0.5, 0.2, 0, 0]], [[0.3, 0, 0.4, 0], [1, 0, 0, 0.1]]]
    poly = {"coeffs": [m, [[ZERO, ZERO], [ZERO, ZERO]], m]}
    annulus = {"kind": "annulus", "center": J_Q, "inner_radius": 0, "outer_radius": 0.1}
    sampled = sample_numerical_range(polynomial_from_json(poly), 16, seed=42)
    region = region_from_json(annulus)
    assert len(sampled.points) == 16 and sampled.spherical.all()
    assert region.contains_rows(sampled.points, sampled.spherical).sum() == 16
    assert not region.contains_rows(sampled.points).any()

    # The whole class of i is eigenvalues, so the verdict is exact: the
    # stability rung's witness is a point of the unit sphere in the annulus.
    p = write(tmp_path, "p.json", poly)
    r = write(tmp_path, "r.json", annulus)
    code, out, err = run_cli(capsys, ["hyperstable", "--input", p, "--region", r,
                                      "--samples", "64"])
    assert code == 0, err
    report = json.loads(out)
    assert report["result"]["status"] == "NOT_HYPERSTABLE_SAMPLED"
    assert report["certificate"] == "stability-witness"
    mu = Quaternion(*report["result"]["witness_eigenvalue"])
    assert region.contains(mu) and abs(mu.w) <= 1e-12
    assert mu.modulus() == pytest.approx(1.0, abs=1e-12)
