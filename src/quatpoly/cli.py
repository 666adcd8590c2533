"""Command-line front end.

One job per invocation: parse the input files, dispatch to the library, and
emit a machine-readable JSON report on stdout.  Exit code 0 covers every
computed verdict including UNKNOWN; 2 flags input errors; 3 flags numerical
failures.  Reports are byte-identical across runs for the same inputs and
seed (wall-clock timings only appear under --timings).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

from . import io as qio
from .errors import (
    DegenerateCoefficientsError,
    NoConvergenceError,
    PairingFailureError,
    QuatPolyError,
    ResidualFailureError,
)
from .matpoly import MatrixPolynomial, polyeig_with_residuals
from .multivar import (
    derive_hyperstability_cubic,
    derive_hyperstability_quadratic,
    check_stability_multi,
)
from .stability import (
    Region,
    RegionKind,
    check_hyperstability,
    check_stability,
    eigenvalue_annulus,
    sample_numerical_range,
)
from .tolerances import BOUNDARY_BAND

_NUMERICAL_FAILURES = (NoConvergenceError, ResidualFailureError,
                       PairingFailureError, DegenerateCoefficientsError)


def _load_polynomial(args: argparse.Namespace) -> tuple[MatrixPolynomial, Optional[list[int]]]:
    return qio.polynomial_from_json(qio.load_json(args.input))


def _load_region(args: argparse.Namespace) -> Region:
    if args.region is None:
        raise qio.InputFormatError(f"command {args.command!r} needs --region")
    region = qio.region_from_json(qio.load_json(args.region))
    if args.closed and region.kind is RegionKind.OPEN_BALL:
        region = Region.closed_ball(region.center, region.radius)
    return region


def _run_eig(args: argparse.Namespace) -> dict:
    poly, _ = _load_polynomial(args)
    pairs = polyeig_with_residuals(poly)
    result = {
        "eigenvalues": [qio.standard_eigenvalue_to_json(ev) for ev, _ in pairs],
        "moduli": [qio.round_sig(ev.modulus()) for ev, _ in pairs],
    }
    residuals = {"max_action_residual":
                 qio.round_sig(max((r for _, r in pairs), default=0.0))}
    return {"result": result, "certificate": None, "witness": None,
            "residuals": residuals}


def _run_bounds(args: argparse.Namespace) -> dict:
    poly, _ = _load_polynomial(args)
    r, big_r = eigenvalue_annulus(poly)
    return {"result": {"r": qio.round_sig(r), "R": qio.round_sig(big_r)},
            "certificate": "norm-bound-annulus", "witness": None,
            "residuals": {}}


def _run_stable(args: argparse.Namespace) -> dict:
    poly, _ = _load_polynomial(args)
    region = _load_region(args)
    verdict = check_stability(poly, region, band=args.boundary_band,
                              samples=args.samples)
    witness = (qio.quaternion_to_json(verdict.witness)
               if verdict.witness is not None else None)
    return {"result": {"status": verdict.status.value},
            "certificate": verdict.certificate, "witness": witness,
            "residuals": {}}


def _run_hyperstable(args: argparse.Namespace) -> dict:
    poly, partition = _load_polynomial(args)
    region = _load_region(args)
    verdict = check_hyperstability(poly, region, partition=partition,
                                   band=args.boundary_band,
                                   y_samples=max(1, args.samples // 32),
                                   seed=args.seed,
                                   evidence_samples=max(1, args.samples // 4))
    witness = (qio.vector_to_json(verdict.witness)
               if verdict.witness is not None else None)
    result = {"status": verdict.status.value}
    mu = verdict.details.get("witness_eigenvalue")
    if mu is not None:
        result["witness_eigenvalue"] = qio.quaternion_to_json(mu)
    return {"result": result, "certificate": verdict.certificate,
            "witness": witness, "residuals": {}}


def _run_nrange(args: argparse.Namespace) -> dict:
    poly, _ = _load_polynomial(args)
    sampled = sample_numerical_range(poly, args.samples, args.seed)
    points = [{"point": qio.quaternion_to_json(rp.point),
               "spherical": rp.spherical} for rp in sampled.points]
    return {"result": {"points": points, "skipped": sampled.skipped},
            "certificate": None, "witness": None,
            "residuals": {}}


def _run_multivar(args: argparse.Namespace) -> dict:
    data = qio.load_json(args.input)
    region = _load_region(args)
    if isinstance(data, dict) and "terms" in data:
        multi = qio.multipolynomial_from_json(data)
        verdict = check_stability_multi(multi, region)
        witness = None
        if verdict.witness_tuple is not None:
            witness = {
                "tuple": [qio.quaternion_to_json(q) for q in verdict.witness_tuple],
                "vector": qio.vector_to_json(verdict.witness_vector),
            }
        return {"result": {"status": verdict.status.value, "mode": "stability"},
                "certificate": verdict.certificate, "witness": witness,
                "residuals": {}}
    poly, _ = qio.polynomial_from_json(data)
    if poly.degree == 2:
        if args.form is None:
            raise qio.InputFormatError(
                "quadratic derivation needs --form {i,ii}")
        verdict = derive_hyperstability_quadratic(
            poly.coeffs[2], poly.coeffs[1], poly.coeffs[0], region, args.form)
        mode = f"derive-quadratic-{args.form}"
    elif poly.degree == 3:
        verdict = derive_hyperstability_cubic(
            poly.coeffs[3], poly.coeffs[2], poly.coeffs[1], poly.coeffs[0],
            region, leading=args.cubic_leading)
        mode = f"derive-cubic-{args.cubic_leading}"
    else:
        raise qio.InputFormatError(
            "derivation rules apply to degree 2 or 3 polynomials")
    return {"result": {"status": verdict.status.value, "mode": mode},
            "certificate": verdict.certificate, "witness": None,
            "residuals": {}}


_RUNNERS = {
    "eig": _run_eig,
    "bounds": _run_bounds,
    "stable": _run_stable,
    "hyperstable": _run_hyperstable,
    "nrange": _run_nrange,
    "multivar": _run_multivar,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Execute the job of a parsed command line and return (exit_code, report)."""
    started = time.perf_counter()
    try:
        if not 0.0 <= args.boundary_band < math.inf:
            raise qio.InputFormatError(
                f"--boundary-band must be finite and nonnegative, got {args.boundary_band!r}")
        payload = _RUNNERS[args.command](args)
    except (qio.InputFormatError, QuatPolyError, ValueError, OSError) as exc:
        return (3 if isinstance(exc, _NUMERICAL_FAILURES) else 2), {
            "command": args.command, "error": str(exc), "error_kind": type(exc).__name__}
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    report = {
        "command": args.command,
        # Every option but --timings, in the order main declares them.
        "inputs": {k: v for k, v in vars(args).items() if k not in ("command", "timings")},
        "result": payload["result"],
        "certificate": payload["certificate"],
        "witness": payload["witness"],
        "diagnostics": {
            "residuals": payload["residuals"],
            "timings_ms": {"total": round(elapsed_ms, 3)} if args.timings else None,
        },
    }
    return 0, report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quatpoly",
        description="Right eigenvalues and stability regions of quaternion "
                    "matrix polynomials")
    parser.add_argument("command", choices=_RUNNERS,
                        help="eig (standard eigenvalues), bounds (annulus of the "
                             "eigenvalue moduli), stable, hyperstable, nrange (sampled "
                             "numerical range) or multivar (multivariate rules)")
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--region", help="region JSON file")
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--closed", action="store_true",
                        help="treat an open ball region as closed")
    parser.add_argument("--form", choices=("i", "ii"),
                        help="quadratic derivation form (multivar)")
    parser.add_argument("--cubic-leading", choices=("literal", "a3"), default="literal",
                        help="leading coefficient reading for the cubic rule")
    parser.add_argument("--boundary-band", type=float, default=BOUNDARY_BAND,
                        help="dead band around region boundaries")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")
    code, report = run(parser.parse_args(argv))
    (sys.stdout if code == 0 else sys.stderr).write(json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
