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
from dataclasses import dataclass
from typing import Optional

from . import io as qio
from .errors import (
    DegenerateCoefficientsError,
    NoConvergenceError,
    PairingFailureError,
    QuatPolyError,
    ResidualFailureError,
)
from .matpoly import polyeig_with_residuals
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


@dataclass
class JobSpec:
    command: str
    input_path: str
    region_path: Optional[str] = None
    samples: int = 500
    seed: int = 42
    closed: bool = False
    form: Optional[str] = None
    cubic_leading: str = "literal"
    boundary_band: float = BOUNDARY_BAND
    timings: bool = False


def _load_region(spec: JobSpec) -> Region:
    if spec.region_path is None:
        raise qio.InputFormatError(f"command {spec.command!r} needs --region")
    region = qio.region_from_json(qio.load_json(spec.region_path))
    if spec.closed and region.kind is RegionKind.OPEN_BALL:
        region = Region.closed_ball(region.center, region.radius)
    return region


def _run_eig(spec: JobSpec) -> dict:
    poly, _ = qio.polynomial_from_json(qio.load_json(spec.input_path))
    pairs = polyeig_with_residuals(poly)
    result = {
        "eigenvalues": [qio.standard_eigenvalue_to_json(ev) for ev, _ in pairs],
        "moduli": [qio.round_sig(ev.modulus()) for ev, _ in pairs],
    }
    residuals = {"max_action_residual":
                 qio.round_sig(max((r for _, r in pairs), default=0.0))}
    return {"result": result, "certificate": None, "witness": None,
            "residuals": residuals}


def _run_bounds(spec: JobSpec) -> dict:
    poly, _ = qio.polynomial_from_json(qio.load_json(spec.input_path))
    r, big_r = eigenvalue_annulus(poly)
    return {"result": {"r": qio.round_sig(r), "R": qio.round_sig(big_r)},
            "certificate": "norm-bound-annulus", "witness": None,
            "residuals": {}}


def _run_stable(spec: JobSpec) -> dict:
    poly, _ = qio.polynomial_from_json(qio.load_json(spec.input_path))
    region = _load_region(spec)
    verdict = check_stability(poly, region, band=spec.boundary_band,
                              samples=spec.samples)
    witness = (qio.quaternion_to_json(verdict.witness)
               if verdict.witness is not None else None)
    return {"result": {"status": verdict.status.value},
            "certificate": verdict.certificate, "witness": witness,
            "residuals": {}}


def _run_hyperstable(spec: JobSpec) -> dict:
    poly, partition = qio.polynomial_from_json(qio.load_json(spec.input_path))
    region = _load_region(spec)
    verdict = check_hyperstability(poly, region, partition=partition,
                                   band=spec.boundary_band,
                                   y_samples=max(1, spec.samples // 32),
                                   seed=spec.seed,
                                   evidence_samples=max(1, spec.samples // 4))
    witness = (qio.vector_to_json(verdict.witness)
               if verdict.witness is not None else None)
    result = {"status": verdict.status.value}
    mu = verdict.details.get("witness_eigenvalue")
    if mu is not None:
        result["witness_eigenvalue"] = qio.quaternion_to_json(mu)
    return {"result": result, "certificate": verdict.certificate,
            "witness": witness, "residuals": {}}


def _run_nrange(spec: JobSpec) -> dict:
    poly, _ = qio.polynomial_from_json(qio.load_json(spec.input_path))
    sampled = sample_numerical_range(poly, spec.samples, spec.seed)
    points = [{"point": qio.quaternion_to_json(rp.point),
               "spherical": rp.spherical} for rp in sampled.points]
    return {"result": {"points": points, "skipped": sampled.skipped},
            "certificate": None, "witness": None,
            "residuals": {}}


def _run_multivar(spec: JobSpec) -> dict:
    data = qio.load_json(spec.input_path)
    region = _load_region(spec)
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
        if spec.form is None:
            raise qio.InputFormatError(
                "quadratic derivation needs --form {i,ii}")
        verdict = derive_hyperstability_quadratic(
            poly.coeffs[2], poly.coeffs[1], poly.coeffs[0], region, spec.form)
        mode = f"derive-quadratic-{spec.form}"
    elif poly.degree == 3:
        verdict = derive_hyperstability_cubic(
            poly.coeffs[3], poly.coeffs[2], poly.coeffs[1], poly.coeffs[0],
            region, leading=spec.cubic_leading)
        mode = f"derive-cubic-{spec.cubic_leading}"
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


def run(spec: JobSpec) -> tuple[int, dict]:
    """Execute a job and return (exit_code, report)."""
    started = time.perf_counter()
    try:
        if not 0.0 <= spec.boundary_band < math.inf:
            raise qio.InputFormatError(
                f"--boundary-band must be finite and nonnegative, got {spec.boundary_band!r}")
        payload = _RUNNERS[spec.command](spec)
    except _NUMERICAL_FAILURES as exc:
        return 3, {"command": spec.command, "error": str(exc),
                   "error_kind": type(exc).__name__}
    except (qio.InputFormatError, QuatPolyError, ValueError, OSError) as exc:
        return 2, {"command": spec.command, "error": str(exc),
                   "error_kind": type(exc).__name__}
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    report = {
        "command": spec.command,
        "inputs": {
            "input": spec.input_path,
            "region": spec.region_path,
            "samples": spec.samples,
            "seed": spec.seed,
            "closed": spec.closed,
            "form": spec.form,
            "cubic_leading": spec.cubic_leading,
            "boundary_band": spec.boundary_band,
        },
        "result": payload["result"],
        "certificate": payload["certificate"],
        "witness": payload["witness"],
        "diagnostics": {
            "residuals": payload["residuals"],
            "timings_ms": {"total": round(elapsed_ms, 3)} if spec.timings else None,
        },
    }
    return 0, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatpoly",
        description="Right eigenvalues and stability regions of quaternion "
                    "matrix polynomials")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "eig": "standard eigenvalues of a matrix polynomial",
        "bounds": "annulus radii bounding all eigenvalue moduli",
        "stable": "stability verdict with respect to a region",
        "hyperstable": "hyperstability verdict with respect to a region",
        "nrange": "sampled inner approximation of the numerical range",
        "multivar": "multivariate stability or hyperstability derivation",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", required=True, help="input JSON file")
        sp.add_argument("--region", default=None, help="region JSON file")
        sp.add_argument("--samples", type=int, default=500)
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--closed", action="store_true",
                        help="treat an open ball region as closed")
        sp.add_argument("--form", choices=("i", "ii"), default=None,
                        help="quadratic derivation form (multivar)")
        sp.add_argument("--cubic-leading", choices=("literal", "a3"),
                        default="literal",
                        help="leading coefficient reading for the cubic rule")
        sp.add_argument("--boundary-band", type=float, default=BOUNDARY_BAND,
                        help="dead band around region boundaries")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    spec = JobSpec(command=args.command, input_path=args.input,
                   region_path=args.region, samples=args.samples,
                   seed=args.seed, closed=args.closed, form=args.form,
                   cubic_leading=args.cubic_leading,
                   boundary_band=args.boundary_band, timings=args.timings)
    code, report = run(spec)
    if code == 0:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stderr.write(json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
