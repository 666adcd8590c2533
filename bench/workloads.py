"""Seeded inputs, job lists and output checks for the three workloads.

A workload is a cycle of 15 job slots; every slot has a fixed command and
input size, and the seed only draws the numbers.  ``build`` writes
``VARIANTS`` independent draws of the cycle as JSON files and returns, per
variant, the jobs with their CLI arguments and a check against the numpy
reference in ``quat``.  Regions and probe points are placed at a stated
margin from every eigenvalue class, so the expected verdict never depends on
which side of a tolerance the program lands.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

import quat

VARIANTS = 3
# Relative distance between any region boundary and any class sphere.
REGION_MARGIN = 1e-3
# Probe points and tuples that must not be eigenvalues keep this sigma ratio.
SIGMA_MARGIN = 1e-6
# A reported eigenvalue, tuple or witness must give a sigma ratio below this.
SINGULAR_TOL = 1e-8
# Reported eigenvalues and radii agree with numpy to this relative error.
VALUE_RTOL = 1e-7
# The action residual that every eigenvalue of `eig` promises to meet.
RESIDUAL_MAX = 1e-7

# A check takes the parsed report of a job that exited 0 and returns None
# when the output is right, else the reason.
Check = Callable[[dict], Optional[str]]


@dataclass
class Job:
    label: str
    argv: list
    check: Check


def qmat(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n, 4)) / np.sqrt(n)


def qpoint(rng, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(4)


def planted_point(rng) -> np.ndarray:
    """A quaternion of modulus in [0.5, 1.5], the scale of a random spectrum."""
    q = rng.standard_normal(4)
    return q * rng.uniform(0.5, 1.5) / np.linalg.norm(q)


def planted_poly(rng, n: int, m: int, mu: np.ndarray) -> np.ndarray:
    """Random coefficients whose constant term is adjusted so mu is an eigenvalue."""
    coeffs = np.stack([qmat(rng, n) for _ in range(m + 1)])
    y = rng.standard_normal((n, 4))
    value = -sum(quat.matvec(coeffs[i], quat.qmul(y, quat.qpow(mu, i)))
                 for i in range(1, m + 1))
    coeffs[0] = quat.plant_constant(coeffs[0], y, value)
    return coeffs


def singular_leading_poly(rng, n: int, m: int) -> np.ndarray:
    coeffs = np.stack([qmat(rng, n) for _ in range(m + 1)])
    coeffs[m, -1] = np.tensordot(rng.standard_normal(n - 1), coeffs[m, :-1], axes=1)
    return coeffs


def triangular_poly(rng, n: int, m: int) -> np.ndarray:
    coeffs = np.stack([qmat(rng, n) for _ in range(m + 1)])
    coeffs[m] = 0.0
    coeffs[m, np.arange(n), np.arange(n), 0] = 1.0
    coeffs *= np.triu(np.ones((n, n)))[None, :, :, None]
    return coeffs


# ---------------------------------------------------------------------------
# Regions with a margin from every class
# ---------------------------------------------------------------------------


def _meets(kind: str, region: dict, dmin: np.ndarray, dmax: np.ndarray):
    """Per class: whether it meets the region, and its distance to the deciding boundary."""
    if kind in ("open_ball", "closed_ball"):
        return dmin < region["radius"], np.abs(region["radius"] - dmin)
    if kind == "complement_closed_ball":
        return dmax > region["radius"], np.abs(dmax - region["radius"])
    ri, ro = region["inner_radius"], region["outer_radius"]
    meets = (dmin <= ro) & (dmax >= ri)
    return meets, np.minimum(np.abs(ro - dmin), np.abs(dmax - ri))


def _gap_midpoint(rng, values: np.ndarray) -> Optional[float]:
    v = np.sort(values)
    gaps = [k for k in range(len(v) - 1) if v[k + 1] - v[k] > 4 * REGION_MARGIN * max(1.0, v[k + 1])]
    if not gaps:
        return None
    k = gaps[int(rng.integers(len(gaps)))]
    return 0.5 * (v[k] + v[k + 1])


def design_region(rng, kind: str, classes: np.ndarray, want_hit: bool) -> dict:
    """A region of the given kind that meets some class exactly when
    ``want_hit``, with every class at REGION_MARGIN from its boundary."""
    for _ in range(200):
        center = qpoint(rng, 0.5)
        dmin, dmax = quat.class_extremes(classes, center)
        region = {"kind": kind, "center": center.tolist()}
        if kind in ("open_ball", "closed_ball"):
            radius = _gap_midpoint(rng, dmin) if want_hit else dmin.min() * rng.uniform(0.3, 0.9)
            if radius is None:
                continue
            region["radius"] = radius
        elif kind == "complement_closed_ball":
            radius = _gap_midpoint(rng, dmax) if want_hit else dmax.max() * rng.uniform(1.1, 2.0)
            if radius is None:
                continue
            region["radius"] = radius
        else:
            ends = np.sort(np.concatenate([dmin, dmax]))
            if want_hit:
                lo, hi = sorted(rng.choice(len(ends), size=2, replace=False))
                ri = ends[lo] * rng.uniform(0.9, 0.99)
                ro = ends[hi] * rng.uniform(1.01, 1.1)
            else:
                ro = dmin.min() * rng.uniform(0.5, 0.9)
                ri = ro * rng.uniform(0.2, 0.8)
            region["inner_radius"], region["outer_radius"] = ri, ro
        meets, margin = _meets(kind, region, dmin, dmax)
        scale = max(1.0, region.get("radius", region.get("outer_radius", 1.0)))
        if margin.min() > REGION_MARGIN * scale and bool(meets.any()) == want_hit:
            return region
    raise RuntimeError(f"no {kind} region with the requested margin")


def in_region(region: dict, q: np.ndarray) -> bool:
    d = float(np.linalg.norm(q - np.array(region["center"])))
    kind = region["kind"]
    if kind == "open_ball":
        return d < region["radius"]
    if kind == "closed_ball":
        return d <= region["radius"]
    if kind == "complement_closed_ball":
        return d > region["radius"]
    return region["inner_radius"] <= d <= region["outer_radius"]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _match_values(got: np.ndarray, want: np.ndarray) -> float:
    """Largest relative gap of a greedy nearest matching of two value multisets."""
    if len(got) != len(want):
        return np.inf
    free = list(range(len(want)))
    worst = 0.0
    for g in got:
        dist = [abs(g - want[k]) for k in free]
        k = int(np.argmin(dist))
        worst = max(worst, dist[k] / max(1.0, abs(want[free[k]])))
        free.pop(k)
    return worst


def check_eig(ref_vals, report):
    evs = report["result"]["eigenvalues"]
    got = np.array([complex(e["re"], s * e["im"]) for e in evs for s in (1, -1)])
    gap = _match_values(got, ref_vals)
    if gap > VALUE_RTOL:
        return f"eigenvalues differ from numpy by {gap:.3g}"
    residual = report["diagnostics"]["residuals"]["max_action_residual"]
    if not residual <= RESIDUAL_MAX:
        return f"action residual {residual}"
    return None


def check_bounds(ref_radii, ref_vals, report):
    r, big_r = report["result"]["r"], report["result"]["R"]
    for got, want in zip((r, big_r), ref_radii):
        if abs(got - want) > VALUE_RTOL * want:
            return f"radius {got} differs from numpy {want}"
    moduli = np.abs(ref_vals)
    if moduli.min() < r * (1 - 1e-9) or moduli.max() > big_r * (1 + 1e-9):
        return "a numpy eigenvalue lies outside [r, R]"
    return None


def _witness_singular(coeffs, region, point) -> Optional[str]:
    q = np.array(point, dtype=float)
    if not in_region(region, q):
        return f"witness {point} is outside the region"
    ratio = float(quat.sigma_ratio(quat.realified(coeffs, q))[0])
    if ratio > SINGULAR_TOL:
        return f"witness sigma ratio {ratio:.3g}"
    return None


def check_stable(coeffs, region, expected, report):
    """``expected`` is a status; for "SAMPLED" the sweep is inconclusive or finds a witness."""
    status = report["result"]["status"]
    if expected == "SAMPLED":
        if status == "UNKNOWN" and report["certificate"] == "oracle-sampling-inconclusive":
            return None
        expected = "NOT_STABLE"
    if status != expected:
        return f"status {status}, expected {expected}"
    if status == "NOT_STABLE":
        return _witness_singular(coeffs, region, report["witness"])
    return None


def _planted_witness(got, planted: np.ndarray) -> Optional[str]:
    if np.abs(np.array(got, dtype=float) - planted).max() > 1e-9 * max(1.0, np.abs(planted).max()):
        return f"witness {got} is not the planted one"
    return None


def check_finite(planted, report):
    if planted is None:
        return check_status("STABLE", report)
    return check_status("NOT_STABLE", report) or _planted_witness(report["witness"], planted)


def check_multi(terms, planted, report):
    if planted is None:
        return check_status("STABLE", report)
    witness = report["witness"]
    bad = check_status("NOT_STABLE", report) or _planted_witness(witness["tuple"], planted)
    if bad:
        return bad
    y = np.array(witness["vector"], dtype=float).ravel()
    op = quat.realified_multi(terms, planted)[0]
    rel = np.linalg.norm(op @ y) / (np.linalg.norm(op, 2) * np.linalg.norm(y))
    return None if rel <= SINGULAR_TOL else f"witness vector residual {rel:.3g}"


def check_status(expected, report):
    status = report["result"]["status"]
    return None if status == expected else f"status {status}, expected {expected}"


def check_nrange(m, samples, report):
    result = report["result"]
    count = sum(2 if p["spherical"] else 1 for p in result["points"])
    want = m * (samples - result["skipped"])
    return None if count == want else f"{count} zero classes, expected {want}"


def check_hyper(coeffs, region, expected, report):
    """Scalar and triangular inputs: HYPERSTABLE exactly when stable.

    ``expected`` None marks an unstructured input, where only a sampled
    negative verdict or UNKNOWN is admissible.
    """
    status = report["result"]["status"]
    if expected is None:
        if status in ("UNKNOWN", "NOT_HYPERSTABLE_SAMPLED"):
            return None
        return f"status {status} on an unstructured input"
    if status != expected:
        return f"status {status}, expected {expected}"
    if status == "NOT_HYPERSTABLE_SAMPLED":
        mu = np.array(report["result"]["witness_eigenvalue"], dtype=float)
        bad = _witness_singular(coeffs, region, mu)
        if bad:
            return bad
        y = np.array(report["witness"], dtype=float)
        res = quat.action_residual(coeffs, y, mu)
        if res > SINGULAR_TOL:
            return f"witness vector residual {res:.3g}"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self, workdir: str, variant: int):
        self.workdir = workdir
        self.variant = variant

    def __call__(self, slot: int, name: str, obj) -> str:
        path = os.path.join(self.workdir, f"v{self.variant}-s{slot:02d}-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(obj))
        return path


def _poly_json(coeffs: np.ndarray) -> dict:
    return {"coeffs": coeffs.tolist()}


# Slot sizes are chosen so that, sorted by time, the median and the 90th
# percentile of a run's jobs lie inside groups of alike slots: a quantile
# inside such a group stays put from run to run, one on the edge between two
# groups jumps between them.  Jobs whose time varies severalfold with the draw
# are left out: a `hyperstable` search that finds its witness stops after a
# random number of candidates.


def _spectrum(rng, write) -> list:
    kinds = ("open_ball", "closed_ball", "complement_closed_ball", "annulus")
    sizes = (((8, 2), ("eig", "bounds", "stable")), ((8, 3), ("eig", "bounds", "stable")),
             ((12, 2), ("eig", "bounds", "stable")), ((12, 3), ("eig",)),
             ((16, 2), ("eig", "bounds", "stable")), ((16, 3), ("eig", "stable")))
    jobs = []
    for s, ((n, m), commands) in enumerate(sizes):
        mu = planted_point(rng)
        coeffs = planted_poly(rng, n, m, mu)
        vals = quat.lift_eigvals(coeffs)
        path = write(len(jobs), f"poly-n{n}-m{m}", _poly_json(coeffs))
        for command in commands:
            if command == "eig":
                jobs.append(Job(f"eig n{n} m{m}", ["eig", "--input", path],
                                partial(check_eig, vals)))
            elif command == "bounds":
                jobs.append(Job(f"bounds n{n} m{m}", ["bounds", "--input", path],
                                partial(check_bounds, quat.annulus(coeffs), vals)))
            else:
                kind = kinds[(s + write.variant) % len(kinds)]
                hit = (s + write.variant) % 2 == 0
                region = design_region(rng, kind, quat.standard_classes(vals), hit)
                rpath = write(len(jobs), f"region-{kind}", region)
                expected = "NOT_STABLE" if hit else "STABLE"
                jobs.append(Job(f"stable {kind} n{n} m{m}",
                                ["stable", "--input", path, "--region", rpath],
                                partial(check_stable, coeffs, region, expected)))
    return jobs


def _clear_points(rng, coeffs, count: int, scale: float) -> list:
    """Random probe points whose realified action keeps SIGMA_MARGIN."""
    points = np.zeros((0, 4))
    while len(points) < count:
        draw = scale * rng.standard_normal((count - len(points), 4))
        keep = quat.sigma_ratio(quat.realified(coeffs, draw)) > SIGMA_MARGIN
        points = np.concatenate([points, draw[keep]])
    return list(points)


def _finite_job(rng, write, slot, n, m, count, hit_at):
    mu = planted_point(rng)
    coeffs = planted_poly(rng, n, m, mu) if hit_at is not None else \
        np.stack([qmat(rng, n) for _ in range(m + 1)])
    points = _clear_points(rng, coeffs, count, 1.5)
    if hit_at is not None:
        points[hit_at] = mu
    path = write(slot, f"poly-n{n}-m{m}", _poly_json(coeffs))
    rpath = write(slot, "points", {"kind": "finite_set",
                                   "points": [p.tolist() for p in points]})
    exit_note = f"hit@{hit_at}" if hit_at is not None else "sweep"
    return Job(f"stable finite{count} {exit_note} n{n} m{m}",
               ["stable", "--input", path, "--region", rpath],
               partial(check_finite, mu if hit_at is not None else None))


def _singular_job(rng, write, slot, n, m, kind, samples):
    coeffs = singular_leading_poly(rng, n, m)
    center = qpoint(rng, 0.5)
    if kind == "annulus":
        region = {"kind": kind, "center": center.tolist(),
                  "inner_radius": rng.uniform(0.2, 0.5), "outer_radius": rng.uniform(0.8, 1.5)}
    else:
        region = {"kind": kind, "center": center.tolist(), "radius": rng.uniform(0.5, 1.5)}
    path = write(slot, f"singular-n{n}-m{m}", _poly_json(coeffs))
    rpath = write(slot, f"region-{kind}", region)
    return Job(f"stable singular {kind} s{samples} n{n} m{m}",
               ["stable", "--input", path, "--region", rpath, "--samples", str(samples)],
               partial(check_stable, coeffs, region, "SAMPLED"))


def _zero_free_points(rng, count: int) -> list:
    points = []
    while len(points) < count:
        q = qpoint(rng)
        if np.linalg.norm(q) > 0.3:
            points.append(q)
    return points


def _tuples_clear(terms, points, skip=None) -> bool:
    """Every tuple of points^2 in lexicographic order, except ``skip``, keeps SIGMA_MARGIN."""
    tuples = np.array(list(itertools.product(points, repeat=2)))
    ratios = quat.sigma_ratio(quat.realified_multi(terms, tuples))
    if skip is not None:
        ratios[skip] = np.inf
    return bool(ratios.min() > SIGMA_MARGIN)


def _multi_job(rng, write, slot, n, count, hit_at):
    words = ([], [1], [2], [1, 2], [2, 1])
    for _ in range(50):
        terms = [(tuple(w), qmat(rng, n)) for w in words]
        points = _zero_free_points(rng, count)
        planted = None
        if hit_at is not None:
            planted = np.array([points[hit_at // count], points[hit_at % count]])
            y = rng.standard_normal((n, 4))
            value = np.zeros((n, 4))
            for word, coeff in terms[1:]:
                w = np.array([1.0, 0.0, 0.0, 0.0])
                for letter in word:
                    w = quat.qmul(w, planted[letter - 1])
                value -= quat.matvec(coeff, quat.qmul(y, w))
            terms[0] = ((), quat.plant_constant(terms[0][1], y, value))
        if _tuples_clear(terms, points, skip=hit_at):
            break
    else:
        raise RuntimeError("no multivariate input with the requested margin")
    path = write(slot, f"multi-n{n}", {"k": 2, "terms": [
        {"word": list(w), "coeff": c.tolist()} for w, c in terms]})
    rpath = write(slot, "points", {"kind": "finite_set",
                                   "points": [p.tolist() for p in points]})
    exit_note = f"hit@{hit_at}" if hit_at is not None else "sweep"
    return Job(f"multivar {count}^2 {exit_note} n{n}",
               ["multivar", "--input", path, "--region", rpath],
               partial(check_multi, terms, planted))


def _derived_terms(coeffs, rule: str):
    if rule == "i":
        return [((1, 1), coeffs[2]), ((2,), coeffs[1]), ((), coeffs[0])]
    if rule == "ii":
        return [((1, 2), coeffs[2]), ((2,), coeffs[1]), ((), coeffs[0])]
    lead = coeffs[0] if rule == "literal" else coeffs[3]
    return [((2, 2, 2), lead), ((1, 2), coeffs[2]), ((1,), coeffs[1]), ((), coeffs[0])]


def _derive_job(rng, write, slot, n, rule, count):
    m = 2 if rule in ("i", "ii") else 3
    for _ in range(50):
        coeffs = np.stack([qmat(rng, n) for _ in range(m + 1)])
        points = _zero_free_points(rng, count)
        if _tuples_clear(_derived_terms(coeffs, rule), points):
            break
    else:
        raise RuntimeError("no derivation input with the requested margin")
    path = write(slot, f"derive-{rule}-n{n}", _poly_json(coeffs))
    rpath = write(slot, "points", {"kind": "finite_set",
                                   "points": [p.tolist() for p in points]})
    flag = ["--form", rule] if m == 2 else ["--cubic-leading", rule]
    return Job(f"multivar derive-{rule} {count}^2 n{n}",
               ["multivar", "--input", path, "--region", rpath] + flag,
               partial(check_status, "HYPERSTABLE"))


def _oracle(rng, write) -> list:
    return [
        _finite_job(rng, write, 0, 4, 2, 20, None),
        _multi_job(rng, write, 1, 3, 8, None),
        _finite_job(rng, write, 2, 6, 3, 50, 25),
        _derive_job(rng, write, 3, 3, "i", 10),
        _singular_job(rng, write, 4, 4, 2, "open_ball", 100),
        _finite_job(rng, write, 5, 8, 3, 200, 50),
        _multi_job(rng, write, 6, 4, 12, 72),
        _finite_job(rng, write, 7, 4, 3, 100, None),
        _derive_job(rng, write, 8, 4, "ii", 12),
        _singular_job(rng, write, 9, 4, 2, "annulus", 120),
        _finite_job(rng, write, 10, 8, 2, 200, 20),
        _derive_job(rng, write, 11, 3, "literal", 14),
        _finite_job(rng, write, 12, 6, 2, 20, None),
        _derive_job(rng, write, 13, 3, "a3", 8),
        _multi_job(rng, write, 14, 3, 20, None),
    ]


def _nrange_job(rng, write, slot, n, m, samples):
    coeffs = np.stack([qmat(rng, n) for _ in range(m + 1)])
    path = write(slot, f"poly-n{n}-m{m}", _poly_json(coeffs))
    return Job(f"nrange s{samples} n{n} m{m}",
               ["nrange", "--input", path, "--samples", str(samples),
                "--seed", str(int(rng.integers(1 << 30)))],
               partial(check_nrange, m, samples))


def _hyper_job(rng, write, slot, shape, n, m, samples):
    """shape: "unstructured" (ball free of eigenvalues), "scalar" (n = 1) or
    "triangular"."""
    if shape == "triangular":
        coeffs = triangular_poly(rng, n, m)
    else:
        coeffs = np.stack([qmat(rng, n) for _ in range(m + 1)])
    classes = quat.standard_classes(quat.lift_eigvals(coeffs))
    hit = shape != "unstructured" and (slot + write.variant) % 2 == 0
    kind = "closed_ball" if slot % 2 else "open_ball"
    region = design_region(rng, kind, classes, hit)
    if shape == "unstructured":
        expected = None
    else:
        expected = "NOT_HYPERSTABLE_SAMPLED" if hit else "HYPERSTABLE"
    path = write(slot, f"{shape}-n{n}-m{m}", _poly_json(coeffs))
    rpath = write(slot, f"region-{kind}", region)
    return Job(f"hyperstable {shape} s{samples} n{n} m{m}",
               ["hyperstable", "--input", path, "--region", rpath, "--samples", str(samples),
                "--seed", str(int(rng.integers(1 << 30)))],
               partial(check_hyper, coeffs, region, expected))


def _zeros(rng, write) -> list:
    return [
        _nrange_job(rng, write, 0, 3, 2, 120),
        _hyper_job(rng, write, 1, "unstructured", 3, 2, 100),
        _hyper_job(rng, write, 2, "scalar", 1, 2, 100),
        _nrange_job(rng, write, 3, 4, 3, 200),
        _hyper_job(rng, write, 4, "triangular", 3, 2, 100),
        _hyper_job(rng, write, 5, "unstructured", 4, 3, 300),
        _nrange_job(rng, write, 6, 6, 4, 120),
        _hyper_job(rng, write, 7, "scalar", 1, 4, 100),
        _hyper_job(rng, write, 8, "unstructured", 3, 2, 200),
        _nrange_job(rng, write, 9, 5, 2, 300),
        _hyper_job(rng, write, 10, "triangular", 8, 3, 100),
        _hyper_job(rng, write, 11, "unstructured", 6, 2, 200),
        _nrange_job(rng, write, 12, 3, 2, 400),
        _hyper_job(rng, write, 13, "scalar", 1, 3, 100),
        _hyper_job(rng, write, 14, "triangular", 4, 2, 100),
    ]


WORKLOADS = {"spectrum": _spectrum, "oracle": _oracle, "zeros": _zeros}


def build(workload: str, seed: int, workdir: str, variants: int = VARIANTS) -> list:
    """Write the inputs of ``variants`` draws of the cycle; return one job list per draw."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return [WORKLOADS[workload](rng, _Writer(workdir, v)) for v in range(variants)]
