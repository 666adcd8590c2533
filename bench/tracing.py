"""Outside-in layer tracing of quatpoly by rebinding its public functions.

``Tracer.install`` replaces each wrapped function in every ``quatpoly``
module namespace that holds it (``from .x import f`` copies the binding, so
patching only the defining module would miss callers); ``uninstall`` puts
the originals back.  Each call records a span (function, start, end, parent
span, job id) in memory; ``layer_metrics`` folds them into per-layer calls,
inclusive and self time, and the split counts the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

WRAPPED = {
    "cli": ("main",),
    "io": ("load_json", "polynomial_from_json", "region_from_json",
           "multipolynomial_from_json"),
    "stability": ("check_stability", "check_hyperstability", "eigenvalue_annulus",
                  "unique_positive_root", "sample_numerical_range",
                  "not_hyperstable_search", "region_sample_grid"),
    "multivar": ("check_stability_multi", "derive_hyperstability_quadratic",
                 "derive_hyperstability_cubic"),
    "matpoly": ("polyeig_with_residuals", "companion", "evaluate_action",
                "is_eigenvalue_oracle", "eigenvector_at", "scalar_zeros",
                "scalar_char_poly"),
    "linalg": ("spectral_norm", "inverse", "complex_adjoint", "real_rep_left",
               "real_rep_right_scalar", "rank_decision"),
    "eigensolver": ("eig_complex", "eigenvector", "lu_factor", "inverse_complex"),
}
NAMES = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]

# eig_complex and lu_factor calls are split by the nearest wrapped ancestor.
EIG_CALLERS = {"matpoly.polyeig_with_residuals": "lift", "linalg.spectral_norm": "gram",
               "matpoly.scalar_zeros": "charpoly"}
LU_PARENTS = {"eigensolver.inverse_complex": "inverse", "linalg.inverse": "inverse",
              "eigensolver.eigenvector": "eigvec",
              "matpoly.polyeig_with_residuals": "refine"}


def _quatpoly_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "quatpoly" or key.startswith("quatpoly."))]


def assert_clean():
    """Raise if any quatpoly namespace holds a wrapper."""
    for module in _quatpoly_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__bench_wrapper__", False):
                raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")


def _note(name: str, args, result):
    """Per-call detail kept on the span: a size or an outcome."""
    if name == "eigensolver.eig_complex":
        return len(args[0])
    if name == "matpoly.polyeig_with_residuals":
        return len(result)
    if name == "linalg.rank_decision":
        return result[0] == "unknown"
    if name == "matpoly.scalar_zeros":
        coeffs = list(args[0].coeffs)
        while len(coeffs) > 1 and coeffs[-1].modulus() == 0.0:
            coeffs.pop()
        return len(coeffs) - 1, sum(2 if z.spherical else 1 for z in result)
    return None


class Tracer:
    """Span recorder; spans are (name index, start, end, parent, job, note)."""

    def __init__(self):
        import quatpoly  # noqa: F401  (loads every submodule)

        self.originals = {}
        for name in NAMES:
            mod, fn = name.split(".")
            self.originals[name] = getattr(sys.modules[f"quatpoly.{mod}"], fn)
        self.spans: list = []
        self.stack: list = []
        self.job = -1
        self.bindings: list = []

    def _wrap(self, index: int, name: str, func):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            result = failed = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                note = None if failed else _note(name, args, result)
                spans[slot] = (index, start, end, parent, self.job, note)

        wrapper.__bench_wrapper__ = True
        return wrapper

    def install(self):
        by_id = {id(f): (i, n, f) for i, (n, f) in enumerate(self.originals.items())}
        wrappers = {}
        for module in _quatpoly_modules():
            for attr, value in list(vars(module).items()):
                index, name, func = by_id.get(id(value), (None, None, None))
                if func is not value:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(index, name, func)
                setattr(module, attr, wrappers[name])
                self.bindings.append((module, attr, func))

    def uninstall(self):
        for module, attr, func in self.bindings:
            setattr(module, attr, func)
        self.bindings.clear()
        assert_clean()

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start,end,parent,job\n")
            for index, start, end, parent, job, _ in self.spans:
                out.write(f"{NAMES[index]},{start:.9f},{end:.9f},{parent},{job}\n")


def self_times(spans) -> list:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for index, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, *_) in enumerate(spans)]


def _nearest(spans, k: int, table: dict):
    parent = spans[k][3]
    while parent >= 0:
        label = table.get(NAMES[spans[parent][0]])
        if label is not None:
            return label
        parent = spans[parent][3]
    return None


def layer_metrics(spans, jobs: int) -> dict:
    """Per-layer metrics: calls (count), ms and self_ms (per traced job), splits."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    split = defaultdict(float)
    unknown = zero_classes = zero_degree = tuples = 0
    for k, (index, start, end, parent, _job, note) in enumerate(spans):
        name = NAMES[index]
        calls[name] += 1
        incl[name] += end - start
        excl[name] += selfs[k]
        if name == "eigensolver.eig_complex":
            label = _nearest(spans, k, EIG_CALLERS)
            if label:
                split[f"{name}.{label}.calls"] += 1
                split[f"{name}.{label}.ms"] += 1000.0 * (end - start)
                split[f"{name}.{label}.n3"] += (note or 0) ** 3
        elif name == "eigensolver.lu_factor" and parent >= 0:
            label = LU_PARENTS.get(NAMES[spans[parent][0]])
            if label:
                split[f"{name}.{label}.calls"] += 1
        elif name == "matpoly.polyeig_with_residuals":
            split[f"{name}.eigenvalues"] += note or 0
        elif name == "linalg.rank_decision":
            unknown += bool(note)
            if parent >= 0 and NAMES[spans[parent][0]] == "multivar.check_stability_multi":
                tuples += 1
        elif name == "matpoly.scalar_zeros" and note:
            zero_degree += note[0]
            zero_classes += note[1]
    per_job = 1.0 / max(jobs, 1)
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.ms"] = 1000.0 * incl[name] * per_job
        out[f"{name}.self_ms"] = 1000.0 * excl[name] * per_job
    for label in ("lift", "gram", "charpoly"):
        base = f"eigensolver.eig_complex.{label}"
        out[f"{base}.calls"] = int(split[f"{base}.calls"])
        out[f"{base}.ms"] = split[f"{base}.ms"] * per_job
        out[f"{base}.n3"] = int(split[f"{base}.n3"])
    for label in ("inverse", "eigvec", "refine"):
        out[f"eigensolver.lu_factor.{label}.calls"] = int(split[f"eigensolver.lu_factor.{label}.calls"])
    out["matpoly.polyeig_with_residuals.eigenvalues"] = int(split["matpoly.polyeig_with_residuals.eigenvalues"])
    out["linalg.rank_decision.unknown_ratio"] = unknown / max(calls["linalg.rank_decision"], 1)
    out["matpoly.is_eigenvalue_oracle.calls_per_job"] = calls["matpoly.is_eigenvalue_oracle"] * per_job
    out["multivar.tuples"] = tuples
    out["matpoly.scalar_zeros.class_degree_ratio"] = zero_classes / zero_degree if zero_degree else 1.0
    return out


def unit(metric: str) -> str:
    if metric.endswith(".n3"):
        return "n3-computed"
    if metric.endswith((".calls", ".eigenvalues", ".tuples", ".jobs")):
        return "count"
    if metric.endswith(".ms") or metric.endswith(".self_ms"):
        return "ms/job"
    if metric.endswith(".calls_per_job"):
        return "1/job"
    return "ratio"
