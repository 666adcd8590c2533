"""Tests of the benchmark itself: run with ``python -m pytest bench/tests -q``."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (pins BLAS threads, then imports quatpoly from src/)
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_quatpoly()


def _run_cycle(workload, tmp_path, tracer=None):
    cycles = workloads.build(workload, 7, str(tmp_path), variants=1)
    records, _refs, _ = run.measure(CLI, cycles, 0.0, tracer)
    return cycles, records


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_cycle_passes_its_checks(workload, tmp_path):
    cycles, records = _run_cycle(workload, tmp_path)
    assert len(records) == len(cycles[0]) == 15
    assert run.check_records(cycles, records) == []
    tracing.assert_clean()


def test_job_times_are_corrected_to_the_reference_speed():
    # One job ran three times: twice while the host ran at half the reference
    # speed, once at the reference speed.
    ref = run.REFERENCE_S
    refs = [2 * ref, 2 * ref, ref, ref]
    records = [(0, 3, False, 0.2), (0, 3, False, 0.6), (0, 3, False, 0.1)]
    # The middle run straddles both speeds: 0.6 s at 1.5 references.
    assert run.job_times(records, refs) == {(0, 3): pytest.approx(0.1)}
    assert run.corrected(0.6, 2 * ref, ref) == pytest.approx(0.4)


def _corrupt(record, edit):
    report = json.loads(record[5])
    edit(report)
    return record[:5] + (json.dumps(report),) + record[6:]


def test_corrupted_outputs_raise_fail_ratio(tmp_path):
    cycles, records = _run_cycle("spectrum", tmp_path)
    labels = [cycles[0][r[1]].label for r in records]
    eig = labels.index("eig n8 m2")
    stable = next(k for k, label in enumerate(labels) if label.startswith("stable"))

    def perturb(report):
        report["result"]["eigenvalues"][0]["re"] *= 1 + 1e-4

    def flip(report):
        status = report["result"]["status"]
        report["result"]["status"] = "STABLE" if status == "NOT_STABLE" else "NOT_STABLE"

    assert run.check_records(cycles, records) == []
    bad = list(records)
    bad[eig] = _corrupt(records[eig], perturb)
    bad[stable] = _corrupt(records[stable], flip)
    failures = run.check_records(cycles, bad)
    assert [label for label, _ in failures] == [labels[eig], labels[stable]]
    assert len(failures) / len(bad) == pytest.approx(2 / 15)


def test_traced_run_rebinds_every_namespace_and_self_times_add_up(tmp_path):
    import quatpoly
    from quatpoly import eigensolver, linalg, matpoly

    tracer = tracing.Tracer()
    original = eigensolver.eig_complex
    tracer.install()
    try:
        for module in (quatpoly, eigensolver, linalg, matpoly):
            assert getattr(module.eig_complex, "__bench_wrapper__", False)
    finally:
        tracer.uninstall()
    assert matpoly.eig_complex is original and linalg.eig_complex is original

    cycles, records = _run_cycle("zeros", tmp_path, tracer)
    assert run.check_records(cycles, records) == []
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    main = tracing.NAMES.index("cli.main")
    roots = [k for k, s in enumerate(spans) if s[0] == main]
    assert len(roots) == len(cycles[0])
    for k in roots:
        job = spans[k][4]
        total = sum(t for t, s in zip(selfs, spans) if s[4] == job)
        assert total == pytest.approx(spans[k][2] - spans[k][1], rel=1e-9)
    metrics = tracing.layer_metrics(spans, len(roots))
    assert metrics["eigensolver.eig_complex.charpoly.calls"] > 0
    assert metrics["matpoly.scalar_zeros.class_degree_ratio"] == 1.0
