"""quatpoly benchmark: seeded CLI job workloads, checked outputs, layer tracing.

Run from the root of a checkout:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

One client in one process and one thread runs the jobs of a workload back
to back (a closed loop).  Each job is an in-process call of
``quatpoly.cli.main(argv)`` on JSON inputs written during set-up, with stdout
and stderr captured; every output is checked against a numpy reference after
the timed phase.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every job once untraced and once with the layer wrappers of ``tracing``
installed, and reports the per-layer metrics.  The last line of stdout is one
JSON object; the lines before it repeat every metric with its unit and
sample count, the environment and any failing job.

The speed of a shared host swings by up to 2x for seconds to minutes at a
time, alike for every kind of work.  A fixed reference kernel is therefore
timed before every job, and the end-to-end times are corrected to a fixed
reference speed: each wall time is scaled by REFERENCE_S over the mean of
the reference times around it.  The uncorrected figures are printed as
well, and the traced run reports them with the per-layer metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# Every job runs at least this many times, spread over the run, even past
# --seconds; its time is the median of its runs.
MIN_ROUNDS = 2
# Job times are reported at the host speed at which the reference kernel takes
# this long: about its time on an unloaded 2-vCPU Xeon host.
REFERENCE_S = 0.0025
# A seed never used while the workloads were tuned, kept for checking claims.
HELD_OUT_SEED = 9001


def import_quatpoly():
    """Import quatpoly from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import quatpoly.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import quatpoly from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: quatpoly was imported from {cli.__file__}, not {SRC}")
    return cli


def cold_import():
    """``import quatpoly`` in a fresh interpreter, as each CLI invocation pays it."""
    subprocess.run([sys.executable, "-c", "import quatpoly"], env=dict(os.environ, PYTHONPATH=SRC),
                   cwd=ROOT, check=True, timeout=120)


def time_reference() -> float:
    """Seconds of a fixed piece of interpreter and small-numpy work (about
    REFERENCE_S), the same kind of work as a job; timed between jobs, it shows
    how fast the shared host runs the benchmark at that moment."""
    import numpy as np

    start = time.perf_counter()
    a = np.full((8, 8), 0.1)
    x = 0.0
    for k in range(600):
        a = np.tanh(a @ a.T + 0.01 * k)
        x += sum(float(v) * 1.000001 for v in a[0])
    return time.perf_counter() - start


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed: scaled by REFERENCE_S over the mean
    of the reference times measured around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def run_job(cli, argv):
    """(seconds, exit code or None on an exception, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    except Exception:  # a crash is a failed job, recorded with its traceback
        code = None
        err.write(traceback.format_exc())
    # Every run of a job prints the same report: interned, the reports of a
    # run take the same memory however many times its jobs ran.
    return time.perf_counter() - start, code, sys.intern(out.getvalue()), sys.intern(err.getvalue())


def setup(cli, workload: str, seed: int, workdir: str):
    """Cold import, input generation and one warm-up job per command."""
    start = time.perf_counter()
    cold_import()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cycles = workloads.build(workload, seed, workdir)
    seen = set()
    for job in cycles[0]:
        if job.argv[0] not in seen:
            seen.add(job.argv[0])
            run_job(cli, job.argv)
    return time.perf_counter() - start, cycles


def measure(cli, cycles, seconds: float, tracer=None, min_rounds: int = 0):
    """Run whole cycles back to back, draw after draw, while the next one is
    expected to fit, and at least until every draw has run ``min_rounds`` times.

    Returns the records (variant, slot, traced, seconds, code, stdout,
    stderr), the reference times (one before each untraced job and one after
    the last) and the wall time of the timed phase.  With a tracer, every job
    runs untraced and then traced.
    """
    records, refs = [], []
    start = time.perf_counter()
    last = 0.0
    count = 0
    while (count == 0 or count < min_rounds * len(cycles)
           or (time.perf_counter() - start) + last <= seconds):
        cycle_start = time.perf_counter()
        variant = count % len(cycles)
        for slot, job in enumerate(cycles[variant]):
            refs.append(time_reference())
            records.append((variant, slot, False) + run_job(cli, job.argv))
            if tracer is not None:
                tracer.job = len(records)
                tracer.install()
                try:
                    records.append((variant, slot, True) + run_job(cli, job.argv))
                finally:
                    tracer.uninstall()
        last = time.perf_counter() - cycle_start
        count += 1
    refs.append(time_reference())
    return records, refs, time.perf_counter() - start


def check_records(cycles, records):
    """Failing records as (label, reason); identical outputs are checked once."""
    verdicts = {}
    failures = []
    for variant, slot, _traced, _secs, code, stdout, stderr in records:
        job = cycles[variant][slot]
        key = (variant, slot, code, stdout)
        if key not in verdicts:
            if code is None:
                reason = "exception: " + stderr.strip().splitlines()[-1]
            elif code != 0:
                reason = f"exit code {code}"
            else:
                try:
                    reason = job.check(json.loads(stdout))
                except Exception as exc:  # a malformed report fails its job
                    reason = f"check raised {type(exc).__name__}: {exc}"
            verdicts[key] = reason
        if verdicts[key] is not None:
            failures.append((job.label, verdicts[key]))
    return failures


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(cycles) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "jobs_per_cycle": len(cycles[0]),
        "variants": len(cycles),
        "held_out_seed": HELD_OUT_SEED,
    }


def job_times(records, refs) -> dict:
    """Corrected seconds of each job (draw, slot): the median over its untraced runs."""
    runs = {}
    plain = [r for r in records if not r[2]]
    for k, (variant, slot, _traced, secs, *_) in enumerate(plain):
        runs.setdefault((variant, slot), []).append(corrected(secs, refs[k], refs[k + 1]))
    return {key: statistics.median(v) for key, v in runs.items()}


def end_to_end(records, refs, setups) -> tuple[dict, dict]:
    """Job times and set-up time corrected to the reference speed."""
    jobs = job_times(records, refs)
    times = [1000.0 * secs for secs in jobs.values()]
    metrics = {
        "job_ms_p50": (statistics.median(times), "ms"),
        "job_ms_p90": (statistics.quantiles(times, n=10)[8], "ms"),
        "jobs_per_s": (len(jobs) / sum(jobs.values()), "1/s"),
        "setup_s": (statistics.median(corrected(*setup) for setup in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"job_ms_p50": len(times), "job_ms_p90": len(times), "jobs_per_s": len(times),
               "setup_s": len(setups), "peak_rss_mb": 1}
    return metrics, samples


def wall(records, refs) -> dict:
    """Uncorrected wall-clock figures of the untraced runs, and how much slower
    than the reference speed the host ran on the median."""
    times = [1000.0 * r[3] for r in records if not r[2]]
    return {
        "wall.job_ms_p50": (statistics.median(times), "ms"),
        "wall.job_ms_p90": (statistics.quantiles(times, n=10)[8], "ms"),
        "wall.jobs_per_s": (1000.0 * len(times) / sum(times), "1/s"),
        "host.slowdown": (statistics.median(refs) / REFERENCE_S, "ratio"),
    }


def per_layer(tracer, records, refs) -> tuple[dict, dict]:
    traced = [r for r in records if r[2]]
    plain = [r for r in records if not r[2]]
    values = tracing.layer_metrics(tracer.spans, len(traced))
    values["trace.overhead"] = sum(r[3] for r in plain) / sum(r[3] for r in traced)
    values["trace.jobs"] = len(traced)
    metrics = {k: (v, tracing.unit(k)) for k, v in values.items()}
    metrics.update(wall(records, refs))
    samples = {k: len(traced) for k in metrics}
    samples["host.slowdown"] = len(refs)
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectrum", "oracle", "zeros"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_quatpoly()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = time_reference()
            seconds, cycles = setup(cli, args.workload, args.seed, workdir)
            setups.append((seconds, before, time_reference()))
        tracer = tracing.Tracer() if args.trace else None
        records, refs, elapsed = measure(cli, cycles, args.seconds, tracer,
                                         min_rounds=0 if tracer else MIN_ROUNDS)
        if tracer is None:
            tracing.assert_clean()
        failures = check_records(cycles, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics, samples = end_to_end(records, refs, setups)
    else:
        metrics, samples = per_layer(tracer, records, refs)
        tracer.write(os.path.join(outdir, f"spans-{tag}.csv.gz"))
    env = environment(cycles)
    fail_ratio = len(failures) / len(records)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(records)}  timed {elapsed:.3f} s  fail_ratio {fail_ratio:.4f}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:55s} {value:14.6g} {unit:12s} n={samples[name]}")
    if tracer is None:
        print("# uncorrected: " + "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in wall(records, refs).items()))
    for label, reason in failures:
        print(f"# FAILED {label}: {reason}")
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    by_label = {}
    for variant, slot, traced, secs, *_ in records:
        by_label.setdefault(cycles[variant][slot].label, []).append(1000.0 * secs)
    slot_ms = {label: statistics.median(v) for label, v in by_label.items()}
    with open(os.path.join(outdir, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, env=env, samples=samples, fail_ratio=fail_ratio,
                       failures=failures, slot_ms=slot_ms, reference_s=refs,
                       runs=[[v, sl, tr, secs] for v, sl, tr, secs, *_ in records]),
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
