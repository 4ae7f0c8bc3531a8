"""Benchmark of the tvls library: three closed-loop workloads on one model.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wv_drift --seed 1 --seconds 20 --trace 0

Each run is one process with one caller and BLAS pinned to one thread.  It
runs one untimed warm-up job, then runs jobs back to back for
``--seconds``, and checks every output against ``oracle`` (numpy and scipy
only) after the timed loop.  ``setup_s`` is the median of several fresh
interpreters, started one after another at even intervals over the loop.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from spans
recorded around every public tvls function (see ``spans.py``).  Lines
before it record the environment and a per-run report.  See ``NOTES.md``.
"""

import os

# Pin BLAS and OpenMP pools before numpy is loaded, here and in the setup probes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

SETUP_PROBES = 7
MIN_JOBS = 12  # the tail percentile needs at least 11 jobs
MIN_TRACED_JOBS = 3
ACCURACY_JOBS = 8  # the seeded subset of jobs behind accuracy_digits
WATCHED_WARNINGS = ("TruncationWarning", "TailMassWarning")

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
]

# (span name, per-job statistics); see NOTES.md for which end-to-end metric
# each one should move on which workload.
LAYER_FUNCTIONS = [
    ("spectral.covariance", ("calls", "self_s")),
    ("spectral.wigner_ville", ("calls", "self_s", "lags", "terms")),
    ("spectral.transfer_function", ("calls", "self_s", "terms", "bytes")),
    ("spectral.spectral_density", ("calls", "self_s")),
    ("kernels.kernel_grid_finite", ("calls", "self_s", "points")),
    ("kernels.kernel_grid_limit", ("calls", "self_s", "points")),
    ("transition.matrix_exp", ("calls", "self_s")),
    ("transition.ode_transition", ("calls", "self_s", "steps")),
    ("transition.check_commutativity", ("calls", "self_s")),
    ("stability.lambda_max_check", ("calls", "self_s", "passed")),
    ("stability.eigen_bound_check", ("calls", "self_s", "passed")),
    ("simulate.simulate_paths", ("calls", "self_s", "path_points")),
    ("model.sup_norm", ("calls", "self_s")),
    ("model.MatrixFunction.eval", ("calls", "self_s")),
    ("model.MatrixFunction.eval_array", ("calls", "self_s")),
    ("model.model_from_json", ("calls", "self_s")),
    ("quadrature.cumulative_simpson", ("calls", "self_s")),
    ("cli.dispatch", ("calls", "self_s", "failed")),
]
SETUP_MODULES = ("model", "stability", "transition")
UNITS = {"self_s": "s", "bytes": "B"}


def per_layer_spec():
    """Names and units of the per-layer metrics, in output order."""
    spec = [(f"{fn}.{stat}", UNITS.get(stat, "count"))
            for fn, stats in LAYER_FUNCTIONS for stat in stats]
    spec += [
        ("stability.certificate_useful_ratio", "ratio"),
        ("cli.output_bytes", "B"),
        ("other.self_s", "s"),
        ("bench.job.self_s", "s"),
        ("trace.job_s", "s"),
        ("setup.traced_s", "s"),
    ]
    spec += [(f"setup.{mod}.self_s", "s") for mod in SETUP_MODULES]
    spec += [
        ("setup.bench.self_s", "s"),
        ("warnings.TruncationWarning", "count"),
        ("warnings.TailMassWarning", "count"),
        ("trace.jobs_per_s_untraced", "1/s"),
        ("trace.jobs_per_s_traced", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return spec


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')} (build-time)",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def probe(workload):
    """Fresh-interpreter setup: print the monotonic clock once tvls is ready."""
    from workloads import WORKLOADS

    WORKLOADS[workload].setup()
    print(json.dumps({"ready": time.monotonic()}))


def probe_seconds(workload):
    """Launch-to-ready time of one fresh interpreter running the workload's setup."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--probe"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["ready"] - start


def timed_loop(wl, st, jobs, seconds, min_jobs, tracer=None):
    """Run jobs back to back for ``seconds``; returns (records, wall seconds).

    Each record is [job, output, error, seconds, warning names].
    """
    records = []
    gc.collect()
    start = time.perf_counter()
    while True:
        job = next(jobs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            j0 = time.perf_counter()
            sid = tracer.begin("bench.job") if tracer else None
            try:
                out, err = wl.run(st, job), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.end(sid)
            elapsed = time.perf_counter() - j0
        records.append([job, out, err, elapsed, [type(w.message).__name__ for w in caught]])
        if time.perf_counter() - start >= seconds and len(records) >= min_jobs:
            return records, time.perf_counter() - start


def probed_loop(wl, st, jobs, seconds):
    """The timed loop in ``SETUP_PROBES - 1`` equal segments, with a setup probe
    before each segment and after the last; the loop clock stops while a
    probe runs.

    The machine's speed drifts over tens of seconds, so probes spread over
    the run give a steadier ``setup_s`` than probes taken back to back.
    Returns (records, loop wall seconds, setup samples).
    """
    samples = [probe_seconds(wl.name)]
    records, wall = [], 0.0
    segments = SETUP_PROBES - 1
    for k in range(segments):
        need = MIN_JOBS - len(records) if k == segments - 1 else 0
        seg, seg_wall = timed_loop(wl, st, jobs, seconds / segments, need)
        records += seg
        wall += seg_wall
        samples.append(probe_seconds(wl.name))
    return records, wall, samples


def check_all(wl, st, records):
    """Oracle checks after the timed loop; returns (failure messages, digits of the subset)."""
    failures, digits = [], []
    wl.prepare_checks(st, [r[0] for r in records])
    for k, (job, out, err, _, _) in enumerate(records):
        if err is None:
            try:
                ok, dig, msg = wl.check(st, job, out)
            except Exception as exc:  # an output the check cannot read is a failed job
                ok, dig, msg = False, None, f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                err = msg
            if k < ACCURACY_JOBS:
                digits.append(dig if dig is not None else 0.0)
        records[k][2] = err
        if err is not None:
            failures.append(f"job {k}: {err}")
    return failures, digits


def tail(times):
    """Highest percentile with at least 10 jobs beyond it: (value, percentile, jobs beyond)."""
    xs = sorted(times)
    k = len(xs) - 11
    return xs[k], math.floor(100.0 * (k + 1) / len(xs)), len(xs) - 1 - k


def layer_metrics(tracer, records_traced, untraced_rate, traced_rate, output_bytes):
    durations, table = tracer.summarize("bench.job")
    n = len(durations)
    values = {}
    for fn, stats in LAYER_FUNCTIONS:
        row = table.get(fn)
        for stat in stats:
            if row is None:
                val = 0.0
            elif stat in ("calls", "self_s"):
                val = row[stat]
            elif stat == "lags":
                val = row["children"]["spectral.covariance"]
            elif stat == "terms" and fn == "spectral.wigner_ville":
                lags = row["children"]["spectral.covariance"] / row["calls"]
                val = row["stats"]["frequencies"] * (2 * lags - 1)
            else:
                val = row["stats"][stat]
            values[f"{fn}.{stat}"] = val / n
    setup_durations, setup_table = tracer.summarize("bench.setup")
    attempts = passes = 0
    for tab in (table, setup_table):
        for fn in ("stability.lambda_max_check", "stability.eigen_bound_check"):
            if fn in tab:
                attempts += tab[fn]["calls"]
                passes += tab[fn]["stats"]["passed"]
    values["stability.certificate_useful_ratio"] = passes / attempts if attempts else 0.0
    values["cli.output_bytes"] = statistics.fmean(output_bytes) if output_bytes else 0.0
    listed = {fn for fn, _ in LAYER_FUNCTIONS}
    values["other.self_s"] = sum(row["self_s"] for fn, row in table.items()
                                 if fn not in listed and fn != "bench.job") / n
    values["bench.job.self_s"] = table["bench.job"]["self_s"] / n
    values["trace.job_s"] = sum(durations) / n
    values["setup.traced_s"] = sum(setup_durations)
    for mod in SETUP_MODULES:
        values[f"setup.{mod}.self_s"] = sum(row["self_s"] for fn, row in setup_table.items()
                                            if fn.startswith(mod + "."))
    values["setup.bench.self_s"] = setup_table["bench.setup"]["self_s"]
    names = [w for r in records_traced for w in r[4]]
    for cat in WATCHED_WARNINGS:
        values[f"warnings.{cat}"] = names.count(cat)
    values["trace.jobs_per_s_untraced"] = untraced_rate
    values["trace.jobs_per_s_traced"] = traced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate - 1.0
    gap = values["trace.job_s"] - sum(row["self_s"] for row in table.values()) / n
    return values, table, gap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "tvls" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tvls sources under {ROOT / 'src'}\n")
        return 2
    if args.probe:
        probe(args.workload)
        return 0

    wl = WORKLOADS[args.workload]
    setup_samples = []
    work = OUT_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        st = wl.setup(work)
        jobs = wl.inputs(args.seed)
        wl.run(st, next(jobs))  # warm-up: first-call costs are not what a job costs
        if args.trace:
            from spans import Tracer

            half = args.seconds / 2.0
            untraced, wall_u = timed_loop(wl, st, jobs, half, MIN_TRACED_JOBS)
            tracer = Tracer()
            tracer.install()
            sid = tracer.begin("bench.setup")
            wl.setup(work)
            tracer.end(sid)
            traced, wall_t = timed_loop(wl, st, jobs, half, MIN_TRACED_JOBS, tracer)
            records = untraced + traced
        else:
            records, wall, setup_samples = probed_loop(wl, st, jobs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, digits = check_all(wl, st, records)
        output_bytes = getattr(st, "output_bytes", [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_failed = len(failures)
    caught = [w for r in records for w in r[4]]
    report = {
        "workload": wl.name,
        "jobs": len(records),
        "failures": failures[:5],
        "warnings": {cat: caught.count(cat) for cat in sorted(set(caught) | set(WATCHED_WARNINGS))},
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        rate_u = sum(r[2] is None for r in untraced) / wall_u
        rate_t = sum(r[2] is None for r in traced) / wall_t
        values, table, gap = layer_metrics(tracer, traced, rate_u, rate_t, output_bytes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_spec()}
        report["traced_jobs"] = len(traced)
        report["self_time_gap_s"] = gap
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{wl.name}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "traced_jobs": len(traced),
            "per_job": {fn: {"calls": row["calls"] / len(traced), "self_s": row["self_s"] / len(traced),
                             **{k: v / len(traced) for k, v in row["stats"].items()}}
                        for fn, row in sorted(table.items())},
            "spans": [[s[0], s[1], s[2], s[3]] for s in tracer.spans],
        }))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        times = [r[3] for r in records]
        tail_s, tail_pct, beyond = tail(times)
        report["job_s_tail_percentile"] = tail_pct
        report["job_s_tail_jobs_beyond"] = beyond
        values = {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": (len(records) - n_failed) / wall,
            "job_s_p50": statistics.median(times),
            "job_s_tail": tail_s,
            "accuracy_digits": min(digits) if digits else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": n_failed == 0, "attempted": len(records), "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
