"""pointcrf benchmark: one workload per process, closed loop, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scene-smooth --seed 1 --seconds 20 --trace 0

One caller runs jobs back to back (the next job starts when the previous one
returns) until the summed job time reaches ``--seconds``; a workload that
cycles a fixed set of inputs stops only after a whole cycle. Inputs are
generated from ``--seed`` before each job and every output is checked
against the benchmark's own reference after it, both outside the job timer.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: jobs run in pairs on the same input, one with
spans around every call into the package and one without, and the median
pair difference is the tracing overhead. Peak memory per layer comes from a
separate tracemalloc pass over one job, so it does not distort the timings.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Generated files, spans and the
environment record go to ``.perfbench-runs/`` in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PEAK_MB_LAYERS = ("cloud.knn_graph", "energy.solve_exact", "crf_continuous.balance_similarity",
                  "crf_continuous.crf_gradients")
# Printed with the end-to-end metrics but kept out of the result JSON, so no
# bound is placed on them: failed jobs are already gated by success_ratio and
# the top-level "failed" count, and the tail percentile of 60-80 sub-second
# jobs swings by up to a quarter between runs on a host with bursty
# neighbour load (2-3 s bursts slow every job by ~45%).
UNGATED = ("job_tail_s", "failed_ratio")
CALL_COUNTED_LAYERS = ("cloud.knn_graph", "crf_continuous.pairwise_similarity",
                       "crf_continuous.balance_similarity", "crf_continuous.crf_step",
                       "crf_continuous.coordinate_descent_step", "energy.evaluate_energy",
                       "energy.dirichlet_energy")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: time the workload's set-up in this fresh process")
    parser.add_argument("--workdir", type=Path, help="internal: set-up files for --probe-setup")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0))
    cap = cpus
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def git_sha(root: Path) -> str:
    """HEAD's sha from the checkout's own .git, or 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, blas_threads: int) -> dict:
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "cpus": os.cpu_count(),
    }


def probe_setup(args) -> None:
    """Time one workload set-up: numpy/scipy/package imports and file loads."""
    start = time.perf_counter()
    import libsetup

    libsetup.BY_WORKLOAD[args.workload](args.workdir)
    print(repr(time.perf_counter() - start))


def measure_setup(root: Path, workload: str, workdir: Path) -> list:
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
             "--probe-setup", "--workdir", str(workdir)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_job(workload, context, job, after_run=None) -> dict:
    """Time one job, then check it. ``after_run`` lets the self-test tamper
    with the output before the check sees it."""
    from reference import CheckFailed

    start = time.perf_counter()
    try:
        output = workload.run(context, job)
        error = None
    except Exception as exc:  # any failure of the program under test is a failed job
        output, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None:
        if after_run is not None:
            after_run(job, output)
        try:
            workload.check(job, output)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
    return {"seconds": seconds, "error": error}


def closed_loop(workload, ws, seconds, run_one) -> list:
    """Run jobs back to back until their summed time reaches ``seconds`` and
    a whole cycle of the workload's inputs is done; ``run_one(index, warmup)``
    runs the job(s) for input ``index``. One untimed warm-up job
    (checked and counted as attempted) runs first, so first-call costs in
    the process do not land on one measured job."""
    results = run_one(0, warmup=True)
    for result in results:
        result["warmup"] = True
    busy, index = 0.0, 0
    while busy < seconds or index % workload.round_size:
        new = run_one(index, warmup=False)
        results.extend(new)
        busy += sum(r["seconds"] for r in new)
        index += 1
    return results


def tail(times: list):
    """(percentile, value): the highest percentile with at least ten jobs
    beyond it, never below the median (so short runs report the median)."""
    ordered = sorted(times)
    n = len(ordered)
    if n - 10 > n / 2:
        return 100.0 * (n - 10) / n, ordered[n - 11]
    return 50.0, statistics.median(ordered)


def end_to_end(workload, results, setup_times) -> dict:
    times = [r["seconds"] for r in results if not r.get("warmup")]
    percentile, tail_value = tail(times)
    passed = sum(r["error"] is None for r in results)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh-process set-ups"),
        "points_per_s": (workload.points * len(times) / sum(times), "1/s",
                         f"{workload.points} points per job, {len(times)} jobs"),
        "job_p50_s": (statistics.median(times), "s", f"median of {len(times)} jobs"),
        "job_tail_s": (tail_value, "s", f"p{percentile:.0f} of {len(times)} jobs, not gated"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "peak resident set of this process"),
        "success_ratio": (passed / len(results), "ratio",
                          f"{passed} of {len(results)} jobs ran and passed their check"),
        "failed_ratio": (1.0 - passed / len(results), "ratio", "not gated"),
    }


def per_layer(traced_jobs: dict, memory_job: dict, overheads: list) -> dict:
    """Per-job medians of span self time and counts, peak MB from the memory pass."""
    from tracer import span_names

    def median_of(name, key):
        return statistics.median(job.get(name, {}).get(key, 0) for job in traced_jobs.values())

    jobs = f"median of {len(traced_jobs)} traced jobs"
    metrics = {}
    for name in span_names():
        metrics[f"{name}.self_s"] = (float(median_of(name, "self_s")), "s", jobs)
    for name in CALL_COUNTED_LAYERS:
        metrics[f"{name}.calls"] = (median_of(name, "calls"), "count", jobs)
    for name in PEAK_MB_LAYERS:
        metrics[f"{name}.peak_mb"] = (memory_job.get(name, {}).get("peak_mb", 0.0), "MB",
                                      "tracemalloc pass over one job")
    metrics["cloud.edges"] = (median_of("cloud.knn_graph", "edges"), "count", jobs)
    metrics["crf_continuous.balance_similarity.stalls"] = (
        median_of("crf_continuous.balance_similarity", "stalls"), "count", jobs)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s",
                                   f"median traced-minus-untraced over {len(overheads)} pairs")
    return metrics


def traced_run(workload, ws, context, seconds, rundir):
    """Paired untraced/traced jobs, then one job under tracemalloc."""
    import tracemalloc

    import pointcrf
    from tracer import Tracer

    tracer = Tracer()
    overheads = []

    def pair(index, warmup):
        if warmup:
            return [run_job(workload, context, workload.make_job(ws, index))]
        out = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            job = workload.make_job(ws, index)
            if traced:
                tracer.begin_job(index)
                tracer.install(pointcrf)
            try:
                out[traced] = run_job(workload, context, job)
            finally:
                tracer.uninstall()
        overheads.append(out[True]["seconds"] - out[False]["seconds"])
        return [out[False], out[True]]

    results = closed_loop(workload, ws, seconds, pair)
    tracer.write(rundir / "spans.jsonl")

    memory = Tracer(memory=True)
    job = workload.make_job(ws, 0)
    tracemalloc.start()
    memory.begin_job(0)
    memory.install(pointcrf)
    try:
        results.append(run_job(workload, context, job))
    finally:
        memory.uninstall()
        tracemalloc.stop()
    memory.write(rundir / "spans_memory.jsonl")
    return results, per_layer(tracer.per_job(), memory.per_job().get(0, {}), overheads)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "pointcrf" / "__init__.py").is_file():
        print(f"error: run from the root of a pointcrf checkout ({root} has no src/pointcrf)",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(root / "src"))

    import workloads
    from libsetup import BY_WORKLOAD

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rundir = root / ".perfbench-runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    ws = workloads.Workspace(workdir=rundir / "work", seed=args.seed)
    ws.workdir.mkdir(parents=True)

    env = environment(root, blas_threads)
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(ws)
    setup_times = [] if args.trace else measure_setup(root, args.workload, ws.workdir)
    context = BY_WORKLOAD[args.workload](ws.workdir)

    if args.trace:
        results, metrics = traced_run(workload, ws, context, args.seconds, rundir)
    else:
        results = closed_loop(
            workload, ws, args.seconds,
            lambda index, warmup: [run_job(workload, context, workload.make_job(ws, index))])
        metrics = end_to_end(workload, results, setup_times)

    failures = [r["error"] for r in results if r["error"] is not None]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_seconds": setup_times,
              "job_seconds": [r["seconds"] for r in results],
              "failures": failures}
    (rundir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(ws.workdir)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} closed loop, 1 caller")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for error in failures[:5]:
        print(f"# FAILED: {error}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit} ({note})")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items() if name not in UNGATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
