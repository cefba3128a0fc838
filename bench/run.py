"""competelab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload limiti-square --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run repeats the workload's timed call
until ``--seconds`` have been spent (at least three times), checks every
outcome against ``bench/reference.json`` and prints a table followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The exit code is 0 only when every
check passed; 2 means the package or the benchmark could not be loaded.
See bench/README.md for why each workload is there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_RUNS = 5

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package():
    if not os.path.isfile(os.path.join(SRC, "competelab", "__init__.py")):
        fail(f"no competelab package under {SRC}; run from the repository root")
    sys.path[:0] = [SRC, BENCH]
    import workloads  # first: it pins the BLAS threads before numpy loads
    import competelab
    if not os.path.abspath(competelab.__file__).startswith(SRC + os.sep):
        fail(f"imported competelab from {competelab.__file__}, not {SRC}")
    import tracing
    return tracing, workloads


def machine_block() -> dict:
    """What later runs must match before their numbers compare."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "OPENBLAS_CORETYPE")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": threads}


def cpu_seconds() -> float:
    """User and system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def time_setup(name: str, seed: int, size: str, runs: int):
    """Fresh-interpreter import of competelab and competelab.cli plus the
    workload's config and masks, as a user pays it before the first call.
    Returns the wall and the CPU seconds of each interpreter."""
    code = ("import sys, json; sys.path[:0] = {paths!r}; import workloads; "
            "ref = json.load(open({ref!r}))[{size!r}].get({name!r}); "
            "w = workloads.WORKLOADS[{name!r}]({size!r}, ref); "
            "w.setup({seed}, {work!r})")
    walls, cpus = [], []
    for _ in range(runs):
        work = tempfile.mkdtemp(dir=WORK)
        src = code.format(paths=[SRC, BENCH], ref=os.path.join(BENCH, "reference.json"),
                          size=size, name=name, seed=seed, work=work)
        t0, c0 = time.perf_counter(), cpu_seconds()
        proc = subprocess.run([sys.executable, "-c", src], capture_output=True,
                              text=True, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            fail(f"setup of {name} failed:\n{proc.stderr}")
    return walls, cpus


def measure(wl, check, seed: int, seconds: float, traced_mode: bool,
            tracing, work: str, spans_path: str):
    """Repeat the workload for the run's seconds; in the traced mode,
    alternate traced and untraced repetitions so their difference is the
    tracing overhead."""
    walls, cpus, traced_walls, layer_reps, busy = [], [], [], [], []
    start = time.perf_counter()
    # The traced mode starts with one untimed repetition, so the first
    # process-wide costs land in neither side of the overhead; for the
    # sweep it runs the usual job count and gives the pool's busy share.
    plan = ["warm"] if traced_mode else []
    while True:
        if not plan:
            plan = ["traced", "plain"] if traced_mode else ["plain"]
        kind = plan.pop(0)
        traced = kind == "traced"
        state = wl.setup(seed, work)
        tracer = tracing.Tracer()
        # Traced repetitions and the untraced ones they are compared with
        # run the sweep in one process: worker processes return no spans.
        serial = traced_mode and kind != "warm"
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with tracer.installed() if traced else nullcontext():
                result = wl.run(state, serial)
            error = None
        except Exception as exc:  # a raising workload is a failed operation
            error = exc
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if error is not None:
            check.fail_all(f"{kind} repetition raised {error!r}")
        else:
            check.compare(wl.summarize(result))
        if kind == "warm":
            if error is None and hasattr(wl, "pool_busy_frac"):
                busy.append(wl.pool_busy_frac(result))
        elif traced:
            traced_walls.append(wall)
            layer_reps.append(tracing.layer_metrics(tracing.aggregate(tracer.spans)))
            if len(traced_walls) >= MIN_TRACED_REPS:
                tracer.dump(spans_path)
        else:
            walls.append(wall)
            cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if traced_mode:
            enough = len(traced_walls) >= MIN_TRACED_REPS and walls
        else:
            enough = len(walls) >= MIN_REPS
        typical = statistics.median(traced_walls or walls or [wall])
        if enough and elapsed + typical > seconds:
            break
    return walls, cpus, traced_walls, layer_reps, busy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: reduced inputs for the benchmark's self-test")
    ap.add_argument("--reference", default=os.path.join(BENCH, "reference.json"),
                    help="reference outcomes to check against")
    args = ap.parse_args(argv)

    tracing, workloads = load_package()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             + ", ".join(workloads.WORKLOADS))
    try:
        with open(args.reference) as fh:
            reference = json.load(fh)[args.size][args.workload]
    except (OSError, KeyError, ValueError) as exc:
        fail(f"no reference for {args.workload} ({args.size}): {exc!r}")
    wl = workloads.WORKLOADS[args.workload](args.size, reference)

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
    try:
        check = workloads.Check(reference, wl.tol)
        walls, cpus, traced_walls, layer_reps, busy = measure(
            wl, check, args.seed, args.seconds, bool(args.trace), tracing,
            work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"machine {json.dumps(machine_block(), sort_keys=True)}")
    print(f"workload {args.workload}  size {args.size}  seed {args.seed}  "
          f"trace {args.trace}")
    if args.trace:
        tracing.repeat_check(layer_reps, check)
        print(f"  untraced wall_s median {statistics.median(walls):.4f} s "
              f"(n={len(walls)}); traced {statistics.median(traced_walls):.4f} s "
              f"(n={len(traced_walls)})")
        if args.workload == "sweep-disc":
            print("  note: traced and overhead repetitions run the sweep with "
                  "--jobs 1, because worker processes return no spans")
        metrics = tracing.traced_metrics(layer_reps, walls, traced_walls, busy, check)
        units = tracing.per_layer_units()
        width = max(len(k) for k in metrics)
        print("  per-layer (median over traced repetitions):")
        for key, value in metrics.items():
            print(f"    {key:{width}s} {value:.6g} {units[key]}")
        print(f"  spans of the last traced repetition: {spans_path}")
    else:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        jobs = workloads.SWEEP_JOBS if args.workload == "sweep-disc" else 0
        peak_mb = (self_kb + jobs * child_kb) / 1024.0
        setup_walls, setup_cpus = time_setup(args.workload, args.seed, args.size,
                                             SETUP_RUNS if args.size == "full" else 2)
        # Times are gated as CPU seconds: on a shared VM the stolen time in
        # wall seconds drifts by far more than any bound (bench/README.md).
        metrics = {"cpu_s": statistics.median(cpus),
                   "setup_s": statistics.median(setup_cpus),
                   "peak_rss_mb": peak_mb}
        units = END_TO_END_UNITS
        for name, values in (("wall_s", walls), ("cpu_s", cpus),
                             ("setup wall", setup_walls), ("setup_s", setup_cpus)):
            q1, q3 = quartiles(values)
            print(f"  {name:12s} median {statistics.median(values):.4f} s  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
        workers = f" + {jobs} x largest worker {child_kb / 1024:.1f} MB" if jobs else ""
        print(f"  peak_rss_mb  {peak_mb:.1f} MB  (benchmark process "
              f"{self_kb / 1024:.1f} MB{workers})")
    for problem in check.problems[:20]:
        print(f"  check failed: {problem}")
    print(f"  checks: attempted {check.attempted}  failed {check.failed}  "
          f"failed_frac {check.failed / check.attempted:.4g}  "
          f"result_excess_rel {check.excess:.3g}")

    correct = check.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": check.attempted, "failed": check.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
