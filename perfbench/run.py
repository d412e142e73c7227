#!/usr/bin/env python3
"""The mriordan benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload algebra_int --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run imports mriordan from the ``src/`` directory next to this one, builds
the workload's inputs from the seed, and makes one closed-loop client's
timed calls in whole passes over the inputs until ``--seconds`` have
passed.  The first pass checks every output; later passes
must reproduce it exactly.  ``--trace 1`` instead runs a fixed number of
untraced and traced passes and reports per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# p90 over per-job latencies needs at least ten jobs beyond it
MIN_JOBS = 100
# The reference kernel's fastest time on an idle core of the machine the
# benchmark was defined on (2 shared x86-64 cores, Python 3.11).  Timings
# are reported at that speed; see speed_factor.
REFERENCE_KERNEL_S = 0.56e-3
# Reference-kernel runs after each set-up sample, to measure the machine's
# speed at that moment.
KERNELS_PER_SETUP = 9
TRACED_ROUNDS = 2
# Run in a fresh interpreter, so the import is cold for mriordan and for
# every module it pulls in that interpreter start-up has not loaded.
COLD_IMPORT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    __import__(name)
print(time.perf_counter() - start)
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked: no package to import, or a workload too small."""


def load_library(layers):
    """Import mriordan from this checkout's src/, plus the named submodules."""
    sys.path.insert(0, SRC)
    try:
        mr = importlib.import_module("mriordan")
        for layer in layers:
            importlib.import_module("mriordan." + layer)
    except ImportError as exc:
        raise SetupError(f"cannot import mriordan from {SRC}: {exc}") from exc
    if os.path.dirname(os.path.abspath(mr.__file__)) != os.path.join(SRC, "mriordan"):
        raise SetupError(f"imported mriordan from {mr.__file__}, not from {SRC}")
    return mr


def cold_import_s(layers):
    """Seconds to import mriordan and the named submodules in a fresh interpreter."""
    modules = ["mriordan"] + ["mriordan." + layer for layer in layers]
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT, SRC, *modules],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def reference_kernel():
    """Fixed pure-Python work: int, Fraction, dict and sort, about 0.6 ms on an idle core."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i % 5 - 2, i % 3 + 1) * Fraction(1, i)
    table = {}
    for i in range(600):
        table[i % 97] = table.get(i % 97, 0) + i
    return total, f, sorted(table.values())


def kernel_s():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_factor(kernel_times):
    """How much slower than the reference speed the machine ran, from kernel timings.

    The machine the benchmark was defined on shares its cores with other
    tenants, whose load slows every instruction of this process, by up to
    half again, in phases that last from milliseconds to minutes.  Other
    processes do not take the CPU away (the process's CPU time slows just
    as its wall time does), and the slow phases outlast a run: in six runs
    of the same cli_session inputs, the sum of each call's fastest time
    spread by 28% (interquartile range over median).  So each pass runs
    the reference kernel before every timed call, and a call's time is
    divided by the median kernel time of its pass and multiplied by
    REFERENCE_KERNEL_S: what the call would take with the machine at the
    reference speed.  The same runs, corrected so, spread by 3%.  The
    kernel does not call mriordan, so a change to the program moves these
    times in full.
    """
    return statistics.median(kernel_times) / REFERENCE_KERNEL_S


def set_up(workload, mr, seed, tiny, workdir, layers):
    """One cold import plus one build of the inputs: (jobs, seconds at reference speed)."""
    imported = cold_import_s(layers)
    start = time.perf_counter()
    jobs = workload.build(mr, seed, tiny, ROOT, workdir)
    took = imported + time.perf_counter() - start
    return jobs, took / speed_factor([kernel_s() for _ in range(KERNELS_PER_SETUP)])


def run_pass(jobs, trace=None, calibrate=False):
    """Call every job once.

    Returns (outputs, errors, latencies, wall seconds, speed factor).  With
    ``calibrate`` the reference kernel runs, untimed, before every call and
    the speed factor is that of the pass; otherwise it is None.  Wall time
    excludes the untimed kernel runs and the untimed glue between calls
    (job.after).
    """
    outputs, errors, latencies, kernel_times = [], [], [], []
    glue = 0.0
    # Start from no garbage, with every object alive so far (the inputs and
    # the outputs the benchmark keeps to compare) frozen out of the
    # collector's scans.  A collection inside a call then scans only what
    # this pass allocated, not a heap of kept outputs that the program
    # itself would not hold, and every pass starts from the same state.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    for job in jobs:
        if trace is not None:
            trace.start_job(job.name)
        if calibrate:
            kernel_times.append(kernel_s())
            glue += kernel_times[-1]
        t0 = time.perf_counter()
        try:
            out, err = job.call(outputs), None
        except Exception as exc:  # a failed call is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append(out)
        errors.append(err)
        if job.after is not None and err is None:
            job.after(out)
            glue += time.perf_counter() - t1
    factor = speed_factor(kernel_times) if calibrate else None
    return outputs, errors, latencies, time.perf_counter() - start - glue, factor


def check_pass(jobs, outputs, errors):
    """Per job: None if its output passed its check, else the problem."""
    problems = []
    for job, out, err in zip(jobs, outputs, errors):
        if err is None:
            try:
                err = job.check(out, outputs)
            except Exception as exc:  # a malformed output can break a check
                err = f"check raised {type(exc).__name__}: {exc}"
        problems.append(err)
    return problems


def report_problems(jobs, problems, limit=5):
    bad = [(job.name, p) for job, p in zip(jobs, problems) if p is not None]
    for name, problem in bad[:limit]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    return len(bad)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(jobs, seconds, between):
    """The untraced run: whole passes until `seconds` have passed since the first.

    Each call's time is brought to the reference speed with its pass's speed
    factor (see speed_factor), and a job's latency is the median of its
    calls over the passes.  A pass is kept short (about 1.5 to 3 s), so a
    run has ten or more of them.  Throughput is the number of jobs over the
    sum of their latencies, and the percentiles are taken over jobs.
    ``between()`` runs after each pass, untimed, and its time counts towards
    `seconds`.  Returns (metrics at reference speed, the same as measured
    with the median speed factor, calls attempted, calls failed, passes).
    """
    start = time.perf_counter()
    reference, errors, latencies, _, factor = run_pass(jobs, calibrate=True)
    problems = check_pass(jobs, reference, errors)
    failed = report_problems(jobs, problems)
    per_pass, factors = [latencies], [factor]
    between()
    while time.perf_counter() - start < seconds:
        outputs, errors, lat, _, factor = run_pass(jobs, calibrate=True)
        for i, (out, err) in enumerate(zip(outputs, errors)):
            if err is not None or problems[i] is not None or out != reference[i]:
                failed += 1
                if err is None and problems[i] is None:
                    print(f"FAILED {jobs[i].name}: output changed between passes", file=sys.stderr)
        per_pass.append(lat)
        factors.append(factor)
        outputs = None  # keep one pass's outputs besides the reference, not two
        between()

    def summary(per_pass):
        job_latency = [statistics.median(lat) for lat in zip(*per_pass)]
        return {
            "jobs_per_s": len(jobs) / sum(job_latency),
            "job_p50_ms": percentile(job_latency, 50) * 1e3,
            "job_p90_ms": percentile(job_latency, 90) * 1e3,
        }
    normalised = [[t / f for t in lat] for lat, f in zip(per_pass, factors)]
    as_measured = summary(per_pass)
    as_measured["speed_factor"] = statistics.median(factors)
    return summary(normalised), as_measured, len(per_pass) * len(jobs), failed, len(per_pass)


def measure_traced(jobs):
    """A checked untraced pass, then rounds of one untraced and one traced pass.

    Every traced pass must reproduce the untraced outputs and make the same
    calls; the overhead ratio compares the passes of each round, so neither
    side is the cold first pass.
    """
    reference, errors, _, _, _ = run_pass(jobs)
    problems = check_pass(jobs, reference, errors)
    failed = report_problems(jobs, problems)
    attempted = len(jobs)
    traces, walls, untraced_wall = [], [], 0.0
    for _ in range(TRACED_ROUNDS):
        untraced_wall += run_pass(jobs)[3]
        trace = tracer.Tracer()
        trace.install()
        try:
            outputs, errors, _, wall, _ = run_pass(jobs, trace)
        finally:
            trace.uninstall()
        traces.append(trace)
        walls.append(wall)
        attempted += 2 * len(jobs)
        for i, (out, err) in enumerate(zip(outputs, errors)):
            if err is not None or out != reference[i]:
                failed += 1
                print(f"FAILED {jobs[i].name}: traced output differs from untraced", file=sys.stderr)
    trace = traces[0]
    consistent = all(t.calls == trace.calls for t in traces[1:])
    if not consistent:
        print("FAILED: traced passes made different numbers of calls", file=sys.stderr)
    metrics = trace.metrics(walls[0], sum(walls) / untraced_wall)
    return metrics, trace, attempted, failed, consistent


def git_sha():
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_by_job(trace, limit=3):
    """For each kind of timed call, the functions with the most self time."""
    for name, totals in sorted(trace.by_job.items()):
        top = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
        spent = ", ".join(f"{k} {ns / 1e9:.3f}s" for k, ns in top)
        print(f"  {name}: {spent}")


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            # every traced module is imported, so a function absent from one shows as missing
            jobs = workload.build(load_library(tracer.LAYERS[1:]), args.seed, args.tiny,
                                  ROOT, workdir)
            metrics, trace, attempted, failed, consistent = measure_traced(jobs)
            correct = failed == 0 and consistent
            passes = 1 + 2 * TRACED_ROUNDS
            print_by_job(trace)
            if trace.missing:
                print("missing: " + " ".join(trace.missing))
        else:
            layers = ("cli",) if workload.needs_cli else ()
            mr = load_library(layers)
            jobs, first = set_up(workload, mr, args.seed, args.tiny, workdir, layers)
            if len(jobs) < MIN_JOBS and not args.tiny:
                raise SetupError(f"{len(jobs)} calls per pass; p90 needs at least {MIN_JOBS}")
            setup_times = [first]

            def sample_setup():
                setup_times.append(set_up(workload, mr, args.seed, args.tiny, workdir, layers)[1])

            timed, as_measured, attempted, failed, passes = measure(jobs, args.seconds, sample_setup)
            timed["setup_s"] = statistics.median(setup_times)
            timed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: (timed[name], unit) for name, unit in END_TO_END_UNITS.items()}
            correct = failed == 0
            print("as measured, before the speed correction: "
                  + ", ".join(f"{name} {value:.6g}" for name, value in as_measured.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} calls)")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "calls": attempted,
        "passes": passes,
        "jobs_per_pass": len(jobs),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload, each in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
