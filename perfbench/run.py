"""Run one spinctrl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; spinctrl is imported from its ``src/``.
Load model: closed loop, one client. Jobs run one at a time in this process
until ``--seconds`` have passed; the only other process is the fresh
interpreter that times set-up. BLAS threading is left at its default.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics: ``setup_s`` (median of several fresh-interpreter
set-ups, spread over the run), ``job_s`` (median wall time per job) and
``peak_rss_mb``. With ``--trace 1`` each job runs twice, untraced and traced
in alternating order, and the line holds the per-layer metrics from the
traced runs, per job, plus ``trace_overhead``. The lines before it report
the environment, the sample counts, and metrics that do not apply to every
workload (mean G and F of the optimizer workloads and their iterations per
job, the tail job time where a run holds enough jobs).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 21
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Per-evaluation cost of value_and_grad measured when ROADMAP was last re-anchored.
ROADMAP_EVAL_MS = {3: "3.8 ms at N=3, n=64", 4: "48 ms at N=4, n=256"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test"
    )
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library itself."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: v for k, v in os.environ.items() if "THREADS" in k or "BLAS" in k},
        "note": "no machine setting, CPU pinning or host BLAS variable was changed",
    }


def setup_seconds(name: str, seed: int, size: str) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]):
    """(percentile, value, samples beyond) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it, else None."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)  # nearest-rank percentile
        if n - rank >= 10:
            return p, ordered[int(rank) - 1], n - int(rank)
    return None


@dataclass
class Record:
    """One execution of a job; ``seconds`` is None when it raised."""

    i: int
    traced: bool
    seconds: float | None
    outcome: object


def execute(workloads, wl, i, tracer=None) -> tuple[Record, tuple]:
    """Run job ``i``, timing only the call into spinctrl, then check its output."""
    inp = wl.inputs(i)
    try:
        with tracer(i) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            output = wl.run(inp)
            seconds = time.perf_counter() - start
        outcome = wl.check(inp, output)
    except Exception as e:  # a failed job is counted, the run goes on
        return Record(i, tracer is not None, None, workloads.Outcome([f"{type(e).__name__}: {e}"])), None
    return Record(i, tracer is not None, seconds, outcome), (inp, output)


def run_jobs(workloads, wl, seconds: float, tracer, probe=None) -> tuple[list[Record], list, list]:
    """Jobs 0, 1, ... until ``seconds`` have passed. With a tracer, every job
    runs untraced and traced, alternating which goes first. Also returns the
    untraced (record, input, output) of the jobs the reference rebuilds, and
    the set-up times ``probe`` gave when one is passed.

    The SETUP_PROBES set-up probes are spread evenly over the run, between
    jobs, so that they sample the machine over the same stretch as the jobs
    do: set-up time on a shared box drifts by a third within seconds."""
    records: list[Record] = []
    kept = []
    setup: list[float] = []
    probes = SETUP_PROBES if probe else 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        while len(setup) < probes and time.perf_counter() >= start + len(setup) * seconds / probes:
            setup.append(probe())
        legs = [None] if tracer is None else ([None, tracer] if i % 2 == 0 else [tracer, None])
        first = None
        for leg in legs:
            rec, io = execute(workloads, wl, i, leg)
            records.append(rec)
            if leg is None and i in wl.reference_jobs and io is not None:
                kept.append((rec, *io))
            fp = rec.outcome.fingerprint
            if first is not None and fp is not None and fp != first:
                rec.outcome.failures.append("output differs from the other run of the same seed")
            first = fp
        i += 1
        if time.perf_counter() >= deadline:
            while len(setup) < probes:
                setup.append(probe())
            return records, kept, setup


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as e:
        print(f"error: cannot import spinctrl from the checkout's src/: {e}", file=sys.stderr)
        return 2
    if not Path(workloads.spinctrl.__file__).resolve().is_relative_to(workloads.SRC):
        print(f"error: spinctrl was imported from {workloads.spinctrl.__file__}, not src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    probe = None
    if not args.trace:
        probe = functools.partial(setup_seconds, args.workload, args.seed, args.size)
        probe()  # the first fresh interpreter may compile bytecode; it is not counted

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    workdir = getattr(wl, "workdir", None)
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    repeats = []  # untimed reruns that check a seed reproduces its output
    try:
        records, kept, setup = run_jobs(workloads, wl, args.seconds, tracer, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if not args.trace and records[0].outcome.fingerprint is not None:
            rec, _ = execute(workloads, wl, 0)
            if rec.outcome.fingerprint != records[0].outcome.fingerprint:
                rec.outcome.failures.append("repeat of job 0 gave different output")
            repeats.append(rec)
        for rec, inp, output in kept:
            rec.outcome.failures += wl.check_reference(inp, output)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records) + len(repeats)
    failed = [r for r in records + repeats if r.outcome.failures]
    for r in failed[:5]:
        print(f"failed job {r.i}{' traced' if r.traced else ''}: {'; '.join(r.outcome.failures)}")
    untraced = [r.seconds for r in records if not r.traced and r.seconds is not None]
    traced = [r.seconds for r in records if r.traced and r.seconds is not None]
    if not untraced or (args.trace and not traced):
        print("error: every job raised", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(untraced)} untraced jobs, {len(traced)} traced, "
          f"{len(failed)} of {attempted} executions failed "
          f"(failed_frac {len(failed) / attempted:.4g}); "
          f"reference checked on jobs {[rec.i for rec, _, _ in kept]}")

    if args.trace:
        metrics = spans.per_layer(tracer, traced, untraced)
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        path = workloads.WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(workloads.ROOT)}")
        if tracer.absent:
            print(f"absent wrapped functions: {', '.join(tracer.absent)}")
        if metrics["objective.evals"][0]:
            print(f"objective.eval_ms {metrics['objective.eval_ms'][0]:.4g} ms "
                  f"(ROADMAP re-anchor: {ROADMAP_EVAL_MS[wl.spec.n_sites]})")
        layers = ("model.eigh_s", "objective.self_s", "optimizer.self_s")
        if metrics["objective.evals"][0] and all(metrics[k][0] is not None for k in layers):
            total = sum(metrics[k][0] for k in layers)
            mean_job = statistics.fmean(untraced)
            print(f"eigh + objective self + optimizer self = {total:.4g} s per traced job, "
                  f"{total / mean_job - 1:+.2%} off the {mean_job:.4g} s mean untraced job; "
                  f"trace_overhead {metrics['trace_overhead'][0]:+.2%}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "job_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"setup_s median of {len(setup)}: {[round(s, 4) for s in setup]}")
        print(f"job_s median of {len(untraced)} jobs; quartiles "
              f"{[round(q, 4) for q in statistics.quantiles(untraced, n=4)] if len(untraced) > 1 else untraced}")
        quality = [r for r in records if not r.traced and r.outcome.G is not None]
        if quality:
            iters = [r.outcome.iterations for r in quality]
            print(f"G {statistics.fmean(r.outcome.G for r in quality):.10g} "
                  f"fidelity {statistics.fmean(r.outcome.fidelity for r in quality):.10g} "
                  f"(means over {len(quality)} jobs); optimizer iterations per job: "
                  f"median {statistics.median(iters):g}, "
                  f"{1e3 * sum(r.seconds for r in quality) / sum(iters):.4g} ms per iteration")
        t = tail(untraced)
        if t:
            print(f"job_s_tail p{t[0]:g} {t[1]:.6g} s ({t[2]} jobs beyond, of {len(untraced)})")

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
