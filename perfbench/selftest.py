"""Self-test of the benchmark, with every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that:
- every metric named in BENCHMARK.json is printed, with its unit, in both
  the untraced and the traced run of each workload, and the outputs pass;
- the same seed reproduces the same generated inputs and the same
  deterministic counts (objective.evals, optimizer.iters, G), and another
  seed gives other inputs;
- a wrapped function that no longer exists makes only its own metrics
  absent and leaves the job's output unchanged;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_printed_metrics(bench: dict) -> list[str]:
    errors = []
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(
                workloads.ROOT, "--workload", wl["name"], "--seed", str(SEED),
                "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
            )
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: outputs failed their checks:\n{proc.stdout}")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                errors.append(f"{where}: metrics {sorted(printed)} != {sorted(expected)}")
            for name, unit in expected.items():
                got = printed.get(name, {})
                value = got.get("value")
                if got.get("unit") != unit or isinstance(value, bool) or not isinstance(value, (int, float)):
                    errors.append(f"{where}: {name} printed as {got}, expected a number in {unit}")
    return errors


def _as_bytes(x) -> bytes:
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if dataclasses.is_dataclass(x):
        return b"".join(_as_bytes(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return b"".join(_as_bytes(v) for v in x)
    return repr(x).encode()


def inputs_digest(wl, n: int) -> str:
    """Digest of the inputs of the workload's first ``n`` jobs."""
    return hashlib.sha256(b"".join(_as_bytes(wl.inputs(i)) for i in range(n))).hexdigest()


def traced_counts(name: str, seed: int, targets=spans.TARGETS, jobs: int = 2):
    """Per-layer metrics and outputs of the first jobs of a fresh workload, traced."""
    wl = workloads.WORKLOADS[name](seed, "tiny")
    workdir = getattr(wl, "workdir", None)
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(targets)
    outcomes = []
    try:
        for i in range(jobs):
            inp = wl.inputs(i)
            with tracer(i):
                out = wl.run(inp)
            outcomes.append(wl.check(inp, out))
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    return spans.per_layer(tracer, [1.0] * jobs, [1.0] * jobs), outcomes


def deterministic(name: str, seed: int):
    metrics, outcomes = traced_counts(name, seed)
    return (
        inputs_digest(workloads.WORKLOADS[name](seed, "tiny"), 3),
        metrics["objective.evals"][0],
        metrics["optimizer.iters"][0],
        [o.G for o in outcomes],
    )


def check_determinism(bench: dict) -> list[str]:
    errors = []
    for wl in bench["workloads"]:
        name = wl["name"]
        first, again = deterministic(name, SEED), deterministic(name, SEED)
        if first != again:
            errors.append(f"{name}: seed {SEED} gave {first} and then {again}")
        other = inputs_digest(workloads.WORKLOADS[name](SEED + 1, "tiny"), 3)
        if other == first[0]:
            errors.append(f"{name}: seeds {SEED} and {SEED + 1} gave the same inputs")
    return errors


def check_absent_function() -> list[str]:
    renamed = tuple(t.replace("model.eigh_stack", "model.eigh_stack_renamed") for t in spans.TARGETS)
    metrics, outcomes = traced_counts("swap4_budget", SEED, renamed, jobs=1)
    _, plain = traced_counts("swap4_budget", SEED, (), jobs=1)
    errors = []
    for name, (value, _) in metrics.items():
        if name.startswith("model.eigh_") != (value is None):
            errors.append(f"renamed eigh_stack: {name} = {value}")
    if outcomes[0].fingerprint != plain[0].fingerprint:
        errors.append("renamed eigh_stack: traced output differs from the untraced one")
    return errors


def check_bare_directory() -> list[str]:
    bare = workloads.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "not3_run", "--seed", "0", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for check in (
        lambda: check_printed_metrics(bench),
        lambda: check_determinism(bench),
        check_absent_function,
        check_bare_directory,
    ):
        errors += check()
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
