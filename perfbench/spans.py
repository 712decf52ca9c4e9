"""Spans around spinctrl's public functions, recorded from outside the package.

A ``Tracer`` wraps each function in ``TARGETS`` at every module of the
package that binds it (``objective`` binds its own ``eigh_stack``, ``cli`` its
own ``optimize_controls``), so calls made inside the package are seen too. A
target that no longer exists is reported as absent; the others still trace.

Each span holds a name, start, end, the index of its parent span and the job
id. Spans stay in memory until ``write`` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from math import prod

# Per-span details read from the arguments or the result of the call.
PROBES = {
    "model.eigh_stack": lambda args, result: {
        "matrices": prod(args[0].shape[:-2]),
        "dim": args[0].shape[-1],
    },
    "optimizer.bfgs_minimize": lambda args, result: {
        "iterations": result[1].iterations,
        "converged": result[1].converged,
        "line_search_failed": result[1].line_search_failed,
    },
}

TARGETS = (
    "linalg.partial_trace_last_qubit",
    "linalg.trace_norm",
    "model.eigh_stack",
    "model.propagate_with_env",
    "model.bloch_trajectories",
    "objective.PulseObjective.value_and_grad",
    "optimizer.optimize_controls",
    "optimizer.bfgs_minimize",
    "channels.choi_of_env_channel",
    "channels.choi_distance",
    "cli.main",
)

PACKAGE = "spinctrl"


class Tracer:
    """Wraps ``targets`` on construction; ``with tracer(job):`` patches the
    wrappers in for the calls of one job and restores the originals after."""

    def __init__(self, targets=TARGETS):
        self.spans: list[list] = []
        self.traced: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job = None
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for target in targets:
            owner_path, _, attr = target.rpartition(".")
            owner = sys.modules.get(f"{PACKAGE}.{owner_path.split('.')[0]}")
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            self.traced.add(target)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original, wrapper))

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    span[5] = probe(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the details, not the span
            return result

        return wrapper

    def __call__(self, job):
        self._job = job
        return self

    def __enter__(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        self._job = None
        return False

    def write(self, path) -> None:
        """Save the spans as JSON lines."""
        with open(path, "w") as f:
            for name, start, end, parent, job, info in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                if info:
                    rec.update(info)
                f.write(json.dumps(rec) + "\n")


def _totals(spans):
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for k, (name, start, end, _, _, _) in enumerate(spans):
        t = out.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child[k]
    return out


def per_layer(tracer: Tracer, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-layer metrics, per traced job, as {name: (value or None, unit)}.

    A metric is None when a function it is measured on was not traced,
    because it no longer exists or was left out of the tracer's targets.
    """
    spans = tracer.spans
    tot = _totals(spans)
    jobs = len(traced_s)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names)

    eig = [s[5] for s in spans if s[0] == "model.eigh_stack" and s[5]]
    matrices = sum(e["matrices"] for e in eig)
    runs = [s[5] for s in spans if s[0] == "optimizer.bfgs_minimize" and s[5]]
    iters = sum(r["iterations"] for r in runs)
    bfgs_ids = {k for k, s in enumerate(spans) if s[0] == "optimizer.bfgs_minimize"}
    bfgs_evals = sum(
        1 for s in spans if s[0] == "objective.PulseObjective.value_and_grad" and s[3] in bfgs_ids
    )
    evals = calls("objective.PulseObjective.value_and_grad")
    vag = "objective.PulseObjective.value_and_grad"

    def ratio(a, b):
        return a / b if b else 0.0

    table = {
        # name: (value, unit, targets it is measured on)
        "model.eigh_s": (incl("model.eigh_stack") / jobs, "s", ["model.eigh_stack"]),
        "model.eigh_matrices": (matrices / jobs, "count", ["model.eigh_stack"]),
        "model.eigh_dim": (
            ratio(sum(e["matrices"] * e["dim"] for e in eig), matrices), "rows", ["model.eigh_stack"]
        ),
        "objective.evals": (evals / jobs, "count", [vag]),
        "objective.eval_ms": (1e3 * ratio(incl(vag), evals), "ms", [vag]),
        "objective.self_s": (self_s(vag) / jobs, "s", [vag]),
        "objective.evals_per_s": (ratio(evals, sum(traced_s)), "1/s", [vag]),
        "optimizer.iters": (iters / jobs, "count", ["optimizer.bfgs_minimize"]),
        "optimizer.evals_per_iter": (
            ratio(bfgs_evals, iters), "ratio", ["optimizer.bfgs_minimize", vag]
        ),
        "optimizer.self_s": (
            self_s("optimizer.optimize_controls", "optimizer.bfgs_minimize") / jobs,
            "s",
            ["optimizer.optimize_controls", "optimizer.bfgs_minimize"],
        ),
        "optimizer.converged_frac": (
            ratio(sum(r["converged"] for r in runs), len(runs)), "ratio", ["optimizer.bfgs_minimize"]
        ),
        "optimizer.ls_failed_frac": (
            ratio(sum(r["line_search_failed"] for r in runs), len(runs)),
            "ratio",
            ["optimizer.bfgs_minimize"],
        ),
        "channels.choi_env_s": (
            incl("channels.choi_of_env_channel") / jobs, "s", ["channels.choi_of_env_channel"]
        ),
        "channels.choi_env_self_s": (
            self_s("channels.choi_of_env_channel") / jobs, "s", ["channels.choi_of_env_channel"]
        ),
        "channels.distance_s": (
            incl("channels.choi_distance") / jobs, "s", ["channels.choi_distance"]
        ),
        "model.propagate_with_env_s": (
            incl("model.propagate_with_env") / jobs, "s", ["model.propagate_with_env"]
        ),
        "linalg.partial_trace_calls": (
            calls("linalg.partial_trace_last_qubit") / jobs,
            "count",
            ["linalg.partial_trace_last_qubit"],
        ),
        "linalg.trace_norm_s": (incl("linalg.trace_norm") / jobs, "s", ["linalg.trace_norm"]),
        "model.bloch_s": (
            incl("model.bloch_trajectories") / jobs, "s", ["model.bloch_trajectories"]
        ),
        "cli.self_s": (self_s("cli.main") / jobs, "s", ["cli.main"]),
        "trace_overhead": (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0, "ratio", []
        ),
    }
    return {
        name: (value if all(t in tracer.traced for t in deps) else None, unit)
        for name, (value, unit, deps) in table.items()
    }
