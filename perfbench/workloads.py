"""The benchmark's workloads: inputs generated from a seed, the timed job, and
the check of each job's output.

Every workload drives spinctrl only through its public entry points, looked
up on the module at call time so that the tracer's wrappers are seen. The
package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Working space for job outputs and spans, inside the checkout and ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spinctrl  # noqa: E402
import spinctrl.cli  # noqa: E402

DT = 0.2
# Slack allowed above 2 for a trace distance that is exactly 2 in exact arithmetic.
DISTANCE_SLACK = 1e-12
G_TOL = 1e-9
GAMMA0_TOL = 1e-9
REFERENCE_TOL = 1e-9


def job_seed(seed: int, tag: int, i: int) -> int:
    """Seed of job ``i``, derived from the benchmark seed and the workload's tag."""
    return int(np.random.SeedSequence([seed, tag, i]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one job produced: the failed checks, the solution quality when
    the job optimizes, the bytes a repeat of the same seed must reproduce, and
    the optimizer iterations the job took."""

    failures: list[str] = field(default_factory=list)
    G: float | None = None
    fidelity: float | None = None
    fingerprint: bytes | None = None
    iterations: int | None = None


def check_solution(spec, target, mu, bound, hx, hy, fid, pen, g) -> list[str]:
    """Output checks of the optimizer workloads.

    F lies in [0, 1], every amplitude respects the bound, and the reported G
    equals (1-mu)P - mu*F recomputed from the pulses with the true |.|.
    No check gates F at a threshold.
    """
    failures = []
    if not 0.0 <= fid <= 1.0:
        failures.append(f"fidelity {fid!r} outside [0, 1]")
    if np.max(np.abs(hx)) > bound or np.max(np.abs(hy)) > bound:
        failures.append("a pulse amplitude exceeds the bound")
        return failures
    seq = spinctrl.ControlSequence(hx=hx, hy=hy, dt=DT, bound=bound)
    f_re = spinctrl.fidelity(spinctrl.target_unitary(target), spinctrl.propagate(spec, seq))
    g_re = (1.0 - mu) * spinctrl.penalty(seq) - mu * f_re
    if not abs(g - g_re) <= G_TOL:
        failures.append(f"reported G {g!r} differs from recomputed {g_re!r}")
    if not abs(g - ((1.0 - mu) * pen - mu * fid)) <= G_TOL:
        failures.append("reported G is not (1-mu)P - mu*F of the reported P and F")
    return failures


class CliRun:
    """``spinctrl run --target not3`` at paper defaults, one restart per job."""

    name = "not3_run"
    tag = 1
    mu = 0.2
    bound = 50.0
    reference_jobs = ()

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.spec = spinctrl.ChainSpec(n_sites=3)
        self.target = spinctrl.TargetGate(kind="NOT", n_sites=3)
        self.argv = ["run", "--target", "not3", "--restarts", "1"]
        if size == "tiny":
            self.argv += ["--n-pulses", "8"]
        self.workdir = WORK / f"{self.name}-{seed}-{os.getpid()}"

    def inputs(self, i: int) -> list[str]:
        out = self.workdir / f"job{i}"
        return self.argv + ["--seed", str(job_seed(self.seed, self.tag, i)), "--output-dir", str(out)]

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = spinctrl.cli.main(argv)
            except SystemExit as e:
                code = e.code
        return code, err.getvalue()

    def check(self, argv, output) -> Outcome:
        code, err = output
        out_dir = Path(argv[argv.index("--output-dir") + 1])
        if code != 0:
            return Outcome(failures=[f"exit code {code!r}: {err.strip()[-200:]}"])
        raw = (out_dir / "result.json").read_bytes()
        missing = [n for n in ("pulses.csv", "trajectories.csv") if not (out_dir / n).is_file()]
        shutil.rmtree(out_dir)
        res = json.loads(raw)
        hx = np.asarray(res["pulses"]["hx"], dtype=np.float64)
        hy = np.asarray(res["pulses"]["hy"], dtype=np.float64)
        failures = [f"{n} was not written" for n in missing] + check_solution(
            self.spec, self.target, self.mu, self.bound, hx, hy,
            res["fidelity"], res["penalty"], res["G"],
        )
        return Outcome(failures, res["G"], res["fidelity"], raw, res["iterations_used"])


class Swap4Budget:
    """``optimize_controls`` on SWAP at its four-site defaults (n=256, mu=0.4,
    b=50) with one restart per job and the iterations capped at 40."""

    name = "swap4_budget"
    tag = 3
    mu = 0.4
    bound = 50.0
    reference_jobs = ()

    def __init__(self, seed: int, size: str):
        self.seed = seed
        n_pulses, self.max_iters = (256, 40) if size == "full" else (16, 3)
        self.spec = spinctrl.ChainSpec(n_sites=4)
        self.target = spinctrl.TargetGate(kind="SWAP", n_sites=4)
        self.template = spinctrl.ControlSequence.zeros(n_pulses, DT, self.bound)
        self.obj_cfg = spinctrl.ObjectiveConfig(mu=self.mu)

    def inputs(self, i: int):
        return spinctrl.OptimizerConfig(
            max_iters=self.max_iters, restarts=1, seed=job_seed(self.seed, self.tag, i)
        )

    def run(self, opt_cfg):
        return spinctrl.optimize_controls(
            self.spec, self.target, self.template, self.obj_cfg, opt_cfg
        )

    def check(self, opt_cfg, res) -> Outcome:
        seq = res.best_seq
        failures = check_solution(
            self.spec, self.target, self.mu, self.bound, seq.hx, seq.hy,
            res.fidelity, res.penalty, res.G,
        )
        fingerprint = seq.hx.tobytes() + seq.hy.tobytes() + np.array(
            [res.fidelity, res.penalty, res.G, res.iterations_used]
        ).tobytes()
        return Outcome(failures, res.G, res.fidelity, fingerprint, res.iterations_used)


class GammaSweep:
    """Choi distance to SWAP on four sites of seeded sparse pulse sets, with
    and without the environment qubit, over a coupling grid that includes 0.

    Job i is point (set i // len(GAMMAS), gamma i % len(GAMMAS)). Every job
    builds the set's bare channel as well as its env channel, so that all jobs
    have the same shape and ``job_s`` covers both.
    """

    name = "gamma_sweep4"
    tag = 4
    GAMMAS = (0.0, 0.05, 0.1, 0.2)
    DENSITY = 0.1  # share of slices that carry a pulse in each direction
    AMPLITUDE = 5.0
    bound = 50.0
    # Jobs whose env channel is also rebuilt by the brute-force reference.
    reference_jobs = (1, 2, 3)

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n_pulses = 256 if size == "full" else 16
        self.bare = spinctrl.ChainSpec(n_sites=4)
        self.envs = [spinctrl.ChainSpec(n_sites=4, env_enabled=True, gamma=g) for g in self.GAMMAS]
        self.target_choi = spinctrl.choi_of_unitary(
            spinctrl.target_unitary(spinctrl.TargetGate(kind="SWAP", n_sites=4))
        )

    def pulse_set(self, k: int):
        rng = np.random.default_rng(job_seed(self.seed, self.tag, k))
        n = self.n_pulses
        hx = np.where(rng.random(n) < self.DENSITY, rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, n), 0.0)
        hy = np.where(rng.random(n) < self.DENSITY, rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, n), 0.0)
        return spinctrl.ControlSequence(hx=hx, hy=hy, dt=DT, bound=self.bound)

    def inputs(self, i: int):
        k, g = divmod(i, len(self.GAMMAS))
        return g, self.pulse_set(k)

    def run(self, point):
        g, seq = point
        u = spinctrl.propagate(self.bare, seq)
        d_bare = spinctrl.choi_distance(self.target_choi, spinctrl.choi_of_unitary(u))
        choi = spinctrl.choi_of_env_channel(self.envs[g], seq)
        return choi, spinctrl.choi_distance(self.target_choi, choi), d_bare

    def check(self, point, output) -> Outcome:
        _, d_env, d_bare = output
        failures = [
            f"distance {d!r} outside [0, 2]"
            for d in (d_env, d_bare)
            if not 0.0 <= d <= 2.0 + DISTANCE_SLACK
        ]
        if self.GAMMAS[point[0]] == 0 and not abs(d_env - d_bare) <= GAMMA0_TOL:
            failures.append(f"gamma=0 env distance {d_env!r} differs from bare {d_bare!r}")
        return Outcome(failures)

    def check_reference(self, point, output) -> list[str]:
        """Compare the env channel with the brute-force reference."""
        # Imported here so that SciPy counts in neither set-up nor peak memory.
        from reference import env_channel_choi

        g, seq = point
        expected = env_channel_choi(4, self.GAMMAS[g], seq.hx, seq.hy, seq.dt)
        err = float(np.max(np.abs(output[0].matrix - expected)))
        if not err <= REFERENCE_TOL:
            return [f"env channel differs from the brute-force reference by {err:.3g}"]
        return []


WORKLOADS = {w.name: w for w in (CliRun, Swap4Budget, GammaSweep)}

