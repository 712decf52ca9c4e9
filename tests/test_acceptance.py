"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The four-qubit SWAP criterion runs its mandatory three-qubit stand-in by
default; set SPINCTRL_ACCEPTANCE_SWAP4=1 to run the full four-qubit job
(budget: under an hour).
"""

import json
import os
import time

import numpy as np
import pytest

from dense_reference import SX
from spinctrl.channels import choi_distance, choi_of_env_channel, choi_of_unitary, robustness_experiment
from spinctrl.cli import main
from spinctrl.model import ChainSpec, ControlSequence, TargetGate, propagate
from spinctrl.objective import ObjectiveConfig, PulseObjective
from spinctrl.optimizer import OptimizerConfig


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def run_cli(tmp_dir, *args):
    start = time.perf_counter()
    code = main(list(args) + ["--output-dir", str(tmp_dir)])
    wall = time.perf_counter() - start
    assert code == 0, f"CLI exited {code}"
    return wall


@pytest.fixture(scope="module")
def not3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("not3")
    wall = run_cli(out, "run", "--target", "not3", "--seed", "0")
    result = json.loads((out / "result.json").read_text())
    return result, wall


def test_not3_fidelity(not3_run):
    result, wall = not3_run
    report(
        "fidelity threshold NOT3",
        result["fidelity"] > 0.99 and wall < 300.0,
        f"F={result['fidelity']:.6f}, wall={wall:.0f}s",
    )


def test_not3_penalty(not3_run):
    result, _ = not3_run
    report("penalty magnitude NOT3", result["penalty"] <= 0.05, f"P={result['penalty']:.6f}")


def test_swap_fidelity(tmp_path):
    if os.environ.get("SPINCTRL_ACCEPTANCE_SWAP4") == "1":
        target, budget = "swap4", 3600.0
    else:
        target, budget = "swap3", 300.0
    wall = run_cli(tmp_path, "run", "--target", target, "--seed", "0")
    result = json.loads((tmp_path / "result.json").read_text())
    report(
        f"fidelity threshold {target.upper()}",
        result["fidelity"] > 0.99 and wall < budget,
        f"F={result['fidelity']:.6f}, wall={wall:.0f}s",
    )


def test_not3_state_transfer(not3_run):
    result, _ = not3_run
    cfg = result["config"]
    seq = ControlSequence(
        hx=np.array(result["pulses"]["hx"]),
        hy=np.array(result["pulses"]["hy"]),
        dt=cfg["dt"],
        bound=cfg["bound"],
    )
    u = propagate(ChainSpec(n_sites=3), seq)
    psi0 = np.zeros(8, dtype=complex)
    psi0[int("000", 2)] = 1.0
    overlap = abs(u[int("001", 2), int("000", 2)]) ** 2
    # sanity: the full column norm is 1, so the overlap is a probability
    assert np.isclose(np.linalg.norm(u @ psi0), 1.0, atol=1e-9)
    report("state transfer |000> -> |001>", overlap > 0.98, f"overlap={overlap:.6f}")


def test_table_ordering():
    failures = []
    details = []
    for kind in ("NOT", "SWAP"):
        target = TargetGate(kind, 3)
        chain = ChainSpec(n_sites=3, gamma=0.1)
        tmpl = ControlSequence.zeros(64, 0.2, 50.0)
        cfg = ObjectiveConfig(mu=0.2, surrogate="fermi_dirac")
        for seed in (0, 1, 2):
            rep = robustness_experiment(
                target, 0.2, chain, tmpl, cfg, OptimizerConfig(seed=seed, restarts=2)
            )
            for d in (rep.dist_no_env_mu1, rep.dist_no_env_muL, rep.dist_env_mu1, rep.dist_env_muL):
                assert 0.0 <= d <= 2.0 + 1e-12
            # a converged mu=1 leg leaves essentially no env-free distance
            assert rep.dist_no_env_mu1 < 0.02
            ok = rep.dist_env_muL < rep.dist_env_mu1
            details.append(
                f"{kind}3 seed={seed}: {rep.dist_env_muL:.4f} < {rep.dist_env_mu1:.4f} {ok}"
            )
            if not ok:
                failures.append(details[-1])
    report("Table ordering (env distance, mu<1 vs mu=1)", not failures, "; ".join(details))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(20):
        n_sites = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        kind = "NOT" if n_sites < 2 else str(rng.choice(["NOT", "SWAP"]))
        surrogate = str(rng.choice(["fractional", "fermi_dirac"]))
        mu = float(rng.uniform(0.1, 0.9))
        cfg = ObjectiveConfig(mu=mu, surrogate=surrogate)
        po = PulseObjective(ChainSpec(n_sites=n_sites), TargetGate(kind, n_sites), n, 0.2, 10.0, cfg)
        x = rng.uniform(-1.0, 1.0, 2 * n)
        _, grad = po.value_and_grad(x)
        step = 1e-6
        for i in range(x.size):
            if abs(grad[i]) <= 1e-8:
                continue
            xp = x.copy()
            xp[i] += step
            xm = x.copy()
            xm[i] -= step
            fd = (po.value_and_grad(xp)[0] - po.value_and_grad(xm)[0]) / (2 * step)
            worst = max(worst, abs(grad[i] - fd) / abs(fd))
    report("gradient vs central finite differences", worst < 1e-5, f"max rel err={worst:.2e}")


def test_invariant_suite():
    rng = np.random.default_rng(77)
    checks = []

    # propagators unitary within 1e-8
    for n_sites in (1, 2, 3):
        spec = ChainSpec(n_sites=n_sites)
        seq = ControlSequence(
            hx=rng.uniform(-2, 2, 16), hy=rng.uniform(-2, 2, 16), dt=0.2, bound=10.0
        )
        u = propagate(spec, seq)
        checks.append(np.max(np.abs(u.conj().T @ u - np.eye(spec.dim))) < 1e-8)

    # Choi matrices Hermitian / PSD / trace-1 within 1e-9
    env_spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.1)
    seq = ControlSequence(hx=rng.uniform(-2, 2, 8), hy=rng.uniform(-2, 2, 8), dt=0.2, bound=10.0)
    for choi in (
        choi_of_unitary(propagate(ChainSpec(n_sites=2), seq)),
        choi_of_env_channel(env_spec, seq),
    ):
        m = choi.matrix
        checks.append(np.max(np.abs(m - m.conj().T)) < 1e-9)
        checks.append(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) > -1e-9)
        checks.append(abs(np.trace(m) - 1.0) < 1e-9)

    # orthogonal single-qubit channels at maximal distance
    checks.append(
        abs(choi_distance(choi_of_unitary(np.eye(2)), choi_of_unitary(SX)) - 2.0)
        < 1e-9
    )

    # gamma = 0 decoupling identities
    free_spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.0)
    a = choi_of_env_channel(free_spec, seq)
    b = choi_of_unitary(propagate(ChainSpec(n_sites=2), seq))
    checks.append(np.max(np.abs(a.matrix - b.matrix)) < 1e-9)
    checks.append(choi_distance(a, b) < 1e-9)

    report("unitary/Choi invariant suite", all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_determinism_byte_identical(tmp_path):
    args = ["run", "--target", "not3", "--n-pulses", "12", "--restarts", "2", "--seed", "9"]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    run_cli(dir_a, *args)
    run_cli(dir_b, *args)
    same = (dir_a / "result.json").read_bytes() == (dir_b / "result.json").read_bytes()
    report("determinism (byte-identical result.json)", same)
