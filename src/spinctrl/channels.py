"""Choi-state machinery for quantum channels and the environment-robustness
comparison between penalized and unpenalized pulse solutions."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    propagate,
    propagate_with_env,
    target_unitary,
)
from .objective import ObjectiveConfig
from .optimizer import OptimizationResult, OptimizerConfig, optimize_controls

_CHOI_ATOL = 1e-9


@dataclass(frozen=True)
class ChoiMatrix:
    """Trace-normalized Choi state of a channel on a ``system_dim`` system.

    The matrix is (system_dim^2 x system_dim^2), Hermitian, positive
    semidefinite and of unit trace within 1e-9.
    """

    system_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        d2 = self.system_dim**2
        if m.shape != (d2, d2):
            raise ValueError(f"expected a {d2}x{d2} matrix, got {m.shape}")
        if not linalg.is_hermitian(m, _CHOI_ATOL):
            raise ValueError("Choi matrix is not Hermitian within tolerance")
        if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) < -_CHOI_ATOL:
            raise ValueError("Choi matrix is not positive semidefinite within tolerance")
        if abs(np.trace(m) - 1.0) > _CHOI_ATOL:
            raise ValueError("Choi matrix trace differs from 1 beyond tolerance")


def choi_of_unitary(u: np.ndarray, atol: float = 1e-8) -> ChoiMatrix:
    """Choi state of the unitary channel rho -> U rho U^dag.

    Rank one: the outer product of the normalized vector with components
    U[a, i] at position (a, i), i.e. (1/sqrt(n)) sum_i U|i> ⊗ |i>.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    if not linalg.is_unitary(u, atol):
        raise ValueError("input is not unitary within tolerance")
    n = u.shape[0]
    w = u.reshape(-1) / np.sqrt(n)
    return ChoiMatrix(system_dim=n, matrix=np.outer(w, w.conj()))


def choi_of_env_channel(spec: ChainSpec, seq: ControlSequence) -> ChoiMatrix:
    """Choi state of rho -> Tr_env[ U_ext (rho ⊗ |0><0|) U_ext^dag ].

    With c[a, e, i] the component (a, e) of the dilated column U_ext(|i> ⊗ |0>),
    the image of the matrix unit |i><j| is sum_e c[:, e, i] c[:, e, j]^dag;
    its (a, b) entry sits at Choi row a*n + i and column b*n + j.
    """
    u_ext = propagate_with_env(spec, seq)
    n = spec.dim
    cols = u_ext[:, ::2].reshape(n, 2, n)
    out = np.einsum("aei,bej->aibj", cols, cols.conj()).reshape(n * n, n * n) / n
    return ChoiMatrix(system_dim=n, matrix=out)


def choi_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Trace norm of the difference of two Choi states; lies in [0, 2]."""
    if a.system_dim != b.system_dim:
        raise ValueError("Choi matrices act on different system dimensions")
    return linalg.trace_norm(a.matrix - b.matrix, atol=1e-8)


@dataclass(frozen=True)
class RobustnessReport:
    """Choi distances to the target for the mu=1 and mu<1 solutions, with and
    without the control-coupled environment qubit."""

    target: TargetGate
    mu_used: float
    gamma: float
    seed: int
    dist_no_env_mu1: float
    dist_no_env_muL: float
    dist_env_mu1: float
    dist_env_muL: float
    result_mu1: OptimizationResult
    result_muL: OptimizationResult


def robustness_experiment(
    target: TargetGate,
    mu_constrained: float,
    chain: ChainSpec,
    seq_template: ControlSequence,
    obj_cfg: ObjectiveConfig,
    opt_cfg: OptimizerConfig,
) -> RobustnessReport:
    """Optimize pulses with (mu<1) and without (mu=1) the sparsity penalty and
    compare both solutions to the target gate by Choi trace distance, with and
    without the environment qubit whose coupling tracks the pulse magnitude."""
    if not 0.0 <= mu_constrained < 1.0:
        raise ValueError("mu_constrained must lie in [0, 1)")
    bare_chain = replace(chain, env_enabled=False)
    env_chain = replace(chain, env_enabled=True)

    res_mu1 = optimize_controls(
        bare_chain, target, seq_template, replace(obj_cfg, mu=1.0), opt_cfg
    )
    res_muL = optimize_controls(
        bare_chain, target, seq_template, replace(obj_cfg, mu=mu_constrained), opt_cfg
    )

    choi_target = choi_of_unitary(target_unitary(target))
    dists = {}
    for label, res in (("mu1", res_mu1), ("muL", res_muL)):
        u = propagate(bare_chain, res.best_seq)
        dists["no_env_" + label] = choi_distance(choi_target, choi_of_unitary(u))
        dists["env_" + label] = choi_distance(
            choi_target, choi_of_env_channel(env_chain, res.best_seq)
        )

    return RobustnessReport(
        target=target,
        mu_used=mu_constrained,
        gamma=chain.gamma,
        seed=opt_cfg.seed,
        dist_no_env_mu1=dists["no_env_mu1"],
        dist_no_env_muL=dists["no_env_muL"],
        dist_env_mu1=dists["env_mu1"],
        dist_env_muL=dists["env_muL"],
        result_mu1=res_mu1,
        result_muL=res_muL,
    )
