"""Choi-state machinery for quantum channels and the environment-robustness
comparison between penalized and unpenalized pulse solutions.

A Choi state is held by its Kraus factor F, rho = F F^dag: rank 1 for a unitary
channel, at most 2 with the environment qubit. The dense matrix is built only
on demand; distances are taken in the span of the two factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    check_count,
    numeric_array,
    propagate,
    propagate_with_env,
    target_unitary,
)
from .objective import ObjectiveConfig
from .optimizer import OptimizationResult, OptimizerConfig, optimize_controls


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state F F^dag of a channel on a ``system_dim`` system. The factor F
    has shape (system_dim^2, k); the state is Hermitian and positive
    semidefinite by construction, and of unit trace within 1e-9."""

    system_dim: int
    factor: np.ndarray

    def __post_init__(self):
        check_count("system_dim", self.system_dim, 1)
        f = numeric_array("factor", self.factor, np.complex128)
        object.__setattr__(self, "factor", f)
        d2 = self.system_dim**2
        if f.ndim != 2 or f.shape[0] != d2 or f.shape[1] < 1:
            raise ValueError(f"expected a factor of shape ({d2}, k >= 1), got {f.shape}")
        if not abs(np.vdot(f, f).real - 1.0) <= 1e-9:
            raise ValueError("Choi matrix trace differs from 1 beyond tolerance")

    @property
    def matrix(self) -> np.ndarray:
        """The dense (system_dim^2 x system_dim^2) Choi matrix."""
        return self.factor @ self.factor.conj().T


def _kraus_factor(u: np.ndarray, n: int) -> np.ndarray:
    """Choi factor of rho -> Tr_env[U (rho ⊗ |0><0|) U^dag] on an n-dimensional system, with
    e = u.shape[0] // n environment states (e = 1: the unitary channel). With c[a, k, i] the
    component (a, k) of U(|i> ⊗ |0>), the image of |i><j| is sum_k c[:, k, i] c[:, k, j]^dag,
    so the factor holds c[a, k, i] / sqrt(n) at row a*n + i and column k."""
    e = u.shape[0] // n
    return u[:, ::e].reshape(n, e, n).transpose(0, 2, 1).reshape(n * n, e) / np.sqrt(n)


def choi_of_unitary(u: np.ndarray) -> ChoiMatrix:
    """Choi state of the unitary channel rho -> U rho U^dag: rank one, with the
    factor (1/sqrt(n)) sum_i U|i> ⊗ |i>. U must be unitary within 1e-8
    (max-abs deviation of U^dag U from the identity)."""
    u = numeric_array("u", u, np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-8:
        raise ValueError("input is not unitary within tolerance")
    return ChoiMatrix(system_dim=u.shape[0], factor=_kraus_factor(u, u.shape[0]))


def choi_of_env_channel(spec: ChainSpec, seq: ControlSequence) -> ChoiMatrix:
    """Choi state of rho -> Tr_env[ U_ext (rho ⊗ |0><0|) U_ext^dag ], U_ext the
    propagator on chain + environment qubit: rank at most 2, one Kraus
    operator per environment state."""
    u_ext = propagate_with_env(spec, seq)
    return ChoiMatrix(system_dim=spec.dim, factor=_kraus_factor(u_ext, spec.dim))


def choi_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Trace norm of the difference of two Choi states; lies in [0, 2]. Both
    are compressed onto an orthonormal basis of their factors' span before they
    are subtracted, so a state is at distance exactly 0 from itself."""
    if a.system_dim != b.system_dim:
        raise ValueError("Choi matrices act on different system dimensions")
    q, _ = np.linalg.qr(np.hstack([a.factor, b.factor]))
    x = q.conj().T @ a.factor
    y = q.conj().T @ b.factor
    return linalg.trace_norm(x @ x.conj().T - y @ y.conj().T)


@dataclass(frozen=True)
class RobustnessReport:
    """Choi distances to the target for the mu=1 and mu<1 solutions, with and
    without the control-coupled environment qubit."""

    dist_no_env_mu1: float
    dist_no_env_muL: float
    dist_env_mu1: float
    dist_env_muL: float
    result_mu1: OptimizationResult
    result_muL: OptimizationResult


def robustness_experiment(
    target: TargetGate,
    chain: ChainSpec,
    seq_template: ControlSequence,
    obj_cfg: ObjectiveConfig,
    opt_cfg: OptimizerConfig,
) -> RobustnessReport:
    """Optimize pulses with (``obj_cfg.mu`` < 1) and without (mu=1) the
    sparsity penalty and compare both solutions to the target gate by Choi
    trace distance, with and without the environment qubit whose coupling
    tracks the pulse magnitude."""
    if obj_cfg.mu >= 1.0:
        raise ValueError("the penalized leg needs mu < 1")
    bare_chain = replace(chain, env_enabled=False)
    env_chain = replace(chain, env_enabled=True)
    env_chain.check_phase(seq_template.n * seq_template.dt, seq_template.bound)
    choi_target = choi_of_unitary(target_unitary(target))
    legs = {}
    for label, cfg in (("mu1", replace(obj_cfg, mu=1.0)), ("muL", obj_cfg)):
        res = optimize_controls(bare_chain, target, seq_template, cfg, opt_cfg)
        u = propagate(bare_chain, res.best_seq)
        legs["result_" + label] = res
        legs["dist_no_env_" + label] = choi_distance(choi_target, choi_of_unitary(u))
        legs["dist_env_" + label] = choi_distance(
            choi_target, choi_of_env_channel(env_chain, res.best_seq)
        )
    return RobustnessReport(**legs)
