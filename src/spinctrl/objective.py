"""Pulse-quality objective: gate fidelity, sparsity penalty, the weighted
functional being minimized, and its exact gradient.

The absolute value inside the penalty is non-smooth at zero, so three
interchangeable stand-ins for d|x|/dx are provided: the hard sign, a
fractional-derivative power law, and a Fermi-Dirac (tanh) step. The
optimizer minimizes the functional whose penalty uses the matching smoothed
absolute value, which makes the analytic gradient exact; reported fidelity,
penalty and functional values always use the true absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    forward_products,
    slice_eigensystem,
    slice_operators,
    target_unitary,
)

SURROGATES = ("signum", "fractional", "fermi_dirac")
# Below this |Tr(U_target^† U)| the overlap is treated as singular: its phase is
# undefined, so the fidelity gradient contribution is zeroed.
GRAD_PHASE_EPSILON = 1e-12


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weight and smoothing parameters of the minimized functional.

    ``mu`` weights fidelity against the pulse penalty; ``alpha`` shapes the
    fractional surrogate and ``kT`` the Fermi-Dirac one.
    """

    mu: float
    surrogate: str = "fermi_dirac"
    alpha: float = 0.99
    kT: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.surrogate not in SURROGATES:
            raise ValueError(f"unknown surrogate {self.surrogate!r}; expected one of {SURROGATES}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not (math.isfinite(self.kT) and self.kT > 0.0):
            raise ValueError("kT must be positive and finite")


def fidelity(u_target: np.ndarray, u: np.ndarray) -> float:
    """Gate fidelity |Tr(U_target^dag U)| / dim; invariant under global phases."""
    u_target = np.asarray(u_target)
    u = np.asarray(u)
    if u_target.shape != u.shape:
        raise ValueError(f"dimension mismatch: {u_target.shape} vs {u.shape}")
    dim = u.shape[0]
    return float(abs(np.trace(u_target.conj().T @ u)) / dim)


def penalty(seq: ControlSequence) -> float:
    """Normalized total pulse magnitude; equals 1 when every pulse sits at ±bound."""
    return float(np.sum(np.abs(seq.pulse_vector())) / (2.0 * seq.n * seq.bound))


def surrogate_abs_derivative(x, cfg: ObjectiveConfig):
    """Configured stand-in for d|x|/dx, elementwise on arrays.

    signum:      sgn(x)
    fractional:  sgn(x) * |x|**(1-alpha) / gamma(2-alpha)
    fermi_dirac: 2*(0.5 - 1/(exp(x/kT)+1)) == tanh(x/(2*kT))
    """
    arr = np.asarray(x, dtype=np.float64)
    if cfg.surrogate == "signum":
        out = np.sign(arr)
    elif cfg.surrogate == "fractional":
        out = np.sign(arr) * np.abs(arr) ** (1.0 - cfg.alpha) / math.gamma(2.0 - cfg.alpha)
    else:
        out = np.tanh(arr / (2.0 * cfg.kT))
    return out if arr.ndim else float(out)


def surrogate_abs(x, cfg: ObjectiveConfig):
    """Smoothed |x| whose derivative is ``surrogate_abs_derivative``.

    signum integrates back to |x| itself, fractional to a slightly
    super-linear power law, fermi_dirac to a softplus-like log-cosh.
    """
    arr = np.asarray(x, dtype=np.float64)
    if cfg.surrogate == "signum":
        out = np.abs(arr)
    elif cfg.surrogate == "fractional":
        p = 2.0 - cfg.alpha
        out = np.abs(arr) ** p / (p * math.gamma(p))
    else:
        # 2*kT*log(cosh(x/(2*kT))), written to avoid overflow in cosh
        u = np.abs(arr) / (2.0 * cfg.kT)
        out = 2.0 * cfg.kT * (u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0))
    return out if arr.ndim else float(out)


class PulseObjective:
    """Evaluates the minimized functional and its exact gradient for a flat
    pulse vector x = [hx_1..hx_n, hy_1..hy_n].

    The fidelity gradient is exact: each slice propagator is differentiated
    through its eigendecomposition with the divided-difference kernel of
    t -> exp(-i*dt*t), and the chain rule is assembled from the cumulative
    products of the slice propagators and the total propagator.
    """

    def __init__(
        self,
        spec: ChainSpec,
        target: TargetGate,
        n: int,
        dt: float,
        bound: float,
        cfg: ObjectiveConfig,
    ):
        if spec.env_enabled:
            raise ValueError("pulses are optimized on the bare chain; disable the environment qubit")
        if target.n_sites != spec.n_sites:
            raise ValueError("target and chain have different site counts")
        self.spec = spec
        self.n = int(n)
        self.dt = float(dt)
        self.bound = float(bound)
        self.cfg = cfg
        self.dim = spec.dim
        self._ut_dag = target_unitary(target).conj().T
        # Columns: Sx^1 and Sy^1, transposed and flattened (see value_and_grad).
        self._controls_t = np.stack(
            [linalg.embed_single_site(linalg.pauli(a), 1, spec.n_sites).T.ravel() for a in "xy"],
            axis=1,
        )

    def sequence(self, x: np.ndarray) -> ControlSequence:
        return ControlSequence.from_vector(x, self.dt, self.bound)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        n, dt, dim, cfg = self.n, self.dt, self.dim, self.cfg
        x = np.asarray(x, dtype=np.float64)
        hx, hy = x[:n], x[n:]

        evals, rot, phase = slice_eigensystem(slice_operators(self.spec), hx, hy)
        # fwd[j]: the product of the first j slice propagators, whose phases
        # are h² with h = e^(-i*dt*λ/2); the gradient kernel uses h_a*conj(h_b).
        fwd = forward_products(evals, rot, phase, dt)
        # The eigenvectors V = D R, built once; R is freed before the gradient.
        evecs = phase[:, :, None] * rot
        del rot
        half = np.exp(-0.5j * dt * evals)
        overlap = self._ut_dag @ fwd[n]
        z = np.trace(overlap)
        fid = abs(z) / dim

        # U = B_j U_j F_j with F_j = fwd[j] and B_j = U F_j^† U_j^†, so with
        # the eigenbasis V_j of slice j, dTr(U_T^† U) along a control σ on it
        # is Tr(σ dm_j), dm_j = V_j (S_j ∘ K_j) V_j^†, where C_j = F_j^† V_j,
        # S_j = C_j^† (U_T^† U) C_j and K_ab = -i*dt*h_a*conj(h_b)*
        # sinc(dt*(λ_a-λ_b)/2π): the divided difference of e^(-i*dt*λ) at
        # (λ_a, λ_b) times conj(h_b²), exact at coincident eigenvalues.
        c = fwd[:n].conj().swapaxes(-1, -2) @ evecs
        s = c.conj().swapaxes(-1, -2) @ (overlap @ c)
        lam_diff = evals[:, :, None] - evals[:, None, :]
        kernel = (
            (-1j * dt * half)[:, :, None]
            * half.conj()[:, None, :]
            * np.sinc(0.5 * dt * lam_diff / np.pi)
        )
        dm = evecs @ (s * kernel) @ evecs.conj().swapaxes(-1, -2)
        # Tr(σ dm) = Σ_kl dm_lk σ_kl, for σ = Sx^1 and Sy^1 in one product.
        tx, ty = (dm.reshape(n, -1) @ self._controls_t).T

        if abs(z) < GRAD_PHASE_EPSILON:
            dfid_x = np.zeros(n)
            dfid_y = np.zeros(n)
        else:
            scale = 1.0 / (abs(z) * dim)
            dfid_x = np.real(np.conj(z) * tx) * scale
            dfid_y = np.real(np.conj(z) * ty) * scale

        pen_scale = (1.0 - cfg.mu) / (2.0 * n * self.bound)
        grad = np.concatenate(
            [
                pen_scale * surrogate_abs_derivative(hx, cfg) - cfg.mu * dfid_x,
                pen_scale * surrogate_abs_derivative(hy, cfg) - cfg.mu * dfid_y,
            ]
        )
        smoothed_pen = float(np.sum(surrogate_abs(x, cfg)) / (2.0 * n * self.bound))
        value = (1.0 - cfg.mu) * smoothed_pen - cfg.mu * fid
        return value, grad
