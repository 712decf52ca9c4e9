"""Pulse-quality objective: gate fidelity, sparsity penalty, the weighted
functional being minimized, and its exact gradient.

The absolute value inside the penalty is non-smooth at zero, so three
interchangeable stand-ins for d|x|/dx are provided: the hard sign, a
fractional-derivative power law, and a Fermi-Dirac (tanh) step.
``surrogate_abs`` returns each one together with the smoothed absolute value
it is the derivative of, and the optimizer minimizes the functional whose
penalty uses that smoothed value, which makes the analytic gradient exact;
reported fidelity, penalty and functional values always use the true
absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    ChainSpec,
    ControlSequence,
    SliceKernel,
    TargetGate,
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

    def check_scales(self, n: int, dt: float, bound: float) -> None:
        """Raise ValueError unless, for n slices of duration dt and |h| <= bound, the optimizer's
        g @ g (2*n entries of at most dt + 1/(n*min(bound, 1)), fidelity plus penalty slope) and
        the Fermi-Dirac scales |h|/(2*kT) and 2*kT are finite, whatever the surrogate."""
        slope, two_kt = dt + 1.0 / (n * min(bound, 1.0)), 2.0 * float(self.kT)
        if not math.isfinite(2 * n * slope * slope + bound / two_kt + two_kt):
            raise ValueError("2*n_pulses*(dt + 1/(n_pulses*min(bound, 1)))^2, bound/(2*kT) or 2*kT "
                             "is not finite; reduce dt, raise a tiny bound or choose a kT nearer 1")


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


def surrogate_abs(x, cfg: ObjectiveConfig) -> tuple[np.ndarray, np.ndarray]:
    """The configured smoothed |x| and its slope, the stand-in for d|x|/dx,
    elementwise:

    signum:      |x|, sgn(x)
    fractional:  |x|**p / (p*gamma(p)), sgn(x) * |x|**(1-alpha) / gamma(p),
                 with p = 2 - alpha (slightly super-linear)
    fermi_dirac: 2*kT*log(cosh(x/(2*kT))) (softplus-like),
                 tanh(x/(2*kT)) == 2*(0.5 - 1/(exp(x/kT)+1))
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.surrogate == "signum":
        return np.abs(x), np.sign(x)
    if cfg.surrogate == "fractional":
        p = 2.0 - cfg.alpha
        a, gamma_p = np.abs(x), math.gamma(p)
        return a**p / (p * gamma_p), np.sign(x) * a ** (1.0 - cfg.alpha) / gamma_p
    # log(cosh) written to avoid overflow in cosh
    two_kt = 2.0 * cfg.kT
    u = np.abs(x) / two_kt
    return two_kt * (u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)), np.tanh(x / two_kt)


class PulseObjective:
    """Evaluates the minimized functional and its exact gradient for a flat
    pulse vector x = [hx_1..hx_n, hy_1..hy_n].

    The fidelity gradient is exact: each slice propagator is differentiated
    through its eigendecomposition with the divided-difference kernel of
    t -> exp(-i*dt*t), and the chain rule is assembled from the cumulative
    products of the slice propagators and the total propagator.

    The objective owns one ``SliceKernel`` and one complex (n, dim, dim)
    stack for its whole life, and every evaluation writes into them, so a
    warm evaluation allocates no stack of that size. The gradient uses the
    kernel's ``stage`` and ``fwd`` as scratch once it has read them, and its
    products are real wherever the eigenvectors V = D R enter: no complex
    eigenvector stack is formed. An objective therefore evaluates one point
    at a time (it is not re-entrant); the value and gradient it returns are
    its own and do not change on later calls.
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
        self.n = int(n)
        self.dt = float(dt)
        self.bound = float(bound)
        # A run of all n slices, as ``propagate`` may merge them into one.
        spec.check_phase(self.n * self.dt, self.bound)
        cfg.check_scales(self.n, self.dt, self.bound)
        self.cfg = cfg
        self.dim = spec.dim
        self._ut_dag = target_unitary(target).conj().T
        self._kernel = SliceKernel(spec, self.n)
        self._work = np.empty((self.n, self.dim, self.dim), dtype=np.complex128)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        n, dt, dim, cfg = self.n, self.dt, self.dim, self.cfg
        x = np.asarray(x, dtype=np.float64)
        hx, hy = x[:n], x[n:]

        kernel = self._kernel
        kernel.run(hx, hy, dt)
        overlap = self._ut_dag @ kernel.fwd[n]
        z = np.trace(overlap)
        fid = abs(z) / dim

        # U = B_j U_j F_j with F_j = fwd[j] and B_j = U F_j^† U_j^†, so with
        # the eigenbasis V_j = D_j R_j of slice j, dTr(U_T^† U) along a control
        # σ on it is Tr(σ V_j X_j V_j^†), X_j = S_j ∘ K_j, where C_j = F_j^† V_j,
        # S_j = C_j^† (U_T^† U) C_j and K_ab = -i*dt*h_a*conj(h_b)*
        # sinc(dt*(λ_a-λ_b)/2π), h = e^(-i*dt*λ/2): the divided difference of
        # e^(-i*dt*λ) at (λ_a, λ_b) times conj(h_b²), exact at coincident
        # eigenvalues. work ends up holding X' = X / (-i*dt). Besides rot, the
        # stages use three complex-sized stacks: work, the kernel's stage and
        # fwd[:n], which is free once D^†F is formed.
        rot, fwd, stage, work = kernel.rot, kernel.fwd[:n], kernel.stage, self._work
        stage_c = linalg.reinterpret(stage, np.complex128, (n, dim, dim))
        # work = diag(h) C^† = diag(h) R^T (D^† F): a real product on the
        # interleaved float view of D^† F, then a row scaling.
        np.multiply(kernel.phase.conj()[:, :, None], fwd, out=stage_c)
        np.matmul(
            rot.swapaxes(-1, -2),
            linalg.reinterpret(stage_c, np.float64, (n, dim, 2 * dim)),
            out=linalg.reinterpret(work, np.float64, (n, dim, 2 * dim)),
        )
        work *= np.exp(-0.5j * dt * kernel.evals)[:, :, None]
        # S ∘ (h_a conj(h_b)) = (diag(h) C^† U_T^† U)(C diag(conj(h))), whose
        # right factor is the transposed conjugate of work.
        np.matmul(work, overlap, out=fwd)
        np.conjugate(work, out=stage_c)
        np.matmul(fwd, stage_c.swapaxes(-1, -2), out=work)
        arg, sinc = linalg.reinterpret(stage, np.float64, (2, n, dim, dim))
        half_dt_evals = (0.5 * dt) * kernel.evals
        np.subtract(half_dt_evals[:, :, None], half_dt_evals[:, None, :], out=arg)
        arg[arg == 0.0] = 1e-20  # sin(y)/y is then exactly 1, as in np.sinc
        np.sin(arg, out=sinc)
        sinc /= arg
        work *= sinc

        # With D = diag(e^(-i*φ*m/2)), P the site-1 bit flip k -> k ^ (dim/2)
        # and Z its σz signs, D^†σx^1 D = cos φ·P - i sin φ·PZ and
        # D^†σy^1 D = sin φ·P + i cos φ·PZ. So Tr(σ V X V^†) needs only
        # a = Σ Px∘X and b = Σ Pz∘X with the real Px = R^T P R = M + M^T and
        # Pz = R^T Z P R = M^T - M, where M = R_set^T R_clear from the rows of
        # R whose site-1 bit is clear (the first half) and set (the second).
        half_dim = dim // 2
        clear, set_ = rot[:, :half_dim], rot[:, half_dim:]
        m = stage.reshape(n, 2, dim, dim)
        np.matmul(set_.swapaxes(-1, -2), clear, out=m[:, 0])
        np.matmul(clear.swapaxes(-1, -2), set_, out=m[:, 1])
        # sums[:, i] = Σ M∘X' and Σ M^T∘X' as (real, imaginary) pairs.
        sums = stage.reshape(n, 2, dim * dim) @ linalg.reinterpret(
            work, np.float64, (n, dim * dim, 2)
        )
        sum_m, sum_mt = (-1j * dt) * (sums[:, :, 0] + 1j * sums[:, :, 1]).T
        a, b = sum_m + sum_mt, sum_mt - sum_m
        cos_phi, sin_phi = np.cos(kernel.phi), np.sin(kernel.phi)
        tx = cos_phi * a - 1j * sin_phi * b
        ty = sin_phi * a + 1j * cos_phi * b

        if abs(z) < GRAD_PHASE_EPSILON:
            dfid_x = np.zeros(n)
            dfid_y = np.zeros(n)
        else:
            scale = 1.0 / (abs(z) * dim)
            dfid_x = np.real(np.conj(z) * tx) * scale
            dfid_y = np.real(np.conj(z) * ty) * scale

        smoothed, slope = surrogate_abs(x, cfg)
        pen_scale = (1.0 - cfg.mu) / (2.0 * n * self.bound)
        grad = pen_scale * slope - cfg.mu * np.concatenate([dfid_x, dfid_y])
        smoothed_pen = float(np.sum(smoothed) / (2.0 * n * self.bound))
        value = (1.0 - cfg.mu) * smoothed_pen - cfg.mu * fid
        return value, grad
