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

from .model import (
    ChainSpec,
    ControlSequence,
    SliceKernel,
    TargetGate,
    check_real,
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
    fractional surrogate and ``kT`` the Fermi-Dirac one. All three are held
    as floats.
    """

    mu: float
    surrogate: str = "fermi_dirac"
    alpha: float = 0.99
    kT: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "mu", check_real("mu", self.mu, 0.0, 1.0))
        if self.surrogate not in SURROGATES:
            raise ValueError(f"unknown surrogate {self.surrogate!r}; expected one of {SURROGATES}")
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, 0.0, 1.0, closed=False))
        object.__setattr__(self, "kT", check_real("kT", self.kT, 0.0, closed=False))

    def check_scales(self, seq: ControlSequence) -> None:
        """Raise ValueError unless, for the n slices of duration dt and |h| <= bound of the
        template ``seq``, the optimizer's g @ g (2*n entries of at most dt + 1/(n*min(bound, 1)),
        fidelity plus penalty slope) and the Fermi-Dirac scales |h|/(2*kT) and 2*kT are finite,
        whatever the surrogate."""
        n, dt, bound = seq.n, seq.dt, seq.bound
        slope, two_kt = dt + 1.0 / (n * min(bound, 1.0)), 2.0 * self.kT
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
    """``PulseObjective(spec, target, seq, cfg)`` evaluates the minimized
    functional and its exact gradient for a flat pulse vector
    x = [hx_1..hx_n, hy_1..hy_n] of pulses shaped like the template ``seq``:
    n = seq.n slices of duration seq.dt, with |h| <= seq.bound. The template's
    amplitudes are ignored.

    The fidelity gradient is exact: the slice kernel differentiates each
    slice propagator through its eigendecomposition (see
    ``SliceKernel.trace_gradient``).

    The objective owns one ``SliceKernel`` for its whole life, and every
    evaluation writes into its arrays, so a warm evaluation allocates no
    (n, dim, dim) stack. An objective therefore evaluates one point at a time
    (it is not re-entrant); the value and gradient it returns are its own and
    do not change on later calls.
    """

    def __init__(self, spec: ChainSpec, target: TargetGate, seq: ControlSequence,
                 cfg: ObjectiveConfig):
        if spec.env_enabled:
            raise ValueError("pulses are optimized on the bare chain; disable the environment qubit")
        if target.n_sites != spec.n_sites:
            raise ValueError("target and chain have different site counts")
        # A run of all n slices, as ``propagate`` may merge them into one.
        spec.check_phase(seq.n * seq.dt, seq.bound)
        cfg.check_scales(seq)
        self.n, self.bound, self.cfg, self.dim = seq.n, seq.bound, cfg, spec.dim
        self._ut_dag = target_unitary(target).conj().T
        self._kernel = SliceKernel(spec, np.full(seq.n, seq.dt))

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        n, dim, cfg = self.n, self.dim, self.cfg
        x = np.asarray(x, dtype=np.float64)
        self._kernel.run(x[:n], x[n:])
        overlap = self._ut_dag @ self._kernel.fwd[n]
        z = np.trace(overlap)
        fid = abs(z) / dim
        if abs(z) < GRAD_PHASE_EPSILON:
            dfid = np.zeros(2 * n)
        else:
            scale = 1.0 / (abs(z) * dim)
            dfid = np.real(np.conj(z) * self._kernel.trace_gradient(overlap)) * scale

        smoothed, slope = surrogate_abs(x, cfg)
        pen_scale = (1.0 - cfg.mu) / (2.0 * n * self.bound)
        grad = pen_scale * slope - cfg.mu * dfid
        smoothed_pen = float(np.sum(smoothed) / (2.0 * n * self.bound))
        value = (1.0 - cfg.mu) * smoothed_pen - cfg.mu * fid
        return value, grad
