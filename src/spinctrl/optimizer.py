"""Projected BFGS with strong-Wolfe line search, plus a multi-restart driver
for pulse optimization."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import ChainSpec, ControlSequence, TargetGate, propagate, target_unitary
from .objective import ObjectiveConfig, PulseObjective, fidelity, penalty

_CURVATURE_EPS = 1e-12
_MAX_LINE_SEARCH_TRIALS = 50


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 5000
    grad_tol: float = 1e-6
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    restarts: int = 8
    init_amplitude: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be positive and finite")
        if not 0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0:
            raise ValueError("Wolfe constants must satisfy 0 < c1 < c2 < 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not (math.isfinite(self.init_amplitude) and self.init_amplitude >= 0):
            raise ValueError("init_amplitude must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class BfgsInfo:
    """Outcome of one BFGS run: accepted-iterate objective values and flags."""

    iterations: int
    converged: bool
    line_search_failed: bool
    objective_trace: list[float] = field(default_factory=list)


def _wolfe_search(vag, x, p, f0, g0, c1, c2, max_trials=_MAX_LINE_SEARCH_TRIALS):
    """Strong Wolfe line search: bracketing then bisection zoom.

    Returns (alpha, f, g) at an acceptable step, or None after ``max_trials``
    function evaluations (counting both phases).
    """
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return None
    trials = 0

    def evaluate(a):
        nonlocal trials
        trials += 1
        fa, ga = vag(x + a * p)
        return fa, ga, float(ga @ p)

    a_prev, f_prev = 0.0, f0
    a = 1.0
    bracket = None
    while trials < max_trials:
        fa, ga, da = evaluate(a)
        if fa > f0 + c1 * a * d0 or (a_prev > 0.0 and fa >= f_prev):
            bracket = (a_prev, f_prev, a)
            break
        if abs(da) <= -c2 * d0:
            return a, fa, ga
        if da >= 0.0:
            bracket = (a, fa, a_prev)
            break
        a_prev, f_prev = a, fa
        a *= 2.0
    if bracket is None:
        return None

    lo, f_lo, hi = bracket
    while trials < max_trials:
        if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            return None
        a = 0.5 * (lo + hi)
        fa, ga, da = evaluate(a)
        if fa > f0 + c1 * a * d0 or fa >= f_lo:
            hi = a
        else:
            if abs(da) <= -c2 * d0:
                return a, fa, ga
            if da * (hi - lo) >= 0.0:
                hi = lo
            lo, f_lo = a, fa
    return None


def bfgs_minimize(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    bound: float,
    cfg: OptimizerConfig,
) -> tuple[np.ndarray, BfgsInfo]:
    """Minimize inside the box |x_i| <= bound.

    ``value_and_grad`` returns the objective and its gradient at a point;
    the two must be consistent (the caller guarantees it). Iterates are
    clamped into the box after each line-search step; the inverse-Hessian
    approximation is reset to identity whenever clamping actually bites or
    the curvature product s·y drops below 1e-12. A failed line search
    terminates the run at the best point so far, with the failure flagged in
    the returned info.
    """
    x = np.clip(np.asarray(x0, dtype=np.float64), -bound, bound)
    f, g = value_and_grad(x)
    dim = x.size
    hmat = np.eye(dim)
    fresh_hessian = True

    trace = [f]
    converged = bool(np.max(np.abs(g)) <= cfg.grad_tol)
    ls_failed = False
    it = 0
    while it < cfg.max_iters and not converged:
        it += 1
        p = -(hmat @ g)
        if float(g @ p) >= 0.0:
            # Numerically lost descent; restart from steepest descent.
            hmat = np.eye(dim)
            fresh_hessian = True
            p = -g

        result = _wolfe_search(value_and_grad, x, p, f, g, cfg.wolfe_c1, cfg.wolfe_c2)
        if result is None:
            ls_failed = True
            break
        alpha, f_new, g_new = result

        x_raw = x + alpha * p
        x_new = np.clip(x_raw, -bound, bound)
        projected = not np.array_equal(x_new, x_raw)
        if projected:
            f_new, g_new = value_and_grad(x_new)
            backtracks = 0
            while f_new > f and backtracks < _MAX_LINE_SEARCH_TRIALS:
                alpha *= 0.5
                x_new = np.clip(x + alpha * p, -bound, bound)
                f_new, g_new = value_and_grad(x_new)
                backtracks += 1
            if f_new > f:
                ls_failed = True
                break

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if projected or sy <= _CURVATURE_EPS:
            hmat = np.eye(dim)
            fresh_hessian = True
        else:
            if fresh_hessian:
                hmat *= sy / float(y @ y)
                fresh_hessian = False
            hy = hmat @ y
            rho = 1.0 / sy
            hmat += (rho * rho * (sy + float(y @ hy))) * np.outer(s, s)
            hmat -= rho * (np.outer(hy, s) + np.outer(s, hy))

        x, f, g = x_new, f_new, g_new
        trace.append(f)
        converged = bool(np.max(np.abs(g)) <= cfg.grad_tol)

    return x, BfgsInfo(
        iterations=it,
        converged=converged,
        line_search_failed=ls_failed,
        objective_trace=trace,
    )


@dataclass
class OptimizationResult:
    """Best-of-restarts pulse optimization outcome. ``fidelity`` and
    ``penalty`` are those of ``best_seq`` (through ``propagate`` and
    ``penalty``), and G always recomputes as (1-mu)*penalty - mu*fidelity
    from the reported pair."""

    best_seq: ControlSequence
    fidelity: float
    penalty: float
    G: float
    iterations_used: int
    restart_index: int
    seed: int
    converged: bool
    line_search_failed: bool


def optimize_controls(
    spec: ChainSpec,
    target: TargetGate,
    seq_template: ControlSequence,
    obj_cfg: ObjectiveConfig,
    opt_cfg: OptimizerConfig,
) -> OptimizationResult:
    """Multi-restart projected BFGS over pulse sequences.

    Runs ``restarts`` independent BFGS minimizations from uniform random
    initial pulses (per-restart child seeds derived from ``opt_cfg.seed``)
    and returns the restart with the lowest reported functional, ties going
    to the lower restart index. Deterministic given (seed, configs).
    """
    if opt_cfg.init_amplitude > seq_template.bound:
        raise ValueError("init_amplitude exceeds the pulse amplitude bound")
    po = PulseObjective(
        spec, target, seq_template.n, seq_template.dt, seq_template.bound, obj_cfg
    )
    u_target = target_unitary(target)
    children = np.random.SeedSequence(opt_cfg.seed).spawn(opt_cfg.restarts)

    best = None
    for r in range(opt_cfg.restarts):
        rng = np.random.default_rng(children[r])
        x0 = rng.uniform(-opt_cfg.init_amplitude, opt_cfg.init_amplitude, 2 * seq_template.n)
        x, info = bfgs_minimize(po.value_and_grad, x0, seq_template.bound, opt_cfg)
        seq = po.sequence(x)
        fid = fidelity(u_target, propagate(spec, seq))
        pen = penalty(seq)
        g_true = (1.0 - obj_cfg.mu) * pen - obj_cfg.mu * fid
        candidate = OptimizationResult(
            best_seq=seq,
            fidelity=fid,
            penalty=pen,
            G=g_true,
            iterations_used=info.iterations,
            restart_index=r,
            seed=opt_cfg.seed,
            converged=info.converged,
            line_search_failed=info.line_search_failed,
        )
        if best is None or candidate.G < best.G:
            best = candidate
    return best
