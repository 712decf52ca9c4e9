"""Box-constrained BFGS with a weak-Wolfe line search (the bracketing
bisection of Lewis and Overton, 2013), plus a multi-restart driver for pulse
optimization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (ChainSpec, ControlSequence, TargetGate, check_count, check_real,
                    numeric_array, propagate, target_unitary)
from .objective import ObjectiveConfig, PulseObjective, fidelity, penalty

_CURVATURE_EPS = 1e-12
_GRAD_TOL = 1e-6
_MAX_LINE_SEARCH_TRIALS = 50
# Weak Wolfe constants: sufficient decrease and curvature.
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_INIT_AMPLITUDE = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 5000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)


@dataclass
class BfgsInfo:
    """Outcome of one BFGS run: its iterations, flags and the number of
    ``value_and_grad`` calls."""

    iterations: int
    converged: bool
    line_search_failed: bool
    evaluations: int


def _wolfe_search(vag, point, p, f0, g0, a_max):
    """Weak Wolfe line search over steps a in (0, a_max] along the ray
    ``point(a)`` with direction ``p``, by the bracketing bisection of Lewis and
    Overton (Math. Program. 141, 135-163, 2013). A step that fails sufficient
    decrease bounds the bracket from above, one still too steep from below;
    trials double from min(1, a_max) up to ``a_max`` until the bracket has an
    upper end, then bisect it. A still-descending step at ``a_max`` is
    accepted, and a NaN value fails sufficient decrease. Returns (x, f, g) at
    an acceptable step, or None after ``_MAX_LINE_SEARCH_TRIALS`` evaluations.
    """
    d0 = float(g0 @ p)
    lo, hi = 0.0, math.inf
    a = min(1.0, a_max)
    for _ in range(_MAX_LINE_SEARCH_TRIALS):
        xa = point(a)
        fa, ga = vag(xa)
        if not fa <= f0 + _WOLFE_C1 * a * d0:
            hi = a
        elif float(ga @ p) < _WOLFE_C2 * d0 and a < a_max:
            lo = a
        else:
            return xa, fa, ga
        if hi == math.inf:
            a = min(2.0 * a, a_max)
        else:
            a = 0.5 * (lo + hi)
    return None


def _bfgs_update(hmat, s, y, sy, work) -> None:
    """The BFGS update of the inverse Hessian, in place:
    H <- (I - rho*s*y^T) H (I - rho*y*s^T) + rho*s*s^T with rho = 1/sy
    (Nocedal and Wright, Numerical Optimization, 2nd ed., 2006, eq. 6.17).

    With hy = H*y and c = rho^2*(sy + y^T*hy) this equals
    H + s*v^T + v*s^T with v = (c/2)*s - rho*hy, formed as one product of
    the (dim, 2) [s, v] and the (2, dim) [v; s] into ``work`` (dim, dim). The
    two terms are each other's transpose, so H stays symmetric to rounding.
    """
    hy = hmat @ y
    rho = 1.0 / sy
    c = rho * rho * (sy + float(y @ hy))
    v = 0.5 * c * s - rho * hy
    np.matmul(np.column_stack([s, v]), np.vstack([v, s]), out=work)
    hmat += work


def bfgs_minimize(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    bound: float,
    cfg: OptimizerConfig,
) -> tuple[np.ndarray, BfgsInfo]:
    """Minimize inside the box |x_i| <= bound, for a positive finite bound.

    ``value_and_grad`` returns the objective and its gradient at a point;
    the two must be consistent (the caller guarantees it). A variable on the
    bound is held while its gradient, or the quasi-Newton direction, points
    out of the box. The run converges when the projected gradient pg (g with
    the components held by the gradient zeroed) has |pg|∞ <= ``_GRAD_TOL``.
    The step -H·pg, held components zeroed, ends at the nearest bound at the
    latest, so every evaluated point lies in the box. The BFGS update ignores
    held variables. H starts as the identity, and is reset to it only when
    s·y <= 1e-12 or descent is lost; it is allocated at the first curvature
    pair after a start or reset, scaled by s·y/y·y (Nocedal and Wright,
    eq. 6.20). Only the scratch of its update is allocated once per run, and
    the update is one in-place rank-2 product (``_bfgs_update``) that keeps H
    symmetric to rounding. A failed line search ends the run at the best
    point so far, flagged in the returned info.
    """
    bound = check_real("bound", bound, 0.0, closed=False)
    x = numeric_array("x0", x0)
    if x.ndim != 1 or x.size == 0 or np.isnan(x).any():
        raise ValueError("x0 must be a non-empty 1-D vector without NaN")
    evaluations = 0

    def counted(x):
        nonlocal evaluations
        evaluations += 1
        return value_and_grad(x)

    x = np.clip(x, -bound, bound)
    f, g = counted(x)
    dim = x.size
    hmat = None  # the identity, until a curvature pair scales it
    work = np.empty((dim, dim))
    ls_failed = False
    it = 0
    while True:
        on_bound = np.abs(x) >= bound
        pg = np.where(on_bound & (x * g < 0.0), 0.0, g)
        converged = bool(np.max(np.abs(pg)) <= _GRAD_TOL)
        if converged or it == cfg.max_iters:
            break
        it += 1
        p = -pg if hmat is None else -(hmat @ pg)
        p[on_bound & ((x * g < 0.0) | (x * p > 0.0))] = 0.0
        if float(g @ p) >= 0.0:
            # Numerically lost descent; restart from steepest descent.
            hmat = None
            p = -pg
        held = on_bound & (x * p >= 0.0)

        # Step length at which each moving variable reaches the bound ahead.
        reach = np.full(dim, np.inf)
        np.divide(bound - np.sign(p) * x, np.abs(p), out=reach, where=p != 0.0)

        def point(a):
            # A variable whose bound is reached sits on it; the clip guards rounding.
            return np.where(reach <= a, np.sign(p) * bound, np.clip(x + a * p, -bound, bound))

        result = _wolfe_search(counted, point, p, f, g, float(reach.min()))
        if result is None:
            ls_failed = True
            break
        x_new, f_new, g_new = result

        s = x_new - x
        y = np.where(held, 0.0, g_new - g)
        sy = float(s @ y)
        if sy <= _CURVATURE_EPS:
            hmat = None
        else:
            if hmat is None:
                hmat = np.eye(dim)
                hmat *= sy / float(y @ y)
            _bfgs_update(hmat, s, y, sy, work)

        x, f, g = x_new, f_new, g_new

    return x, BfgsInfo(
        iterations=it,
        converged=converged,
        line_search_failed=ls_failed,
        evaluations=evaluations,
    )


@dataclass
class OptimizationResult:
    """Best-of-restarts pulse optimization outcome. ``fidelity`` and
    ``penalty`` are those of ``best_seq`` (through ``propagate`` and
    ``penalty``), and G always recomputes as (1-mu)*penalty - mu*fidelity
    from the reported pair. ``evaluations`` counts the objective evaluations
    of the reported restart."""

    best_seq: ControlSequence
    fidelity: float
    penalty: float
    G: float
    iterations_used: int
    restart_index: int
    converged: bool
    line_search_failed: bool
    evaluations: int


def optimize_controls(
    spec: ChainSpec,
    target: TargetGate,
    seq_template: ControlSequence,
    obj_cfg: ObjectiveConfig,
    opt_cfg: OptimizerConfig,
) -> OptimizationResult:
    """Multi-restart projected BFGS over pulse sequences.

    Runs ``restarts`` independent BFGS minimizations from initial pulses
    drawn uniformly from +-min(0.5, bound) (per-restart child seeds derived
    from ``opt_cfg.seed``) and returns the restart with the lowest reported
    functional, ties going to the lower restart index. Deterministic given
    (seed, configs).
    """
    po = PulseObjective(spec, target, seq_template, obj_cfg)
    u_target = target_unitary(target)
    children = np.random.SeedSequence(opt_cfg.seed).spawn(opt_cfg.restarts)
    amplitude = min(_INIT_AMPLITUDE, seq_template.bound)

    best = None
    for r in range(opt_cfg.restarts):
        rng = np.random.default_rng(children[r])
        x0 = rng.uniform(-amplitude, amplitude, 2 * seq_template.n)
        x, info = bfgs_minimize(po.value_and_grad, x0, seq_template.bound, opt_cfg)
        seq = ControlSequence.from_vector(x, seq_template.dt, seq_template.bound)
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
            converged=info.converged,
            line_search_failed=info.line_search_failed,
            evaluations=info.evaluations,
        )
        if best is None or candidate.G < best.G:
            best = candidate
    return best
