import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from scale_cases import LARGE_BUT_FINITE, NOT3, PHASE_OVERFLOW, SCALE_OVERFLOW, experiment
from spinctrl.model import ChainSpec, ControlSequence, TargetGate, propagate, target_unitary
from spinctrl.objective import (
    ObjectiveConfig,
    PulseObjective,
    fidelity,
    penalty,
    surrogate_abs,
)
from spinctrl.optimizer import (
    _GRAD_TOL,
    _MAX_LINE_SEARCH_TRIALS,
    _WOLFE_C1,
    _WOLFE_C2,
    OptimizerConfig,
    _bfgs_update,
    _wolfe_search,
    bfgs_minimize,
    optimize_controls,
)


def fused(f, g):
    """The (value, gradient) callable bfgs_minimize takes."""
    return lambda x: (f(x), g(x))


def capped_values(vag, x0, bound, k_max):
    """f where bfgs_minimize stops with max_iters = 1..k_max. The run is
    deterministic, so these are the objective values of its first k_max
    accepted iterates (the last one repeated once it has converged)."""
    return [
        vag(bfgs_minimize(vag, x0, bound, OptimizerConfig(max_iters=k))[0])[0]
        for k in range(1, k_max + 1)
    ]


class TestBfgsMinimize:
    def test_quadratic(self, monkeypatch):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + 4 * np.eye(4)  # SPD
        c = np.array([0.3, -1.2, 0.8, 2.0])

        def f(x):
            return float((x - c) @ a @ (x - c))

        def g(x):
            return 2.0 * a @ (x - c)

        monkeypatch.setattr("spinctrl.optimizer._GRAD_TOL", 1e-10)
        cfg = OptimizerConfig(max_iters=50)
        x, info = bfgs_minimize(fused(f, g), np.zeros(4), bound=100.0, cfg=cfg)
        assert np.max(np.abs(x - c)) < 1e-8
        assert info.iterations <= 50

    def test_smoothed_abs_reaches_surrogate_root(self):
        # oracle: bisection on the odd, increasing surrogate locates its root at 0
        obj_cfg = ObjectiveConfig(mu=0.5, surrogate="fermi_dirac")

        def surrogate(x):
            return surrogate_abs(float(x), obj_cfg)[1]

        lo, hi = -1.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if surrogate(mid) < 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(root) < 1e-12

        def f(x):
            return float(surrogate_abs(x[0], obj_cfg)[0])

        def g(x):
            return np.array([surrogate(x[0])])

        cfg = OptimizerConfig(max_iters=500)
        x, _ = bfgs_minimize(fused(f, g), np.array([0.7]), bound=1.0, cfg=cfg)
        assert abs(x[0] - root) < 5 * obj_cfg.kT

    def test_rosenbrock(self, monkeypatch):
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        def g(x):
            return np.array(
                [
                    -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )

        monkeypatch.setattr("spinctrl.optimizer._GRAD_TOL", 1e-9)
        cfg = OptimizerConfig(max_iters=2000)
        x, info = bfgs_minimize(fused(f, g), np.array([-1.2, 1.0]), bound=50.0, cfg=cfg)
        # oracle: an independent reference minimizer agrees
        ref = scipy.optimize.minimize(f, np.array([-1.2, 1.0]), jac=g, method="BFGS")
        assert np.max(np.abs(x - np.array([1.0, 1.0]))) < 1e-6
        assert np.max(np.abs(x - ref.x)) < 1e-4

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 6))
        a = m @ m.T + np.eye(6)
        c = rng.normal(size=6)

        def f(x):
            return float((x - c) @ a @ (x - c))

        def g(x):
            return 2.0 * a @ (x - c)

        vag = fused(f, g)
        _, info = bfgs_minimize(vag, np.zeros(6), bound=100.0, cfg=OptimizerConfig())
        values = capped_values(vag, np.zeros(6), 100.0, info.iterations + 1)
        assert values[0] <= f(np.zeros(6))
        assert np.all(np.diff(values) <= 0.0)

    def test_box_active_at_solution(self):
        # unconstrained minimum at 3 lies outside the box [-1, 1]
        def f(x):
            return float(np.sum((x - 3.0) ** 2))

        def g(x):
            return 2.0 * (x - 3.0)

        vag = fused(f, g)
        x, info = bfgs_minimize(vag, np.zeros(2), bound=1.0, cfg=OptimizerConfig(max_iters=200))
        assert np.all(np.abs(x) <= 1.0)
        assert np.allclose(x, 1.0, atol=1e-9)
        values = capped_values(vag, np.zeros(2), 1.0, info.iterations + 1)
        assert values[0] <= f(np.zeros(2))
        assert np.all(np.diff(values) <= 0.0)
        # the projected gradient vanishes on the bound, so the run stops there
        assert info.converged
        assert info.iterations <= 5

    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), True])
    def test_rejects_a_bound_that_is_not_positive(self, bound):
        # 0 used to spend every iteration without moving, -1 to return
        # x = -1 and NaN to end in a failed line search with x = NaN
        def f(x):
            return float(np.sum((x - 0.3) ** 2))

        def g(x):
            return 2.0 * (x - 0.3)

        with pytest.raises(ValueError, match="bound"):
            bfgs_minimize(fused(f, g), np.ones(3), bound, OptimizerConfig(max_iters=200))

    @pytest.mark.parametrize(
        "x0",
        [[float("nan"), 1.0], [], np.zeros((2, 2)), [1j, 0.0], ["0.5", "0.1"], [True, False]],
        ids=["nan", "empty", "matrix", "complex", "str", "bool"],
    )
    def test_rejects_an_x0_that_is_not_a_vector(self, x0):
        # a NaN start used to end in a failed line search with x = [nan, 1];
        # an empty or 2-D one to fail inside numpy with an unrelated message;
        # a complex one to raise TypeError, and strings and bools to be parsed
        with pytest.raises(ValueError, match="x0"):
            bfgs_minimize(lambda x: (float(x @ x), 2.0 * x), x0, 1.0, OptimizerConfig())

    @pytest.mark.parametrize("seed", [3, 4])
    def test_bounded_pulse_problem_converges_inside_box(self, seed):
        # not3 at b=2, mu=0.9: the optimum has pulses on the bound, where the
        # raw gradient stays nonzero
        bound = 2.0
        po = PulseObjective(
            ChainSpec(n_sites=3), TargetGate("NOT", 3), ControlSequence.zeros(8, 0.2, bound),
            ObjectiveConfig(mu=0.9),
        )
        evaluated = []

        def counting(x):
            evaluated.append(np.array(x))
            return po.value_and_grad(x)

        x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 16)
        cfg = OptimizerConfig(max_iters=500)
        x, info = bfgs_minimize(counting, x0, bound, cfg)
        assert info.converged
        assert np.any(np.abs(x) == bound)
        _, g = po.value_and_grad(x)
        # g_i may be nonzero only where x_i sits on the bound and -g_i points out
        pg = np.where((np.abs(x) == bound) & (np.sign(x) == -np.sign(g)), 0.0, g)
        assert np.max(np.abs(pg)) <= _GRAD_TOL
        assert info.evaluations == len(evaluated)
        assert len(evaluated) <= 1.5 * info.iterations
        assert max(np.max(np.abs(p)) for p in evaluated) <= bound

    def test_nan_trial_fails_sufficient_decrease(self):
        # f is NaN outside |x_i| <= 2, where its minimum (3, 3) lies; a NaN
        # trial must shrink the step rather than be accepted
        def vag(x):
            if np.any(np.abs(x) > 2.0):
                return float("nan"), np.full_like(x, np.nan)
            return float(np.sum((x - 3.0) ** 2)), 2.0 * (x - 3.0)

        x, _ = bfgs_minimize(vag, np.zeros(2), bound=5.0, cfg=OptimizerConfig(max_iters=10))
        assert np.all(np.abs(x) <= 2.0)
        assert vag(x)[0] < vag(np.zeros(2))[0]

    def test_line_search_failure_flagged(self):
        # |x| with the hard sign gradient: each weak Wolfe step crosses or
        # nears the kink, so the iterates close in on 0 until sufficient
        # decrease fails at rounding scale; the search then gives up and the
        # run returns its best point with the failure flagged
        def f(x):
            return float(np.abs(x[0]))

        def g(x):
            return np.array([np.sign(x[0])])

        x, info = bfgs_minimize(fused(f, g), np.array([0.7]), bound=1.0, cfg=OptimizerConfig())
        assert info.line_search_failed
        assert not info.converged
        assert f(x) <= 0.7  # never worse than the start
        assert abs(x[0]) < 1e-12

    @pytest.mark.parametrize("dim", [7, 64])
    def test_update_is_bfgs_inverse_update(self, dim):
        # oracle: the product form (I - rho*s*y^T) H (I - rho*y*s^T) + rho*s*s^T
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(dim, dim))
        hmat = m @ m.T + np.eye(dim)
        hmat = (hmat + hmat.T) / 2.0
        s, y = rng.normal(size=dim), rng.normal(size=dim)
        if s @ y < 0.0:
            y = -y
        sy = float(s @ y)
        rho = 1.0 / sy
        left = np.eye(dim) - rho * np.outer(s, y)
        expected = left @ hmat @ left.T + rho * np.outer(s, s)
        _bfgs_update(hmat, s, y, sy, np.empty((dim, dim)))
        assert np.max(np.abs(hmat - expected)) <= 1e-12 * np.max(np.abs(expected))
        # secant equation H_new y = s
        assert np.max(np.abs(hmat @ y - s)) <= 1e-10 * np.max(np.abs(s))
        assert np.max(np.abs(hmat - hmat.T)) <= 1e-14 * np.max(np.abs(hmat))

    def test_run_allocates_one_scratch_matrix(self, monkeypatch):
        # a convex quadratic at dim 512: the run's memory peak is H and the
        # update's scratch, not a fresh (dim, dim) array per iteration
        dim = 512
        rng = np.random.default_rng(0)
        diag = np.linspace(1.0, 100.0, dim)
        c = rng.normal(size=dim)

        def vag(x):
            d = x - c
            return float(0.5 * d @ (diag * d)), diag * d

        x0 = np.zeros(dim)
        monkeypatch.setattr("spinctrl.optimizer._GRAD_TOL", 1e-12)
        cfg = OptimizerConfig(max_iters=30)
        tracemalloc.start()
        try:
            _, info = bfgs_minimize(vag, x0, 1e3, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.iterations == 30
        assert peak < 2.5 * dim * dim * 8

    def test_lost_descent_resets_to_steepest_descent(self, monkeypatch):
        # a positive definite H cannot lose descent in exact arithmetic, so
        # the reset is reached by negating H after every update; the run must
        # still converge on a convex quadratic instead of failing its line search
        real_update = _bfgs_update

        def negating_update(hmat, *args):
            real_update(hmat, *args)
            np.negative(hmat, out=hmat)

        monkeypatch.setattr("spinctrl.optimizer._bfgs_update", negating_update)
        vag = convex_quadratic(6, 3)
        x, info = bfgs_minimize(vag, np.zeros(6), 100.0, OptimizerConfig())
        assert info.converged
        assert not info.line_search_failed
        assert np.max(np.abs(vag(x)[1])) <= _GRAD_TOL

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(seed=-1)
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=2.5)


def convex_quadratic(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    a = m @ m.T + np.eye(dim)
    c = rng.normal(size=dim)
    return lambda x: (float(0.5 * (x - c) @ a @ (x - c)), a @ (x - c))


def double_well(x):
    # non-convex in 1-D: minima near -1.3 and 1.1, a maximum near 0.2
    t = x[0]
    return float(t**4 - 3.0 * t**2 + t), np.array([4.0 * t**3 - 6.0 * t + 1.0])


class TestWolfeSearch:
    # (objective, start, direction scale, a_max): the steepest-descent
    # direction scaled so the first trial of 1 is too long, too short, or
    # beyond the cap
    CASES = {
        "quadratic_long": (convex_quadratic(5, 0), np.zeros(5), 1.0, np.inf),
        "quadratic_short": (convex_quadratic(5, 1), np.zeros(5), 1e-3, np.inf),
        "quadratic_capped": (convex_quadratic(5, 2), np.zeros(5), 1e-3, 0.5),
        "double_well_long": (double_well, np.array([2.0]), 1.0, np.inf),
        "double_well_short": (double_well, np.array([-0.3]), 1e-2, np.inf),
        "double_well_capped": (double_well, np.array([0.5]), 0.05, 0.4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_step_satisfies_weak_wolfe_or_sits_at_cap(self, case):
        vag, x0, scale, a_max = self.CASES[case]
        f0, g0 = vag(x0)
        p = -scale * g0
        d0 = float(g0 @ p)
        steps = []

        def point(a):
            steps.append(a)
            return x0 + a * p

        result = _wolfe_search(vag, point, p, f0, g0, a_max)
        assert result is not None
        x, f, g = result
        a = steps[-1]
        assert np.array_equal(x, x0 + a * p)
        assert 0.0 < a <= a_max
        assert f <= f0 + _WOLFE_C1 * a * d0
        assert float(g @ p) >= _WOLFE_C2 * d0 or (a == a_max and float(g @ p) < 0.0)
        if case.endswith("capped"):
            assert a == a_max
            assert float(g @ p) < _WOLFE_C2 * d0

    def test_gives_up_within_the_trial_cap(self):
        # a wrong-signed gradient: no step along p decreases f
        def vag(x):
            return float(x[0] ** 2), np.array([-2.0 * x[0]])

        x0 = np.array([1.0])
        f0, g0 = vag(x0)
        calls = []

        def counted(x):
            calls.append(x)
            return vag(x)

        p = -g0
        assert _wolfe_search(counted, lambda a: x0 + a * p, p, f0, g0, np.inf) is None
        assert 0 < len(calls) <= _MAX_LINE_SEARCH_TRIALS


@pytest.mark.parametrize("kind,n_sites,mu", [("NOT", 3, 0.2), ("SWAP", 3, 0.2), ("SWAP", 4, 0.4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_mirrored_start_ends_at_same_functional(kind, n_sites, mu, seed):
    # The drift and the NOT and SWAP targets are real, so hy -> -hy maps U to
    # conj(U) and leaves F, P and the functional unchanged. A run started from
    # the mirrored x0 takes the mirrored path up to rounding, which can move
    # its iteration count, so it ends at the same G but not at the same bits.
    spec, target, n, dt, bound = ChainSpec(n_sites), TargetGate(kind, n_sites), 16, 0.2, 50.0
    po = PulseObjective(spec, target, ControlSequence.zeros(n, dt, bound), ObjectiveConfig(mu=mu))
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 2 * n)
    ends = []
    for start in (x0, np.r_[x0[:n], -x0[n:]]):
        x, info = bfgs_minimize(po.value_and_grad, start, bound, OptimizerConfig())
        assert info.converged
        seq = ControlSequence.from_vector(x, dt, bound)
        fid = fidelity(target_unitary(target), propagate(spec, seq))
        ends.append((1.0 - mu) * penalty(seq) - mu * fid)
    assert abs(ends[0] - ends[1]) < 1e-7


class TestOptimizeControls:
    def test_single_qubit_not_gate(self):
        # Drift-free single qubit: the optimum is a rotation about an axis in
        # the x-y plane whose area theta trades fidelity sin(theta) against
        # the penalty theta/(2*n*b*dt), so cos(theta*) = (1-mu)/(mu*2*n*b*dt).
        n, dt, b, mu = 4, 0.2, 50.0, 0.5
        theta_star = np.arccos((1 - mu) / (mu * 2 * n * b * dt))
        f_star = np.sin(theta_star)
        assert f_star > 0.9999  # sanity of the analytic oracle itself

        spec = ChainSpec(n_sites=1)
        target = TargetGate("NOT", 1)
        tmpl = ControlSequence.zeros(n, dt, b)
        cfg = ObjectiveConfig(mu=mu, surrogate="fermi_dirac")
        res = optimize_controls(spec, target, tmpl, cfg, OptimizerConfig(seed=5, restarts=2))
        assert res.fidelity > 0.9999
        assert abs(res.fidelity - f_star) < 1e-5
        # the realized pulse area matches the analytic optimum
        area = dt * np.linalg.norm(
            [np.sum(np.abs(res.best_seq.hx)), np.sum(np.abs(res.best_seq.hy))]
        )
        assert abs(area - theta_star) < 5e-3

    def test_reported_triple_consistent(self):
        spec = ChainSpec(n_sites=2)
        target = TargetGate("NOT", 2)
        tmpl = ControlSequence.zeros(6, 0.2, 10.0)
        cfg = ObjectiveConfig(mu=0.3, surrogate="fermi_dirac")
        res = optimize_controls(spec, target, tmpl, cfg, OptimizerConfig(seed=2, restarts=2))
        assert abs(res.G - ((1 - 0.3) * res.penalty - 0.3 * res.fidelity)) < 1e-12

    # At b=2 and mu=0.9 the best pulses sit on the bound.
    @pytest.mark.parametrize(
        "seed,bound,mu", [(1, 10.0, 0.2), (2, 10.0, 0.2), (3, 2.0, 0.9), (4, 2.0, 0.9)]
    )
    def test_reported_metrics_are_those_of_best_seq(self, seed, bound, mu):
        spec = ChainSpec(n_sites=3)
        target = TargetGate("NOT", 3)
        tmpl = ControlSequence.zeros(8, 0.2, bound)
        cfg = ObjectiveConfig(mu=mu, surrogate="fermi_dirac")
        opt = OptimizerConfig(max_iters=100, restarts=2, seed=seed)
        res = optimize_controls(spec, target, tmpl, cfg, opt)
        if bound == 2.0:
            assert np.any(np.abs(res.best_seq.pulse_vector()) == bound)
        assert res.fidelity == fidelity(target_unitary(target), propagate(spec, res.best_seq))
        assert res.penalty == penalty(res.best_seq)

    def test_feasible_within_bound(self):
        spec = ChainSpec(n_sites=2)
        target = TargetGate("SWAP", 2)
        tmpl = ControlSequence.zeros(6, 0.2, 2.0)
        cfg = ObjectiveConfig(mu=0.6, surrogate="fermi_dirac")
        res = optimize_controls(spec, target, tmpl, cfg, OptimizerConfig(seed=3, restarts=3))
        assert np.max(np.abs(res.best_seq.pulse_vector())) <= 2.0
        assert 0 <= res.restart_index < 3

    def test_deterministic(self):
        spec = ChainSpec(n_sites=1)
        target = TargetGate("NOT", 1)
        tmpl = ControlSequence.zeros(4, 0.2, 10.0)
        cfg = ObjectiveConfig(mu=0.5, surrogate="fermi_dirac")
        opt = OptimizerConfig(seed=7, restarts=3)
        a = optimize_controls(spec, target, tmpl, cfg, opt)
        b = optimize_controls(spec, target, tmpl, cfg, opt)
        assert np.array_equal(a.best_seq.hx, b.best_seq.hx)
        assert np.array_equal(a.best_seq.hy, b.best_seq.hy)
        assert a.fidelity == b.fidelity
        assert a.penalty == b.penalty
        assert a.G == b.G
        assert a.iterations_used == b.iterations_used
        assert a.restart_index == b.restart_index

    def test_evaluations_counted(self):
        # the reported restart's objective evaluations: the start point plus at
        # least one per iteration, and the same count on a rerun of the seed
        spec = ChainSpec(n_sites=3)
        target = TargetGate("NOT", 3)
        tmpl = ControlSequence.zeros(8, 0.2, 10.0)
        cfg = ObjectiveConfig(mu=0.2, surrogate="fermi_dirac")
        opt = OptimizerConfig(max_iters=100, restarts=2, seed=1)
        a = optimize_controls(spec, target, tmpl, cfg, opt)
        b = optimize_controls(spec, target, tmpl, cfg, opt)
        assert a.evaluations >= a.iterations_used + 1
        assert a.evaluations == b.evaluations

    def test_bound_below_init_amplitude(self):
        # restarts start inside +-min(0.5, b), so a bound of 0.2 is usable:
        # the pulses stay in the box and repeat bit for bit on a rerun
        args = (
            ChainSpec(n_sites=1),
            TargetGate("NOT", 1),
            ControlSequence.zeros(4, 0.2, 0.2),
            ObjectiveConfig(mu=0.5),
            OptimizerConfig(restarts=2, seed=3),
        )
        a = optimize_controls(*args)
        b = optimize_controls(*args)
        x = a.best_seq.pulse_vector()
        assert np.max(np.abs(x)) <= 0.2
        assert np.array_equal(x, b.best_seq.pulse_vector())
        assert a.G == b.G

    @pytest.mark.parametrize("case", PHASE_OVERFLOW + SCALE_OVERFLOW, ids="-".join)
    def test_overflowing_scale_raises_before_optimizing(self, case, monkeypatch):
        # The inputs on which the CLI exits 2: the library rejects them too,
        # before the first BFGS run.
        monkeypatch.setattr("spinctrl.optimizer.bfgs_minimize", None)
        seq, cfg = experiment(case, 2)
        with pytest.raises(ValueError, match="not finite"):
            optimize_controls(*NOT3, seq, cfg, OptimizerConfig(restarts=1))

    @pytest.mark.parametrize(
        "case", list(LARGE_BUT_FINITE.values()), ids=list(LARGE_BUT_FINITE)
    )
    def test_large_but_finite_scales_optimize(self, case):
        # The library twin of the CLI's large-but-finite runs: the checks admit
        # them, and the run raises no overflow warning (an error under pytest).
        seq, cfg = experiment(case, 4)
        res = optimize_controls(*NOT3, seq, cfg, OptimizerConfig(restarts=1))
        assert np.isfinite(res.G)
