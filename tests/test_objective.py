import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import SX, dense_value_and_grad
from mp_reference import DPS, mp_trace
from spinctrl.model import ChainSpec, ControlSequence, TargetGate, propagate, target_unitary
from spinctrl.objective import (
    SURROGATES,
    ObjectiveConfig,
    PulseObjective,
    fidelity,
    penalty,
    surrogate_abs,
)
from spinctrl.optimizer import OptimizerConfig, bfgs_minimize


def haar_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def value_and_grad(spec, seq, target, cfg):
    """The minimized functional and its gradient at ``seq``."""
    po = PulseObjective(spec, target, seq, cfg)
    return po.value_and_grad(seq.pulse_vector())


def pi_half_x_sequence(n=4, dt=0.2, bound=10.0):
    """Pulses realizing exp(-i*(pi/2)*sx) exactly on a single drift-free qubit."""
    amp = np.pi / (2 * n * dt)
    return ControlSequence(hx=np.full(n, amp), hy=np.zeros(n), dt=dt, bound=bound)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(mu=1.5)
        with pytest.raises(ValueError):
            ObjectiveConfig(mu=0.5, surrogate="soft")
        with pytest.raises(ValueError):
            ObjectiveConfig(mu=0.5, alpha=1.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(mu=0.5, kT=0.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(mu=0.5, kT=float("nan"))

    @pytest.mark.parametrize(
        "kwargs",
        [{"mu": "0.2"}, {"mu": None}, {"mu": 0.5, "alpha": None}, {"mu": 0.5, "alpha": "0.5"},
         {"mu": 0.5, "kT": "x"}, {"mu": 0.5, "kT": None}, {"mu": True}, {"mu": False},
         {"mu": 0.5, "kT": True}],
        ids=["mu_str", "mu_none", "alpha_none", "alpha_str", "kT_str", "kT_none", "mu_true",
             "mu_false", "kT_true"],
    )
    def test_non_numeric_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObjectiveConfig(**kwargs)

    def test_check_scales(self):
        # (n, dt, bound, kT): the gradient scale 2n(dt + 1/(n min(bound, 1)))^2,
        # bound/(2kT) and 2kT must be finite; a numpy kT overflows without a warning
        ObjectiveConfig(mu=0.5, kT=1e-300).check_scales(ControlSequence.zeros(4, 1e153, 50.0))
        for n, dt, bound, kT in [
            (2, 1e300, 50.0, 0.01),
            (2, 0.2, 1e-300, 0.01),
            (2, 0.2, 50.0, np.float64(1e-308)),
            (2, 0.2, 50.0, 1e308),
        ]:
            with pytest.raises(ValueError, match="not finite"):
                ObjectiveConfig(mu=0.5, kT=kT).check_scales(ControlSequence.zeros(n, dt, bound))

    @pytest.mark.parametrize("n", [0, True])
    def test_slice_count_checked(self, n):
        # a PulseObjective reads n from its template, whose construction checks it
        with pytest.raises(ValueError, match="n must be"):
            ControlSequence.zeros(n, 0.2, 10.0)

    @pytest.mark.parametrize(
        "dt,bound,match",
        [(0.0, 10.0, "dt"), (-0.2, 10.0, "dt"), (float("nan"), 10.0, "dt"),
         (0.2, 0.0, "bound"), (0.2, -1.0, "bound"), (0.2, float("inf"), "bound"),
         ("0.2", 10.0, "dt"), (None, 10.0, "dt"), (0.2, "10", "bound")],
    )
    def test_duration_and_bound_checked(self, dt, bound, match):
        # each used to be accepted and evaluated, or to end in ZeroDivisionError; a
        # PulseObjective reads dt and bound from its template, whose construction checks them
        with pytest.raises(ValueError, match=f"{match} must be a finite real number"):
            ControlSequence.zeros(4, dt, bound)

    def test_env_chain_rejected(self):
        with pytest.raises(ValueError):
            PulseObjective(
                ChainSpec(n_sites=2, env_enabled=True), TargetGate("NOT", 2),
                ControlSequence.zeros(4, 0.2, 10.0), ObjectiveConfig(mu=0.5),
            )

    @pytest.mark.parametrize(
        "target,x",
        [
            pytest.param(TargetGate("NOT", 3), np.zeros(8), id="target_of_3_sites"),
            pytest.param(TargetGate("NOT", 2), np.zeros(9), id="odd_vector"),
            pytest.param(TargetGate("NOT", 2), np.zeros(6), id="short_vector"),
        ],
    )
    def test_mismatched_inputs_rejected(self, target, x):
        with pytest.raises(ValueError):
            po = PulseObjective(
                ChainSpec(n_sites=2), target, ControlSequence.zeros(4, 0.2, 10.0),
                ObjectiveConfig(mu=0.5),
            )
            po.value_and_grad(x)


class TestFidelity:
    def test_self_is_one(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(rng, 8)
        assert np.isclose(fidelity(u, u), 1.0)

    @settings(max_examples=25)
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    def test_global_phase_invariance(self, phi):
        rng = np.random.default_rng(4)
        u = haar_unitary(rng, 4)
        assert np.isclose(fidelity(u, np.exp(1j * phi) * u), 1.0)

    def test_orthogonal_gates(self):
        assert fidelity(np.eye(2), SX) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2), np.eye(4))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u, v = haar_unitary(rng, 8), haar_unitary(rng, 8)
            f = fidelity(u, v)
            assert 0.0 <= f <= 1.0
            assert np.isclose(f, fidelity(v, u))


class TestPenalty:
    def test_zero_pulses(self):
        assert penalty(ControlSequence.zeros(4, 0.2, 10.0)) == 0.0

    def test_saturated_pulses(self):
        b = 7.0
        seq = ControlSequence(hx=np.full(3, b), hy=np.full(3, -b), dt=0.2, bound=b)
        assert np.isclose(penalty(seq), 1.0)

    def test_single_pulse_value(self):
        b = 10.0
        seq = ControlSequence(hx=[b, 0.0, 0.0, 0.0], hy=np.zeros(4), dt=0.2, bound=b)
        assert np.isclose(penalty(seq), 1.0 / 8.0)

    @settings(max_examples=30)
    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_absolutely_homogeneous(self, c):
        seq = ControlSequence(hx=[1.0, -2.0], hy=[0.5, 0.0], dt=0.2, bound=10.0)
        scaled = ControlSequence(hx=c * seq.hx, hy=c * seq.hy, dt=0.2, bound=10.0)
        assert np.isclose(penalty(scaled), abs(c) * penalty(seq))


class TestObjectiveValue:
    def test_mu_one_is_minus_fidelity(self):
        rng = np.random.default_rng(12)
        spec = ChainSpec(n_sites=2)
        target = TargetGate("NOT", 2)
        seq = ControlSequence(
            hx=rng.uniform(-1, 1, 4), hy=rng.uniform(-1, 1, 4), dt=0.2, bound=10.0
        )
        cfg = ObjectiveConfig(mu=1.0)
        f = fidelity(target_unitary(target), propagate(spec, seq))
        assert np.isclose(value_and_grad(spec, seq, target, cfg)[0], -f)

    def test_mu_zero_zero_pulses(self):
        spec = ChainSpec(n_sites=2)
        cfg = ObjectiveConfig(mu=0.0)
        seq = ControlSequence.zeros(4, 0.2, 10.0)
        assert value_and_grad(spec, seq, TargetGate("NOT", 2), cfg)[0] == 0.0

    def test_exact_single_qubit_solution(self):
        # analytic pulse achieving sigma_x exactly on one qubit (no drift)
        spec = ChainSpec(n_sites=1)
        target = TargetGate("NOT", 1)
        seq = pi_half_x_sequence()
        # under signum the minimized functional is the reported one
        cfg = ObjectiveConfig(mu=0.2, surrogate="signum")
        expected = 0.8 * penalty(seq) - 0.2 * 1.0
        assert np.isclose(value_and_grad(spec, seq, target, cfg)[0], expected, atol=1e-12)


def slope(x, cfg):
    """The configured stand-in for d|x|/dx."""
    return surrogate_abs(x, cfg)[1]


class TestSurrogates:
    def test_signum_values(self):
        cfg = ObjectiveConfig(mu=0.5, surrogate="signum")
        assert slope(3.7, cfg) == 1.0
        assert slope(0.0, cfg) == 0.0
        assert slope(-0.2, cfg) == -1.0

    def test_fermi_dirac_at_zero(self):
        cfg = ObjectiveConfig(mu=0.5, surrogate="fermi_dirac")
        assert slope(0.0, cfg) == 0.0

    def test_fermi_dirac_matches_distribution_form(self):
        # 2*(0.5 - 1/(exp(x/kT)+1)) written without tanh
        cfg = ObjectiveConfig(mu=0.5, surrogate="fermi_dirac", kT=0.03)
        for x in (-0.1, -0.01, 0.004, 0.08):
            direct = 2.0 * (0.5 - 1.0 / (np.exp(x / 0.03) + 1.0))
            assert np.isclose(slope(x, cfg), direct, atol=1e-14)

    def test_fractional_at_one(self):
        # oracle: gamma-function evaluation, Gamma(2)/Gamma(2-alpha) at alpha=0.99
        cfg = ObjectiveConfig(mu=0.5, surrogate="fractional", alpha=0.99)
        expected = scipy.special.gamma(2.0) / scipy.special.gamma(1.01)
        got = slope(1.0, cfg)
        assert np.isclose(got, expected, rtol=1e-12)
        assert np.isclose(got, 1.0058, atol=5e-4)

    @settings(max_examples=50)
    @given(
        st.sampled_from(["signum", "fractional", "fermi_dirac"]),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_odd_and_bounded(self, surrogate, x):
        cfg = ObjectiveConfig(mu=0.5, surrogate=surrogate)
        v = slope(x, cfg)
        assert np.isclose(v, -slope(-x, cfg), atol=1e-12)
        # the fractional form slightly overshoots 1 near |x|=1 at alpha=0.99
        bound = 1.0 if surrogate != "fractional" else 1.0 / math.gamma(2.0 - cfg.alpha)
        assert abs(v) <= bound + 1e-12

    def test_signum_close_to_fermi_dirac_away_from_zero(self):
        cfg = ObjectiveConfig(mu=0.5, surrogate="fermi_dirac")
        for x in (0.11, -0.2, 0.5, -3.0):
            assert abs(np.sign(x) - slope(x, cfg)) < 0.01

    @settings(max_examples=40)
    @given(
        st.sampled_from(["signum", "fractional", "fermi_dirac"]),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_smoothed_abs_is_antiderivative(self, surrogate, x):
        # finite differences of the smoothed |x| recover the surrogate
        cfg = ObjectiveConfig(mu=0.5, surrogate=surrogate)
        h = 1e-6
        if surrogate != "fermi_dirac" and abs(x) < 1e-3:
            return  # sign/fractional derivative is not smooth across zero
        fd = (surrogate_abs(x + h, cfg)[0] - surrogate_abs(x - h, cfg)[0]) / (2 * h)
        assert np.isclose(fd, slope(x, cfg), atol=1e-5)


def central_difference(po, x, step=1e-6):
    fd = np.zeros(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fd[i] = (po.value_and_grad(xp)[0] - po.value_and_grad(xm)[0]) / (2 * step)
    return fd


@st.composite
def objective_cases(draw):
    """A chain, a target on it and a pulse vector, edge amplitudes included."""
    n_sites = draw(st.integers(1, 4))
    kind = "NOT" if n_sites == 1 else draw(st.sampled_from(["NOT", "SWAP"]))
    spec = ChainSpec(n_sites=n_sites)
    amplitude = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0]), st.floats(-3.0, 3.0))
    n = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(amplitude, min_size=2 * n, max_size=2 * n)))
    return spec, TargetGate(kind, n_sites), x


class TestGradient:
    @settings(max_examples=40, deadline=None)
    @given(objective_cases(), st.sampled_from(SURROGATES))
    # A nearly singular overlap, |z| = 3.9e-9: two correct gradients differ
    # here by 1e-10 to 7e-10.
    @example(
        (ChainSpec(n_sites=2), TargetGate("NOT", 2), np.array([0.0, 0.0, 1e-8, 0.0, 0.0, 0.0])),
        "signum",
    )
    # Single-axis fields (phi = 0, pi/2, pi, -pi/2) and fields of exactly 0.0
    # and -0.0, where phi is taken as 0: the control contraction reads phi
    # through cos(phi) and sin(phi).
    @example(
        (
            ChainSpec(n_sites=4),
            TargetGate("SWAP", 4),
            np.array([1.3, 0.0, -0.7, 0.0, 0.0, -0.0, 0.0, 0.9, 0.0, -1.1, 0.0, -0.0]),
        ),
        "fermi_dirac",
    )
    @example(
        (
            ChainSpec(n_sites=4),
            TargetGate("SWAP", 4),
            np.array([-0.0, 2.0, 0.0, -1.5, 0.0, -0.0, -0.0, -0.0]),
        ),
        "signum",
    )
    def test_matches_dense_reference(self, case, surrogate):
        spec, target, x = case
        cfg = ObjectiveConfig(mu=0.4, surrogate=surrogate)
        po = PulseObjective(spec, target, ControlSequence.zeros(x.size // 2, 0.2, 10.0), cfg)
        value, grad = po.value_and_grad(x)
        ref_value, ref_grad = dense_value_and_grad(spec, target, 0.2, 10.0, cfg, x)
        assert abs(value - ref_value) < 1e-12
        # The gradient follows the phase of z = Tr(U_T^dag U), which float64
        # fixes only to about 1e-16/|z| rad; the bound is 1e-12 for |z| >= 1e-5
        # and at z = 0, where both sides drop the fidelity term.
        u = propagate(spec, ControlSequence.from_vector(x, 0.2, 10.0))
        z = abs(np.trace(target_unitary(target).conj().T @ u))
        tol = max(1e-12, 1e-17 / z) if z > 0.0 else 1e-12
        assert np.max(np.abs(grad - ref_grad)) < tol

    def test_mu_zero_is_pure_penalty_gradient(self):
        rng = np.random.default_rng(21)
        spec = ChainSpec(n_sites=2)
        seq = ControlSequence(
            hx=rng.uniform(-1, 1, 3), hy=rng.uniform(-1, 1, 3), dt=0.2, bound=10.0
        )
        cfg = ObjectiveConfig(mu=0.0, surrogate="fermi_dirac")
        grad = value_and_grad(spec, seq, TargetGate("NOT", 2), cfg)[1]
        expected = slope(seq.pulse_vector(), cfg) / (2 * 3 * 10.0)
        assert np.allclose(grad, expected, atol=1e-14)

    @pytest.mark.parametrize("surrogate", ["fermi_dirac", "fractional"])
    def test_matches_finite_differences(self, surrogate):
        rng = np.random.default_rng(33)
        spec = ChainSpec(n_sites=2)
        target = TargetGate("NOT", 2)
        cfg = ObjectiveConfig(mu=0.35, surrogate=surrogate)
        po = PulseObjective(spec, target, ControlSequence.zeros(4, 0.2, 10.0), cfg)
        x = rng.uniform(-1.0, 1.0, 8)
        _, grad = po.value_and_grad(x)
        fd = central_difference(po, x)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() < 1e-5

    def test_fidelity_gradient_vanishes_at_optimum(self):
        # analytically constructed single-qubit optimum: F = 1 is stationary
        spec = ChainSpec(n_sites=1)
        target = TargetGate("NOT", 1)
        cfg = ObjectiveConfig(mu=1.0, surrogate="fermi_dirac")
        seq = pi_half_x_sequence()
        grad = value_and_grad(spec, seq, target, cfg)[1]
        assert np.max(np.abs(grad)) < 1e-7
        po = PulseObjective(spec, target, seq, cfg)
        fd = central_difference(po, seq.pulse_vector())
        assert np.max(np.abs(fd)) < 1e-7

    def test_singular_overlap_contributes_zero(self):
        # zero pulses against NOT: Tr(U_T^dag U) = 0, so only the penalty
        # term survives (and it is zero at the origin for every surrogate)
        spec = ChainSpec(n_sites=1)
        cfg = ObjectiveConfig(mu=0.7, surrogate="fermi_dirac")
        seq = ControlSequence.zeros(3, 0.2, 10.0)
        grad = value_and_grad(spec, seq, TargetGate("NOT", 1), cfg)[1]
        assert np.all(np.isfinite(grad))
        assert np.allclose(grad, 0.0)

    def test_reported_and_surrogate_values_coincide_for_signum(self):
        rng = np.random.default_rng(44)
        spec = ChainSpec(n_sites=2)
        target = TargetGate("SWAP", 2)
        seq = ControlSequence(
            hx=rng.uniform(-2, 2, 4), hy=rng.uniform(-2, 2, 4), dt=0.2, bound=10.0
        )
        cfg = ObjectiveConfig(mu=0.4, surrogate="signum")
        f = fidelity(target_unitary(target), propagate(spec, seq))
        reported = 0.6 * penalty(seq) - 0.4 * f
        assert np.isclose(value_and_grad(spec, seq, target, cfg)[0], reported, atol=1e-14)
        smoothed = np.sum(surrogate_abs(seq.pulse_vector(), cfg)[0]) / (2 * seq.n * seq.bound)
        assert np.isclose(penalty(seq), smoothed, atol=1e-14)


# Pulses of the 40-digit gradient check: N_ORACLE slices of duration 0.2 in
# the box |h| <= 2, differenced at the step ORACLE_STEP.
N_ORACLE, ORACLE_STEP = 3, 2.0**-30


@functools.cache
def oracle_traces(n_sites):
    """Pulses x, on the grid of ORACLE_STEP and at least 0.25 from 0, the
    40-digit Tr(U_T^dag U) at x, and the same at x + h*e_k and x - h*e_k for
    each k, h the step."""
    rng = np.random.default_rng(60 + n_sites)
    signs = rng.choice([-1.0, 1.0], 2 * N_ORACLE)
    x = np.round(signs * rng.uniform(0.25, 1.5, 2 * N_ORACLE) / ORACLE_STEP) * ORACLE_STEP
    spec, ut_dag = ChainSpec(n_sites), target_unitary(TargetGate("NOT", n_sites)).conj().T

    def trace(v):
        return mp_trace(spec, ControlSequence.from_vector(v, 0.2, 2.0), ut_dag)

    steps = ORACLE_STEP * np.eye(x.size)
    return x, trace(x), [(trace(x + e), trace(x - e)) for e in steps]


def mp_smoothed_abs(t, cfg):
    """The smoothed |t| of ``surrogate_abs`` at the current mpmath precision."""
    if cfg.surrogate == "signum":
        return abs(t)
    if cfg.surrogate == "fractional":
        p = 2 - mpmath.mpf(cfg.alpha)
        return abs(t) ** p / (p * mpmath.gamma(p))
    two_kt = 2 * mpmath.mpf(cfg.kT)
    return two_kt * mpmath.log(mpmath.cosh(t / two_kt))


class TestGradientOracle:
    """The value of ``value_and_grad`` against the 40-digit functional, its
    fidelity from ``mp_trace``, and its gradient against 40-digit central
    differences. x ± h are exact floats, and the signum surrogate's |x| is
    smooth near x, so the differences err by about h^2/6 ~ 1e-19. The largest
    errors measured are 8.3e-17 in the value (bound 1e-15) and 2.5e-16 in the
    gradient (bound 5e-15). A relative error of 1e-10 in the fidelity term of
    the value fails every case; one in the sinc argument of
    ``SliceKernel.trace_gradient`` gives gradient errors of 4.4e-14 to 3.0e-13
    and fails every case, which no other test does."""

    @pytest.mark.parametrize("surrogate", SURROGATES)
    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_matches_40_digit_oracle(self, n_sites, surrogate):
        x, z, traces = oracle_traces(n_sites)
        cfg = ObjectiveConfig(mu=0.5, surrogate=surrogate)
        po = PulseObjective(ChainSpec(n_sites), TargetGate("NOT", n_sites),
                            ControlSequence.zeros(N_ORACLE, 0.2, 2.0), cfg)
        value, grad = po.value_and_grad(x)
        with mpmath.workdps(DPS):

            def functional(v, z):
                pen = mpmath.fsum(mp_smoothed_abs(mpmath.mpf(t), cfg) for t in v.tolist())
                return (1 - cfg.mu) * pen / (2 * N_ORACLE * 2.0) - cfg.mu * abs(z) / 2**n_sites

            steps = ORACLE_STEP * np.eye(x.size)
            expected = np.array([
                float((functional(x + e, z_plus) - functional(x - e, z_minus)) / (2 * ORACLE_STEP))
                for e, (z_plus, z_minus) in zip(steps, traces)
            ])
            assert abs(value - float(functional(x, z))) < 1e-15
        assert np.max(np.abs(grad - expected)) < 5e-15


class TestReuse:
    """An objective keeps its arrays across evaluations; every result must
    equal a fresh objective's at the same point, bit for bit."""

    @pytest.mark.parametrize("n_sites, kind, n", [(3, "NOT", 64), (4, "SWAP", 32)])
    def test_matches_fresh_objective(self, n_sites, kind, n):
        spec, target = ChainSpec(n_sites=n_sites), TargetGate(kind, n_sites)
        cfg = ObjectiveConfig(mu=0.4)

        def objective():
            return PulseObjective(spec, target, ControlSequence.zeros(n, 0.2, 10.0), cfg)

        x1, x2 = np.random.default_rng(n_sites).uniform(-1.0, 1.0, (2, 2 * n))
        po = objective()
        results = [(x, po.value_and_grad(x)) for x in (x1, x2, x1)]
        kept = [grad.copy() for _, (_, grad) in results]
        # a restart's worth of evaluations at other points
        _, info = bfgs_minimize(po.value_and_grad, x2, 10.0, OptimizerConfig(max_iters=150))
        assert info.evaluations > 100
        results.append((x2, po.value_and_grad(x2)))
        for x, (value, grad) in results:
            ref_value, ref_grad = objective().value_and_grad(x)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
        # returned gradients are the caller's, not views of the objective's arrays
        for (_, (_, grad)), copy in zip(results, kept):
            assert np.array_equal(grad, copy)


def test_warm_evaluation_allocates_no_stack():
    # One complex (n, 16, 16) stack is 1.05 MB at N=4, n=256; a warm
    # evaluation writes into the arrays its objective owns and allocates
    # less than 1.5 MB in all (9.1 MB when every stage allocated its own).
    n = 256
    po = PulseObjective(
        ChainSpec(n_sites=4), TargetGate("SWAP", 4), ControlSequence.zeros(n, 0.2, 10.0),
        ObjectiveConfig(mu=0.4),
    )
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 2 * n)
    po.value_and_grad(x)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        po.value_and_grad(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 1.5e6
