import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import SX
from spinctrl import linalg
from spinctrl.channels import (
    ChoiMatrix,
    choi_distance,
    choi_of_env_channel,
    choi_of_unitary,
    robustness_experiment,
)
from spinctrl.model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    drift_hamiltonian,
    propagate,
    propagate_with_env,
    target_unitary,
)
from spinctrl.objective import ObjectiveConfig
from spinctrl.optimizer import OptimizerConfig, optimize_controls


def haar_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brute_force_env_choi(spec, seq):
    """Oracle: apply the dilated channel to every matrix unit via full
    conjugation with explicit Kronecker products."""
    u_ext = propagate_with_env(spec, seq)
    n = spec.dim
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            image = linalg.partial_trace_last_qubit(
                u_ext @ np.kron(unit, zero) @ u_ext.conj().T
            )
            out += np.kron(image, unit) / n
    return out


@pytest.fixture(scope="module")
def optimized_not3():
    """A lightly optimized NOT gate on three qubits, reused across checks."""
    spec = ChainSpec(n_sites=3)
    target = TargetGate("NOT", 3)
    tmpl = ControlSequence.zeros(64, 0.2, 50.0)
    cfg = ObjectiveConfig(mu=0.2, surrogate="fermi_dirac")
    res = optimize_controls(spec, target, tmpl, cfg, OptimizerConfig(seed=0, restarts=1))
    assert res.fidelity > 0.99
    return res.best_seq


class TestChoiOfUnitary:
    def test_identity_channel(self):
        choi = choi_of_unitary(np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i * 2 + i, j * 2 + j] = 0.5
        assert np.allclose(choi.matrix, expected)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_unit_trace(self, dim):
        rng = np.random.default_rng(dim)
        choi = choi_of_unitary(haar_unitary(rng, dim))
        assert np.isclose(np.trace(choi.matrix), 1.0, atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(50)
        choi = choi_of_unitary(haar_unitary(rng, 4))
        evals = np.sort(np.linalg.eigvalsh(choi.matrix))
        assert np.isclose(evals[-1], 1.0, atol=1e-10)
        assert np.max(np.abs(evals[:-1])) < 1e-10

    def test_orthogonal_channels_at_max_distance(self):
        d = choi_distance(choi_of_unitary(np.eye(2)), choi_of_unitary(SX))
        assert np.isclose(d, 2.0, atol=1e-9)

    def test_global_phase_invariant(self):
        rng = np.random.default_rng(51)
        u = haar_unitary(rng, 4)
        a = choi_of_unitary(u)
        b = choi_of_unitary(np.exp(1j * 0.83) * u)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            choi_of_unitary(np.ones((2, 2)))


class TestChoiMatrixValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ChoiMatrix(system_dim=2, factor=np.full((3, 1), 1 / np.sqrt(3)))

    def test_rejects_traceless(self):
        with pytest.raises(ValueError):
            ChoiMatrix(system_dim=2, factor=np.zeros((4, 2)))

    def test_matrix_of_unit_factor_is_hermitian_psd(self):
        rng = np.random.default_rng(59)
        f = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        m = ChoiMatrix(system_dim=4, factor=f / np.linalg.norm(f)).matrix
        assert m.shape == (16, 16)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
        assert np.isclose(np.trace(m), 1.0, atol=1e-12)


class TestChoiOfEnvChannel:
    def test_gamma_zero_reduces_to_unitary_channel(self):
        rng = np.random.default_rng(61)
        seq = ControlSequence(
            hx=rng.uniform(-1, 1, 5), hy=rng.uniform(-1, 1, 5), dt=0.2, bound=10.0
        )
        env_spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.0)
        a = choi_of_env_channel(env_spec, seq)
        b = choi_of_unitary(propagate(ChainSpec(n_sites=2), seq))
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10

    def test_zero_pulses_reduce_to_drift_channel(self):
        env_spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.3)
        seq = ControlSequence.zeros(4, 0.2, 10.0)
        a = choi_of_env_channel(env_spec, seq)
        drift_u = scipy.linalg.expm(-1j * 4 * 0.2 * drift_hamiltonian(ChainSpec(n_sites=2)))
        b = choi_of_unitary(drift_u)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10

    def test_matches_brute_force_dilation(self):
        rng = np.random.default_rng(67)
        env_spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.1)
        seq = ControlSequence(
            hx=rng.uniform(-2, 2, 6), hy=rng.uniform(-2, 2, 6), dt=0.2, bound=10.0
        )
        choi = choi_of_env_channel(env_spec, seq)
        assert np.max(np.abs(choi.matrix - brute_force_env_choi(env_spec, seq))) < 1e-12
        # the ChoiMatrix constructor already enforced Hermitian/PSD/trace-1

    def test_requires_env(self):
        with pytest.raises(ValueError):
            choi_of_env_channel(ChainSpec(n_sites=2), ControlSequence.zeros(2, 0.2, 10.0))


class TestChoiDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(71)
        choi = choi_of_unitary(haar_unitary(rng, 4))
        assert choi_distance(choi, choi) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(73)
        a = choi_of_unitary(haar_unitary(rng, 4))
        b = choi_of_unitary(haar_unitary(rng, 4))
        assert np.isclose(choi_distance(a, b), choi_distance(b, a), atol=1e-12)

    def test_dimension_mismatch(self):
        a = choi_of_unitary(np.eye(2))
        b = choi_of_unitary(np.eye(4))
        with pytest.raises(ValueError):
            choi_distance(a, b)

    def test_unitary_pair_formula(self):
        # rank-one Choi states: distance = 2*sqrt(1 - |Tr(U^dag V)/n|^2)
        rng = np.random.default_rng(79)
        for dim in (2, 4, 8):
            u, v = haar_unitary(rng, dim), haar_unitary(rng, dim)
            overlap = abs(np.trace(u.conj().T @ v)) / dim
            expected = 2.0 * np.sqrt(1.0 - overlap**2)
            got = choi_distance(choi_of_unitary(u), choi_of_unitary(v))
            assert np.isclose(got, expected, atol=1e-9)

    def test_range(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            a = choi_of_unitary(haar_unitary(rng, 4))
            b = choi_of_unitary(haar_unitary(rng, 4))
            assert 0.0 <= choi_distance(a, b) <= 2.0 + 1e-12


class TestRobustness:
    def test_distance_nondecreasing_in_gamma(self, optimized_not3):
        # empirical regression check on optimized pulses
        choi_free = choi_of_unitary(propagate(ChainSpec(n_sites=3), optimized_not3))
        dists = []
        for gamma in (0.0, 0.05, 0.1, 0.2):
            env_spec = ChainSpec(n_sites=3, env_enabled=True, gamma=gamma)
            choi_env = choi_of_env_channel(env_spec, optimized_not3)
            dists.append(choi_distance(choi_free, choi_env))
        assert dists[0] < 1e-9
        assert np.all(np.diff(dists) >= -1e-12)

    def test_fidelity_choi_distance_relation(self, optimized_not3):
        # high gate fidelity forces a small Choi distance to the target
        spec = ChainSpec(n_sites=3)
        u = propagate(spec, optimized_not3)
        target = target_unitary(TargetGate("NOT", 3))
        f = abs(np.trace(target.conj().T @ u)) / 8
        d = choi_distance(choi_of_unitary(target), choi_of_unitary(u))
        assert np.isclose(d, 2.0 * np.sqrt(1.0 - f**2), atol=1e-9)

    def test_small_experiment_decouples_at_gamma_zero(self):
        target = TargetGate("NOT", 2)
        chain = ChainSpec(n_sites=2, gamma=0.0)
        tmpl = ControlSequence.zeros(8, 0.2, 20.0)
        cfg = ObjectiveConfig(mu=0.3, surrogate="fermi_dirac")
        report = robustness_experiment(
            target, 0.3, chain, tmpl, cfg, OptimizerConfig(seed=1, restarts=1)
        )
        assert abs(report.dist_env_mu1 - report.dist_no_env_mu1) < 1e-9
        assert abs(report.dist_env_muL - report.dist_no_env_muL) < 1e-9
        for d in (
            report.dist_no_env_mu1,
            report.dist_no_env_muL,
            report.dist_env_mu1,
            report.dist_env_muL,
        ):
            assert 0.0 <= d <= 2.0


class TestChoiInvariants:
    """Properties of the factored Choi states, checked on their dense matrices."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.sampled_from([0.0, 0.05, 0.3]),
        # (slice, repeats): exact zeros and repeated slices make runs of equal slices
        st.lists(
            st.tuples(
                st.one_of(
                    st.just((0.0, 0.0)), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
                ),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1e-4, 1e-7, 1e-10]),
        st.integers(0, 2**32 - 1),
    )
    def test_dense_invariants_and_distances(self, n_sites, gamma, runs, eps, seed):
        hx, hy = np.array([pulse for pulse, repeats in runs for _ in range(repeats)]).T
        seq = ControlSequence(hx=hx, hy=hy, dt=0.2, bound=10.0)
        u = propagate(ChainSpec(n_sites=n_sites), seq)
        bare = choi_of_unitary(u)
        env = choi_of_env_channel(ChainSpec(n_sites=n_sites, env_enabled=True, gamma=gamma), seq)
        for choi in (bare, env):
            m = choi.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
            assert abs(np.trace(m) - 1.0) <= 1e-12
        if gamma == 0.0:
            assert np.max(np.abs(env.matrix - bare.matrix)) <= 1e-10

        rng = np.random.default_rng(seed)
        h = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
        near = choi_of_unitary(scipy.linalg.expm(-1j * eps * (h + h.conj().T)) @ u)
        target = choi_of_unitary(haar_unitary(rng, u.shape[0]))
        for a, b in ((bare, env), (env, bare), (target, env), (target, bare), (bare, near)):
            dense = linalg.trace_norm(a.matrix - b.matrix)
            assert abs(choi_distance(a, b) - dense) <= 1e-12
