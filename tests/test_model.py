import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import I2, SX, SY, SZ, dense_slice_hamiltonians, kron_chain, on_sites
from spinctrl.model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    bloch_trajectories,
    drift_hamiltonian,
    propagate,
    SliceKernel,
    propagate_with_env,
    slice_operators,
    target_unitary,
)


def random_seq(rng, n, dt=0.2, bound=10.0, scale=1.0):
    return ControlSequence(
        hx=rng.uniform(-scale, scale, n), hy=rng.uniform(-scale, scale, n), dt=dt, bound=bound
    )


def kernel_eigensystem(spec, hx, hy):
    """The kernel's eigenvalues and eigenvectors V = phase * rot of every slice."""
    kernel = SliceKernel(spec, len(hx))
    kernel.diagonalize(np.asarray(hx, dtype=np.float64), np.asarray(hy, dtype=np.float64))
    return kernel.evals, kernel.phase[:, :, None] * kernel.rot


def kernel_hamiltonians(spec, hx, hy):
    """The slice Hamiltonians V diag(λ) V^† rebuilt from the kernel's eigensystems."""
    evals, evecs = kernel_eigensystem(spec, hx, hy)
    return (evecs * evals[:, None, :]) @ evecs.conj().swapaxes(-1, -2)


def one_slice(spec, hx, hy):
    """The kernel's Hamiltonian of a single slice with fields (hx, hy)."""
    return kernel_hamiltonians(spec, [hx], [hy])[0]


def control_part(hx, hy, n_sites):
    """The kernel's slice Hamiltonian minus the drift: the field on site 1."""
    spec = ChainSpec(n_sites=n_sites)
    return one_slice(spec, hx, hy) - drift_hamiltonian(spec)


def oracle_control_part(hx, hy, n_sites):
    """The dense oracle's slice Hamiltonian minus its drift."""
    spec = ChainSpec(n_sites=n_sites)
    return (
        dense_slice_hamiltonians(spec, [hx], [hy])[0] - dense_slice_hamiltonians(spec, [0.0], [0.0])[0]
    )


def env_oracle_n2(gamma, hx, hy):
    """Oracle: chain + environment slice Hamiltonian for N=2 from explicit
    Kronecker factors, with the environment qubit last."""
    h = sum(kron_chain(s, s, I2) for s in (SX, SY, SZ))
    h = h + hx * kron_chain(SX, I2, I2) + hy * kron_chain(SY, I2, I2)
    star = sum(kron_chain(s, I2, s) + kron_chain(I2, s, s) for s in (SX, SY, SZ))
    return h + gamma * (abs(hx) + abs(hy)) * star


def flip_all(n_qubits):
    """X on every qubit."""
    return kron_chain(*[SX] * n_qubits)


def z_rotation(phi, n_qubits):
    """Diagonal exp(-i*phi*sum_k Sz^k/2) in the computational basis."""
    bits = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    return np.diag(np.exp(-0.5j * phi * np.sum(1 - 2 * bits, axis=1)))


pulse_lists = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=6
)
# Slices with r = 0 (of both zero signs), hx = 0, hy = 0 and negative amplitudes.
EDGE_SLICES = [(0.0, 0.0), (-0.0, -0.0), (0.0, -1.3), (2.1, 0.0), (-0.7, -2.4)]


class TestSpecs:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            ChainSpec(n_sites=0)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=2, gamma=-0.1)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=2, gamma=float("nan"))
        with pytest.raises(ValueError):
            ChainSpec(n_sites=2.5)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=3.0)

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            ControlSequence(hx=[1.0], hy=[1.0, 2.0], dt=0.2, bound=10.0)
        with pytest.raises(ValueError):
            ControlSequence(hx=[1.0], hy=[1.0], dt=0.0, bound=10.0)
        with pytest.raises(ValueError):
            ControlSequence(hx=[11.0], hy=[0.0], dt=0.2, bound=10.0)
        with pytest.raises(ValueError):
            ControlSequence(hx=[float("nan")], hy=[0.0], dt=0.2, bound=10.0)

    def test_sequence_vector_roundtrip(self):
        seq = ControlSequence(hx=[1.0, -2.0], hy=[0.5, 3.0], dt=0.1, bound=5.0)
        back = ControlSequence.from_vector(seq.pulse_vector(), 0.1, 5.0)
        assert np.array_equal(back.hx, seq.hx)
        assert np.array_equal(back.hy, seq.hy)

    @pytest.mark.parametrize("env", [False, True])
    def test_norm_bound_covers_slice_hamiltonians(self, env):
        # the largest |eigenvalue| of the dense oracle at the box's corners,
        # its edge midpoints and random fields stays within the bound
        rng = np.random.default_rng(9)
        fields = np.array([(2.0, 2.0), (-2.0, 2.0), (2.0, 0.0), (0.0, -2.0)])
        fields = np.vstack([fields, rng.uniform(-2.0, 2.0, (8, 2))])
        for n_sites in range(1, 5):
            spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.3)
            h = dense_slice_hamiltonians(spec, fields[:, 0], fields[:, 1])
            assert np.max(np.abs(np.linalg.eigvalsh(h))) <= spec.norm_bound(2.0) + 1e-12

    def test_target_validation(self):
        with pytest.raises(ValueError):
            TargetGate("CNOT", 2)
        with pytest.raises(ValueError):
            TargetGate("SWAP", 1)
        with pytest.raises(ValueError):
            TargetGate("NOT", 2.5)
        with pytest.raises(ValueError):
            TargetGate("NOT", True)


class TestDriftHamiltonian:
    def test_single_site_is_zero(self):
        assert np.array_equal(drift_hamiltonian(ChainSpec(n_sites=1)), np.zeros((2, 2)))

    def test_two_site_spectrum(self):
        evals = np.linalg.eigvalsh(drift_hamiltonian(ChainSpec(n_sites=2)))
        assert np.allclose(np.sort(evals), [-3.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
    def test_term_by_term(self, n_sites):
        # oracle: independent assembly from explicit Kronecker factors; both
        # are sums of small integers, so they agree exactly
        expected = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
        for i in range(1, n_sites):
            for s in (SX, SY, SZ):
                expected += on_sites(n_sites, {i: s, i + 1: s})
        assert np.array_equal(drift_hamiltonian(ChainSpec(n_sites=n_sites)), expected)


class TestSliceEigensystem:
    """The kernel's sector eigensystems against the dense explicit-Kronecker oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.sampled_from([False, True]),
        st.sampled_from([0.0, 0.3]),
        pulse_lists,
    )
    def test_rebuilds_dense_oracle(self, n_sites, env, gamma, pulses):
        hx, hy = np.array(EDGE_SLICES + pulses).T
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=gamma)
        evals, evecs = kernel_eigensystem(spec, hx, hy)
        rebuilt = (evecs * evals[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
        assert np.max(np.abs(rebuilt - dense_slice_hamiltonians(spec, hx, hy))) < 1e-12
        gram = evecs.conj().swapaxes(-1, -2) @ evecs
        assert np.max(np.abs(gram - np.eye(spec.dim * (1 + env)))) < 1e-12

    @pytest.mark.parametrize("env", [False, True])
    def test_sector_sizes_and_real_blocks(self, env):
        # sectors of total Sx on q qubits have C(q, k) states, k = 0..q
        for n_sites in range(1, 5):
            ops = slice_operators(ChainSpec(n_sites=n_sites, env_enabled=env))
            q = n_sites + env
            sizes = sorted(b.shape[1] for b in ops.drift for _ in range(b.shape[0]))
            assert sizes == sorted(math.comb(q, k) for k in range(q + 1))
            assert np.max(np.abs(ops.basis.T @ ops.basis - np.eye(2**q))) < 1e-14
            assert (ops.star is not None) == env
            for group in (ops.drift, ops.field) + ((ops.star,) if env else ()):
                assert len(group) == len(ops.drift)
                for blocks, drift in zip(group, ops.drift):
                    assert blocks.dtype == np.float64 and blocks.shape == drift.shape
                    assert np.array_equal(blocks, blocks.swapaxes(-1, -2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([False, True]), st.floats(0.0, 3.0),
           st.sampled_from([0.0, 0.3]))
    def test_basis_block_diagonalizes_oracle(self, n_sites, env, r, gamma):
        # oracle: the dense inner matrix (hy = 0, so phi = 0), rotated by the
        # basis, vanishes between columns of different total Sx
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=gamma)
        q = n_sites + env
        basis = slice_operators(spec).basis
        sx_total = basis.T @ sum(on_sites(q, {k: SX}) for k in range(1, q + 1)).real @ basis
        assert np.max(np.abs(sx_total - np.diag(np.diag(sx_total)))) < 1e-12
        sector = np.round(np.diag(sx_total))
        inner = basis.T @ dense_slice_hamiltonians(spec, [r], [0.0])[0].real @ basis
        assert np.max(np.abs(inner[sector[:, None] != sector[None, :]])) < 1e-14

    @pytest.mark.parametrize("env", [False, True])
    def test_size_one_sectors_are_their_own_eigensystem(self, env):
        # the 1x1 sectors (all spins along +x or -x) come first; their
        # eigenvalues are the block entries r*field + drift [+ s*star] and
        # their rot columns the basis columns, bit for bit
        rng = np.random.default_rng(5)
        hx, hy = np.array(EDGE_SLICES + rng.uniform(-3.0, 3.0, (6, 2)).tolist()).T
        for n_sites in range(1, 5):
            spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.3)
            ops = slice_operators(spec)
            count, size = ops.drift[0].shape[:2]
            assert (count, size) == (2, 1)
            entries = np.hypot(hx, hy)[:, None] * ops.field[0][:, 0, 0] + ops.drift[0][:, 0, 0]
            if env:
                entries += 0.3 * (np.abs(hx) + np.abs(hy))[:, None] * ops.star[0][:, 0, 0]
            kernel = SliceKernel(spec, len(hx))
            kernel.diagonalize(hx, hy)
            assert np.array_equal(kernel.evals[:, :count], entries)
            columns = np.broadcast_to(ops.basis[:, :count], (len(hx), *ops.basis[:, :count].shape))
            assert np.array_equal(kernel.rot[:, :, :count], columns)

    @pytest.mark.parametrize("env", [False, True])
    def test_operators_built_once_and_read_only(self, env):
        ops = slice_operators(ChainSpec(n_sites=3, env_enabled=env))
        assert slice_operators(ChainSpec(n_sites=3, env_enabled=env)) is ops
        # one group per distinct sector size: {1, 3} on 3 qubits, {1, 4, 6} on 4
        assert len(ops.drift) == len(ops.field) == 2 + env
        for a in (ops.basis, ops.m, *ops.drift, *ops.field, *(ops.star if env else ())):
            with pytest.raises(ValueError):
                a[...] = 0.0


class TestControlHamiltonian:
    def test_zero_fields(self):
        assert np.array_equal(oracle_control_part(0.0, 0.0, 2), np.zeros((4, 4)))
        assert np.allclose(control_part(0.0, 0.0, 2), 0.0, atol=1e-14)

    def test_single_qubit(self):
        assert np.array_equal(oracle_control_part(1.0, 0.0, 1), SX)
        assert np.allclose(control_part(1.0, 0.0, 1), SX, atol=1e-14)

    def test_anticommutes_with_sz_on_first_site(self):
        hc = control_part(0.7, -1.3, 3)
        sz1 = kron_chain(SZ, I2, I2)
        assert np.allclose(hc @ sz1 + sz1 @ hc, 0.0, atol=1e-14)


class TestEnvHamiltonian:
    def test_requires_env(self):
        # the environment qubit and its coupling appear only when enabled
        ops = slice_operators(ChainSpec(n_sites=2, gamma=0.3))
        assert ops.star is None
        assert ops.basis.shape == (4, 4) and sum(b.shape[0] * b.shape[1] for b in ops.drift) == 4
        kernel = SliceKernel(ChainSpec(n_sites=2, gamma=0.3), 1)
        kernel.run(np.array([1.0]), np.array([0.0]), 0.2)
        assert kernel.evals.shape == (1, 4) and kernel.rot.shape == (1, 4, 4)
        assert kernel.phase.shape == (1, 4) and kernel.fwd.shape == (2, 4, 4)

    def test_zero_pulses_decouple(self):
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.3)
        expected = np.kron(drift_hamiltonian(ChainSpec(n_sites=2)), I2)
        assert np.allclose(one_slice(spec, 0.0, 0.0), expected, atol=1e-14)

    def test_gamma_zero_decouples(self):
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.0)
        chain_part = one_slice(ChainSpec(n_sites=2), 1.2, -0.4)
        assert np.allclose(one_slice(spec, 1.2, -0.4), np.kron(chain_part, I2), atol=1e-14)

    def test_coupling_block_term_by_term(self):
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.1)
        assert np.allclose(one_slice(spec, 1.0, 0.0), env_oracle_n2(0.1, 1.0, 0.0), atol=1e-14)
        assert np.allclose(
            one_slice(spec, -0.6, 1.7), env_oracle_n2(0.1, -0.6, 1.7), atol=1e-14
        )


class TestPropagate:
    def test_identity_without_drive(self):
        spec = ChainSpec(n_sites=1)
        seq = ControlSequence.zeros(4, 0.2, 10.0)
        assert np.allclose(propagate(spec, seq), np.eye(2), atol=1e-14)

    def test_single_qubit_pi_half_rotation(self):
        spec = ChainSpec(n_sites=1)
        seq = ControlSequence(hx=[np.pi / (2 * 0.2)], hy=[0.0], dt=0.2, bound=10.0)
        assert np.allclose(propagate(spec, seq), -1j * SX, atol=1e-12)

    def test_matches_expm_oracle(self):
        # oracle: scipy.linalg.expm slice by slice
        rng = np.random.default_rng(101)
        spec = ChainSpec(n_sites=2)
        seq = random_seq(rng, 5)
        u = np.eye(4, dtype=complex)
        for hx, hy in zip(seq.hx, seq.hy):
            h = drift_hamiltonian(spec) + hx * kron_chain(SX, I2) + hy * kron_chain(SY, I2)
            u = scipy.linalg.expm(-1j * seq.dt * h) @ u
        assert np.allclose(propagate(spec, seq), u, atol=1e-10)

    @pytest.mark.parametrize("n_sites,n", [(2, 16), (3, 32), (4, 64)])
    def test_unitary(self, n_sites, n):
        rng = np.random.default_rng(n_sites * 100 + n)
        spec = ChainSpec(n_sites=n_sites)
        u = propagate(spec, random_seq(rng, n))
        assert np.max(np.abs(u.conj().T @ u - np.eye(spec.dim))) < 1e-8

    def test_time_reversal(self):
        # running the reversed slices with negated Hamiltonians inverts the evolution
        rng = np.random.default_rng(7)
        spec = ChainSpec(n_sites=2)
        seq = random_seq(rng, 6)
        u = propagate(spec, seq)
        u_rev = np.eye(4, dtype=complex)
        for h in dense_slice_hamiltonians(spec, seq.hx, seq.hy)[::-1]:
            u_rev = scipy.linalg.expm(1j * seq.dt * h) @ u_rev
        assert np.max(np.abs(u_rev @ u - np.eye(4))) < 1e-8

    @pytest.mark.parametrize("n_sites", [3, 4])
    def test_repeated_calls_are_independent(self, n_sites):
        # each call returns its own array, and a repeated call the same bits
        rng = np.random.default_rng(41)
        spec = ChainSpec(n_sites=n_sites)
        seq1, seq2 = random_seq(rng, 12), random_seq(rng, 12)
        u1 = propagate(spec, seq1)
        kept = u1.copy()
        u2 = propagate(spec, seq2)
        assert np.array_equal(propagate(spec, seq1), kept)
        assert np.array_equal(propagate(spec, seq2), u2)
        assert np.array_equal(u1, kept) and not np.array_equal(u1, u2)


    @pytest.mark.parametrize("env,gamma", [(False, 0.0), (True, 0.0), (True, 0.1)])
    def test_runs_match_slice_by_slice(self, env, gamma):
        # propagate runs each stretch of equal slices as one slice; the
        # kernel over every slice is the reference
        rng = np.random.default_rng(17)
        a, b = rng.uniform(-3.0, 3.0, (2, 2))
        sequences = [
            [(0.0, 0.0)] * 5 + [tuple(a)] + [(0.0, -0.0)] * 3 + [tuple(b)],  # zero runs
            [tuple(a)] * 4 + [tuple(b)] * 3 + [tuple(a)] * 2 + [(a[0], 0.0)] * 3,  # repeats
            [tuple(b)] * 12,  # one run
        ]
        for n_sites in range(1, 5):
            spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=gamma)
            for pulses in sequences:
                hx, hy = np.array(pulses).T
                kernel = SliceKernel(spec, len(hx))
                kernel.run(hx, hy, 0.2)
                u = propagate(spec, ControlSequence(hx=hx, hy=hy, dt=0.2, bound=5.0))
                assert np.max(np.abs(u - kernel.fwd[-1])) < 1e-12

    @pytest.mark.parametrize("n_sites,env", [(1, False), (4, False), (4, True)])
    def test_zero_run_is_one_slice_and_unitary(self, n_sites, env):
        # 256 zero slices are propagated as one slice of duration 256*dt
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.1)
        u = propagate(spec, ControlSequence.zeros(256, 0.2, 5.0))
        assert np.array_equal(u, propagate(spec, ControlSequence.zeros(1, 256 * 0.2, 5.0)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12

    @pytest.mark.parametrize("n_sites,env", [(3, False), (4, False), (4, True)])
    def test_no_equal_neighbours_match_unmerged_bits(self, n_sites, env):
        # without equal neighbours propagate is the kernel over every slice,
        # and a per-slice column of durations that are all dt is dt itself
        rng = np.random.default_rng(23)
        seq = random_seq(rng, 24)
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.1)
        kernel = SliceKernel(spec, seq.n)
        kernel.run(seq.hx, seq.hy, seq.dt)
        assert np.array_equal(propagate(spec, seq), kernel.fwd[-1])
        scalar = kernel.fwd.copy()
        kernel.forward(np.full((seq.n, 1), seq.dt))
        assert np.array_equal(kernel.fwd, scalar)


class TestPropagateWithEnv:
    def test_requires_env(self):
        with pytest.raises(ValueError):
            propagate_with_env(ChainSpec(n_sites=2), ControlSequence.zeros(2, 0.2, 10.0))

    def test_gamma_zero_factorizes(self):
        rng = np.random.default_rng(3)
        seq = random_seq(rng, 6)
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.0)
        expected = np.kron(propagate(ChainSpec(n_sites=2), seq), I2)
        assert np.allclose(propagate_with_env(spec, seq), expected, atol=1e-10)

    def test_zero_pulses_drift_only(self):
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.2)
        seq = ControlSequence.zeros(5, 0.2, 10.0)
        drift_u = scipy.linalg.expm(-1j * 5 * 0.2 * drift_hamiltonian(ChainSpec(n_sites=2)))
        assert np.allclose(propagate_with_env(spec, seq), np.kron(drift_u, I2), atol=1e-10)

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(13)
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.1)
        seq = random_seq(rng, 4)
        u = np.eye(8, dtype=complex)
        for hx, hy in zip(seq.hx, seq.hy):
            u = scipy.linalg.expm(-1j * seq.dt * env_oracle_n2(0.1, hx, hy)) @ u
        assert np.allclose(propagate_with_env(spec, seq), u, atol=1e-10)


class TestBlochTrajectories:
    def test_stationary_ground_state(self):
        spec = ChainSpec(n_sites=1)
        seq = ControlSequence.zeros(5, 0.2, 10.0)
        traj = bloch_trajectories(spec, seq, "0")
        assert traj.shape == (6, 1, 3)
        assert np.allclose(traj, np.tile([0.0, 0.0, 1.0], (6, 1, 1)), atol=1e-12)

    def test_initial_point_of_basis_state(self):
        spec = ChainSpec(n_sites=3)
        seq = ControlSequence.zeros(2, 0.2, 10.0)
        traj = bloch_trajectories(spec, seq, "001")
        assert np.allclose(traj[0, 0], [0, 0, 1], atol=1e-12)
        assert np.allclose(traj[0, 1], [0, 0, 1], atol=1e-12)
        assert np.allclose(traj[0, 2], [0, 0, -1], atol=1e-12)

    def test_bloch_norms_and_state_norm(self):
        # oracle: reduced states must be positive with unit trace, so the
        # Bloch norm cannot exceed 1
        rng = np.random.default_rng(19)
        spec = ChainSpec(n_sites=3)
        seq = random_seq(rng, 12)
        traj = bloch_trajectories(spec, seq, "010")
        norms = np.linalg.norm(traj, axis=2)
        assert np.all(norms <= 1.0 + 1e-9)

        # independently evolve the state and check reduced-state eigenvalues
        psi = np.zeros(8, dtype=complex)
        psi[int("010", 2)] = 1.0
        for h in dense_slice_hamiltonians(spec, seq.hx, seq.hy):
            psi = scipy.linalg.expm(-1j * seq.dt * h) @ psi
            assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-10)
        rho_full = np.outer(psi, psi.conj()).reshape(2, 4, 2, 4)
        rho_q1 = np.einsum("aebe->ab", rho_full)
        evals = np.linalg.eigvalsh((rho_q1 + rho_q1.conj().T) / 2)
        assert np.all(evals > -1e-9)
        assert np.isclose(1 - np.linalg.norm(traj[-1, 0]) ** 2, 4 * evals[0] * evals[1], atol=1e-8)

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_matches_expm_oracle(self, n_sites):
        # oracle: scipy.linalg.expm slice by slice, then explicit Pauli
        # expectations at every slice boundary
        rng = np.random.default_rng(60 + n_sites)
        spec = ChainSpec(n_sites=n_sites)
        seq = random_seq(rng, 10, scale=3.0)
        paulis = [[on_sites(n_sites, {q: s}) for s in (SX, SY, SZ)] for q in range(1, n_sites + 1)]
        hams = dense_slice_hamiltonians(spec, seq.hx, seq.hy)
        for label in ("".join(rng.choice(["0", "1"], n_sites)) for _ in range(2)):
            traj = bloch_trajectories(spec, seq, label)
            psi = np.zeros(spec.dim, dtype=complex)
            psi[int(label, 2)] = 1.0
            for j in range(seq.n + 1):
                expected = [[np.vdot(psi, p @ psi).real for p in ps] for ps in paulis]
                assert np.allclose(traj[j], expected, rtol=0.0, atol=1e-10)
                if j < seq.n:
                    psi = scipy.linalg.expm(-1j * seq.dt * hams[j]) @ psi

    def test_invalid_label(self):
        spec = ChainSpec(n_sites=2)
        seq = ControlSequence.zeros(2, 0.2, 10.0)
        with pytest.raises(ValueError):
            bloch_trajectories(spec, seq, "012")
        with pytest.raises(ValueError):
            bloch_trajectories(spec, seq, "0")
        with pytest.raises(ValueError):
            bloch_trajectories(ChainSpec(n_sites=2, env_enabled=True), seq, "01")


class TestTargetUnitary:
    def test_not_single_qubit(self):
        assert np.array_equal(target_unitary(TargetGate("NOT", 1)), SX)

    def test_swap_two_qubits(self):
        u = target_unitary(TargetGate("SWAP", 2))
        psi01 = np.zeros(4)
        psi01[int("01", 2)] = 1.0
        psi10 = np.zeros(4)
        psi10[int("10", 2)] = 1.0
        assert np.allclose(u @ psi01, psi10)
        assert np.allclose(u @ psi10, psi01)

    def test_not3_flips_last_qubit(self):
        u = target_unitary(TargetGate("NOT", 3))
        psi = np.zeros(8)
        psi[int("000", 2)] = 1.0
        out = u @ psi
        assert np.isclose(out[int("001", 2)], 1.0)

    @pytest.mark.parametrize(
        "kind,n_sites", [("NOT", n) for n in range(1, 6)] + [("SWAP", n) for n in range(2, 6)]
    )
    def test_exact_against_kronecker(self, kind, n_sites):
        # oracle: the identity on the leading qubits times X on the last one,
        # or times the 4x4 SWAP on the last two
        swap2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        gate = SX if kind == "NOT" else swap2
        expected = kron_chain(np.eye(2**n_sites // len(gate)), gate)
        u = target_unitary(TargetGate(kind, n_sites))
        assert u.dtype == np.complex128
        assert np.array_equal(u, expected)

    @pytest.mark.parametrize("kind,n_sites", [("NOT", 3), ("SWAP", 3), ("SWAP", 4)])
    def test_involutory(self, kind, n_sites):
        u = target_unitary(TargetGate(kind, n_sites))
        assert np.allclose(u @ u, np.eye(2**n_sites))


class TestSymmetries:
    """Covariances of the isotropic chain under the slice kernel."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.floats(-np.pi, np.pi), pulse_lists)
    def test_rotation_about_z(self, n_sites, phi, pulses):
        # rotating every (hx, hy) by phi conjugates U by exp(-i*phi*sum Sz/2)
        hx, hy = np.array(pulses).T
        c, s = np.cos(phi), np.sin(phi)
        spec = ChainSpec(n_sites=n_sites)
        u = propagate(spec, ControlSequence(hx=hx, hy=hy, dt=0.2, bound=5.0))
        u_rot = propagate(
            spec, ControlSequence(hx=c * hx - s * hy, hy=s * hx + c * hy, dt=0.2, bound=5.0)
        )
        d = z_rotation(phi, n_sites)
        assert np.max(np.abs(u_rot - d @ u @ d.conj().T)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from([False, True]), pulse_lists)
    def test_global_spin_flip(self, n_sites, env, pulses):
        # hy -> -hy conjugates U by X on every qubit, the environment's included
        hx, hy = np.array(pulses).T
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.1)
        run = propagate_with_env if env else propagate
        u = run(spec, ControlSequence(hx=hx, hy=hy, dt=0.2, bound=5.0))
        u_flip = run(spec, ControlSequence(hx=hx, hy=-hy, dt=0.2, bound=5.0))
        x = flip_all(n_sites + env)
        assert np.max(np.abs(u_flip - x @ u @ x)) < 1e-12
