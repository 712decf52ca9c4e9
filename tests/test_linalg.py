import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import SX, SZ
from spinctrl import linalg
from spinctrl.model import ChainSpec, SliceKernel, eigh_stack


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_symmetric(rng, dim):
    m = rng.normal(size=(dim, dim))
    return (m + m.T) / 2.0


def random_phase(rng, dim):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, dim))


def expm_minus_i(s, phase, t):
    """exp(-i*t*H) for H = D S D^dag with S real symmetric and D = diag(phase),
    as the slice kernel computes it for a single slice: S through eigh_stack,
    then the forward stage of a one-slice kernel holding that eigensystem. A
    1x1 S is padded with a decoupled zero block to the kernel's smallest
    size, 2x2, whose top-left entry is then exp(-i*t*H)."""
    dim = len(phase)
    size = max(dim, 2)
    padded = np.zeros((size, size))
    padded[:dim, :dim] = s
    kernel = SliceKernel(ChainSpec(n_sites=size.bit_length() - 1), [t])
    kernel.evals[...], kernel.rot[...] = eigh_stack(padded[None])
    kernel.phase[...] = 1.0
    kernel.phase[0, :dim] = phase
    kernel.forward()
    return kernel.fwd[1, :dim, :dim]


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestExpmMinusI:
    """exp(-i*t*H) through eigh_stack and SliceKernel.forward, for H = D S D^dag
    with S real symmetric and D a diagonal phase: the slice kernel's form."""

    def test_pauli_rotation(self):
        # H = D sx D^dag is a Pauli along a random axis in the xy plane
        theta = np.pi / 2
        phase = random_phase(np.random.default_rng(3), 2)
        u = expm_minus_i(SX.real, phase, theta)
        axis = phase[:, None] * SX * phase.conj()[None, :]
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * axis
        assert np.allclose(u, expected, atol=1e-12)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        u = expm_minus_i(random_symmetric(rng, 8), random_phase(rng, 8), 0.0)
        assert np.allclose(u, np.eye(8), atol=1e-12)

    def test_semigroup(self):
        # oracle: direct computation of the combined time
        rng = np.random.default_rng(17)
        h, phase = random_symmetric(rng, 4), random_phase(rng, 4)
        s, t = 0.37, 1.21
        combined = expm_minus_i(h, phase, s) @ expm_minus_i(h, phase, t)
        assert np.allclose(combined, expm_minus_i(h, phase, s + t), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_unitary_output(self, dim):
        rng = np.random.default_rng(dim)
        u = expm_minus_i(random_symmetric(rng, dim), random_phase(rng, dim), 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-9


class TestPartialTraceLastQubit:
    def test_product_state(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 4)
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1.0
        assert np.allclose(linalg.partial_trace_last_qubit(np.kron(rho, zero)), rho)

    def test_preserves_trace(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.isclose(np.trace(linalg.partial_trace_last_qubit(m)), np.trace(m))

    def test_maximally_entangled(self):
        bell = (np.array([1, 0, 0, 1]) / np.sqrt(2)).astype(complex)
        proj = np.outer(bell, bell.conj())
        assert np.allclose(linalg.partial_trace_last_qubit(proj), np.eye(2) / 2)

    def test_linear(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = linalg.partial_trace_last_qubit(2.0 * a - 0.5j * b)
        rhs = 2.0 * linalg.partial_trace_last_qubit(a) - 0.5j * linalg.partial_trace_last_qubit(b)
        assert np.allclose(lhs, rhs)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            linalg.partial_trace_last_qubit(np.eye(3))


class TestTraceNorm:
    def test_zero_matrix(self):
        assert linalg.trace_norm(np.zeros((4, 4))) == 0.0

    def test_pauli_z(self):
        assert np.isclose(linalg.trace_norm(SZ), 2.0)

    def test_density_difference_bounded(self):
        # oracle: the trace norm is the sum of singular values
        rng = np.random.default_rng(37)
        for _ in range(5):
            diff = random_density(rng, 8) - random_density(rng, 8)
            tn = linalg.trace_norm(diff)
            assert np.isclose(tn, np.sum(np.linalg.svd(diff, compute_uv=False)))
            assert tn <= 2.0 + 1e-12

    def test_norm_axioms(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            a = random_hermitian(rng, 6)
            b = random_hermitian(rng, 6)
            assert linalg.trace_norm(a) >= 0.0
            assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-12
        assert linalg.trace_norm(np.zeros((6, 6))) < 1e-12


@settings(max_examples=30)
@given(st.floats(min_value=-5.0, max_value=5.0))
def test_expm_phase_matches_scalar(theta):
    # 1x1 case reduces to the scalar exponential, whatever the phase
    u = expm_minus_i(np.array([[1.0]]), np.exp([0.4j]), theta)
    assert np.isclose(u[0, 0], np.exp(-1j * theta))
