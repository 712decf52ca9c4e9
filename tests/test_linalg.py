import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    kernel = SliceKernel(ChainSpec(n_sites=size.bit_length() - 1), 1)
    kernel.evals[...], kernel.rot[...] = eigh_stack(padded[None])
    kernel.phase[...] = 1.0
    kernel.phase[0, :dim] = phase
    kernel.forward(t)
    return kernel.fwd[1, :dim, :dim]


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestPauli:
    def test_x(self):
        assert np.array_equal(linalg.pauli("x"), np.array([[0, 1], [1, 0]]))

    def test_z(self):
        assert np.array_equal(linalg.pauli("z"), np.array([[1, 0], [0, -1]]))

    def test_y_squares_to_identity(self):
        y = linalg.pauli("y")
        assert np.allclose(y @ y, np.eye(2))

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            linalg.pauli("w")


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_structure(self):
        # sigma_x (x) I has an identity block in the upper-right corner
        m = linalg.kron(linalg.pauli("x"), np.eye(2))
        assert m[0, 2] == 1.0

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            # oracle: multiply the traces directly
            assert np.isclose(np.trace(linalg.kron(a, b)), np.trace(a) * np.trace(b))

    def test_associative_exact_on_integers(self):
        rng = np.random.default_rng(3)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.array_equal(left, right)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linalg.kron()


class TestEmbedSingleSite:
    def test_single_site_chain(self):
        assert np.array_equal(linalg.embed_single_site(linalg.pauli("x"), 1, 1), linalg.pauli("x"))

    def test_second_of_two(self):
        expected = np.kron(np.eye(2), linalg.pauli("z"))
        assert np.array_equal(linalg.embed_single_site(linalg.pauli("z"), 2, 2), expected)

    def test_distinct_sites_commute(self):
        a = linalg.embed_single_site(linalg.pauli("x"), 1, 3)
        b = linalg.embed_single_site(linalg.pauli("y"), 3, 3)
        assert np.allclose(a @ b - b @ a, 0.0)

    @pytest.mark.parametrize("site", [0, 4])
    def test_site_out_of_range(self, site):
        with pytest.raises(ValueError):
            linalg.embed_single_site(linalg.pauli("x"), site, 3)


class TestExpmMinusI:
    """exp(-i*t*H) through eigh_stack and SliceKernel.forward, for H = D S D^dag
    with S real symmetric and D a diagonal phase: the slice kernel's form."""

    def test_pauli_rotation(self):
        # H = D sx D^dag is a Pauli along a random axis in the xy plane
        theta = np.pi / 2
        phase = random_phase(np.random.default_rng(3), 2)
        u = expm_minus_i(linalg.pauli("x").real, phase, theta)
        axis = phase[:, None] * linalg.pauli("x") * phase.conj()[None, :]
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
        assert np.isclose(linalg.trace_norm(linalg.pauli("z")), 2.0)

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
