import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    I2,
    SX,
    SY,
    SZ,
    dense_operators,
    dense_propagator,
    dense_slice_hamiltonians,
    kron_chain,
    on_sites,
)
from mp_reference import mp_propagator
from scale_cases import PHASE_OVERFLOW, experiment
from spinctrl.model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    _exchange_sum,
    _reinterpret,
    bloch_trajectories,
    check_count,
    check_real,
    eigh_stack,
    numeric_array,
    propagate,
    SliceKernel,
    propagate_with_env,
    slice_operators,
    target_unitary,
)
from spinctrl.objective import ObjectiveConfig, PulseObjective, penalty


def random_seq(rng, n, dt=0.2, bound=10.0, scale=1.0):
    return ControlSequence(
        hx=rng.uniform(-scale, scale, n), hy=rng.uniform(-scale, scale, n), dt=dt, bound=bound
    )


def kernel_eigensystem(spec, hx, hy):
    """The kernel's eigenvalues and eigenvectors V = phase * rot of every slice."""
    kernel = SliceKernel(spec, np.full(len(hx), 0.2))
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
    return one_slice(spec, hx, hy) - dense_operators(spec)[0]


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

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: ChainSpec(3, gamma="0.1"), id="gamma_str"),
            pytest.param(lambda: ChainSpec(3, gamma=None), id="gamma_none"),
            pytest.param(lambda: ControlSequence([0.0], [0.0], dt="0.2", bound=1.0), id="dt_str"),
            pytest.param(lambda: ControlSequence([0.0], [0.0], dt=None, bound=1.0), id="dt_none"),
            pytest.param(lambda: ControlSequence([0.0], [0.0], dt=0.2, bound="1"), id="bound_str"),
            pytest.param(lambda: ChainSpec(3, gamma=True), id="gamma_true"),
            pytest.param(lambda: ControlSequence([0.0], [0.0], dt=True, bound=1.0), id="dt_true"),
            pytest.param(lambda: ControlSequence([0.0], [0.0], dt=0.2, bound=True), id="bound_true"),
            pytest.param(lambda: ChainSpec(3, env_enabled="no"), id="env_enabled_str"),
            pytest.param(lambda: ChainSpec(3, env_enabled=1), id="env_enabled_int"),
            pytest.param(lambda: ChainSpec(3, env_enabled=None), id="env_enabled_none"),
        ],
    )
    def test_non_numeric_values_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            ControlSequence(hx=[1.0], hy=[1.0, 2.0], dt=0.2, bound=10.0)
        with pytest.raises(ValueError):
            ControlSequence(hx=[1.0], hy=[1.0], dt=0.0, bound=10.0)
        with pytest.raises(ValueError):
            ControlSequence(hx=[11.0], hy=[0.0], dt=0.2, bound=10.0)
        with pytest.raises(ValueError):
            ControlSequence(hx=[float("nan")], hy=[0.0], dt=0.2, bound=10.0)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: ControlSequence(hx=[], hy=[], dt=0.2, bound=10.0), id="no_slices"),
            pytest.param(
                lambda: ControlSequence.from_vector(np.zeros(3), 0.2, 10.0), id="odd_vector"
            ),
            pytest.param(
                lambda: ControlSequence(hx=[1j], hy=[0.0], dt=0.2, bound=1.0), id="complex"
            ),
            # numeric strings and bools used to be parsed into amplitudes, unlike dt and bound
            pytest.param(
                lambda: ControlSequence(hx=["1.5"], hy=[0.0], dt=0.2, bound=10.0), id="str_hx"
            ),
            pytest.param(
                lambda: ControlSequence(hx=[0.0], hy=[" 2 "], dt=0.2, bound=10.0), id="str_hy"
            ),
            pytest.param(
                lambda: ControlSequence(hx=[True], hy=[0.0], dt=0.2, bound=10.0), id="bool_hx"
            ),
            pytest.param(
                lambda: ControlSequence.from_vector(["0.5", "0.1"], 0.2, 10.0), id="str_vector"
            ),
            *(
                pytest.param(lambda n=n: ControlSequence.zeros(n, 0.2, 1.0), id=f"zeros_{n!r}")
                for n in (2.5, True, "3", None, -1)
            ),
        ],
    )
    def test_sequence_shape_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "value,minimum", [(True, 0), (2.0, 1), (np.float64(2.0), 1), ("2", 1), (0, 1), (-1, 0)]
    )
    def test_check_count_rejects(self, value, minimum):
        with pytest.raises(ValueError):
            check_count("count", value, minimum)

    @pytest.mark.parametrize("value,minimum", [(1, 1), (0, 0), (np.int64(7), 2)])
    def test_check_count_accepts(self, value, minimum):
        check_count("count", value, minimum)

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf"), "0.2", None, 1j, True, False],
    )
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError, match=r"scale must be a finite real number in \(0, inf\)"):
            check_real("scale", value, 0.0, closed=False)

    @pytest.mark.parametrize("value", [5e-324, 1, np.float64(0.2), 1e308])
    def test_check_positive_accepts(self, value):
        x = check_real("scale", value, 0.0, closed=False)
        assert type(x) is float and x == value

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_numeric_array_converts_exactly_and_keeps_its_own_dtype(self, dtype):
        # ints and float32 convert exactly; an array of the target dtype is
        # returned as it is, not copied
        ints = numeric_array("a", [3, -(2**53)], dtype)
        assert ints.dtype == dtype and np.array_equal(ints, [3.0, -(2.0**53)])
        single = np.array([0.1, 1e-30], dtype=np.float32)
        assert np.array_equal(numeric_array("a", single, dtype), single.astype(np.float64))
        own = np.zeros(3, dtype=dtype)
        assert numeric_array("a", own, dtype) is own

    def test_bound_has_no_slack(self):
        # |h| <= bound holds exactly, whatever the scale of the bound, so the
        # penalty stays at most 1 (an absolute slack of 1e-12 admitted 1e-13
        # at bound 1e-300, a penalty of 5e286).
        for bound in (1e-300, 1.0, 50.0):
            with pytest.raises(ValueError, match="exceed the bound"):
                ControlSequence(hx=[np.nextafter(bound, 2 * bound)], hy=[0.0], dt=0.2, bound=bound)
        with pytest.raises(ValueError, match="exceed the bound"):
            ControlSequence(hx=[1e-13], hy=[0.0], dt=0.2, bound=1e-300)
        seq = ControlSequence(hx=[-1e-300], hy=[1e-300], dt=0.2, bound=1e-300)
        assert penalty(seq) == 1.0

    def test_check_phase(self):
        # duration times the norm bound at the amplitude must be finite, and
        # numpy scalars overflow in it without a warning
        spec = ChainSpec(n_sites=3, env_enabled=True, gamma=0.1)
        limit = np.finfo(float).max / spec.norm_bound(50.0)
        spec.check_phase(0.5 * limit, 50.0)
        for duration, amplitude in [(2.0 * limit, 50.0), (math.inf, 0.0), (1.0, 1e308)]:
            with pytest.raises(ValueError, match="not finite"):
                spec.check_phase(duration, amplitude)
        with pytest.raises(ValueError, match="not finite"):
            ChainSpec(n_sites=3, env_enabled=True, gamma=np.float64(1e306)).check_phase(0.4, 50.0)

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


def chain_drift(n_sites):
    """The drift as ``slice_operators`` builds it: the exchange sum over the
    nearest-neighbour pairs."""
    return _exchange_sum([(i, i + 1) for i in range(1, n_sites)], n_sites)


class TestDriftHamiltonian:
    def test_single_site_is_zero(self):
        assert np.array_equal(chain_drift(1), np.zeros((2, 2)))

    def test_two_site_spectrum(self):
        evals = np.linalg.eigvalsh(chain_drift(2))
        assert np.allclose(np.sort(evals), [-3.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
    def test_term_by_term(self, n_sites):
        # oracle: independent assembly from explicit Kronecker factors; both
        # are sums of small integers, so they agree exactly
        expected = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
        for i in range(1, n_sites):
            for s in (SX, SY, SZ):
                expected += on_sites(n_sites, {i: s, i + 1: s})
        assert np.array_equal(chain_drift(n_sites), expected)

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
    def test_star_term_by_term(self, n_sites):
        # the star coupling of every chain site to the environment qubit N+1,
        # as slice_operators builds it, against the explicit Kronecker sum
        q = n_sites + 1
        star = _exchange_sum([(i, q) for i in range(1, q)], q)
        expected = dense_operators(ChainSpec(n_sites=n_sites, env_enabled=True))[3]
        assert np.array_equal(star, expected)


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
        # sectors of total Sx on q qubits have C(q, k) states, k = 0..q. The
        # basis columns are columns of H^⊗q, which maps every bit swap to
        # itself and Sx^1 to Sz^1, so each block is exact, bit for bit: the
        # drift and star blocks are the exchange sums restricted to the
        # sector's Hadamard columns, and the field blocks are diagonal with
        # entries +-1
        for n_sites in range(1, 5):
            spec = ChainSpec(n_sites=n_sites, env_enabled=env)
            ops = slice_operators(n_sites, env)
            q = n_sites + env
            sizes = [cols.stop - cols.start for cols in ops.sectors]
            assert sorted(sizes) == sorted(math.comb(q, k) for k in range(q + 1))
            assert np.max(np.abs(ops.basis.T @ ops.basis - np.eye(2**q))) < 1e-14
            assert (ops.star is not None) == env
            # basis column j is column index[j] of H^⊗q: its entry in row 2^p
            # is negative where bit p of index[j] is set
            powers = 1 << np.arange(q)
            index = powers @ (ops.basis[powers] < 0)
            assert sorted(index) == list(range(2**q))
            hadamard = scipy.linalg.hadamard(2**q) / 2 ** (q / 2)
            assert np.max(np.abs(ops.basis - hadamard[:, index])) < 1e-15
            drift, _, _, star = dense_operators(spec)
            for blocks in (ops.drift, ops.field) + ((ops.star,) if env else ()):
                assert len(blocks) == len(sizes)
                for block, size in zip(blocks, sizes):
                    assert block.dtype == np.float64 and block.shape == (size, size)
                    assert np.array_equal(block, block.T)
            for k, cols in enumerate(ops.sectors):
                idx = index[cols]
                assert np.array_equal(ops.drift[k], drift.real[np.ix_(idx, idx)])
                if env:
                    assert np.array_equal(ops.star[k], star.real[np.ix_(idx, idx)])
                diagonal = np.diag(ops.field[k])
                assert np.array_equal(ops.field[k], np.diag(diagonal))
                assert np.array_equal(diagonal, 1.0 - 2 * ((idx >> (q - 1)) & 1))

    @pytest.mark.parametrize("env", [False, True])
    def test_one_eigh_call_per_sector(self, env, monkeypatch):
        # the sectors come in weight order, of sizes C(q, w) for w = 0..q, their
        # column ranges tile 0..dim, and diagonalize makes one eigh_stack call
        # per sector larger than 1x1, on that sector's (k, size, size) stack
        # of the blocks of the k slices with a field; slices without one take
        # the stored drift eigensystem, so on an all-zero field every call
        # sees an empty (0, size, size) stack
        shapes = []

        def recording(h_stack):
            shapes.append(h_stack.shape)
            return eigh_stack(h_stack)

        monkeypatch.setattr("spinctrl.model.eigh_stack", recording)
        hx, hy = np.array(EDGE_SLICES).T
        for n_sites in range(1, 5):
            q = n_sites + env
            ops = slice_operators(n_sites, env)
            sizes = [cols.stop - cols.start for cols in ops.sectors]
            assert sizes == [math.comb(q, w) for w in range(q + 1)]
            assert [cols.start for cols in ops.sectors] == [0, *np.cumsum(sizes)[:-1]]
            assert ops.sectors[-1].stop == 2**q
            spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.3)
            on = np.count_nonzero(np.hypot(hx, hy))
            for fields, calls in (((hx, hy), on), ((hx + 1.0, hy), len(hx)), ((0 * hx, hy), 2)):
                shapes.clear()
                SliceKernel(spec, np.full(len(hx), 0.2)).diagonalize(*fields)
                assert shapes == [(calls, size, size) for size in sizes if size > 1]
            shapes.clear()
            SliceKernel(spec, np.full(3, 0.2)).diagonalize(np.zeros(3), -np.zeros(3))
            assert shapes == [(0, size, size) for size in sizes if size > 1]

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    @pytest.mark.parametrize("env", [False, True])
    def test_free_slices_get_the_drift_eigensystem(self, n_sites, env):
        # a slice with r = 0 gets, bit for bit, the eigensystem that
        # eigh_stack gives for its block 0*field + drift [+ 0*star], whether
        # some or none of the other slices has a field
        ops = slice_operators(n_sites, env)
        dim = ops.m.size
        expected_evals, expected_rot = np.empty(dim), np.empty((dim, dim))
        for k, cols in enumerate(ops.sectors):
            block = 0.0 * ops.field[k] + ops.drift[k]
            if env:
                block += 0.0 * ops.star[k]
            lam, w = eigh_stack(block[None])
            expected_evals[cols] = lam[0]
            np.matmul(ops.basis[:, cols], w, out=expected_rot[None][:, :, cols])
        assert np.array_equal(ops.free_evals, expected_evals)
        assert np.array_equal(ops.free_rot, expected_rot)
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.3)
        hx, hy = np.array(EDGE_SLICES + [(1.1, 0.0), (0.0, 0.0)]).T
        free = np.hypot(hx, hy) == 0.0
        for fields in ((hx, hy), (0.0 * hx, -0.0 * hy)):
            kernel = SliceKernel(spec, np.full(len(hx), 0.2))
            kernel.diagonalize(*fields)
            zero = np.hypot(*fields) == 0.0
            assert np.all(kernel.evals[zero] == expected_evals)
            assert np.all(kernel.rot[zero] == expected_rot)
        # the slices with a field are unchanged by the free ones around them
        kernel = SliceKernel(spec, np.full(len(hx), 0.2))
        kernel.diagonalize(hx, hy)
        alone = SliceKernel(spec, np.full((~free).sum(), 0.2))
        alone.diagonalize(hx[~free], hy[~free])
        assert np.array_equal(kernel.evals[~free], alone.evals)
        assert np.array_equal(kernel.rot[~free], alone.rot)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([False, True]), st.floats(0.0, 3.0),
           st.sampled_from([0.0, 0.3]))
    def test_basis_block_diagonalizes_oracle(self, n_sites, env, r, gamma):
        # oracle: the dense inner matrix (hy = 0, so phi = 0), rotated by the
        # basis, vanishes between columns of different total Sx
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=gamma)
        q = n_sites + env
        basis = slice_operators(n_sites, env).basis
        sx_total = basis.T @ sum(on_sites(q, {k: SX}) for k in range(1, q + 1)).real @ basis
        assert np.max(np.abs(sx_total - np.diag(np.diag(sx_total)))) < 1e-12
        sector = np.round(np.diag(sx_total))
        inner = basis.T @ dense_slice_hamiltonians(spec, [r], [0.0])[0].real @ basis
        assert np.max(np.abs(inner[sector[:, None] != sector[None, :]])) < 1e-14

    @pytest.mark.parametrize("env", [False, True])
    def test_size_one_sectors_are_their_own_eigensystem(self, env):
        # the 1x1 sectors (all spins along +x or -x) are the first and the
        # last; their eigenvalues are the block entries r*field + drift
        # [+ s*star] and their rot columns the basis columns, bit for bit
        rng = np.random.default_rng(5)
        hx, hy = np.array(EDGE_SLICES + rng.uniform(-3.0, 3.0, (6, 2)).tolist()).T
        for n_sites in range(1, 5):
            spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.3)
            ops = slice_operators(n_sites, env)
            dim = spec.dim * (1 + env)
            assert (ops.sectors[0], ops.sectors[-1]) == (slice(0, 1), slice(dim - 1, dim))
            kernel = SliceKernel(spec, np.full(len(hx), 0.2))
            kernel.diagonalize(hx, hy)
            for k, col in ((0, 0), (-1, dim - 1)):
                entries = np.hypot(hx, hy) * ops.field[k][0, 0] + ops.drift[k][0, 0]
                if env:
                    entries += 0.3 * (np.abs(hx) + np.abs(hy)) * ops.star[k][0, 0]
                assert np.array_equal(kernel.evals[:, col], entries)
                columns = np.broadcast_to(ops.basis[:, col], (len(hx), dim))
                assert np.array_equal(kernel.rot[:, :, col], columns)

    @pytest.mark.parametrize("env", [False, True])
    def test_operators_built_once_and_read_only(self, env):
        ops = slice_operators(3, env)
        assert slice_operators(3, env) is ops
        # gamma enters the kernel, not the operators it shares
        for gamma in (0.0, 0.1, 0.3):
            spec = ChainSpec(n_sites=3, env_enabled=env, gamma=gamma)
            assert SliceKernel(spec, [0.2, 0.2]).ops is ops
        # one block per sector: 4 sectors on 3 qubits, 5 on 4
        assert len(ops.sectors) == len(ops.drift) == len(ops.field) == 4 + env
        for a in (ops.basis, ops.m, *ops.drift, *ops.field, *(ops.star if env else ()),
                  ops.free_evals, ops.free_rot):
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
        ops = slice_operators(2, False)
        assert ops.star is None
        assert ops.basis.shape == (4, 4) and sum(len(b) for b in ops.drift) == 4
        kernel = SliceKernel(ChainSpec(n_sites=2, gamma=0.3), [0.2])
        kernel.run(np.array([1.0]), np.array([0.0]))
        assert kernel.evals.shape == (1, 4) and kernel.rot.shape == (1, 4, 4)
        assert kernel.phase.shape == (1, 4) and kernel.fwd.shape == (2, 4, 4)

    def test_zero_pulses_decouple(self):
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.3)
        expected = np.kron(dense_operators(ChainSpec(n_sites=2))[0], I2)
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
        drift, sx1, sy1, _ = dense_operators(spec)
        u = np.eye(4, dtype=complex)
        for hx, hy in zip(seq.hx, seq.hy):
            h = drift + hx * sx1 + hy * sy1
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

    def test_bare_chain_ignores_gamma(self):
        # gamma scales only the star coupling, which the bare chain lacks, so
        # even a gamma whose coupling would overflow leaves it unchanged
        seq = random_seq(np.random.default_rng(44), 6, scale=5.0)
        expected = propagate(ChainSpec(n_sites=3, gamma=0.0), seq)
        assert np.array_equal(propagate(ChainSpec(n_sites=3, gamma=1e308), seq), expected)

    def test_each_kernel_owns_one_buffer(self):
        # a kernel's arrays are views of one allocation, so a new kernel maps
        # one block of memory rather than one per array; live kernels, equal
        # in size or not, never share memory
        def root(a):
            while a.base is not None:
                a = a.base
            return a

        env = ChainSpec(n_sites=3, env_enabled=True)
        objective = PulseObjective(
            ChainSpec(n_sites=3), TargetGate("NOT", 3), ControlSequence.zeros(8, 0.2, 10.0),
            ObjectiveConfig(mu=0.5),
        )
        kernels = [SliceKernel(env, np.full(n, 0.2)) for n in (12, 12, 5)]
        kernels += [SliceKernel(ChainSpec(n_sites=3), np.full(8, 0.2)), objective._kernel]
        buffers = []
        for k in kernels:
            arrays = (k.phase, k.fwd, k._stage, k.rot, k.evals, k.phi)
            [buffer] = {id(root(a)): root(a) for a in arrays}.values()
            assert buffer.flags.owndata
            buffers.append(buffer)
        for i, a in enumerate(buffers):
            assert not any(np.shares_memory(a, b) for b in buffers[i + 1:])

    def test_threads_match_serial_calls(self):
        # threads that propagate at once (more of them than cores, switching
        # often) never share a kernel's memory, so each call returns the bits
        # of the same call run serially
        rng = np.random.default_rng(45)
        spec = ChainSpec(n_sites=3, env_enabled=True, gamma=0.1)
        batches = []
        for _ in range(4):
            batch = []
            for n in rng.integers(4, 40, 50):
                hx, hy = np.where(rng.random((2, n)) < 0.3, rng.uniform(-2.0, 2.0, (2, n)), 0.0)
                batch.append(ControlSequence(hx=hx, hy=hy, dt=0.2, bound=10.0))
            batches.append(batch)
        serial = [[propagate(spec, seq) for seq in batch] for batch in batches]
        threaded = [None] * len(batches)

        def work(i):
            threaded[i] = [propagate(spec, seq) for seq in batches[i]]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, expected in zip(threaded, serial, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))

    def test_sparse_sets_match_across_blas_thread_counts(self):
        # the zero-field rows of sparse pulses (which no optimized pulse has)
        # come out bit for bit the same under one BLAS thread as under the
        # default count
        tests = Path(__file__).parent
        paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": "1"}
        code = "import test_model; print(test_model.sparse_propagate_digest())"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == sparse_propagate_digest()

    @pytest.mark.parametrize("env", [False, True])
    @pytest.mark.parametrize("case", PHASE_OVERFLOW, ids="-".join)
    def test_overflowing_phases_raise(self, case, env):
        # two equal slices, which propagate merges into one of duration 2*dt
        seq, _ = experiment(case, 2)
        with pytest.raises(ValueError, match="not finite"):
            propagate(ChainSpec(n_sites=3, env_enabled=env), seq)

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
                kernel = SliceKernel(spec, np.full(len(hx), 0.2))
                kernel.run(hx, hy)
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
        # without equal neighbours propagate is the kernel over every slice
        rng = np.random.default_rng(23)
        seq = random_seq(rng, 24)
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.1)
        kernel = SliceKernel(spec, np.full(seq.n, seq.dt))
        kernel.run(seq.hx, seq.hy)
        assert np.array_equal(propagate(spec, seq), kernel.fwd[-1])


def sparse_propagate_digest() -> str:
    """SHA-256 of the bare and environment (gamma = 0.1) propagators of six
    seeded N=4, n=256 pulse sets in which each axis carries a pulse on 10% of
    the slices."""
    digest = hashlib.sha256()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        hx, hy = np.where(rng.random((2, 256)) < 0.1, rng.uniform(-5.0, 5.0, (2, 256)), 0.0)
        seq = ControlSequence(hx=hx, hy=hy, dt=0.2, bound=5.0)
        for spec in (ChainSpec(n_sites=4), ChainSpec(n_sites=4, env_enabled=True, gamma=0.1)):
            digest.update(propagate(spec, seq).tobytes())
    return digest.hexdigest()


class TestTraceGradient:
    """SliceKernel.trace_gradient against central differences of Tr(A U) for
    a general complex A, with U from the dense reference."""

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_matches_central_differences(self, n_sites):
        rng = np.random.default_rng(60 + n_sites)
        spec, dt, step = ChainSpec(n_sites=n_sites), 0.2, 1e-5
        a = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        # fields of exactly 0.0 and -0.0 (phi taken as 0), and two equal slices
        hx = np.array([0.0, 0.0, 0.7, 0.7, -1.2, 0.4])
        hy = np.array([0.0, -0.0, -0.4, -0.4, 0.0, -1.1])
        kernel = SliceKernel(spec, np.full(hx.size, dt))
        kernel.run(hx, hy)
        got = kernel.trace_gradient(a @ kernel.fwd[-1])
        x = np.concatenate([hx, hy])
        fd = np.empty(x.size, dtype=complex)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = step
            plus, minus = (np.trace(a @ dense_propagator(spec, *np.split(x + sign * e, 2), dt))
                           for sign in (1, -1))
            fd[i] = (plus - minus) / (2 * step)
        assert np.max(np.abs(got - fd)) < 1e-8 * spec.dim

    def test_keeps_the_eigensystem_and_total_propagator(self):
        rng = np.random.default_rng(3)
        kernel = SliceKernel(ChainSpec(n_sites=3), np.full(8, 0.2))
        kernel.run(*rng.uniform(-1.0, 1.0, (2, 8)))
        kept = [kernel.evals.copy(), kernel.rot.copy(), kernel.phase.copy(), kernel.fwd[-1].copy()]
        kernel.trace_gradient(kernel.fwd[-1].conj().T)
        for before, after in zip(kept, (kernel.evals, kernel.rot, kernel.phase, kernel.fwd[-1])):
            assert np.array_equal(before, after)

    def test_merged_runs_sum_their_slices(self):
        # a run of k equal slices merged into one slice of duration k*dt, as
        # propagate merges them: its derivative is the sum of the k slices'
        # derivatives
        rng = np.random.default_rng(71)
        spec, dt = ChainSpec(n_sites=3), 0.2
        lengths = np.array([3, 1, 4, 2, 1])
        fields = rng.uniform(-1.5, 1.5, (2, lengths.size))
        fields[:, 1] = 0.0
        starts = np.r_[0, np.cumsum(lengths)[:-1]]
        a = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        merged = SliceKernel(spec, dt * lengths)
        merged.run(*fields)
        got = merged.trace_gradient(a @ merged.fwd[-1])
        slices = SliceKernel(spec, np.full(lengths.sum(), dt))
        slices.run(*np.repeat(fields, lengths, axis=1))
        per_slice = slices.trace_gradient(a @ slices.fwd[-1])
        summed = np.add.reduceat(per_slice.reshape(2, -1), starts, axis=1).reshape(-1)
        assert np.max(np.abs(got - summed)) < 1e-10 * max(1.0, np.max(np.abs(summed)))

    def test_rejects_environment_kernel(self):
        # the star coupling s_j = gamma*(|hx_j| + |hy_j|) depends on the fields
        # too, and trace_gradient does not differentiate it
        kernel = SliceKernel(ChainSpec(n_sites=2, env_enabled=True, gamma=0.3), np.full(3, 0.2))
        kernel.run(np.array([0.4, 0.0, -0.3]), np.array([0.1, 0.0, 0.9]))
        with pytest.raises(ValueError, match="bare chain only"):
            kernel.trace_gradient(kernel.fwd[-1].conj().T)


def test_reinterpret_rejects_non_contiguous():
    a = np.zeros((4, 4), dtype=np.complex128)
    with pytest.raises(ValueError):
        _reinterpret(a[:, ::2], np.float64, (4, 4))


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
        drift_u = scipy.linalg.expm(-1j * 5 * 0.2 * dense_operators(ChainSpec(n_sites=2))[0])
        assert np.allclose(propagate_with_env(spec, seq), np.kron(drift_u, I2), atol=1e-10)

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(13)
        spec = ChainSpec(n_sites=2, env_enabled=True, gamma=0.1)
        seq = random_seq(rng, 4)
        u = np.eye(8, dtype=complex)
        for hx, hy in zip(seq.hx, seq.hy):
            u = scipy.linalg.expm(-1j * seq.dt * env_oracle_n2(0.1, hx, hy)) @ u
        assert np.allclose(propagate_with_env(spec, seq), u, atol=1e-10)


class TestMpReference:
    """``propagate`` against the 40-digit ``mp_propagator``, entry by entry.
    Each sequence has three distinct slices, a run of three equal ones and a
    zero-field run whose second slice is -0.0, at dt = 0.5: ``propagate``
    merges the runs into slices of duration 1.5 and 1.0, the reference does
    not. The largest error measured is 1.3e-15 (bound 5e-14); 1e-10 added to
    the slice phases dt*evals in ``SliceKernel.forward`` gives 3.1e-10 to
    4.2e-10, and fails every case."""

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(1), ChainSpec(2), ChainSpec(3)]
        + [ChainSpec(n, env_enabled=True, gamma=g) for n in (1, 2) for g in (0.1, 0.3)],
        ids=lambda spec: f"N{spec.n_sites}" + (f"_env{spec.gamma}" if spec.env_enabled else ""),
    )
    def test_propagate_matches(self, spec):
        rng = np.random.default_rng(spec.n_sites)
        hx, hy = rng.uniform(-3.0, 3.0, (2, 4))
        hx = np.r_[hx[:3], hx[3], hx[3], hx[3], 0.0, -0.0]
        hy = np.r_[hy[:3], hy[3], hy[3], hy[3], 0.0, 0.0]
        seq = ControlSequence(hx=hx, hy=hy, dt=0.5, bound=10.0)
        assert np.max(np.abs(propagate(spec, seq) - mp_propagator(spec, seq))) < 5e-14


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

    @pytest.mark.parametrize("case", PHASE_OVERFLOW, ids="-".join)
    def test_overflowing_phases_raise(self, case):
        seq, _ = experiment(case, 2)
        with pytest.raises(ValueError, match="not finite"):
            bloch_trajectories(ChainSpec(n_sites=3), seq, "000")

    def test_checks_each_slice_not_the_run(self):
        # no slices are merged, so one slice's phases bound them all: here
        # finite, while a run of both slices would overflow in propagate
        spec = ChainSpec(n_sites=3)
        seq = ControlSequence.zeros(2, 0.75 * np.finfo(float).max / spec.norm_bound(50.0), 50.0)
        assert np.all(np.isfinite(bloch_trajectories(spec, seq, "000")))
        with pytest.raises(ValueError, match="not finite"):
            propagate(spec, seq)

    def test_invalid_label(self):
        spec = ChainSpec(n_sites=2)
        seq = ControlSequence.zeros(2, 0.2, 10.0)
        with pytest.raises(ValueError):
            bloch_trajectories(spec, seq, "012")
        with pytest.raises(ValueError):
            bloch_trajectories(spec, seq, "0")
        with pytest.raises(ValueError):
            bloch_trajectories(ChainSpec(n_sites=3), seq, " 000 ")
        with pytest.raises(ValueError):
            bloch_trajectories(ChainSpec(n_sites=2, env_enabled=True), seq, "01")
        # only a str is a label; these used to raise TypeError
        for label in (0, None, b"000", ["0", "0", "0"]):
            with pytest.raises(ValueError):
                bloch_trajectories(ChainSpec(n_sites=3), seq, label)


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
    @given(st.sampled_from([1, 2, 3, 4]), st.floats(-np.pi, np.pi), pulse_lists)
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
    @given(st.sampled_from([1, 2, 3, 4]), st.sampled_from([False, True]), pulse_lists)
    def test_global_spin_flip(self, n_sites, env, pulses):
        # hy -> -hy conjugates U by X on every qubit, the environment's included
        hx, hy = np.array(pulses).T
        spec = ChainSpec(n_sites=n_sites, env_enabled=env, gamma=0.1)
        run = propagate_with_env if env else propagate
        u = run(spec, ControlSequence(hx=hx, hy=hy, dt=0.2, bound=5.0))
        u_flip = run(spec, ControlSequence(hx=hx, hy=-hy, dt=0.2, bound=5.0))
        x = flip_all(n_sites + env)
        assert np.max(np.abs(u_flip - x @ u @ x)) < 1e-12
