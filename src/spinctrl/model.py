"""Heisenberg spin-chain model and its slice kernel.

One kernel, ``SliceKernel(spec, n)``, owns the arrays of a run of n slices
on the bare chain or on chain + environment qubit: it allocates them once,
and each ``run(hx, hy, dt)`` fills them in place with the eigensystem of
every piecewise-constant slice Hamiltonian and the cumulative propagators
U_j ... U_1 (its ``forward`` stage is the only place where slice propagators
are formed or multiplied). ``propagate`` and ``bloch_trajectories`` build a
kernel per call and read the last propagator or every slice boundary from
it; ``propagate`` needs no inner boundary, so it runs each run of equal
slices as one slice of the run's duration. The pulse objective keeps one
kernel of every slice for its whole life, so that its evaluations reuse the
same memory, and assembles its gradient from it.

The kernel works in the chain's symmetry sectors. The isotropic drift and
star coupling commute with rotations about z, so a slice with field (hx, hy)
is H = D (H0 + r*Sx^1 [+ s*star]) D^dag with r = |h|, phi = atan2(hy, hx)
and the diagonal D = exp(-i*phi*Sz_total/2). The inner matrix is real and
conserves the total Sx, so in the real orthogonal basis of Sx product states
it splits into one real block per total-Sx sector, of sizes C(n, k) on n
qubits (1/4/6/4/1 at N=4, 1/5/10/10/5/1 with the environment qubit). These
blocks are the only matrices that are diagonalized (``eigh_stack``), and the
eigenvectors stay factored as V = D R with R real, so that each slice
propagator is formed from real products. No dense slice Hamiltonian is built.

Conventions: spin operators are the bare Pauli matrices, and qubit 1 is the
most significant bit of a basis index (an environment qubit is the last).
The fixed operators are real matrices of basis-index permutations: Sx^1
flips a bit, and each exchange term Sx^i Sx^j + Sy^i Sy^j + Sz^i Sz^j is
2*SWAP_ij - I (Dirac's exchange identity). Control-field amplitudes are in
units of the chain coupling and times in its inverse. Slice 1 of a control
sequence acts first, so the total propagator is U_n ... U_2 U_1.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry and couplings, in units of the exchange coupling.

    ``gamma`` scales the star coupling between every chain site and the
    extra environment qubit used when ``env_enabled`` is set; the coupling
    is additionally proportional to the per-slice pulse magnitude.
    """

    n_sites: int
    env_enabled: bool = False
    gamma: float = 0.1

    def __post_init__(self):
        if isinstance(self.n_sites, bool) or not isinstance(self.n_sites, numbers.Integral):
            raise ValueError(f"n_sites must be an integer, not {self.n_sites!r}")
        if self.n_sites < 1:
            raise ValueError("chain needs at least one site")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be non-negative and finite")

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def norm_bound(self, amplitude: float) -> float:
        """An upper bound on the norm of every slice Hamiltonian whose fields
        have |hx|, |hy| <= amplitude: 3 per exchange pair of the drift,
        |h| <= sqrt(2)*amplitude for the field on site 1 and, with the
        environment qubit, s <= 2*gamma*amplitude times 3 per star pair."""
        n = self.n_sites
        norm = 3.0 * (n - 1) + math.sqrt(2.0) * amplitude
        if self.env_enabled:
            norm += 6.0 * n * self.gamma * amplitude
        return norm


@dataclass(frozen=True)
class ControlSequence:
    """Piecewise-constant pulse amplitudes (hx, hy) with slice duration dt.

    Amplitudes must respect |h| <= bound; the optimizer keeps iterates inside
    the box by projection.
    """

    hx: np.ndarray
    hy: np.ndarray
    dt: float
    bound: float

    def __post_init__(self):
        hx = np.atleast_1d(np.asarray(self.hx, dtype=np.float64))
        hy = np.atleast_1d(np.asarray(self.hy, dtype=np.float64))
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hy", hy)
        if hx.ndim != 1 or hx.shape != hy.shape:
            raise ValueError("hx and hy must be 1-D arrays of equal length")
        if hx.size < 1:
            raise ValueError("at least one pulse slice is required")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError("bound must be positive and finite")
        if not (np.all(np.isfinite(hx)) and np.all(np.isfinite(hy))):
            raise ValueError("pulse amplitudes must be finite")
        if max(np.max(np.abs(hx)), np.max(np.abs(hy))) > self.bound + 1e-12:
            raise ValueError("pulse amplitudes exceed the bound")

    @property
    def n(self) -> int:
        return int(self.hx.size)

    def pulse_vector(self) -> np.ndarray:
        """Flat parameter vector [hx_1..hx_n, hy_1..hy_n]."""
        return np.concatenate([self.hx, self.hy])

    @classmethod
    def from_vector(cls, x: np.ndarray, dt: float, bound: float) -> "ControlSequence":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size % 2 != 0:
            raise ValueError("pulse vector must be 1-D with even length")
        n = x.size // 2
        return cls(hx=x[:n].copy(), hy=x[n:].copy(), dt=dt, bound=bound)

    @classmethod
    def zeros(cls, n: int, dt: float, bound: float) -> "ControlSequence":
        return cls(hx=np.zeros(n), hy=np.zeros(n), dt=dt, bound=bound)


@dataclass(frozen=True)
class TargetGate:
    """Target operation: negate the last qubit (NOT) or swap the last two (SWAP)."""

    kind: str
    n_sites: int

    def __post_init__(self):
        if self.kind not in ("NOT", "SWAP"):
            raise ValueError(f"unknown target kind {self.kind!r}; expected 'NOT' or 'SWAP'")
        if isinstance(self.n_sites, bool) or not isinstance(self.n_sites, numbers.Integral):
            raise ValueError(f"n_sites must be an integer, not {self.n_sites!r}")
        minimum = 1 if self.kind == "NOT" else 2
        if self.n_sites < minimum:
            raise ValueError(f"{self.kind} requires at least {minimum} sites")


def _flip(n_qubits: int, q: int) -> np.ndarray:
    """Basis-index map of the bit flip of qubit q (1-based) on n_qubits qubits."""
    return np.arange(2**n_qubits) ^ (1 << (n_qubits - q))


def _swap(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Basis-index map that exchanges the bits of qubits i and j (see ``_flip``)."""
    k = np.arange(2**n_qubits)
    mask = (1 << (n_qubits - i)) | (1 << (n_qubits - j))
    # Equal bits (both 0 or both 1) stay; unequal ones both flip.
    return np.where(np.isin(k & mask, (0, mask)), k, k ^ mask)


def _permutation(index_map: np.ndarray) -> np.ndarray:
    """Real permutation matrix P with P|k> = |index_map[k]>."""
    return np.eye(index_map.size)[:, index_map]


def target_unitary(target: TargetGate) -> np.ndarray:
    """The target gate as a dense unitary on the full chain."""
    n = target.n_sites
    index_map = _flip(n, n) if target.kind == "NOT" else _swap(n, n - 1, n)
    return _permutation(index_map).astype(np.complex128)


def _exchange_sum(pairs, n_qubits: int) -> np.ndarray:
    """Sum over qubit pairs (i, j) of Sx^i Sx^j + Sy^i Sy^j + Sz^i Sz^j on
    n_qubits qubits. Each term is 2*SWAP_ij - I (Dirac's exchange identity)."""
    eye = np.eye(2**n_qubits)
    return sum((2.0 * _permutation(_swap(n_qubits, i, j)) - eye for i, j in pairs), 0.0 * eye)


def drift_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Unit isotropic nearest-neighbour Heisenberg coupling, a real matrix;
    zero for a single site."""
    n = spec.n_sites
    return _exchange_sum([(i, i + 1) for i in range(1, n)], n)


def _sector_basis(weight: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Real orthogonal basis of the total-Sx sectors, and its column groups.

    ``weight`` holds popcount(c) for every index c. Column c of H^⊗n (H the
    2x2 Hadamard matrix), whose entry r is (-1)^popcount(r & c) / sqrt(2)^n,
    is a product of Sx eigenstates with total Sx = n - 2*popcount(c), so the
    sector of weight w has C(n, w) columns. The returned basis holds these
    columns grouped by sector size, smallest first, and each group is the
    (count, size) of its run of ``count`` sectors of ``size`` columns, weight
    by weight.
    """
    n_qubits = len(weight).bit_length() - 1
    k = np.arange(len(weight))
    scale = math.prod([1.0 / math.sqrt(2.0)] * n_qubits)
    hadamard = scale * (1 - 2 * (weight[k[:, None] & k] % 2))
    sizes = np.array([math.comb(n_qubits, w) for w in range(n_qubits + 1)])
    counts = collections.Counter(sizes.tolist())
    order = np.lexsort((weight, sizes[weight]))
    return hadamard[:, order], tuple((counts[size], size) for size in sorted(counts))


def _group_columns(a: np.ndarray, start: int, count: int, size: int) -> np.ndarray:
    """View of the columns start .. start + count*size of ``a`` (..., dim, dim)
    as ``count`` sectors of ``size`` columns, shape (..., count, dim, size)."""
    cols = a[..., start : start + count * size]
    return cols.reshape(*cols.shape[:-1], count, size).swapaxes(-2, -3)


def _sector_blocks(basis: np.ndarray, groups, op: np.ndarray) -> tuple[np.ndarray, ...]:
    """The diagonal blocks of a real operator that conserves total Sx, one
    stack (count, size, size) per column group of ``basis``, symmetrized."""
    blocks, start = [], 0
    for count, size in groups:
        q = _group_columns(basis, start, count, size)
        b = q.swapaxes(-1, -2) @ op @ q
        blocks.append((b + b.swapaxes(-1, -2)) / 2.0)
        start += count * size
    return tuple(blocks)


@dataclass(frozen=True)
class SliceOperators:
    """The fixed operators of a chain's slice Hamiltonians.

    ``basis`` (see ``_sector_basis``) is the real orthogonal basis whose
    columns span the total-Sx sectors, grouped by sector size. ``drift``,
    ``field`` (Sx on site 1) and ``star`` (the environment coupling) hold
    their real sector blocks, one stack (count, size, size) per group.
    ``star`` is None on the bare chain, where every operator acts on the
    chain alone. ``m`` is the total Sz of each computational basis state.
    """

    basis: np.ndarray
    m: np.ndarray
    drift: tuple[np.ndarray, ...]
    field: tuple[np.ndarray, ...]
    star: tuple[np.ndarray, ...] | None
    gamma: float


@functools.lru_cache
def slice_operators(spec: ChainSpec) -> SliceOperators:
    """Operators of the ``SliceKernel`` of ``spec``; the environment qubit
    is appended last when ``spec.env_enabled`` is set.

    Built once per spec and shared by every caller, so the arrays are
    read-only."""
    n = spec.n_sites
    n_qubits = n + 1 if spec.env_enabled else n
    drift = _exchange_sum([(i, i + 1) for i in range(1, n)], n_qubits)
    star = None
    if spec.env_enabled:
        star = _exchange_sum([(i, n_qubits) for i in range(1, n_qubits)], n_qubits)
    weight = ((np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)) & 1).sum(axis=1)
    basis, groups = _sector_basis(weight)
    ops = SliceOperators(
        basis=basis,
        m=(n_qubits - 2 * weight).astype(np.float64),
        drift=_sector_blocks(basis, groups, drift),
        field=_sector_blocks(basis, groups, _permutation(_flip(n_qubits, 1))),
        star=None if star is None else _sector_blocks(basis, groups, star),
        gamma=spec.gamma,
    )
    for a in (ops.basis, ops.m, *ops.drift, *ops.field, *(ops.star or ())):
        a.setflags(write=False)
    return ops


def eigh_stack(h_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigendecomposition of a stack of real symmetric (or Hermitian)
    matrices; only their lower triangles are read."""
    return np.linalg.eigh(h_stack)


class SliceKernel:
    """The slice kernel of a chain for ``n`` slices, and the arrays it fills.

    The arrays are allocated once, here, and every ``run(hx, hy, dt)``
    overwrites them in place:

    - ``evals`` (n, dim), ``rot`` (n, dim, dim) real orthogonal and ``phase``
      (n, dim): the factored eigensystem of every slice Hamiltonian, with
      eigenvectors V = phase[:, :, None] * rot (see ``diagonalize``);
    - ``phi`` (n,): the field angle of each slice, 0 where the field is 0;
    - ``fwd`` (n + 1, dim, dim): entry 0 is the identity and entry j is
      U_j ... U_2 U_1 (see ``forward``);
    - ``stage`` (n, 2*dim, dim), real: scratch of the forward stage, whose
      second real stack of that size is the memory of fwd[1:].

    A caller may use ``stage`` and ``fwd`` as scratch once it has read them,
    and copies whatever it keeps past the next run.
    """

    def __init__(self, spec: ChainSpec, n: int):
        self.ops = slice_operators(spec)
        self.n, self.dim = int(n), self.ops.m.size
        n, dim = self.n, self.dim
        self.evals = np.empty((n, dim))
        self.rot = np.empty((n, dim, dim))
        self.phi = np.empty(n)
        self.phase = np.empty((n, dim), dtype=np.complex128)
        self.fwd = np.empty((n + 1, dim, dim), dtype=np.complex128)
        self.stage = np.empty((n, 2 * dim, dim))

    def run(self, hx: np.ndarray, hy: np.ndarray, dt: float | np.ndarray) -> None:
        """Fill the eigensystem and the cumulative propagators of the slices
        with fields (hx_j, hy_j) and duration dt (see ``forward``)."""
        self.diagonalize(hx, hy)
        self.forward(dt)

    def diagonalize(self, hx: np.ndarray, hy: np.ndarray) -> None:
        """Eigensystem of every slice Hamiltonian H_j = drift + hx_j*Sx^1 +
        hy_j*Sy^1 [+ s_j*star], where s_j = gamma*(|hx_j| + |hy_j|) couples
        the environment qubit.

        With r = |h_j|, phi = atan2(hy_j, hx_j) and D = diag(exp(-i*phi*m/2)),
        H_j = D (drift + r*Sx^1 [+ s_j*star]) D^dag. The inner matrix is real
        and conserves the total Sx, so it is diagonalized sector by sector,
        with one ``eigh_stack`` call per sector size above 1, and
        rot = basis * blockdiag(W). A 1x1 sector (all spins along +x or -x)
        is its own eigensystem. At r = 0 the inner matrix commutes with D and
        phi is taken as 0.
        """
        ops, n = self.ops, self.n
        if np.shape(hx) != (n,) or np.shape(hy) != (n,):
            raise ValueError(f"expected {n} field values per axis")
        r = np.hypot(hx, hy)
        self.phi[...] = np.where(r > 0.0, np.arctan2(hy, hx), 0.0)
        np.exp(-0.5j * self.phi[:, None] * ops.m, out=self.phase)
        s = ops.gamma * (np.abs(hx) + np.abs(hy))
        # Each group's blocks and star term are built in stage, which is free
        # until the forward stage and holds two stacks of n*dim^2 entries, and
        # one group has at most n*dim^2. The blocks are exactly symmetric, as
        # drift, field and star are, so eigh_stack may read one triangle.
        scratch = self.stage.reshape(-1)
        start = 0
        for g, (drift, field) in enumerate(zip(ops.drift, ops.field)):
            count, size = drift.shape[:2]
            shape = (n, count, size, size)
            blocks, coupling = scratch[: 2 * math.prod(shape)].reshape(2, *shape)
            np.multiply(r[:, None, None, None], field, out=blocks)
            blocks += drift
            if ops.star is not None:
                np.multiply(s[:, None, None, None], ops.star[g], out=coupling)
                blocks += coupling
            stop = start + count * size
            if size == 1:
                # A 1x1 block is its own eigenvalue, with eigenvector 1.
                self.evals[:, start:stop] = blocks.reshape(n, count)
                self.rot[:, :, start:stop] = ops.basis[:, start:stop]
            else:
                lam, w = eigh_stack(blocks)
                self.evals[:, start:stop] = lam.reshape(n, count * size)
                # rot's columns of this group: the basis columns of each sector times W.
                np.matmul(
                    _group_columns(ops.basis, start, count, size),
                    w,
                    out=_group_columns(self.rot, start, count, size),
                )
            start = stop

    def forward(self, dt: float | np.ndarray) -> None:
        """Cumulative propagators of the eigensystem held in ``evals``, ``rot``
        and ``phase``: U_j = D_j R_j exp(-i*dt*evals_j) R_j^T D_j^dag with
        D_j = diag(phase_j), i.e. the elementwise product of
        phase_k*conj(phase_l) with R cos(dt*evals) R^T - i R sin(dt*evals) R^T.
        ``dt`` is one duration for every slice, or an (n, 1) column of
        per-slice durations broadcast against ``evals``.
        This is the only place where slice propagators are formed or
        multiplied."""
        n, dim, rot, fwd = self.n, self.dim, self.rot, self.fwd
        trig = np.stack([np.cos(dt * self.evals), -np.sin(dt * self.evals)], axis=1)
        # R cos R^T over -R sin R^T: both real products in one, stacked by rows,
        # written into fwd[1:] until the propagators are assembled in stage.
        np.multiply(rot[:, None], trig[:, :, None, :], out=self.stage.reshape(n, 2, dim, dim))
        parts = linalg.reinterpret(fwd[1:], np.float64, (n, 2 * dim, dim))
        np.matmul(self.stage, rot.swapaxes(-1, -2), out=parts)
        props = linalg.reinterpret(self.stage, np.complex128, (n, dim, dim))
        props.real = parts[:, :dim]
        props.imag = parts[:, dim:]
        props *= self.phase[:, :, None]
        props *= self.phase.conj()[:, None, :]
        fwd[0] = np.eye(dim)
        for j in range(n):
            np.matmul(props[j], fwd[j], out=fwd[j + 1])


def propagate(spec: ChainSpec, seq: ControlSequence) -> np.ndarray:
    """Total unitary generated by the control sequence, on chain + environment
    qubit when ``spec.env_enabled`` is set and on the bare chain otherwise.

    Equal fields give equal slice Hamiltonians, the environment coupling
    s_j = gamma*(|hx_j| + |hy_j|) included, so a run of k consecutive slices
    with equal (hx, hy) is exp(-i*k*dt*H): it is propagated as one slice of
    duration k*dt. (0.0 and -0.0 count as equal: they give the same H.)"""
    hx, hy = seq.hx, seq.hy
    starts = np.flatnonzero(np.r_[True, (hx[1:] != hx[:-1]) | (hy[1:] != hy[:-1])])
    lengths = np.diff(np.r_[starts, seq.n])
    kernel = SliceKernel(spec, starts.size)
    kernel.run(hx[starts], hy[starts], seq.dt * lengths[:, None])
    # A copy, so that the caller does not keep the kernel's arrays alive.
    return kernel.fwd[-1].copy()


def propagate_with_env(spec: ChainSpec, seq: ControlSequence) -> np.ndarray:
    """Total unitary on chain + environment qubit, with pulse-proportional coupling."""
    if not spec.env_enabled:
        raise ValueError("environment qubit is not enabled in this ChainSpec")
    return propagate(spec, seq)


def bloch_trajectories(
    spec: ChainSpec, seq: ControlSequence, initial_state: str
) -> np.ndarray:
    """Per-qubit Bloch vectors at every slice boundary.

    ``initial_state`` is an N-character bit string labelling a computational
    basis state; qubit 1 is the leftmost character. Returns an array of shape
    (n + 1, n_sites, 3) holding (<sx>, <sy>, <sz>) for each qubit, with row 0
    the initial state.
    """
    label = initial_state.strip()
    if len(label) != spec.n_sites or any(c not in "01" for c in label):
        raise ValueError(
            f"initial state {initial_state!r} is not a {spec.n_sites}-bit string"
        )
    if spec.env_enabled:
        raise ValueError("Bloch trajectories are defined on the bare chain only")
    kernel = SliceKernel(spec, seq.n)
    kernel.run(seq.hx, seq.hy, seq.dt)
    # psi[j]: the state after the first j slices.
    psi = kernel.fwd[:, :, int(label, 2)]
    # flip[k, q - 1] is index k with qubit q flipped, and sign[k, q - 1] the sz
    # eigenvalue of qubit q in k: +1 where the flip raises the index. So
    # sx|k> = |flip>, sy|k> = i*sign|flip> and, with pair = conj(psi_k)*psi_flip,
    # <sx> = sum_k pair, <sy> = Im sum_k sign*pair and <sz> = sum_k sign*|psi_k|^2.
    flip = np.stack([_flip(spec.n_sites, q) for q in range(1, spec.n_sites + 1)], axis=1)
    sign = np.sign(flip - np.arange(spec.dim)[:, None])
    pair = psi.conj()[:, :, None] * psi[:, flip]
    out = np.empty((seq.n + 1, spec.n_sites, 3))
    out[..., 0] = pair.sum(axis=1).real
    out[..., 1] = (sign * pair).sum(axis=1).imag
    out[..., 2] = (np.abs(psi) ** 2) @ sign
    return out
