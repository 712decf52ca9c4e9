"""Heisenberg spin-chain model and its slice kernel.

One kernel, ``SliceKernel(spec, durations)``, owns the arrays of slices of
the given durations on the bare chain or on chain + environment qubit: they
share one buffer, set up once, and each ``run(hx, hy)`` fills them in place
with the eigensystem of every piecewise-constant slice Hamiltonian and the
cumulative propagators U_j ... U_1 (its ``forward`` stage is the only place
where slice propagators are formed or multiplied). ``propagate`` and
``bloch_trajectories`` build a kernel per call and read the last propagator or
every slice boundary from it; ``propagate`` needs no inner boundary, so it
gives each run of equal slices one slice of the run's duration. The pulse
objective keeps one kernel of every slice for its whole life, so that its
evaluations reuse the same memory, and takes its gradient from the kernel's
``trace_gradient``.

The kernel works in the chain's symmetry sectors. The isotropic drift and
star coupling commute with rotations about z, so a slice with field (hx, hy)
is H = D (H0 + r*Sx^1 [+ s*star]) D^dag with r = |h|, phi = atan2(hy, hx)
and the diagonal D = exp(-i*phi*Sz_total/2). The inner matrix is real and
conserves the total Sx, so in the real orthogonal basis of Sx product states
it splits into one real block per total-Sx sector, of sizes C(n, k) on n
qubits (1/4/6/4/1 at N=4, 1/5/10/10/5/1 with the environment qubit). That
basis is H^⊗n (H the Hadamard matrix), so each block is an exact integer
submatrix (see ``slice_operators``). These blocks are the only matrices that
are diagonalized, one sector at a time (``eigh_stack`` on that sector's block
of every slice with a field; a slice without one gets the drift's eigensystem,
stored with the operators), and the eigenvectors stay factored as V = D R with
R real, so that each slice propagator is formed from real products. No dense slice
Hamiltonian is built. The blocks depend only on the chain length and the
environment flag; the kernel scales the star blocks by gamma itself.

Conventions: spin operators are the bare Pauli matrices, and qubit 1 is the
most significant bit of a basis index (an environment qubit is the last).
The fixed operators are real matrices of basis-index permutations: Sx^1
flips a bit, and each exchange term Sx^i Sx^j + Sy^i Sy^j + Sz^i Sz^j is
2*SWAP_ij - I (Dirac's exchange identity). Control-field amplitudes are in
units of the chain coupling and times in its inverse. Slice 1 of a control
sequence acts first, so the total propagator is U_n ... U_2 U_1.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


def check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, not {value}")


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
               closed: bool = True) -> float:
    """``float(value)``. Raise ValueError unless ``value`` is a real number (not a bool) whose
    float exists, is finite and lies in [low, high], or in (low, high) unless ``closed``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int or a Fraction beyond the float range
        x = math.nan
    if not (math.isfinite(x) and (low <= x <= high if closed else low < x < high)):
        left = "[" if closed and low > -math.inf else "("
        right = "]" if closed and high < math.inf else ")"
        raise ValueError(f"{name} must be a finite real number in {left}{low:g}, {high:g}{right}")
    return x


def numeric_array(name: str, value, dtype=np.float64) -> np.ndarray:
    """``value`` as a ``dtype`` array, not copied if it is one. Raise ValueError unless its entries
    are integers or reals, or complex for a complex ``dtype``: no numeric string and no bool."""
    a, complex_ok = np.asarray(value), np.dtype(dtype).kind == "c"
    if a.dtype.kind not in ("iuf" + "c" * complex_ok):
        raise ValueError(f"{name} must hold {'' if complex_ok else 'real '}numbers, not {a.dtype}")
    return a.astype(dtype, copy=False)


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry and couplings, in units of the exchange coupling.

    ``gamma``, held as a float >= 0, scales the star coupling between every chain site and the
    extra environment qubit used when ``env_enabled`` is set; the coupling
    is additionally proportional to the per-slice pulse magnitude.
    """

    n_sites: int
    env_enabled: bool = False
    gamma: float = 0.1

    def __post_init__(self):
        check_count("n_sites", self.n_sites, 1)
        if not isinstance(self.env_enabled, bool):
            raise ValueError(f"env_enabled must be a bool, not {self.env_enabled!r}")
        object.__setattr__(self, "gamma", check_real("gamma", self.gamma, 0.0))

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

    def check_phase(self, duration: float, amplitude: float) -> None:
        """Raise ValueError unless slices of this duration and amplitude have finite phases."""
        if not math.isfinite(float(duration) * self.norm_bound(float(amplitude))):
            raise ValueError(f"the phases of slices of duration {duration} at amplitude "
                             f"{amplitude} are not finite; reduce dt, gamma or bound")


@dataclass(frozen=True)
class ControlSequence:
    """Piecewise-constant pulse amplitudes (hx, hy) with slice duration dt,
    held as float64 arrays and floats.

    Amplitudes must respect |h| <= bound exactly; the optimizer keeps iterates
    inside the box by projection, which lands on ±bound itself.
    """

    hx: np.ndarray
    hy: np.ndarray
    dt: float
    bound: float

    def __post_init__(self):
        hx = np.atleast_1d(numeric_array("hx", self.hx))
        hy = np.atleast_1d(numeric_array("hy", self.hy))
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hy", hy)
        if hx.ndim != 1 or hx.shape != hy.shape:
            raise ValueError("hx and hy must be 1-D arrays of equal length")
        if hx.size < 1:
            raise ValueError("at least one pulse slice is required")
        for name in ("dt", "bound"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, closed=False))
        if not (np.all(np.isfinite(hx)) and np.all(np.isfinite(hy))):
            raise ValueError("pulse amplitudes must be finite")
        if max(np.max(np.abs(hx)), np.max(np.abs(hy))) > self.bound:
            raise ValueError("pulse amplitudes exceed the bound")

    @property
    def n(self) -> int:
        return int(self.hx.size)

    def pulse_vector(self) -> np.ndarray:
        """Flat parameter vector [hx_1..hx_n, hy_1..hy_n]."""
        return np.concatenate([self.hx, self.hy])

    @classmethod
    def from_vector(cls, x: np.ndarray, dt: float, bound: float) -> "ControlSequence":
        x = numeric_array("x", x)
        if x.ndim != 1 or x.size % 2 != 0:
            raise ValueError("pulse vector must be 1-D with even length")
        n = x.size // 2
        return cls(hx=x[:n].copy(), hy=x[n:].copy(), dt=dt, bound=bound)

    @classmethod
    def zeros(cls, n: int, dt: float, bound: float) -> "ControlSequence":
        check_count("n", n, 1)
        return cls(hx=np.zeros(n), hy=np.zeros(n), dt=dt, bound=bound)


@dataclass(frozen=True)
class TargetGate:
    """Target operation: negate the last qubit (NOT) or swap the last two (SWAP)."""

    kind: str
    n_sites: int

    def __post_init__(self):
        if self.kind not in ("NOT", "SWAP"):
            raise ValueError(f"unknown target kind {self.kind!r}; expected 'NOT' or 'SWAP'")
        check_count("n_sites", self.n_sites, 1 if self.kind == "NOT" else 2)


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


@dataclass(frozen=True)
class SliceOperators:
    """The fixed operators of a chain's slice Hamiltonians.

    ``basis`` is the real orthogonal Hadamard basis H^⊗n of Sx product
    states, its columns sorted by total Sx from +n down, and ``sectors``
    holds the slice of each sector's columns in it. ``drift``, ``field`` (Sx
    on site 1) and ``star`` (the environment coupling) hold their real
    (size, size) block of each sector, exact submatrices with integer
    entries. ``star`` is None on the bare chain, where every operator acts
    on the chain alone. ``m`` is the total Sz of each computational basis
    state. ``free_evals`` (dim,) and ``free_rot`` (dim, dim) are the
    eigensystem of a slice with zero field (free evolution under the drift),
    as ``SliceKernel.diagonalize`` would compute it.
    """

    basis: np.ndarray
    sectors: tuple[slice, ...]
    m: np.ndarray
    drift: tuple[np.ndarray, ...]
    field: tuple[np.ndarray, ...]
    star: tuple[np.ndarray, ...] | None
    free_evals: np.ndarray
    free_rot: np.ndarray


@functools.cache
def slice_operators(n_sites: int, env_enabled: bool) -> SliceOperators:
    """Operators of the slice kernel of an ``n_sites`` chain; the environment
    qubit is appended last when ``env_enabled`` is set. They do not depend on
    the coupling strength gamma, which the kernel applies.

    Built once per chain length and environment flag and shared by every
    caller, so the arrays are read-only."""
    n_qubits = n_sites + 1 if env_enabled else n_sites
    drift = _exchange_sum([(i, i + 1) for i in range(1, n_sites)], n_qubits)
    star = None
    if env_enabled:
        star = _exchange_sum([(i, n_qubits) for i in range(1, n_qubits)], n_qubits)
    k = np.arange(2**n_qubits)
    weight = ((k[:, None] >> np.arange(n_qubits)) & 1).sum(axis=1)
    # Column c of H^⊗n (H the 2x2 Hadamard matrix), whose entry r is
    # (-1)^popcount(r & c) / sqrt(2)^n, is a product of Sx eigenstates with
    # total Sx = n - 2*popcount(c). Sorted by weight, the sector of weight w
    # is the next C(n, w) columns.
    order = np.argsort(weight, kind="stable")
    edges = np.cumsum([0] + [math.comb(n_qubits, w) for w in range(n_qubits + 1)]).tolist()
    sectors = tuple(map(slice, edges[:-1], edges[1:]))
    # H^⊗n maps every bit swap to itself and Sx^1 to Sz^1, so each block is
    # a submatrix: of the exchange sum, or of diag(1 - 2*bit of qubit 1).
    sz1 = 1.0 - 2 * ((order >> (n_qubits - 1)) & 1)

    def blocks(op):
        return tuple(op[np.ix_(order[cols], order[cols])] for cols in sectors)

    ops = SliceOperators(
        basis=2.0 ** (-n_qubits / 2) * (1 - 2 * (weight[k[:, None] & order] % 2)),
        sectors=sectors,
        m=(n_qubits - 2 * weight).astype(np.float64),
        drift=blocks(drift),
        field=tuple(np.diag(sz1[cols]) for cols in sectors),
        star=None if star is None else blocks(star),
        free_evals=np.empty(k.size),
        free_rot=np.empty((k.size, k.size)),
    )
    zero = np.zeros(1)
    _diagonalize_sectors(ops, zero, zero, slice(None), ops.free_evals[None], ops.free_rot[None])
    for a in (ops.basis, ops.m, *ops.drift, *ops.field, *(ops.star or ()), ops.free_evals,
              ops.free_rot):
        a.setflags(write=False)
    return ops


def _diagonalize_sectors(ops: SliceOperators, r, s, on, evals, rot) -> None:
    """Write the eigensystem of the inner matrix drift + r_j*field [+ s_j*star]
    of the slices j in ``on`` (a mask or a slice) into their rows of ``evals``
    and ``rot``, one sector at a time: one ``eigh_stack`` call per sector
    larger than 1x1, and rot = basis * blockdiag(W). A 1x1 sector (all spins
    along +x or -x) is its own eigensystem."""
    r, s = r[on], s[on]
    for k, cols in enumerate(ops.sectors):
        # Exactly symmetric, as drift, field and star are, so eigh_stack
        # may read one triangle.
        blocks = r[:, None, None] * ops.field[k] + ops.drift[k]
        if ops.star is not None:
            blocks += s[:, None, None] * ops.star[k]
        if blocks.shape[-1] == 1:
            # A 1x1 block is its own eigenvalue, with eigenvector 1.
            evals[on, cols] = blocks[:, 0]
            rot[on, :, cols] = ops.basis[:, cols]
        else:
            lam, w = eigh_stack(blocks)
            evals[on, cols] = lam
            rot[on, :, cols] = ops.basis[:, cols] @ w


def _reinterpret(a: np.ndarray, dtype, shape) -> np.ndarray:
    """View of the memory of the C-contiguous array ``a`` as ``dtype`` with
    ``shape``, e.g. a complex (n, d, d) stack as a real (n, d, 2d) one whose
    columns interleave real and imaginary parts."""
    if not a.flags.c_contiguous:
        raise ValueError("reinterpret needs a C-contiguous array")
    return a.reshape(-1).view(dtype).reshape(shape)


def eigh_stack(h_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigendecomposition of a stack of real symmetric (or Hermitian)
    matrices; only their lower triangles are read."""
    return np.linalg.eigh(h_stack)


class SliceKernel:
    """The slice kernel of a chain for n slices, and the arrays it fills.

    It shares the chain's ``slice_operators`` with every other kernel of the
    same chain length and environment flag, keeps the spec's ``gamma`` (0 on
    the bare chain, which has no star coupling to scale) and copies the (n,)
    slice ``durations`` into an (n, 1) column. The arrays are views of one
    float64 buffer that the kernel allocates and owns: as one allocation, the
    memory of a finished kernel is reused by the next one instead of being
    faulted in afresh for each array. Every ``run(hx, hy)`` overwrites the
    arrays in place:

    - ``evals`` (n, dim), ``rot`` (n, dim, dim) real orthogonal and ``phase``
      (n, dim): the factored eigensystem of every slice Hamiltonian, with
      eigenvectors V = phase[:, :, None] * rot (see ``diagonalize``);
    - ``phi`` (n,): the field angle of each slice, 0 where the field is 0;
    - ``fwd`` (n + 1, dim, dim): entry 0 is the identity and entry j is
      U_j ... U_2 U_1 (see ``forward``).

    Scratch stacks of its own serve ``forward`` and ``trace_gradient``; the
    latter's complex (n, dim, dim) one is allocated on its first call. A
    caller copies whatever it keeps past the next run.
    """

    def __init__(self, spec: ChainSpec, durations: np.ndarray):
        self.ops = slice_operators(spec.n_sites, spec.env_enabled)
        self.gamma = spec.gamma if spec.env_enabled else 0.0
        self.durations = np.array(durations, dtype=np.float64)[:, None]
        self.n, self.dim = len(self.durations), self.ops.m.size
        n, dim = self.n, self.dim
        # The complex arrays first, so that they (and _stage, which is also
        # viewed as complex) start 16-byte aligned.
        ends = np.cumsum([2 * n * dim, 2 * (n + 1) * dim * dim, 2 * n * dim * dim,
                          n * dim * dim, n * dim, n])
        phase, fwd, stage, rot, evals, phi, _ = np.split(np.empty(ends[-1]), ends)
        self.phase = _reinterpret(phase, np.complex128, (n, dim))
        self.fwd = _reinterpret(fwd, np.complex128, (n + 1, dim, dim))
        self._stage = stage.reshape(n, 2 * dim, dim)
        self.rot = rot.reshape(n, dim, dim)
        self.evals = evals.reshape(n, dim)
        self.phi = phi
        self._work = None

    def run(self, hx: np.ndarray, hy: np.ndarray) -> None:
        """Fill the eigensystem and the cumulative propagators of the slices
        with fields (hx_j, hy_j) (see ``forward``)."""
        self.diagonalize(hx, hy)
        self.forward()

    def diagonalize(self, hx: np.ndarray, hy: np.ndarray) -> None:
        """Eigensystem of every slice Hamiltonian H_j = drift + hx_j*Sx^1 +
        hy_j*Sy^1 [+ s_j*star], where s_j = gamma*(|hx_j| + |hy_j|) couples
        the environment qubit.

        With r = |h_j|, phi = atan2(hy_j, hx_j) and D = diag(exp(-i*phi*m/2)),
        H_j = D (drift + r*Sx^1 [+ s_j*star]) D^dag. The inner matrix is real
        and conserves the total Sx, so it is diagonalized sector by sector
        (see ``_diagonalize_sectors``). At r = 0 the inner matrix is the drift,
        which commutes with D, so phi is taken as 0 and the slice gets the
        stored ``free_evals`` and ``free_rot``: only the slices with r > 0
        are diagonalized.
        """
        ops, n = self.ops, self.n
        if np.shape(hx) != (n,) or np.shape(hy) != (n,):
            raise ValueError(f"expected {n} field values per axis")
        r = np.hypot(hx, hy)
        self.phi[...] = np.where(r > 0.0, np.arctan2(hy, hx), 0.0)
        np.exp(-0.5j * self.phi[:, None] * ops.m, out=self.phase)
        s = self.gamma * (np.abs(hx) + np.abs(hy))
        free = r == 0.0
        self.evals[free] = ops.free_evals
        self.rot[free] = ops.free_rot
        on = ~free if free.any() else slice(None)  # a slice keeps r[on] a view
        _diagonalize_sectors(ops, r, s, on, self.evals, self.rot)

    def forward(self) -> None:
        """Cumulative propagators of the eigensystem held in ``evals``, ``rot``
        and ``phase``: U_j = D_j R_j exp(-i*dt_j*evals_j) R_j^T D_j^dag, with
        dt_j = durations[j] and D_j = diag(phase_j), is the elementwise product
        of phase_k*conj(phase_l) with R cos(dt_j*evals) R^T - i R sin(dt_j*evals) R^T.
        This is the only place where slice propagators are formed or multiplied."""
        n, dt, dim, rot, fwd = self.n, self.durations, self.dim, self.rot, self.fwd
        trig = np.stack([np.cos(dt * self.evals), -np.sin(dt * self.evals)], axis=1)
        # R cos R^T over -R sin R^T: both real products in one, stacked by rows,
        # written into fwd[1:] until the propagators are assembled in _stage.
        np.multiply(rot[:, None], trig[:, :, None, :], out=self._stage.reshape(n, 2, dim, dim))
        parts = _reinterpret(fwd[1:], np.float64, (n, 2 * dim, dim))
        np.matmul(self._stage, rot.swapaxes(-1, -2), out=parts)
        props = _reinterpret(self._stage, np.complex128, (n, dim, dim))
        props.real = parts[:, :dim]
        props.imag = parts[:, dim:]
        props *= self.phase[:, :, None]
        props *= self.phase.conj()[:, None, :]
        fwd[0] = np.eye(dim)
        for j in range(n):
            np.matmul(props[j], fwd[j], out=fwd[j + 1])

    def trace_gradient(self, overlap: np.ndarray) -> np.ndarray:
        """Derivatives of Tr(A U) with respect to every hx_j and hy_j after a
        ``run``, one complex (2n,) vector ordered [hx; hy], where U = fwd[n] and
        ``overlap`` = A U for any (dim, dim) A, on the bare chain. Raises
        ValueError on a kernel with the environment qubit, whose star coupling
        s_j also depends on the fields and is not differentiated. Overwrites
        fwd[:n] and the scratch stacks; keeps the eigensystem and fwd[n]."""
        if self.ops.star is not None:
            raise ValueError("trace_gradient differentiates the bare chain only, "
                             "not the star coupling of the environment qubit")
        n, dt, dim = self.n, self.durations, self.dim
        if self._work is None:
            self._work = np.empty((n, dim, dim), dtype=np.complex128)
        # U = B_j U_j F_j with F_j = fwd[j] and B_j = U F_j^† U_j^†, so with
        # the eigenbasis V_j = D_j R_j of slice j, dTr(A U) along a control σ
        # on it is Tr(σ V_j X_j V_j^†), X_j = S_j ∘ K_j, where C_j = F_j^† V_j,
        # S_j = C_j^† (A U) C_j and K_ab = -i*dt*h_a*conj(h_b)*
        # sinc(dt*(λ_a-λ_b)/2π), h = e^(-i*dt*λ/2), dt the duration of slice
        # j: the divided difference of e^(-i*dt*λ) at (λ_a, λ_b) times
        # conj(h_b²), exact at coincident eigenvalues. work ends up holding
        # X' = X / (-i*dt). Besides rot, the stages use three complex-sized
        # stacks: work, stage and fwd[:n], which is free once D^†F is formed.
        rot, fwd, stage, work = self.rot, self.fwd[:n], self._stage, self._work
        stage_c = _reinterpret(stage, np.complex128, (n, dim, dim))
        # work = diag(h) C^† = diag(h) R^T (D^† F): a real product on the
        # interleaved float view of D^† F, then a row scaling.
        np.multiply(self.phase.conj()[:, :, None], fwd, out=stage_c)
        np.matmul(
            rot.swapaxes(-1, -2),
            _reinterpret(stage_c, np.float64, (n, dim, 2 * dim)),
            out=_reinterpret(work, np.float64, (n, dim, 2 * dim)),
        )
        work *= np.exp(-0.5j * dt * self.evals)[:, :, None]
        # S ∘ (h_a conj(h_b)) = (diag(h) C^† A U)(C diag(conj(h))), whose
        # right factor is the transposed conjugate of work.
        np.matmul(work, overlap, out=fwd)
        np.conjugate(work, out=stage_c)
        np.matmul(fwd, stage_c.swapaxes(-1, -2), out=work)
        arg, sinc = _reinterpret(stage, np.float64, (2, n, dim, dim))
        half_dt_evals = (0.5 * dt) * self.evals
        np.subtract(half_dt_evals[:, :, None], half_dt_evals[:, None, :], out=arg)
        arg[arg == 0.0] = 1e-20  # sin(y)/y is then exactly 1, as in np.sinc
        np.sin(arg, out=sinc)
        sinc /= arg
        work *= sinc

        # With D = diag(e^(-i*φ*m/2)), P the site-1 bit flip k -> k ^ (dim/2)
        # and Z its σz signs, D^†σx^1 D = cos φ·P - i sin φ·PZ and
        # D^†σy^1 D = sin φ·P + i cos φ·PZ. So Tr(σ V X V^†) needs only
        # a = Σ Px∘X and b = Σ Pz∘X with the real Px = R^T P R = M + M^T and
        # Pz = R^T Z P R = M^T - M, where M = R_set^T R_clear from the rows of
        # R whose site-1 bit is clear (the first half) and set (the second).
        half_dim = dim // 2
        clear, set_ = rot[:, :half_dim], rot[:, half_dim:]
        m = stage.reshape(n, 2, dim, dim)
        np.matmul(set_.swapaxes(-1, -2), clear, out=m[:, 0])
        np.matmul(clear.swapaxes(-1, -2), set_, out=m[:, 1])
        # sums[:, i] = Σ M∘X' and Σ M^T∘X' as (real, imaginary) pairs.
        sums = stage.reshape(n, 2, dim * dim) @ _reinterpret(work, np.float64, (n, dim * dim, 2))
        sum_m, sum_mt = ((-1j * dt) * (sums[:, :, 0] + 1j * sums[:, :, 1])).T
        a, b = sum_m + sum_mt, sum_mt - sum_m
        cos_phi, sin_phi = np.cos(self.phi), np.sin(self.phi)
        return np.concatenate([cos_phi * a - 1j * sin_phi * b, sin_phi * a + 1j * cos_phi * b])


def propagate(spec: ChainSpec, seq: ControlSequence) -> np.ndarray:
    """Total unitary generated by the control sequence, on chain + environment
    qubit when ``spec.env_enabled`` is set and on the bare chain otherwise.

    Equal fields give equal slice Hamiltonians, the environment coupling
    s_j = gamma*(|hx_j| + |hy_j|) included, so a run of k consecutive slices
    with equal (hx, hy) is exp(-i*k*dt*H): it is propagated as one slice of
    duration k*dt <= n*dt. (0.0 and -0.0 count as equal: they give the same H.)"""
    spec.check_phase(seq.n * seq.dt, seq.bound)
    hx, hy = seq.hx, seq.hy
    starts = np.flatnonzero(np.r_[True, (hx[1:] != hx[:-1]) | (hy[1:] != hy[:-1])])
    lengths = np.diff(np.r_[starts, seq.n])
    kernel = SliceKernel(spec, seq.dt * lengths)
    kernel.run(hx[starts], hy[starts])
    # A copy, since a view would keep the kernel's whole buffer alive.
    return kernel.fwd[-1].copy()


def propagate_with_env(spec: ChainSpec, seq: ControlSequence) -> np.ndarray:
    """Total unitary on chain + environment qubit, with pulse-proportional coupling."""
    if not spec.env_enabled:
        raise ValueError("environment qubit is not enabled in this ChainSpec")
    return propagate(spec, seq)


def basis_index(label: str, n_sites: int) -> int:
    """Index of the computational basis state that an ``n_sites``-character
    bit string labels; qubit 1 is the leftmost character."""
    if not isinstance(label, str) or len(label) != n_sites or any(c not in "01" for c in label):
        raise ValueError(f"initial state {label!r} is not a {n_sites}-bit string")
    return int(label, 2)


def bloch_trajectories(
    spec: ChainSpec, seq: ControlSequence, initial_state: str
) -> np.ndarray:
    """Per-qubit Bloch vectors at every slice boundary.

    ``initial_state`` is an N-character bit string labelling a computational
    basis state; qubit 1 is the leftmost character. Returns an array of shape
    (n + 1, n_sites, 3) holding (<sx>, <sy>, <sz>) for each qubit, with row 0
    the initial state.
    """
    index = basis_index(initial_state, spec.n_sites)
    if spec.env_enabled:
        raise ValueError("Bloch trajectories are defined on the bare chain only")
    spec.check_phase(seq.dt, seq.bound)
    kernel = SliceKernel(spec, np.full(seq.n, seq.dt))
    kernel.run(seq.hx, seq.hy)
    # psi[j]: the state after the first j slices.
    psi = kernel.fwd[:, :, index]
    out = np.empty((seq.n + 1, spec.n_sites, 3))
    for q in range(spec.n_sites):
        # a and b: the amplitudes with qubit q + 1 in |0> and in |1>. With
        # z = sum conj(a)*b, <sx> = 2 Re z, <sy> = 2 Im z and <sz> = |a|^2 - |b|^2.
        halves = psi.reshape(seq.n + 1, 2**q, 2, -1)
        a, b = halves[:, :, 0], halves[:, :, 1]
        z = 2.0 * (a.conj() * b).sum(axis=(1, 2))
        out[:, q, 0], out[:, q, 1] = z.real, z.imag
        out[:, q, 2] = (np.abs(a) ** 2).sum(axis=(1, 2)) - (np.abs(b) ** 2).sum(axis=(1, 2))
    return out
