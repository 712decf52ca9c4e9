"""Dense references for the slice kernel, built without it.

``dense_slice_hamiltonians`` assembles every slice Hamiltonian from explicit
Kronecker factors, and ``dense_propagator`` and ``dense_value_and_grad``
propagate them and evaluate the pulse objective by diagonalizing that dense
complex stack, as the package did before its kernel moved to symmetry
sectors.
"""

import numpy as np

from spinctrl.model import target_unitary
from spinctrl.objective import GRAD_PHASE_EPSILON, surrogate_abs

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_chain(*ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def on_sites(n_qubits, placed):
    """Kronecker product with the 2x2 operator placed[i] on qubit i (1-based)
    and the identity elsewhere."""
    return kron_chain(*[placed.get(q, I2) for q in range(1, n_qubits + 1)])


def dense_operators(spec):
    """Drift, Sx^1, Sy^1 and the star coupling (None without the environment
    qubit), on chain + environment qubit when the spec enables it."""
    n = spec.n_sites
    total = n + 1 if spec.env_enabled else n
    drift = np.zeros((2**total, 2**total), dtype=complex)
    for i in range(1, n):
        for s in (SX, SY, SZ):
            drift += on_sites(total, {i: s, i + 1: s})
    star = None
    if spec.env_enabled:
        star = sum(on_sites(total, {i: s, total: s}) for i in range(1, n + 1) for s in (SX, SY, SZ))
    return drift, on_sites(total, {1: SX}), on_sites(total, {1: SY}), star


def dense_slice_hamiltonians(spec, hx, hy):
    """Stack of slice Hamiltonians drift + hx_j*Sx^1 + hy_j*Sy^1, plus
    gamma*(|hx_j| + |hy_j|)*star with the environment qubit."""
    hx, hy = np.asarray(hx, dtype=float), np.asarray(hy, dtype=float)
    drift, sx1, sy1, star = dense_operators(spec)
    h = drift + hx[:, None, None] * sx1 + hy[:, None, None] * sy1
    if star is not None:
        h = h + (spec.gamma * (np.abs(hx) + np.abs(hy)))[:, None, None] * star
    return h


def dense_propagator(spec, hx, hy, dt):
    """U_n ... U_1 from a dense complex eigh of every slice Hamiltonian."""
    evals, evecs = np.linalg.eigh(dense_slice_hamiltonians(spec, hx, hy))
    u = np.eye(spec.dim, dtype=complex)
    for lam, v in zip(evals, evecs):
        u = (v * np.exp(-1j * dt * lam)) @ v.conj().T @ u
    return u


def dense_value_and_grad(spec, target, dt, bound, cfg, x):
    """The objective's value and exact gradient from a dense complex eigh of
    every slice Hamiltonian and forward/backward products of the propagators."""
    x = np.asarray(x, dtype=float)
    n = x.size // 2
    hx, hy = x[:n], x[n:]
    dim = spec.dim
    ut_dag = target_unitary(target).conj().T
    _, sx1, sy1, _ = dense_operators(spec)
    h = dense_slice_hamiltonians(spec, hx, hy)
    evals, evecs = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
    vdag = evecs.conj().swapaxes(-1, -2)
    props = (evecs * np.exp(-1j * dt * evals)[:, None, :]) @ vdag

    fwd = np.empty((n + 1, dim, dim), dtype=complex)
    fwd[0] = np.eye(dim)
    for j in range(n):
        fwd[j + 1] = props[j] @ fwd[j]
    bwd = np.empty_like(fwd)
    bwd[n] = np.eye(dim)
    for j in range(n - 1, -1, -1):
        bwd[j] = bwd[j + 1] @ props[j]
    z = np.trace(ut_dag @ fwd[n])
    fid = abs(z) / dim

    lam_diff = evals[:, :, None] - evals[:, None, :]
    lam_sum = evals[:, :, None] + evals[:, None, :]
    kernel = (-1j * dt) * np.exp(-0.5j * dt * lam_sum) * np.sinc(0.5 * dt * lam_diff / np.pi)
    a_t = (vdag @ (fwd[:n] @ ut_dag) @ bwd[1:] @ evecs).swapaxes(-1, -2)
    tx = np.sum(a_t * kernel * (vdag @ sx1 @ evecs), axis=(1, 2))
    ty = np.sum(a_t * kernel * (vdag @ sy1 @ evecs), axis=(1, 2))
    if abs(z) < GRAD_PHASE_EPSILON:
        dfid_x = dfid_y = np.zeros(n)
    else:
        dfid_x = np.real(np.conj(z) * tx) / (abs(z) * dim)
        dfid_y = np.real(np.conj(z) * ty) / (abs(z) * dim)

    smoothed, slope = surrogate_abs(x, cfg)
    pen_scale = (1.0 - cfg.mu) / (2.0 * n * bound)
    grad = pen_scale * slope - cfg.mu * np.concatenate([dfid_x, dfid_y])
    value = (1.0 - cfg.mu) * np.sum(smoothed) / (2.0 * n * bound) - cfg.mu * fid
    return value, grad
