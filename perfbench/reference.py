"""Brute-force reference for the environment channel, built without spinctrl.

Each slice Hamiltonian is assembled here from Kronecker products of Pauli
matrices and exponentiated with ``scipy.linalg.expm``. The channel is applied
to every matrix unit through the explicit dilation rho -> U (rho ⊗ |0><0|) U^dag
and a partial trace over the environment qubit, which is appended last.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def _site_op(op: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """``op`` on qubit ``site`` (0-based, leftmost first) of ``n_qubits``."""
    out = np.eye(1, dtype=np.complex128)
    for q in range(n_qubits):
        out = np.kron(out, op if q == site else np.eye(2))
    return out


def env_channel_choi(n_sites: int, gamma: float, hx, hy, dt: float) -> np.ndarray:
    """Choi matrix (1/d) sum_ij Phi(|i><j|) ⊗ |i><j| of the chain's channel
    when an environment qubit couples to every site with strength
    gamma * (|hx| + |hy|) during each slice."""
    nq = n_sites + 1
    env = n_sites
    drift = sum(
        _site_op(s, i, nq) @ _site_op(s, i + 1, nq)
        for i in range(n_sites - 1)
        for s in _PAULIS
    )
    star = sum(_site_op(s, i, nq) @ _site_op(s, env, nq) for i in range(n_sites) for s in _PAULIS)
    sx, sy = _site_op(_PAULIS[0], 0, nq), _site_op(_PAULIS[1], 0, nq)

    u = np.eye(2**nq, dtype=np.complex128)
    for ax, ay in zip(hx, hy):
        h = drift + ax * sx + ay * sy + gamma * (abs(ax) + abs(ay)) * star
        u = expm(-1j * dt * h) @ u

    d = 2**n_sites
    env0 = np.zeros((2, 2), dtype=np.complex128)
    env0[0, 0] = 1.0
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[i, j] = 1.0
            big = u @ np.kron(unit, env0) @ u.conj().T
            image = np.trace(big.reshape(d, 2, d, 2), axis1=1, axis2=3)
            choi += np.kron(image, unit) / d
    return choi
