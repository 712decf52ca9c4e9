"""Dense linear algebra helpers for small multi-qubit operators.

The CLI's targets give operators of dim at most 32 (four chain qubits plus one
environment qubit); longer chains, which ``ChainSpec`` accepts, stay dense too.
The chain's operators and target gates are built in ``spinctrl.model``, and
exponentiation of Hamiltonians lives in its slice kernel.
"""

from __future__ import annotations

import numpy as np


def partial_trace_last_qubit(m: np.ndarray) -> np.ndarray:
    """Trace out the final two-dimensional tensor factor of a square matrix."""
    m = np.asarray(m, dtype=np.complex128)
    dim = m.shape[0]
    if dim % 2 != 0:
        raise ValueError(f"dimension {dim} is odd; there is no final qubit to trace out")
    half = dim // 2
    return np.einsum("aebe->ab", m.reshape(half, 2, half, 2))


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Schatten 1-norm)."""
    h = np.asarray(m, dtype=np.complex128)
    # Its Hermitian part: a difference x x^dag - y y^dag is Hermitian only to rounding.
    evals = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return float(np.sum(np.abs(evals)))
