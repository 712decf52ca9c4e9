"""Dense complex linear algebra for small multi-qubit operators.

Everything operates on plain numpy arrays of complex128. Operators in this
package never exceed dim 32 (four chain qubits plus one environment qubit),
so all routines are dense. Exponentiation of Hamiltonians lives in the slice
kernel of ``spinctrl.model``.
"""

from __future__ import annotations

import numpy as np

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


def pauli(axis: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, associating left to right."""
    if not ops:
        raise ValueError("kron requires at least one operand")
    out = np.asarray(ops[0], dtype=np.complex128)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=np.complex128))
    return out


def embed_single_site(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a 2x2 operator on ``site`` (1-based) of an ``n_sites`` chain.

    Returns I ⊗ ... ⊗ op ⊗ ... ⊗ I with ``op`` in slot ``site``; the result
    has dimension 2**n_sites.
    """
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range for a chain of {n_sites} sites")
    left = np.eye(2 ** (site - 1), dtype=np.complex128)
    right = np.eye(2 ** (n_sites - site), dtype=np.complex128)
    return kron(left, op, right)


def reinterpret(a: np.ndarray, dtype, shape) -> np.ndarray:
    """View of the memory of the C-contiguous array ``a`` as ``dtype`` with
    ``shape``, e.g. a complex (n, d, d) stack as a real (n, d, 2d) one whose
    columns interleave real and imaginary parts."""
    if not a.flags.c_contiguous:
        raise ValueError("reinterpret needs a C-contiguous array")
    return a.reshape(-1).view(dtype).reshape(shape)


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
