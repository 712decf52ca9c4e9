"""A 40-digit reference for ``propagate``, built without the slice kernel.

``mp_propagator`` assembles every slice Hamiltonian in mpmath from the exact
integer Kronecker operators of ``dense_reference.dense_operators`` and the
float64 pulse values, exponentiates it with ``mpmath.expm`` at ``DPS``
digits, and multiplies the slices one by one, U = U_n ... U_2 U_1, merging
no run of equal slices. Rounded to float64 the result is exact, so its
difference to ``propagate`` is the package's own error. ``mp_trace`` keeps
Tr(A U) unrounded, for differences taken at ``DPS`` digits.
"""

import mpmath
import numpy as np

from dense_reference import dense_operators

DPS = 40


def _mp_matrix(a):
    # every entry is a small Gaussian integer, so the conversion is exact
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])


def _mp_unitary(spec, seq):
    """U_n ... U_1 of ``seq`` as an mpmath matrix; call it inside ``workdps(DPS)``."""
    drift, sx1, sy1, star = (op if op is None else _mp_matrix(op)
                             for op in dense_operators(spec))
    dt, gamma = mpmath.mpf(seq.dt), mpmath.mpf(spec.gamma)
    u = mpmath.eye(drift.rows)
    slices = {}  # equal fields give equal slices; each is exponentiated once
    for hx, hy in zip(seq.hx.tolist(), seq.hy.tolist()):
        if (hx, hy) not in slices:
            hx_mp, hy_mp = mpmath.mpf(hx), mpmath.mpf(hy)
            h = drift + hx_mp * sx1 + hy_mp * sy1
            if star is not None:
                h += gamma * (abs(hx_mp) + abs(hy_mp)) * star
            slices[hx, hy] = mpmath.expm(-1j * dt * h)
        u = slices[hx, hy] * u
    return u


def mp_propagator(spec, seq):
    """U_n ... U_1 of ``seq`` on the chain of ``spec`` (and its environment
    qubit, when enabled), computed at ``DPS`` digits and rounded to complex128."""
    with mpmath.workdps(DPS):
        return np.array(_mp_unitary(spec, seq).tolist(), dtype=complex)


def mp_trace(spec, seq, a):
    """Tr(A U) for the U of ``mp_propagator`` and a complex128 matrix A,
    computed at ``DPS`` digits and not rounded: an mpmath ``mpc``, whose
    arithmetic keeps its digits only inside ``workdps(DPS)``."""
    with mpmath.workdps(DPS):
        u = _mp_unitary(spec, seq)
        return mpmath.fsum(mpmath.mpc(complex(a[i, k])) * u[k, i]
                           for i in range(u.rows) for k in range(u.cols))
