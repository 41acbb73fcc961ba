"""Dense complex linear algebra for small qubit registers (up to 5 qubits).

Everything here is a pure function on numpy arrays with complex128 entries.
Operators are dense matrices whose dimension is a power of two; qubit 0 is the
leftmost (most significant) tensor factor throughout the package.  The
eigensystem of a Hermitian H is ``states.HamiltonianSpec(H).eig``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-9

# Single-qubit constants used all over the package.
I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS_1Q = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def as_complex_matrix(m, ndims: Sequence[int] = (2,)) -> np.ndarray:
    """Coerce to a finite complex128 array with ndim in `ndims` (a matrix by default)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in ndims:
        raise ContractViolationError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ContractViolationError("matrix contains NaN or Inf entries")
    return a


def check_square_power_of_two(a: np.ndarray) -> int:
    """Return the qubit count n for a 2^n x 2^n matrix, rejecting other shapes."""
    rows, cols = a.shape
    if rows != cols or rows & (rows - 1) or rows == 0:
        raise DimensionMismatchError(f"operator shape {a.shape} is not square power-of-two")
    return rows.bit_length() - 1


def kron_all(mats: Iterable) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left factor most significant."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, as_complex_matrix(m))
    return out


def check_hermitian(h) -> np.ndarray:
    """Validate Hermiticity entrywise within HERMITICITY_TOL, returning the symmetrized matrix.

    Inputs beyond tolerance are rejected rather than silently symmetrized.
    """
    a = as_complex_matrix(h)
    check_square_power_of_two(a)
    dev = np.abs(a - a.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ContractViolationError(f"matrix is not Hermitian (max deviation {dev:.3e} > {HERMITICITY_TOL:.0e})")
    return 0.5 * (a + a.conj().T)


def check_unitary(u) -> np.ndarray:
    """A finite square matrix, or a (..., d, d) stack of them, with
    |u^dag u - I| <= UNITARITY_TOL entrywise (NaN fails), checked in one pass."""
    a = as_complex_matrix(u, ndims=range(2, 65))  # a matrix or a stack of any depth numpy allows
    dev = np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1])).max(initial=0.0)
    if a.shape[-1] != a.shape[-2] or not dev <= UNITARITY_TOL:
        raise ContractViolationError("matrix is not unitary within tolerance")
    return a


def dist_up_to_global_phase(u, v) -> float | np.ndarray:
    """Frobenius distance between unitaries minimized over a global phase.

    Two matrices give a float; two (..., d, d) stacks of one shape, each
    validated once, give the batch shape's array of slice-by-slice distances.
    The minimizing phase comes from the closed form e^{i*gamma} = conj(T)/|T|
    with T = Tr[u^dag v] (1 when T vanishes); the distance equals
    sqrt(2d - 2|T|) but is evaluated as the norm of the phase-aligned
    difference, which stays accurate near zero.  Zero iff u and v agree up to
    a global phase.
    """
    a, b = check_unitary(u), check_unitary(v)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    t = (a.conj() * b).sum(axis=(-2, -1))
    mag = np.abs(t)
    phase = np.where(mag < 1e-300, 1.0, np.conj(t) / np.maximum(mag, 1e-300))
    dist = np.linalg.norm(a - phase[..., None, None] * b, axis=(-2, -1))
    return float(dist) if dist.ndim == 0 else dist


def swap_operator(d: int = 2) -> np.ndarray:
    """SWAP on two d-dimensional registers: SWAP |v,w> = |w,v>."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def embed_gate(gate, qubits: Sequence[int], n: int) -> np.ndarray:
    """Embed `gate` acting on ordered `qubits` into the n-qubit register.

    `gate` is one 2^k x 2^k matrix, or a (B, 2^k, 2^k) stack of them embedded
    slice by slice into a (B, 2^n, 2^n) stack by one broadcast product and one
    transpose.  Qubit 0 is the most significant bit of the computational index.
    """
    g = as_complex_matrix(gate, ndims=(2, 3))
    k = len(qubits)
    if g.shape[-2:] != (2**k, 2**k):
        raise DimensionMismatchError("gate dimension does not match qubit count")
    # (B, gate out, rest out, gate in, rest in): each slice is gate (x) identity
    # with the addressed qubits first, the others after them in register order
    full = g.reshape(-1, 2**k, 1, 2**k, 1) * np.eye(2 ** (n - k))[:, None, :]
    wires = list(qubits) + [q for q in range(n) if q not in qubits]
    perm = [1 + wires.index(q) for q in range(n)]
    full = full.reshape((-1,) + (2,) * (2 * n)).transpose([0] + perm + [n + p for p in perm])
    return np.ascontiguousarray(full.reshape(g.shape[:-2] + (2**n, 2**n)))
