"""Qubit-register states and Hamiltonians.

Every cooling run is of one qubit under H = -Z: ground state |0> with energy
-1, excited state |1> with energy +1.  The descent bound takes any H, of any
register.  Rotations use the uniform half-angle convention
R_P(theta) = exp(-i theta P / 2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError

NORM_TOL = 1e-12
DM_TOL = 1e-11
EIG_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over 2^n basis states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size & (v.size - 1) or v.size == 0:
            raise DimensionMismatchError(f"state length {v.size} is not a power of two")
        if not np.isfinite(v.view(float)).all():
            raise ContractViolationError("amplitudes contain NaN or Inf")
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            raise ContractViolationError("state vector is not normalized")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @classmethod
    def from_vector(cls, v) -> "PureState":
        """Normalize an arbitrary nonzero vector into a PureState."""
        a = np.asarray(v, dtype=complex).reshape(-1)
        n = np.linalg.norm(a)
        if n == 0 or not np.isfinite(n):
            raise DegenerateInputError("cannot normalize zero or non-finite vector")
        return cls(a / n)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


def check_density(m: np.ndarray) -> np.ndarray:
    """Hermiticity, unit-trace and positivity checks on a matrix, or on a whole
    ``(B, d, d)`` batch at once; returns a new array holding the Hermitian part.

    Whichever matrix of a batch fails, the error is the one a single
    :class:`DensityMatrix` would raise; an empty batch passes.
    """
    if not np.isfinite(m).all():
        raise ContractViolationError("matrix contains NaN or Inf entries")
    mh = np.conj(m).swapaxes(-1, -2)
    if np.abs(m - mh).max(initial=0.0) > DM_TOL:
        raise ContractViolationError("density matrix is not Hermitian")
    m = 0.5 * (m + mh)
    if np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0).max(initial=0.0) > DM_TOL:
        raise ContractViolationError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(m).min(initial=0.0) < -EIG_TOL:
        raise ContractViolationError("density matrix has a negative eigenvalue")
    return m


def check_pure(vecs: np.ndarray) -> None:
    """The verdict and message :func:`check_density` gives on the outer
    products |v><v| of a ``(..., d)`` stack of vectors, without building them.
    Such a matrix is exactly Hermitian, its trace is |v|^2 (summed as complex
    numbers, as :func:`check_density` sums a diagonal, so the bits agree), and
    its eigenvalues are |v|^2 and 0, so only a non-finite entry or the trace
    can fail.  An empty stack passes."""
    norms = (vecs * vecs.conj()).sum(axis=-1).real
    if not np.isfinite(norms).all():
        raise ContractViolationError("matrix contains NaN or Inf entries")
    if np.abs(norms - 1.0).max(initial=0.0) > DM_TOL:
        raise ContractViolationError("density matrix trace differs from 1")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = qmath.as_complex_matrix(self.matrix)
        qmath.check_square_power_of_two(m)
        m = check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hermitian generator, validated once, on construction; its eigensystem
    is computed once, on first use.  The cooling runs use
    :meth:`default_single_qubit`; the descent bound takes any H."""

    matrix: np.ndarray

    def __post_init__(self):
        m = qmath.check_hermitian(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    @functools.cache
    def default_single_qubit(cls) -> "HamiltonianSpec":
        """H = -Z, ground state |0> at energy -1; one shared instance."""
        return cls(-qmath.PAULI_Z)

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and the matching eigenvectors as columns, read-only."""
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


def rx_init(theta: float) -> PureState:
    """R_X(theta)|0> = cos(theta/2)|0> - i sin(theta/2)|1>."""
    return PureState(np.array([np.cos(theta / 2), -1j * np.sin(theta / 2)], dtype=complex))


def random_density(rng: np.random.Generator) -> np.ndarray:
    """A random full-rank qubit density matrix A A^dag / Tr[A A^dag], where A
    takes two standard-normal 2x2 draws from ``rng``: real part, then imaginary."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return m / np.trace(m).real


def pseudo_pure(p: float, psi: PureState) -> DensityMatrix:
    """(p/2) I + (1 - p) |psi><psi| for a single qubit; purity 1 - p + p^2/2."""
    if not 0.0 <= p <= 1.0:
        raise ContractViolationError("p must lie in [0, 1]")
    if psi.num_qubits != 1:
        raise DimensionMismatchError("pseudo_pure is defined for a single qubit")
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(0.5 * p * qmath.I2 + (1.0 - p) * proj)

