"""Qubit-register states, the cooling Hamiltonian, and exact imaginary-time evolution.

The single-qubit cooling Hamiltonian is H = -Z: ground state |0> with energy -1,
excited state |1> with energy +1.  Rotations use the uniform half-angle
convention R_P(theta) = exp(-i theta P / 2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Union

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
        if not np.all(np.isfinite(v.view(float))):
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

    @classmethod
    def basis(cls, index: int, num_qubits: int = 1) -> "PureState":
        v = np.zeros(2**num_qubits, dtype=complex)
        v[index] = 1.0
        return cls(v)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def check_density(m: np.ndarray) -> np.ndarray:
    """Hermiticity, unit-trace and positivity checks on a matrix, or on a whole
    ``(B, d, d)`` batch at once; returns a new array holding the Hermitian part.

    Whichever matrix of a batch fails, the error is the one a single
    :class:`DensityMatrix` would raise.
    """
    if not np.all(np.isfinite(m)):
        raise ContractViolationError("matrix contains NaN or Inf entries")
    mh = np.conj(m).swapaxes(-1, -2)
    if np.abs(m - mh).max() > DM_TOL:
        raise ContractViolationError("density matrix is not Hermitian")
    m = 0.5 * (m + mh)
    if np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0).max() > DM_TOL:
        raise ContractViolationError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(m).min() < -EIG_TOL:
        raise ContractViolationError("density matrix has a negative eigenvalue")
    return m


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

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hermitian generator for the cooling protocol, validated once, on
    construction; its eigensystem is computed once, on first use, and
    :meth:`expm` and :attr:`ground_projector` check nothing again."""

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

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and the matching eigenvectors as columns, read-only."""
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def expm(self, scale: complex) -> np.ndarray:
        """exp(scale * H) from the cached eigensystem; ``scale`` is not checked."""
        w, v = self.eig
        return (v * np.exp(complex(scale) * w)) @ v.conj().T

    @functools.cached_property
    def ground_projector(self) -> np.ndarray:
        """Projector onto the eigenspace within 1e-9 of the lowest eigenvalue, read-only."""
        w, v = self.eig
        vg = v[:, w <= w.min() + 1e-9]
        p = vg @ vg.conj().T
        p.setflags(write=False)
        return p


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


def _as_density_array(state: State) -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityMatrix):
        return state.matrix
    return qmath.as_complex_matrix(state)


def rx_init(theta: float) -> PureState:
    """R_X(theta)|0> = cos(theta/2)|0> - i sin(theta/2)|1>."""
    if not np.isfinite(theta):
        raise ContractViolationError("theta must be finite")
    return PureState(np.array([np.cos(theta / 2), -1j * np.sin(theta / 2)], dtype=complex))


def energy(state: State, h: HamiltonianSpec | None = None) -> float:
    """Tr[h rho]; with the default H = -Z the ground state |0> gives -1."""
    hm = (h or HamiltonianSpec.default_single_qubit()).matrix
    rho = _as_density_array(state)
    if rho.shape != hm.shape:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    return float(np.trace(hm @ rho).real)


def variance(state: State, h: HamiltonianSpec | None = None) -> float:
    """<H^2> - <H>^2."""
    hm = (h or HamiltonianSpec.default_single_qubit()).matrix
    rho = _as_density_array(state)
    if rho.shape != hm.shape:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    e = np.trace(hm @ rho).real
    return float(np.trace(hm @ hm @ rho).real - e * e)


def fidelity(a: State, b: State) -> float:
    """|<a|b>|^2 for two pure states, <a|rho|a> when one side is mixed."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        raise ContractViolationError("fidelity between two mixed states is not supported")
    if isinstance(a, PureState) and isinstance(b, PureState):
        if a.amplitudes.size != b.amplitudes.size:
            raise DimensionMismatchError("state dimensions differ")
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    pure, mixed = (a, b) if isinstance(a, PureState) else (b, a)
    if pure.amplitudes.size != mixed.matrix.shape[0]:
        raise DimensionMismatchError("state dimensions differ")
    val = np.vdot(pure.amplitudes, mixed.matrix @ pure.amplitudes).real
    return float(min(max(val, 0.0), 1.0))


def bloch_vector(state: State) -> BlochVector:
    """Pauli expectation values of a single-qubit state."""
    rho = _as_density_array(state)
    if rho.shape != (2, 2):
        raise DimensionMismatchError("Bloch vector requires a single qubit")
    return BlochVector(
        x=float(np.trace(qmath.PAULI_X @ rho).real),
        y=float(np.trace(qmath.PAULI_Y @ rho).real),
        z=float(np.trace(qmath.PAULI_Z @ rho).real),
    )


def pseudo_pure(p: float, psi: PureState) -> DensityMatrix:
    """(p/2) I + (1 - p) |psi><psi| for a single qubit; purity 1 - p + p^2/2."""
    if not 0.0 <= p <= 1.0:
        raise ContractViolationError("p must lie in [0, 1]")
    if psi.num_qubits != 1:
        raise DimensionMismatchError("pseudo_pure is defined for a single qubit")
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(0.5 * p * qmath.I2 + (1.0 - p) * proj)


def ite_evolve(psi: PureState, tau: float, h: HamiltonianSpec | None = None) -> PureState:
    """exp(-tau h)|psi>, renormalized.

    The exponent is shifted by the smallest eigenvalue so that large tau cannot
    overflow; a state orthogonal to the bottom eigenspace underflows to zero
    norm instead and is rejected.
    """
    if tau < 0 or not np.isfinite(tau):
        raise ContractViolationError("tau must be finite and nonnegative")
    spec = h or HamiltonianSpec.default_single_qubit()
    if spec.matrix.shape[0] != psi.amplitudes.size:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    w, v = spec.eig
    coeff = v.conj().T @ psi.amplitudes
    damped = coeff * np.exp(-tau * (w - w.min()))
    norm = np.linalg.norm(damped)
    if norm < 1e-150:
        raise DegenerateInputError("state has no support on the low-energy space at this tau")
    return PureState(v @ (damped / norm))


def excess_energy(f0: float, tau: float) -> float:
    """(1/F0 - 1) exp(-4 tau): residual above the ground energy satisfies
    E(tau) = -1 + 2 eps / (1 + eps) for the single-qubit H = -Z."""
    if f0 <= 0.0 or f0 > 1.0:
        raise DegenerateInputError("f0 must lie in (0, 1]")
    if tau < 0:
        raise ContractViolationError("tau must be nonnegative")
    return (1.0 / f0 - 1.0) * float(np.exp(-4.0 * tau))
