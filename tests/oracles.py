"""Dense brute-force references that the package's batched and closed-form
paths are checked against: each computes its quantity by the definition, on
dense matrices, one point at a time.  The program calls none of them."""

import numpy as np

from dbac_lab import qmath
from dbac_lab.baselines import ppa_round, target_polarization, thermal_qubit
from dbac_lab.states import DensityMatrix
from dbac_lab.tomography import PTM, pauli_labels, pauli_matrix


def dme_step_exact(rho, sigma, delta: float) -> DensityMatrix:
    """Tr_instr[U (rho (x) sigma) U^dag] with U = exp(-i delta SWAP), for
    registers of any one dimension d; the instruction ``rho`` is traced out."""
    d = np.shape(rho)[0]
    u = qmath.herm_expm(qmath.swap_operator(d), -1j * delta)
    joint = u @ np.kron(rho, sigma) @ u.conj().T
    return DensityMatrix(qmath.partial_trace(joint, qmath.QubitPartition((d, d), keep=(1,))))


def ptm_of_channel(ch, n: int) -> PTM:
    """The PTM R_ij = Tr[P_i ch(P_j)] / 2^n of a channel callable on n qubits,
    probed with every Pauli string; flagged trace preserving when its first
    row is (1, 0, ..., 0) to 1e-10."""
    basis = np.array([pauli_matrix(lb) for lb in pauli_labels(n)])
    images = np.array([ch(p) for p in basis])
    r = np.einsum("iab,jba->ij", basis, images).real / 2**n
    tp = abs(r[0, 0] - 1.0) <= 1e-10 and np.abs(r[0, 1:]).max() <= 1e-10
    return PTM(n_qubits=n, r=r, trace_preserving=bool(tp))


def hbac_round_dense(eps_target: float, eps_1: float, eps_2: float) -> float:
    """Target polarization after one compression round, by the dense 8x8 round
    on the product of three thermal qubits."""
    reg = qmath.kron_all([thermal_qubit(e).matrix for e in (eps_target, eps_1, eps_2)])
    return target_polarization(ppa_round(DensityMatrix(reg)))


def pauli_expectations(rho) -> np.ndarray:
    """(Tr[X rho], Tr[Y rho], Tr[Z rho]) of a single-qubit matrix."""
    return np.array([np.trace(p @ rho).real for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)])
