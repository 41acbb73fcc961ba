"""Pauli transfer matrices, process fidelities, and the gate-level noise
model's channels (:class:`dme.NoiseModel`, which the DME record reads too).

The PTM of a channel E on n qubits is the real matrix
R[i][j] = Tr[P_i E(P_j)] / 2^n over the unnormalized Pauli strings ordered
lexicographically with identity first (II, IX, IY, IZ, XI, ... for n = 2).
Unitary channels give orthogonal PTMs; trace preservation shows up as a first
row (1, 0, ..., 0).

PTMs compose by matrix product: the PTM of E2 after E1 is R(E2) R(E1).  So
:func:`ptm_of_circuits` builds the PTMs of a batch of circuits on one register
from the gate stack `circuits.embedded_gates` gives (each distinct gate object
embedded once), turned into one stack of PTMs by one transfer; each enabled
noise model applies each qubit set's noise PTM (diagonal for depolarizing, a
Kronecker product of one-qubit relaxation PTMs in closed form for damping and
dephasing), built once, to a copy of that stack; and `circuits.compose`
multiplies every circuit's PTMs in gate order, the same product that gives the
circuits' unitaries.  :func:`partial_swap_ptms` gives the ideal PTMs the
compiled partial swaps are checked against.  The tests check the composed PTMs
against their oracle in ``tests/oracles.py``: a dense gate-by-gate channel,
its relaxation built from Kraus operators, probed with every Pauli string.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import qmath
from .circuits import Circuit, compose, embedded_gates, partial_swap_unitaries
from .dme import NoiseModel
from .errors import ContractViolationError, DimensionMismatchError

PAULI_LABELS_1Q = "IXYZ"


def pauli_labels(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product(PAULI_LABELS_1Q, repeat=n)]


def pauli_matrix(label: str) -> np.ndarray:
    return qmath.kron_all(qmath.PAULIS_1Q[ch] for ch in label)


@functools.cache
def _pauli_basis(n: int) -> np.ndarray:
    """The Pauli strings on n <= 2 qubits in :func:`pauli_labels` order, as one
    read-only ``(4^n, 2^n, 2^n)`` array, built on first use."""
    if n > 2:
        raise ContractViolationError("full PTMs are built for at most 2 qubits")
    basis = np.array([pauli_matrix(lb) for lb in pauli_labels(n)])
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class PTM:
    """Real transfer matrix in the Pauli basis."""

    n_qubits: int
    r: np.ndarray

    def __post_init__(self):
        d2 = 4**self.n_qubits
        mat = np.asarray(self.r, dtype=float)
        if mat.shape != (d2, d2):
            raise DimensionMismatchError(f"PTM for {self.n_qubits} qubit(s) must be {d2}x{d2}")
        # written so that NaN and +-inf fail the comparison
        if not np.abs(mat).max() <= 1.0 + 1e-9:
            raise ContractViolationError("PTM entries must be finite and lie in [-1, 1]")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "r", mat)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _transfer(ops: np.ndarray, n: int) -> np.ndarray:
    """The (G, 4^n, 4^n) PTMs R_ij = Tr[P_i K P_j K^dag] / 2^n of rho -> K rho K^dag
    for each K of a (G, 2^n, 2^n) stack: one einsum builds every superoperator
    S = K (x) conj(K), which maps the row-major flattening of rho to that of the
    output, and R = conj(B) S B^T / 2^n, with B the Pauli basis flattened to rows."""
    basis = _pauli_basis(n)
    d = basis.shape[1]
    sup = np.einsum("gab,gcd->gacbd", ops, ops.conj()).reshape(len(ops), d * d, d * d)
    rows = basis.reshape(len(basis), -1)
    return (rows.conj() @ sup @ rows.T).real / d


# the duration of a single- and a two-qubit gate, for a NoiseModel's damping and dephasing
GATE_TIME_1Q_US = 0.02
GATE_TIME_2Q_US = 0.1


def _noise_ptm(noise: NoiseModel, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """PTM of the noise after a gate on `qubits`: depolarizing with p1 (or p2 for
    a two-qubit gate), then damping and dephasing on each of the gate's qubits
    for the gate's duration."""
    two_qubit = len(qubits) == 2
    p = noise.p2 if two_qubit else noise.p1
    # depolarizing keeps the Pauli strings that are the identity on `qubits`
    # and scales every other one by 1 - p
    r = np.diag([1.0 if all(lb[q] == "I" for q in qubits) else 1.0 - p for lb in pauli_labels(n)])
    if noise.t1_us is not None:
        dt = GATE_TIME_2Q_US if two_qubit else GATE_TIME_1Q_US
        # one qubit's relaxation in closed form: the z population relaxes
        # toward |0> as e^{-dt/T1}, and the coherences decay as e^{-dt/T2},
        # with T2 = 2 T1 (damping alone) when it is unset
        t2 = 2 * noise.t1_us if noise.t2_us is None else noise.t2_us
        e1, c = np.exp(-dt / noise.t1_us), np.exp(-dt / t2)
        damp = np.array([[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [1 - e1, 0, 0, e1]])
        # the PTM of a product channel is the Kronecker product, qubit 0 first
        r = functools.reduce(np.kron, [damp if q in qubits else np.eye(4) for q in range(n)]) @ r
    return r


def ptm_of_circuits(
    circuits: Sequence[Circuit], noises: Sequence[Optional[NoiseModel]] = (None,)
) -> list[list[PTM]]:
    """The PTMs of every circuit under each noise model (None is noiseless):
    ``out[j][i]`` is circuit i's under ``noises[j]``.  The circuits must share
    one register size of at most 2 qubits.

    One pass serves the whole batch.  The gate stack of `embedded_gates`
    (each distinct gate object once) becomes PTMs by one transfer.  Each
    enabled noise model builds each qubit set's noise PTM once and applies it
    to a copy of that stack.  `compose` multiplies each circuit's PTMs in gate
    order.
    """
    ops, groups, take = embedded_gates(circuits)
    n = circuits[0].num_qubits
    stack = _transfer(ops, n)  # which rejects n > 2, even for empty circuits
    out = []
    for noise in noises:
        ptms = stack
        if noise is not None and noise.enabled:
            ptms = stack.copy()
            for qubits, idx in groups.items():
                ptms[idx] = _noise_ptm(noise, qubits, n) @ ptms[idx]
        out.append([PTM(n_qubits=n, r=r) for r in compose(ptms, take)])
    return out


def partial_swap_ptms(phis: Sequence[float]) -> list[PTM]:
    """The PTMs of the partial swaps exp(-i phi SWAP) on two qubits, one per
    angle: one stacked transfer of their closed-form unitaries."""
    return [PTM(n_qubits=2, r=r) for r in _transfer(partial_swap_unitaries(phis), 2)]


def process_fidelity(r_ideal: PTM, r: PTM) -> dict[str, float]:
    """f_pro = Tr[R_ideal^T R] / d^2 and the average-fidelity rescaling."""
    if r_ideal.n_qubits != r.n_qubits:
        raise DimensionMismatchError("PTM dimensions differ")
    d = r.dim
    f_pro = float(np.trace(r_ideal.r.T @ r.r) / d**2)
    f_avg = (d * f_pro + 1.0) / (d + 1.0)
    return {"f_pro": f_pro, "f_avg": f_avg}

