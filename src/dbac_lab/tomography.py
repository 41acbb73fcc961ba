"""Pauli transfer matrices, process fidelities, and a gate-level noise model.

The PTM of a channel E on n qubits is the real matrix
R[i][j] = Tr[P_i E(P_j)] / 2^n over the unnormalized Pauli strings ordered
lexicographically with identity first (II, IX, IY, IZ, XI, ... for n = 2).
Unitary channels give orthogonal PTMs; trace preservation shows up as a first
row (1, 0, ..., 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import qmath
from .circuits import Circuit, format_number, gate_matrix
from .errors import ContractViolationError, DimensionMismatchError

PAULI_LABELS_1Q = "IXYZ"


def pauli_labels(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product(PAULI_LABELS_1Q, repeat=n)]


def pauli_matrix(label: str) -> np.ndarray:
    return qmath.kron_all(qmath.PAULIS_1Q[ch] for ch in label)


@dataclass(frozen=True)
class PTM:
    """Real transfer matrix in the Pauli basis; flags non-trace-preserving maps."""

    n_qubits: int
    r: np.ndarray
    trace_preserving: bool = True

    def __post_init__(self):
        d2 = 4**self.n_qubits
        mat = np.asarray(self.r, dtype=float)
        if mat.shape != (d2, d2):
            raise DimensionMismatchError(f"PTM for {self.n_qubits} qubit(s) must be {d2}x{d2}")
        if np.abs(mat).max() > 1.0 + 1e-9:
            raise ContractViolationError("PTM entries must lie in [-1, 1]")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "r", mat)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


Channel = Callable[[np.ndarray], np.ndarray]


def unitary_channel(u) -> Channel:
    mat = qmath.as_complex_matrix(u)
    return lambda rho: mat @ rho @ mat.conj().T


def ptm_of_channel(ch: Channel, n: int) -> PTM:
    """Tomograph a channel callable by probing it with the Pauli basis."""
    if n > 2:
        raise ContractViolationError("full PTMs are built for at most 2 qubits")
    labels = pauli_labels(n)
    dim = 2**n
    outs = [ch(pauli_matrix(lb)) for lb in labels]
    r = np.empty((len(labels), len(labels)), dtype=float)
    for i, lb in enumerate(labels):
        pi = pauli_matrix(lb)
        for j, out in enumerate(outs):
            r[i, j] = np.trace(pi @ out).real / dim
    first = r[0]
    expected = np.zeros(len(labels))
    expected[0] = 1.0
    tp = bool(np.abs(first - expected).max() <= 1e-10)
    return PTM(n_qubits=n, r=r, trace_preserving=tp)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus optional relaxation.

    p1/p2 apply after every single-/two-qubit gate on the gate's qubits.  When
    t1_us is set, amplitude damping (and dephasing from t2_us, which must not
    exceed 2*t1_us) acts on the gate's qubits for the gate duration.
    """

    p1: float = 0.0
    p2: float = 0.0
    t1_us: Optional[float] = None
    t2_us: Optional[float] = None
    gate_time_1q_us: float = 0.02
    gate_time_2q_us: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise ContractViolationError("depolarizing probabilities must lie in [0, 1]")
        if self.t1_us is not None and self.t1_us <= 0:
            raise ContractViolationError("t1 must be positive")
        if self.t2_us is not None:
            if self.t1_us is None:
                raise ContractViolationError("t2 requires t1")
            if self.t2_us <= 0 or self.t2_us > 2 * self.t1_us:
                raise ContractViolationError("t2 must lie in (0, 2*t1]")

    @property
    def enabled(self) -> bool:
        return self.p1 > 0 or self.p2 > 0 or self.t1_us is not None


def _apply_kraus_on(rho: np.ndarray, kraus: Sequence[np.ndarray], qubit: int, n: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        full = qmath.embed_gate(k, (qubit,), n)
        out += full @ rho @ full.conj().T
    return out


def depolarize(rho: np.ndarray, qubits: Sequence[int], n: int, p: float) -> np.ndarray:
    """Replace the marginal on `qubits` with the maximally mixed state w.p. p."""
    if p <= 0:
        return rho
    labels = pauli_labels(len(qubits))
    acc = np.zeros_like(rho)
    for lb in labels:
        full = qmath.embed_gate(pauli_matrix(lb), tuple(qubits), n)
        acc += full @ rho @ full.conj().T
    return (1.0 - p) * rho + p * acc / len(labels)


def _damping_kraus(noise: NoiseModel, dt_us: float) -> list[np.ndarray]:
    gamma = 1.0 - np.exp(-dt_us / noise.t1_us)
    kraus = [
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ]
    if noise.t2_us is not None:
        inv_tphi = 1.0 / noise.t2_us - 0.5 / noise.t1_us
        if inv_tphi > 0:
            lam = 0.5 * (1.0 - np.exp(-dt_us * inv_tphi))
            deph = [np.sqrt(1 - lam) * qmath.I2, np.sqrt(lam) * qmath.PAULI_Z]
            kraus = [d @ k for k in kraus for d in deph]
    return kraus


def apply_gate_noise(rho: np.ndarray, noise: NoiseModel, qubits: Sequence[int], n: int) -> np.ndarray:
    two_qubit = len(qubits) == 2
    p = noise.p2 if two_qubit else noise.p1
    out = depolarize(rho, qubits, n, p)
    if noise.t1_us is not None:
        dt = noise.gate_time_2q_us if two_qubit else noise.gate_time_1q_us
        kraus = _damping_kraus(noise, dt)
        for q in qubits:
            out = _apply_kraus_on(out, kraus, q, n)
    return out


def circuit_channel(c: Circuit, noise: Optional[NoiseModel] = None) -> Channel:
    """Gate-by-gate channel of a circuit, with noise composed after each gate."""
    steps = []
    for g in c.gates:
        if g.kind == "BARRIER":
            continue
        steps.append((qmath.embed_gate(gate_matrix(g), g.qubits, c.num_qubits), g.qubits))

    def ch(rho: np.ndarray) -> np.ndarray:
        out = np.asarray(rho, dtype=complex)
        for full, qubits in steps:
            out = full @ out @ full.conj().T
            if noise is not None and noise.enabled:
                out = apply_gate_noise(out, noise, qubits, c.num_qubits)
        return out

    return ch


def ptm_of_circuit(c: Circuit, noise: Optional[NoiseModel] = None) -> PTM:
    if c.num_qubits > 2:
        raise ContractViolationError("full PTMs are built for at most 2 qubits")
    return ptm_of_channel(circuit_channel(c, noise), c.num_qubits)


def process_fidelity(r_ideal: PTM, r: PTM) -> dict[str, float]:
    """f_pro = Tr[R_ideal^T R] / d^2 and the average-fidelity rescaling."""
    if r_ideal.n_qubits != r.n_qubits:
        raise DimensionMismatchError("PTM dimensions differ")
    d = r.dim
    f_pro = float(np.trace(r_ideal.r.T @ r.r) / d**2)
    f_avg = (d * f_pro + 1.0) / (d + 1.0)
    return {"f_pro": f_pro, "f_avg": f_avg}


def ptm_to_csv(ptm: PTM) -> str:
    """Row-major CSV with a basis-label header column; 12 significant digits."""
    labels = pauli_labels(ptm.n_qubits)
    lines = ["basis," + ",".join(labels)]
    for i, lb in enumerate(labels):
        lines.append(lb + "," + ",".join(format_number(v) for v in ptm.r[i]))
    return "\n".join(lines) + "\n"
