"""Gate-level circuit representation and native-ZZ compilation.

Native gate set: RZZ, RX, RY, RZ, H, S, SDG.
Single-qubit rotations use the half-angle convention R_P(theta) = exp(-i theta
P/2); the two-qubit interaction is the diagonal

    RZZ(phi) = diag(e^{-i phi/2}, e^{i phi/2}, e^{i phi/2}, e^{-i phi/2}),

exactly exp(-i phi Z(x)Z / 2).  The partial-swap compilation sandwiches three
RZZ blocks in basis changes, yielding exp(-i phi (XX+YY+ZZ)/2), which is
exp(-i phi SWAP) up to a global phase with no Trotter error (the three terms
commute).  One builder, `_udme_gates`, emits it for both schemes (RX/RY or
H/S basis changes) on any wire pair; its three RZZ blocks are one gate object,
and every compiled circuit shares its basis-change gates (`_udme_basis_changes`).
The cooling circuit layouts built from it are the gate-level oracle of
``dbac.dbac_via_dme``, in ``tests/oracles.py``.

Circuits compose in one place: `embedded_gates` stacks a batch's gates, each
shared gate object once, and `compose` multiplies them by gate position, for
`circuit_unitaries` and for `tomography.ptm_of_circuits`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .errors import ContractViolationError, DimensionMismatchError

GATE_KINDS = ("RX", "RY", "RZ", "H", "S", "SDG", "RZZ")
_ARITY = {  # (num params, num qubits)
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "H": (0, 1),
    "S": (0, 1),
    "SDG": (0, 1),
    "RZZ": (1, 2),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    params: tuple[float, ...] = ()
    qubits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ContractViolationError(f"unknown gate kind {self.kind!r}")
        nparam, nqubit = _ARITY[self.kind]
        params = tuple(float(p) for p in self.params)
        qubits = tuple(int(q) for q in self.qubits)
        if len(params) != nparam or len(qubits) != nqubit:
            raise ContractViolationError(f"{self.kind} expects {nparam} param(s), {nqubit} qubit(s)")
        if len(set(qubits)) != len(qubits):
            raise ContractViolationError("gate qubits must be distinct")
        if not all(map(math.isfinite, params)):
            raise ContractViolationError("gate angles must be finite")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not 1 <= self.num_qubits <= 5:
            raise ContractViolationError("circuits support 1..5 qubits")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not all(0 <= q < self.num_qubits for q in g.qubits):
                raise ContractViolationError(f"gate {g.kind} addresses qubit out of range")


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_FIXED = {"H": _H, "S": np.diag([1.0, 1j]).astype(complex), "SDG": np.diag([1.0, -1j]).astype(complex)}
_ZZ = np.array([1.0, -1.0, -1.0, 1.0])  # the diagonal of Z (x) Z


def _gate_matrices(gates: Sequence[Gate]) -> np.ndarray:
    """The unitaries of gates of one kind as one (N, 2^k, 2^k) stack, each
    entry computed for all N gates by one vectorized expression."""
    kind = gates[0].kind
    if kind in _FIXED:
        return _FIXED[kind][None].repeat(len(gates), axis=0)
    angles = np.array([g.params[0] for g in gates])
    if kind == "RZ":
        diag = np.exp([-1j * angles / 2, 1j * angles / 2]).T
    elif kind == "RZZ":
        diag = np.exp(-0.5j * angles[:, None] * _ZZ)
    else:
        c, s = np.cos(angles / 2), np.sin(angles / 2)
        entries = [c, -1j * s, -1j * s, c] if kind == "RX" else [c, -s, s, c]
        return np.array(entries, dtype=complex).T.copy().reshape(-1, 2, 2)
    d = diag.shape[1]
    out = np.zeros((len(gates), d * d), dtype=complex)
    out[:, :: d + 1] = diag  # the diagonal of each row-major flattened matrix
    return out.reshape(-1, d, d)


def embedded_gates(circuits: Sequence[Circuit]) -> tuple[np.ndarray, dict[tuple[int, ...], list[int]], np.ndarray]:
    """The gate stack of circuits on one register: each distinct gate object
    embedded once, in order of first use, as one (G, 2^n,
    2^n) stack; the stack indices of each qubit tuple; and the (C, depth) `take`
    array of each circuit's stack indices in gate order, padded before its first
    gate with G, the identity slot.  Recurring gate objects (the shared gates of
    the compiled partial swaps) are deduped here.  Each kind's matrices come
    from one vectorized expression, each qubit tuple's from one `embed_gate`."""
    n = circuits[0].num_qubits
    if any(c.num_qubits != n for c in circuits):
        raise DimensionMismatchError("the circuits must share one register size")
    per_circuit = [c.gates for c in circuits]
    gates = list({id(g): g for gs in per_circuit for g in gs}.values())
    where = {id(g): i for i, g in enumerate(gates)}
    depth = max(map(len, per_circuit))
    take = [[len(gates)] * (depth - len(gs)) + [where[id(g)] for g in gs] for gs in per_circuit]
    kinds, groups = {}, {}
    for i, g in enumerate(gates):
        kinds.setdefault(g.kind, []).append(i)
        groups.setdefault(g.qubits, []).append(i)
    mats = [None] * len(gates)  # each gate's unembedded matrix
    for idx in kinds.values():
        for i, m in zip(idx, _gate_matrices([gates[i] for i in idx])):
            mats[i] = m
    stack = np.empty((len(gates),) + (2**n,) * 2, dtype=complex)
    for qubits, idx in groups.items():
        stack[idx] = qmath.embed_gate([mats[i] for i in idx], qubits, n)
    return stack, groups, np.array(take, dtype=np.intp)


def compose(stack: np.ndarray, take: np.ndarray) -> np.ndarray:
    """The (C, d, d) ordered products of a (G, d, d) stack of operators (gate
    unitaries or their PTMs): row c of the (C, depth) `take` indexes circuit
    c's operators in gate order, index G being the identity.  One batched
    matmul per gate position, in gate order."""
    eye = np.eye(stack.shape[-1])
    layers = np.concatenate([stack, eye[None]])[take.T]
    r = eye[None].repeat(len(take), axis=0)
    for layer in layers:
        r = layer @ r
    return r


def circuit_unitaries(circuits: Sequence[Circuit]) -> np.ndarray:
    """The (C, 2^n, 2^n) unitaries of circuits on one register: each the
    ordered product of its gates' unitaries."""
    stack, _, take = embedded_gates(circuits)
    return compose(stack, take)


# The basis-change layers after each of the three RZZ blocks of a compiled
# partial swap, per scheme; each layer is one (kind, *params) gate on both wires.
_UDME_LAYERS = {
    "native": ((("RX", np.pi / 2),), (("RX", -np.pi / 2), ("RY", np.pi / 2)), (("RY", -np.pi / 2),)),
    "hs": ((("SDG",), ("H",)), (("H",), ("S",), ("H",)), (("H",),)),
}


@functools.cache
def _udme_basis_changes(scheme: str, q0: int, q1: int) -> tuple[tuple[Gate, ...], ...]:
    """The gates after each RZZ block of the `scheme` compilation on wires
    (q0, q1), each layer on q0 then q1; built once, shared by every circuit."""
    return tuple(
        tuple(Gate(kind, params, (q,)) for kind, *params in layers for q in (q0, q1))
        for layers in _UDME_LAYERS[scheme]
    )


def _udme_gates(phi: float, q0: int, q1: int, scheme: str) -> list[Gate]:
    """exp(-i phi SWAP) on wires (q0, q1) up to a global phase: three RZZ(phi)
    blocks, one shared gate object, each followed by its basis changes."""
    rzz = Gate("RZZ", (phi,), (q0, q1))
    return [g for block in _udme_basis_changes(scheme, q0, q1) for g in (rzz, *block)]


def compile_udme_native(phi: float) -> Circuit:
    """Partial-swap compilation with RX/RY basis changes around three RZZ blocks."""
    return Circuit(2, _udme_gates(phi, 0, 1, "native"))


def compile_udme_hs(phi: float) -> Circuit:
    """Same target unitary via Hadamard / phase-gate basis changes."""
    return Circuit(2, _udme_gates(phi, 0, 1, "hs"))


def partial_swap_unitaries(phis: Sequence[float]) -> np.ndarray:
    """The (P, 4, 4) partial swaps exp(-i phi SWAP), one per angle, in closed
    form: cos(phi) I - i sin(phi) SWAP, exact since SWAP^2 = I.  These are the
    targets the compiled partial swaps are checked against."""
    phis = np.asarray(phis, dtype=float)[:, None, None]
    return np.cos(phis) * np.eye(4) - 1j * np.sin(phis) * qmath.swap_operator(2)


def _cz_gates(q0: int, q1: int) -> list[Gate]:
    # plain-rotation R_Z(pi) from the source table is RZ(2*pi) here: a global
    # sign, kept for a faithful gate sequence
    gates = [Gate("RZZ", (np.pi / 2,), (q0, q1))]
    for q in (q0, q1):
        gates.append(Gate("RZ", (2 * np.pi,), (q,)))
        gates.append(Gate("SDG", (), (q,)))
    return gates


def compile_cz() -> Circuit:
    """CZ from one RZZ(pi/2) plus local corrections."""
    return Circuit(2, tuple(_cz_gates(0, 1)))


def _cnot_gates(control: int, target: int) -> list[Gate]:
    return [Gate("H", (), (target,))] + _cz_gates(control, target) + [Gate("H", (), (target,))]


def compile_cnot() -> Circuit:
    """CNOT as H-conjugated CZ (control 0, target 1)."""
    return Circuit(2, tuple(_cnot_gates(0, 1)))


def compile_swap3() -> Circuit:
    """SWAP from three alternating CNOTs."""
    gates = _cnot_gates(0, 1) + _cnot_gates(1, 0) + _cnot_gates(0, 1)
    return Circuit(2, tuple(gates))

