"""Reference cooling protocols: a 3-qubit compression round with bath reset,
and probabilistic two-copy mixedness reduction.

The compression circuit swaps the register into the reset line, then applies a
controlled bit-flip pair, a doubly-controlled flip back onto the target, and
the controlled pair again.  For product thermal inputs with polarizations
(e1, e2, e3) the target polarization becomes (e1 + e2 + e3 - e1 e2 e3)/2,
a 3/2 boost at small equal polarization.  `baselines` iterates that closed
form, :func:`hbac_round_closed`, with bath reset, toward its fixed point
2 eb / (1 + eb^2): the asymptotic 3-qubit limit of Rodriguez-Briones and
Laflamme, PRL 116, 170501 (2016).  The dense round, :func:`ppa_round`,
stays here; ``tests/oracles.py`` wraps it as the closed form's oracle.

The two-copy round of Cirac, Ekert and Macchiavello, PRL 82, 4344 (1999),
runs dense on a whole stack of qubit states at once
(:func:`cem_round_simulated`) and in closed form (:func:`cem_round_closed`).
"""

from __future__ import annotations

import numpy as np

from . import qmath
from .errors import ContractViolationError, DimensionMismatchError
from .states import DensityMatrix, check_density


def thermal_qubit(eps: float) -> DensityMatrix:
    """(1/2) diag(1 + eps, 1 - eps)."""
    if not abs(eps) <= 1.0:
        raise ContractViolationError("polarization must lie in [-1, 1]")
    return DensityMatrix(0.5 * np.diag([1.0 + eps, 1.0 - eps]).astype(complex))


def _controlled_flip(controls: int, targets: int) -> np.ndarray:
    """X on the qubits of bit mask ``targets``, controlled on every qubit of
    bit mask ``controls`` (qubit 0 is the high bit of the 3-qubit index)."""
    u = np.eye(8, dtype=complex)
    for idx in range(8):
        if idx & controls == controls:
            u[idx, idx] = 0.0
            u[idx ^ targets, idx] = 1.0
    return u


def ppa_compression_unitary() -> np.ndarray:
    """The full 3-qubit round: two swaps into the reset line, then the
    flip-pair / double-flip / flip-pair compression block."""
    swap = qmath.swap_operator(2)
    sw02 = qmath.embed_gate(swap, (0, 2), 3)
    sw12 = qmath.embed_gate(swap, (1, 2), 3)
    cff = _controlled_flip(0b100, 0b011)  # the flip pair, on qubits 1 and 2
    return cff @ _controlled_flip(0b011, 0b100) @ cff @ sw12 @ sw02


_U_PPA = ppa_compression_unitary()


def ppa_round(rho3: DensityMatrix) -> DensityMatrix:
    """Conjugate a 3-qubit register by the compression round (qubit 0 = target,
    qubit 2 = reset line)."""
    if rho3.matrix.shape != (8, 8):
        raise DimensionMismatchError("ppa_round expects a 3-qubit register")
    return DensityMatrix(_U_PPA @ rho3.matrix @ _U_PPA.conj().T)


def target_polarization(rho3: DensityMatrix) -> float:
    """Tr[(Z x I x I) rho] on the target line."""
    if rho3.matrix.shape != (8, 8):
        raise DimensionMismatchError("target_polarization expects a 3-qubit register")
    zii = qmath.kron_all([qmath.PAULI_Z, qmath.I2, qmath.I2])
    return float(np.trace(zii @ rho3.matrix).real)


def hbac_round_closed(eps_target: float, eps_1: float, eps_2: float) -> float:
    """Target polarization after one compression round of product thermal
    qubits: (e_t + e_1 + e_2 - e_t e_1 e_2) / 2."""
    if not all(abs(e) <= 1.0 for e in (eps_target, eps_1, eps_2)):  # NaN fails too
        raise ContractViolationError("polarization must lie in [-1, 1]")
    return (eps_target + eps_1 + eps_2 - eps_target * eps_1 * eps_2) / 2


def cem_round_closed(x: float) -> dict[str, float]:
    """Post-success mixedness x' = x(2 + x)/(4 - 2x + x^2) and the success
    probability 1 - x/2 + x^2/4."""
    if not 0.0 <= x < 1.0:
        raise ContractViolationError("x must lie in [0, 1)")
    x_next = (2.0 + x) / (4.0 - 2.0 * x + x * x) * x
    p_success = 1.0 - 0.5 * x + 0.25 * x * x
    return {"x_next": x_next, "p_success": p_success}


def cem_round_simulated(rho) -> dict[str, np.ndarray]:
    """Two-copy interference round, brute force, on one qubit state's matrix
    or a ``(B, 2, 2)`` stack of them, validated once.

    Builds ancilla (x) rho (x) rho, applies the Hadamard-conjugated controlled
    swap, postselects the ancilla on |0>, and traces out the ancilla and the
    first copy.  Returns the surviving copies, shaped as the input, and the
    postselection probabilities: one per state, a float for one state.
    """
    m = qmath.as_complex_matrix(rho, ndims=(2, 3))
    if m.shape[-2:] != (2, 2):
        raise DimensionMismatchError("cem_round_simulated expects single-qubit states")
    shape = m.shape
    m = check_density(m.reshape(-1, 2, 2))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    i4 = np.eye(4, dtype=complex)
    cswap = np.kron(p0, i4) + np.kron(p1, qmath.swap_operator(2))
    u = np.kron(h, i4) @ cswap @ np.kron(h, i4)
    proj = np.kron(p0, i4)
    joint = np.zeros((len(m), 8, 8), dtype=complex)  # |0><0| (x) rho (x) rho
    joint[:, :4, :4] = (m[:, :, None, :, None] * m[:, None, :, None, :]).reshape(-1, 4, 4)
    evolved = u @ joint @ u.conj().T
    kept = proj @ evolved @ proj
    p_success = np.trace(kept, axis1=1, axis2=2).real
    kept = kept / p_success[:, None, None]
    reduced = np.einsum("zacqacr->zqr", kept.reshape(-1, 2, 2, 2, 2, 2, 2))  # keep the second copy
    return {"rho_next": reduced.reshape(shape), "p_success": p_success.reshape(shape[:-2])[()]}


def mixedness_of(rho) -> float | np.ndarray:
    """x = 2 * (smaller eigenvalue) of a single-qubit state's matrix, or of
    each state of a ``(B, 2, 2)`` stack."""
    return 2.0 * np.linalg.eigvalsh(rho)[..., 0]
