"""The cooling protocol: exact step, closed-form energy law, recursion, and
the density-matrix realization through partial-swap instruction copies.

One step of duration t maps |psi> to

    exp(+i t H) exp(+i t |psi><psi|) exp(-i t H) |psi>

and for a single qubit with H = -Z changes the energy by the closed form
implemented in :func:`dbac_energy_analytic`.  Recursion semantics: by default
each step acts on the previous step's output with the reflector built around
that same output ("chain"); the alternative "fresh" mode rebuilds each step
around the previous output but applies it to a new copy of the original state.
Chain is the default because the multi-step circuit layouts, the copies
accounting (M_j + 1 inputs multiply across steps), and the multi-qubit
synthesis recursion all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import qmath
from .dme import partial_swap, reflector
from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError
from .states import (
    BlochVector,
    HamiltonianSpec,
    PureState,
    bloch_vector,
    check_density,
    energy,
    rx_init,
    variance,
)
from .tomography import NoiseModel

RECURSION_MODES = ("chain", "fresh")

# step-size search grid: resolution 1e-3 on (0, pi], ties resolved toward
# smaller s within 1e-9
_S_GRID = np.concatenate([np.arange(1e-3, np.pi, 1e-3), [np.pi]])
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class DbacSchedule:
    """Per-step durations s_j, per-step instruction depths M_j, Hamiltonian.

    ``m=None`` selects exact reflectors (the infinite-depth idealization).
    """

    s: tuple[float, ...]
    m: Optional[tuple[int, ...]] = None
    hamiltonian: HamiltonianSpec = field(default_factory=HamiltonianSpec.default_single_qubit)
    recursion: str = "chain"

    def __post_init__(self):
        s = tuple(float(x) for x in self.s)
        if len(s) < 1:
            raise ContractViolationError("schedule needs at least one step")
        if not all(np.isfinite(x) for x in s):
            raise ContractViolationError("step durations must be finite")
        object.__setattr__(self, "s", s)
        if self.m is not None:
            m = tuple(int(x) for x in self.m)
            if len(m) != len(s):
                raise ContractViolationError("m list length must match s list length")
            if any(x < 1 for x in m):
                raise ContractViolationError("every Trotter depth must be >= 1")
            object.__setattr__(self, "m", m)
        if self.recursion not in RECURSION_MODES:
            raise ContractViolationError(f"recursion must be one of {RECURSION_MODES}")

    @classmethod
    def uniform(cls, k: int, s: float, m: Optional[int] = None, **kw) -> "DbacSchedule":
        if k < 1:
            raise ContractViolationError("k must be >= 1")
        return cls(s=(s,) * k, m=None if m is None else (m,) * k, **kw)

    @property
    def k(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class CoolingRecord:
    """Per-step observables of one protocol run.

    ``energies``/``fidelities`` hold k+1 entries (initial state included);
    ``variances`` hold the k pre-step energy variances.  ``instruction_energies``
    are the post-interaction energies of every instruction register consumed,
    in protocol order (empty for exact-reflector runs).
    """

    energies: tuple[float, ...]
    variances: tuple[float, ...]
    fidelities: tuple[float, ...]
    copies_consumed: int
    trajectory: tuple[BlochVector, ...]
    instruction_energies: tuple[float, ...] = ()

    def __post_init__(self):
        k = len(self.energies) - 1
        if k < 1 or len(self.variances) != k or len(self.fidelities) != k + 1:
            raise ContractViolationError("record lengths are inconsistent")
        if any(not 0.0 <= f <= 1.0 + 1e-9 for f in self.fidelities):
            raise ContractViolationError("fidelities must lie in [0, 1]")
        if self.copies_consumed < k:
            raise ContractViolationError("copies_consumed must be at least k")

    @property
    def k(self) -> int:
        return len(self.energies) - 1


class BasinResult(NamedTuple):
    f0_min: float
    reachable: bool


def dbac_energy_analytic(e0: float, t: float) -> float:
    """Post-step energy E1 = E0 - 2 sin^2(t) (1 - E0^2) ((1 - cos t) E0 + cos t)."""
    if abs(e0) > 1.0:
        raise ContractViolationError("e0 must lie in [-1, 1]")
    return float(_energy_law(np.asarray(e0, dtype=float), np.asarray(t, dtype=float)))


def _energy_law(e0, t):
    st2 = np.sin(t) ** 2
    return e0 - 2.0 * st2 * (1.0 - e0**2) * ((1.0 - np.cos(t)) * e0 + np.cos(t))


def dbac_step_exact(psi: PureState, t: float, h: HamiltonianSpec | None = None) -> PureState:
    """exp(i t H) exp(i t |psi><psi|) exp(-i t H) |psi>, renormalized."""
    spec = h or HamiltonianSpec.default_single_qubit()
    if spec.matrix.shape[0] != psi.amplitudes.size:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    em = qmath.herm_expm(spec.matrix, -1j * t)  # exp(+i t H) is its adjoint
    u = em.conj().T @ reflector(psi, t) @ em
    return PureState.from_vector(u @ psi.amplitudes)


def _ground_projector(h: HamiltonianSpec) -> np.ndarray:
    w, v = np.linalg.eigh(h.matrix)
    sel = w <= w.min() + 1e-9
    vg = v[:, sel]
    return vg @ vg.conj().T


def _ground_fidelity(rho: np.ndarray, pg: np.ndarray) -> float:
    return float(min(max(np.trace(pg @ rho).real, 0.0), 1.0))


def dbac_recursive_exact(psi: PureState, schedule: DbacSchedule) -> CoolingRecord:
    """Iterate exact-reflector steps per the schedule, recording per-step observables."""
    h = schedule.hamiltonian
    if h.matrix.shape[0] != psi.amplitudes.size:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    pg = _ground_projector(h)
    original = psi
    current = psi
    energies = [energy(current, h)]
    fids = [_ground_fidelity(np.outer(current.amplitudes, current.amplitudes.conj()), pg)]
    variances = []
    traj = [bloch_vector(current)] if psi.num_qubits == 1 else []
    for j, t in enumerate(schedule.s):
        variances.append(variance(current, h))
        refl_state = current
        data = original if schedule.recursion == "fresh" else current
        em = qmath.herm_expm(h.matrix, -1j * t)  # exp(+i t H) is its adjoint
        u = em.conj().T @ reflector(refl_state, t) @ em
        current = PureState.from_vector(u @ data.amplitudes)
        energies.append(energy(current, h))
        fids.append(_ground_fidelity(np.outer(current.amplitudes, current.amplitudes.conj()), pg))
        if psi.num_qubits == 1:
            traj.append(bloch_vector(current))
    copies = copies_accounting(schedule)["inputs_total"] if schedule.m else schedule.k + 1
    return CoolingRecord(
        energies=tuple(energies),
        variances=tuple(variances),
        fidelities=tuple(fids),
        copies_consumed=copies,
        trajectory=tuple(traj),
    )


def _expect(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[op rho] for every state of a (B, d, d) batch."""
    return np.einsum("ij,bji->b", op, rho).real


def _depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """(1 - p) rho + p I/2 for unit-trace single-qubit states."""
    return (1.0 - p) * rho + 0.5 * p * qmath.I2


def dbac_via_dme(
    theta: float | np.ndarray,
    schedule: DbacSchedule,
    noise: Optional[NoiseModel] = None,
) -> CoolingRecord | tuple[CoolingRecord, ...]:
    """Full density-matrix simulation with reflectors realized by partial swaps.

    The initial state is R_X(theta)|0>.  ``theta`` is one angle, which gives a
    :class:`CoolingRecord`, or a 1-D array of angles, which gives a tuple of
    records, one per angle, all simulated as one batch.

    Step j consumes M_j fresh instruction copies of the previous step's
    output, each through one :func:`dme.partial_swap` call over the batch.
    With depolarizing noise, p1 acts after each echo rotation and p2 on each
    two-register interaction; depolarizing the joint register and then tracing
    out one side leaves (1 - p2) sigma' + p2 I/2 on either marginal, so the p2
    path is closed form too.  The closing echo rotation is applied so states,
    not only energies, are correct.

    Every state is validated as a batch: the initial states, each
    instruction state before its variance is taken, each step's output
    before its Bloch vector is taken and, without p2 noise, the data state
    and instruction marginal after every partial swap.  The exact step,
    :func:`dme.dme_step_exact` on an explicit joint state, is not called here;
    it is the oracle this simulation is tested against.
    """
    if schedule.m is None:
        raise ContractViolationError("dbac_via_dme needs finite Trotter depths; use dbac_recursive_exact")
    h = schedule.hamiltonian
    if h.num_qubits != 1:
        raise DimensionMismatchError("dbac_via_dme simulates the single-qubit protocol")
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1 or thetas.size == 0:
        raise ContractViolationError("theta must be one angle or a nonempty 1-D array of angles")
    p1 = noise.p1 if noise else 0.0
    p2 = noise.p2 if noise else 0.0
    hm = h.matrix
    hm2 = hm @ hm
    pg = _ground_projector(h)
    amps = np.array([rx_init(t).amplitudes for t in np.atleast_1d(thetas)])
    rho0 = check_density(amps[:, :, None] * amps.conj()[:, None, :])
    paulis = (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
    instr = data = rho0
    energies = [_expect(hm, rho0)]
    fids = [np.clip(_expect(pg, rho0), 0.0, 1.0)]
    variances = []
    traj = [[_expect(p, rho0) for p in paulis]]
    instr_energies = []
    for t, m in zip(schedule.s, schedule.m):
        instr = check_density(instr)
        variances.append(_expect(hm2, instr) - _expect(hm, instr) ** 2)
        em = qmath.herm_expm(hm, -1j * t)  # exp(+i t H) is its adjoint
        sig = _depolarize(em @ data @ em.conj().T, p1)
        # delta = -t/M so that each partial swap approximates exp(+i(t/M) instr)
        delta = -t / m
        for _ in range(m):
            sig, marg = partial_swap(instr, sig, delta)
            if p2 > 0:
                sig, marg = _depolarize(sig, p2), _depolarize(marg, p2)
            else:
                sig, marg = check_density(sig), check_density(marg)
            instr_energies.append(_expect(hm, marg))
        out = check_density(_depolarize(em.conj().T @ sig @ em, p1))
        energies.append(_expect(hm, out))
        fids.append(np.clip(_expect(pg, out), 0.0, 1.0))
        traj.append([_expect(p, out) for p in paulis])
        instr = out
        data = out if schedule.recursion == "chain" else rho0
    copies = copies_accounting(schedule)["inputs_total"]
    energies, variances, fids = np.array(energies), np.array(variances), np.array(fids)
    instr_energies = np.array(instr_energies)
    traj = np.array(traj)  # (k + 1, 3, B)
    records = tuple(
        CoolingRecord(
            energies=tuple(energies[:, b].tolist()),
            variances=tuple(variances[:, b].tolist()),
            fidelities=tuple(fids[:, b].tolist()),
            copies_consumed=copies,
            trajectory=tuple(BlochVector(*xyz) for xyz in traj[:, :, b].tolist()),
            instruction_energies=tuple(instr_energies[:, b].tolist()),
        )
        for b in range(thetas.size)
    )
    return records if thetas.ndim else records[0]


def synthesize_uk(
    h: HamiltonianSpec, s_list: Sequence[float], u0: Optional[np.ndarray] = None
) -> np.ndarray:
    """Recursive unitary synthesis referenced to |0...0>.

    U_{k+1} = e^{i sqrt(s_k) H} U_k e^{i sqrt(s_k) P_0} U_k^dag
    e^{-i sqrt(s_k) H} U_k with P_0 = |0...0><0...0|.  The base case defaults
    to U_0 = I (the reference state is prepared trivially); pass ``u0`` to seed
    the recursion from a different preparation.
    """
    if h.num_qubits > 3:
        raise ContractViolationError("synthesize_uk supports at most 3 qubits")
    dim = h.matrix.shape[0]
    p0 = np.zeros((dim, dim), dtype=complex)
    p0[0, 0] = 1.0
    u = np.eye(dim, dtype=complex) if u0 is None else qmath.check_unitary(u0).copy()
    for s in s_list:
        if s <= 0:
            raise ContractViolationError("step sizes must be positive")
        a = float(np.sqrt(s))
        refl0 = np.eye(dim, dtype=complex) + (np.exp(1j * a) - 1.0) * p0
        u = (
            qmath.herm_expm(h.matrix, 1j * a)
            @ u
            @ refl0
            @ u.conj().T
            @ qmath.herm_expm(h.matrix, -1j * a)
            @ u
        )
    return u


def descent_bound_residual(h: HamiltonianSpec, psi: PureState, s: float) -> float:
    """(E1 - E0 + 2 s V0) / s^2 for one step of duration sqrt(s).

    Bounded above per instance as s -> 0, witnessing the descent inequality
    E1 <= E0 - 2 s V0 + O(s^2).
    """
    if not 0.0 < s <= 0.1:
        raise ContractViolationError("s must lie in (0, 0.1]")
    e0 = energy(psi, h)
    v0 = variance(psi, h)
    stepped = dbac_step_exact(psi, float(np.sqrt(s)), h)
    e1 = energy(stepped, h)
    return float((e1 - e0 + 2.0 * s * v0) / s**2)


def copies_accounting(schedule: DbacSchedule) -> dict[str, int]:
    """Input-state accounting: total copies prod(M_j + 1), extras, and prod(M_j)."""
    if schedule.m is None:
        raise ContractViolationError("copies accounting requires finite Trotter depths")
    total = 1
    prod = 1
    for mj in schedule.m:
        total *= mj + 1
        prod *= mj
    return {"inputs_total": total, "inputs_extra": total - 1, "product_form": prod}


# ---------------------------------------------------------------------------
# vectorized search engines (H = -Z single-qubit family, common step size)
# ---------------------------------------------------------------------------


def _via_dme_final_energy_sgrid(theta, k, m, s, mode="chain"):
    """Final energy for every common step size in `s` (noiseless, H = -Z)."""
    s = np.asarray(s, dtype=float)
    rho0 = rx_init(theta).density().matrix
    batch = np.broadcast_to(rho0, (s.size, 2, 2)).copy()
    instr = batch.copy()
    data = batch
    phase = np.exp(1j * s)  # e^{-isH} = diag(e^{is}, e^{-is}) for H = -Z
    phase2, phase2_conj = phase * phase, np.conj(phase * phase)
    delta = -s / m
    out = batch
    for _ in range(k):
        sig = data.copy()
        sig[:, 0, 1] *= phase2
        sig[:, 1, 0] *= phase2_conj
        for _ in range(m):
            sig = partial_swap(instr, sig, delta)[0]
        sig[:, 0, 1] *= phase2_conj
        sig[:, 1, 0] *= phase2
        out = sig
        instr = out
        data = out if mode == "chain" else batch
    return (out[:, 1, 1] - out[:, 0, 0]).real


def _exact_final_energy_sgrid(e0, k, s, mode="chain"):
    """Exact-reflector final energies over the step-size grid."""
    s = np.asarray(s, dtype=float)
    if mode == "chain":
        e = np.full(s.shape, float(e0))
        for _ in range(k):
            e = _energy_law(e, s)
        return e
    theta = float(np.arccos(np.clip(-e0, -1.0, 1.0)))
    psi0 = rx_init(theta).amplitudes
    cur = np.broadcast_to(psi0, (s.size, 2)).copy()
    base = cur.copy()
    eis = np.exp(1j * s)
    for _ in range(k):
        chi = cur
        v = base * np.stack([eis, np.conj(eis)], axis=1)  # e^{-isH}|psi0>
        overlap = np.sum(np.conj(chi) * v, axis=1)
        v = v + ((np.exp(1j * s) - 1.0) * overlap)[:, None] * chi
        v = v * np.stack([np.conj(eis), eis], axis=1)  # e^{+isH}
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cur = v
    return (np.abs(cur[:, 1]) ** 2 - np.abs(cur[:, 0]) ** 2).astype(float)


def _final_energy_sgrid(e0, k, m, s, mode="chain"):
    if m is None:
        return _exact_final_energy_sgrid(e0, k, s, mode)
    theta = float(np.arccos(np.clip(-e0, -1.0, 1.0)))
    return _via_dme_final_energy_sgrid(theta, k, m, s, mode)


def step_size_grid() -> np.ndarray:
    """The search grid for common step sizes: (0, pi] at resolution 1e-3."""
    return _S_GRID.copy()


def final_fidelities_over_s(
    theta: float, k: int, m: Optional[int], s_values, mode: str = "chain"
) -> np.ndarray:
    """Ground-state fidelity after the k-step protocol, for each common step
    size in ``s_values`` (noiseless, H = -Z; ``m=None`` selects exact reflectors)."""
    e0 = -float(np.cos(theta))
    energies = _final_energy_sgrid(e0, k, m, np.asarray(s_values, dtype=float), mode)
    return (1.0 - energies) / 2.0


def optimal_step(e0: float, k: int, m: Optional[int] = None, mode: str = "chain") -> float:
    """Grid-search minimizer of the final energy over common s in (0, pi].

    Grid resolution 1e-3; among step sizes within 1e-9 of the minimum the
    smallest is returned.  ``m=None`` selects exact reflectors.
    """
    if abs(e0) >= 1.0:
        raise DegenerateInputError("e0 = +/-1 is a protocol fixed point; no step optimizes it")
    if k < 1 or (m is not None and m < 1):
        raise ContractViolationError("k and m must be positive")
    energies = _final_energy_sgrid(e0, k, m, _S_GRID, mode)
    best = energies.min()
    idx = int(np.argmax(energies <= best + _TIE_TOL))
    return float(_S_GRID[idx])


def best_final_fidelity(
    f0: float, k: int, m: Optional[int] = None, mode: str = "chain"
) -> float:
    """Best ground-state fidelity achievable with an optimized common step size."""
    if not 0.0 < f0 <= 1.0:
        raise ContractViolationError("f0 must lie in (0, 1]")
    e0 = 1.0 - 2.0 * f0
    energies = _final_energy_sgrid(e0, k, m, _S_GRID, mode)
    return float((1.0 - energies.min()) / 2.0)


def basin_min_fidelity(
    k: int, m: Optional[int], f_target: float, mode: str = "chain"
) -> BasinResult:
    """Smallest initial ground fidelity from which the optimally stepped
    protocol reaches ``f_target``, bisected to 1e-4.

    Returns the 1.0 sentinel with ``reachable=False`` when no initial fidelity
    below 1 attains the target.
    """
    if not 0.0 < f_target < 1.0:
        raise ContractViolationError("f_target must lie in (0, 1)")
    hi = 1.0 - 1e-6
    lo = 1e-6
    if best_final_fidelity(hi, k, m, mode) < f_target:
        return BasinResult(1.0, False)
    if best_final_fidelity(lo, k, m, mode) >= f_target:
        return BasinResult(lo, True)
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if best_final_fidelity(mid, k, m, mode) >= f_target:
            hi = mid
        else:
            lo = mid
    return BasinResult(hi, True)
