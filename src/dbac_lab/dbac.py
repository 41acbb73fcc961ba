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

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import qmath
from .dme import (
    bloch_planes, check_bloch, density_matrices, partial_swap, reflector, swap_coefficients, swap_operands
)
from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError
from .states import BlochVector, HamiltonianSpec, PureState, check_density, energy, variance
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
    return float(_energy_law(np.asarray(e0, dtype=float), *_law_terms(np.asarray(t, dtype=float))))


def _law_terms(t):
    """The terms of the energy law that depend on t alone: (2 sin^2 t, 1 - cos t, cos t)."""
    c = np.cos(t)
    return 2.0 * np.sin(t) ** 2, 1.0 - c, c


def _energy_law(e0, two_sin2, one_minus_cos, cos):
    """E1 from E0 and :func:`_law_terms` of t, elementwise over arrays."""
    return e0 - two_sin2 * (1.0 - e0**2) * (one_minus_cos * e0 + cos)


def dbac_step_exact(psi: PureState, t: float, h: HamiltonianSpec | None = None) -> PureState:
    """exp(i t H) exp(i t |psi><psi|) exp(-i t H) |psi>, renormalized, by a
    dense application of every factor."""
    spec = h or HamiltonianSpec.default_single_qubit()
    if spec.matrix.shape[0] != psi.amplitudes.size:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    em = spec.expm(-1j * t)  # exp(+i t H) is its adjoint
    v = em.conj().T @ reflector(psi, t) @ em @ psi.amplitudes
    return PureState(v / np.linalg.norm(v))


def _expect(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[op rho] for every state of a (..., d, d) stack."""
    return np.einsum("ij,...ji->...", op, rho).real


def _records(schedule: DbacSchedule, states: np.ndarray, marginals=()) -> tuple[CoolingRecord, ...]:
    """One record per batch entry of a run's (k + 1, B, d, d) stack of states
    and its (n, B, d, d) instruction marginals, both in H's eigenbasis and
    already validated by the caller; this only computes observables.  They
    are rotated into that basis, not the states out of it."""
    _, b, d, _ = states.shape
    marginals = np.reshape(marginals, (-1, b, d, d))
    w, v = schedule.hamiltonian.eig
    energies = _expect(np.diag(w), states)
    variances = _expect(np.diag(w * w), states[:-1]) - energies[:-1] ** 2
    fids = np.clip(_expect(v.conj().T @ schedule.hamiltonian.ground_projector @ v, states), 0.0, 1.0)
    instr_energies = _expect(np.diag(w), marginals)
    paulis = (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
    bloch = np.stack([_expect(v.conj().T @ p @ v, states) for p in paulis], -1) if d == 2 else np.empty((0, b, 3))
    copies = copies_accounting(schedule)["inputs_total"] if schedule.m else schedule.k + 1
    return tuple(
        CoolingRecord(
            energies=tuple(energies[:, i].tolist()),
            variances=tuple(variances[:, i].tolist()),
            fidelities=tuple(fids[:, i].tolist()),
            copies_consumed=copies,
            trajectory=tuple(BlochVector(*xyz) for xyz in bloch[:, i].tolist()),
            instruction_energies=tuple(instr_energies[:, i].tolist()),
        )
        for i in range(b)
    )


def dbac_recursive_exact(psi: PureState, schedule: DbacSchedule) -> CoolingRecord:
    """Iterate exact-reflector steps per the schedule, recording per-step observables.

    H and psi were validated on construction; :func:`_exact_steps` steps raw
    vectors in H's eigenbasis, and the k + 1 states are validated once, by one
    :func:`check_density` call on their stack, before the record is built.
    """
    h = schedule.hamiltonian
    if h.matrix.shape[0] != psi.amplitudes.size:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    w, v = h.eig
    psi0 = (psi.amplitudes @ v.conj())[None]  # (1, d), eigenbasis
    steps = _exact_steps(psi0, np.array(schedule.s)[:, None], w, schedule.recursion)
    vecs = np.array([psi0, *steps])  # (k + 1, 1, d)
    return _records(schedule, check_density(vecs[..., :, None] * vecs.conj()[..., None, :]))[0]


def _angles(theta) -> np.ndarray:
    """``theta`` as a float array: one finite angle, or a nonempty 1-D array of them."""
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1 or thetas.size == 0:
        raise ContractViolationError("theta must be one angle or a nonempty 1-D array of angles")
    if not np.all(np.isfinite(thetas)):
        raise ContractViolationError("theta must be finite")
    return thetas


def _rx_init(thetas: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R_X(theta)|0> = cos(theta/2)|0> - i sin(theta/2)|1> for each angle of a
    1-D array, as (T, 2) amplitudes in the basis of the columns of ``v``."""
    return np.stack([np.cos(thetas / 2), -1j * np.sin(thetas / 2)], axis=-1) @ v.conj()


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
    path is closed form too.  Damping (``t1_us``) is not modeled and is
    rejected.  The closing echo rotation makes states, not only energies, right.

    The steps run on Bloch vectors in H's eigenbasis (:func:`_bloch_steps`) and
    validate nothing: every reported state (initial states, step outputs,
    instruction marginals) is validated once, by one :func:`dme.check_bloch`
    call on their stacked planes, before they are rebuilt as matrices for the
    observables.
    :func:`dme.dme_step_exact` is the oracle this is tested against, not called here.
    """
    if schedule.m is None:
        raise ContractViolationError("dbac_via_dme needs finite Trotter depths; use dbac_recursive_exact")
    h = schedule.hamiltonian
    if h.num_qubits != 1:
        raise DimensionMismatchError("dbac_via_dme simulates the single-qubit protocol")
    if noise is not None and noise.t1_us is not None:
        raise ContractViolationError("dbac_via_dme models no t1/t2 damping")
    thetas = _angles(theta)
    w, v = h.eig
    amps = _rx_init(np.atleast_1d(thetas), v)
    r0 = bloch_planes(amps[:, :, None] * amps.conj()[:, None, :])  # (3, B), eigenbasis
    states, marginals = [r0], []
    table = functools.cache(lambda sj, mj: _step_table(np.array([sj]), mj, w))  # once per distinct step
    tables = [table(sj, mj) for sj, mj in zip(schedule.s, schedule.m)]
    for out, margs in _bloch_steps(r0, tables, schedule.recursion, noise, marginals=True):
        states.append(out)
        marginals.extend(margs)
    planes = np.stack(states + marginals, axis=1)  # (3, k + 1 + n, B)
    check_bloch(planes)
    mats = density_matrices(planes)
    records = _records(schedule, mats[: schedule.k + 1], mats[schedule.k + 1 :])
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
        em = h.expm(-1j * a)  # e^{+i a H} is its adjoint
        u = em.conj().T @ u @ refl0 @ u.conj().T @ em @ u
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
# batched cooling engines, in the eigenbasis of H
# ---------------------------------------------------------------------------
# exp(-itH) is the diagonal exp(-itw) there, so echo rotations are phases on
# state vectors and, for a qubit, rotations of a Bloch vector's (x, y) plane by
# t (w0 - w1).  _exact_steps steps (B, d) state vectors, for any d.
# _bloch_steps steps qubit states as (3, B) Bloch planes through
# dme.partial_swap: M_j swaps per step, or one call that is the exact
# reflector.  Its step-size terms come in a _StepTable, built once per distinct
# step, once per final_fidelities_over_s call, and once per depth for the
# search grid (_grid_table), never once per probe.  The search runs every
# (angle, step size) pair of a call as one batch entry and skips the
# instruction marginals.  The dense dbac_step_exact and dme_step_exact are the
# oracles, and _exact_steps is the oracle of the Bloch-plane reflectors.


def _exact_steps(psi0, steps, w, recursion):
    """Exact-reflector steps of a (B, d) or (1, d) batch of unit vectors: the
    reflector exp(it|cur><cur|) = I + (e^{it} - 1)|cur><cur| is a rank-1 update."""
    cur, t_prev = psi0, None
    for t in steps:
        if not np.array_equal(t, t_prev):  # the phases repeat with the step size
            e = np.exp(-1j * t[:, None] * w)  # exp(-itH)
            ec, r, t_prev = e.conj(), np.exp(1j * t[:, None]) - 1.0, t
        out = (cur if recursion == "chain" else psi0) * e
        out += r * np.sum(cur.conj() * out, axis=-1, keepdims=True) * cur
        out *= ec
        out /= np.linalg.norm(out, axis=-1, keepdims=True)
        cur = out
        yield cur


class _StepTable(NamedTuple):
    """The terms of one cooling step that depend on its step sizes s alone, for
    each entry of a batch, at instruction depth ``m`` (``None``: exact
    reflectors).  ``cos_phi``/``sin_phi`` rotate the echo's (x, y) plane by
    phi = s (w0 - w1); ``coeffs`` are the kernel's ``swap_coefficients(-s / m)``
    (each swap approximates exp(+i (s/M) instr)) or, for exact reflectors,
    (cos s, 1 - cos s, -sin s); ``law`` is the energy law's
    :func:`_law_terms`, for exact reflectors only."""

    m: Optional[int]
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    coeffs: tuple
    law: Optional[tuple]


def _step_table(s: np.ndarray, m: Optional[int], w: np.ndarray) -> _StepTable:
    """The :class:`_StepTable` of an array of step sizes under eigenvalues ``w``."""
    phi = s * (w[0] - w[1])
    if m is None:
        law = _law_terms(s)
        coeffs = (law[2], law[1], -np.sin(s))
    else:
        law, coeffs = None, swap_coefficients(-s / m)
    return _StepTable(m, np.cos(phi), np.sin(phi), coeffs, law)


@functools.lru_cache(maxsize=16)
def _grid_table(m: Optional[int]) -> _StepTable:
    """The :class:`_StepTable` of the search grid under the default H, built
    once per depth and shared by every search call, so its arrays are read-only."""
    table = _step_table(_S_GRID, m, HamiltonianSpec.default_single_qubit().eig[0])
    for a in (table.cos_phi, table.sin_phi, *table.coeffs, *(table.law or ())):
        a.setflags(write=False)
    return table


def _rotate_xy(r: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """(3, B) Bloch planes with (x, y) rotated by the angle of (cos, sin), as a new array."""
    x, y, z = r
    return np.array([cos * x - sin * y, sin * x + cos * y, z])


def _bloch_steps(r0, tables, recursion, noise=None, marginals=False):
    """Cooling steps of a (3, B) batch of Bloch planes, step j by the
    :class:`_StepTable` ``tables[j]``: yields each step's output and, with
    ``marginals``, its M_j instruction marginals.  A step of depth M makes M
    partial swaps; an exact-reflector step rotates the echoed data b by -s
    about the previous output c, a pure state: exp(is|c><c|) is the kernel
    with operands (cos s, (1 - cos s)(c.b) c, -sin s c), and its output is
    rescaled to |a| = 1, as _exact_steps renormalizes.  Depolarizing
    with probability p scales a Bloch vector by 1 - p.  ``partial_swap`` is
    looked up in this module, so a test can trace it."""
    p1, p2 = (noise.p1, noise.p2) if noise else (0.0, 0.0)
    instr = data = r0
    for table in tables:
        sig = _rotate_xy(data, table.cos_phi, table.sin_phi)  # exp(-isH) rho exp(+isH)
        if p1:
            sig *= 1.0 - p1
        margs = []
        if table.m is None:
            c, one_minus_c, minus_sin = table.coeffs
            sig = partial_swap(sig, (c, (one_minus_c * (instr * sig).sum(axis=0)) * instr, minus_sin * instr))
            sig /= np.sqrt((sig * sig).sum(axis=0))  # else |c| - 1 grows up to fivefold per step
        else:
            step = swap_operands(instr, table.coeffs)
            for _ in range(table.m):
                out = partial_swap(sig, step)
                if marginals:
                    marg = instr + sig
                    marg -= out
                    margs.append(marg * (1.0 - p2) if p2 else marg)
                if p2:
                    out *= 1.0 - p2
                sig = out
        instr = _rotate_xy(sig, table.cos_phi, -table.sin_phi)
        if p1:
            instr *= 1.0 - p1
        yield instr, margs
        data = instr if recursion == "chain" else r0


def _final_energies(thetas: np.ndarray, k: int, table: _StepTable, mode: str) -> np.ndarray:
    """Final energy of the noiseless k-step protocol from R_X(theta)|0> under
    the default H, for each angle of the 1-D array ``thetas`` and each of the S
    common step sizes that ``table`` holds for every angle in turn (T S
    entries, angle-major): shape (T, S).  Every (angle, step size) pair is one
    entry of one engine batch.  Exact reflectors (``table.m`` None) in chain
    recursion follow the closed-form law."""
    reps = table.cos_phi.size // thetas.size
    if table.m is None and mode == "chain":
        e = np.repeat(-np.cos(thetas), reps)
        for _ in range(k):
            e = _energy_law(e, *table.law)
    else:
        w, v = HamiltonianSpec.default_single_qubit().eig
        amps = _rx_init(thetas, v)  # (T, 2)
        r0 = np.repeat(bloch_planes(amps[:, :, None] * amps.conj()[:, None, :]), reps, axis=1)
        for out, _ in _bloch_steps(r0, [table] * k, mode):
            pass
        e = 0.5 * (w[0] + w[1]) + 0.5 * (w[0] - w[1]) * out[2]  # populations (1 +- z) / 2
    return e.reshape(thetas.size, -1)


def _check_search_args(k: int, m: Optional[int], mode: str) -> None:
    """The argument checks shared by the step-size search entry points."""
    if k < 1 or (m is not None and m < 1):
        raise ContractViolationError("k and m must be positive")
    if mode not in RECURSION_MODES:
        raise ContractViolationError(f"recursion must be one of {RECURSION_MODES}")


def step_size_grid() -> np.ndarray:
    """The search grid for common step sizes: (0, pi] at resolution 1e-3."""
    return _S_GRID.copy()


def final_fidelities_over_s(
    theta: float | np.ndarray, k: int, m: Optional[int], s_values, mode: str = "chain"
) -> np.ndarray:
    """Ground-state fidelity after the k-step protocol, for each common step
    size in ``s_values`` (noiseless, default H = -Z; ``m=None`` selects exact
    reflectors).  ``theta`` is one angle, which gives one fidelity per step
    size, or a 1-D array of T angles, which gives a (T, S) grid, all simulated
    in one engine pass.  Angles and step sizes must be finite; as in
    :class:`DbacSchedule`, negative step sizes and step sizes above pi are
    allowed."""
    _check_search_args(k, m, mode)
    s = np.asarray(s_values, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ContractViolationError("step sizes must be finite")
    thetas = _angles(theta)
    w = HamiltonianSpec.default_single_qubit().eig[0]
    table = _step_table(np.tile(s.ravel(), thetas.size), m, w)  # once per call
    energies = _final_energies(np.atleast_1d(thetas), k, table, mode)
    return ((1.0 - energies) / 2.0).reshape(thetas.shape + s.shape)


def optimal_step(e0: float, k: int, m: Optional[int] = None, mode: str = "chain") -> float:
    """Grid-search minimizer of the final energy over common s in (0, pi].

    Grid resolution 1e-3; among step sizes within 1e-9 of the minimum the
    smallest is returned.  ``m=None`` selects exact reflectors.
    """
    if not np.isfinite(e0):
        raise ContractViolationError("e0 must be finite")
    if abs(e0) >= 1.0:
        raise DegenerateInputError("e0 = +/-1 is a protocol fixed point; no step optimizes it")
    _check_search_args(k, m, mode)
    energies = _final_energies(np.array([np.arccos(-e0)]), k, _grid_table(m), mode)[0]
    best = energies.min()
    idx = int(np.argmax(energies <= best + _TIE_TOL))
    return float(_S_GRID[idx])


def best_final_fidelity(
    f0: float, k: int, m: Optional[int] = None, mode: str = "chain"
) -> float:
    """Best ground-state fidelity achievable with an optimized common step size."""
    if not 0.0 < f0 <= 1.0:
        raise ContractViolationError("f0 must lie in (0, 1]")
    _check_search_args(k, m, mode)
    energies = _final_energies(np.array([np.arccos(2.0 * f0 - 1.0)]), k, _grid_table(m), mode)
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
    _check_search_args(k, m, mode)
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
