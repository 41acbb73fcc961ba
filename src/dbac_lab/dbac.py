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
from .states import HamiltonianSpec, PureState, check_density, energy, variance
from .tomography import NoiseModel

RECURSION_MODES = ("chain", "fresh")

# step-size search grid: resolution 1e-3 on (0, pi], ties resolved toward
# smaller s within 1e-9
_S_GRID = np.concatenate([np.arange(1e-3, np.pi, 1e-3), [np.pi]])
_TIE_TOL = 1e-9


def _is_count(x) -> bool:
    """Whether ``x`` can be a step count or a Trotter depth: an int (numpy ints too) >= 1."""
    return isinstance(x, (int, np.integer)) and x >= 1


def check_step_sizes(s, h: Optional[HamiltonianSpec] = None) -> np.ndarray:
    """Step sizes as a float array, checked by the one rule for them: each s
    and its echo angle s (w_max - w_min) under H (default -Z) must be finite,
    since an echo angle that overflows makes the echo rotation NaN.  Negative
    step sizes and step sizes above pi are allowed."""
    s = np.asarray(s, dtype=float)
    w = (h or HamiltonianSpec.default_single_qubit()).eig[0]
    with np.errstate(over="ignore", invalid="ignore"):
        angles = s * (w[-1] - w[0])  # NaN for an infinite s, even when w[-1] = w[0]
    if not np.isfinite(angles).all():
        raise ContractViolationError("step durations must be finite, with finite echo angles s (w_max - w_min)")
    return s


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
        check_step_sizes(s, self.hamiltonian)
        object.__setattr__(self, "s", s)
        if self.m is not None:
            if len(self.m) != len(s):
                raise ContractViolationError("m list length must match s list length")
            if not all(map(_is_count, self.m)):
                raise ContractViolationError("every Trotter depth must be >= 1 and an integer")
            object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        if self.recursion not in RECURSION_MODES:
            raise ContractViolationError(f"recursion must be one of {RECURSION_MODES}")

    @classmethod
    def uniform(cls, k: int, s: float, m: Optional[int] = None, **kw) -> "DbacSchedule":
        if not _is_count(k):
            raise ContractViolationError("k must be an integer >= 1")
        return cls(s=(s,) * k, m=None if m is None else (m,) * k, **kw)

    @property
    def k(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class CoolingRecord:
    """Per-step observables of one protocol run or a batch of runs: read-only
    float64 arrays, batch shape first and step axis last.  ``energies`` and
    ``fidelities`` are (..., k+1) (initial state included), ``variances``
    (..., k) (pre-step), ``instruction_energies`` (..., n) (post-interaction,
    every instruction register consumed, in protocol order; n = 0 for exact
    reflectors) and ``trajectory`` (..., k+1, 3), (..., 0, 3) beyond a qubit.
    """

    energies: np.ndarray
    variances: np.ndarray
    fidelities: np.ndarray
    copies_consumed: int
    trajectory: np.ndarray
    instruction_energies: np.ndarray = ()

    def __post_init__(self):
        for name in ("energies", "variances", "fidelities", "trajectory", "instruction_energies"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.k < 1 or self.variances.shape[-1] != self.k or self.fidelities.shape != self.energies.shape:
            raise ContractViolationError("record lengths are inconsistent")
        if not ((self.fidelities >= 0.0) & (self.fidelities <= 1.0 + 1e-9)).all():  # NaN fails too
            raise ContractViolationError("fidelities must lie in [0, 1]")
        if self.copies_consumed < self.k:
            raise ContractViolationError("copies_consumed must be at least k")

    @property
    def k(self) -> int:
        return self.energies.shape[-1] - 1


class BasinResult(NamedTuple):
    f0_min: float
    reachable: bool


def dbac_energy_analytic(e0: float | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Post-step energy E1 = E0 - 2 sin^2(t) (1 - E0^2) ((1 - cos t) E0 + cos t),
    elementwise over arrays of ``e0`` and ``t`` that broadcast together; two
    scalars give a float.  Every E0 must lie in [-1, 1] and every t be finite."""
    e0, t = np.asarray(e0, dtype=float), np.asarray(t, dtype=float)
    if not (np.abs(e0) <= 1.0).all():  # NaN fails too
        raise ContractViolationError("e0 must lie in [-1, 1]")
    if not np.isfinite(t).all():
        raise ContractViolationError("t must be finite")
    e1 = _energy_law(e0, *_law_terms(t))
    return float(e1) if e1.ndim == 0 else e1


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


def _records(schedule: DbacSchedule, states: np.ndarray, marginals=(), shape: tuple = ()) -> CoolingRecord:
    """One record, its B entries first as ``shape``, of a run's (k + 1, B, d, d)
    states and (n, B, d, d) instruction marginals, both in H's eigenbasis and
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
    e, var, f, traj, instr = (  # (steps, B, ...) -> shape + (steps, ...)
        np.moveaxis(x, 1, 0).reshape(shape + x.shape[:1] + x.shape[2:])
        for x in (energies, variances, fids, bloch, instr_energies)
    )
    return CoolingRecord(e, var, f, copies, traj, instr)


def dbac_recursive_exact(psi: PureState, schedule: DbacSchedule) -> CoolingRecord:
    """Iterate exact-reflector steps per the schedule, recording per-step observables.

    Returns one :class:`CoolingRecord` with no batch axis ((k + 1,) energies).
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
    return _records(schedule, check_density(vecs[..., :, None] * vecs.conj()[..., None, :]))


def _angles(theta) -> np.ndarray:
    """``theta`` as a float array: one finite angle, or a nonempty 1-D array of them."""
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1 or thetas.size == 0:
        raise ContractViolationError("theta must be one angle or a nonempty 1-D array of angles")
    if not np.isfinite(thetas).all():
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
) -> CoolingRecord:
    """Full density-matrix simulation with reflectors realized by partial swaps.

    The initial state is R_X(theta)|0>.  ``theta`` is one angle or a 1-D array
    of T angles, simulated as one batch into one :class:`CoolingRecord` whose
    arrays have theta's shape first: (k + 1,) energies for one angle, (T, k + 1) for T.

    Step j consumes M_j fresh instruction copies of the previous step's
    output, each through one :func:`dme.partial_swap` call over the batch.
    With depolarizing noise, p1 acts after each echo rotation and p2 on each
    two-register interaction; depolarizing the joint register and then tracing
    out one side leaves (1 - p2) sigma' + p2 I/2 on either marginal, so the p2
    path is closed form too.  Damping (``t1_us``) is not modeled and is
    rejected.

    The steps run on Bloch vectors in H's eigenbasis (:func:`_bloch_steps`,
    one rotation of the instruction per step) and validate nothing.  The step
    outputs and the instruction marginals come in the data's frame; rotating
    the marginals into the copies' frame would change neither their energies
    nor their lengths.  Every reported state (initial states, step
    outputs, instruction marginals) is validated once, by one
    :func:`dme.check_bloch` call on their stacked planes, before they are
    rebuilt as matrices for the observables.
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
        marginals.append(margs)
    planes = np.concatenate([np.stack(states), *marginals]).swapaxes(0, 1)  # (3, k + 1 + n, B)
    check_bloch(planes)
    mats = density_matrices(planes)
    return _records(schedule, mats[: schedule.k + 1], mats[schedule.k + 1 :], thetas.shape)


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
    zero = np.eye(h.matrix.shape[0], dtype=complex)[0]  # |0...0>
    u = np.eye(zero.size, dtype=complex) if u0 is None else qmath.check_unitary(u0).copy()
    for s in s_list:
        if not s > 0:  # NaN fails too, and reflector rejects an infinite step
            raise ContractViolationError("step sizes must be positive")
        a = float(np.sqrt(s))
        refl0 = reflector(zero, a)  # exp(i a P_0)
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
# t (w0 - w1).  _exact_steps steps (B, d) state vectors, for any d, with the
# phases of all steps built before its loop.  _bloch_steps steps qubit states
# as (3, B) Bloch planes through dme.partial_swap: M_j swaps per step, or one
# call that is the exact reflector.  Both commute with rotations about z, so a
# step rotates its instruction once into the data's frame instead of rotating
# the data there and back: every output it yields is in the data's frame (H's
# eigenbasis), and so are the instruction marginals, which only dbac_via_dme
# asks for and reads only their energies and lengths from.  Its
# step-size terms come in a _StepTable, built once per distinct step, once per
# final_fidelities_over_s call, and once per depth for the search grid
# (_grid_table), never once per probe.  The search runs every (angle, step
# size) pair of a call as one batch entry and skips the instruction
# marginals.  The dense dbac_step_exact and dme_step_exact are the oracles,
# and _exact_steps is the oracle of the Bloch-plane reflectors.


def _exact_steps(psi0, steps, w, recursion):
    """Exact-reflector steps of a (B, d) or (1, d) batch of unit vectors, step
    j by the (B,) or (1,) step sizes ``steps[j]``: the reflector
    exp(it|cur><cur|) = I + (e^{it} - 1)|cur><cur| is a rank-1 update.  The
    phases of every step are built before the loop, elementwise as one step
    would build them."""
    t = np.asarray(steps)[..., None]
    phases = np.exp(-1j * t * w)  # exp(-itH), (k, B, d)
    cur = psi0
    for e, ec, r in zip(phases, phases.conj(), np.exp(1j * t) - 1.0):
        out = (cur if recursion == "chain" else psi0) * e
        out += r * (cur.conj() * out).sum(axis=-1, keepdims=True) * cur
        out *= ec
        out /= np.sqrt((out.conj() * out).real.sum(axis=-1, keepdims=True))  # the reduction np.linalg.norm runs
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

    def arrays(self) -> list:
        """Every array of the table, in field order."""
        return [self.cos_phi, self.sin_phi, *self.coeffs, *(self.law or ())]

    def map(self, f) -> "_StepTable":
        """The table with ``f`` applied to each of its arrays."""
        law = self.law and tuple(map(f, self.law))
        return _StepTable(self.m, f(self.cos_phi), f(self.sin_phi), tuple(map(f, self.coeffs)), law)


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
    for a in table.arrays():
        a.setflags(write=False)
    return table


def _rotate_xy(r: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """(3, B) Bloch planes with (x, y) rotated by the angle of (cos, sin), as a new array."""
    x, y, z = r
    return np.array([cos * x - sin * y, sin * x + cos * y, z])


def _bloch_steps(r0, tables, recursion, noise=None, marginals=False):
    """Cooling steps of a (3, B) batch of Bloch planes, step j by the
    :class:`_StepTable` ``tables[j]``: yields each step's output and, with
    ``marginals``, its M_j instruction marginals as an (M_j, 3, B) array, all
    in the data's frame (H's eigenbasis, as ``r0``).

    One echo rotation per step: the partial swap, the exact reflector's
    operands and the p1/p2 scalings all commute with rotations about z, so
    exp(+isH) K_c exp(-isH) applied to the data equals K_a applied to the
    unrotated data, with the instruction c rotated once into the data's
    frame, a = exp(+isH) c exp(-isH) (its (x, y) by -phi).  The step's output
    is the next instruction.  The marginals stay in the data's frame: the
    rotation about z into the copies' frame would change neither their z (the
    instruction energies) nor their lengths, the only things read of them.

    A step of depth M makes M partial swaps against a; an exact-reflector
    step rotates the data b by -s about a, a pure state: exp(is|a><a|) is the
    kernel with operands (cos s, (1 - cos s)(a.b) a, -sin s a), and its output
    is rescaled to unit length, as _exact_steps renormalizes.  Depolarizing
    with probability p scales a Bloch vector by 1 - p.  ``partial_swap`` and
    ``_rotate_xy`` are looked up in this module, so a test can trace them."""
    p1, p2 = (noise.p1, noise.p2) if noise else (0.0, 0.0)
    instr = data = r0
    for table in tables:
        a = _rotate_xy(instr, table.cos_phi, -table.sin_phi)  # the instruction in the data's frame
        sig = data * (1.0 - p1) if p1 else data
        margs = ()
        if table.m is None:
            c, one_minus_c, minus_sin = table.coeffs
            out = partial_swap(sig, (c, (one_minus_c * (a * sig).sum(axis=0)) * a, minus_sin * a))
            out /= np.sqrt((out * out).sum(axis=0))  # else |a| - 1 grows up to fivefold per step
        else:
            step = swap_operands(a, table.coeffs)
            if marginals:
                margs = np.empty((table.m, *sig.shape))
            for i in range(table.m):
                out = partial_swap(sig, step)
                if marginals:
                    marg = np.add(a, sig, out=margs[i])
                    marg -= out
                if p2:
                    out *= 1.0 - p2
                sig = out
            if marginals and p2:
                margs *= 1.0 - p2
        if p1:
            out *= 1.0 - p1
        yield out, margs
        instr = out
        data = out if recursion == "chain" else r0


def _final_energies(
    thetas: np.ndarray, k: int, table: _StepTable, mode: str, counts: Optional[np.ndarray] = None
) -> np.ndarray:
    """Final energy of the noiseless k-step protocol from R_X(theta)|0> under
    the default H, for each angle of the 1-D array ``thetas`` and each of the S
    common step sizes that ``table`` holds for every angle in turn (T S
    entries, angle-major): shape (T, S).  Every (angle, step size) pair is one
    entry of one engine batch.  Exact reflectors (``table.m`` None) in chain
    recursion follow the closed-form law.

    With ``counts``, an integer array of T entry counts summing to the table's
    size, angle i takes the next ``counts[i]`` table entries instead of S, and
    the energies come back flat, one per table entry.  The engine is
    elementwise over entries, so an entry's energy does not depend on what
    else shares the batch."""
    reps = table.cos_phi.size // thetas.size if counts is None else counts
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
    return e.reshape(thetas.size, -1) if counts is None else e


def _check_search_args(k: int, m: Optional[int], mode: str) -> None:
    """The argument checks shared by the step-size search entry points."""
    if not (_is_count(k) and (m is None or _is_count(m))):
        raise ContractViolationError("k and m must be positive integers")
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
    in one engine pass.  Angles must be finite, and step sizes must pass
    :func:`check_step_sizes`, as in :class:`DbacSchedule`."""
    _check_search_args(k, m, mode)
    s = check_step_sizes(s_values)
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


# The basin bisection halves (lo, hi) to width _BASIN_TOL.  Each full-grid
# pass also carries, as witness entries, the midpoints that may be probed in
# the _WITNESS_LEVELS levels after it, on either side of its own decision.
_BASIN_TOL = 1e-4
_WITNESS_LEVELS = 4
_WITNESSES = 2 * (2**_WITNESS_LEVELS - 1)


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The bisection midpoints of (lo, hi) within ``levels`` halvings, computed
    as :func:`basin_min_fidelity` computes them, so that equal floats are the
    same probe."""
    if levels == 0 or not hi - lo > _BASIN_TOL:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_midpoints(lo, mid, levels - 1), *_midpoints(mid, hi, levels - 1)]


@functools.lru_cache(maxsize=16)
def _seed_step(k: int) -> int:
    """The grid step that minimizes the final energy of k exact-reflector chain
    steps from f0 = 1/2 (E0 = 0) under the closed-form law: a cheap estimate of
    the best step for the middle of the basin interval."""
    law = _law_terms(_S_GRID)
    e = np.zeros(_S_GRID.size)
    for _ in range(k):
        e = _energy_law(e, *law)
    return int(np.argmin(e))


class _BasinPasses:
    """The full-grid passes of one basin search for ``f_target``.

    One table holds the S grid entries, copied from :func:`_grid_table`, then
    _WITNESSES witness slots.  Before each pass the slots are rewritten to the
    witness step: the grid step that was best in the previous pass, or
    :func:`_seed_step` before the first pass.  Every witness initial fidelity
    that reaches ``f_target`` at that step joins ``proven``."""

    def __init__(self, k: int, m: Optional[int], mode: str, f_target: float):
        self._grid = grid = _grid_table(m)
        self._table = grid.map(lambda a: np.concatenate([a, np.empty(_WITNESSES)]))
        self._slots = list(zip(self._table.arrays(), grid.arrays()))
        self._size = grid.cos_phi.size
        self._counts = np.concatenate([[self._size], np.ones(_WITNESSES, dtype=int)])
        self._k, self._mode, self._f_target = k, mode, f_target
        self._best = _seed_step(k)
        self.proven: set[float] = set()

    def _reached(self, e) -> bool:
        return (1.0 - e) / 2.0 >= self._f_target

    def at_first_step(self, f0: float) -> bool:
        """Whether the first grid step alone takes ``f0`` to the target: a
        witness-only batch of one entry.  True proves that the full pass would
        say True; False decides nothing."""
        one = self._grid.map(lambda a: a[:1])
        e = _final_energies(np.array([np.arccos(2.0 * f0 - 1.0)]), self._k, one, self._mode)
        return self._reached(e[0, 0])

    def __call__(self, f0: float, witnesses: Sequence[float] = ()) -> bool:
        """Whether the grid's best step takes ``f0`` to the target, with the
        ``witnesses`` (at most _WITNESSES) evaluated in the same batch."""
        for slots, grid in self._slots:
            slots[self._size :] = grid[self._best]
        f0s = np.full(1 + _WITNESSES, f0)  # unused slots repeat f0
        f0s[1 : 1 + len(witnesses)] = witnesses
        e = _final_energies(np.arccos(2.0 * f0s - 1.0), self._k, self._table, self._mode, self._counts)
        grid, tried = e[: self._size], e[self._size : self._size + len(witnesses)]
        self._best = int(np.argmin(grid))
        self.proven.update(f for f, ew in zip(witnesses, tried) if self._reached(ew))
        return self._reached(grid.min())


def basin_min_fidelity(
    k: int, m: Optional[int], f_target: float, mode: str = "chain"
) -> BasinResult:
    """Smallest initial ground fidelity from which the optimally stepped
    protocol reaches ``f_target``, bisected to 1e-4.

    Returns the 1.0 sentinel with ``reachable=False`` when no initial fidelity
    below 1 attains the target.

    The upper end, 1 - 1e-6, is decided by one witness entry at the first
    grid step (s = 1e-3); only when that entry misses the target does a
    full-grid pass (the grid of :func:`best_final_fidelity`) decide it.

    Witness rule: each later full-grid pass also runs, in the same engine
    batch, one witness entry for each bisection midpoint that may be probed
    in the next 4 levels on either side of its decision (30 entries; 15 for
    the pass at the lower end), each at the grid step that was best in the
    previous full-grid pass, or at the closed-form estimate :func:`_seed_step`
    when no full-grid pass has run yet (the lower end's pass, whenever the
    upper end's witness decided it).  A midpoint whose witness reaches the
    target is proven: the loop moves ``hi`` there without a pass.  Every other
    decision comes from a full-grid pass.

    The result is exactly that of the plain bisection, in which every probe is
    a full-grid pass.  The engine is elementwise over batch entries and the
    default H has identity eigenvectors, so a witness entry is computed with
    the arithmetic the grid would use at that entry; and the grid's best
    fidelity is at least that of any one of its entries, so a proven decision
    is the one the full grid would make.  The witness steps and the depth of
    4 levels set how many passes run, never the result.
    """
    if not 0.0 < f_target < 1.0:
        raise ContractViolationError("f_target must lie in (0, 1)")
    _check_search_args(k, m, mode)
    reaches = _BasinPasses(k, m, mode, f_target)
    hi = 1.0 - 1e-6
    lo = 1e-6
    if not (reaches.at_first_step(hi) or reaches(hi)):
        return BasinResult(1.0, False)
    if reaches(lo, _midpoints(lo, hi, _WITNESS_LEVELS)):
        return BasinResult(lo, True)
    while hi - lo > _BASIN_TOL:
        mid = 0.5 * (lo + hi)
        if mid in reaches.proven or reaches(
            mid, _midpoints(lo, mid, _WITNESS_LEVELS) + _midpoints(mid, hi, _WITNESS_LEVELS)
        ):
            hi = mid
        else:
            lo = mid
    return BasinResult(hi, True)
