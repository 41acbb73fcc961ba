"""The cooling protocol: exact step, closed-form energy law, recursion, and
the density-matrix realization through partial-swap instruction copies.

One step of duration t maps |psi> to

    exp(+i t H) exp(+i t |psi><psi|) exp(-i t H) |psi>

and for a single qubit with H = -Z changes the energy by the closed form
implemented in :func:`dbac_energy_analytic`.  Every cooling run is of one
qubit under H = -Z, whose eigenbasis is the computational basis; only
:func:`descent_bound_residual` takes another H, of any dimension, and steps
in its eigenbasis.  Recursion semantics: by default
each step acts on the previous step's output with the reflector built around
that same output ("chain"); the alternative "fresh" mode rebuilds each step
around the previous output but applies it to a new copy of the original state.
Chain is the default because the copies accounting (M_j + 1 inputs multiply
across steps) follows it.

A run's inputs (angles, step sizes, depths, recursion, fidelity target) are
checked once, where its config enters (``cli.ExperimentConfig``), so
:func:`dbac_via_dme` and the step-size search (:func:`final_fidelities_over_s`,
:func:`optimal_step`, :func:`basin_min_fidelity`) check none of their
arguments.  What is checked here: :class:`DbacSchedule` on construction,
the energy law's E0 (in a sweep, its own iterates), and every state a
record reports (:func:`check_pure`, :func:`dme.check_bloch`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dme import (
    check_bloch, partial_swap, partial_swap_power, rotation_operands, swap_coefficients, swap_operands, swap_z,
)
from .errors import ContractViolationError, DimensionMismatchError
from .states import HamiltonianSpec, PureState, check_pure
from .tomography import NoiseModel

RECURSION_MODES = ("chain", "fresh")

# the eigenvalues (-1, 1) of H = -Z, in its eigenbasis, the computational basis
_W = HamiltonianSpec.default_single_qubit().eig[0]

# step-size search grid: resolution 1e-3 on (0, pi], ties resolved toward
# smaller s within 1e-9
_S_GRID = np.concatenate([np.arange(1e-3, np.pi, 1e-3), [np.pi]])
_TIE_TOL = 1e-9


def _is_count(x) -> bool:
    """Whether ``x`` can be a step count or a Trotter depth: an int (numpy ints too) >= 1."""
    return isinstance(x, (int, np.integer)) and x >= 1


def check_step_sizes(s) -> np.ndarray:
    """Step sizes as a float array, checked by the one rule for them: each s
    and its echo angle s (w_max - w_min) = 2 s under H = -Z must be finite,
    since an echo angle that overflows makes the echo rotation NaN.  Negative
    step sizes and step sizes above pi are allowed."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        angles = 2.0 * s
    if not np.isfinite(angles).all():
        raise ContractViolationError("step durations must be finite, with finite echo angles s (w_max - w_min)")
    return s


@dataclass(frozen=True)
class DbacSchedule:
    """Per-step durations s_j and instruction depths M_j of a run under H = -Z.

    ``m=None`` selects exact reflectors (the infinite-depth idealization).
    """

    s: tuple[float, ...]
    m: Optional[tuple[int, ...]] = None
    recursion: str = "chain"

    def __post_init__(self):
        s = tuple(float(x) for x in self.s)
        if len(s) < 1:
            raise ContractViolationError("schedule needs at least one step")
        check_step_sizes(s)
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
    float64 arrays, batch shape first and step axis last.  ``energies`` are
    (..., k+1) (initial state included), ``instruction_energies`` (..., n)
    (post-interaction, every instruction register consumed, in protocol order;
    n = 0 for exact reflectors) and ``trajectory`` (..., k+1, 3).
    """

    energies: np.ndarray
    trajectory: np.ndarray
    instruction_energies: np.ndarray = ()

    def __post_init__(self):
        for name in ("energies", "trajectory", "instruction_energies"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def dbac_energy_analytic(e0: float | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Post-step energy E1 = E0 - 2 sin^2(t) (1 - E0^2) ((1 - cos t) E0 + cos t),
    elementwise over arrays of ``e0`` and ``t`` that broadcast together; two
    scalars give a float.  Every E0 must lie in [-1, 1]: a sweep applies the
    law to its own iterates."""
    e0, t = np.asarray(e0, dtype=float), np.asarray(t, dtype=float)
    if not (np.abs(e0) <= 1.0).all():  # NaN fails too
        raise ContractViolationError("e0 must lie in [-1, 1]")
    e1 = _energy_law(e0, *_law_terms(t))
    return float(e1) if e1.ndim == 0 else e1


def _law_terms(t):
    """The terms of the energy law that depend on t alone: (2 sin^2 t, 1 - cos t, cos t)."""
    c = np.cos(t)
    return 2.0 * np.sin(t) ** 2, 1.0 - c, c


def _energy_law(e0, two_sin2, one_minus_cos, cos):
    """E1 from E0 and :func:`_law_terms` of t, elementwise over arrays."""
    return e0 - two_sin2 * (1.0 - e0**2) * (one_minus_cos * e0 + cos)


def _records(pops: np.ndarray, planes: np.ndarray, shape: tuple = ()) -> CoolingRecord:
    """One record, its B entries first as ``shape``, of a run's (k + 1 + n,
    B, 2) populations: the k + 1 states, then the n instruction marginals.
    ``planes`` are the states' (3, k + 1, B) Bloch planes, the trajectory.
    Everything was validated by the caller; this only computes observables."""
    states = planes.shape[1]
    energies = (pops * _W).sum(axis=-1)  # the states', then the marginals'
    traj = planes.transpose(1, 2, 0) + 0.0  # -0.0 becomes 0.0: a trajectory file writes 0, never -0
    e, traj, instr = (  # (steps, B, ...) -> shape + (steps, ...)
        x.swapaxes(0, 1).reshape(shape + x.shape[:1] + x.shape[2:])
        for x in (energies[:states], traj, energies[states:])
    )
    return CoolingRecord(e, traj, instr)


def dbac_recursive_exact(psi: PureState, schedule: DbacSchedule) -> CoolingRecord:
    """Iterate exact-reflector steps per the schedule, recording per-step observables.

    Returns one :class:`CoolingRecord` with no batch axis ((k + 1,) energies).
    ``psi`` is a qubit state, validated on construction; :func:`_exact_steps`
    steps raw vectors, and the k + 1 states are validated once, by one
    :func:`check_pure` call on their stack, before the record is built.
    """
    if psi.num_qubits != 1:
        raise DimensionMismatchError("dbac_recursive_exact simulates the single-qubit protocol")
    psi0 = psi.amplitudes[None]  # (1, 2)
    steps = _exact_steps(psi0, np.array(schedule.s)[:, None], _W, schedule.recursion)
    vecs = np.array([psi0, *steps])  # (k + 1, 1, 2)
    check_pure(vecs)
    pops = (vecs * vecs.conj()).real
    rho01 = vecs[..., 0] * vecs[..., 1].conj()
    return _records(pops, np.array([2.0 * rho01.real, -2.0 * rho01.imag, pops[..., 0] - pops[..., 1]]))


def _rx_init(thetas: np.ndarray) -> np.ndarray:
    """R_X(theta)|0> = cos(theta/2)|0> - i sin(theta/2)|1> for each angle of a
    1-D array, as (T, 2) amplitudes."""
    return np.stack([np.cos(thetas / 2), -1j * np.sin(thetas / 2)], axis=-1)


def _rx_planes(thetas: np.ndarray) -> np.ndarray:
    """The (3, T) Bloch planes (0, -2cs, c^2 - s^2), c = cos(theta/2) and s =
    sin(theta/2), of :func:`_rx_init` for each angle of a 1-D array: bit for
    bit what :func:`dme.bloch_planes` gives from the amplitudes' outer product,
    the sign of a zero x included (0 c - 0 s is -0 where c < 0 < s)."""
    half = thetas / 2
    c, s = np.cos(half), np.sin(half)
    cs = c * s
    return np.array([0.0 * c - 0.0 * s, -cs - cs, c * c - s * s])


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
    output, all M_j through one :func:`dme.partial_swap_power` call over the
    batch, which gives the data after each copy; each copy's marginal is
    then (1 - p2)(a + the copy's input data) - its output.
    With depolarizing noise, p1 acts after each echo rotation and p2 on each
    two-register interaction; depolarizing the joint register and then tracing
    out one side leaves (1 - p2) sigma' + p2 I/2 on either marginal, so the p2
    path is closed form too.  Damping (``t1_us``) is not modeled: a run's
    config applies only p1 and p2 here, and its schedule has finite depths.

    The steps run on Bloch vectors (:func:`_bloch_steps`) and validate
    nothing.  The step outputs and the instruction marginals come in the
    data's frame; rotating the marginals into the copies' frame would change
    neither their energies nor their lengths.  Every reported state (initial states, step outputs, instruction
    marginals) is validated once, by one :func:`dme.check_bloch` call on their
    stacked planes; the observables are read from those planes, as
    populations (1 +- z) / 2 and as the trajectory.
    The dense kron-and-partial-trace step in ``tests/oracles.py`` is the
    oracle this is tested against.
    """
    thetas = np.asarray(theta, dtype=float)
    r0 = _rx_planes(np.atleast_1d(thetas))  # (3, B)
    states, marginals = [r0], []
    steps = list(zip(schedule.s, schedule.m))
    table = {(sj, mj): _step_table(np.array([sj]), mj, _W) for sj, mj in set(steps)}  # once per distinct step
    for out, margs in _bloch_steps(r0, [table[step] for step in steps], schedule.recursion, noise):
        states.append(out)
        marginals.append(margs)
    planes = np.concatenate([np.array(states), *marginals]).swapaxes(0, 1)  # (3, k + 1 + n, B)
    check_bloch(planes)
    pops = np.empty(planes.shape[1:] + (2,))  # the populations (1 +- z) / 2, with trace exactly 1
    pops[..., 0] = 0.5 * (1.0 + planes[2])
    pops[..., 1] = 1.0 - pops[..., 0]
    return _records(pops, planes[:, : schedule.k + 1], thetas.shape)


def descent_bound_residual(h: HamiltonianSpec, psi: PureState, s) -> float | np.ndarray:
    """(E1 - E0 + 2 s V0) / s^2 for one exact-reflector step of duration
    sqrt(s), for one step size s (a float) or for each of an array of them.

    Bounded above per instance as s -> 0, witnessing the descent inequality
    E1 <= E0 - 2 s V0 + O(s^2).  Every s must lie in (0, 0.1]; an empty
    array of them gives an empty residual.  One
    :func:`_exact_steps` step runs over every s in H's eigenbasis, one
    :func:`check_pure` call validates it, and E0, V0 and E1 are read from
    populations, as :func:`_records` reads them."""
    s = np.asarray(s, dtype=float)
    if not ((s > 0.0) & (s <= 0.1)).all():  # NaN fails too
        raise ContractViolationError("s must lie in (0, 0.1]")
    if h.matrix.shape[0] != psi.amplitudes.size:
        raise DimensionMismatchError("state and Hamiltonian dimensions differ")
    w, v = h.eig
    psi0 = (psi.amplitudes @ v.conj())[None]  # (1, d), eigenbasis
    (psi1,) = _exact_steps(psi0, np.sqrt(s).reshape(1, -1), w, "chain")
    check_pure(psi1)
    pops = (psi0 * psi0.conj()).real, (psi1 * psi1.conj()).real
    e0, e1 = ((p * w).sum(axis=-1) for p in pops)
    v0 = (pops[0] * (w * w)).sum(axis=-1) - e0**2
    residual = ((e1 - e0 + 2.0 * s.ravel() * v0) / s.ravel() ** 2).reshape(s.shape)
    return float(residual) if residual.ndim == 0 else residual


def copies_accounting(schedule: DbacSchedule) -> int:
    """Input copies beyond the first: prod(M_j + 1) - 1."""
    if schedule.m is None:
        raise ContractViolationError("copies accounting requires finite Trotter depths")
    total = 1
    for mj in schedule.m:
        total *= mj + 1
    return total - 1


# ---------------------------------------------------------------------------
# batched cooling engines, in the eigenbasis of H (for H = -Z, the
# computational basis)
# ---------------------------------------------------------------------------
# exp(-itH) is the diagonal exp(-itw) there, so echo rotations are phases on
# state vectors and, for a qubit, rotations of a Bloch vector's (x, y) plane by
# t (w0 - w1).  _exact_steps steps (B, d) state vectors, for any d, with the
# phases of all steps built before its loop (dbac_recursive_exact,
# descent_bound_residual and acceptance criteria 1 and 6 run it).  Qubit
# Bloch planes take two loops: _bloch_steps, the DME record's, makes every
# copy of a step by one dme.partial_swap_power call, under noise too;
# _search_pass_z, the step-size search's one pass for both reflector kinds,
# runs M_j dme.partial_swap calls per step (faster than the closed form at
# its depths M <= 4 and batches of thousands), the last being dme.swap_z, or
# one rescaled rotation per exact reflector.  The partial swap, the exact
# reflector and depolarizing commute with rotations about z, so a step
# rotates its instruction once into the data's frame (_to_data_frame)
# instead of rotating the data there and back: every output is in the
# data's frame (the computational basis), and so are the instruction
# marginals, of which dbac_via_dme reads only energies and lengths.  The
# step-size terms come in a _StepTable, built once per distinct step, once
# per final_fidelities_over_s call, and once per depth for the search grid
# (_grid_table), never once per probe.  The search runs every (angle, step
# size) pair of a call as one batch entry.  The dense exact step and the
# kron-and-partial-trace step, both in tests/oracles.py, are the oracles,
# _exact_steps is the oracle of the Bloch-plane reflectors, and
# oracles.search_loop and oracles.search_exact_loop, which compute every
# plane of every step, those of _search_pass_z.  Every cooling run's initial
# planes come from _rx_planes.


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
    """The :class:`_StepTable` of the search grid under H = -Z, built
    once per depth and shared by every search call, so its arrays are read-only."""
    table = _step_table(_S_GRID, m, _W)
    for a in table.arrays():
        a.setflags(write=False)
    return table


def _to_data_frame(r, cos: np.ndarray, sin: np.ndarray) -> tuple:
    """(x, y, z) Bloch planes with (x, y) rotated by minus the angle phi of
    (cos, sin), as the triple (cos x + sin y, cos y - sin x, z): an
    instruction in the frame of the data that a step rotates by phi."""
    x, y, z = r
    return cos * x + sin * y, cos * y - sin * x, z


def _bloch_steps(r0, tables, recursion, noise):
    """The DME record's cooling steps of a (3, B) batch of Bloch planes, step
    j by the finite-depth :class:`_StepTable` ``tables[j]``: yields each
    step's output and its M_j instruction marginals as an (M_j, 3, B) array,
    both in the data's frame.  The M_j outputs come from one
    :func:`dme.partial_swap_power` call, against the instruction rotated once
    into the data's frame and stacked as the array the closed form reads;
    each marginal is q (a + input) - output, q = 1 - p2, and depolarizing
    with probability p scales a Bloch vector by 1 - p."""
    p1, p2 = (noise.p1, noise.p2) if noise else (0.0, 0.0)
    copies = {m: np.arange(1, m + 1).reshape(-1, 1, 1) for m in {t.m for t in tables}}  # once per distinct depth
    instr = data = r0
    for table in tables:
        a = np.array(_to_data_frame(instr, table.cos_phi, table.sin_phi))
        sig = data * (1.0 - p1) if p1 else data
        outs = partial_swap_power(sig, a, table.coeffs, copies[table.m], 1.0 - p2)
        margs = np.concatenate([sig[None], outs[:-1]])  # each swap's input
        margs += a
        if p2:
            margs *= 1.0 - p2
        margs -= outs
        out = outs[-1]
        if p1:
            out *= 1.0 - p1
        yield out, margs
        instr = out
        data = out if recursion == "chain" else r0


def _search_pass_z(r0, k, table, mode):
    """The z plane of the last output of k noiseless steps from the (3, B)
    planes ``r0``, every step by ``table``: the step-size search's one pass,
    for both reflector kinds.  A step rotates its instruction a, the previous
    output, once into the data's frame.  At depth M it makes M
    :func:`dme.partial_swap` calls with the :func:`dme.swap_operands` of a,
    the pass's last swap being :func:`dme.swap_z`.  An exact reflector
    exp(is|a><a|) rotates the data by -s about a: one call with the
    :func:`dme.rotation_operands` of a, rescaled to unit length as
    :func:`_exact_steps` renormalizes (about a non-unit axis |a| - 1 grows up
    to fivefold per chained step).  The kernels are looked up in this module,
    so a test can trace them."""
    out = r0
    for j in range(k):
        a = _to_data_frame(out, table.cos_phi, table.sin_phi)
        out = r0 if mode == "fresh" else out  # the step's data
        if table.m is None:
            x, y, z = partial_swap(out, rotation_operands(a, out, table.coeffs))
            norm = np.sqrt(x * x + y * y + z * z)
            out = x / norm, y / norm, z / norm
        else:
            step = swap_operands(a, table.coeffs)
            for _ in range(table.m - 1):
                out = partial_swap(out, step)
            out = (swap_z if j == k - 1 else partial_swap)(out, step)
    return out[2] if table.m is None else out


def _final_energies(
    thetas: np.ndarray, k: int, table: _StepTable, mode: str, counts: Optional[np.ndarray] = None
) -> np.ndarray:
    """Final energy of the noiseless k-step protocol from R_X(theta)|0> under
    H = -Z, for each angle of the 1-D array ``thetas`` and each of the S
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
        z = _search_pass_z(np.repeat(_rx_planes(thetas), reps, axis=1), k, table, mode)
        e = 0.5 * (_W[0] + _W[1]) + 0.5 * (_W[0] - _W[1]) * z  # populations (1 +- z) / 2
    return e.reshape(thetas.size, -1) if counts is None else e


def step_size_grid() -> np.ndarray:
    """The search grid for common step sizes: (0, pi] at resolution 1e-3."""
    return _S_GRID.copy()


def final_fidelities_over_s(
    theta: float | np.ndarray, k: int, m: Optional[int], s_values, mode: str = "chain"
) -> np.ndarray:
    """Ground-state fidelity after the k-step protocol, for each common step
    size in ``s_values`` (noiseless, H = -Z; ``m=None`` selects exact
    reflectors).  ``theta`` is one angle, which gives one fidelity per step
    size, or a 1-D array of T angles, which gives a (T, S) grid, all simulated
    in one engine pass."""
    s, thetas = np.asarray(s_values, dtype=float), np.asarray(theta, dtype=float)
    table = _step_table(s.ravel(), m, _W).map(lambda a: np.tile(a, thetas.size))  # once per step size
    energies = _final_energies(np.atleast_1d(thetas), k, table, mode)
    return ((1.0 - energies) / 2.0).reshape(thetas.shape + s.shape)


def optimal_step(e0: float, k: int, m: Optional[int] = None, mode: str = "chain") -> float:
    """Grid-search minimizer of the final energy over common s in (0, pi].

    Grid resolution 1e-3; among step sizes within 1e-9 of the minimum the
    smallest is returned.  ``m=None`` selects exact reflectors.
    """
    energies = _final_energies(np.array([np.arccos(-e0)]), k, _grid_table(m), mode)[0]
    best = energies.min()
    idx = int(np.argmax(energies <= best + _TIE_TOL))
    return float(_S_GRID[idx])


# The basin bisection halves (lo, hi), from _BASIN_ENDS, to width _BASIN_TOL.
# Each full-grid pass also carries, as witness entries, the midpoints that may
# be probed in the _WITNESS_LEVELS levels after it, on either side of its own
# decision.
_BASIN_ENDS = (1e-6, 1.0 - 1e-6)
_BASIN_TOL = 1e-4
_WITNESS_LEVELS = 4
_WITNESSES = 2 * (2**_WITNESS_LEVELS - 1)
# The most engine entries that optimal_step and basin_min_fidelity run for one
# (k, M): at most 3 + h full-grid passes (the optimal step's, one at each end
# of the basin interval and one per halving, h in all, of its width down to
# _BASIN_TOL), each of the grid and the witness slots.
SEARCH_ENTRIES = (3 + math.ceil(math.log2((_BASIN_ENDS[1] - _BASIN_ENDS[0]) / _BASIN_TOL))) * (
    _S_GRID.size + _WITNESSES
)


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The bisection midpoints of (lo, hi) within ``levels`` halvings, computed
    as :func:`basin_min_fidelity` computes them, so that equal floats are the
    same probe.  Pre-order: each midpoint, then those of its lower half, then
    those of its upper half."""
    out, todo = [], [(lo, hi, levels)] if levels else []
    while todo:
        lo, hi, levels = todo.pop()
        if hi - lo > _BASIN_TOL:
            mid = 0.5 * (lo + hi)
            out.append(mid)
            if levels > 1:  # both halves, the lower popped first
                todo += (mid, hi, levels - 1), (lo, mid, levels - 1)
    return out


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
        self.proven.update(itertools.compress(witnesses, self._reached(tried)))
        return self._reached(grid[self._best])


def basin_min_fidelity(
    k: int, m: Optional[int], f_target: float, mode: str = "chain"
) -> float:
    """Smallest initial ground fidelity from which the optimally stepped
    protocol reaches ``f_target``, bisected to 1e-4.

    Returns the 1.0 sentinel when no initial fidelity below 1 attains the
    target.

    The upper end, 1 - 1e-6, is decided by one witness entry at the first
    grid step (s = 1e-3); only when that entry misses the target does a
    full-grid pass (the grid of :func:`optimal_step`) decide it.

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
    a full-grid pass.  The engine is elementwise over batch entries, so a
    witness entry is computed with the arithmetic the grid would use at that
    entry; and the grid's best
    fidelity is at least that of any one of its entries, so a proven decision
    is the one the full grid would make.  The witness steps and the depth of
    4 levels set how many passes run, never the result.
    """
    reaches = _BasinPasses(k, m, mode, f_target)
    lo, hi = _BASIN_ENDS
    if not (reaches.at_first_step(hi) or reaches(hi)):
        return 1.0
    if reaches(lo, _midpoints(lo, hi, _WITNESS_LEVELS)):
        return lo
    while hi - lo > _BASIN_TOL:
        mid = 0.5 * (lo + hi)
        if mid in reaches.proven or reaches(
            mid, _midpoints(lo, mid, _WITNESS_LEVELS) + _midpoints(mid, hi, _WITNESS_LEVELS)
        ):
            hi = mid
        else:
            lo = mid
    return hi
