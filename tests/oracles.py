"""Dense brute-force references that the package's batched and closed-form
paths are checked against: each computes its quantity by the definition, on
dense matrices, one point at a time.  The program calls none of them.  The
paper's recursive unitary synthesis (:func:`synthesize_uk`) is the oracle of
the exact chain, the imaginary-time flow it simulates (:func:`ite_evolve`) that
of one exact step, and the cooling circuit layouts (:func:`build_circuit`) the
gate-level oracle of the DME simulation.  The recursive bisection midpoints
(:func:`midpoints`) and the row-by-row CSV writer (:func:`render_rows`) are
the plain forms of two faster program paths.

Every numeric comparison of a program path with one of them is a row of
TOLERANCES: its tolerance, the reason the two may differ, a hypothesis
strategy of valid arguments, the program call, the oracle call (each one array
or a tuple of fields, compared field by field in shape and value) and the
measure of their difference (absolute, relative, per s^2 or per 1/s^2, up to a
global phase, or up to the CHAOTIC cutoff).  One derandomized property,
``tests/test_oracles.py::test_program_path_agrees_with_its_oracle``, runs every
row on its draws and examples.  A row's pins are named regimes of its inputs,
each run under a test id of its own by :func:`pins`; a test that pins a call
structure runs a row with :func:`check`, and only a few compare the values
they record by hand, with :func:`tol`."""

import contextlib
import itertools
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from dbac_lab import circuits, dbac, dme, qmath, tomography
from dbac_lab.baselines import hbac_round_closed, ppa_round, target_polarization, thermal_qubit
from dbac_lab.dbac import CoolingRecord, DbacSchedule, check_step_sizes
from dbac_lab.dme import bloch_planes, partial_swap, swap_operands
from dbac_lab.states import DensityMatrix, HamiltonianSpec, PureState
from dbac_lab.tomography import PTM, pauli_labels, pauli_matrix

from conftest import random_density, random_state, random_unitary

EXACT = "the same arithmetic in the same order: bit for bit"
SAME_OPS = "same operations, same order: bit for bit, and so is the sign of every zero"
SPLIT = "the complex products' parts are these real products and sums: bit for bit, signs of zeros too"
ORDER = "the same quantity by other products and sums (closed forms against eigh, kron and partial traces)"
RENORMALIZED = "each oracle step renormalizes its state, or rescales its instruction copy to unit trace"
COMPOUNDED = "rounding compounds over hundreds of chained steps or Trotter copies"
CANCELLED = "per 1/s^2: the residual divides an O(s^2) difference of O(1) energies by s^2"
CHAOTIC = "the chaotic cutoff of exact fresh chains: one that moves by more under 1e-15 is not compared"
LAW = "relative: M times the Trotter error converges to its 1/M limit, with an O(1/M) correction"
SQUARED = "relative to the largest entry: the power series' rounding grows with each of its squarings"
SYNTHESIZED = (
    "the same chain by dense unitary products; worst measured 4.6e-13 in final energy"
    " (3000 random H of 1 to 3 qubits, 3 steps, s in [0.01, 0.3])"
)
SEARCHED = (
    "in ground fidelity: the search's Bloch planes and chain law against the record engines' closed-form"
    " swaps and state vectors; worst measured 2.3e-13 with exact reflectors (fresh, k = 16), 8.4e-15 on the"
    " chain law and 2.2e-15 at finite depth, over 10000 random draws of the row; an exact fresh chain past"
    " the CHAOTIC cutoff (16 of their 26915 step sizes) is not compared"
)
COMPILED = "up to a global phase, by products of the compiled gates' matrices; worst measured 2.2e-15 (1000 draws)"
CLOSED = "a closed form against the eigendecomposed exponential; worst measured 4.4e-16 (3000 draws)"
IMAGINARY = (
    "per s^2: a step of duration sqrt(s) and imaginary time s both descend by 2 s V0 to first order;"
    " worst measured 2.41 (H = -Z at theta = 2.0, where the limit (1 - E0^2)(3 E0 + 5/3) peaks),"
    " 1.31 on random 2- and 3-qubit H with eigenvalues in [-1, 1]"
)
CHAIN_LAW = (
    "the exact chain law on populations against the state-vector chain; worst measured 1.7e-14 on 3000"
    " of the row's draws, 1.5e-13 on 3000 uniform ones (k up to 8, angles near 0 and pi among them)"
)
RELAXED = (
    "the program's closed-form relaxation, through ptm_of_circuits on an idle gate, against the relaxation by its"
    " physics; worst measured 0 (5000 draws, dt / T1 up to 4), and 4.4e-16 for the dense oracle's Kraus operators"
)
EXACT_GRID = (
    "in final energy: the search's exact path (Bloch-plane reflectors when fresh, the population law when chained)"
    " against _exact_steps' amplitudes over the whole step grid; worst measured 1.0e-14 (4500 draws)"
)


# Each measure of one field of a row's (program, oracle) results, given the
# arguments: the largest |got - want| ...
def absolute(got, want, args) -> float:
    return float(np.abs(got - want).max(initial=0.0))


def signed(got, want, args) -> float:  # ... and where a sign bit differs, -0.0 against 0.0 included
    return absolute(got, want, args) if np.array_equal(np.signbit(got), np.signbit(want)) else np.inf


def relative(got, want, args) -> float:  # of got / want - 1
    return absolute(got / want, 1.0, args)


def to_largest(got, want, args) -> float:  # over the largest |want|
    return absolute(got, want, args) / np.abs(want).max()


def per_s2(got, want, args) -> float:  # over the step size squared
    return absolute(got, want, args) / args["s"] ** 2


def per_inverse_s2(got, want, args) -> float:  # times each step size squared
    return absolute(got * np.square(args["s"]), want * np.square(args["s"]), args)


def up_to_phase(got, want, args) -> float:  # of a stack of unitaries, each over a global phase
    return float(np.max(qmath.dist_up_to_global_phase(got, want)))


def up_to_cutoff(got, want, args) -> float:  # where want is not NaN: the entries within the CHAOTIC cutoff
    well = ~np.isnan(want)
    return absolute(got[well], want[well], args)


def third_closest(got, want, args) -> float:  # the third smallest over the last axis: 3 chains within the cutoff
    return float(np.sort(np.abs(got - want).reshape(-1, got.shape[-1]).max(axis=0))[2])


class Row(NamedTuple):
    """One comparison of a program path with an oracle: ``draw`` is a hypothesis
    strategy of keyword-argument dicts, valid arguments of both; ``program`` and
    ``oracle`` compute the two sides from them, one array or a tuple of fields
    (a record's, say), and ``measure`` the difference of each field that
    ``tol`` bounds.  The property runs ``draws`` drawn dicts and every one of
    ``examples``; ``pins`` holds named regimes of the inputs, which the draws
    need not hit, each run by a test of its own (:func:`pins`)."""

    tol: float
    reason: str
    draw: Optional[st.SearchStrategy] = None
    program: Optional[Callable] = None
    oracle: Optional[Callable] = None
    measure: Callable = absolute
    examples: tuple = ()
    draws: int = 30
    pins: dict = {}


def tol(path: str, oracle: str) -> float:
    """The tolerance of comparing ``path`` with ``oracle``."""
    return TOLERANCES[path, oracle].tol


def check(key: tuple, **args) -> None:
    """Assert that the row of ``key`` holds at ``args``: the program's and the
    oracle's results have the same fields of the same shapes, and the row's
    measure of each field's difference is within its tolerance."""
    row = TOLERANCES[key]
    got, want = (out if isinstance(out, tuple) else (out,) for out in (row.program(**args), row.oracle(**args)))
    assert len(got) == len(want), f"{key}: {len(got)} fields against {len(want)} at {args}"
    for field, (g, w) in enumerate(zip(map(np.asarray, got), map(np.asarray, want))):
        assert g.shape == w.shape, f"{key}: field {field} is {g.shape} against {w.shape} at {args}"
        err = row.measure(g, w, args)
        assert err <= row.tol, f"{key}: {err:.3g} > {row.tol:g} in field {field} at {args}"


def pins(key: tuple, name: str):
    """The test method of the row of ``key`` at its pinned inputs ``name``: a
    list of cases is one test, and a dict of them one test per id, each id's
    one case or list of cases."""
    cases = TOLERANCES[key].pins[name]

    def test(_self, args=cases):
        for case in args if isinstance(args, list) else [args]:
            check(key, **case)

    def each(_self, args):
        test(_self, args)

    if isinstance(cases, dict):
        return pytest.mark.parametrize("args", list(cases.values()), ids=list(cases))(each)
    return test


def basis(index: int, num_qubits: int = 1) -> PureState:
    """The computational basis state |index> of ``num_qubits`` qubits."""
    return PureState(np.eye(2**num_qubits)[index])


def density(psi: PureState) -> np.ndarray:
    """|psi><psi| as a dense matrix."""
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def energy(psi: PureState, h: HamiltonianSpec) -> float:
    """Tr[H |psi><psi|], by a dense trace."""
    return float(np.trace(h.matrix @ density(psi)).real)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 of two pure states."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def variance(psi: PureState, h: HamiltonianSpec) -> float:
    """<H^2> - <H>^2 of a pure state, by dense traces."""
    rho = density(psi)
    e = np.trace(h.matrix @ rho).real
    return float(np.trace(h.matrix @ h.matrix @ rho).real - e * e)


def ground_projector(h: HamiltonianSpec) -> np.ndarray:
    """Projector onto the eigenspace within 1e-9 of H's lowest eigenvalue."""
    w, v = h.eig
    vg = v[:, w <= w.min() + 1e-9]
    return vg @ vg.conj().T


def expm(h: HamiltonianSpec, scale: complex) -> np.ndarray:
    """exp(scale H), from the program's eigensystem of H (``h.eig``)."""
    w, v = h.eig
    return (v * np.exp(complex(scale) * w)) @ v.conj().T


def reflector(psi: PureState, t: float) -> np.ndarray:
    """exp(i t |psi><psi|) = I + (e^{it} - 1)|psi><psi|; the Grover reflection at t = pi."""
    v = psi.amplitudes
    return np.eye(v.size, dtype=complex) + (np.exp(1j * t) - 1.0) * np.outer(v, v.conj())


def dbac_step_exact(psi: PureState, t: float, h: HamiltonianSpec | None = None, target=None) -> PureState:
    """exp(i t H) exp(i t |psi><psi|) exp(-i t H) applied to ``target`` (default
    ``psi``; the fresh recursion's original state), renormalized, by a dense
    application of every factor."""
    em = expm(h or H, -1j * t)  # exp(+i t H) is its adjoint
    v = em.conj().T @ reflector(psi, t) @ em @ (target or psi).amplitudes
    return PureState(v / np.linalg.norm(v))


def dense_descent_bound_residual(h: HamiltonianSpec, psi: PureState, s: float) -> float:
    """(E1 - E0 + 2 s V0) / s^2 for one dense step of duration sqrt(s)."""
    e1 = energy(dbac_step_exact(psi, float(np.sqrt(s)), h), h)
    return (e1 - energy(psi, h) + 2.0 * s * variance(psi, h)) / s**2


def recursive_exact(psi: PureState, schedule, h: HamiltonianSpec | None = None):
    """The exact chain of ``schedule`` under H (default -Z), one dense step at
    a time: energies and, for a qubit, trajectory."""
    h = h or H
    states = [psi]
    for t in schedule.s:
        states.append(dbac_step_exact(states[-1], t, h, psi if schedule.recursion == "fresh" else None))
    traj = [pauli_expectations(density(s)) for s in states] if psi.num_qubits == 1 else []
    return [energy(s, h) for s in states], traj


def records(states, marginals=(), shape=(), h: HamiltonianSpec | None = None) -> CoolingRecord:
    """The record of a run's (k + 1, B, d, d) states and (n, B, d, d) instruction
    marginals in the eigenbasis of H (default -Z), by one density-matrix einsum
    per observable."""
    _, b, d, _ = states.shape
    marginals = np.reshape(marginals, (-1, b, d, d))
    w, v = (h or H).eig

    def expect(op, rho):
        return np.einsum("ij,...ji->...", op, rho).real

    energies = expect(np.diag(w), states)
    instr_energies = expect(np.diag(w), marginals)
    paulis = (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
    bloch = np.stack([expect(v.conj().T @ p @ v, states) for p in paulis], -1) if d == 2 else np.empty((0, b, 3))
    e, traj, instr = (
        np.moveaxis(x, 1, 0).reshape(shape + x.shape[:1] + x.shape[2:]) for x in (energies, bloch, instr_energies)
    )
    return CoolingRecord(e, traj, instr)


def dme_chain(rho0, h, steps, depths, mode, noise=None):
    """A DME cooling chain on 2x2 matrices under H = ``h``, one explicit joint
    state per partial swap: step j echoes the data by exp(-i t_j H), M_j =
    ``depths[j]`` copies of the instruction (the previous output) each meet it
    in exp(+i (t_j / M_j) SWAP), the joint state taken Hermitian and
    depolarized whole by p2, and the echo is undone.  Depolarizing is
    (1 - p) rho + p tr(rho) I/d, p1 after each echo rotation.  Each copy is
    rescaled to unit trace, else its rounding error would grow by M + 1 per
    chained step.  Returns each step's output and each copy's marginal,
    rotated by the echo into the data's frame."""
    p1, p2 = (noise.p1, noise.p2) if noise else (0.0, 0.0)

    def depolarize(rho, p):
        d = rho.shape[0]
        return (1.0 - p) * rho + p * np.trace(rho).real * np.eye(d) / d

    def marginals(joint):  # of the instruction, then of the data
        joint = joint.reshape(2, 2, 2, 2)
        return np.einsum("ijkj->ik", joint), np.einsum("ijik->jk", joint)

    instr = data = rho0
    outs, margs = [], []
    for t, m in zip(steps, depths):
        instr = instr / np.trace(instr).real
        em = expm(HamiltonianSpec(h), -1j * t)
        sig = depolarize(em @ data @ em.conj().T, p1)
        u = expm(HamiltonianSpec(qmath.swap_operator(2)), 1j * t / m)
        for _ in range(m):
            joint = u @ np.kron(instr, sig) @ u.conj().T
            joint = depolarize(0.5 * (joint + joint.conj().T), p2)
            marg, sig = marginals(joint)
            margs.append(em.conj().T @ marg @ em)
        instr = depolarize(em.conj().T @ sig @ em, p1)
        outs.append(instr)
        data = instr if mode == "chain" else rho0
    return outs, margs


def tiled_table_fidelities(theta, k, m, s_values, mode):
    """final_fidelities_over_s with its step table built on the step sizes
    tiled over the angles, one table entry per batch entry, each angle taking
    S by its count: the oracle of the table built once per distinct step size."""
    s = check_step_sizes(s_values)
    thetas = np.asarray(theta, dtype=float)
    table = dbac._step_table(np.tile(s.ravel(), thetas.size), m, W)
    energies = dbac._final_energies(np.atleast_1d(thetas), k, table, mode, np.full(thetas.size, s.size))
    return ((1.0 - energies) / 2.0).reshape(thetas.shape + s.shape)


def _entries(thetas, table, counts):
    """The table and the entries per angle of a dbac._final_energies call:
    without counts, the table's S step sizes tiled over the angles, S each."""
    if counts is None:
        return table.map(lambda a: np.tile(a, thetas.size)), table.cos_phi.size
    return table, counts


def search_loop(thetas, k, table, mode, counts=None):
    """dbac._final_energies at finite depth by its earlier loop: the initial
    planes from the complex outer product of dbac._rx_init's amplitudes, each
    step's instruction rotated into the data's frame as a stacked array, and
    M whole partial_swap outputs per step, of which only the last one's z is
    read.  The oracle of the pass that computes only that z."""
    table, reps = _entries(thetas, table, counts)
    amps = dbac._rx_init(thetas)
    r0 = np.repeat(bloch_planes(amps[:, :, None] * amps.conj()[:, None, :]), reps, axis=1)
    cos, sin = table.cos_phi, -table.sin_phi
    instr = data = r0
    for _ in range(k):
        x, y, z = instr
        out, step = data, swap_operands(np.array([cos * x - sin * y, sin * x + cos * y, z]), table.coeffs)
        for _ in range(table.m):
            out = partial_swap(out, step)
        instr = out
        data = out if mode == "chain" else r0
    e = 0.5 * (W[0] + W[1]) + 0.5 * (W[0] - W[1]) * out[2]
    return e.reshape(thetas.size, -1) if counts is None else e


def search_exact_loop(thetas, k, table, counts=None):
    """dbac._final_energies with exact reflectors in fresh recursion, plane by
    plane: each step rotates the previous output a into the data's frame,
    rotates the initial planes b by -s about it (the reflector exp(is|a><a|)),
    cos s b + (1 - cos s)(a.b) a - sin s a x b, and rescales the result to
    unit length.  The oracle of the search's exact pass."""
    table, reps = _entries(thetas, table, counts)
    amps = dbac._rx_init(thetas)
    b = np.repeat(bloch_planes(amps[:, :, None] * amps.conj()[:, None, :]), reps, axis=1)
    cos, sin = table.cos_phi, table.sin_phi
    cos_s, one_minus_cos, minus_sin = table.coeffs
    out = b
    for _ in range(k):
        x, y, z = out
        a = (cos * x + sin * y, cos * y - sin * x, z)
        along = one_minus_cos * (a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
        across = [minus_sin * a[j] * b[l] - minus_sin * a[l] * b[j] for j, l in ((1, 2), (2, 0), (0, 1))]
        out = np.array([across[i] + cos_s * b[i] + along * a[i] for i in range(3)])
        out = out / np.sqrt(out[0] * out[0] + out[1] * out[1] + out[2] * out[2])
    e = 0.5 * (W[0] + W[1]) + 0.5 * (W[0] - W[1]) * out[2]
    return e.reshape(thetas.size, -1) if counts is None else e


def plain_basin(k, m, f_target, mode):
    """The basin bisection with one full-grid probe per decision, as it ran
    before witness entries: the oracle of basin_min_fidelity."""

    def best(f0):  # the best final fidelity over the grid, by best_final_fidelity's arithmetic
        energies = dbac._final_energies(np.array([np.arccos(2.0 * f0 - 1.0)]), k, dbac._grid_table(m), mode)
        return float((1.0 - energies.min()) / 2.0)

    hi = 1.0 - 1e-6
    lo = 1e-6
    if best(hi) < f_target:
        return 1.0
    if best(lo) >= f_target:
        return lo
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if best(mid) >= f_target:
            hi = mid
        else:
            lo = mid
    return hi


def midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The bisection midpoints of (lo, hi) within ``levels`` halvings, by
    recursion: the oracle of dbac._midpoints."""
    if levels == 0 or not hi - lo > dbac._BASIN_TOL:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *midpoints(lo, mid, levels - 1), *midpoints(mid, hi, levels - 1)]


def dme_step_marginals(rho, sigma, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The marginals of U (rho (x) sigma) U^dag with U = exp(-i delta SWAP),
    for registers of any one dimension d: of the data ``sigma``, then of the
    instruction ``rho``."""
    d = np.shape(rho)[0]
    u = expm(HamiltonianSpec(qmath.swap_operator(d)), -1j * delta)
    joint = (u @ np.kron(rho, sigma) @ u.conj().T).reshape(d, d, d, d)
    return np.einsum("ijik->jk", joint), np.einsum("ijkj->ik", joint)  # trace the other one out


def dme_step_exact(rho, sigma, delta: float) -> DensityMatrix:
    """The data's marginal Tr_instr[U (rho (x) sigma) U^dag], U = exp(-i delta SWAP)."""
    return DensityMatrix(dme_step_marginals(rho, sigma, delta)[0])


def trotter_state(rho, sigma, t: float, m: int) -> np.ndarray:
    """The data register after m exact steps of angle t / m against the instruction ``rho``."""
    state = sigma
    for _ in range(m):
        state = dme_step_marginals(rho, state, t / m)[0]
    return state


def trace_distance(a, b) -> float:
    """Half the nuclear norm of the Hermitian difference a - b."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def exact_conjugation(rho, sigma, t: float) -> np.ndarray:
    """exp(-i t rho) sigma exp(+i t rho), the Trotter circuits' M -> infinity
    limit, by dense products of the eigendecomposed exponential."""
    u = expm(HamiltonianSpec(rho), -1j * t)
    return u @ sigma @ u.conj().T


def expm_series(h, scale) -> np.ndarray:
    """exp(scale h) with no eigendecomposition: scale h by 2^-j until its
    1-norm is at most 1/2, sum 30 terms of the power series, square j times."""
    a = complex(scale) * np.asarray(h, dtype=complex)
    j = max(0, int(np.ceil(np.log2(2.0 * np.abs(a).sum(axis=0).max() + 1e-300))))
    a = a / 2.0**j
    out = term = np.eye(len(a), dtype=complex)
    for n in range(1, 30):
        term = term @ a / n
        out = out + term
    for _ in range(j):
        out = out @ out
    return out


def dme_error(rho, sigma, t: float, m: int) -> float:
    """The trace distance of the m-step Trotter state from the exact conjugation."""
    return trace_distance(trotter_state(rho, sigma, t, m), exact_conjugation(rho, sigma, t))


def gate_matrix(g: circuits.Gate) -> np.ndarray:
    """The unitary of one gate, from the program's gate table (the tests check
    the table against exponentials on its own)."""
    return circuits._gate_matrices([g])[0]


def loop_unitary(c: circuits.Circuit) -> np.ndarray:
    """The ordered product of the gate unitaries, one gate at a time."""
    u = np.eye(2**c.num_qubits, dtype=complex)
    for g in c.gates:
        u = qmath.embed_gate(gate_matrix(g), g.qubits, c.num_qubits) @ u
    return u


def embed_gate_by_index(gate, qubits, n: int) -> np.ndarray:
    """``gate`` on the ordered ``qubits`` of n, built one basis index at a
    time; qubit 0 is the most significant bit."""
    dim = 2**n
    k = len(qubits)
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for q in qubits:
            sub_in = (sub_in << 1) | bits[q]
        for sub_out in range(2**k):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            ob = bits[:]
            for i, q in enumerate(qubits):
                ob[q] = (sub_out >> (k - 1 - i)) & 1
            oidx = 0
            for b in ob:
                oidx = (oidx << 1) | b
            u[oidx, idx] += amp
    return u


def apply_kraus(rho, kraus):
    """The sum of K rho K^dag over the operators K of ``kraus``."""
    kraus = np.asarray(kraus)
    return (kraus @ rho @ kraus.conj().swapaxes(-1, -2)).sum(axis=0)


def unitary_channel(u):
    return lambda rho: u @ rho @ u.conj().T


# the gate times that damping and dephasing act for, in microseconds, as the
# README states them: 0.02 per single-qubit gate, 0.1 per two-qubit gate
GATE_TIMES_US = {1: 0.02, 2: 0.1}


def relaxation_kraus(t1, t2, dt):
    """The Kraus operators of relaxation for a time dt: amplitude damping with
    gamma = 1 - e^{-dt/T1}, then, when T2 is set below 2 T1, phase flips that
    dephase at the rate 1/T2 - 1/(2 T1), the part of 1/T2 that damping leaves."""
    gamma = 1.0 - np.exp(-dt / t1)
    kraus = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
             np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)]
    inv_tphi = 0.0 if t2 is None else 1.0 / t2 - 0.5 / t1
    if inv_tphi > 0:
        lam = 0.5 * (1.0 - np.exp(-dt * inv_tphi))
        kraus = [d @ k for k in kraus for d in (np.sqrt(1 - lam) * qmath.I2, np.sqrt(lam) * qmath.PAULI_Z)]
    return kraus


def _dense_noise(noise, qubits, n):
    """The noise after a gate on ``qubits``, as a channel on dense matrices:
    depolarize them as a Pauli twirl, then relax each of them by its Kraus
    operators for the gate's time."""
    p = noise.p2 if len(qubits) == 2 else noise.p1
    paulis = [qmath.embed_gate(pauli_matrix(lb), qubits, n) for lb in pauli_labels(len(qubits))]
    damping = []
    if noise.t1_us is not None:
        kraus = relaxation_kraus(noise.t1_us, noise.t2_us, GATE_TIMES_US[len(qubits)])
        damping = [[qmath.embed_gate(k, (q,), n) for k in kraus] for q in qubits]

    def channel(rho):
        out = (1 - p) * rho + p * apply_kraus(rho, paulis) / len(paulis)
        for ops in damping:
            out = apply_kraus(out, ops)
        return out

    return channel


def relaxation_ptm(t1, t2, dt):
    """The one-qubit PTM of relaxation for a time dt, by its physics: the z
    population relaxes toward |0> as e^{-dt/T1}, so the Z row's identity entry
    is 1 - e^{-dt/T1}, and the coherences decay as e^{-dt/T2}, T2 unset being
    2 T1 (damping alone)."""
    t2 = 2.0 * t1 if t2 is None else t2
    r = np.diag([1.0, np.exp(-dt / t2), np.exp(-dt / t2), np.exp(-dt / t1)])
    r[3, 0] = 1.0 - np.exp(-dt / t1)
    return r


def _relaxation(t1, ratio):
    """The PTM of one idle gate, RZ(0), under damping and dephasing, T2 = ratio T1
    (None: unset): its noise PTM alone, since the gate's own PTM is the identity."""
    idle = circuits.Circuit(1, (circuits.Gate("RZ", (0.0,), (0,)),))
    return _ptms([idle], [tomography.NoiseModel(t1_us=t1, t2_us=ratio and ratio * t1)])[0, 0]


def _chain_energies(thetas, s):
    """The final energy of dbac_recursive_exact's chain from R_X(theta)|0> by the steps s, per angle."""
    return [dbac.dbac_recursive_exact(qubit(theta), DbacSchedule(s=s)).energies[-1] for theta in thetas]


def dense_channel(c: circuits.Circuit, noise=None):
    """Apply every gate, then its noise, to the probe as dense matrices."""
    n = c.num_qubits
    noisy = noise is not None and noise.enabled
    noise_on = {q: _dense_noise(noise, q, n) for q in {g.qubits for g in c.gates}} if noisy else {}
    gates = [(qmath.embed_gate(gate_matrix(g), g.qubits, n), noise_on.get(g.qubits)) for g in c.gates]

    def ch(rho):
        out = rho
        for u, gate_noise in gates:
            out = apply_kraus(out, [u])
            out = gate_noise(out) if gate_noise else out
        return out

    return ch


def ptm_of_channel(ch, n: int) -> PTM:
    """The PTM R_ij = Tr[P_i ch(P_j)] / 2^n of a channel callable on n qubits,
    probed with every Pauli string."""
    basis = np.array([pauli_matrix(lb) for lb in pauli_labels(n)])
    images = np.array([ch(p) for p in basis])
    return PTM(n_qubits=n, r=np.einsum("iab,jba->ij", basis, images).real / 2**n)


def trace_preserving(r) -> bool:
    """Whether a PTM's first row is (1, 0, ..., 0) to 1e-10: Tr[E(P_j)] = 0 for
    every non-identity Pauli string and Tr[E(I)] = Tr[I]."""
    return bool(abs(r[0, 0] - 1.0) <= 1e-10 and np.abs(r[0, 1:]).max() <= 1e-10)


def hbac_round_dense(eps_target: float, eps_1: float, eps_2: float) -> float:
    """Target polarization after one compression round, by the dense 8x8 round
    on the product of three thermal qubits."""
    reg = qmath.kron_all([thermal_qubit(e).matrix for e in (eps_target, eps_1, eps_2)])
    return target_polarization(ppa_round(DensityMatrix(reg)))


def pauli_expectations(rho) -> np.ndarray:
    """(Tr[X rho], Tr[Y rho], Tr[Z rho]) of a single-qubit matrix."""
    return np.array([np.trace(p @ rho).real for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)])


def synthesize_uk(h: HamiltonianSpec, s_list) -> np.ndarray:
    """The recursive unitary synthesis referenced to |0...0>:
    U_{k+1} = e^{i a H} U_k e^{i a P_0} U_k^dag e^{-i a H} U_k with
    a = sqrt(s_k), P_0 = |0...0><0...0| and U_0 = I.  U_k |0...0> is the
    exact chain of k steps of durations sqrt(s_k) from |0...0>."""
    d = h.matrix.shape[0]
    zero = PureState(np.eye(d)[0])
    u = np.eye(d, dtype=complex)
    for s in s_list:
        a = np.sqrt(s)
        em = expm(h, -1j * a)  # exp(+i a H) is its adjoint
        u = em.conj().T @ u @ reflector(zero, a) @ u.conj().T @ em @ u
    return u


def ite_evolve(psi: PureState, tau: float, h: HamiltonianSpec) -> PureState:
    """exp(-tau H)|psi>, renormalized: imaginary-time evolution, the exponent
    shifted by the smallest eigenvalue so that a large tau cannot overflow."""
    w, v = h.eig
    return PureState.from_vector(v @ (np.exp(-tau * (w - w[0])) * (v.conj().T @ psi.amplitudes)))


# Each cooling layout: its wire count, its data (cooled) wire, its partial
# swaps per step, then its stages, each the echo wires and the wire pairs of
# its partial swaps, after RX(theta) on all wires.
LAYOUTS = {
    "A": (2, 0, 1, (((1,), ((0, 1),)),)),
    "B": (3, 1, 2, (((0, 2), ((0, 1), (1, 2))),)),
    "C": (4, 1, 1, (((0, 3), ((0, 1), (2, 3))), ((2,), ((1, 2),)))),
}


def build_circuit(which: str, theta: float, phi: float = np.pi / 4) -> circuits.Circuit:
    """The cooling circuit layouts, each from |0...0> after RX(theta) on every wire.

    A: one step, one partial swap on 2 qubits (data 0, instruction 1).
    B: one step split into two partial swaps of angle phi each on 3 qubits
       (data 1, instructions 0 and 2); the step duration is 2*phi.
    C: two chained steps of one partial swap each on 4 qubits; the first step
       runs twice in parallel (data wires 1 and 2), the second consumes wire 2
       as instruction and cools wire 1.

    Instruction wires carry the echo rotation RZ(-2t) = exp(+i t Z); the
    closing echo of each step commutes with the energy readout and is omitted.
    """
    n, _, swaps, stages = LAYOUTS[which]
    t = swaps * phi  # the step duration
    gates = [circuits.Gate("RX", (theta,), (q,)) for q in range(n)]
    for echo, pairs in stages:
        gates += [circuits.Gate("RZ", (-2 * t,), (q,)) for q in echo]
        gates += [g for q0, q1 in pairs for g in circuits._udme_gates(phi, q0, q1, "native")]
    return circuits.Circuit(n, gates)


def layout_energy(which: str, theta: float, phi: float) -> float:
    """The energy under H = -Z of the data wire of a cooling layout, by the
    circuit's dense unitary on |0...0> and the data wire's reduced state."""
    n, data = LAYOUTS[which][:2]
    out = loop_unitary(build_circuit(which, theta, phi))[:, 0]
    amps = np.moveaxis(out.reshape((2,) * n), data, 0).reshape(2, -1)  # against the rest of the register
    return float(np.trace(-qmath.PAULI_Z @ amps @ amps.conj().T).real)


def render_rows(header, rows) -> bytes:
    """A `(header, rows)` CSV table as the writer renders one row by row: each
    row by the `%` format of its first row's kinds (ints and strings as they
    are, floats to 12 significant digits).  The oracle of the product-table
    writer, compared byte for byte."""
    kinds = tuple(map(type, rows[0])) if len(rows) else ()
    fmt = ",".join("%s" if issubclass(k, (int, np.integer, str)) else "%.12g" for k in kinds) + "\n"
    values = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [v for row in rows for v in row]
    return (",".join(header) + "\n" + (fmt * len(rows)) % tuple(values)).encode()


# The rows' arguments and calls.  Each random input is built from a seed, by
# :func:`qubits` or a builder on it, so that a failing example prints as a
# call that rebuilds it.

H = HamiltonianSpec(-qmath.PAULI_Z)  # the cooling runs' H, ground state |0> at energy -1
W = H.eig[0]
SWAP = HamiltonianSpec(qmath.swap_operator(2))
HEISENBERG = HamiltonianSpec(sum(np.kron(p, p) for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)))
ZZ = HamiltonianSpec(np.kron(qmath.PAULI_Z, qmath.PAULI_Z))
ROTATIONS = {kind: HamiltonianSpec(qmath.PAULIS_1Q[kind[1]]) for kind in ("RX", "RY", "RZ")}  # each one's axis
GROUND = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
SEEDS = st.integers(0, 2**32 - 1)
MODES = st.sampled_from(dbac.RECURSION_MODES)
NOISES = st.sampled_from([None, (1e-3, 0.0), (0.0, 0.02), (2e-3, 0.01)])
ANGLES = st.floats(-2 * np.pi, 2 * np.pi)
POLARIZATIONS = st.floats(-1.0, 1.0)
_OFF_END = st.floats(-9.0, -1.0).map(lambda x: 10.0**x)
NEAR_ENDS = st.floats(0.0, np.pi) | _OFF_END | _OFF_END.map(lambda d: np.pi - d)  # and log-uniform near 0 and pi
STEPS = st.floats(1e-3, np.pi) | st.floats(-4.0, 12.0)  # step sizes of either sign, and above pi
SWAP_ANGLES = st.lists(ANGLES | st.sampled_from([0.0, np.pi / 8, np.pi / 4, np.pi / 2, 1e-9]), min_size=1, max_size=4)
GRID = dbac.step_size_grid()
CRITERION_1 = np.linspace(0.0, np.pi, 101)[[0, 1, 17, 50, 73, 99, 100]]  # a subsample of criterion 1's grid
FULL_NOISE = tomography.NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.2)
EVERY_KIND = circuits.Circuit(2, (
    circuits.Gate("RX", (0.3,), (0,)), circuits.Gate("RY", (-1.1,), (1,)), circuits.Gate("RZ", (2.2,), (0,)),
    circuits.Gate("H", (), (1,)), circuits.Gate("S", (), (0,)), circuits.Gate("SDG", (), (1,)),
    circuits.Gate("RZZ", (0.7,), (0, 1)), circuits.Gate("RZZ", (-0.4,), (1, 0)),
))
assert {g.kind for g in EVERY_KIND.gates} == set(circuits.GATE_KINDS)
ONE_QUBIT_KINDS = circuits.Circuit(1, tuple(replace(g, qubits=(0,)) for g in EVERY_KIND.gates if len(g.qubits) == 1))
NOISE_KINDS = {"noiseless": None, "p1": tomography.NoiseModel(p1=0.01), "p2": tomography.NoiseModel(p2=0.05),
               "t1": tomography.NoiseModel(t1_us=0.25), "t1_t2": tomography.NoiseModel(t1_us=0.25, t2_us=0.2),
               "all": FULL_NOISE}
NO_DEPHASING = tomography.NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.5)


def depths(max_steps: int, max_k: int):
    """(k, M) pairs with k M <= max_steps."""
    return st.integers(1, max_k).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, max(1, max_steps // k))))


def random_hamiltonian(rng, dim: int) -> HamiltonianSpec:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HamiltonianSpec(0.5 * (a + a.conj().T))


def qubit(theta: float, phase: float = -np.pi / 2) -> PureState:
    """cos(theta/2)|0> + e^{i phase} sin(theta/2)|1>; R_X(theta)|0> by default."""
    return PureState(np.array([np.cos(theta / 2), np.exp(1j * phase) * np.sin(theta / 2)]))


def qubits(seed: int, *shapes) -> list:
    """Random qubit density matrices from ``seed``: a stack of each of
    ``shapes``, () for one matrix; then the generator, for the rest of a draw."""
    rng = np.random.default_rng(seed)
    return [np.reshape([random_density(rng) for _ in range(int(np.prod(s)))], (*s, 2, 2)) for s in shapes] + [rng]


def pure_planes(v) -> np.ndarray:
    """Bloch planes of a (B, 2) batch of unit vectors."""
    return bloch_planes(v[:, :, None] * v.conj()[:, None, :])


def fields(rec: CoolingRecord) -> tuple:
    return rec.energies, rec.instruction_energies, rec.trajectory


def eigenbasis_chain(h, psi, s, mode):
    """The exact chain of step durations ``s`` from ``psi`` under any H, run
    by _exact_steps in H's eigenbasis, as descent_bound_residual runs its one
    step: the k + 1 energies, and the (k + 1, d) states in that basis."""
    w, v = h.eig
    psi0 = (psi.amplitudes @ v.conj())[None]  # (1, d)
    vecs = np.array([psi0, *dbac._exact_steps(psi0, np.asarray(s, dtype=float)[:, None], w, mode)])[:, 0]
    return (vecs * vecs.conj()).real @ w, vecs


def trotter(rho, sigma, t: float, m: int) -> np.ndarray:
    """The final state of one M-step Trotter circuit, as a matrix."""
    planes = dme.partial_swap_power(bloch_planes(sigma), bloch_planes(rho), dme.swap_coefficients(t / m), m)
    return dme.density_matrices(planes)


@contextlib.contextmanager
def recording(module, name: str):
    """The (arguments, result) of every call of ``module.name`` while active,
    array arguments copied as they were passed."""
    calls, real = [], getattr(module, name)

    def record(*args):
        calls.append((tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args), real(*args)))
        return calls[-1][1]

    setattr(module, name, record)
    try:
        yield calls
    finally:
        setattr(module, name, real)


def pair(seed: int, kind: str = "random", **rest) -> dict:
    """A (rho, sigma) pair of qubit states, random unless ``kind`` says otherwise, and ``rest``."""
    rho, sigma, rng = qubits(seed, (), ())
    pure = density(PureState.from_vector(random_state(rng)))
    rho = {"pure": pure, "maximally mixed": np.eye(2, dtype=complex) / 2, "ground and plus": GROUND}.get(kind, rho)
    return dict(rho=rho, sigma={"sigma = rho": rho, "ground and plus": PLUS}.get(kind, sigma), **rest)


def _one_exact_step(theta, t):
    (psi,) = dbac._exact_steps(dbac._rx_init(np.array([theta])), np.array([[t]]), W, "chain")
    return psi[0], np.abs(psi[0]) ** 2 @ W


def _dense_step(theta, t):
    out = dbac_step_exact(qubit(theta), t, H)
    return out.amplitudes, energy(out, H)


def chain_args(seed: int, kind: str, k: int, exact: bool, mode: str) -> dict:
    """A schedule of k random durations, and a random state of a qubit under
    -Z, or of two qubits under a random H or U diag(-1, -1, 0, 2) U^dag."""
    rng = np.random.default_rng(seed)
    if kind == "1q":
        h = H
    elif kind == "2q":
        h = random_hamiltonian(rng, 4)
    else:
        u = random_unitary(rng, 4)
        h = HamiltonianSpec(u @ np.diag([-1.0, -1.0, 0.0, 2.0]) @ u.conj().T)
    psi = PureState.from_vector(random_state(rng, h.matrix.shape[0]))
    s = tuple(rng.uniform(0.1, 2.0, size=k))
    return dict(h=h, psi=psi, schedule=DbacSchedule(s=s, m=None if exact else (2,) * k, recursion=mode))


def _recursive_exact(h, psi, schedule):
    """A qubit's record under -Z; beyond a qubit, the exact chain's energies in the eigenbasis of H."""
    if psi.num_qubits > 1:
        return eigenbasis_chain(h, psi, schedule.s, schedule.recursion)[0], [], []
    rec = dbac.dbac_recursive_exact(psi, schedule)
    return rec.energies, rec.trajectory, rec.instruction_energies


def descent_args(seed: int, dim: int, s) -> dict:
    rng = np.random.default_rng(seed)
    return dict(h=random_hamiltonian(rng, dim), psi=PureState.from_vector(random_state(rng, dim)), s=np.array(s))


def record_args(seed: int, exact: bool, k: int, mode: str, noise) -> dict:
    """A run of either record engine, of k random step sizes: an exact chain
    from a random qubit, or a DME run from 1 to 5 random angles."""
    rng = np.random.default_rng(seed)
    s = tuple(rng.uniform(0.1, 2.0, size=k))
    if exact:
        psi = PureState.from_vector(random_state(rng, 2))
        return dict(thetas=None, psi=psi, schedule=DbacSchedule(s=s, recursion=mode))
    schedule = DbacSchedule(s=s, m=tuple(int(mj) for mj in rng.integers(1, 5, size=k)), recursion=mode)
    thetas = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 6)))
    return dict(thetas=thetas, psi=None, schedule=schedule, noise=noise and tomography.NoiseModel(*noise))


def _record(thetas, psi, schedule, noise=None):
    exact = thetas is None
    return fields(dbac.dbac_recursive_exact(psi, schedule) if exact else dbac.dbac_via_dme(thetas, schedule, noise))


def _records_of_checked_states(thetas, psi, schedule, noise=None):
    with recording(dbac, "check_pure" if thetas is None else "check_bloch") as calls:
        _record(thetas, psi, schedule, noise)
    ((arg,), _), *_ = calls
    if thetas is None:  # (k + 1, 1, 2) vectors
        return fields(records(arg[..., :, None] * arg.conj()[..., None, :]))
    mats = dme.density_matrices(arg)  # of (3, k + 1 + n, B) planes
    return fields(records(mats[: schedule.k + 1], mats[schedule.k + 1 :], thetas.shape))


@st.composite
def schedules(draw, max_steps: int = 39, max_k: int = 8):
    """DME schedules of 1 to ``max_k`` steps, each its own duration and depth, at most ``max_steps`` swaps."""
    k = draw(st.integers(1, max_k))
    m = draw(st.lists(st.integers(1, max(1, max_steps // k)), min_size=k, max_size=k))
    s = draw(st.lists(st.floats(0.05, 1.5), min_size=k, max_size=k))
    return DbacSchedule(s=tuple(s), m=tuple(m), recursion=draw(MODES))


def _via_dme(thetas, schedule, noise):
    rec = dbac.dbac_via_dme(thetas, schedule, noise)
    return rec.energies, rec.instruction_energies, rec.trajectory[:, -1]


def _dme_chain_records(thetas, schedule, noise):
    energies, instr, last = [], [], []
    for theta in thetas:
        rho0 = density(qubit(theta))
        outs, margs = dme_chain(rho0, H.matrix, schedule.s, schedule.m, schedule.recursion, noise)
        energies.append([np.trace(H.matrix @ rho).real for rho in [rho0, *outs]])
        instr.append([np.trace(H.matrix @ rho).real for rho in margs])
        last.append(pauli_expectations(outs[-1]))
    return energies, instr, last


def bloch_steps_args(seed: int, km: tuple, per_entry: bool, mode: str, noise) -> dict:
    """Two random states, k random steps of M copies each, of one duration
    for both or one each, under a random diagonal H."""
    (k, m), (rho0, rng) = km, qubits(seed, (2,))
    steps = rng.uniform(0.05, 1.5, size=(k, 2 if per_entry else 1))
    w = np.sort(rng.normal(size=2))
    return dict(w=w, rho0=rho0, steps=steps, m=m, mode=mode, noise=noise and tomography.NoiseModel(*noise))


def _bloch_steps(w, rho0, steps, m, mode, noise):
    runs = list(dbac._bloch_steps(bloch_planes(rho0), [dbac._step_table(t, m, w) for t in steps], mode, noise))
    outs, margs = [out for out, _ in runs], [marg for _, step in runs for marg in step]
    return tuple(dme.density_matrices(np.stack(planes, axis=1)) for planes in (outs, margs))  # (k or k M, B, 2, 2)


def _dme_chains(w, rho0, steps, m, mode, noise):
    steps = np.broadcast_to(steps, (len(steps), len(rho0)))
    chains = [dme_chain(rho, np.diag(w), steps[:, b], [m] * len(steps), mode, noise) for b, rho in enumerate(rho0)]
    return tuple(np.stack(field, axis=1) for field in zip(*chains))


def reflector_args(seed: int, k: int, mode: str) -> dict:
    """12 random angles, each with its own step size: four negative, four in
    (0, pi] and four above pi; and the initial states perturbed by 1e-15 in phase."""
    rng = np.random.default_rng(seed)
    psi0 = dbac._rx_init(rng.uniform(0.0, np.pi, 12))
    s = np.concatenate([rng.uniform(-2 * np.pi, 0.0, 4), rng.uniform(1e-3, np.pi, 4), rng.uniform(np.pi, 3 * np.pi, 4)])
    return dict(psi0=psi0, nearby=psi0 * np.exp(1e-15j * rng.normal(size=psi0.shape)), steps=s, k=k, mode=mode)


def _exact_planes(psi0, steps, k, mode):
    """The (k, 3, B) Bloch planes of every state of _exact_steps' chains."""
    chains = dbac._exact_steps(psi0, np.broadcast_to(steps, (k, steps.size)), W, mode)
    return np.array([pure_planes(out) for out in chains])


def _well_conditioned_z(psi0, nearby, steps, k, mode):
    """The final z plane where _exact_steps is well conditioned, NaN elsewhere:
    exact fresh chains are chaotic for some (theta, s), runs from states 1e-15
    apart parting by O(1) within 50 steps for about a third of the pairs."""
    want = _exact_planes(psi0, steps, k, mode)
    moved = np.abs(_exact_planes(nearby, steps, k, mode) - want).max(axis=(0, 1))
    return np.where(moved <= tol("_exact_steps perturbed", "_exact_steps"), want[-1, 2], np.nan)


@st.composite
def search_args(draw) -> dict:
    """A step-size search from one angle, near 0 and pi too: exact reflectors
    up to k = 20 when chained, k M <= 16 otherwise."""
    exact, mode, (k, m) = draw(st.booleans()), draw(MODES), draw(depths(16, 16))
    k = draw(st.integers(1, 20)) if exact and mode == "chain" else k
    s_values = draw(st.lists(STEPS, min_size=1, max_size=4))
    return dict(theta=draw(NEAR_ENDS), k=k, m=None if exact else m, s_values=s_values, mode=mode)


def _simulated_fidelities(theta, k, m, s_values, mode):
    """The record engines' final ground fidelities; NaN for an exact fresh
    chain that moves by more than the CHAOTIC cutoff when rerun from initial
    phases perturbed by 1e-15."""
    out = []
    for s in s_values:
        schedule = DbacSchedule.uniform(k, s, m=m, recursion=mode)
        rec = dbac.dbac_recursive_exact(qubit(theta), schedule) if m is None else dbac.dbac_via_dme(theta, schedule)
        out.append((1.0 - rec.energies[-1]) / 2.0)
        if m is None and mode == "fresh":
            nearby = PureState(qubit(theta).amplitudes * np.exp(1e-15j * np.array([1.0, -1.0])))
            moved = np.abs(dbac.dbac_recursive_exact(nearby, schedule).trajectory - rec.trajectory).max()
            out[-1] = np.nan if moved > tol("_exact_steps perturbed", "_exact_steps") else out[-1]
    return out


def _exact_grid_energies(theta, k, mode):
    """The final energies of _exact_steps' chains from R_X(theta)|0>, one per step size of the grid."""
    psi0 = dbac._rx_init(np.full(GRID.size, theta))
    *_, last = dbac._exact_steps(psi0, np.broadcast_to(GRID, (k, GRID.size)), W, mode)
    return np.abs(last) ** 2 @ W


def pass_args(seed: int, k: int, m, mode: str, with_counts: bool, special) -> dict:
    """Angles, some of them special, and seven step sizes, 0 and -0 among
    them, where the swap's operands are (1, 0, 0): common to every angle, or
    tiled over the angles and taken by counts."""
    rng = np.random.default_rng(seed)
    thetas = np.concatenate([special, rng.uniform(-2 * np.pi, 2 * np.pi, 4)])
    steps = np.concatenate([[0.0, -0.0], rng.uniform(-np.pi, np.pi, 5)])
    if not with_counts:
        return dict(thetas=thetas, k=k, table=dbac._step_table(steps, m, W), mode=mode, counts=None)
    counts = rng.multinomial(steps.size * thetas.size - thetas.size, np.ones(thetas.size) / thetas.size) + 1
    return dict(thetas=thetas, k=k, table=dbac._step_table(np.tile(steps, thetas.size), m, W), mode=mode, counts=counts)


PASSES = dict(seed=SEEDS, k=st.integers(1, 6), with_counts=st.booleans(),
              special=st.lists(st.sampled_from([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi]), max_size=3))
SWAP_FORMS = {"batch": (), "one pair": ("instr", "sig", "deltas"), "one instruction": ("instr",),
              "one angle": ("deltas",)}


def swap_args(seed: int, batch: int, form: str, special=()) -> dict:
    """Random instruction and data states with random swap angles, the first
    ones ``special``: a batch of each, or by ``form`` one pair of matrices,
    one instruction against a batch, or a batch at one angle."""
    instr, sig, rng = qubits(seed, (batch,), (batch,))
    args = dict(instr=instr, sig=sig, deltas=np.concatenate([special, rng.uniform(-np.pi, np.pi, batch)])[:batch])
    return {name: x[0] if name in SWAP_FORMS[form] else x for name, x in args.items()}


def swap_marginals(instr, sig, deltas):
    """partial_swap's output and the instruction marginal instr + sig - out,
    as the one recording caller computes it, as matrices."""
    ri, rs = bloch_planes(instr), bloch_planes(sig)
    ri = ri[:, None] if ri.ndim < rs.ndim else ri
    out = np.array(partial_swap(rs, swap_operands(ri, dme.swap_coefficients(deltas))))
    return dme.density_matrices(out), dme.density_matrices(ri + rs - out)


def _joint_marginals(instr, sig, deltas):
    instr, deltas = np.broadcast_to(instr, sig.shape), np.broadcast_to(deltas, sig.shape[:-2])
    pairs = [dme_step_marginals(instr[i], sig[i], deltas[i]) for i in np.ndindex(sig.shape[:-2])]
    return tuple(np.reshape([p[j] for p in pairs], sig.shape) for j in (0, 1))


def power_args(seed: int, m: int, p2: float, length: float, antiparallel: bool, per_entry: bool) -> dict:
    """Four random data planes, instruction planes of one length (antiparallel
    to the data's, or random), depolarizing 1 - p2, and one random exponent each."""
    sig, instr, rng = qubits(seed, (4,), (4,))
    sig = bloch_planes(sig)
    instr = -sig if antiparallel else bloch_planes(instr)
    coeffs = dme.swap_coefficients(rng.uniform(-np.pi, np.pi, 4 if per_entry else 1))
    return dict(sig=sig, instr=instr * (length / np.linalg.norm(instr, axis=0)), coeffs=coeffs, m=m, q=1.0 - p2,
                exponents=rng.integers(1, m + 1, 4))


def _powers(sig, instr, coeffs, m, q, exponents):
    copies = dme.partial_swap_power(sig, instr, coeffs, np.arange(1, m + 1).reshape(-1, 1, 1), q)
    return copies, dme.partial_swap_power(sig, instr, coeffs, exponents, q)


def _swap_loop(sig, instr, coeffs, m, q, exponents):
    want, step = [sig], swap_operands(instr, coeffs)
    for _ in range(m):
        want.append(q * np.array(partial_swap(want[-1], step)))
    return want[1:], np.array(want)[exponents, :, np.arange(4)].T


def swap_point_args(seed: int, batch: int, copies: int) -> dict:
    instr, sig = (bloch_planes(x) for x in qubits(seed, (batch,), (batch,))[:2])
    instr[:, 0] = 0.0
    return dict(instr=instr, sig=sig, copies=copies)


def _at_swap_point(instr, sig, copies):
    coeffs = dme.swap_coefficients(np.pi / 2)
    power = dme.partial_swap_power(sig, instr, coeffs, np.arange(1, copies + 1).reshape(-1, 1, 1))
    return power, np.array(partial_swap(sig, swap_operands(instr, coeffs)))


def _dme_reference(rho, sigma, t):
    """dme_errors' one partial_swap call, its M -> infinity reference."""
    with recording(dme, "partial_swap") as calls:
        dme.dme_errors(rho, sigma, t, [1, 7])
    ((_, ref),) = calls
    return np.array(ref)


def scaled_error(rho, sigma, t: float, m: int) -> float:
    """M times dme_errors' error at depth M."""
    return m * float(dme.dme_errors(rho, sigma, t, [m])[0])


def hamiltonian_args(seed: int, dim: int, **rest) -> dict:
    return dict(h=random_hamiltonian(np.random.default_rng(seed), dim), **rest)


def synthesis_args(seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    return dict(h=random_hamiltonian(rng, 2**n), s=rng.uniform(0.01, 0.3, size=3))


def _synthesized_energy(h, s):
    w = synthesize_uk(h, s)[:, 0]
    return np.vdot(w, h.matrix @ w).real


def ite_args(seed: int, dim: int, theta: float, s: float) -> dict:
    """A step size s, and R_X(theta)|0> under -Z, or a random state under a
    random H of ``dim`` with eigenvalues in [-1, 1], as -Z's."""
    if dim == 2:
        return dict(h=H, psi=qubit(theta), s=s)
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(rng, dim)
    psi = PureState.from_vector(random_state(rng, dim))
    return dict(h=HamiltonianSpec(h.matrix / np.abs(h.eig[0]).max()), psi=psi, s=s)


def _layout_simulated(which, theta, phi):
    _, _, swaps, stages = LAYOUTS[which]
    return dbac.dbac_via_dme(theta, DbacSchedule.uniform(len(stages), swaps * phi, m=swaps)).energies[-1]


@st.composite
def embed_args(draw) -> dict:
    """A random gate, or a stack of 1 to 3, on any ordered qubits of 1 to 5."""
    n = draw(st.integers(1, 5))
    qubits = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
    return embedding(draw(SEEDS), n, qubits, draw(st.sampled_from([None, 1, 2, 3])))


def embedding(seed: int, n: int, qubits: tuple, stack) -> dict:
    dim = 2 ** len(qubits)
    shape = (dim, dim) if stack is None else (stack, dim, dim)
    rng = np.random.default_rng(seed)
    return dict(gate=rng.normal(size=shape) + 1j * rng.normal(size=shape), qubits=qubits, n=n)


def _embedded_by_index(gate, qubits, n):
    each = [embed_gate_by_index(g, qubits, n) for g in gate.reshape((-1,) + gate.shape[-2:])]
    return np.reshape(each, gate.shape[:-2] + (2**n, 2**n))


@st.composite
def noise_models(draw):
    """Depolarizing, damping with and without dephasing (t2 < 2 t1), or all:
    these T1 put 2q-gate damping between dt/T1 = 0.04 and 1, and the channel
    depends on the gate times only through dt/T1 and dt/T2."""
    probs, t1 = st.floats(0.0, 0.2), draw(st.floats(0.1, 2.5))
    t2 = t1 * draw(st.floats(0.2, 1.9))
    kind = draw(st.sampled_from([dict(p1=probs), dict(p2=probs), dict(t1_us=st.just(t1)),
                                 dict(t1_us=st.just(t1), t2_us=st.just(t2)),
                                 dict(p1=probs, p2=probs, t1_us=st.just(t1), t2_us=st.just(t2))]))
    return tomography.NoiseModel(**draw(st.fixed_dictionaries(kind)))


@st.composite
def circuit_batches(draw, max_qubits: int = 2, max_size: int = 4):
    """One to ``max_size`` circuits on one register of 1 to ``max_qubits``
    qubits, and an empty one: gates of every kind at drawn angles, and on two
    or more qubits compiled native and H/S partial swaps, cz, cnot, swap3 (on
    wires 0 and 1) and the cooling layout of that register size."""
    n = draw(st.integers(1, max_qubits))
    kinds = [k for k in circuits.GATE_KINDS if n > 1 or k != "RZZ"]

    def gates():
        out = []
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
            qubits = tuple(draw(st.permutations(range(n)))[:2]) if kind == "RZZ" else (draw(st.integers(0, n - 1)),)
            out.append(circuits.Gate(kind, (draw(ANGLES),) if kind in ("RX", "RY", "RZ", "RZZ") else (), qubits))
        return circuits.Circuit(n, tuple(out))

    compiled = [
        lambda: circuits.compile_udme_native(draw(ANGLES)),
        lambda: circuits.compile_udme_hs(draw(ANGLES)),
        circuits.compile_cz,
        circuits.compile_cnot,
        circuits.compile_swap3,
        lambda: build_circuit("ABC"[n - 2], draw(ANGLES), draw(ANGLES)),  # the layout on n wires
    ]
    makers = st.sampled_from([gates, *compiled] if n > 1 else [gates])
    batch = [circuits.Circuit(n, make().gates) for make in draw(st.lists(makers, min_size=1, max_size=max_size))]
    batch.insert(draw(st.integers(0, len(batch))), circuits.Circuit(n, ()))
    return batch


def _ptms(batch, noises):
    return np.array([[p.r for p in ptms] for ptms in tomography.ptm_of_circuits(batch, noises)])


def _dense_ptms(batch, noises):
    return np.array([[ptm_of_channel(dense_channel(c, noise), c.num_qubits).r for c in batch] for noise in noises])


def mixed_counts(n: int) -> list:
    """Circuits of 1, 3 and no gates on n qubits, and on two a compiled partial swap."""
    q = (0, 1)[:n]
    return [
        circuits.Circuit(n, (circuits.Gate("RX", (0.4,), (q[-1],)),)),
        circuits.Circuit(n, (circuits.Gate("H", (), (0,)), circuits.Gate("RZ", (1.3,), (q[-1],)),
                             circuits.Gate("S", (), (0,)))),
        circuits.Circuit(n, ()),
    ] + [circuits.compile_udme_native(0.9)] * (n == 2)


def kraus_args(seed: int, n: int, count: int) -> dict:
    """The Kraus operators of a random channel: blocks of a random isometry."""
    d = 2**n
    return dict(kraus=random_unitary(np.random.default_rng(seed), d * count)[:, :d].reshape(count, d, d), n=n)


def _pauli_expectations(seed, shape):
    rho = qubits(seed, shape)[0]
    return np.moveaxis(np.reshape([pauli_expectations(m) for m in rho.reshape(-1, 2, 2)], (*shape, 3)), -1, 0)


def hbac_rounds(step, eps, bath, rounds: int) -> list:
    """Target polarizations of ``rounds`` rounds: the first compresses three
    qubits at ``eps``, each later one the target and two qubits reset to ``bath``."""
    out = [step(*eps)]
    for _ in range(rounds - 1):
        out.append(step(out[-1], bath, bath))
    return out


def _expm_swaps(phis):
    return np.array([expm(SWAP, -1j * phi) for phi in phis])


def _args(**strategies):
    return st.fixed_dictionaries(strategies)


QUBITS = _args(theta=st.floats(0.0, np.pi), phase=st.floats(0.0, 2 * np.pi), t=st.floats(-2 * np.pi, 2 * np.pi))
PAIRS = dict(seed=SEEDS, kind=st.sampled_from(["random", "ground and plus"]), t=st.floats(-2, 2) | st.just(np.pi / 4))
DIMS = st.sampled_from([2, 4, 8])
REFLECTORS = st.builds(reflector_args, seed=SEEDS, k=st.integers(1, 200), mode=MODES)
KINDS = ("1q", "2q", "2q-degenerate")

# (program path, oracle): its row, whose tolerance bounds the row's measure,
# absolute unless the row and its reason say otherwise; a path named with a
# qualifier is that path in one regime
TOLERANCES = {
    ("_exact_steps", "dbac_step_exact"): Row(
        1e-12, ORDER, _args(theta=st.floats(0.0, np.pi), t=ANGLES), _one_exact_step, _dense_step,
        pins={"criterion 1": [dict(theta=theta, t=t) for theta in CRITERION_1 for t in CRITERION_1]},
    ),
    ("dbac_energy_analytic", "dbac_step_exact"): Row(
        1e-10, ORDER, QUBITS, lambda theta, phase, t: dbac.dbac_energy_analytic(-np.cos(theta), t),
        lambda theta, phase, t: energy(dbac_step_exact(qubit(theta, phase), t), H),
        pins={"grid": [dict(theta=theta, phase=-np.pi / 2, t=t) for theta in np.linspace(0, np.pi, 21)
                       for t in np.linspace(0, np.pi, 21)],
              "one energy": [dict(theta=1.9, phase=p, t=0.73) for p in np.linspace(0, 6, 10)]},  # any phase
    ),
    ("chain_law_energies", "dbac_recursive_exact chain"): Row(
        1e-12, CHAIN_LAW,
        _args(thetas=st.lists(NEAR_ENDS, min_size=1, max_size=6).map(np.array),
              s=st.lists(STEPS, min_size=1, max_size=8)),
        dbac.chain_law_energies, _chain_energies,
    ),
    ("dbac_recursive_exact", "dbac_step_exact"): Row(
        1e-13, ORDER, QUBITS,
        lambda theta, phase, t: dbac.dbac_recursive_exact(qubit(theta, phase), DbacSchedule.uniform(1, t)).energies[-1],
        lambda theta, phase, t: energy(dbac_step_exact(qubit(theta, phase), t), H),
        pins={"k = 1": [dict(theta=0.8, phase=-np.pi / 2, t=0.6)]},
    ),
    ("dbac_recursive_exact", "recursive_exact"): Row(
        1e-12, ORDER,
        st.builds(chain_args, seed=SEEDS, kind=st.sampled_from(KINDS), k=st.integers(1, 6), exact=st.booleans(),
                  mode=MODES),
        _recursive_exact, lambda h, psi, schedule: (*recursive_exact(psi, schedule, h), []),
        pins={"kinds": {f"{kind}-{mode}": [chain_args(trial, kind, 1 + trial, trial % 2, mode) for trial in range(4)]
                        for mode in dbac.RECURSION_MODES for kind in KINDS}},
    ),
    ("descent_bound_residual", "dense_descent_bound_residual"): Row(
        1e-13, CANCELLED,
        st.builds(descent_args, seed=SEEDS, dim=DIMS, s=st.lists(st.floats(1e-6, 0.1), min_size=1, max_size=4)),
        dbac.descent_bound_residual, lambda h, psi, s: [dense_descent_bound_residual(h, psi, sj) for sj in s],
        per_inverse_s2,
    ),
    ("_records", "records"): Row(
        1e-14, ORDER,
        st.builds(record_args, seed=SEEDS, exact=st.booleans(), k=st.integers(1, 4), mode=MODES, noise=NOISES),
        _record, _records_of_checked_states,
        pins={"dme": {mode: dict(thetas=np.linspace(0.1, 3.0, 5), psi=None, noise=tomography.NoiseModel(1e-3, 1e-2),
                                 schedule=DbacSchedule(s=(0.7, 0.4, 0.9), m=(4, 2, 3), recursion=mode))
                      for mode in dbac.RECURSION_MODES}},
    ),
    ("dbac_via_dme", "dme_chain"): Row(
        1e-12, RENORMALIZED,
        _args(thetas=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=4).map(np.array), schedule=schedules(),
              noise=st.none() | st.builds(tomography.NoiseModel, p1=st.sampled_from([0.0, 1e-3, 0.02]),
                                          p2=st.just(0.0) | st.floats(1e-4, 0.1))),
        _via_dme, _dme_chain_records, draws=60,
        pins={"deep": [dict(thetas=np.array([2.0]), schedule=DbacSchedule.uniform(4, 1.2, m=9), noise=None)],
              "p2": [dict(thetas=np.array([0.0, 1.2, np.pi]), schedule=DbacSchedule(s=(0.3, 1.4), m=(7, 2),
                          recursion="fresh"), noise=tomography.NoiseModel(p1=0.02, p2=0.08))]},
    ),
    ("_bloch_steps", "dme_chain"): Row(
        1e-12, RENORMALIZED,
        st.builds(bloch_steps_args, seed=SEEDS, km=depths(200, 40), per_entry=st.booleans(), mode=MODES, noise=NOISES),
        _bloch_steps, _dme_chains, draws=25,
        pins={"long": [bloch_steps_args(1, (200, 1), False, "chain", (2e-3, 0.01)),
                       bloch_steps_args(2, (4, 50), True, "chain", None)]},
    ),
    ("_search_pass_z exact", "_exact_steps"): Row(
        1e-11, COMPOUNDED + "; compared up to the CHAOTIC cutoff", REFLECTORS,
        lambda psi0, nearby, steps, k, mode: dbac._search_pass_z(
            pure_planes(psi0), k, dbac._step_table(steps, None, W), mode
        ),
        _well_conditioned_z, up_to_cutoff,
    ),
    ("_exact_steps perturbed", "_exact_steps"): Row(
        1e-13, CHAOTIC + "; at least 3 of the 12 chains of a draw stay within it", REFLECTORS,
        lambda psi0, nearby, steps, k, mode: _exact_planes(nearby, steps, k, mode),
        lambda psi0, nearby, steps, k, mode: _exact_planes(psi0, steps, k, mode), third_closest,
    ),
    ("final_fidelities_over_s", "tiled_table_fidelities"): Row(
        0.0, EXACT,
        _args(theta=st.floats(0.0, np.pi) | st.lists(st.floats(0.0, np.pi), min_size=1, max_size=6).map(np.array),
              k=st.integers(1, 6), m=st.none() | st.integers(1, 8), s_values=st.lists(STEPS, min_size=1, max_size=12),
              mode=MODES),
        dbac.final_fidelities_over_s, tiled_table_fidelities, draws=60,
        pins={"fresh": [dict(theta=np.linspace(0.0, np.pi, 6), s_values=[1e-3, 0.5, np.pi, -1.0, 11.5], k=6, m=m,
                             mode="fresh") for m in (None, 1, 2, 4)]},
    ),
    ("final_fidelities_over_s", "dbac_via_dme and dbac_recursive_exact"): Row(
        1e-12, SEARCHED, search_args(), dbac.final_fidelities_over_s, _simulated_fidelities, up_to_cutoff,
        examples=[dict(theta=5.96e-8, k=15, m=None, s_values=[2.058], mode="chain")], draws=100,
        pins={"ends": [dict(theta=theta, k=8 // (m or 1), m=m, s_values=[0.05, 1.3, 2.6, np.pi], mode=mode)
                       for theta, m, mode in ((1e-9, 4, "fresh"), (np.pi - 1e-9, None, "chain"), (0.7, 2, "chain"))],
              "outside (0, pi]": {f"{m}-{mode}": dict(theta=0.3, k=2, m=m, s_values=[-1.0, 10.0], mode=mode)
                                  for m, mode in ((None, "chain"), (None, "fresh"), (2, "chain"))}},
    ),
    ("final_fidelities_over_s exact", "_exact_steps"): Row(
        1e-11, EXACT_GRID, _args(theta=NEAR_ENDS, k=st.integers(1, 3), mode=MODES),
        lambda theta, k, mode: 1.0 - 2.0 * dbac.final_fidelities_over_s(theta, k, None, GRID, mode),
        _exact_grid_energies,
        pins={"whole grid": {f"{k}-{mode}": dict(theta=1.1, k=k, mode=mode)
                             for k in (1, 3) for mode in dbac.RECURSION_MODES}},
    ),
    ("_final_energies", "search_loop"): Row(
        0.0, SAME_OPS, st.builds(pass_args, m=st.integers(1, 8), mode=MODES, **PASSES),
        dbac._final_energies, search_loop, signed, draws=60,
    ),
    ("_final_energies exact fresh", "search_exact_loop"): Row(
        0.0, SAME_OPS, st.builds(pass_args, m=st.none(), mode=st.just("fresh"), **PASSES),
        dbac._final_energies, lambda thetas, k, table, mode, counts: search_exact_loop(thetas, k, table, counts),
        signed, draws=40,
        pins={"ends": [pass_args(0, 1, None, "fresh", False, [0.0, np.pi]),
                       pass_args(1, 6, None, "fresh", True, [np.pi, 0.0])]},
    ),
    ("_rx_planes", "bloch_planes of _rx_init"): Row(
        0.0, SPLIT,
        _args(thetas=st.lists(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, np.pi, -np.pi]), min_size=1,
                              max_size=8).map(np.array)),
        dbac._rx_planes, lambda thetas: pure_planes(dbac._rx_init(thetas)), signed, draws=60,
    ),
    ("basin_min_fidelity", "plain_basin"): Row(
        0.0, EXACT,
        _args(k=st.integers(1, 6), m=st.sampled_from([1, 2, 3, 4, None]), mode=MODES,
              f_target=st.floats(0.01, 0.99) | st.floats(1e-12, 1e-6) | st.floats(1 - 1e-9, 1 - 1e-15)),
        lambda k, m, mode, f_target: dbac.basin_min_fidelity(k, m, f_target, mode), plain_basin, draws=60,
        pins={"ends": [
            dict(k=1, m=1, mode="chain", f_target=1 - 1e-14),  # the (1.0, False) sentinel
            dict(k=6, m=None, mode="fresh", f_target=1 - 1e-9),
            dict(k=3, m=None, mode="fresh", f_target=1e-7),  # lo is returned
            dict(k=6, m=4, mode="chain", f_target=1e-9),
            dict(k=2, m=2, mode="fresh", f_target=0.8),
            dict(k=2, m=2, mode="chain", f_target=1 - 1e-7),  # the upper end's witness misses
        ]},
    ),
    ("_midpoints", "midpoints"): Row(
        0.0, EXACT,
        _args(lo=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0) | st.floats(0.0, 1e-3), levels=st.integers(0, 4)),
        lambda lo, width, levels: dbac._midpoints(lo, min(lo + width, 1.0), levels),
        lambda lo, width, levels: midpoints(lo, min(lo + width, 1.0), levels), draws=60,
        pins={"lower end": [dict(lo=1e-6, width=1.0 - 2e-6, levels=4)]},  # the lower end's witnesses
    ),
    ("partial_swap", "dme_step_exact"): Row(
        1e-12, ORDER,
        st.builds(swap_args, seed=SEEDS, batch=st.integers(1, 8), form=st.sampled_from(list(SWAP_FORMS)),
                  special=st.lists(st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi]), max_size=2)),
        swap_marginals, _joint_marginals, draws=40,
        pins={"200 pairs": [swap_args(0, 200, "batch")],
              "six": [swap_args(1, 6, "batch"), swap_args(1, 6, "one angle")],
              "search batch": [swap_args(2, GRID.size, "batch")],  # the batch the step-size search runs
              "one pair": [swap_args(3, 1, "one pair", [delta]) for delta in (0.4, -2.1, np.pi / 2)],
              "one instruction": [swap_args(4, 4, "one instruction")]},  # a (3, 1) plane against a (3, B) batch
    ),
    ("partial_swap_power", "partial_swap loop"): Row(
        1e-13, ORDER,
        st.builds(power_args, seed=SEEDS, m=st.integers(1, 64), p2=st.floats(0.0, 0.1), length=st.floats(0.0, 1.0),
                  antiparallel=st.booleans(), per_entry=st.booleans()),
        _powers, _swap_loop, draws=40,
        # |a| = 0, |a|^2 underflowing and a antiparallel to b, at the extreme depths and noise
        pins={"extremes": [power_args(0, 64, 0.0, 0.0, False, True), power_args(1, 64, 0.1, 1.0, True, False),
                           power_args(2, 1, 0.05, 0.0, True, True), power_args(4, 3, 0.0, 1e-300, False, False),
                           power_args(5, 2, 0.01, 5e-324, True, True)]},
    ),
    ("partial swaps at the swap point", "the instruction"): Row(
        1e-15, ORDER, st.builds(swap_point_args, seed=SEEDS, batch=st.integers(1, 6), copies=st.integers(1, 8)),
        _at_swap_point, lambda instr, sig, copies: (np.broadcast_to(instr, (copies, *instr.shape)), instr),
    ),
    ("partial_swap_power one copy", "dme_step_exact"): Row(
        1e-14, ORDER, st.builds(pair, seed=SEEDS, t=st.floats(-2.0, 2.0)),
        lambda rho, sigma, t: trotter(rho, sigma, t, 1), lambda rho, sigma, t: dme_step_exact(rho, sigma, t).matrix,
        pins={"t = 0.77": [pair(0, t=0.77)]},
    ),
    ("partial_swap_power", "trotter_state"): Row(
        1e-12, ORDER, st.builds(pair, seed=SEEDS, t=st.floats(-2.0, 2.0), m=st.integers(1, 64)), trotter, trotter_state,
        draws=40, pins={"loop": [pair(0, t=2.0, m=64), pair(1, t=-1.3, m=7)]},
    ),
    ("dme_errors", "dme_error"): Row(
        1e-13, ORDER, st.builds(pair, **PAIRS, ms=st.lists(st.integers(1, 64), min_size=1, max_size=8)),
        dme.dme_errors, lambda rho, sigma, t, ms: [dme_error(rho, sigma, t, m) for m in ms], draws=12,
        pins={"1 to 64": [pair(0, t=-2.0, ms=list(range(1, 65)))],
              "criterion 3": [pair(0, kind, t=np.pi / 4, ms=[1, 2, 4, 8, 16, 32, 64])
                              for kind in ("ground and plus", "random")]},
    ),
    ("dme_errors deep", "dme_error"): Row(
        1e-12, COMPOUNDED, st.builds(pair, **PAIRS, ms=st.integers(65, 1000).map(lambda m: [m])),
        dme.dme_errors, lambda rho, sigma, t, ms: [dme_error(rho, sigma, t, m) for m in ms], draws=4,
        pins={"deep": [pair(0, "ground and plus", t=np.pi / 4, ms=[1, 361, 362, 1000])]},
    ),
    ("dme_errors 10^6", "dme_errors 10^9"): Row(
        # at t = 0.1 the 10^9 error keeps only 4 to 5 digits (CHANGES.md, FOUND)
        1e-5, LAW, st.builds(pair, seed=SEEDS, t=st.just(0.9)),
        lambda rho, sigma, t: scaled_error(rho, sigma, t, 10**6),
        lambda rho, sigma, t: scaled_error(rho, sigma, t, 10**9), relative,
    ),
    ("dme_errors 4096", "dme_errors 10^9"): Row(
        1e-3, LAW, st.builds(pair, seed=SEEDS, t=st.floats(0.1, 2.0)),
        lambda rho, sigma, t: scaled_error(rho, sigma, t, 4096),
        lambda rho, sigma, t: scaled_error(rho, sigma, t, 10**9), relative,
    ),
    ("dme_errors reference", "exact_conjugation"): Row(
        1e-14, ORDER,
        st.builds(pair, seed=SEEDS, kind=st.sampled_from(["random", "pure", "maximally mixed", "sigma = rho"]),
                  t=st.floats(-10.0, 10.0)),
        _dme_reference, lambda rho, sigma, t: pauli_expectations(exact_conjugation(rho, sigma, t)), draws=40,
    ),
    ("HamiltonianSpec.eig", "expm_series"): Row(
        1e-12, SQUARED,
        st.builds(hamiltonian_args, seed=SEEDS, dim=DIMS,
                  scale=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))),
        expm, lambda h, scale: expm_series(h.matrix, scale), to_largest,
        pins={"scales": {str(dim): [hamiltonian_args(0, dim, scale=scale) for scale in (-0.7j, 1.3j, -0.4, 2.0 - 0.5j)]
                         for dim in (2, 4, 8)}},
    ),
    ("dbac_recursive_exact chain", "synthesize_uk"): Row(
        1e-12, SYNTHESIZED, st.builds(synthesis_args, seed=SEEDS, n=st.integers(1, 3)),
        lambda h, s: eigenbasis_chain(h, basis(0, len(h.matrix).bit_length() - 1), np.sqrt(s), "chain")[0][-1],
        _synthesized_energy,
        pins={"seeds": {str(n): [synthesis_args(seed, n) for seed in range(20)] for n in (1, 2, 3)}},
    ),
    ("dbac_recursive_exact one step", "ite_evolve"): Row(
        3.0, IMAGINARY,
        st.builds(ite_args, seed=SEEDS, dim=DIMS, theta=st.floats(0.0, np.pi), s=st.floats(1e-3, 1e-2)),
        lambda h, psi, s: eigenbasis_chain(h, psi, [np.sqrt(s)], "chain")[0][-1],
        lambda h, psi, s: energy(ite_evolve(psi, s, h), h), per_s2,
        pins={"random H": {str(dim): [ite_args(seed, dim, 0.0, s) for seed in range(10) for s in (1e-2, 1e-3)]
                           for dim in (4, 8)}},
    ),
    ("dbac_via_dme", "layout_energy"): Row(
        1e-12, ORDER, _args(which=st.sampled_from("ABC"), theta=st.floats(0.0, np.pi), phi=st.floats(-np.pi, np.pi)),
        _layout_simulated, layout_energy,
        pins={which: {str(theta): dict(which=which, theta=theta, phi=phi) for theta in thetas}
              for which, phi, thetas in (("A", np.pi / 4, np.linspace(0.1, np.pi - 0.1, 7)),
                                         ("B", np.pi / 8, (0.3, 1.1, 2.4)), ("C", np.pi / 4, (0.3, 1.1, 2.4)))},
    ),
    ("circuit_unitaries", "loop_unitary"): Row(
        0.0, EXACT, _args(batch=circuit_batches(max_qubits=4, max_size=8)),
        lambda batch: circuits.circuit_unitaries(batch), lambda batch: [loop_unitary(c) for c in batch], draws=60,
        pins={"mixed": [dict(batch=[circuits.compile_udme_native(0.3), circuits.compile_cz(),
                                    build_circuit("A", 0.4, 0.7), circuits.Circuit(2, ()), circuits.compile_swap3()])]},
    ),
    ("embed_gate", "embed_gate_by_index"): Row(
        1e-14, ORDER, embed_args(), qmath.embed_gate, _embedded_by_index, draws=40,
        pins={"one gate": {f"{n}-qubits{i}": embedding(0, n, qubits, None) for i, (n, qubits)
                           in enumerate([(2, (0,)), (2, (1, 0)), (3, (2,)), (3, (0, 2)), (4, (3, 1))])},
              # every ordered qubit tuple, reversed ones included
              "stacks": {f"{n}-{k}": [embedding(seed, n, qubits, 2)
                                      for seed, qubits in enumerate(itertools.permutations(range(n), k))]
                         for n in range(1, 6) for k in range(1, n + 1)}},
    ),
    ("ptm_of_circuits", "dense_channel"): Row(
        1e-12, ORDER,
        _args(batch=circuit_batches(), noises=st.lists(st.none() | noise_models(), min_size=1, max_size=3)),
        _ptms, _dense_ptms,
        pins={"compiled": [dict(batch=[circuits.compile_udme_native(0.6), circuits.Circuit(2, ())],
                                noises=[None, FULL_NOISE])],
              # every gate kind, on two qubits and the 1-qubit ones on one, under each kind of noise
              "every kind": {name: [dict(batch=[EVERY_KIND, circuits.compile_swap3()], noises=[noise]),
                                    dict(batch=[ONE_QUBIT_KINDS], noises=[noise])]
                             for name, noise in NOISE_KINDS.items()},
              "mixed counts": {str(n): dict(batch=mixed_counts(n), noises=[
                  *list(NOISE_KINDS.values())[:3], tomography.NoiseModel(), FULL_NOISE])  # NoiseModel() is off
                               for n in (1, 2)},
              # T2 = 2 T1, the Kraus form's edge without dephasing
              "t2 = 2 t1": [dict(batch=[EVERY_KIND, circuits.compile_swap3()], noises=[NO_DEPHASING]),
                            dict(batch=[ONE_QUBIT_KINDS], noises=[NO_DEPHASING])]},
    ),
    ("_noise_ptm damping and dephasing", "relaxation_ptm"): Row(
        1e-15, RELAXED, _args(t1=st.floats(5e-3, 2.5), ratio=st.none() | st.floats(0.05, 2.0) | st.just(2.0)),
        _relaxation, lambda t1, ratio: relaxation_ptm(t1, ratio and ratio * t1, GATE_TIMES_US[1]),
        pins={"t2": {"unset": dict(t1=0.05, ratio=None), "2 t1": dict(t1=0.05, ratio=2.0),
                     "t1": dict(t1=0.05, ratio=1.0)}},
    ),
    ("ptm_of_circuits", "ptm_of_channel"): Row(
        1e-12, ORDER, _args(phi=ANGLES),
        lambda phi: _ptms([circuits.compile_udme_native(phi), circuits.compile_udme_hs(phi)], [None])[0],
        lambda phi: [ptm_of_channel(unitary_channel(expm(SWAP, -1j * phi)), 2).r] * 2,
        pins={"swap point": [dict(phi=np.pi / 2)], "quarter": [dict(phi=np.pi / 4)]},
    ),
    ("_transfer", "ptm_of_channel"): Row(
        1e-12, ORDER, st.builds(kraus_args, seed=SEEDS, n=st.integers(1, 2), count=st.integers(1, 4)),
        lambda kraus, n: tomography._transfer(kraus, n).sum(axis=0),
        lambda kraus, n: ptm_of_channel(lambda rho: apply_kraus(rho, kraus), n).r,
    ),
    ("bloch_planes", "pauli_expectations"): Row(
        1e-15, ORDER, _args(seed=SEEDS, shape=st.just(()) | st.tuples(st.integers(1, 20))),
        lambda seed, shape: bloch_planes(qubits(seed, shape)[0]), _pauli_expectations,
        pins={"20 and one": [dict(seed=0, shape=(20,)), dict(seed=0, shape=())]},
    ),
    ("hbac_round_closed", "hbac_round_dense"): Row(
        1e-15, ORDER,
        _args(eps=st.tuples(*[POLARIZATIONS] * 3), bath=POLARIZATIONS, rounds=st.integers(1, 12)),
        lambda **args: hbac_rounds(hbac_round_closed, **args), lambda **args: hbac_rounds(hbac_round_dense, **args),
        draws=200,
        pins={"ends": [dict(eps=eps, bath=0.0, rounds=1)
                       for eps in ((1.0, 1.0, 1.0), (-1.0, 0.5, -1.0), (0.3, -0.7, 0.9))]},
    ),
    ("hbac steady state", "hbac_round_dense"): Row(
        1e-12, ORDER, _args(bath=POLARIZATIONS),
        lambda bath: 2 * bath / (1 + bath * bath),
        lambda bath: hbac_round_dense(2 * bath / (1 + bath * bath), bath, bath), draws=100,
    ),
    ("partial_swap_unitaries", "expm"): Row(
        1e-15, CLOSED, _args(phis=SWAP_ANGLES), circuits.partial_swap_unitaries, _expm_swaps,
        pins={"angles": {f"phis{i}": dict(phis=phis) for i, phis in enumerate(
            [[0.0], [0.0, np.pi / 8, np.pi / 4, np.pi / 2], [-0.7, 2.9, 1e-9, -3.1]])}},
    ),
    ("partial_swap_ptms", "_transfer of expm"): Row(
        1e-15, CLOSED, _args(phis=SWAP_ANGLES), lambda phis: [p.r for p in tomography.partial_swap_ptms(phis)],
        lambda phis: tomography._transfer(_expm_swaps(phis), 2),
    ),
    ("compile_udme_native and compile_udme_hs", "expm"): Row(
        1e-13, COMPILED, _args(phi=ANGLES),
        lambda phi: circuits.circuit_unitaries([circuits.compile_udme_native(phi), circuits.compile_udme_hs(phi)]),
        lambda phi: _expm_swaps([phi, phi]), up_to_phase,
        pins={"angles": {str(phi): dict(phi=phi) for phi in (np.pi / 8, np.pi / 4, np.pi / 2, -0.9, 2.2)}},
    ),
    ("compile_udme_native", "expm of the Heisenberg generator"): Row(
        1e-13, COMPILED, _args(phi=ANGLES), lambda phi: circuits.circuit_unitaries([circuits.compile_udme_native(phi)]),
        lambda phi: expm(HEISENBERG, -0.5j * phi)[None], up_to_phase, pins={"phi = 0.63": [dict(phi=0.63)]},
    ),
    ("_gate_matrices RZZ", "expm"): Row(
        1e-14, CLOSED, _args(phi=ANGLES),
        lambda phi: circuits._gate_matrices([circuits.Gate("RZZ", (phi,), (0, 1))])[0],
        lambda phi: expm(ZZ, -0.5j * phi), pins={"angles": [dict(phi=phi) for phi in (0.3, -1.1, 2.9)]},
    ),
    ("_gate_matrices RX, RY and RZ", "expm"): Row(
        1e-14, CLOSED, _args(phi=ANGLES),
        lambda phi: np.array([circuits._gate_matrices([circuits.Gate(kind, (phi,), (0,))])[0] for kind in ROTATIONS]),
        lambda phi: np.array([expm(axis, -0.5j * phi) for axis in ROTATIONS.values()]),
        pins={"angles": [dict(phi=phi) for phi in (0.3, -1.1, 2.9, np.pi / 2)]},
    ),
}
