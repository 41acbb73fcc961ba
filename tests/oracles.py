"""Dense brute-force references that the package's batched and closed-form
paths are checked against: each computes its quantity by the definition, on
dense matrices, one point at a time.  The program calls none of them.

Every comparison of a program path with one of them reads its tolerance from
TOLERANCES, through :func:`tol`, next to the reason the two may differ."""

import numpy as np

from dbac_lab import circuits, dbac, qmath, tomography
from dbac_lab.baselines import ppa_round, target_polarization, thermal_qubit
from dbac_lab.dbac import BasinResult, CoolingRecord, best_final_fidelity, check_step_sizes, copies_accounting
from dbac_lab.dme import exact_conjugation, reflector
from dbac_lab.states import DensityMatrix, HamiltonianSpec, PureState, energy
from dbac_lab.tomography import PTM, pauli_labels, pauli_matrix

EXACT = "the same arithmetic in the same order: bit for bit"
ORDER = "the same quantity by other products and sums (closed forms against eigh, kron and partial traces)"
RENORMALIZED = "each oracle step renormalizes its state, or rescales its instruction copy to unit trace"
COMPOUNDED = "rounding compounds over hundreds of chained steps or Trotter copies"
CANCELLED = "per 1/s^2: the residual divides an O(s^2) difference of O(1) energies by s^2"
CHAOTIC = "the chaotic cutoff of exact fresh chains: one that moves by more under 1e-15 is not compared"
LAW = "relative: M times the Trotter error converges to its 1/M limit, with an O(1/M) correction"

# (program path, oracle): (tolerance, why the two may differ), absolute unless
# the reason says otherwise; a path named with a qualifier is that path in one regime
TOLERANCES = {
    ("_exact_steps", "dbac_step_exact"): (1e-12, ORDER),
    ("dbac_energy_analytic", "dbac_step_exact"): (1e-10, ORDER),
    ("dbac_recursive_exact", "dbac_step_exact"): (1e-13, ORDER),
    ("dbac_recursive_exact", "recursive_exact"): (1e-12, ORDER),
    ("descent_bound_residual", "dense_descent_bound_residual"): (1e-13, CANCELLED),
    ("_records", "records"): (1e-14, ORDER),
    ("dbac_via_dme", "dme_chain"): (1e-12, RENORMALIZED),
    ("_bloch_steps", "dme_chain"): (1e-12, RENORMALIZED),
    ("_bloch_steps exact", "_exact_steps"): (1e-11, COMPOUNDED),
    ("_exact_steps perturbed", "_exact_steps"): (1e-13, CHAOTIC),
    ("final_fidelities_over_s", "tiled_table_fidelities"): (0.0, EXACT),
    ("basin_min_fidelity", "plain_basin"): (0.0, EXACT),
    ("partial_swap", "dme_step_exact"): (1e-12, ORDER),
    ("partial_swap_power", "partial_swap loop"): (1e-13, ORDER),
    ("partial swaps at the swap point", "the instruction"): (1e-15, ORDER),
    ("partial_swap_power one copy", "dme_step_exact"): (1e-14, ORDER),
    ("partial_swap_power", "trotter_state"): (1e-12, ORDER),
    ("dme_errors", "dme_error"): (1e-13, ORDER),
    ("dme_errors deep", "dme_error"): (1e-12, COMPOUNDED),
    ("dme_errors 10^6", "dme_errors 10^9"): (1e-5, LAW),
    ("dme_errors 4096", "dme_errors 10^9"): (1e-3, LAW),
    ("circuit_unitaries", "loop_unitary"): (0.0, EXACT),
    ("embed_gate", "embed_gate_by_index"): (1e-14, ORDER),
    ("ptm_of_circuits", "dense_channel"): (1e-12, ORDER),
    ("ptm_of_circuits", "ptm_of_channel"): (1e-12, ORDER),
    ("_transfer", "ptm_of_channel"): (1e-12, ORDER),
    ("bloch_planes", "pauli_expectations"): (1e-15, ORDER),
    ("hbac_round_closed", "hbac_round_dense"): (1e-15, ORDER),
    ("hbac steady state", "hbac_round_dense"): (1e-12, ORDER),
}


def tol(path: str, oracle: str) -> float:
    """The tolerance of comparing ``path`` with ``oracle``."""
    return TOLERANCES[path, oracle][0]


def agrees(got, want, path: str, oracle: str) -> bool:
    """Whether ``got`` has the shape of ``want`` and is within the tolerance of
    comparing ``path`` with ``oracle`` of it in every entry; at tolerance 0.0
    that is ``np.array_equal``."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.abs(got - want).max(initial=0.0) <= tol(path, oracle))


def variance(psi: PureState, h: HamiltonianSpec) -> float:
    """<H^2> - <H>^2 of a pure state, by dense traces."""
    rho = psi.density().matrix
    e = np.trace(h.matrix @ rho).real
    return float(np.trace(h.matrix @ h.matrix @ rho).real - e * e)


def dbac_step_exact(psi: PureState, t: float, h: HamiltonianSpec | None = None, target=None) -> PureState:
    """exp(i t H) exp(i t |psi><psi|) exp(-i t H) applied to ``target`` (default
    ``psi``; the fresh recursion's original state), renormalized, by a dense
    application of every factor."""
    spec = h or HamiltonianSpec.default_single_qubit()
    em = spec.expm(-1j * t)  # exp(+i t H) is its adjoint
    v = em.conj().T @ reflector(psi, t) @ em @ (target or psi).amplitudes
    return PureState(v / np.linalg.norm(v))


def dense_descent_bound_residual(h: HamiltonianSpec, psi: PureState, s: float) -> float:
    """(E1 - E0 + 2 s V0) / s^2 for one dense step of duration sqrt(s)."""
    e1 = energy(dbac_step_exact(psi, float(np.sqrt(s)), h), h)
    return (e1 - energy(psi, h) + 2.0 * s * variance(psi, h)) / s**2


def recursive_exact(psi: PureState, schedule, ground):
    """dbac_recursive_exact one dense step at a time: energies, variances, ground
    fidelities (``ground``: a basis of the ground space as columns), trajectory."""
    h = schedule.hamiltonian
    states = [psi]
    for t in schedule.s:
        states.append(dbac_step_exact(states[-1], t, h, psi if schedule.recursion == "fresh" else None))
    fids = [float(np.sum(np.abs(ground.conj().T @ s.amplitudes) ** 2)) for s in states]
    traj = [pauli_expectations(s.density().matrix) for s in states] if psi.num_qubits == 1 else []
    return [energy(s, h) for s in states], [variance(s, h) for s in states[:-1]], fids, traj


def records(schedule, states, marginals=(), shape=()) -> CoolingRecord:
    """The record of a run's (k + 1, B, d, d) states and (n, B, d, d) instruction
    marginals in H's eigenbasis, by one density-matrix einsum per observable."""
    _, b, d, _ = states.shape
    marginals = np.reshape(marginals, (-1, b, d, d))
    w, v = schedule.hamiltonian.eig

    def expect(op, rho):
        return np.einsum("ij,...ji->...", op, rho).real

    energies = expect(np.diag(w), states)
    variances = expect(np.diag(w * w), states[:-1]) - energies[:-1] ** 2
    fids = np.clip(expect(v.conj().T @ schedule.hamiltonian.ground_projector @ v, states), 0.0, 1.0)
    instr_energies = expect(np.diag(w), marginals)
    paulis = (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
    bloch = np.stack([expect(v.conj().T @ p @ v, states) for p in paulis], -1) if d == 2 else np.empty((0, b, 3))
    copies = copies_accounting(schedule)["inputs_total"] if schedule.m else schedule.k + 1
    e, var, f, traj, instr = (
        np.moveaxis(x, 1, 0).reshape(shape + x.shape[:1] + x.shape[2:])
        for x in (energies, variances, fids, bloch, instr_energies)
    )
    return CoolingRecord(e, var, f, copies, traj, instr)


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
        em = qmath.herm_expm(h, -1j * t)
        sig = depolarize(em @ data @ em.conj().T, p1)
        u = qmath.herm_expm(qmath.swap_operator(2), 1j * t / m)
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
    tiled over the angles, one table entry per batch entry: the oracle of the
    table built once per distinct step size."""
    s = check_step_sizes(s_values)
    thetas = np.asarray(theta, dtype=float)
    w = HamiltonianSpec.default_single_qubit().eig[0]
    table = dbac._step_table(np.tile(s.ravel(), thetas.size), m, w)
    energies = dbac._final_energies(np.atleast_1d(thetas), k, table, mode)
    return ((1.0 - energies) / 2.0).reshape(thetas.shape + s.shape)


def plain_basin(k, m, f_target, mode):
    """The basin bisection with one full-grid probe per decision, as it ran
    before witness entries: the oracle of basin_min_fidelity."""
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


def dme_step_marginals(rho, sigma, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The marginals of U (rho (x) sigma) U^dag with U = exp(-i delta SWAP),
    for registers of any one dimension d: of the data ``sigma``, then of the
    instruction ``rho``."""
    d = np.shape(rho)[0]
    u = qmath.herm_expm(qmath.swap_operator(d), -1j * delta)
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


def dme_error(rho, sigma, t: float, m: int) -> float:
    """The trace distance of the m-step Trotter state from the exact conjugation."""
    return trace_distance(trotter_state(rho, sigma, t, m), exact_conjugation(rho, sigma, t))


def gate_matrix(g: circuits.Gate) -> np.ndarray:
    """The unitary of one gate, from the program's gate table (the tests check
    the table against exponentials on its own); a barrier has none."""
    return circuits._gate_matrices([g])[0]


def loop_unitary(c: circuits.Circuit) -> np.ndarray:
    """The ordered product of the gate unitaries, one gate at a time."""
    u = np.eye(2**c.num_qubits, dtype=complex)
    for g in c.unitary_gates:
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
    return sum(k @ rho @ k.conj().T for k in kraus)


def unitary_channel(u):
    return lambda rho: u @ rho @ u.conj().T


def _dense_noise(rho, noise, qubits, n):
    """Depolarize the gate's qubits as a Pauli twirl, then damp each of them."""
    p = noise.p2 if len(qubits) == 2 else noise.p1
    paulis = [qmath.embed_gate(pauli_matrix(lb), qubits, n) for lb in pauli_labels(len(qubits))]
    out = (1 - p) * rho + p * apply_kraus(rho, paulis) / len(paulis)
    if noise.t1_us is not None:
        dt = tomography.GATE_TIME_2Q_US if len(qubits) == 2 else tomography.GATE_TIME_1Q_US
        kraus = tomography._damping_kraus(noise, dt)
        for q in qubits:
            out = apply_kraus(out, [qmath.embed_gate(k, (q,), n) for k in kraus])
    return out


def dense_channel(c: circuits.Circuit, noise=None):
    """Apply every gate, then its noise, to the probe as dense matrices."""
    n = c.num_qubits

    def ch(rho):
        out = rho
        for g in c.gates:
            if g.kind == "BARRIER":
                continue
            out = apply_kraus(out, [qmath.embed_gate(gate_matrix(g), g.qubits, n)])
            if noise is not None and noise.enabled:
                out = _dense_noise(out, noise, g.qubits, n)
        return out

    return ch


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
