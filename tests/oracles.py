"""Dense brute-force references that the package's batched and closed-form
paths are checked against: each computes its quantity by the definition, on
dense matrices, one point at a time.  The program calls none of them.  The
paper's recursive unitary synthesis (:func:`synthesize_uk`) is the oracle of
the exact chain, the imaginary-time flow it simulates (:func:`ite_evolve`) that
of one exact step, and the cooling circuit layouts (:func:`build_circuit`) the
gate-level oracle of the DME simulation.  The recursive bisection midpoints
(:func:`midpoints`) and the row-by-row CSV writer (:func:`render_rows`) are
the plain forms of two faster program paths.

Every numeric comparison of a program path with one of them reads its
tolerance from TOLERANCES, through :func:`tol`, next to the reason the two may
differ."""

import numpy as np

from dbac_lab import circuits, dbac, qmath, tomography
from dbac_lab.baselines import ppa_round, target_polarization, thermal_qubit
from dbac_lab.dbac import CoolingRecord, check_step_sizes
from dbac_lab.dme import bloch_planes, partial_swap, swap_operands
from dbac_lab.states import DensityMatrix, HamiltonianSpec, PureState
from dbac_lab.tomography import PTM, pauli_labels, pauli_matrix

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
    "the same chain by dense unitary products; worst measured 1.1e-13 in final energy"
    " (60 random H of 1 to 3 qubits, 3 steps, s in [0.01, 0.3])"
)
SEARCHED = (
    "in ground fidelity: the search's Bloch planes and chain law against the record engines' closed-form"
    " swaps and state vectors; worst measured 2.7e-15 with exact reflectors (fresh, k = 11) and 5.6e-16"
    " at finite depth, over the 100 derandomized examples of k M <= 16 that compare them"
)
IMAGINARY = (
    "per s^2: a step of duration sqrt(s) and imaginary time s both descend by 2 s V0 to first order;"
    " worst measured 2.41 (H = -Z at theta = 2.0, where the limit (1 - E0^2)(3 E0 + 5/3) peaks),"
    " 1.31 on random 2- and 3-qubit H with eigenvalues in [-1, 1]"
)

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
    ("_search_pass_z exact", "_exact_steps"): (1e-11, COMPOUNDED),
    ("_exact_steps perturbed", "_exact_steps"): (1e-13, CHAOTIC),
    ("final_fidelities_over_s", "tiled_table_fidelities"): (0.0, EXACT),
    ("final_fidelities_over_s", "dbac_via_dme and dbac_recursive_exact"): (1e-12, SEARCHED),
    ("_final_energies", "search_loop"): (0.0, SAME_OPS),
    ("_final_energies exact fresh", "search_exact_loop"): (0.0, SAME_OPS),
    ("_rx_planes", "bloch_planes of _rx_init"): (0.0, SPLIT),
    ("basin_min_fidelity", "plain_basin"): (0.0, EXACT),
    ("_midpoints", "midpoints"): (0.0, EXACT),
    ("partial_swap", "dme_step_exact"): (1e-12, ORDER),
    ("partial_swap_power", "partial_swap loop"): (1e-13, ORDER),
    ("partial swaps at the swap point", "the instruction"): (1e-15, ORDER),
    ("partial_swap_power one copy", "dme_step_exact"): (1e-14, ORDER),
    ("partial_swap_power", "trotter_state"): (1e-12, ORDER),
    ("dme_errors", "dme_error"): (1e-13, ORDER),
    ("dme_errors deep", "dme_error"): (1e-12, COMPOUNDED),
    ("dme_errors 10^6", "dme_errors 10^9"): (1e-5, LAW),
    ("dme_errors 4096", "dme_errors 10^9"): (1e-3, LAW),
    ("dme_errors reference", "exact_conjugation"): (1e-14, ORDER),
    ("HamiltonianSpec.eig", "expm_series"): (1e-12, SQUARED),
    ("dbac_recursive_exact chain", "synthesize_uk"): (1e-12, SYNTHESIZED),
    ("dbac_recursive_exact one step", "ite_evolve"): (3.0, IMAGINARY),
    ("dbac_via_dme", "layout_energy"): (1e-12, ORDER),
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
    em = expm(h or HamiltonianSpec.default_single_qubit(), -1j * t)  # exp(+i t H) is its adjoint
    v = em.conj().T @ reflector(psi, t) @ em @ (target or psi).amplitudes
    return PureState(v / np.linalg.norm(v))


def dense_descent_bound_residual(h: HamiltonianSpec, psi: PureState, s: float) -> float:
    """(E1 - E0 + 2 s V0) / s^2 for one dense step of duration sqrt(s)."""
    e1 = energy(dbac_step_exact(psi, float(np.sqrt(s)), h), h)
    return (e1 - energy(psi, h) + 2.0 * s * variance(psi, h)) / s**2


def recursive_exact(psi: PureState, schedule, h: HamiltonianSpec | None = None):
    """The exact chain of ``schedule`` under H (default -Z), one dense step at
    a time: energies and, for a qubit, trajectory."""
    h = h or HamiltonianSpec.default_single_qubit()
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
    w, v = (h or HamiltonianSpec.default_single_qubit()).eig

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
    tiled over the angles, one table entry per batch entry: the oracle of the
    table built once per distinct step size."""
    s = check_step_sizes(s_values)
    thetas = np.asarray(theta, dtype=float)
    w = HamiltonianSpec.default_single_qubit().eig[0]
    table = dbac._step_table(np.tile(s.ravel(), thetas.size), m, w)
    energies = dbac._final_energies(np.atleast_1d(thetas), k, table, mode)
    return ((1.0 - energies) / 2.0).reshape(thetas.shape + s.shape)


def search_loop(thetas, k, table, mode, counts=None):
    """dbac._final_energies at finite depth by its earlier loop: the initial
    planes from the complex outer product of dbac._rx_init's amplitudes, each
    step's instruction rotated into the data's frame as a stacked array, and
    M whole partial_swap outputs per step, of which only the last one's z is
    read.  The oracle of the pass that computes only that z."""
    reps = table.cos_phi.size // thetas.size if counts is None else counts
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
    w = HamiltonianSpec.default_single_qubit().eig[0]
    e = 0.5 * (w[0] + w[1]) + 0.5 * (w[0] - w[1]) * out[2]
    return e.reshape(thetas.size, -1) if counts is None else e


def search_exact_loop(thetas, k, table, counts=None):
    """dbac._final_energies with exact reflectors in fresh recursion, plane by
    plane: each step rotates the previous output a into the data's frame,
    rotates the initial planes b by -s about it (the reflector exp(is|a><a|)),
    cos s b + (1 - cos s)(a.b) a - sin s a x b, and rescales the result to
    unit length.  The oracle of the search's exact pass."""
    reps = table.cos_phi.size // thetas.size if counts is None else counts
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
    w = HamiltonianSpec.default_single_qubit().eig[0]
    e = 0.5 * (w[0] + w[1]) + 0.5 * (w[0] - w[1]) * out[2]
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
            out = apply_kraus(out, [qmath.embed_gate(gate_matrix(g), g.qubits, n)])
            if noise is not None and noise.enabled:
                out = _dense_noise(out, noise, g.qubits, n)
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
