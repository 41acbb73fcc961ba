import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbac_lab import qmath
from dbac_lab.circuits import (
    DBAC_NUM_QUBITS,
    DBAC_TARGET_QUBIT,
    GATE_KINDS,
    Circuit,
    Gate,
    SizzleParams,
    build_circuit,
    circuit_unitaries,
    compose,
    compile_cnot,
    compile_cz,
    compile_swap3,
    compile_udme_hs,
    compile_udme_native,
    embedded_gates,
    partial_swap_unitaries,
    perturb_rzz,
    sizzle_zz_rate,
)
from dbac_lab.dbac import DbacSchedule, dbac_energy_analytic, dbac_via_dme
from dbac_lab.errors import ContractViolationError, DimensionMismatchError, SingularParameterError
from dbac_lab.states import HamiltonianSpec

from conftest import random_unitary
from oracles import agrees, gate_matrix, loop_unitary

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
H1 = HamiltonianSpec.default_single_qubit()


def unitary(c):
    return circuit_unitaries([c])[0]


def _dbac_circuit_energy(which, theta, phi, delta_phi=0.0):
    c = build_circuit(which, theta, phi)
    if delta_phi:
        c = perturb_rzz(c, delta_phi)
    u = unitary(c)
    state = np.zeros(2**c.num_qubits, dtype=complex)
    state[0] = 1.0
    out = u @ state
    # the target's reduced state: its amplitudes against the rest of the register
    amps = np.moveaxis(out.reshape((2,) * c.num_qubits), DBAC_TARGET_QUBIT[which], 0).reshape(2, -1)
    red = amps @ amps.conj().T
    return float(np.trace(H1.matrix @ red).real)


class TestCircuitUnitary:
    def test_empty_circuit(self):
        assert np.array_equal(unitary(Circuit(2, ())), np.eye(4))

    def test_rzz_pi_values(self):
        u = unitary(Circuit(2, (Gate("RZZ", (np.pi,), (0, 1)),)))
        assert np.abs(u - np.diag([-1j, 1j, 1j, -1j])).max() < 1e-15

    def test_rzz_matches_expm(self):
        for phi in (0.3, -1.1, 2.9):
            target = qmath.herm_expm(np.kron(qmath.PAULI_Z, qmath.PAULI_Z), -1j * phi / 2)
            assert np.abs(gate_matrix(Gate("RZZ", (phi,), (0, 1))) - target).max() < 1e-14

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rzz_rejects_non_finite_angle(self, phi):
        with pytest.raises(ContractViolationError, match="gate angles must be finite"):
            gate_matrix(Gate("RZZ", (phi,), (0, 1)))

    def test_barrier_has_no_effect(self):
        with_barrier = Circuit(2, (Gate("H", (), (0,)), Gate("BARRIER"), Gate("H", (), (1,))))
        without = Circuit(2, (Gate("H", (), (0,)), Gate("H", (), (1,))))
        assert np.array_equal(unitary(with_barrier), unitary(without))

    def test_gate_order_is_application_order(self):
        c = Circuit(1, (Gate("H", (), (0,)), Gate("S", (), (0,))))
        expected = gate_matrix(Gate("S", (), (0,))) @ gate_matrix(Gate("H", (), (0,)))
        assert agrees(unitary(c), expected, "circuit_unitaries", "loop_unitary")

    def test_compiled_circuits_are_unitary(self):
        for c in (compile_udme_native(0.7), compile_udme_hs(-0.4), compile_cz(), build_circuit("C", 1.0)):
            u = unitary(c)
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-11


class TestUdmeCompilation:
    def test_phi_zero_is_identity(self):
        for compiled in (compile_udme_native(0.0), compile_udme_hs(0.0)):
            assert qmath.dist_up_to_global_phase(unitary(compiled), np.eye(4)) < 1e-12

    def test_half_pi_is_swap(self):
        for compiled in (compile_udme_native(np.pi / 2), compile_udme_hs(np.pi / 2)):
            assert qmath.dist_up_to_global_phase(unitary(compiled), qmath.swap_operator(2)) < 1e-10

    @pytest.mark.parametrize("phi", [np.pi / 8, np.pi / 4, np.pi / 2, -0.9, 2.2])
    def test_matches_partial_swap_exactly(self, phi):
        target = qmath.herm_expm(qmath.swap_operator(2), -1j * phi)
        assert qmath.dist_up_to_global_phase(unitary(compile_udme_native(phi)), target) < 1e-10
        assert qmath.dist_up_to_global_phase(unitary(compile_udme_hs(phi)), target) < 1e-10

    def test_both_routes_agree(self, rng):
        for _ in range(50):
            phi = rng.uniform(-np.pi, np.pi)
            d = qmath.dist_up_to_global_phase(
                unitary(compile_udme_native(phi)), unitary(compile_udme_hs(phi))
            )
            assert d < 1e-10

    def test_heisenberg_form(self):
        # equals exp(-i (phi/2)(XX + YY + ZZ)) up to phase
        phi = 0.63
        gen = sum(np.kron(p, p) for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z))
        target = qmath.herm_expm(gen, -1j * phi / 2)
        assert qmath.dist_up_to_global_phase(unitary(compile_udme_native(phi)), target) < 1e-10


class TestTableConstructions:
    def test_cz(self):
        assert qmath.dist_up_to_global_phase(unitary(compile_cz()), CZ) < 1e-10

    def test_cnot(self):
        assert qmath.dist_up_to_global_phase(unitary(compile_cnot()), CNOT) < 1e-10

    def test_cnot_squared_identity(self):
        u = unitary(compile_cnot())
        assert qmath.dist_up_to_global_phase(u @ u, np.eye(4)) < 1e-10

    def test_swap3_on_basis_state(self):
        u = unitary(compile_swap3())
        out = u @ np.array([0, 1, 0, 0], dtype=complex)
        assert abs(abs(out[2]) - 1) < 1e-12

    def test_swap3_equals_udme_half_pi(self):
        d = qmath.dist_up_to_global_phase(
            unitary(compile_swap3()), unitary(compile_udme_native(np.pi / 2))
        )
        assert d < 1e-10


# The gate sequences each circuit must emit, word by word: KIND(angle)wires,
# "|" for a barrier.
# NATIVE is the RX/RY partial swap on the wires filled into {0} and {1}.
NATIVE = (
    "RZZ(ph){0}{1} RX(pi/2){0} RX(pi/2){1} RZZ(ph){0}{1} RX(-pi/2){0} RX(-pi/2){1} "
    "RY(pi/2){0} RY(pi/2){1} RZZ(ph){0}{1} RY(-pi/2){0} RY(-pi/2){1}"
)
SEQUENCES = {
    "native": NATIVE.format(0, 1),
    "hs": "RZZ(ph)01 SDG0 SDG1 H0 H1 RZZ(ph)01 H0 H1 S0 S1 H0 H1 RZZ(ph)01 H0 H1",
    "A": "RX(th)0 RX(th)1 | RZ(echo)1 " + NATIVE.format(0, 1),
    "B": "RX(th)0 RX(th)1 RX(th)2 | RZ(echo)0 RZ(echo)2 " + NATIVE.format(0, 1) + " " + NATIVE.format(1, 2),
    "C": (
        "RX(th)0 RX(th)1 RX(th)2 RX(th)3 | RZ(echo)0 RZ(echo)3 " + NATIVE.format(0, 1) + " "
        + NATIVE.format(2, 3) + " | RZ(echo)2 " + NATIVE.format(1, 2)
    ),
    "cz": "RZZ(pi/2)01 RZ(2pi)0 SDG0 RZ(2pi)1 SDG1",
    "cnot": "H1 RZZ(pi/2)01 RZ(2pi)0 SDG0 RZ(2pi)1 SDG1 H1",
    "swap3": (
        "H1 RZZ(pi/2)01 RZ(2pi)0 SDG0 RZ(2pi)1 SDG1 H1 H0 RZZ(pi/2)10 RZ(2pi)1 SDG1 RZ(2pi)0 SDG0 H0 "
        "H1 RZZ(pi/2)01 RZ(2pi)0 SDG0 RZ(2pi)1 SDG1 H1"
    ),
}


def words(c, **named):
    """The gates of c as the words of SEQUENCES, each angle written by its
    name: those passed in, then pi/2, -pi/2 and 2pi (every angle must have one)."""
    names = {np.pi / 2: "pi/2", -np.pi / 2: "-pi/2", 2 * np.pi: "2pi", **{v: k for k, v in named.items()}}
    return " ".join(
        "|" if g.kind == "BARRIER" else g.kind + "".join(f"({names[p]})" for p in g.params) + "".join(map(str, g.qubits))
        for g in c.gates
    )


class TestGateSequences:
    # angles that differ from each other, from every echo angle and from +-pi/2
    PAIRS = [(0.3, 0.6), (2.1, -0.7), (-1.3, 1.9)]

    @pytest.mark.parametrize("theta, phi", PAIRS)
    @pytest.mark.parametrize("which", "ABC")
    def test_layouts(self, which, theta, phi):
        # the echo is RZ(-2t) for the step duration t, two partial swaps long in B
        echo = -2 * ((2 if which == "B" else 1) * phi)
        assert words(build_circuit(which, theta, phi), th=theta, ph=phi, echo=echo) == SEQUENCES[which]

    @pytest.mark.parametrize("theta, phi", PAIRS)
    def test_partial_swap_compilations(self, theta, phi):
        assert words(compile_udme_native(phi), ph=phi) == SEQUENCES["native"]
        assert words(compile_udme_hs(phi), ph=phi) == SEQUENCES["hs"]

    def test_table_constructions(self):
        for compile_table, key in ((compile_cz, "cz"), (compile_cnot, "cnot"), (compile_swap3, "swap3")):
            assert words(compile_table()) == SEQUENCES[key]

    @pytest.mark.parametrize("compile_udme, fixed", [(compile_udme_hs, 12), (compile_udme_native, 8)])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_compilations_share_their_basis_changes(self, compile_udme, fixed, k):
        # one RZZ object per angle in all three blocks; the basis-change gates
        # are built once and shared by every compilation
        batch = [compile_udme(phi) for phi in np.linspace(-1.0, 1.0, k)]
        assert all(len({id(g) for g in c.gates if g.kind == "RZZ"}) == 1 for c in batch)
        stack, _, _ = embedded_gates(batch)
        assert len(stack) == k + fixed


class TestBuildCircuit:
    def test_wire_counts(self):
        assert build_circuit("A", 0.5).num_qubits == DBAC_NUM_QUBITS["A"] == 2
        assert build_circuit("B", 0.5, np.pi / 8).num_qubits == DBAC_NUM_QUBITS["B"] == 3
        assert build_circuit("C", 0.5).num_qubits == DBAC_NUM_QUBITS["C"] == 4

    def test_unknown_label(self):
        with pytest.raises(ContractViolationError):
            build_circuit("D", 0.5)

    def test_ground_input_stays_cold(self):
        assert abs(_dbac_circuit_energy("A", 0.0, np.pi / 4) + 1.0) < 1e-12

    def test_cooling_direction_at_small_angle(self):
        for which, phi in (("A", np.pi / 4), ("B", np.pi / 8), ("C", np.pi / 4)):
            theta = 0.4
            assert _dbac_circuit_energy(which, theta, phi) < -np.cos(theta)

    @pytest.mark.parametrize("theta", np.linspace(0.1, np.pi - 0.1, 7))
    def test_circuit_a_matches_simulator(self, theta):
        sim = dbac_via_dme(theta, DbacSchedule.uniform(1, np.pi / 4, m=1)).energies[-1]
        assert abs(_dbac_circuit_energy("A", theta, np.pi / 4) - sim) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.4])
    def test_circuit_b_matches_simulator(self, theta):
        sim = dbac_via_dme(theta, DbacSchedule.uniform(1, np.pi / 4, m=2)).energies[-1]
        assert abs(_dbac_circuit_energy("B", theta, np.pi / 8) - sim) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.4])
    def test_circuit_c_matches_simulator(self, theta):
        sim = dbac_via_dme(theta, DbacSchedule.uniform(2, np.pi / 4, m=1)).energies[-1]
        assert abs(_dbac_circuit_energy("C", theta, np.pi / 4) - sim) < 1e-12

    def test_circuit_a_within_one_step_error_of_law(self):
        # exact-reflector energy vs single partial-swap realization
        for theta in (0.5, 1.2, 2.0):
            analytic = dbac_energy_analytic(-np.cos(theta), np.pi / 4)
            circ = _dbac_circuit_energy("A", theta, np.pi / 4)
            assert abs(circ - analytic) <= 2 * (np.pi / 4) ** 2


class TestPerturbRzz:
    def test_zero_shift_identical(self):
        c = build_circuit("A", 1.0)
        assert perturb_rzz(c, 0.0) == c

    def test_inverse_composition(self):
        c = build_circuit("B", 0.7, np.pi / 8)
        assert perturb_rzz(perturb_rzz(c, 0.13), -0.13) == c

    def test_small_shift_small_energy_change(self):
        e0 = _dbac_circuit_energy("A", 1.0, np.pi / 4)
        for delta in (1e-3, 5e-4):
            assert abs(_dbac_circuit_energy("A", 1.0, np.pi / 4, delta) - e0) <= delta

    def test_pi_shift_breaks_equivalence(self):
        c = Circuit(2, (Gate("RZZ", (np.pi / 4,), (0, 1)),))
        d = qmath.dist_up_to_global_phase(
            unitary(perturb_rzz(c, np.pi)), unitary(c)
        )
        assert d > 0.1

    def test_pi_shift_of_full_compilation_is_global_phase(self):
        # the three pi-shifted RZZ blocks compose to -i times the identity,
        # so the compiled partial swap survives a pi shift up to phase
        c = compile_udme_native(np.pi / 4)
        d = qmath.dist_up_to_global_phase(
            unitary(perturb_rzz(c, np.pi)), unitary(c)
        )
        assert d < 1e-10

    def test_only_rzz_angles_change(self):
        c = build_circuit("A", 1.0)
        shifted = perturb_rzz(c, 0.2)
        for g0, g1 in zip(c.gates, shifted.gates):
            if g0.kind == "RZZ":
                assert g1.params[0] == pytest.approx(g0.params[0] + 0.2)
            else:
                assert g0 == g1


class TestGateValidation:
    def test_rzz_needs_two_distinct_qubits(self):
        with pytest.raises(ContractViolationError):
            Gate("RZZ", (0.5,), (1, 1))

    def test_qubit_range_checked(self):
        with pytest.raises(ContractViolationError):
            Circuit(2, (Gate("H", (), (2,)),))

    def test_unknown_kind(self):
        with pytest.raises(ContractViolationError):
            Gate("T", (), (0,))


class TestSizzle:
    def _params(self, **kw):
        base = dict(
            j=1.0, alpha0=-0.2, alpha1=-0.21, omega0=0.5, omega1=0.5,
            delta0d=1.0, delta1d=1.1, phi0=0.3, phi1=0.3, delta_ij=0.05,
        )
        base.update(kw)
        return SizzleParams(**base)

    def test_no_drive_gives_static_rate(self):
        p = self._params()
        static = sizzle_zz_rate(self._params(omega0=0.0))
        expected = -2 * p.j**2 * (p.alpha0 + p.alpha1) / ((p.delta_ij + p.alpha0) * (p.alpha1 - p.delta_ij))
        assert static == pytest.approx(expected)

    def test_quadrature_phase_gives_static_rate(self):
        static = sizzle_zz_rate(self._params(omega0=0.0))
        quad = sizzle_zz_rate(self._params(phi0=0.3 + np.pi / 2))
        assert quad == pytest.approx(static, abs=1e-12)

    def test_drive_term_flips_sign_with_phase(self):
        static = sizzle_zz_rate(self._params(omega0=0.0))
        plus = sizzle_zz_rate(self._params()) - static
        minus = sizzle_zz_rate(self._params(phi0=0.3 + np.pi)) - static
        assert plus == pytest.approx(-minus, rel=1e-12)
        assert plus != 0

    def test_singular_denominator_rejected(self):
        with pytest.raises(SingularParameterError):
            self._params(delta0d=0.0)
        with pytest.raises(SingularParameterError):
            self._params(delta_ij=-0.21)  # alpha1 - delta_ij vanishes


class TestEmbeddedGates:
    # every kind with a unitary, on several qubit sets of a 3-qubit register,
    # several gates per kind and per qubit set, in interleaved order
    GATES = [
        Gate("RX", (0.3,), (0,)), Gate("RZZ", (0.7,), (2, 0)), Gate("H", (), (1,)),
        Gate("RY", (-1.1,), (2,)), Gate("RZ", (2.2,), (0,)), Gate("S", (), (1,)),
        Gate("SDG", (), (2,)), Gate("RZZ", (-0.4,), (0, 1)), Gate("RX", (-2.5,), (2,)),
        Gate("RZ", (0.0,), (1,)), Gate("RZZ", (1e-9,), (2, 0)), Gate("RY", (3.0,), (0,)),
        Gate("H", (), (0,)), Gate("S", (), (1,)),
    ]

    def test_matches_embedding_each_gate(self):
        assert {g.kind for g in self.GATES} == set(GATE_KINDS) - {"BARRIER"}
        stack, groups, take = embedded_gates([Circuit(3, self.GATES)])
        assert stack.shape == (len(self.GATES), 8, 8)
        for g, got in zip(self.GATES, stack):
            assert np.array_equal(got, qmath.embed_gate(gate_matrix(g), g.qubits, 3))
        assert groups == {
            q: [i for i, g in enumerate(self.GATES) if g.qubits == q] for q in {g.qubits for g in self.GATES}
        }
        assert take.tolist() == [list(range(len(self.GATES)))]

    @pytest.mark.parametrize("kind", sorted(set(GATE_KINDS) - {"BARRIER"}))
    def test_one_gate_of_each_kind(self, kind):
        g = next(g for g in self.GATES if g.kind == kind)
        stack, groups, take = embedded_gates([Circuit(3, (g,))])
        assert np.array_equal(stack[0], qmath.embed_gate(gate_matrix(g), g.qubits, 3))
        assert groups == {g.qubits: [0]} and take.tolist() == [[0]]

    def test_no_gates(self):
        stack, groups, take = embedded_gates([Circuit(2, ()), Circuit(2, (Gate("BARRIER"),))])
        assert stack.shape == (0, 4, 4) and groups == {} and take.shape == (2, 0)

    def test_barrier_has_no_unitary(self):
        with pytest.raises(ContractViolationError, match="no unitary"):
            gate_matrix(Gate("BARRIER"))
        stack, _, take = embedded_gates([Circuit(1, (Gate("H", (), (0,)), Gate("BARRIER")))])
        assert len(stack) == 1 and take.tolist() == [[0]]

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolationError):
            embedded_gates([])

    def test_register_sizes_must_match(self):
        with pytest.raises(DimensionMismatchError):
            embedded_gates([compile_cz(), Circuit(3, ())])

    def test_gate_objects_embedded_once_and_padded_before_first_gate(self):
        # compiled partial swaps share their 8 basis-change gates and repeat one
        # RZZ object; an equal gate that is another object is embedded on its own
        batch = [compile_udme_native(0.3), compile_udme_native(0.9), compile_cz(), Circuit(2, ())]
        stack, _, take = embedded_gates(batch)
        assert len(stack) == 1 + 8 + 1 + 5 and take.shape == (4, 11)
        assert take[0].tolist() == [0, 1, 2, 0, 3, 4, 5, 6, 0, 7, 8]
        assert take[1].tolist() == [9, 1, 2, 9, 3, 4, 5, 6, 9, 7, 8]
        assert take[2].tolist() == [15] * 6 + list(range(10, 15))
        assert take[3].tolist() == [15] * 11


class TestCompose:
    def test_ordered_product_with_identity_slot(self, rng):
        stack = np.array([random_unitary(rng, 2) for _ in range(3)])
        got = compose(stack, np.array([[1, 0, 2], [3, 3, 1], [3, 3, 3]]))
        assert np.array_equal(got[0], stack[2] @ (stack[0] @ (stack[1] @ np.eye(2))))
        assert np.array_equal(got[1], stack[1] @ np.eye(2)) and np.array_equal(got[2], np.eye(2))

    def test_no_positions_gives_identities(self):
        assert np.array_equal(compose(np.zeros((0, 4, 4)), np.zeros((2, 0), dtype=int)), np.eye(4)[None].repeat(2, 0))


ANGLES = st.floats(-2 * np.pi, 2 * np.pi)
LAYOUTS = {2: "A", 3: "B", 4: "C"}


@st.composite
def unitary_batches(draw):
    """One to eight circuits on one register of 2 to 4 qubits, at mixed
    depths: compiled native and H/S partial swaps at drawn angles, cz, cnot,
    swap3 (on wires 0 and 1), the cooling layout of that register size and the
    empty circuit."""
    n = draw(st.integers(2, 4))
    makers = (
        lambda: compile_udme_native(draw(ANGLES)),
        lambda: compile_udme_hs(draw(ANGLES)),
        compile_cz,
        compile_cnot,
        compile_swap3,
        lambda: build_circuit(LAYOUTS[n], draw(ANGLES), draw(ANGLES)),
        lambda: Circuit(n, ()),
    )
    picks = draw(st.lists(st.sampled_from(makers), min_size=1, max_size=8))
    return [Circuit(n, make().gates) for make in picks]


class TestCircuitUnitaries:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batch=unitary_batches())
    def test_batch_equals_gate_by_gate_loop(self, batch):
        got = circuit_unitaries(batch)
        assert got.shape == (len(batch),) + (2 ** batch[0].num_qubits,) * 2
        for c, u in zip(batch, got):
            assert agrees(u, loop_unitary(c), "circuit_unitaries", "loop_unitary")

    @pytest.mark.parametrize("phis", [[0.0], [0.0, np.pi / 8, np.pi / 4, np.pi / 2], [-0.7, 2.9, 1e-9, -3.1]])
    def test_partial_swaps_match_expm(self, phis):
        swap = qmath.swap_operator(2)
        for phi, u in zip(phis, partial_swap_unitaries(phis), strict=True):
            assert np.abs(u - qmath.herm_expm(swap, -1j * phi)).max() < 1e-15
