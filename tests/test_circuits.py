import numpy as np
import pytest

from dbac_lab import qmath
from dbac_lab.circuits import (
    DBAC_NUM_QUBITS,
    DBAC_TARGET_QUBIT,
    GATE_KINDS,
    Circuit,
    Gate,
    SizzleParams,
    build_circuit,
    circuit_unitary,
    compile_cnot,
    compile_cz,
    compile_swap3,
    compile_udme_hs,
    compile_udme_native,
    embedded_gates,
    gate_matrix,
    perturb_rzz,
    rzz_matrix,
    sizzle_zz_rate,
)
from dbac_lab.dbac import DbacSchedule, dbac_energy_analytic, dbac_via_dme
from dbac_lab.errors import ContractViolationError, SingularParameterError
from dbac_lab.states import HamiltonianSpec

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
H1 = HamiltonianSpec.default_single_qubit()


def _dbac_circuit_energy(which, theta, phi, delta_phi=0.0):
    c = build_circuit(which, theta, phi)
    if delta_phi:
        c = perturb_rzz(c, delta_phi)
    u = circuit_unitary(c)
    state = np.zeros(2**c.num_qubits, dtype=complex)
    state[0] = 1.0
    out = u @ state
    rho = np.outer(out, out.conj())
    red = qmath.partial_trace(
        rho, qmath.QubitPartition.qubits(c.num_qubits, keep=[DBAC_TARGET_QUBIT[which]])
    )
    return float(np.trace(H1.matrix @ red).real)


class TestCircuitUnitary:
    def test_empty_circuit(self):
        assert np.array_equal(circuit_unitary(Circuit(2, ())), np.eye(4))

    def test_rzz_pi_values(self):
        u = circuit_unitary(Circuit(2, (Gate("RZZ", (np.pi,), (0, 1)),)))
        assert np.abs(u - np.diag([-1j, 1j, 1j, -1j])).max() < 1e-15

    def test_rzz_matches_expm(self):
        for phi in (0.3, -1.1, 2.9):
            target = qmath.herm_expm(np.kron(qmath.PAULI_Z, qmath.PAULI_Z), -1j * phi / 2)
            assert np.abs(rzz_matrix(phi) - target).max() < 1e-14

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rzz_rejects_non_finite_angle(self, phi):
        with pytest.raises(ContractViolationError, match="gate angles must be finite"):
            rzz_matrix(phi)

    def test_barrier_has_no_effect(self):
        with_barrier = Circuit(2, (Gate("H", (), (0,)), Gate("BARRIER"), Gate("H", (), (1,))))
        without = Circuit(2, (Gate("H", (), (0,)), Gate("H", (), (1,))))
        assert np.array_equal(circuit_unitary(with_barrier), circuit_unitary(without))

    def test_gate_order_is_application_order(self):
        c = Circuit(1, (Gate("H", (), (0,)), Gate("S", (), (0,))))
        expected = gate_matrix(Gate("S", (), (0,))) @ gate_matrix(Gate("H", (), (0,)))
        assert np.abs(circuit_unitary(c) - expected).max() < 1e-15

    def test_compiled_circuits_are_unitary(self):
        for c in (compile_udme_native(0.7), compile_udme_hs(-0.4), compile_cz(), build_circuit("C", 1.0)):
            u = circuit_unitary(c)
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-11


class TestUdmeCompilation:
    def test_phi_zero_is_identity(self):
        for compiled in (compile_udme_native(0.0), compile_udme_hs(0.0)):
            assert qmath.dist_up_to_global_phase(circuit_unitary(compiled), np.eye(4)) < 1e-12

    def test_half_pi_is_swap(self):
        for compiled in (compile_udme_native(np.pi / 2), compile_udme_hs(np.pi / 2)):
            assert qmath.dist_up_to_global_phase(circuit_unitary(compiled), qmath.swap_operator(2)) < 1e-10

    @pytest.mark.parametrize("phi", [np.pi / 8, np.pi / 4, np.pi / 2, -0.9, 2.2])
    def test_matches_partial_swap_exactly(self, phi):
        target = qmath.herm_expm(qmath.swap_operator(2), -1j * phi)
        assert qmath.dist_up_to_global_phase(circuit_unitary(compile_udme_native(phi)), target) < 1e-10
        assert qmath.dist_up_to_global_phase(circuit_unitary(compile_udme_hs(phi)), target) < 1e-10

    def test_both_routes_agree(self, rng):
        for _ in range(50):
            phi = rng.uniform(-np.pi, np.pi)
            d = qmath.dist_up_to_global_phase(
                circuit_unitary(compile_udme_native(phi)), circuit_unitary(compile_udme_hs(phi))
            )
            assert d < 1e-10

    def test_heisenberg_form(self):
        # equals exp(-i (phi/2)(XX + YY + ZZ)) up to phase
        phi = 0.63
        gen = sum(np.kron(p, p) for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z))
        target = qmath.herm_expm(gen, -1j * phi / 2)
        assert qmath.dist_up_to_global_phase(circuit_unitary(compile_udme_native(phi)), target) < 1e-10


class TestTableConstructions:
    def test_cz(self):
        assert qmath.dist_up_to_global_phase(circuit_unitary(compile_cz()), CZ) < 1e-10

    def test_cnot(self):
        assert qmath.dist_up_to_global_phase(circuit_unitary(compile_cnot()), CNOT) < 1e-10

    def test_cnot_squared_identity(self):
        u = circuit_unitary(compile_cnot())
        assert qmath.dist_up_to_global_phase(u @ u, np.eye(4)) < 1e-10

    def test_swap3_on_basis_state(self):
        u = circuit_unitary(compile_swap3())
        out = u @ np.array([0, 1, 0, 0], dtype=complex)
        assert abs(abs(out[2]) - 1) < 1e-12

    def test_swap3_equals_udme_half_pi(self):
        d = qmath.dist_up_to_global_phase(
            circuit_unitary(compile_swap3()), circuit_unitary(compile_udme_native(np.pi / 2))
        )
        assert d < 1e-10


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
            circuit_unitary(perturb_rzz(c, np.pi)), circuit_unitary(c)
        )
        assert d > 0.1

    def test_pi_shift_of_full_compilation_is_global_phase(self):
        # the three pi-shifted RZZ blocks compose to -i times the identity,
        # so the compiled partial swap survives a pi shift up to phase
        c = compile_udme_native(np.pi / 4)
        d = qmath.dist_up_to_global_phase(
            circuit_unitary(perturb_rzz(c, np.pi)), circuit_unitary(c)
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
        stack, groups = embedded_gates(self.GATES, 3)
        assert stack.shape == (len(self.GATES), 8, 8)
        for g, got in zip(self.GATES, stack):
            assert np.array_equal(got, qmath.embed_gate(gate_matrix(g), g.qubits, 3))
        assert groups == {
            q: [i for i, g in enumerate(self.GATES) if g.qubits == q] for q in {g.qubits for g in self.GATES}
        }

    @pytest.mark.parametrize("kind", sorted(set(GATE_KINDS) - {"BARRIER"}))
    def test_one_gate_of_each_kind(self, kind):
        g = next(g for g in self.GATES if g.kind == kind)
        stack, groups = embedded_gates([g], 3)
        assert np.array_equal(stack[0], qmath.embed_gate(gate_matrix(g), g.qubits, 3))
        assert groups == {g.qubits: [0]}

    def test_no_gates(self):
        stack, groups = embedded_gates([], 2)
        assert stack.shape == (0, 4, 4) and groups == {}

    def test_barrier_has_no_unitary(self):
        with pytest.raises(ContractViolationError, match="no unitary"):
            embedded_gates([Gate("H", (), (0,)), Gate("BARRIER")], 1)
