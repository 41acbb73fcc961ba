import numpy as np
import pytest

from dbac_lab import qmath
from dbac_lab.errors import ContractViolationError, DimensionMismatchError

from conftest import random_density, random_unitary

I2, X, Y, Z = qmath.I2, qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z


class TestKron:
    def test_identity(self):
        assert np.array_equal(qmath.kron(I2, I2), np.eye(4))

    def test_diagonal_paulis(self):
        assert np.array_equal(qmath.kron(Z, Z), np.diag([1, -1, -1, 1.0]))

    def test_xx_squared_is_identity(self):
        xx = qmath.kron(X, X)
        assert np.abs(xx @ xx - np.eye(4)).max() == 0

    def test_associative_exact_on_structured_entries(self):
        # products of 0, +/-1, +/-i entries are exact in floating point
        left = qmath.kron(qmath.kron(X, Y), Z)
        right = qmath.kron(X, qmath.kron(Y, Z))
        assert np.array_equal(left, right)

    def test_associative_random(self, rng):
        a = random_density(rng)
        b = random_density(rng, 4)
        c = random_density(rng)
        left = qmath.kron(qmath.kron(a, b), c)
        right = qmath.kron(a, qmath.kron(b, c))
        assert np.allclose(left, right, rtol=1e-14, atol=1e-17)

    def test_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            qmath.kron(np.array([[np.nan, 0], [0, 1]]), I2)


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        part = qmath.QubitPartition.qubits(2, keep=[1])
        out = qmath.partial_trace(np.kron(rho, sigma), part)
        assert np.abs(out - sigma).max() < 1e-14

    def test_swap_conjugation(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        s = qmath.swap_operator(2)
        m = s @ np.kron(sigma, rho) @ s
        out = qmath.partial_trace(m, qmath.QubitPartition.qubits(2, keep=[1]))
        assert np.abs(out - sigma).max() < 1e-14

    def test_bell_state_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = qmath.partial_trace(rho, qmath.QubitPartition.qubits(2, keep=[0]))
        assert np.abs(out - I2 / 2).max() < 1e-15

    def test_trace_preserving(self, rng):
        m = random_density(rng, 8)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            out = qmath.partial_trace(m, qmath.QubitPartition.qubits(3, keep=keep))
            assert abs(np.trace(out) - np.trace(m)) < 1e-13

    def test_three_qubit_ordering(self, rng):
        mats = [random_density(rng) for _ in range(3)]
        full = qmath.kron_all(mats)
        out = qmath.partial_trace(full, qmath.QubitPartition.qubits(3, keep=[0, 2]))
        assert np.abs(out - np.kron(mats[0], mats[2])).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(np.eye(8), qmath.QubitPartition.qubits(2, keep=[0]))

    def test_keep_all_rejected(self):
        with pytest.raises(ContractViolationError):
            qmath.QubitPartition.qubits(2, keep=[0, 1])


class TestHermExpm:
    def test_zero_scale(self):
        assert np.abs(qmath.herm_expm(Z, 0) - I2).max() < 1e-15

    def test_diagonal_closed_form(self):
        out = qmath.herm_expm(Z, -1j * np.pi / 2)
        assert np.abs(out - np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])).max() < 1e-14

    def test_swap_closed_form(self):
        # exp(-i delta SWAP) = cos(delta) I - i sin(delta) SWAP
        delta = 0.37
        s = qmath.swap_operator(2)
        out = qmath.herm_expm(s, -1j * delta)
        assert np.abs(out - (np.cos(delta) * np.eye(4) - 1j * np.sin(delta) * s)).max() < 1e-14

    def test_unitary_inverse_pairs(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = 0.5 * (a + a.conj().T)
            t = rng.uniform(-np.pi, np.pi)
            u = qmath.herm_expm(h, -1j * t) @ qmath.herm_expm(h, 1j * t)
            assert np.abs(u - np.eye(4)).max() < 1e-11

    def test_imaginary_scale_is_unitary(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = 0.5 * (a + a.conj().T)
        u = qmath.herm_expm(h, -0.7j)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            qmath.herm_expm(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestDistUpToGlobalPhase:
    def test_self_distance_zero(self, rng):
        u = random_unitary(rng, 4)
        assert qmath.dist_up_to_global_phase(u, u) < 1e-12

    def test_global_phase_removed(self, rng):
        u = random_unitary(rng, 4)
        assert qmath.dist_up_to_global_phase(u, np.exp(1j * np.pi / 7) * u) < 1e-12

    def test_identity_vs_x_maximal(self):
        assert abs(qmath.dist_up_to_global_phase(I2, X) - 2.0) < 1e-12

    def test_symmetric(self, rng):
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        assert abs(qmath.dist_up_to_global_phase(u, v) - qmath.dist_up_to_global_phase(v, u)) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            u, v, w = (random_unitary(rng, 4) for _ in range(3))
            duv = qmath.dist_up_to_global_phase(u, v)
            duw = qmath.dist_up_to_global_phase(u, w)
            dwv = qmath.dist_up_to_global_phase(w, v)
            assert duv <= duw + dwv + 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractViolationError):
            qmath.dist_up_to_global_phase(2 * I2, I2)

    def test_matches_trace_closed_form(self, rng):
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        t = np.trace(u.conj().T @ v)
        expected = np.sqrt(max(0.0, 2 * 4 - 2 * abs(t)))
        assert abs(qmath.dist_up_to_global_phase(u, v) - expected) < 1e-10


class TestTraceDistance:
    def test_zero_on_equal(self, rng):
        rho = random_density(rng)
        assert qmath.trace_distance(rho, rho) == 0

    def test_orthogonal_pure_states(self):
        assert abs(qmath.trace_distance(np.diag([1, 0.0]), np.diag([0, 1.0])) - 1.0) < 1e-15

    def test_rejects_non_matrices_and_non_finite(self):
        with pytest.raises(ContractViolationError):
            qmath.trace_distance(np.ones(2), np.ones(2))
        with pytest.raises(ContractViolationError):
            qmath.trace_distance(np.diag([np.nan, 1.0]), np.eye(2))
        with pytest.raises(ContractViolationError, match="Hermitian"):
            qmath.trace_distance(np.array([[0.5, 1e-6], [0.0, 0.5]]), np.eye(2) / 2)


class TestEmbedGate:
    def _oracle(self, gate, qubits, n):
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

    @pytest.mark.parametrize("n,qubits", [(2, (0,)), (2, (1, 0)), (3, (2,)), (3, (0, 2)), (4, (3, 1))])
    def test_against_index_oracle(self, rng, n, qubits):
        dim = 2 ** len(qubits)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.abs(qmath.embed_gate(g, qubits, n) - self._oracle(g, qubits, n)).max() < 1e-14
