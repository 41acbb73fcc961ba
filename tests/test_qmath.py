import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbac_lab import qmath
from dbac_lab.errors import ContractViolationError, DimensionMismatchError

from conftest import random_density, random_unitary
from oracles import embed_gate_by_index, tol

I2, X, Y, Z = qmath.I2, qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z


class TestKron:
    def test_identity(self):
        assert np.array_equal(qmath.kron_all([I2, I2]), np.eye(4))

    def test_diagonal_paulis(self):
        assert np.array_equal(qmath.kron_all([Z, Z]), np.diag([1, -1, -1, 1.0]))

    def test_xx_squared_is_identity(self):
        xx = qmath.kron_all([X, X])
        assert np.abs(xx @ xx - np.eye(4)).max() == 0

    def test_associative_exact_on_structured_entries(self):
        # products of 0, +/-1, +/-i entries are exact in floating point
        left = qmath.kron_all([X, Y, Z])
        right = np.kron(X, np.kron(Y, Z))
        assert np.array_equal(left, right)

    def test_associative_random(self, rng):
        a = random_density(rng)
        b = random_density(rng, 4)
        c = random_density(rng)
        left = qmath.kron_all([a, b, c])
        right = np.kron(a, np.kron(b, c))
        assert np.allclose(left, right, rtol=1e-14, atol=1e-17)

    def test_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            qmath.kron_all([np.array([[np.nan, 0], [0, 1]]), I2])


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        part = qmath.QubitPartition((2, 2), keep=(1,))
        out = qmath.partial_trace(np.kron(rho, sigma), part)
        assert np.abs(out - sigma).max() < 1e-14

    def test_swap_conjugation(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        s = qmath.swap_operator(2)
        m = s @ np.kron(sigma, rho) @ s
        out = qmath.partial_trace(m, qmath.QubitPartition((2, 2), keep=(1,)))
        assert np.abs(out - sigma).max() < 1e-14

    def test_bell_state_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = qmath.partial_trace(rho, qmath.QubitPartition((2, 2), keep=(0,)))
        assert np.abs(out - I2 / 2).max() < 1e-15

    def test_trace_preserving(self, rng):
        m = random_density(rng, 8)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            out = qmath.partial_trace(m, qmath.QubitPartition((2, 2, 2), keep=keep))
            assert abs(np.trace(out) - np.trace(m)) < 1e-13

    def test_three_qubit_ordering(self, rng):
        mats = [random_density(rng) for _ in range(3)]
        full = qmath.kron_all(mats)
        out = qmath.partial_trace(full, qmath.QubitPartition((2, 2, 2), keep=(0, 2)))
        assert np.abs(out - np.kron(mats[0], mats[2])).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(np.eye(8), qmath.QubitPartition((2, 2), keep=(0,)))

    def test_keep_all_rejected(self):
        with pytest.raises(ContractViolationError):
            qmath.QubitPartition((2, 2), keep=(0, 1))


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


@st.composite
def unitary_stacks(draw):
    """Two (B, d, d) stacks of unitaries, d in 2..8 and B in 1..20, slice by
    slice a random pair, a copy rotated by a global phase, or the identity
    against the cyclic shift, whose Tr[u^dag v] is exactly 0."""
    d, b = draw(st.integers(2, 8)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = (np.array([random_unitary(rng, d) for _ in range(b)]) for _ in range(2))
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["pair", "phase", "traceless"]), min_size=b, max_size=b))):
        if kind == "phase":
            v[i] = np.exp(1j * rng.uniform(-np.pi, np.pi)) * u[i]
        elif kind == "traceless":
            u[i], v[i] = np.eye(d), np.roll(np.eye(d), 1, axis=0)
    return u, v


class TestStackedDist:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(pair=unitary_stacks())
    def test_equals_scalar_call_per_slice(self, pair):
        u, v = pair
        got = qmath.dist_up_to_global_phase(u, v)
        assert isinstance(got, np.ndarray) and got.shape == (len(u),)
        scalar = [qmath.dist_up_to_global_phase(a, b) for a, b in zip(u, v)]
        assert all(type(x) is float for x in scalar)
        assert np.abs(got - scalar).max() <= 1e-15

    def test_traceless_slice_keeps_its_distance(self):
        # no phase aligns I with the shift: the distance is the plain norm sqrt(2d)
        d = 5
        got = qmath.dist_up_to_global_phase(np.eye(d)[None], np.roll(np.eye(d), 1, axis=0)[None])
        assert got.tolist() == [np.sqrt(2 * d)]

    def test_non_unitary_slice_rejected(self, rng):
        u = np.array([random_unitary(rng, 4) for _ in range(5)])
        bad = u.copy()
        bad[3] *= 1.01
        for a, b in ((bad, u), (u, bad)):
            with pytest.raises(ContractViolationError):
                qmath.dist_up_to_global_phase(a, b)

    @pytest.mark.parametrize("shapes", [((3, 2, 2), (4, 2, 2)), ((3, 2, 2), (3, 4, 4)), ((2, 2), (1, 2, 2))])
    def test_mismatched_stacks_rejected(self, shapes):
        a, b = (np.broadcast_to(np.eye(s[-1]), s) for s in shapes)
        with pytest.raises(DimensionMismatchError):
            qmath.dist_up_to_global_phase(a, b)

    def test_strided_inputs_accepted(self, rng):
        # a transpose or a broadcast view is validated as its copy is
        u = random_unitary(rng, 4)
        assert qmath.dist_up_to_global_phase(u.T, np.ascontiguousarray(u.T)) < 1e-15
        assert qmath.dist_up_to_global_phase(np.broadcast_to(u, (3, 4, 4)), np.array([u] * 3)).max() < 1e-15

    def test_stacks_of_any_batch_shape(self, rng):
        u = np.array([random_unitary(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        got = qmath.dist_up_to_global_phase(u, 1j * u)
        assert got.shape == (2, 3) and got.max() < 1e-15
        assert qmath.check_unitary(u).shape == (2, 3, 2, 2)


class TestEmbedGate:
    @pytest.mark.parametrize("n,qubits", [(2, (0,)), (2, (1, 0)), (3, (2,)), (3, (0, 2)), (4, (3, 1))])
    def test_against_index_oracle(self, rng, n, qubits):
        dim = 2 ** len(qubits)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        want = embed_gate_by_index(g, qubits, n)
        assert np.abs(qmath.embed_gate(g, qubits, n) - want).max() < tol("embed_gate", "embed_gate_by_index")

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
    def test_stack_against_index_oracle(self, rng, n, k):
        # every ordered qubit tuple, reversed ones included, slice by slice
        dim = 2**k
        for qubits in itertools.permutations(range(n), k):
            gates = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
            got = qmath.embed_gate(gates, qubits, n)
            assert got.shape == (2, 2**n, 2**n)
            for g, u in zip(gates, got):
                assert np.abs(u - embed_gate_by_index(g, qubits, n)).max() < tol("embed_gate", "embed_gate_by_index")

    @pytest.mark.parametrize(
        "single, stack, qubits, error, message",
        [
            ([[1, np.nan], [0, 1]], [np.eye(2), [[1, np.nan], [0, 1]]], (0,), ContractViolationError, "NaN or Inf"),
            ([[1, 0], [np.inf, 1]], [[[1, 0], [np.inf, 1]], np.eye(2)], (1,), ContractViolationError, "NaN or Inf"),
            (np.eye(4), [np.eye(4)] * 3, (0,), DimensionMismatchError, "gate dimension"),
            (np.eye(2), [np.eye(2)] * 3, (0, 1), DimensionMismatchError, "gate dimension"),
            # a stack of ndim 4 is rejected as a vector is
            (np.ones(2), np.ones((2, 1, 2, 2)), (0,), ContractViolationError, "expected a matrix"),
        ],
        ids=["nan", "inf", "gate_too_big", "gate_too_small", "ndim"],
    )
    def test_stack_rejected_like_single(self, single, stack, qubits, error, message):
        for gate in (single, stack):
            with pytest.raises(error, match=message):
                qmath.embed_gate(gate, qubits, 2)
