import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbac_lab import qmath
from dbac_lab.errors import ContractViolationError
from dbac_lab.dme import bloch_planes
from dbac_lab.states import (
    DensityMatrix,
    HamiltonianSpec,
    PureState,
    check_density,
    check_pure,
    pseudo_pure,
    random_density,
    rx_init,
)

from conftest import random_density as reference_density, random_unitary, verdict
from oracles import H, basis, density, energy, expm, fidelity, ground_projector, ite_evolve, pins


class TestRxInit:
    def test_theta_zero_is_ground(self):
        assert np.abs(rx_init(0).amplitudes - [1, 0]).max() < 1e-15

    def test_theta_pi_is_excited_up_to_phase(self):
        amp = rx_init(np.pi).amplitudes
        assert abs(amp[0]) < 1e-15 and abs(abs(amp[1]) - 1) < 1e-15

    def test_half_pi_bloch(self):
        b = bloch_planes(density(rx_init(np.pi / 2)))
        assert np.allclose(b, (0.0, -1.0, 0.0), atol=1e-12)
        assert abs(energy(rx_init(np.pi / 2), H)) < 1e-12


class TestEnergy:
    def test_ground(self):
        assert energy(basis(0), H) == -1

    def test_excited(self):
        assert energy(basis(1), H) == 1

    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 9))
    def test_rx_family(self, theta):
        assert abs(energy(rx_init(theta), H) - (-np.cos(theta))) < 1e-12


class TestFidelity:
    def test_matching(self):
        assert fidelity(basis(0), basis(0)) == 1

    def test_orthogonal(self):
        assert fidelity(basis(0), basis(1)) == 0

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    def test_rx_overlap(self, theta):
        assert abs(fidelity(basis(0), rx_init(theta)) - np.cos(theta / 2) ** 2) < 1e-12

    def test_pure_mixed(self):
        # <0| rho |0> of the pseudo-pure state around |0>: p/2 + (1 - p)
        rho = pseudo_pure(0.4, basis(0))
        assert abs(rho.matrix[0, 0].real - (0.2 + 0.6)) < 1e-12


def test_random_density_draws_as_the_test_helper():
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        rho = random_density(ours)
        assert np.array_equal(rho, reference_density(theirs))
        check_density(rho)
    assert ours.normal() == theirs.normal()


class TestPseudoPure:
    def test_p_zero_is_projector(self):
        psi = rx_init(0.7)
        rho = pseudo_pure(0.0, psi)
        assert np.abs(rho.matrix - np.outer(psi.amplitudes, psi.amplitudes.conj())).max() < 1e-15

    def test_p_one_is_maximally_mixed(self):
        assert np.abs(pseudo_pure(1.0, rx_init(1.3)).matrix - qmath.I2 / 2).max() < 1e-15

    def test_half_on_ground(self):
        assert np.allclose(pseudo_pure(0.5, basis(0)).matrix, np.diag([0.75, 0.25]))

    def test_purity_formula(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            rho = pseudo_pure(p, rx_init(0.9))
            assert abs(np.trace(rho.matrix @ rho.matrix).real - (1 - p + p * p / 2)) < 1e-12

    def test_commutes_with_unitary_conjugation(self, rng):
        p = 0.35
        psi = rx_init(1.2)
        u = random_unitary(rng)
        lhs = u @ pseudo_pure(p, psi).matrix @ u.conj().T
        rhs = pseudo_pure(p, PureState.from_vector(u @ psi.amplitudes)).matrix
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_rejects_bad_p(self):
        with pytest.raises(ContractViolationError):
            pseudo_pure(1.5, basis(0))


class TestIteEvolve:
    """The imaginary-time oracle against its single-qubit closed forms; test_dbac
    compares one exact cooling step with it."""

    def test_tau_zero_identity(self):
        psi = rx_init(0.8)
        assert np.abs(ite_evolve(psi, 0.0, H).amplitudes - psi.amplitudes).max() < 1e-15

    def test_ground_fixed_point(self):
        out = ite_evolve(basis(0), 3.7, H)
        assert fidelity(out, basis(0)) > 1 - 1e-14

    def test_converges_to_known_fidelity(self):
        # F0 = 1/2, tau = 2: fidelity 1/(1 + e^{-8})
        out = ite_evolve(rx_init(np.pi / 2), 2.0, H)
        assert abs(fidelity(basis(0), out) - 1 / (1 + np.exp(-8))) < 1e-12

    def test_energy_monotone_in_tau(self):
        psi = rx_init(2.6)
        taus = np.linspace(0, 4, 41)
        energies = [energy(ite_evolve(psi, t, H), H) for t in taus]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))

    @pytest.mark.parametrize("theta,tau", [(0.5, 0.2), (1.8, 1.0), (2.9, 2.5)])
    def test_energy_matches_excess_energy(self, theta, tau):
        # the excess eps = (1/F0 - 1) exp(-4 tau) gives E(tau) = -1 + 2 eps / (1 + eps)
        eps = (1.0 / np.cos(theta / 2) ** 2 - 1.0) * np.exp(-4.0 * tau)
        expected = -1 + 2 * eps / (1 + eps)
        assert abs(energy(ite_evolve(rx_init(theta), tau, H), H) - expected) < 1e-10

    def test_long_time_limit_reaches_ground(self):
        assert abs(energy(ite_evolve(rx_init(3.0), 10.0, H), H) + 1.0) < 1e-10

    def test_initial_energy_relation(self):
        # E0 = 1 - 2 F0 for every single-qubit pure state
        for theta in (0.4, 1.3, 2.8):
            psi = rx_init(theta)
            f0 = fidelity(basis(0), psi)
            assert abs(energy(psi, H) - (1 - 2 * f0)) < 1e-12


class TestBlochVector:
    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.2, np.pi])
    def test_pure_states_on_sphere(self, theta):
        assert abs(np.linalg.norm(bloch_planes(density(rx_init(theta)))) - 1.0) < 1e-9

    def test_pseudo_pure_inside_sphere(self):
        b = bloch_planes(pseudo_pure(0.3, rx_init(1.0)).matrix)
        assert np.linalg.norm(b) < 1.0 - 1e-3

    def test_norm_bounded(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = bloch_planes(density(PureState.from_vector(v)))
            assert np.linalg.norm(b) <= 1 + 1e-10

    test_planes_are_pauli_expectations = pins(("bloch_planes", "pauli_expectations"), "20 and one")


class TestValidation:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ContractViolationError):
            PureState(np.array([1.0, 1.0]))

    def test_density_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_hamiltonian_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            HamiltonianSpec(np.array([[0, 1], [0, 0]], dtype=complex))


class TestCheckDensity:
    GOOD = np.diag([0.7, 0.3]).astype(complex)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
            (np.diag([0.6, 0.6]), "trace differs from 1"),
            (np.diag([1.2, -0.2]), "negative eigenvalue"),
        ],
    )
    def test_batch_fails_like_a_single_matrix(self, bad, message):
        bad = bad.astype(complex)
        with pytest.raises(ContractViolationError, match=message):
            DensityMatrix(bad)
        with pytest.raises(ContractViolationError, match=message):
            check_density(np.stack([self.GOOD, bad, self.GOOD]))

    @pytest.mark.parametrize(
        "entry, value",
        [(None, np.nan), ((1, 0, 1), np.nan), ((2, 1, 0), complex(0.0, np.inf)), ((0, 0, 0), -np.inf)],
        ids=["all-nan", "one-nan", "imaginary-inf", "negative-inf"],
    )
    def test_rejects_non_finite_entries(self, entry, value):
        batch = np.stack([self.GOOD] * 3)
        if entry is None:
            batch[...] = value
        else:
            batch[entry] = value
        with pytest.raises(ContractViolationError, match="NaN or Inf"):
            check_density(batch)
        with pytest.raises(ContractViolationError, match="NaN or Inf"):
            check_density(batch[1 if entry is None else entry[0]])

    def test_returns_hermitian_part_of_every_entry(self):
        skew = np.array([[0.0, 1e-13j], [1e-13j, 0.0]])
        batch = np.stack([self.GOOD + skew, self.GOOD])
        out = check_density(batch)
        assert out.shape == batch.shape
        assert np.abs(out - np.conj(out).swapaxes(-1, -2)).max() == 0.0
        assert np.abs(out - self.GOOD).max() < 1e-16
        assert np.abs(DensityMatrix(batch[0]).matrix - out[0]).max() == 0.0

    def test_eigenvalue_bound_is_eig_tol(self):
        # EIG_TOL = 1e-10: a smallest eigenvalue of -0.5e-10 passes, and one of -1.5e-10 fails
        for lowest, message in ((-0.5e-10, None), (-1.5e-10, "density matrix has a negative eigenvalue")):
            assert verdict(check_density, np.diag([1.0 - lowest, lowest]).astype(complex)) == message


class TestCheckPure:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 4]),
        excess=st.lists(st.floats(-1e-11, 1e-11), min_size=3, max_size=3),
        bad=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 3), st.sampled_from([np.nan, np.inf, -np.inf, 1e200, 0.0])
            ),
            max_size=2,
        ),
        imaginary=st.booleans(),
    )
    @example(seed=0, dim=2, excess=[1e-11, 0.0, 0.0], bad=[], imaginary=False)
    @example(seed=1, dim=4, excess=[0.0] * 3, bad=[(2, 3, np.nan)], imaginary=True)
    def test_raises_exactly_when_the_matrix_check_does(self, seed, dim, excess, bad, imaginary):
        # |v|^2 within 1e-11 of 1 straddles the DM_TOL trace bound
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        v *= np.sqrt(1.0 + np.array(excess))[:, None] / np.linalg.norm(v, axis=1, keepdims=True)
        for i, j, value in bad:
            v[i, j % dim] = complex(0.0, value) if imaginary else value
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, and 1e200 squared
            matrices = v[:, :, None] * v.conj()[:, None, :]
            assert verdict(check_pure, v) == verdict(check_density, matrices)

    def test_trace_bound_is_dm_tol(self):
        # DM_TOL = 1e-11: |v|^2 = 1 + 0.5e-11 passes, and 1 + 1.5e-11 fails
        for excess, message in ((0.5e-11, None), (1.5e-11, "density matrix trace differs from 1")):
            assert verdict(check_pure, np.array([[np.sqrt(1.0 + excess), 0.0]], dtype=complex)) == message

    @pytest.mark.parametrize("dim", [2, 4])
    def test_empty_stack_passes_as_the_matrix_check_does(self, dim):
        v = np.empty((0, dim), dtype=complex)
        assert verdict(check_pure, v) == verdict(check_density, v[:, :, None] * v.conj()[:, None, :]) is None


class TestHamiltonianEigensystem:
    """The eigensystem checked through the tests' dense exponential built on it."""

    test_expm_matches_power_series = pins(("HamiltonianSpec.eig", "expm_series"), "scales")

    def test_expm_zero_scale(self):
        assert np.abs(expm(HamiltonianSpec(qmath.PAULI_Z), 0) - qmath.I2).max() < 1e-15

    def test_expm_diagonal_closed_form(self):
        out = expm(HamiltonianSpec(qmath.PAULI_Z), -1j * np.pi / 2)
        assert np.abs(out - np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])).max() < 1e-14

    def test_expm_swap_closed_form(self):
        # exp(-i delta SWAP) = cos(delta) I - i sin(delta) SWAP
        delta = 0.37
        s = qmath.swap_operator(2)
        out = expm(HamiltonianSpec(s), -1j * delta)
        assert np.abs(out - (np.cos(delta) * np.eye(4) - 1j * np.sin(delta) * s)).max() < 1e-14

    def test_expm_unitary_inverse_pairs(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = HamiltonianSpec(0.5 * (a + a.conj().T))
            t = rng.uniform(-np.pi, np.pi)
            assert np.abs(expm(h, -1j * t) @ expm(h, 1j * t) - np.eye(4)).max() < 1e-11

    def test_expm_imaginary_scale_is_unitary(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        u = expm(HamiltonianSpec(0.5 * (a + a.conj().T)), -0.7j)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_ground_projector_spans_degenerate_ground_space(self):
        u = random_unitary(np.random.default_rng(7), 4)
        h = HamiltonianSpec(u @ np.diag([-1.0, -1.0, 0.0, 2.0]) @ u.conj().T)
        ground = u[:, :2]
        assert np.abs(ground_projector(h) - ground @ ground.conj().T).max() < 1e-12

    def test_matrix_and_eigensystem_are_read_only(self):
        h = HamiltonianSpec(-qmath.PAULI_Z)
        assert h.eig is h.eig  # computed once
        for arr in (h.matrix, *h.eig):
            assert not arr.flags.writeable
