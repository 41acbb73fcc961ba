import numpy as np
import pytest

from dbac_lab import qmath
from dbac_lab.errors import ContractViolationError, DegenerateInputError, DimensionMismatchError
from dbac_lab.states import (
    BlochVector,
    DensityMatrix,
    HamiltonianSpec,
    PureState,
    bloch_vector,
    check_density,
    energy,
    excess_energy,
    fidelity,
    ite_evolve,
    pseudo_pure,
    rx_init,
)

from conftest import random_unitary

H = HamiltonianSpec.default_single_qubit()


class TestRxInit:
    def test_theta_zero_is_ground(self):
        assert np.abs(rx_init(0).amplitudes - [1, 0]).max() < 1e-15

    def test_theta_pi_is_excited_up_to_phase(self):
        amp = rx_init(np.pi).amplitudes
        assert abs(amp[0]) < 1e-15 and abs(abs(amp[1]) - 1) < 1e-15

    def test_half_pi_bloch(self):
        b = bloch_vector(rx_init(np.pi / 2))
        assert np.allclose(b, (0.0, -1.0, 0.0), atol=1e-12)
        assert abs(energy(rx_init(np.pi / 2), H)) < 1e-12


class TestEnergy:
    def test_ground(self):
        assert energy(PureState.basis(0), H) == -1

    def test_excited(self):
        assert energy(PureState.basis(1), H) == 1

    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 9))
    def test_rx_family(self, theta):
        assert abs(energy(rx_init(theta), H) - (-np.cos(theta))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            energy(PureState.basis(0, num_qubits=2), H)


class TestFidelity:
    def test_matching(self):
        assert fidelity(PureState.basis(0), PureState.basis(0)) == 1

    def test_orthogonal(self):
        assert fidelity(PureState.basis(0), PureState.basis(1)) == 0

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    def test_rx_overlap(self, theta):
        assert abs(fidelity(PureState.basis(0), rx_init(theta)) - np.cos(theta / 2) ** 2) < 1e-12

    def test_pure_mixed(self):
        rho = pseudo_pure(0.4, PureState.basis(0))
        assert abs(fidelity(PureState.basis(0), rho) - (0.2 + 0.6)) < 1e-12


class TestPseudoPure:
    def test_p_zero_is_projector(self):
        psi = rx_init(0.7)
        rho = pseudo_pure(0.0, psi)
        assert np.abs(rho.matrix - np.outer(psi.amplitudes, psi.amplitudes.conj())).max() < 1e-15

    def test_p_one_is_maximally_mixed(self):
        assert np.abs(pseudo_pure(1.0, rx_init(1.3)).matrix - qmath.I2 / 2).max() < 1e-15

    def test_half_on_ground(self):
        assert np.allclose(pseudo_pure(0.5, PureState.basis(0)).matrix, np.diag([0.75, 0.25]))

    def test_purity_formula(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            rho = pseudo_pure(p, rx_init(0.9))
            assert abs(rho.purity() - (1 - p + p * p / 2)) < 1e-12

    def test_commutes_with_unitary_conjugation(self, rng):
        p = 0.35
        psi = rx_init(1.2)
        u = random_unitary(rng)
        lhs = u @ pseudo_pure(p, psi).matrix @ u.conj().T
        rhs = pseudo_pure(p, PureState.from_vector(u @ psi.amplitudes)).matrix
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_rejects_bad_p(self):
        with pytest.raises(ContractViolationError):
            pseudo_pure(1.5, PureState.basis(0))


class TestIteEvolve:
    def test_tau_zero_identity(self):
        psi = rx_init(0.8)
        assert np.abs(ite_evolve(psi, 0.0).amplitudes - psi.amplitudes).max() < 1e-15

    def test_ground_fixed_point(self):
        out = ite_evolve(PureState.basis(0), 3.7)
        assert fidelity(out, PureState.basis(0)) > 1 - 1e-14

    def test_converges_to_known_fidelity(self):
        # F0 = 1/2, tau = 2: fidelity 1/(1 + e^{-8})
        out = ite_evolve(rx_init(np.pi / 2), 2.0)
        assert abs(fidelity(PureState.basis(0), out) - 1 / (1 + np.exp(-8))) < 1e-12

    def test_energy_monotone_in_tau(self):
        psi = rx_init(2.6)
        taus = np.linspace(0, 4, 41)
        energies = [energy(ite_evolve(psi, t), H) for t in taus]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))

    @pytest.mark.parametrize("theta,tau", [(0.5, 0.2), (1.8, 1.0), (2.9, 2.5)])
    def test_energy_matches_excess_energy(self, theta, tau):
        f0 = np.cos(theta / 2) ** 2
        eps = excess_energy(f0, tau)
        expected = -1 + 2 * eps / (1 + eps)
        assert abs(energy(ite_evolve(rx_init(theta), tau), H) - expected) < 1e-10

    def test_long_time_limit_reaches_ground(self):
        assert abs(energy(ite_evolve(rx_init(3.0), 10.0), H) + 1.0) < 1e-10

    def test_initial_energy_relation(self):
        # E0 = 1 - 2 F0 for every single-qubit pure state
        for theta in (0.4, 1.3, 2.8):
            psi = rx_init(theta)
            f0 = fidelity(PureState.basis(0), psi)
            assert abs(energy(psi, H) - (1 - 2 * f0)) < 1e-12

    def test_excited_eigenstate_underflows(self):
        with pytest.raises(DegenerateInputError):
            ite_evolve(PureState.basis(1), 200.0)


class TestExcessEnergy:
    def test_perfect_overlap(self):
        for tau in (0.0, 1.0, 7.0):
            assert excess_energy(1.0, tau) == 0

    def test_half_overlap_at_zero(self):
        assert excess_energy(0.5, 0.0) == 1

    def test_half_overlap_quarter_tau(self):
        assert abs(excess_energy(0.5, 0.25) - np.exp(-1)) < 1e-15

    def test_rejects_zero_overlap(self):
        with pytest.raises(DegenerateInputError):
            excess_energy(0.0, 1.0)


class TestBlochVector:
    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.2, np.pi])
    def test_pure_states_on_sphere(self, theta):
        assert abs(bloch_vector(rx_init(theta)).norm() - 1.0) < 1e-9

    def test_pseudo_pure_inside_sphere(self):
        b = bloch_vector(pseudo_pure(0.3, rx_init(1.0)))
        assert b.norm() < 1.0 - 1e-3

    def test_norm_bounded(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = bloch_vector(PureState.from_vector(v))
            assert b.norm() <= 1 + 1e-10


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

    def test_bloch_is_namedtuple(self):
        b = BlochVector(0.0, 0.0, 1.0)
        assert b.z == 1.0 and b.norm() == 1.0


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


class TestHamiltonianEigensystem:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_expm_matches_herm_expm(self, rng, dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = HamiltonianSpec(0.5 * (a + a.conj().T))
        for scale in (-0.7j, 1.3j, -0.4, 2.0 - 0.5j):
            assert np.abs(h.expm(scale) - qmath.herm_expm(h.matrix, scale)).max() < 1e-12

    def test_ground_projector_spans_degenerate_ground_space(self):
        u = random_unitary(np.random.default_rng(7), 4)
        h = HamiltonianSpec(u @ np.diag([-1.0, -1.0, 0.0, 2.0]) @ u.conj().T)
        ground = u[:, :2]
        assert np.abs(h.ground_projector - ground @ ground.conj().T).max() < 1e-12

    def test_default_is_one_shared_read_only_instance(self):
        h = HamiltonianSpec.default_single_qubit()
        assert h is HamiltonianSpec.default_single_qubit()
        for arr in (h.matrix, *h.eig, h.ground_projector):
            assert not arr.flags.writeable
        assert np.array_equal(h.ground_projector, np.diag([1.0, 0.0]))
