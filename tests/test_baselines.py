import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbac_lab import cli, qmath
from dbac_lab.baselines import (
    cem_round_closed,
    cem_round_simulated,
    hbac_round_closed,
    mixedness_of,
    ppa_round,
    target_polarization,
    thermal_qubit,
)
from dbac_lab.errors import ContractViolationError, DimensionMismatchError
from dbac_lab.states import DensityMatrix, PureState, check_density, pseudo_pure, rx_init

from conftest import random_unitary
from oracles import hbac_round_dense, tol


def _product_register(*eps):
    return DensityMatrix(qmath.kron_all([thermal_qubit(e).matrix for e in eps]))


class TestThermalQubit:
    def test_full_polarization(self):
        assert np.allclose(thermal_qubit(1.0).matrix, np.diag([1.0, 0.0]))

    def test_zero_polarization(self):
        assert np.allclose(thermal_qubit(0.0).matrix, np.eye(2) / 2)

    def test_formula(self):
        assert np.allclose(thermal_qubit(0.3).matrix, np.diag([0.65, 0.35]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractViolationError):
            thermal_qubit(1.2)


class TestPpaRound:
    def test_zero_polarization_stays_zero(self):
        out = ppa_round(_product_register(0.0, 0.0, 0.0))
        assert abs(target_polarization(out)) < 1e-14

    def test_pure_ground_unchanged(self):
        out = ppa_round(_product_register(1.0, 1.0, 1.0))
        assert abs(target_polarization(out) - 1.0) < 1e-13

    def test_small_polarization_gain(self):
        eps = 1e-3
        out = ppa_round(_product_register(eps, eps, eps))
        assert abs(target_polarization(out) / eps - 1.5) < 1e-4

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
    def test_equal_bias_closed_form(self, eps):
        out = ppa_round(_product_register(eps, eps, eps))
        assert target_polarization(out) == pytest.approx((3 * eps - eps**3) / 2, abs=1e-13)

    def test_distinct_bias_closed_form(self):
        a, b, c = 0.2, 0.05, 0.11
        out = ppa_round(_product_register(a, b, c))
        assert target_polarization(out) == pytest.approx((a + b + c - a * b * c) / 2, abs=1e-13)

    def test_unitary_spectrum_preserved(self, rng):
        reg = _product_register(0.3, 0.1, 0.25)
        out = ppa_round(reg)
        before = np.sort(np.linalg.eigvalsh(reg.matrix))
        after = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.abs(before - after).max() < 1e-11

    def test_polarization_never_decreases_for_equal_bias(self):
        for eps in np.linspace(0, 1, 21):
            out = ppa_round(_product_register(eps, eps, eps))
            assert target_polarization(out) >= eps - 1e-12

    def test_dimension_checked(self):
        with pytest.raises(Exception):
            ppa_round(DensityMatrix(np.eye(4) / 4))


POLARIZATIONS = st.floats(-1.0, 1.0)


def _rounds(eps0, eps_bath, rounds, step=hbac_round_closed):
    """Target polarizations of a bath-coupled run, as `baselines` iterates
    them: round 1 compresses three eps0 qubits, each later round the target
    and two qubits reset to the bath."""
    eps = [eps0]
    for r in range(rounds):
        bath = eps0 if r == 0 else eps_bath
        eps.append(step(eps[-1], bath, bath))
    return eps


class TestHbacStep:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(eps=st.tuples(POLARIZATIONS, POLARIZATIONS, POLARIZATIONS))
    def test_closed_form_matches_dense_round(self, eps):
        assert abs(hbac_round_closed(*eps) - hbac_round_dense(*eps)) < tol("hbac_round_closed", "hbac_round_dense")

    def test_all_zero_forever(self):
        assert _rounds(0.0, 0.0, 4) == [0.0] * 5

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(eb=POLARIZATIONS)
    def test_rounds_monotone_and_bounded(self, eb):
        # from 0 toward the limit and never past it, to the last bit's wobble there
        eps = np.array(_rounds(0.0, eb, 60))
        assert (np.sign(eb) * np.diff(eps) >= -1e-15).all()
        assert (np.abs(eps) <= abs(2 * eb / (1 + eb * eb)) + 1e-15).all()
        dense = _rounds(0.0, eb, 12, hbac_round_dense)
        assert np.abs(eps[:13] - dense).max() < tol("hbac_round_closed", "hbac_round_dense")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(eb=POLARIZATIONS)
    def test_steady_state_fixed_point(self, eb):
        # target polarization 2 eb / (1 + eb^2) is invariant under another round
        steady = 2 * eb / (1 + eb * eb)
        assert hbac_round_closed(steady, eb, eb) == pytest.approx(steady, abs=1e-15)
        assert abs(hbac_round_dense(steady, eb, eb) - steady) <= tol("hbac steady state", "hbac_round_dense")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(eb=POLARIZATIONS)
    def test_converges_to_steady_state(self, eb):
        # the asymptotic 3-qubit limit of Rodriguez-Briones and Laflamme, PRL 116, 170501 (2016)
        assert _rounds(0.0, eb, 60)[-1] == pytest.approx(2 * eb / (1 + eb * eb), abs=1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(eps=POLARIZATIONS)
    def test_exact_halving_with_a_cold_bath(self, eps):
        assert hbac_round_closed(eps, 0.0, 0.0) == eps / 2

    @pytest.mark.parametrize("eps_t,eps_b", [(0.0, 0.1), (0.1, 0.1), (0.15, 0.3), (0.4, 0.5)])
    def test_never_decreases_when_bath_at_least_target(self, eps_t, eps_b):
        out = hbac_round_closed(eps_t, eps_b, eps_b)
        assert out >= eps_t - 1e-12
        assert abs(out - hbac_round_dense(eps_t, eps_b, eps_b)) < tol("hbac_round_closed", "hbac_round_dense")

    @pytest.mark.parametrize("eps", [(1.2, 0.1, 0.1), (0.1, -1.5, 0.1), (0.1, 0.1, np.nan)])
    def test_polarizations_checked(self, eps):
        with pytest.raises(ContractViolationError, match="polarization must lie in"):
            hbac_round_closed(*eps)

    def test_baselines_run_builds_no_density_matrix(self, tmp_path, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("a dense register was built")

        monkeypatch.setattr(DensityMatrix, "__post_init__", dense)
        cfg = cli.validate_config(None, experiment="baselines", out_override=tmp_path / "out")
        rows = cli._run_baselines(cfg)["baselines.csv"][1]
        monkeypatch.undo()
        got = [value for _, protocol, _, value in rows if protocol == "hbac"]
        want = _rounds(cfg.eps0, cfg.eps_bath, cfg.rounds, hbac_round_dense)
        assert len(got) == cfg.rounds + 1
        assert np.abs(np.subtract(got, want)).max() < tol("hbac_round_closed", "hbac_round_dense")


class TestCemClosed:
    def test_pure_input(self):
        out = cem_round_closed(0.0)
        assert out == {"x_next": 0.0, "p_success": 1.0}

    def test_half_mixedness(self):
        out = cem_round_closed(0.5)
        assert out["x_next"] == pytest.approx(0.3846153846, abs=1e-10)
        assert out["p_success"] == pytest.approx(0.8125, abs=1e-15)

    def test_small_x_halves(self):
        for x in (1e-3, 1e-5):
            assert cem_round_closed(x)["x_next"] / x == pytest.approx(0.5, abs=2 * x)

    def test_strict_decrease(self):
        for x in np.linspace(0.01, 0.99, 40):
            assert cem_round_closed(x)["x_next"] < x

    def test_domain_checked(self):
        with pytest.raises(ContractViolationError):
            cem_round_closed(1.0)


class TestCemSimulated:
    def _state(self, x, psi=None):
        psi = psi or PureState.from_vector(np.array([0.6, 0.8j]))
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        return DensityMatrix((1.0 - x) * proj + 0.5 * x * qmath.I2)

    def test_pure_state_passes_through(self):
        psi = rx_init(1.1)
        out = cem_round_simulated(psi.density())
        assert out["p_success"] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out["rho_next"] - psi.density().matrix).max() < 1e-12

    def test_maximally_mixed_boundary(self):
        out = cem_round_simulated(DensityMatrix(np.eye(2) / 2))
        assert out["p_success"] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("x", np.arange(0.1, 0.95, 0.1))
    def test_agrees_with_closed_form(self, x):
        x = float(round(x, 10))
        closed = cem_round_closed(x)
        sim = cem_round_simulated(self._state(x))
        assert abs(mixedness_of(sim["rho_next"]) - closed["x_next"]) < 1e-12
        assert abs(sim["p_success"] - closed["p_success"]) < 1e-12

    def test_failure_branch_weight(self):
        for x in (0.2, 0.6, 0.9):
            sim = cem_round_simulated(self._state(x))
            assert 1 - sim["p_success"] == pytest.approx((2 * x - x * x) / 4, abs=1e-12)

    def test_output_commutes_with_input(self):
        rho = self._state(0.4)
        out = cem_round_simulated(rho)["rho_next"]
        comm = rho.matrix @ out - out @ rho.matrix
        assert np.abs(comm).max() < 1e-11

    def test_pure_part_preserved(self, rng):
        psi = PureState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        rho = self._state(0.3, psi)
        out = cem_round_simulated(rho)["rho_next"]
        # dominant eigenvector of the output is still psi
        w, v = np.linalg.eigh(out)
        top = v[:, np.argmax(w)]
        assert abs(np.vdot(top, psi.amplitudes)) ** 2 > 1 - 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, np.pi)), min_size=1, max_size=8))
    def test_stack_matches_one_state_calls(self, draws):
        states = [pseudo_pure(p, rx_init(theta)) for p, theta in draws]
        stacked = cem_round_simulated(np.array([rho.matrix for rho in states]))
        assert stacked["rho_next"].shape == (len(states), 2, 2) and stacked["p_success"].shape == (len(states),)
        check_density(stacked["rho_next"])
        x_stacked = mixedness_of(stacked["rho_next"])
        for i, rho in enumerate(states):
            one = cem_round_simulated(rho)
            assert np.array_equal(stacked["rho_next"][i], one["rho_next"])
            assert stacked["p_success"][i] == one["p_success"]
            assert x_stacked[i] == mixedness_of(one["rho_next"])

    def test_input_validated(self):
        with pytest.raises(DimensionMismatchError):
            cem_round_simulated(np.eye(4) / 4)
        with pytest.raises(ContractViolationError, match="negative eigenvalue"):
            cem_round_simulated(np.array([np.eye(2) / 2, np.diag([1.5, -0.5])]))


class TestCoherentVsMixednessContrast:
    def test_unitary_cooling_leaves_mixedness_untouched(self, rng):
        # conjugating a pseudo-pure state by the cooling step moves the pure
        # part only: the mixing weight p is invariant, unlike the two-copy round
        p = 0.3
        psi = rx_init(1.3)
        u = random_unitary(rng)  # any unitary keeps the identity part fixed
        before = pseudo_pure(p, psi)
        after = DensityMatrix(u @ before.matrix @ u.conj().T)
        target = pseudo_pure(p, PureState.from_vector(u @ psi.amplitudes))
        assert np.abs(after.matrix - target.matrix).max() < 1e-13
        assert mixedness_of(after) == pytest.approx(mixedness_of(before), abs=1e-12)
        # while the interferential round strictly reduces mixedness
        reduced = cem_round_simulated(before)["rho_next"]
        assert mixedness_of(reduced) < mixedness_of(before) - 1e-3
