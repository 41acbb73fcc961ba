import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbac_lab import cli, dme, qmath
from dbac_lab.dme import (
    bloch_planes,
    density_matrices,
    dme_errors,
    dme_step_exact,
    exact_conjugation,
    partial_swap,
    reflector,
    swap_coefficients,
)
from dbac_lab.errors import ContractViolationError, DimensionMismatchError
from dbac_lab.states import PureState, rx_init

from conftest import random_density

GROUND = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
SEARCH_BATCH = 3142  # the batch the step-size search runs the kernel on
CRITERION_3_DEPTHS = [1, 2, 4, 8, 16, 32, 64]


def _trotter(rho, sigma, t, m):
    """The final state of one M-step Trotter circuit."""
    return dme._trotter(rho, sigma, t, np.array([m]))[0]


def _error(rho, sigma, t, m):
    """The trace-distance error of one M-step Trotter circuit."""
    return float(dme_errors(rho, sigma, t, [m])[0])


def _swap(instr, sig, delta):
    """partial_swap on density matrices, or on stacks of them: the inputs go in
    as Bloch planes, and both outputs come back as matrices."""
    out, marg = partial_swap(bloch_planes(instr), bloch_planes(sig), swap_coefficients(delta))
    return density_matrices(out), density_matrices(marg)


def _joint_marginals(rho, sigma, delta):
    """(data, instruction) marginals of exp(-i delta SWAP) (rho (x) sigma) exp(+i delta SWAP)."""
    u = qmath.herm_expm(qmath.swap_operator(2), -1j * delta)
    joint = u @ np.kron(rho, sigma) @ u.conj().T
    return tuple(
        qmath.partial_trace(joint, qmath.QubitPartition((2, 2), keep=(i,))) for i in (1, 0)
    )


class TestReflector:
    def test_t_zero(self):
        assert np.abs(reflector(PureState.basis(0), 0.0) - np.eye(2)).max() < 1e-15

    def test_grover_reflection_at_pi(self):
        psi = rx_init(0.9)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        assert np.abs(reflector(psi, np.pi) - (np.eye(2) - 2 * proj)).max() < 1e-14

    def test_half_pi_on_ground(self):
        assert np.abs(reflector(PureState.basis(0), np.pi / 2) - np.diag([1j, 1.0])).max() < 1e-15

    def test_matches_expm_oracle(self, rng):
        psi = PureState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for t in (0.3, -1.2, 2.9):
            assert np.abs(reflector(psi, t) - qmath.herm_expm(proj, 1j * t)).max() < 1e-13

    def test_unitary(self, rng):
        psi = PureState.from_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
        r = reflector(psi, 1.234)
        assert np.abs(r.conj().T @ r - np.eye(4)).max() < 1e-12


class TestDmeStep:
    def test_delta_zero_returns_sigma(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        assert np.abs(dme_step_exact(rho, sigma, 0.0).matrix - sigma).max() < 1e-14

    def test_half_pi_is_full_swap(self, rng):
        for _ in range(20):
            rho, sigma = random_density(rng), random_density(rng)
            assert np.abs(dme_step_exact(rho, sigma, np.pi / 2).matrix - rho).max() < 1e-12

    def test_equal_states_fixed(self, rng):
        rho = random_density(rng)
        for delta in (0.2, 1.0, 2.7):
            assert np.abs(dme_step_exact(rho, rho, delta).matrix - rho).max() < 1e-13

    def test_closed_form_matches_exact(self, rng):
        worst = 0.0
        for _ in range(200):
            rho, sigma = random_density(rng), random_density(rng)
            delta = rng.uniform(-np.pi, np.pi)
            worst = max(
                worst,
                np.abs(
                    dme_step_exact(rho, sigma, delta).matrix
                    - _swap(rho, sigma, delta)[0]
                ).max(),
            )
        assert worst < 1e-12

    def test_quarter_pi_closed_value(self):
        out = _swap(GROUND, PLUS, np.pi / 4)[0]
        comm = PLUS @ GROUND - GROUND @ PLUS
        expected = 0.5 * (PLUS + GROUND) + 0.5j * comm
        assert np.abs(out - expected).max() < 1e-14

    def test_first_order_expansion(self):
        # || E_delta(sigma) - (sigma - i delta [rho, sigma]) || shrinks as O(delta^2)
        comm = GROUND @ PLUS - PLUS @ GROUND
        devs = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            out = _swap(GROUND, PLUS, delta)[0]
            devs.append(np.abs(out - (PLUS - 1j * delta * comm)).max())
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.05)
        assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.05)

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(50):
            rho, sigma = random_density(rng), random_density(rng)
            out = dme_step_exact(rho, sigma, rng.uniform(-np.pi, np.pi)).matrix
            assert abs(np.trace(out).real - 1) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_purity_can_decrease(self):
        out = dme_step_exact(GROUND, PLUS, 0.6).matrix
        purity = np.trace(out @ out).real
        assert purity <= 1 + 1e-10
        assert purity < 0.99


class TestPartialSwap:
    @PROPERTY
    @given(seed=SEEDS, batch=st.integers(1, 6), per_entry=st.booleans())
    def test_matches_partial_traces_of_joint_state(self, seed, batch, per_entry):
        rng = np.random.default_rng(seed)
        instr = np.array([random_density(rng) for _ in range(batch)])
        sig = np.array([random_density(rng) for _ in range(batch)])
        deltas = rng.uniform(-np.pi, np.pi, batch)
        out, marg = _swap(instr, sig, deltas if per_entry else deltas[0])
        assert out.shape == marg.shape == (batch, 2, 2)
        for b in range(batch):
            want_out, want_marg = _joint_marginals(instr[b], sig[b], deltas[b if per_entry else 0])
            assert np.abs(out[b] - want_out).max() < 1e-12
            assert np.abs(marg[b] - want_marg).max() < 1e-12

    def test_matches_partial_traces_at_search_batch(self, rng):
        instr = np.array([random_density(rng) for _ in range(SEARCH_BATCH)])
        sig = np.array([random_density(rng) for _ in range(SEARCH_BATCH)])
        deltas = rng.uniform(-np.pi, np.pi, SEARCH_BATCH)
        out, marg = _swap(instr, sig, deltas)
        for b in range(SEARCH_BATCH):
            want_out, want_marg = _joint_marginals(instr[b], sig[b], deltas[b])
            assert np.abs(out[b] - want_out).max() < 1e-12
            assert np.abs(marg[b] - want_marg).max() < 1e-12

    def test_matches_partial_traces_on_one_matrix(self, rng):
        for delta in (0.4, -2.1, np.pi / 2):
            rho, sigma = random_density(rng), random_density(rng)
            out, marg = _swap(rho, sigma, delta)
            want_out, want_marg = _joint_marginals(rho, sigma, delta)
            assert out.shape == marg.shape == (2, 2)
            assert np.abs(out - want_out).max() < 1e-12
            assert np.abs(marg - want_marg).max() < 1e-12

    def test_one_instruction_against_a_batch(self, rng):
        # a (3, 1) instruction plane broadcasts against a (3, B) data batch
        rho = random_density(rng)
        sig = np.array([random_density(rng) for _ in range(4)])
        out, marg = partial_swap(bloch_planes(rho)[:, None], bloch_planes(sig), swap_coefficients(0.7))
        for b in range(4):
            want_out, want_marg = _joint_marginals(rho, sig[b], 0.7)
            assert np.abs(density_matrices(out[:, b]) - want_out).max() < 1e-12
            assert np.abs(density_matrices(marg[:, b]) - want_marg).max() < 1e-12

    def test_zero_angle_returns_sigma_exactly(self, rng):
        # angle 0, whose coefficients are (1, 0, 0), is the identity, bit for bit
        assert swap_coefficients(0.0) == (1.0, 0.0, 0.0)
        instr = bloch_planes(np.array([random_density(rng) for _ in range(5)]))
        sig = bloch_planes(np.array([random_density(rng) for _ in range(5)]))
        assert np.array_equal(partial_swap(instr, sig, swap_coefficients(np.zeros(5)))[0], sig)
        out = partial_swap(instr, sig, swap_coefficients(np.array([0.3, 0.0, -1.0, 0.0, 0.0])))[0]
        assert np.array_equal(out[:, [1, 3, 4]], sig[:, [1, 3, 4]])
        assert np.array_equal(partial_swap(instr[:, 0], sig[:, 0], (1.0, 0.0, 0.0))[0], sig[:, 0])

    def test_planes_round_trip(self, rng):
        rho = np.array([random_density(rng) for _ in range(6)])
        planes = bloch_planes(rho)
        assert planes.shape == (3, 6) and planes.dtype == float
        assert np.abs(density_matrices(planes) - rho).max() < 1e-15
        assert np.abs(density_matrices(bloch_planes(PLUS)) - PLUS).max() < 1e-15

    def test_long_chain_states_have_exact_trace_and_hermiticity(self, rng):
        # a Bloch vector carries no trace error to compound: over a 200-step
        # chain every state, rebuilt as a matrix, has trace exactly 1 and is
        # exactly Hermitian
        instr = bloch_planes(np.array([random_density(rng) for _ in range(50)]))
        sig = bloch_planes(np.array([random_density(rng) for _ in range(50)]))
        coeffs = swap_coefficients(rng.uniform(-np.pi, np.pi, 50))
        for _ in range(200):
            sig, marg = partial_swap(instr, sig, coeffs)
            states = density_matrices(np.concatenate([sig, marg], axis=1))
            assert np.all(np.trace(states, axis1=1, axis2=2) == 1.0)
            assert np.array_equal(states, np.conj(states).swapaxes(1, 2))
            assert np.linalg.eigvalsh(states).min() >= -1e-12


class TestDmeTrotter:
    @PROPERTY
    @given(seed=SEEDS, t=st.floats(-2.0, 2.0), m=st.integers(1, 64))
    def test_matches_exact_step_loop(self, seed, t, m):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(rng), random_density(rng)
        want = sigma
        for _ in range(m):
            want = dme_step_exact(rho, want, t / m).matrix
        assert np.abs(_trotter(rho, sigma, t, m) - want).max() < 1e-12

    def test_m_one_is_single_step(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        t = 0.77
        a = _trotter(rho, sigma, t, 1)
        b = dme_step_exact(rho, sigma, t).matrix
        assert np.abs(a - b).max() < 1e-14

    def test_large_m_approaches_conjugation(self):
        t = np.pi / 2
        ideal = exact_conjugation(GROUND, PLUS, t)
        err_small = np.abs(_trotter(GROUND, PLUS, t, 64) - ideal).max()
        assert err_small < 0.02


class TestDmeError:
    def test_zero_for_equal_states(self, rng):
        rho = random_density(rng)
        for m in (1, 3):
            assert _error(rho, rho, 0.9, m) < 1e-13

    def test_commuting_inputs_follow_mixing_closed_form(self):
        # for distinct diagonal states the error is (1 - cos^{2M}(t/M)) times
        # their trace distance: it vanishes only as M grows or when rho == sigma
        rho = np.diag([0.9, 0.1]).astype(complex)
        sigma = np.diag([0.3, 0.7]).astype(complex)
        td = qmath.trace_distance(rho, sigma)
        for t, m in ((np.pi / 4, 1), (np.pi / 4, 4), (0.9, 8)):
            expected = (1 - np.cos(t / m) ** (2 * m)) * td
            assert _error(rho, sigma, t, m) == pytest.approx(expected, abs=1e-12)
        errs = dme_errors(rho, sigma, np.pi / 4, [1, 4, 16, 64])
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_positive_and_decreasing_in_m(self):
        e1 = _error(GROUND, PLUS, np.pi / 4, 1)
        e2 = _error(GROUND, PLUS, np.pi / 4, 2)
        assert e1 > 0 and e2 < e1

    def test_halving_ratio_near_half(self, rng):
        for _ in range(20):
            rho, sigma = random_density(rng), random_density(rng)
            e1 = _error(rho, sigma, np.pi / 4, 1)
            if e1 < 1e-12:
                continue
            ratio = _error(rho, sigma, np.pi / 4, 2) / e1
            assert 0.35 <= ratio <= 0.65

    def test_loglog_slope(self):
        ms = np.array([1, 2, 4, 8, 16, 32, 64])
        errs = dme_errors(GROUND, PLUS, np.pi / 4, ms)
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert -1.2 <= slope <= -0.8


class TestDmeErrors:
    @staticmethod
    def _oracle(rho, sigma, t, m):
        state = sigma
        for _ in range(m):
            state = dme_step_exact(rho, state, t / m).matrix
        return qmath.trace_distance(state, exact_conjugation(rho, sigma, t))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=SEEDS, t=st.floats(-2.0, 2.0), m_max=st.integers(1, 64))
    def test_matches_exact_step_loop(self, seed, t, m_max):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(rng), random_density(rng)
        ms = np.arange(1, m_max + 1)
        errs = dme_errors(rho, sigma, t, ms)
        assert errs.shape == (m_max,)
        for m, err in zip(ms, errs):
            assert abs(err - self._oracle(rho, sigma, t, m)) < 1e-13

    def test_criterion_3_depths(self, rng):
        for rho, sigma in ((GROUND, PLUS), (random_density(rng), random_density(rng))):
            errs = dme_errors(rho, sigma, np.pi / 4, CRITERION_3_DEPTHS)
            for m, err in zip(CRITERION_3_DEPTHS, errs):
                assert abs(err - self._oracle(rho, sigma, np.pi / 4, m)) < 1e-13

    def test_depths_in_any_order_match_one_depth_runs(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        ms = [5, 1, 12, 5, 3]
        errs = dme_errors(rho, sigma, 0.8, ms)
        for m, err in zip(ms, errs):
            assert abs(err - _error(rho, sigma, 0.8, m)) < 1e-15

    @pytest.mark.parametrize(
        "t, ms", [(np.nan, [1]), (1.0, []), (1.0, [2, 0]), (1.0, [1.5]), (1.0, [[1, 2]])]
    )
    def test_rejects_bad_arguments(self, t, ms):
        with pytest.raises(ContractViolationError):
            dme_errors(GROUND, PLUS, t, ms)

    def test_every_intermediate_state_checked_in_bounded_batches(self, monkeypatch):
        sizes = []
        check = dme.check_density

        def counting_check(states):
            sizes.append(len(states))
            return check(states)

        monkeypatch.setattr(dme, "check_density", counting_check)
        # first the two inputs, where they enter, then every intermediate
        # state of every depth, once
        steps = sum(CRITERION_3_DEPTHS)
        dme_errors(GROUND, PLUS, 0.9, CRITERION_3_DEPTHS)
        assert sizes == [2, steps]
        sizes.clear()
        monkeypatch.setattr(dme, "_CHECK_BATCH_STATES", 30)
        dme_errors(GROUND, PLUS, 0.9, CRITERION_3_DEPTHS)
        assert sizes[0] == 2 and sum(sizes[1:]) == steps and max(sizes) <= 30

    def test_invalid_intermediate_state_raises(self):
        with pytest.raises(ContractViolationError, match="trace"):
            dme_errors(GROUND, 2 * PLUS, 0.9, [1, 3])

    def test_trotter_run_makes_one_kernel_call_per_step(self, tmp_path, monkeypatch):
        # one batch over all depths: m_max calls, not m_max (m_max + 1) / 2,
        # step j on the m_max - j depths that still have steps to take
        calls = []
        swap = dme.partial_swap

        def counting_swap(instr, sig, coeffs):
            calls.append(np.shape(sig))
            return swap(instr, sig, coeffs)

        monkeypatch.setattr(dme, "partial_swap", counting_swap)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        cli.run_config(cfg)
        assert calls == [(3, cfg.m_max - j) for j in range(cfg.m_max)]


class TestQubitOnlyEntryPoints:
    FOUR = np.eye(4, dtype=complex) / 4

    @pytest.mark.parametrize(
        "call",
        [
            lambda r, s: dme_errors(r, s, 0.3, [2]),
            lambda r, s: dme_errors(r, s, 0.3, [1, 2]),
        ],
        ids=["error", "errors"],
    )
    def test_rejects_larger_registers(self, rng, call):
        sigma = random_density(rng, 4)
        with pytest.raises(DimensionMismatchError):
            call(self.FOUR, sigma)

    def test_exact_step_takes_any_dimension(self, rng):
        sigma = random_density(rng, 4)
        out = dme_step_exact(self.FOUR, sigma, 0.3).matrix
        assert out.shape == (4, 4)
        assert np.abs(dme_step_exact(self.FOUR, sigma, 0.0).matrix - sigma).max() < 1e-14
