import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbac_lab import cli, dme
from dbac_lab.dme import (
    bloch_planes,
    check_bloch,
    density_matrices,
    dme_errors,
    partial_swap,
    partial_swap_power,
    swap_coefficients,
    swap_operands,
)
from dbac_lab.errors import ContractViolationError, DimensionMismatchError
from dbac_lab.states import HamiltonianSpec, PureState, check_density, rx_init

from conftest import random_density, verdict
from oracles import (
    GROUND, PLUS, basis, check, dme_step_exact, exact_conjugation, expm, pair, pins, recording, reflector,
    swap_marginals, swap_point_args, tol, trace_distance, trotter, trotter_state,
)

SWAP = ("partial_swap", "dme_step_exact")
ERRORS = ("dme_errors", "dme_error")


def _error(rho, sigma, t, m):
    """The trace-distance error of one M-step Trotter circuit."""
    return float(dme_errors(rho, sigma, t, [m])[0])


def _marginals(instr, sig, coeffs):
    """(data output, instruction marginal) of one partial swap on Bloch planes,
    each stacked as a (3, ...) array: the marginal is instr + sig - out, as
    the one recording caller computes it."""
    out = np.array(partial_swap(sig, swap_operands(instr, coeffs)))
    return out, instr + sig - out


class TestReflector:
    """The reflector oracle, which the dense cooling step and the synthesis
    oracle build on, against its closed forms and the dense exponential."""

    def test_t_zero(self):
        assert np.abs(reflector(basis(0), 0.0) - np.eye(2)).max() < 1e-15

    def test_grover_reflection_at_pi(self):
        psi = rx_init(0.9)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        assert np.abs(reflector(psi, np.pi) - (np.eye(2) - 2 * proj)).max() < 1e-14

    def test_half_pi_on_ground(self):
        assert np.abs(reflector(basis(0), np.pi / 2) - np.diag([1j, 1.0])).max() < 1e-15

    def test_matches_expm_oracle(self, rng):
        psi = PureState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2))
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for t in (0.3, -1.2, 2.9):
            assert np.abs(reflector(psi, t) - expm(HamiltonianSpec(proj), 1j * t)).max() < 1e-13

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

    test_closed_form_matches_exact = pins(SWAP, "200 pairs")

    def test_quarter_pi_closed_value(self):
        out = swap_marginals(GROUND, PLUS, np.pi / 4)[0]
        comm = PLUS @ GROUND - GROUND @ PLUS
        expected = 0.5 * (PLUS + GROUND) + 0.5j * comm
        assert np.abs(out - expected).max() < 1e-14

    def test_first_order_expansion(self):
        # || E_delta(sigma) - (sigma - i delta [rho, sigma]) || shrinks as O(delta^2)
        comm = GROUND @ PLUS - PLUS @ GROUND
        devs = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            out = swap_marginals(GROUND, PLUS, delta)[0]
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
    test_matches_partial_traces_of_joint_state = pins(SWAP, "six")
    test_matches_partial_traces_at_search_batch = pins(SWAP, "search batch")
    test_matches_partial_traces_on_one_matrix = pins(SWAP, "one pair")
    test_one_instruction_against_a_batch = pins(SWAP, "one instruction")

    def test_zero_angle_returns_sigma_exactly(self, rng):
        # angle 0, whose coefficients are (1, 0, 0), is the identity, bit for bit
        assert swap_coefficients(0.0) == (1.0, 0.0, 0.0)
        instr = bloch_planes(np.array([random_density(rng) for _ in range(5)]))
        sig = bloch_planes(np.array([random_density(rng) for _ in range(5)]))
        assert np.array_equal(partial_swap(sig, swap_operands(instr, swap_coefficients(np.zeros(5)))), sig)
        out = np.array(partial_swap(sig, swap_operands(instr, swap_coefficients(np.array([0.3, 0.0, -1.0, 0.0, 0.0])))))
        assert np.array_equal(out[:, [1, 3, 4]], sig[:, [1, 3, 4]])
        assert np.array_equal(partial_swap(sig[:, 0], swap_operands(instr[:, 0], (1.0, 0.0, 0.0))), sig[:, 0])

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
            sig, marg = _marginals(instr, sig, coeffs)
            states = density_matrices(np.concatenate([sig, marg], axis=1))
            assert np.all(np.trace(states, axis1=1, axis2=2) == 1.0)
            assert np.array_equal(states, np.conj(states).swapaxes(1, 2))
            assert np.linalg.eigvalsh(states).min() >= -1e-12


class TestPartialSwapPower:
    test_matches_partial_swap_loop = pins(("partial_swap_power", "partial_swap loop"), "extremes")

    def test_swap_point_and_full_depolarizing(self, rng):
        # at delta = pi/2 (sin^2 = 1 exactly, cos^2 = 3.7e-33) every swap
        # outputs the instruction; at p2 = 1 every output is I/2
        assert swap_coefficients(np.pi / 2)[1] == 1.0
        check(("partial swaps at the swap point", "the instruction"), **swap_point_args(0, 3, 3))
        instr, sig = (bloch_planes(np.array([random_density(rng) for _ in range(3)])) for _ in range(2))
        assert np.array_equal(partial_swap_power(sig, instr, swap_coefficients(0.4), np.array([1, 2, 7]), 0.0), 0 * sig)

    def test_zero_angle_returns_sigma_exactly(self, rng):
        instr = bloch_planes(np.array([random_density(rng) for _ in range(5)]))
        sig = bloch_planes(np.array([random_density(rng) for _ in range(5)]))
        instr[:, 2] = 0.0
        copies = partial_swap_power(sig, instr, swap_coefficients(np.zeros(5)), np.arange(1, 9).reshape(-1, 1, 1))
        assert all(np.array_equal(out, sig) for out in copies)
        angles = np.array([0.3, 0.0, -1.0, 0.0, 0.0])
        out = partial_swap_power(sig, instr, swap_coefficients(angles), np.array([3, 5, 1, 10**9, 1]))
        assert np.array_equal(out[:, [1, 3, 4]], sig[:, [1, 3, 4]])


class TestCheckBloch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        directions=st.lists(
            st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
            min_size=1,
            max_size=4,
        ),
        excess=st.lists(st.floats(-1e-9, 1e-9), min_size=4, max_size=4),
        bad=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from([np.nan, np.inf, -np.inf])),
            max_size=2,
        ),
    )
    @example(directions=[(0.0, 0.0, 1.0)], excess=[0.0] * 4, bad=[])
    @example(directions=[(0.6, 0.0, 0.8)], excess=[1e-9] * 4, bad=[])
    @example(directions=[(1.0, 1.0, 1.0)] * 2, excess=[-1e-9, 1e-9, 0.0, 0.0], bad=[(1, 0, np.nan)])
    def test_raises_exactly_when_the_matrix_check_does(self, directions, excess, bad):
        # |a| within 1e-9 of 1 straddles the 1 + 2 EIG_TOL bound
        v = np.array(directions).T
        planes = v / np.linalg.norm(v, axis=0) * (1.0 + np.array(excess[: v.shape[1]]))
        for i, j, value in bad:
            if j < planes.shape[1]:
                planes[i, j] = value
        with np.errstate(invalid="ignore"):  # inf * 1j has a NaN real part
            matrices = density_matrices(planes)
        assert verdict(check_bloch, planes) == verdict(check_density, matrices)

    def test_length_bound_is_eig_tol(self):
        # EIG_TOL = 1e-10 bounds the smallest eigenvalue (1 - |a|) / 2 from below:
        # |a| = 1 + 1e-10 passes, and 1 + 3e-10 fails
        for length, message in ((1.0 + 1e-10, None), (1.0 + 3e-10, "density matrix has a negative eigenvalue")):
            assert verdict(check_bloch, np.array([[0.0], [0.0], [length]])) == message


class TestDmeTrotter:
    test_matches_exact_step_loop = pins(("partial_swap_power", "trotter_state"), "loop")
    test_m_one_is_single_step = pins(("partial_swap_power one copy", "dme_step_exact"), "t = 0.77")

    def test_large_m_approaches_conjugation(self):
        t = np.pi / 2
        ideal = exact_conjugation(GROUND, PLUS, t)
        err_small = np.abs(trotter(GROUND, PLUS, t, 64) - ideal).max()
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
        td = trace_distance(rho, sigma)
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
    test_matches_exact_step_loop = pins(ERRORS, "1 to 64")
    test_criterion_3_depths = pins(ERRORS, "criterion 3")

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

    def test_each_final_state_checked_once(self, monkeypatch):
        # one check, on the final state of every depth, in the order of ms
        checked = []
        check = dme.check_bloch

        def recording_check(planes):
            checked.append(planes.copy())
            return check(planes)

        monkeypatch.setattr(dme, "check_bloch", recording_check)
        ms = [5, 1, 12, 5, 3]
        t = 0.9
        dme_errors(GROUND, PLUS, t, ms)
        finals = bloch_planes(np.array([trotter_state(GROUND, PLUS, t, m) for m in ms]))
        assert len(checked) == 1 and checked[0].shape == (3, len(ms))
        assert np.abs(checked[0] - finals).max() < tol("partial_swap_power", "trotter_state")

    def test_huge_depths_follow_the_one_over_m_law(self, rng):
        # a depth costs what depth 1 does: M = 10^6 and 10^9 in milliseconds,
        # where the loop would take seconds and hours; M times the error
        # converges, and matches the exact-step loop where it can run
        rho, sigma, t = random_density(rng), random_density(rng), 0.9
        ms = np.array([4096, 10**6, 10**9])
        start = time.perf_counter()
        errs = dme_errors(rho, sigma, t, ms)
        assert time.perf_counter() - start < 0.25
        check(("dme_errors deep", "dme_error"), rho=rho, sigma=sigma, t=t, ms=[4096])
        scaled = ms * errs
        assert scaled[2] > 0 and abs(scaled[1] / scaled[2] - 1.0) < tol("dme_errors 10^6", "dme_errors 10^9")
        assert abs(scaled[0] / scaled[2] - 1.0) < tol("dme_errors 4096", "dme_errors 10^9")

    test_deep_circuits_match_exact_step_loop = pins(("dme_errors deep", "dme_error"), "deep")

    def test_invalid_intermediate_state_raises(self):
        with pytest.raises(ContractViolationError, match="trace"):
            dme_errors(GROUND, 2 * PLUS, 0.9, [1, 3])

    def test_trotter_run_makes_one_kernel_call_over_all_depths(self, tmp_path, monkeypatch):
        # every depth 1..m_max in one closed-form call, one exponent per
        # entry, no partial_swap loop, and one partial_swap call, on the
        # scalar planes of one entry, for the M -> infinity reference
        powers, swaps = [], []
        power, swap = dme.partial_swap_power, dme.partial_swap

        def counting_power(sig, instr, coeffs, n, q=1.0):
            powers.append(np.shape(n))
            return power(sig, instr, coeffs, n, q)

        def counting_swap(sig, step):
            swaps.append(np.shape(sig))
            return swap(sig, step)

        monkeypatch.setattr(dme, "partial_swap_power", counting_power)
        monkeypatch.setattr(dme, "partial_swap", counting_swap)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        cli.run_config(cfg)
        assert powers == [(cfg.m_max,)] and swaps == [(3,)]

    def test_reference_matches_dense_conjugation(self):
        # the reference is dme_errors' one partial_swap call: sigma's Bloch
        # vector rotated by t|a| about rho's; at rho = I/2 it is sigma, bit for bit
        for args in (pair(0, "pure", t=10.0), pair(0, "maximally mixed", t=-7.5)):
            check(("dme_errors reference", "exact_conjugation"), **args)
        with recording(dme, "partial_swap") as calls:
            dme_errors(np.eye(2) / 2, PLUS, -7.5, [1, 7])
        assert np.array_equal([ref for _, ref in calls], [bloch_planes(PLUS)])


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
