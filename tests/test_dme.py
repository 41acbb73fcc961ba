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
    basis, density, dme_error, dme_step_exact, dme_step_marginals, exact_conjugation, expm, pauli_expectations,
    reflector, trace_distance, tol, trotter_state,
)

GROUND = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
SEARCH_BATCH = 3142  # the batch the step-size search runs the kernel on
CRITERION_3_DEPTHS = [1, 2, 4, 8, 16, 32, 64]


def _trotter(rho, sigma, t, m):
    """The final state of one M-step Trotter circuit, as a matrix."""
    return density_matrices(partial_swap_power(bloch_planes(sigma), bloch_planes(rho), swap_coefficients(t / m), m))


def _error(rho, sigma, t, m):
    """The trace-distance error of one M-step Trotter circuit."""
    return float(dme_errors(rho, sigma, t, [m])[0])


def _marginals(instr, sig, coeffs):
    """(data output, instruction marginal) of one partial swap on Bloch planes,
    each stacked as a (3, ...) array: the marginal is instr + sig - out, as
    the one recording caller computes it."""
    out = np.array(partial_swap(sig, swap_operands(instr, coeffs)))
    return out, instr + sig - out


def _swap(instr, sig, delta):
    """partial_swap on density matrices, or on stacks of them: the inputs go in
    as Bloch planes, and both outputs come back as matrices."""
    out, marg = _marginals(bloch_planes(instr), bloch_planes(sig), swap_coefficients(delta))
    return density_matrices(out), density_matrices(marg)


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
        assert worst < tol("partial_swap", "dme_step_exact")

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
            want_out, want_marg = dme_step_marginals(instr[b], sig[b], deltas[b if per_entry else 0])
            assert np.abs(out[b] - want_out).max() < tol("partial_swap", "dme_step_exact")
            assert np.abs(marg[b] - want_marg).max() < tol("partial_swap", "dme_step_exact")

    def test_matches_partial_traces_at_search_batch(self, rng):
        instr = np.array([random_density(rng) for _ in range(SEARCH_BATCH)])
        sig = np.array([random_density(rng) for _ in range(SEARCH_BATCH)])
        deltas = rng.uniform(-np.pi, np.pi, SEARCH_BATCH)
        out, marg = _swap(instr, sig, deltas)
        for b in range(SEARCH_BATCH):
            want_out, want_marg = dme_step_marginals(instr[b], sig[b], deltas[b])
            assert np.abs(out[b] - want_out).max() < tol("partial_swap", "dme_step_exact")
            assert np.abs(marg[b] - want_marg).max() < tol("partial_swap", "dme_step_exact")

    def test_matches_partial_traces_on_one_matrix(self, rng):
        for delta in (0.4, -2.1, np.pi / 2):
            rho, sigma = random_density(rng), random_density(rng)
            out, marg = _swap(rho, sigma, delta)
            want_out, want_marg = dme_step_marginals(rho, sigma, delta)
            assert out.shape == marg.shape == (2, 2)
            assert np.abs(out - want_out).max() < tol("partial_swap", "dme_step_exact")
            assert np.abs(marg - want_marg).max() < tol("partial_swap", "dme_step_exact")

    def test_one_instruction_against_a_batch(self, rng):
        # a (3, 1) instruction plane broadcasts against a (3, B) data batch
        rho = random_density(rng)
        sig = np.array([random_density(rng) for _ in range(4)])
        out, marg = _marginals(bloch_planes(rho)[:, None], bloch_planes(sig), swap_coefficients(0.7))
        for b in range(4):
            want_out, want_marg = dme_step_marginals(rho, sig[b], 0.7)
            assert np.abs(density_matrices(out[:, b]) - want_out).max() < tol("partial_swap", "dme_step_exact")
            assert np.abs(density_matrices(marg[:, b]) - want_marg).max() < tol("partial_swap", "dme_step_exact")

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
    @PROPERTY
    @given(
        seed=SEEDS,
        m=st.integers(1, 64),
        p2=st.floats(0.0, 0.1),
        length=st.floats(0.0, 1.0),
        antiparallel=st.booleans(),
        per_entry=st.booleans(),
    )
    @example(seed=0, m=64, p2=0.0, length=0.0, antiparallel=False, per_entry=True)
    @example(seed=1, m=64, p2=0.1, length=1.0, antiparallel=True, per_entry=False)
    @example(seed=2, m=1, p2=0.05, length=0.0, antiparallel=True, per_entry=True)
    @example(seed=4, m=3, p2=0.0, length=1e-300, antiparallel=False, per_entry=False)  # |a|^2 underflows
    @example(seed=5, m=2, p2=0.01, length=5e-324, antiparallel=True, per_entry=True)
    def test_matches_partial_swap_loop(self, seed, m, p2, length, antiparallel, per_entry):
        # every copy of an m-swap step, and each entry's own exponent, against
        # m partial_swap calls; |a| = 0 and a antiparallel to b included
        rng = np.random.default_rng(seed)
        batch = 4
        sig = bloch_planes(np.array([random_density(rng) for _ in range(batch)]))
        instr = -sig if antiparallel else bloch_planes(np.array([random_density(rng) for _ in range(batch)]))
        instr *= length / np.linalg.norm(instr, axis=0)
        coeffs = swap_coefficients(rng.uniform(-np.pi, np.pi, batch if per_entry else 1))
        q = 1.0 - p2
        copies = partial_swap_power(sig, instr, coeffs, np.arange(1, m + 1).reshape(-1, 1, 1), q)
        assert copies.shape == (m, 3, batch)
        want, step = [sig], swap_operands(instr, coeffs)
        for _ in range(m):
            want.append(q * np.array(partial_swap(want[-1], step)))
        within = tol("partial_swap_power", "partial_swap loop")
        assert np.abs(copies - np.array(want[1:])).max() <= within
        exponents = rng.integers(1, m + 1, batch)
        own = partial_swap_power(sig, instr, coeffs, exponents, q)
        assert np.abs(own - np.array(want)[exponents, :, np.arange(batch)].T).max() <= within

    def test_swap_point_and_full_depolarizing(self, rng):
        # at delta = pi/2 (sin^2 = 1 exactly, cos^2 = 3.7e-33) every swap
        # outputs the instruction; at p2 = 1 every output is I/2
        instr = bloch_planes(np.array([random_density(rng) for _ in range(3)]))
        sig = bloch_planes(np.array([random_density(rng) for _ in range(3)]))
        instr[:, 0] = 0.0
        coeffs = swap_coefficients(np.pi / 2)
        assert coeffs[1] == 1.0
        copies = partial_swap_power(sig, instr, coeffs, np.arange(1, 4).reshape(-1, 1, 1))
        within = tol("partial swaps at the swap point", "the instruction")
        assert np.abs(copies - instr).max() < within
        assert np.abs(partial_swap(sig, swap_operands(instr, coeffs)) - instr).max() < within
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
    @PROPERTY
    @given(seed=SEEDS, t=st.floats(-2.0, 2.0), m=st.integers(1, 64))
    def test_matches_exact_step_loop(self, seed, t, m):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(rng), random_density(rng)
        want = trotter_state(rho, sigma, t, m)
        assert np.abs(_trotter(rho, sigma, t, m) - want).max() < tol("partial_swap_power", "trotter_state")

    def test_m_one_is_single_step(self, rng):
        rho, sigma = random_density(rng), random_density(rng)
        t = 0.77
        a = _trotter(rho, sigma, t, 1)
        b = dme_step_exact(rho, sigma, t).matrix
        assert np.abs(a - b).max() < tol("partial_swap_power one copy", "dme_step_exact")

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
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=SEEDS, t=st.floats(-2.0, 2.0), m_max=st.integers(1, 64))
    def test_matches_exact_step_loop(self, seed, t, m_max):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(rng), random_density(rng)
        ms = np.arange(1, m_max + 1)
        errs = dme_errors(rho, sigma, t, ms)
        assert errs.shape == (m_max,)
        for m, err in zip(ms, errs):
            assert abs(err - dme_error(rho, sigma, t, m)) < tol("dme_errors", "dme_error")

    def test_criterion_3_depths(self, rng):
        for rho, sigma in ((GROUND, PLUS), (random_density(rng), random_density(rng))):
            errs = dme_errors(rho, sigma, np.pi / 4, CRITERION_3_DEPTHS)
            for m, err in zip(CRITERION_3_DEPTHS, errs):
                assert abs(err - dme_error(rho, sigma, np.pi / 4, m)) < tol("dme_errors", "dme_error")

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
        assert abs(errs[0] - dme_error(rho, sigma, t, 4096)) < tol("dme_errors deep", "dme_error")
        scaled = ms * errs
        assert scaled[2] > 0 and abs(scaled[1] / scaled[2] - 1.0) < tol("dme_errors 10^6", "dme_errors 10^9")
        assert abs(scaled[0] / scaled[2] - 1.0) < tol("dme_errors 4096", "dme_errors 10^9")

    def test_deep_circuits_match_exact_step_loop(self):
        ms = np.arange(1, 1001)
        errs = dme_errors(GROUND, PLUS, np.pi / 4, ms)
        for m in (1, 361, 362, 1000):
            assert abs(errs[m - 1] - dme_error(GROUND, PLUS, np.pi / 4, m)) < tol("dme_errors deep", "dme_error")

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

    @PROPERTY
    @given(
        seed=SEEDS,
        t=st.floats(-10.0, 10.0),
        kind=st.sampled_from(["random", "pure", "maximally mixed", "sigma = rho"]),
    )
    @example(seed=0, t=10.0, kind="pure")
    @example(seed=0, t=-7.5, kind="maximally mixed")
    def test_reference_matches_dense_conjugation(self, seed, t, kind):
        # the reference is dme_errors' one partial_swap call: sigma's Bloch
        # vector rotated by t|a| about rho's; at rho = I/2 it is sigma, bit for bit
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(rng), random_density(rng)
        if kind == "pure":
            rho = density(PureState.from_vector(rng.normal(size=2) + 1j * rng.normal(size=2)))
        elif kind == "maximally mixed":
            rho = np.eye(2, dtype=complex) / 2
        elif kind == "sigma = rho":
            sigma = rho
        refs, swap = [], dme.partial_swap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dme, "partial_swap", lambda sig, step: refs.append(swap(sig, step)) or refs[-1])
            dme_errors(rho, sigma, t, [1, 7])
        (ref,) = refs
        want = pauli_expectations(exact_conjugation(rho, sigma, t))
        assert np.shape(ref) == want.shape == (3,)
        assert np.abs(ref - want).max() < tol("dme_errors reference", "exact_conjugation")
        if kind == "maximally mixed":
            assert np.array_equal(ref, bloch_planes(check_density(sigma)))  # sigma as dme_errors takes it


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
