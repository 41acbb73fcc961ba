import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbac_lab import dbac, qmath
from dbac_lab.dbac import (
    BasinResult,
    CoolingRecord,
    RECURSION_MODES,
    DbacSchedule,
    basin_min_fidelity,
    best_final_fidelity,
    copies_accounting,
    dbac_energy_analytic,
    dbac_recursive_exact,
    dbac_step_exact,
    dbac_via_dme,
    descent_bound_residual,
    final_fidelities_over_s,
    optimal_step,
    step_size_grid,
    synthesize_uk,
)
from dbac_lab.dme import bloch_planes, density_matrices, dme_step_exact, reflector
from dbac_lab.errors import ContractViolationError, DegenerateInputError
from dbac_lab.states import HamiltonianSpec, PureState, bloch_vector, energy, fidelity, rx_init, variance
from dbac_lab.tomography import NoiseModel

from conftest import random_density, random_state, random_unitary

H = HamiltonianSpec.default_single_qubit()
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _depths(max_steps, max_k):
    """(k, M) pairs with k * M <= max_steps."""
    return st.integers(1, max_k).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(1, max(1, max_steps // k)))
    )


def _oracle_via_dme(theta, schedule, noise=None):
    """One angle of dbac_via_dme, with one explicit joint state per partial swap.

    Without p2 noise the data register steps with dme_step_exact; the
    instruction marginal, and with p2 noise both marginals, are partial traces
    of the joint state, which p2 depolarizes whole.  The joint state's trace
    is tr(instr) tr(sig), so each instruction copy is rescaled to unit trace:
    otherwise its rounding error would grow by M + 1 per chained step.
    Returns (energies, instruction energies, final state).
    """
    h = schedule.hamiltonian.matrix
    p1 = noise.p1 if noise else 0.0
    p2 = noise.p2 if noise else 0.0

    def depolarize(rho, p):
        d = rho.shape[0]
        return (1.0 - p) * rho + p * np.trace(rho).real * np.eye(d) / d

    def marginal(joint, keep):
        return qmath.partial_trace(joint, qmath.QubitPartition((2, 2), keep=(keep,)))

    rho0 = rx_init(theta).density().matrix
    instr = data = rho0
    energies, instr_energies = [np.trace(h @ rho0).real], []
    for t, m in zip(schedule.s, schedule.m):
        instr = instr / np.trace(instr).real
        em = qmath.herm_expm(h, -1j * t)
        sig = depolarize(em @ data @ em.conj().T, p1)
        u = qmath.herm_expm(qmath.swap_operator(2), 1j * t / m)
        for _ in range(m):
            joint = depolarize(u @ np.kron(instr, sig) @ u.conj().T, p2)
            marg = marginal(joint, 0)
            sig = marginal(joint, 1) if p2 > 0 else dme_step_exact(instr, sig, -t / m).matrix
            instr_energies.append(np.trace(h @ marg).real)
        ep = qmath.herm_expm(h, 1j * t)
        out = depolarize(ep @ sig @ ep.conj().T, p1)
        energies.append(np.trace(h @ out).real)
        instr = out
        data = out if schedule.recursion == "chain" else rho0
    return energies, instr_energies, out


def _assert_matches_oracle(thetas, schedule, noise):
    records = dbac_via_dme(np.array(thetas), schedule, noise)
    assert len(records) == len(thetas)
    for theta, rec in zip(thetas, records):
        energies, instr_energies, out = _oracle_via_dme(theta, schedule, noise)
        assert np.abs(np.subtract(rec.energies, energies)).max() < 1e-12
        assert np.abs(np.subtract(rec.instruction_energies, instr_energies)).max() < 1e-12
        bloch = [np.trace(p @ out).real for p in (qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)]
        assert np.abs(np.subtract(rec.trajectory[-1], bloch)).max() < 1e-12


class TestStepExact:
    def test_t_zero_identity(self):
        psi = rx_init(1.2)
        out = dbac_step_exact(psi, 0.0)
        assert fidelity(out, psi) > 1 - 1e-14

    def test_ground_fixed_point(self):
        out = dbac_step_exact(PureState.basis(0), 0.9)
        assert fidelity(out, PureState.basis(0)) > 1 - 1e-14

    def test_quarter_pi_from_equator(self):
        out = dbac_step_exact(rx_init(np.pi / 2), np.pi / 4)
        assert abs(energy(out, H) + np.sqrt(2) / 2) < 1e-12


class TestEnergyAnalytic:
    def test_ground_fixed(self):
        for t in (0.1, 1.0, 3.0):
            assert dbac_energy_analytic(-1.0, t) == -1.0

    def test_t_zero_identity(self):
        for e0 in (-0.5, 0.0, 0.9):
            assert dbac_energy_analytic(e0, 0.0) == e0

    def test_equator_quarter_pi(self):
        assert abs(dbac_energy_analytic(0.0, np.pi / 4) + np.sqrt(2) / 2) < 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractViolationError):
            dbac_energy_analytic(1.5, 0.3)

    def test_matches_brute_force_on_grid(self):
        worst = 0.0
        for theta in np.linspace(0, np.pi, 21):
            psi = rx_init(theta)
            e0 = energy(psi, H)
            for t in np.linspace(0, np.pi, 21):
                e1 = energy(dbac_step_exact(psi, t), H)
                worst = max(worst, abs(e1 - dbac_energy_analytic(e0, t)))
        assert worst < 1e-9

    def test_state_independent_given_energy(self, rng):
        # any state with the same energy steps to the same energy
        t = 0.73
        theta = 1.9
        e0 = -np.cos(theta)
        base = dbac_energy_analytic(e0, t)
        for _ in range(10):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            amp = np.array([np.cos(theta / 2), phase * np.sin(theta / 2)], dtype=complex)
            e1 = energy(dbac_step_exact(PureState(amp), t), H)
            assert abs(e1 - base) < 1e-10


class TestRecursiveExact:
    def test_k1_reduces_to_single_step(self):
        psi = rx_init(0.8)
        rec = dbac_recursive_exact(psi, DbacSchedule.uniform(1, 0.6))
        direct = dbac_step_exact(psi, 0.6)
        assert abs(rec.energies[-1] - energy(direct, H)) < 1e-13
        assert len(rec.energies) == 2 and len(rec.variances) == 1

    def test_small_angle_one_step_reaches_target(self):
        rec = dbac_recursive_exact(rx_init(0.2 * np.pi), DbacSchedule.uniform(1, np.pi / 4, m=1))
        assert rec.fidelities[-1] >= 0.9

    def test_far_state_two_steps_fail(self):
        theta = 2 * np.arccos(np.sqrt(0.1))
        rec = dbac_recursive_exact(rx_init(theta), DbacSchedule.uniform(2, np.pi / 4, m=2))
        assert rec.fidelities[-1] < 0.9
        assert best_final_fidelity(0.1, 2, 2) < 0.9

    def test_chain_matches_iterated_law(self):
        theta, s, k = 1.7, 0.6, 4
        rec = dbac_recursive_exact(rx_init(theta), DbacSchedule.uniform(k, s))
        e = -np.cos(theta)
        for j in range(1, k + 1):
            e = dbac_energy_analytic(e, s)
            assert abs(rec.energies[j] - e) < 1e-11

    def test_excited_state_is_fixed(self):
        rec = dbac_recursive_exact(PureState.basis(1), DbacSchedule.uniform(3, 0.9))
        assert all(abs(e - 1.0) < 1e-10 for e in rec.energies)

    def test_trajectory_length(self):
        rec = dbac_recursive_exact(rx_init(1.0), DbacSchedule.uniform(3, 0.5))
        assert len(rec.trajectory) == 4


class TestViaDme:
    def test_ground_input_stays_ground(self):
        rec = dbac_via_dme(0.0, DbacSchedule.uniform(1, np.pi / 4, m=1))
        assert abs(rec.energies[-1] + 1.0) < 1e-12

    def test_excited_input_stays_excited(self):
        rec = dbac_via_dme(np.pi, DbacSchedule.uniform(2, np.pi / 4, m=2))
        assert all(abs(e - 1.0) < 1e-10 for e in rec.energies)

    def test_max_over_theta_improves_with_m(self):
        thetas = np.linspace(0, np.pi, 19)
        maxes = []
        for m in (1, 2, 4, 8):
            finals = [
                dbac_via_dme(t, DbacSchedule.uniform(1, np.pi / 4, m=m)).energies[-1]
                for t in thetas[1:-1]
            ]
            maxes.append(max(finals))
        assert all(b <= a + 1e-12 for a, b in zip(maxes, maxes[1:]))

    def test_large_m_approaches_exact(self):
        theta, s, k = 1.3, np.pi / 4, 2
        exact = dbac_recursive_exact(rx_init(theta), DbacSchedule.uniform(k, s)).energies[-1]
        prev_gap = None
        for m in (8, 32):
            approx = dbac_via_dme(theta, DbacSchedule.uniform(k, s, m=m)).energies[-1]
            gap = abs(approx - exact)
            assert gap <= 2 * k * s * s / m
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_instruction_energy_count(self):
        rec = dbac_via_dme(1.0, DbacSchedule(s=(0.5, 0.5), m=(2, 3)))
        assert len(rec.instruction_energies) == 5

    def test_record_consistency(self):
        rec = dbac_via_dme(1.1, DbacSchedule.uniform(2, np.pi / 4, m=2))
        assert isinstance(rec, CoolingRecord)
        assert rec.k == 2
        assert rec.copies_consumed == 9
        assert all(0 <= f <= 1 for f in rec.fidelities)

    def test_noise_reduces_cooling(self):
        clean = dbac_via_dme(1.0, DbacSchedule.uniform(1, np.pi / 4, m=1))
        noisy = dbac_via_dme(1.0, DbacSchedule.uniform(1, np.pi / 4, m=1), NoiseModel(p1=0.01, p2=0.05))
        assert noisy.energies[-1] > clean.energies[-1]

    def test_exact_schedule_rejected(self):
        with pytest.raises(ContractViolationError):
            dbac_via_dme(1.0, DbacSchedule.uniform(1, np.pi / 4, m=None))

    def test_fresh_mode_differs_from_chain_at_k2(self):
        chain = dbac_via_dme(1.8, DbacSchedule.uniform(2, np.pi / 4, m=1, recursion="chain"))
        fresh = dbac_via_dme(1.8, DbacSchedule.uniform(2, np.pi / 4, m=1, recursion="fresh"))
        assert abs(chain.energies[-1] - fresh.energies[-1]) > 1e-6


class TestViaDmeBatch:
    THETAS = st.lists(st.floats(0.0, np.pi), min_size=1, max_size=4)
    STEP = st.floats(0.05, 1.5)
    # -Z, and an H whose eigenbasis is not the computational basis
    HAMILTONIANS = st.sampled_from([H, HamiltonianSpec(np.array([[-1.0, 0.3], [0.3, 1.0]]))])

    @PROPERTY
    @given(thetas=THETAS, km=_depths(39, 8), s=STEP, mode=st.sampled_from(RECURSION_MODES), h=HAMILTONIANS)
    @example(thetas=[2.0], km=(4, 9), s=1.2, mode="chain", h=H)
    def test_noiseless_matches_exact_step_oracle(self, thetas, km, s, mode, h):
        k, m = km
        _assert_matches_oracle(thetas, DbacSchedule.uniform(k, s, m=m, hamiltonian=h, recursion=mode), None)

    @PROPERTY
    @given(
        thetas=THETAS,
        km=_depths(39, 8),
        s=STEP,
        mode=st.sampled_from(RECURSION_MODES),
        p1=st.sampled_from([0.0, 1e-3, 0.02]),
        p2=st.floats(1e-4, 0.1),
        h=HAMILTONIANS,
    )
    def test_p2_closed_form_matches_joint_depolarize(self, thetas, km, s, mode, p1, p2, h):
        k, m = km
        schedule = DbacSchedule.uniform(k, s, m=m, hamiltonian=h, recursion=mode)
        _assert_matches_oracle(thetas, schedule, NoiseModel(p1=p1, p2=p2))

    @PROPERTY
    @given(
        km=_depths(200, 40),
        s=st.floats(0.3, 1.2),
        mode=st.sampled_from(RECURSION_MODES),
        noise=st.sampled_from([None, (1e-3, 0.0), (0.0, 0.02), (2e-3, 0.01)]),
    )
    @example(km=(6, 8), s=1.0, mode="chain", noise=None)
    @example(km=(20, 2), s=0.9, mode="chain", noise=None)
    @example(km=(10, 20), s=1.2, mode="chain", noise=(2e-3, 0.01))
    @example(km=(200, 1), s=0.7, mode="fresh", noise=(0.0, 0.02))
    def test_long_chains_keep_states_physical(self, km, s, mode, noise):
        k, m = km
        states, checked = [], []
        swap, check = dbac.partial_swap, dbac.check_bloch

        def recording_swap(sig, step):
            # the kernel's input and output are Bloch planes: check the
            # matrices they stand for
            out = swap(sig, step)
            states.extend(density_matrices(planes) for planes in (sig, out))
            return out

        def recording_check(planes):
            checked.append(planes.shape)
            states.append(density_matrices(planes).reshape(-1, 2, 2))
            return check(planes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dbac, "partial_swap", recording_swap)
            mp.setattr(dbac, "check_bloch", recording_check)
            records = dbac_via_dme(
                np.linspace(0.2, 3.0, 3),
                DbacSchedule.uniform(k, s, m=m, recursion=mode),
                NoiseModel(*noise) if noise else None,
            )
        assert len(records) == 3 and all(len(r.instruction_energies) == k * m for r in records)
        # one check over every reported state: k + 1 states and k M marginals
        assert checked == [(3, k + 1 + k * m, 3)]
        batch = np.concatenate(states)
        assert np.abs(np.trace(batch, axis1=1, axis2=2).real - 1.0).max() <= 1e-12
        assert np.abs(batch - np.conj(batch).swapaxes(1, 2)).max() <= 1e-12
        assert np.linalg.eigvalsh(batch).min() >= -1e-10

    def test_batch_matches_single_angle_calls(self):
        thetas = np.linspace(0.1, 3.0, 7)
        schedule = DbacSchedule(s=(0.7, 0.4, 0.9), m=(4, 2, 3), recursion="fresh")
        noise = NoiseModel(p1=1e-3, p2=1e-2)
        batch = dbac_via_dme(thetas, schedule, noise)
        assert isinstance(batch, tuple) and len(batch) == thetas.size
        for theta, rec in zip(thetas, batch):
            single = dbac_via_dme(theta, schedule, noise)
            assert isinstance(single, CoolingRecord)
            for field in ("energies", "variances", "fidelities", "instruction_energies", "trajectory"):
                assert np.abs(np.subtract(getattr(rec, field), getattr(single, field))).max() < 1e-14
            assert rec.copies_consumed == single.copies_consumed == 5 * 3 * 4

    @pytest.mark.parametrize("theta", [np.zeros((2, 2)), np.array([]), [0.3, np.nan]])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(ContractViolationError):
            dbac_via_dme(theta, DbacSchedule.uniform(1, 0.5, m=1))


class TestSynthesizeUk:
    def test_empty_is_identity(self):
        u = synthesize_uk(H, [])
        assert np.abs(u - np.eye(2)).max() == 0

    def test_single_qubit_matches_step_unitary(self):
        t = 0.8
        u = synthesize_uk(H, [t**2])
        v = (
            qmath.herm_expm(H.matrix, 1j * t)
            @ reflector(PureState.basis(0), t)
            @ qmath.herm_expm(H.matrix, -1j * t)
        )
        assert qmath.dist_up_to_global_phase(u, v) < 1e-12

    def test_two_qubit_descent_from_random_start(self, rng):
        h2 = HamiltonianSpec(
            -np.kron(qmath.PAULI_Z, qmath.I2) - np.kron(qmath.I2, qmath.PAULI_Z)
        )
        for _ in range(5):
            u0 = random_unitary(rng, 4)
            base = u0 @ np.array([1, 0, 0, 0], dtype=complex)
            e0 = float(np.real(base.conj() @ h2.matrix @ base))
            if abs(abs(e0) - 2.0) < 1e-3:
                continue
            u1 = synthesize_uk(h2, [0.02], u0=u0)
            w = u1 @ np.array([1, 0, 0, 0], dtype=complex)
            e1 = float(np.real(w.conj() @ h2.matrix @ w))
            assert e1 < e0 + 1e-9

    def test_energy_matches_analytic_chain(self):
        # |omega_k> energies follow the closed-form recursion
        s = 0.25
        u2 = synthesize_uk(H, [s, s])
        w = u2 @ np.array([1, 0], dtype=complex)
        e = -1.0
        for _ in range(2):
            e = dbac_energy_analytic(e, np.sqrt(s))
        assert abs(float(np.real(w.conj() @ H.matrix @ w)) - e) < 1e-12

    def test_rejects_large_register(self):
        h4 = HamiltonianSpec(np.diag(np.arange(16.0)).astype(complex))
        with pytest.raises(ContractViolationError):
            synthesize_uk(h4, [0.1])


class TestDescentBound:
    def test_eigenstate_residual_zero(self):
        assert abs(descent_bound_residual(H, PureState.basis(0), 0.05)) < 1e-9

    def test_ratio_bounded_for_random_instances(self, rng):
        for i in range(25):
            n = 1 + (i % 2)
            dim = 2**n
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = HamiltonianSpec(0.5 * (a + a.conj().T))
            psi = PureState.from_vector(random_state(rng, dim))
            res = [descent_bound_residual(h, psi, s) for s in (0.1, 0.05, 0.025)]
            assert 0.2 <= res[1] / res[0] <= 5.0
            assert 0.2 <= res[2] / res[1] <= 5.0

    def test_matches_second_order_taylor_of_law(self):
        psi = rx_init(1.1)
        e0 = energy(psi, H)
        # s^2 coefficient of the closed-form law expanded in t = sqrt(s)
        coef = -2 * (1 - e0**2) * ((e0 - 1) / 2 - 1 / 3)
        r1 = descent_bound_residual(H, psi, 0.01)
        r2 = descent_bound_residual(H, psi, 0.005)
        assert abs(r1 - coef) < 0.02
        assert abs(r2 - coef) < abs(r1 - coef)

    def test_rejects_large_s(self):
        with pytest.raises(ContractViolationError):
            descent_bound_residual(H, rx_init(1.0), 0.5)


class TestOptimalStep:
    def test_near_ground_returns_smallest_tied_grid_point(self):
        s = optimal_step(-1 + 1e-13, 1, None)
        assert s == pytest.approx(0.001)

    def test_equator_exact_matches_dense_oracle(self):
        s_star = optimal_step(0.0, 1, None)
        dense = np.linspace(1e-4, np.pi, 200001)
        law_values = -2 * np.sin(dense) ** 2 * np.cos(dense)  # law at e0 = 0
        oracle = dense[np.argmin(law_values)]
        assert abs(s_star - oracle) < 2e-3
        # analytic optimum of the one-step law at e0 = 0: tan^2 t = 2
        assert abs(s_star - np.arctan(np.sqrt(2.0))) < 1e-3

    def test_degenerate_endpoints_rejected(self):
        with pytest.raises(DegenerateInputError):
            optimal_step(1.0, 1, 1)
        with pytest.raises(DegenerateInputError):
            optimal_step(-1.0, 1, 1)

    def test_quarter_pi_cools_everywhere(self):
        # at s = pi/4 a single exact step strictly cools every theta in (0, pi)
        for theta in np.linspace(0.01, np.pi - 0.01, 50):
            e0 = -np.cos(theta)
            assert dbac_energy_analytic(e0, np.pi / 4) < e0


class TestBasin:
    def test_k1m1_includes_080(self):
        res = basin_min_fidelity(1, 1, 0.9)
        assert res.reachable and res.f0_min <= 0.8
        assert best_final_fidelity(0.8, 1, 1) >= 0.9

    def test_k2m2_includes_060(self):
        res = basin_min_fidelity(2, 2, 0.9)
        assert res.reachable and res.f0_min <= 0.6

    def test_k2m2_excludes_010(self):
        assert basin_min_fidelity(2, 2, 0.9).f0_min > 0.1

    def test_unreachable_target_sentinel(self):
        # one channel-realized step tops out around 1 - 1e-12 from near-ground
        res = basin_min_fidelity(1, 1, 1 - 1e-14)
        assert res == BasinResult(1.0, False)

    def test_k6_exact_covers_most_angles(self):
        grid = step_size_grid()
        for deg in (30, 90, 150, 176):
            f = final_fidelities_over_s(np.deg2rad(deg), 6, None, grid).max()
            assert f >= 0.9

    def test_k6_exact_edge_case_documented(self):
        # one degree from the excited state the six-step optimum falls short
        f = final_fidelities_over_s(np.deg2rad(179), 6, None, step_size_grid()).max()
        assert 0.55 < f < 0.7


class TestCopiesAccounting:
    def test_single_step_single_copy(self):
        acc = copies_accounting(DbacSchedule.uniform(1, np.pi / 4, m=1))
        assert acc == {"inputs_total": 2, "inputs_extra": 1, "product_form": 1}

    def test_two_by_two(self):
        acc = copies_accounting(DbacSchedule.uniform(2, np.pi / 4, m=2))
        assert acc == {"inputs_total": 9, "inputs_extra": 8, "product_form": 4}

    def test_two_steps_depth_one_matches_four_wires(self):
        acc = copies_accounting(DbacSchedule.uniform(2, np.pi / 4, m=1))
        assert acc["inputs_total"] == 4

    def test_matches_circuit_wire_counts(self):
        from dbac_lab.circuits import DBAC_NUM_QUBITS

        assert copies_accounting(DbacSchedule.uniform(1, 1.0, m=1))["inputs_total"] == DBAC_NUM_QUBITS["A"]
        assert copies_accounting(DbacSchedule.uniform(1, 1.0, m=2))["inputs_total"] == DBAC_NUM_QUBITS["B"]
        assert copies_accounting(DbacSchedule.uniform(2, 1.0, m=1))["inputs_total"] == DBAC_NUM_QUBITS["C"]

    def test_exact_schedule_rejected(self):
        with pytest.raises(ContractViolationError):
            copies_accounting(DbacSchedule.uniform(2, 1.0, m=None))


class TestScheduleValidation:
    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            DbacSchedule(s=())

    def test_rejects_zero_depth(self):
        with pytest.raises(ContractViolationError):
            DbacSchedule(s=(0.5,), m=(0,))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ContractViolationError):
            DbacSchedule(s=(0.5,), recursion="sideways")


def _random_hamiltonian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HamiltonianSpec(0.5 * (a + a.conj().T))


def _degenerate_hamiltonian(rng):
    """Two-qubit H = U diag(-1, -1, 0, 2) U^dag: a two-dimensional ground space
    spanned by U's first two columns, returned as the second value."""
    u = random_unitary(rng, 4)
    return HamiltonianSpec(u @ np.diag([-1.0, -1.0, 0.0, 2.0]) @ u.conj().T), u[:, :2]


def _oracle_recursive_exact(psi, schedule, ground):
    """dbac_recursive_exact one public step at a time; ``ground`` holds an
    orthonormal basis of the ground space as columns."""
    h = schedule.hamiltonian
    states, variances = [psi], []
    for t in schedule.s:
        current = states[-1]
        variances.append(variance(current, h))
        if schedule.recursion == "chain":
            states.append(dbac_step_exact(current, t, h))
        else:
            u = qmath.herm_expm(h.matrix, 1j * t) @ reflector(current, t) @ qmath.herm_expm(h.matrix, -1j * t)
            states.append(PureState.from_vector(u @ psi.amplitudes))
    fids = [float(np.sum(np.abs(ground.conj().T @ s.amplitudes) ** 2)) for s in states]
    traj = [bloch_vector(s) for s in states] if psi.num_qubits == 1 else []
    return [energy(s, h) for s in states], variances, fids, traj


class TestRecursiveExactOracle:
    @pytest.mark.parametrize("mode", RECURSION_MODES)
    @pytest.mark.parametrize("kind", ["1q", "2q", "2q-degenerate"])
    def test_record_matches_public_step_loop(self, rng, mode, kind):
        for trial in range(4):
            if kind == "2q-degenerate":
                h, ground = _degenerate_hamiltonian(rng)
            else:
                h = _random_hamiltonian(rng, 2 if kind == "1q" else 4)
                ground = np.linalg.eigh(h.matrix)[1][:, :1]
            dim = h.matrix.shape[0]
            psi = PureState.from_vector(random_state(rng, dim))
            k = 1 + trial % 3 + (trial // 3) * 3
            m = None if trial % 2 else (2,) * k
            s = tuple(rng.uniform(0.1, 2.0, size=k))
            schedule = DbacSchedule(s=s, m=m, hamiltonian=h, recursion=mode)
            rec = dbac_recursive_exact(psi, schedule)
            energies, variances, fids, traj = _oracle_recursive_exact(psi, schedule, ground)
            assert np.abs(np.subtract(rec.energies, energies)).max() < 1e-12
            assert np.abs(np.subtract(rec.variances, variances)).max() < 1e-12
            assert np.abs(np.subtract(rec.fidelities, fids)).max() < 1e-12
            assert len(rec.trajectory) == len(traj) == (k + 1 if dim == 2 else 0)
            if traj:
                assert np.abs(np.subtract(rec.trajectory, traj)).max() < 1e-12
            assert rec.copies_consumed == (k + 1 if m is None else 3**k)
            assert rec.instruction_energies == ()


class TestSearchEngineOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        theta=st.floats(0.0, np.pi),
        km=_depths(16, 16),
        exact=st.booleans(),
        s_values=st.lists(st.floats(1e-3, np.pi), min_size=1, max_size=4),
        mode=st.sampled_from(RECURSION_MODES),
    )
    def test_final_fidelities_match_simulators(self, theta, km, exact, s_values, mode):
        k, m = km
        m = None if exact else m
        fids = final_fidelities_over_s(theta, k, m, s_values, mode)
        assert fids.shape == (len(s_values),)
        for s, f in zip(s_values, fids):
            schedule = DbacSchedule.uniform(k, s, m=m, recursion=mode)
            if m is None:
                rec = dbac_recursive_exact(rx_init(theta), schedule)
            else:
                rec = dbac_via_dme(theta, schedule)
            assert abs(rec.fidelities[-1] - f) < 1e-12


class TestSearchBatch:
    """final_fidelities_over_s on an angle array is one engine pass over every
    (angle, step size) pair; it must equal the one-angle calls."""

    THETAS = np.linspace(0.05, 3.1, 9)
    S_VALUES = np.linspace(0.02, np.pi, 13)

    @pytest.mark.parametrize("m, mode", [(1, "chain"), (3, "fresh"), (2, "chain"), (None, "fresh"), (None, "chain")])
    @pytest.mark.parametrize("k", [1, 4])
    def test_grid_matches_one_angle_calls(self, k, m, mode):
        grid = final_fidelities_over_s(self.THETAS, k, m, self.S_VALUES, mode)
        assert grid.shape == (self.THETAS.size, self.S_VALUES.size)
        for theta, row in zip(self.THETAS, grid):
            single = final_fidelities_over_s(float(theta), k, m, self.S_VALUES, mode)
            assert single.shape == self.S_VALUES.shape
            assert np.abs(row - single).max() < 1e-14

    def test_one_kernel_call_per_dme_step_for_all_angles(self, monkeypatch):
        calls = []
        swap = dbac.partial_swap

        def counting_swap(sig, step):
            calls.append(np.shape(sig))
            return swap(sig, step)

        monkeypatch.setattr(dbac, "partial_swap", counting_swap)
        final_fidelities_over_s(self.THETAS, 3, 2, self.S_VALUES)
        assert calls == [(3, self.THETAS.size * self.S_VALUES.size)] * 6

    @pytest.mark.parametrize("theta", [np.zeros((2, 2)), np.array([])])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(ContractViolationError):
            final_fidelities_over_s(theta, 1, 1, [0.5])


def _oracle_dme_chain(rho0, steps, m, w, mode, noise):
    """One batch entry of _bloch_steps, step by step on 2x2 matrices in the basis
    where H = diag(w): echo rotations by dense exponentials, every partial swap
    by dme_step_exact, its instruction marginal by dme_step_exact with the two
    registers exchanged (exp(-i delta SWAP) commutes with SWAP), and
    depolarizing as (1 - p) rho + p I/2.  The joint state's trace is
    tr(instr) tr(sig), so each instruction copy is rescaled to unit trace:
    otherwise its rounding error would grow by M + 1 per chained step.
    Returns the outputs and the marginals."""
    h = np.diag(w).astype(complex)
    p1, p2 = (noise.p1, noise.p2) if noise else (0.0, 0.0)

    def depolarize(rho, p):
        return (1.0 - p) * rho + 0.5 * p * np.eye(2)

    instr = data = rho0
    outs, margs = [], []
    for t in steps:
        instr = instr / np.trace(instr).real
        em = qmath.herm_expm(h, -1j * t)
        sig = depolarize(em @ data @ em.conj().T, p1)
        for _ in range(m):
            margs.append(depolarize(dme_step_exact(sig, instr, -t / m).matrix, p2))
            sig = depolarize(dme_step_exact(instr, sig, -t / m).matrix, p2)
        instr = depolarize(em.conj().T @ sig @ em, p1)
        outs.append(instr)
        data = instr if mode == "chain" else rho0
    return outs, margs


class TestDmeStepsOracle:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=SEEDS,
        km=_depths(200, 40),
        per_entry=st.booleans(),
        mode=st.sampled_from(RECURSION_MODES),
        noise=st.sampled_from([None, (1e-3, 0.0), (0.0, 0.02), (2e-3, 0.01)]),
    )
    @example(seed=1, km=(200, 1), per_entry=False, mode="chain", noise=(2e-3, 0.01))
    @example(seed=2, km=(4, 50), per_entry=True, mode="chain", noise=None)
    def test_matches_exact_step_chains(self, seed, km, per_entry, mode, noise):
        k, m = km
        rng = np.random.default_rng(seed)
        batch = 2
        w = np.sort(rng.normal(size=2))
        rho0 = np.array([random_density(rng) for _ in range(batch)])
        steps = rng.uniform(0.05, 1.5, size=(k, batch if per_entry else 1))
        noise = NoiseModel(*noise) if noise else None
        outs, margs = [], []
        tables = [dbac._step_table(t, m, w) for t in steps]
        for out, step_margs in dbac._bloch_steps(bloch_planes(rho0), tables, mode, noise, marginals=True):
            outs.append(density_matrices(out))
            margs.extend(density_matrices(marg) for marg in step_margs)
        assert len(outs) == k and len(margs) == k * m
        for b in range(batch):
            want_outs, want_margs = _oracle_dme_chain(rho0[b], steps[:, b if per_entry else 0], m, w, mode, noise)
            assert np.abs(np.array(outs)[:, b] - want_outs).max() < 1e-12
            assert np.abs(np.array(margs)[:, b] - want_margs).max() < 1e-12


def _pure_planes(v):
    """Bloch planes of a (B, 2) batch of unit vectors."""
    return bloch_planes(v[:, :, None] * v.conj()[:, None, :])


class TestBlochReflectorOracle:
    """Exact reflectors as rotations of Bloch planes (_bloch_steps with m=None)
    against the complex-amplitude _exact_steps, at one tolerance TOL.

    Fresh recursion with exact reflectors is chaotic for some (theta, s): two
    runs of the oracle from initial states 1e-15 apart part by O(1) within 50
    steps for about a third of the pairs, so no two evaluations of such a
    chain agree.  Chains are compared on the entries where the oracle is well
    conditioned: rerun from initial phases perturbed by 1e-15, it stays within
    1e-13 of itself over the whole chain.  Every entry must stay pure."""

    TOL = 1e-11

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=SEEDS, k=st.integers(1, 200), mode=st.sampled_from(RECURSION_MODES))
    @example(seed=3, k=200, mode="chain")
    @example(seed=4, k=200, mode="fresh")
    def test_matches_exact_steps(self, seed, k, mode):
        rng = np.random.default_rng(seed)
        w, v = H.eig
        thetas = rng.uniform(0.0, np.pi, 12)
        # four step sizes each: negative, in (0, pi] and above pi
        s = np.concatenate(
            [rng.uniform(-2 * np.pi, 0.0, 4), rng.uniform(1e-3, np.pi, 4), rng.uniform(np.pi, 3 * np.pi, 4)]
        )
        psi0 = dbac._rx_init(thetas, v)
        steps = np.broadcast_to(s, (k, s.size))
        table = dbac._step_table(s, None, w)
        got = np.array([out for out, _ in dbac._bloch_steps(_pure_planes(psi0), [table] * k, mode)])
        want = np.array([_pure_planes(out) for out in dbac._exact_steps(psi0, steps, w, mode)])
        nearby = psi0 * np.exp(1e-15j * rng.normal(size=psi0.shape))
        again = np.array([_pure_planes(out) for out in dbac._exact_steps(nearby, steps, w, mode)])
        well = np.abs(again - want).max(axis=(0, 1)) <= 1e-13
        assert well.sum() >= 3
        assert np.abs(got - want).max(axis=(0, 1))[well].max() <= self.TOL
        assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("mode", RECURSION_MODES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_search_energies_match_exact_steps(self, mode, k):
        # the search's exact path (Bloch-plane reflectors when fresh, the
        # closed-form law when chained) over the whole grid
        theta, grid = 1.1, step_size_grid()
        w, v = H.eig
        psi0 = dbac._rx_init(np.full(grid.size, theta), v)
        *_, last = dbac._exact_steps(psi0, np.broadcast_to(grid, (k, grid.size)), w, mode)
        got = 1.0 - 2.0 * final_fidelities_over_s(theta, k, None, grid, mode)
        assert np.abs(got - np.abs(last) ** 2 @ w).max() <= self.TOL


# (k, M, recursion, theta, f_target, optimal_step(-cos theta), basin F_min)
# recorded from the complex-amplitude exact path and the unscaled kernel; the
# step-size search must reproduce them exactly
_SEARCH_GOLDEN = [
    (1, 1, 'chain', 1.486427, 0.831495, 2.356, 0.5895383951416016),
    (1, 1, 'chain', 1.966026, 0.72852, 2.356, 0.4790039482421875),
    (1, 1, 'fresh', 0.327151, 0.774951, 2.356, 0.5256347143554687),
    (1, 1, 'fresh', 0.98512, 0.86207, 2.356, 0.6286618520507812),
    (1, 2, 'chain', 2.026482, 0.820291, 0.9450000000000001, 0.5129394272460939),
    (1, 2, 'chain', 1.695475, 0.832264, 0.894, 0.5282592208251953),
    (1, 2, 'fresh', 0.663257, 0.788011, 0.776, 0.4745483907470703),
    (1, 2, 'fresh', 0.705668, 0.881195, 0.779, 0.5994871057128907),
    (1, 4, 'chain', 0.447061, 0.863764, 0.74, 0.5299071667480468),
    (1, 4, 'chain', 0.486524, 0.837389, 0.743, 0.48937990405273446),
    (1, 4, 'fresh', 1.142499, 0.780923, 0.8230000000000001, 0.4172975286865235),
    (1, 4, 'fresh', 2.406008, 0.703721, 1.1569999999999998, 0.3399661403808595),
    (1, None, 'chain', 0.451962, 0.883007, 0.713, 0.4957275476074219),
    (1, None, 'chain', 1.572315, 0.718196, 0.9560000000000001, 0.2692875708007813),
    (1, None, 'fresh', 2.767835, 0.889343, 1.534, 0.510375955810547),
    (1, None, 'fresh', 0.581319, 0.784641, 0.725, 0.33581575805664066),
    (2, 1, 'chain', 0.637674, 0.762508, 2.495, 0.336731283569336),
    (2, 1, 'chain', 1.85363, 0.732705, 2.42, 0.3102420787353516),
    (2, 1, 'fresh', 2.042086, 0.710271, 0.68, 0.4177247739257813),
    (2, 1, 'fresh', 0.728035, 0.86314, 2.5, 0.6412350690917967),
    (2, 2, 'chain', 1.301297, 0.783768, 0.676, 0.2608037010498047),
    (2, 2, 'chain', 1.789927, 0.795354, 0.756, 0.27233932250976567),
    (2, 2, 'fresh', 1.261453, 0.706099, 0.659, 0.4025880854492188),
    (2, 2, 'fresh', 2.115819, 0.893492, 0.74, 0.7652582585449218),
    (2, 4, 'chain', 2.740759, 0.832719, 1.176, 0.2331548305664063),
    (2, 4, 'chain', 1.190863, 0.772626, 0.687, 0.17749087939453123),
    (2, None, 'chain', 2.025286, 0.834755, 0.881, 0.11987380712890625),
    (2, None, 'chain', 0.584581, 0.746994, 0.711, 0.07556237231445312),
    (2, None, 'fresh', 1.208306, 0.80227, 1.256, 0.09027181555175783),
    (2, None, 'fresh', 2.325268, 0.800002, 2.479, 0.08966146520996095),
    (3, 1, 'chain', 0.370358, 0.864514, 2.542, 0.32446324169921875),
    (3, 1, 'chain', 1.375386, 0.803799, 0.579, 0.2465215030517578),
    (3, 1, 'fresh', 0.85542, 0.785449, 2.134, 0.5701292542724608),
    (3, 1, 'fresh', 1.270615, 0.854384, 0.641, 0.694701759033203),
    (3, None, 'chain', 0.556533, 0.809994, 0.705, 0.02496432897949219),
    (3, None, 'chain', 0.745124, 0.839179, 0.711, 0.031067832397460936),
    (3, None, 'fresh', 0.392115, 0.75531, 0.852, 0.01983738610839844),
    (3, None, 'fresh', 1.160446, 0.827386, 2.205, 0.023621558227539065),
    (4, 1, 'chain', 0.430147, 0.791852, 2.5989999999999998, 0.14105296398925776),
    (4, 1, 'chain', 0.821984, 0.756379, 0.516, 0.11950759692382812),
    (4, 1, 'fresh', 1.490656, 0.89175, 2.461, 0.68554650390625),
    (4, 1, 'fresh', 1.502561, 0.891178, 0.676, 0.6848140834960939),
    (4, 2, 'fresh', 0.718908, 0.88485, 0.762, 0.6438595755615233),
    (4, 2, 'fresh', 1.210482, 0.737846, 0.8320000000000001, 0.44097912194824224),
    (4, None, 'chain', 2.171319, 0.882408, 0.761, 0.011902831665039065),
    (4, None, 'chain', 0.316686, 0.753651, 0.6980000000000001, 0.0038462071533203125),
    (4, None, 'fresh', 2.226682, 0.768358, 2.1839999999999997, 0.005677258178710938),
    (4, None, 'fresh', 0.903967, 0.701726, 2.334, 0.004883802734375),
    (6, None, 'fresh', 0.400057, 0.823815, 3.005, 0.0005503153076171875),
    (10, None, 'fresh', 2.759538, 0.899699, 3.001, 6.203503417968751e-05),
    (8, None, 'chain', 1.558999, 0.704782, 0.705, 6.203503417968751e-05),
    (3, 3, 'chain', 1.106141, 0.85748, 0.595, 0.14044261364746094),
    (2, 3, 'fresh', 2.379886, 0.827882, 0.802, 0.6278073615722656),
]


class TestSearchGolden:
    def test_optimal_step_and_basin_unchanged(self):
        for k, m, mode, theta, f_target, s_opt, f_min in _SEARCH_GOLDEN:
            assert optimal_step(-float(np.cos(theta)), k, m, mode) == s_opt, (k, m, mode, theta)
            assert basin_min_fidelity(k, m, f_target, mode).f0_min == f_min, (k, m, mode, f_target)


class TestGridTables:
    @pytest.mark.parametrize("m", [None, 1, 3])
    def test_cached_tables_are_read_only(self, m):
        table = dbac._grid_table(m)
        assert table is dbac._grid_table(m)
        arrays = [table.cos_phi, table.sin_phi, *table.coeffs, *(table.law or ())]
        assert len(arrays) == (8 if m is None else 5)
        for a in arrays:
            assert a.shape == step_size_grid().shape and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("m", [None, 2])
    def test_basin_search_builds_its_table_once(self, monkeypatch, m):
        builds = []
        step_table = dbac._step_table

        def counting(s, m, w):
            builds.append(s.size)
            return step_table(s, m, w)

        monkeypatch.setattr(dbac, "_step_table", counting)
        dbac._grid_table.cache_clear()
        optimal_step(0.1, 2, m, "fresh")
        basin_min_fidelity(2, m, 0.8, "fresh")
        assert builds == [step_size_grid().size]


class TestSearchArgumentChecks:
    @pytest.mark.parametrize(
        "k, m, mode", [(0, 1, "chain"), (1, 0, "chain"), (0, None, "fresh"), (1, 1, "chian")]
    )
    def test_each_entry_point_rejects(self, k, m, mode):
        calls = (
            lambda: optimal_step(0.2, k, m, mode),
            lambda: best_final_fidelity(0.5, k, m, mode),
            lambda: basin_min_fidelity(k, m, 0.9, mode),
            lambda: final_fidelities_over_s(1.0, k, m, [0.5], mode),
        )
        for call in calls:
            with pytest.raises(ContractViolationError):
                call()

    @pytest.mark.parametrize(
        "m, mode", [(None, "chain"), (None, "fresh"), (2, "chain"), (2, "fresh")],
        ids=["exact-chain", "exact-fresh", "dme-chain", "dme-fresh"],
    )
    @pytest.mark.parametrize(
        "theta, s_values",
        [(np.nan, [0.5]), ([0.3, np.inf], [0.5]), (0.3, [np.nan, -1.0, 10.0]), (0.3, [0.5, -np.inf])],
        ids=["nan-theta", "inf-theta", "nan-step", "inf-step"],
    )
    def test_non_finite_angles_and_steps_rejected(self, theta, s_values, m, mode):
        with pytest.raises(ContractViolationError, match="finite"):
            final_fidelities_over_s(theta, 2, m, s_values, mode)

    @pytest.mark.parametrize("m, mode", [(None, "chain"), (None, "fresh"), (2, "chain")])
    def test_negative_and_large_steps_allowed(self, m, mode):
        fids = final_fidelities_over_s(0.3, 2, m, [-1.0, 10.0], mode)
        for s, f in zip([-1.0, 10.0], fids):
            schedule = DbacSchedule.uniform(2, s, m=m, recursion=mode)
            rec = dbac_recursive_exact(rx_init(0.3), schedule) if m is None else dbac_via_dme(0.3, schedule)
            assert abs(rec.fidelities[-1] - f) < 1e-12

    def test_optimal_step_rejects_non_finite_energy(self):
        with pytest.raises(ContractViolationError, match="finite"):
            optimal_step(np.nan, 1)


def test_via_dme_rejects_damping():
    with pytest.raises(ContractViolationError, match="t1"):
        dbac_via_dme(1.0, DbacSchedule.uniform(1, 0.5, m=1), NoiseModel(t1_us=0.01))


def test_simulators_reuse_the_validated_hamiltonian(monkeypatch):
    # H is checked when the spec is built and diagonalized once, on first use
    h = HamiltonianSpec(np.array([[-1.0, 0.3], [0.3, 1.0]], dtype=complex))
    calls = {"check_hermitian": 0, "eigh": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(qmath, "check_hermitian", counting("check_hermitian", qmath.check_hermitian))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    dbac_recursive_exact(rx_init(1.0), DbacSchedule.uniform(10, 0.4, hamiltonian=h, recursion="fresh"))
    dbac_via_dme(np.linspace(0.2, 3.0, 4), DbacSchedule.uniform(5, 0.4, m=3, hamiltonian=h))
    for t in np.linspace(0.0, np.pi, 20):
        dbac_step_exact(rx_init(1.0), t, h)
    assert calls == {"check_hermitian": 0, "eigh": 1}
