import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbac_lab import cli, dbac, qmath
from dbac_lab.baselines import hbac_round_closed, thermal_qubit
from dbac_lab.dbac import (
    CoolingRecord,
    RECURSION_MODES,
    DbacSchedule,
    basin_min_fidelity,
    check_step_sizes,
    copies_accounting,
    dbac_energy_analytic,
    dbac_recursive_exact,
    dbac_via_dme,
    descent_bound_residual,
    final_fidelities_over_s,
    optimal_step,
    step_size_grid,
)
from dbac_lab.dme import density_matrices
from dbac_lab.errors import ContractViolationError, DimensionMismatchError
from dbac_lab.states import HamiltonianSpec, PureState, rx_init
from dbac_lab.tomography import NoiseModel

from conftest import config, config_error, counted_swaps, random_state
from oracles import (
    LAYOUTS, H, basis, chain_args, check, dbac_step_exact, depths, descent_args, eigenbasis_chain, energy, expm,
    fidelity, ground_projector, ite_args, ite_evolve, pass_args, pins, qubit, random_hamiltonian, reflector,
    reflector_args, synthesize_uk,
)

SEARCHED = ("final_fidelities_over_s", "dbac_via_dme and dbac_recursive_exact")
LAW = ("dbac_energy_analytic", "dbac_step_exact")
RECURSIVE = ("dbac_recursive_exact", "recursive_exact")
EXACT_FRESH = ("_final_energies exact fresh", "search_exact_loop")


def _best_fidelity(f0, k, m):
    """The search's best final fidelity from ground fidelity f0, as criteria 5a-5d read it."""
    return final_fidelities_over_s(np.arccos(2 * f0 - 1), k, m, step_size_grid()).max()


class TestStepExact:
    def test_t_zero_identity(self):
        psi = rx_init(1.2)
        out = dbac_step_exact(psi, 0.0)
        assert fidelity(out, psi) > 1 - 1e-14

    def test_ground_fixed_point(self):
        out = dbac_step_exact(basis(0), 0.9)
        assert fidelity(out, basis(0)) > 1 - 1e-14

    def test_quarter_pi_from_equator(self):
        out = dbac_step_exact(rx_init(np.pi / 2), np.pi / 4)
        assert abs(energy(out, H) + np.sqrt(2) / 2) < 1e-12

    test_checks_exact_reflector_engine_on_criterion_1_grid = pins(("_exact_steps", "dbac_step_exact"), "criterion 1")


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

    def test_array_grid_equals_scalar_calls_bitwise(self):
        e0 = np.linspace(-1.0, 1.0, 101)
        t = np.linspace(0.0, np.pi, 101)
        grid = dbac_energy_analytic(e0[:, None], t[None, :])
        assert grid.shape == (101, 101)
        scalar = np.array([[dbac_energy_analytic(a, b) for b in t.tolist()] for a in e0.tolist()])
        assert np.array_equal(grid, scalar)

    def test_scalars_give_python_float(self):
        assert type(dbac_energy_analytic(0.3, 0.4)) is float
        assert type(dbac_energy_analytic(np.float64(0.3), np.array(0.4))) is float

    @pytest.mark.parametrize(
        "e0, t",
        [([0.2, 1.5], 0.3), ([0.2, -1.0 - 1e-12], 0.3), ([0.2, np.nan], 0.3)],
        ids=["above-one", "below-minus-one", "nan-e0"],
    )
    def test_arrays_reject_bad_entries(self, e0, t):
        with pytest.raises(ContractViolationError):
            dbac_energy_analytic(np.array(e0), np.array(t))

    test_matches_brute_force_on_grid = pins(LAW, "grid")
    test_state_independent_given_energy = pins(LAW, "one energy")


class TestRecursiveExact:
    test_k1_reduces_to_single_step = pins(("dbac_recursive_exact", "dbac_step_exact"), "k = 1")

    def test_small_angle_one_step_reaches_target(self):
        rec = dbac_recursive_exact(rx_init(0.2 * np.pi), DbacSchedule.uniform(1, np.pi / 4, m=1))
        assert (1.0 - rec.energies[-1]) / 2.0 >= 0.9  # the ground fidelity under H = -Z

    def test_far_state_two_steps_fail(self):
        theta = 2 * np.arccos(np.sqrt(0.1))
        rec = dbac_recursive_exact(rx_init(theta), DbacSchedule.uniform(2, np.pi / 4, m=2))
        assert (1.0 - rec.energies[-1]) / 2.0 < 0.9
        assert _best_fidelity(0.1, 2, 2) < 0.9

    def test_chain_matches_iterated_law(self):
        theta, s, k = 1.7, 0.6, 4
        rec = dbac_recursive_exact(rx_init(theta), DbacSchedule.uniform(k, s))
        e = -np.cos(theta)
        for j in range(1, k + 1):
            e = dbac_energy_analytic(e, s)
            assert abs(rec.energies[j] - e) < 1e-11

    def test_excited_state_is_fixed(self):
        rec = dbac_recursive_exact(basis(1), DbacSchedule.uniform(3, 0.9))
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
        assert rec.energies.shape[-1] - 1 == 2
        assert np.all(np.abs(rec.energies) <= 1.0)  # ground fidelities (1 - E) / 2 in [0, 1]

    def test_noise_reduces_cooling(self):
        clean = dbac_via_dme(1.0, DbacSchedule.uniform(1, np.pi / 4, m=1))
        noisy = dbac_via_dme(1.0, DbacSchedule.uniform(1, np.pi / 4, m=1), NoiseModel(p1=0.01, p2=0.05))
        assert noisy.energies[-1] > clean.energies[-1]

    def test_exact_schedule_rejected(self, tmp_path, monkeypatch, traced_runs):
        # an exact schedule never reaches the DME run: sweep-theta's config
        # rejects it, and trajectory runs it by dbac_recursive_exact
        assert traced_runs.faults["unusable/sweep-theta-m-exact"] == ""
        monkeypatch.setattr(cli, "dbac_via_dme", None)
        cli.run_config(config(tmp_path, "trajectory", "m = exact\n"))

    def test_fresh_mode_differs_from_chain_at_k2(self):
        chain = dbac_via_dme(1.8, DbacSchedule.uniform(2, np.pi / 4, m=1, recursion="chain"))
        fresh = dbac_via_dme(1.8, DbacSchedule.uniform(2, np.pi / 4, m=1, recursion="fresh"))
        assert abs(chain.energies[-1] - fresh.energies[-1]) > 1e-6


class TestViaDmeBatch:
    test_noiseless_matches_exact_step_oracle = pins(("dbac_via_dme", "dme_chain"), "deep")
    test_p2_closed_form_matches_joint_depolarize = pins(("dbac_via_dme", "dme_chain"), "p2")

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        km=depths(200, 40),
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
        states, checked, copies = [], [], []
        power, check = dbac.partial_swap_power, dbac.check_bloch

        def recording_power(sig, instr, coeffs, n, q=1.0):
            # the kernel's input and every copy it outputs are Bloch planes:
            # check the matrices they stand for
            out = power(sig, instr, coeffs, n, q)
            copies.append(len(out))
            states.extend([density_matrices(sig), density_matrices(np.moveaxis(out, 1, 0)).reshape(-1, 2, 2)])
            return out

        def recording_check(planes):
            checked.append(planes.shape)
            states.append(density_matrices(planes).reshape(-1, 2, 2))
            return check(planes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dbac, "partial_swap_power", recording_power)
            mp.setattr(dbac, "check_bloch", recording_check)
            records = dbac_via_dme(
                np.linspace(0.2, 3.0, 3),
                DbacSchedule.uniform(k, s, m=m, recursion=mode),
                NoiseModel(*noise) if noise else None,
            )
        assert records.instruction_energies.shape == (3, k * m)
        assert copies == [m] * k
        # one check over every reported state: k + 1 states and k M marginals
        assert checked == [(3, k + 1 + k * m, 3)]
        batch = np.concatenate(states)
        assert np.abs(np.trace(batch, axis1=1, axis2=2).real - 1.0).max() <= 1e-12
        assert np.abs(batch - np.conj(batch).swapaxes(1, 2)).max() <= 1e-12
        assert np.linalg.eigvalsh(batch).min() >= -1e-10

    @pytest.mark.parametrize("noise", [None, NoiseModel(1e-3, 0.02)])
    def test_one_rotation_per_cooling_step(self, monkeypatch, noise):
        # one rotation of the instruction per step; the step's marginals stay
        # in the data's frame
        thetas = np.linspace(0.2, 3.0, 5)
        schedule = DbacSchedule(s=(0.3, 0.5, 0.7), m=(2, 1, 3))
        assert _counted_rotations(monkeypatch, dbac_via_dme, thetas, schedule, noise) == [(3, 5)] * 3
        assert _counted_rotations(monkeypatch, dbac_via_dme, 0.4, schedule, noise) == [(3, 1)] * 3

    def test_batch_matches_single_angle_calls(self):
        thetas = np.linspace(0.1, 3.0, 7)
        schedule = DbacSchedule(s=(0.7, 0.4, 0.9), m=(4, 2, 3), recursion="fresh")
        noise = NoiseModel(p1=1e-3, p2=1e-2)
        batch = dbac_via_dme(thetas, schedule, noise)
        assert isinstance(batch, CoolingRecord) and batch.energies.shape == (thetas.size, 4)
        for i, theta in enumerate(thetas):
            single = dbac_via_dme(theta, schedule, noise)
            assert isinstance(single, CoolingRecord)
            for field in ("energies", "instruction_energies", "trajectory"):
                # row i of the batch is the single-angle record, bit for bit
                assert np.array_equal(getattr(batch, field)[i], getattr(single, field))

    @pytest.mark.parametrize("theta", [{"theta_count": "-1"}, {"theta_count": "0"}, {"theta_stop": "inf"}])
    def test_bad_theta_rejected(self, tmp_path, theta):
        # the run's angles are one finite theta or a grid of at least two finite
        # ones: the config rejects any other where it enters (reject files hold
        # theta_count = 1 and theta_stop = nan)
        ((key, value),) = theta.items()
        assert key in config_error(tmp_path, "sweep-theta", f"{key} = {value}\n")


class TestRecordArrays:
    """A CoolingRecord holds read-only float64 arrays, with the batch shape
    first and the step axis last."""

    SCHEDULE = DbacSchedule(s=(0.7, 0.4, 0.9), m=(4, 2, 3))

    @staticmethod
    def _assert_shapes(rec, batch, k, n, traj):
        shapes = {
            "energies": batch + (k + 1,),
            "instruction_energies": batch + (n,),
            "trajectory": batch + (traj, 3),
        }
        for name, shape in shapes.items():
            arr = getattr(rec, name)
            assert arr.shape == shape and arr.dtype == np.float64, name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0.0

    @pytest.mark.parametrize("theta, batch", [(0.8, ()), (np.linspace(0.1, 3.0, 5), (5,))])
    def test_via_dme(self, theta, batch):
        self._assert_shapes(dbac_via_dme(theta, self.SCHEDULE), batch, k=3, n=9, traj=4)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_recursive_exact(self, rng, dim):
        # a record is of one qubit: a register of two is rejected
        psi = PureState.from_vector(random_state(rng, dim))
        if dim == 4:
            with pytest.raises(DimensionMismatchError):
                dbac_recursive_exact(psi, DbacSchedule(s=(0.3, 0.5)))
            return
        self._assert_shapes(dbac_recursive_exact(psi, DbacSchedule(s=(0.3, 0.5))), (), k=2, n=0, traj=3)


class TestRecordsOracle:
    test_via_dme = pins(("_records", "records"), "dme")

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("mode", RECURSION_MODES)
    def test_recursive_exact(self, dim, mode):
        schedule = DbacSchedule(s=(0.3, 1.1, 0.5, 2.0), recursion=mode)
        if dim == 2:
            check(("_records", "records"), psi=qubit(1.3, 0.4), thetas=None, schedule=schedule)
        else:
            check(RECURSIVE, **chain_args(0, "2q", 4, True, mode))


class TestSynthesizeUk:
    """The recursive unitary synthesis oracle, on its own and against the
    exact chain engine."""

    def test_empty_is_identity(self):
        u = synthesize_uk(H, [])
        assert np.abs(u - np.eye(2)).max() == 0

    def test_single_qubit_matches_step_unitary(self):
        t = 0.8
        u = synthesize_uk(H, [t**2])
        v = expm(H, 1j * t) @ reflector(basis(0), t) @ expm(H, -1j * t)
        assert qmath.dist_up_to_global_phase(u, v) < 1e-12

    def test_two_qubit_descent_from_random_start(self, rng):
        # |00> is a random start in the eigenbasis of a random H
        for _ in range(5):
            h2 = random_hamiltonian(rng, 4)
            e0 = h2.matrix[0, 0].real
            w = synthesize_uk(h2, [0.02])[:, 0]
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

    test_matches_chain_engine = pins(("dbac_recursive_exact chain", "synthesize_uk"), "seeds")


class TestImaginaryTimeOracle:
    @pytest.mark.parametrize("theta", [0.5, 1.2, 2.0, 2.8])
    def test_single_qubit_gap_is_second_order(self, theta):
        # under H = -Z the gap per s^2 tends to (1 - E0^2)(3 E0 + 5/3)
        e0 = -np.cos(theta)
        for s in (1e-2, 1e-3):
            check(("dbac_recursive_exact one step", "ite_evolve"), **ite_args(0, 2, theta, s))
        e_step = eigenbasis_chain(H, rx_init(theta), [np.sqrt(s)], "chain")[0][-1]
        gap = (e_step - energy(ite_evolve(rx_init(theta), s, H), H)) / s**2
        assert abs(gap - (1 - e0**2) * (3 * e0 + 5 / 3)) < 0.02

    test_random_hamiltonians = pins(("dbac_recursive_exact one step", "ite_evolve"), "random H")


class TestDescentBound:
    def test_eigenstate_residual_zero(self):
        assert abs(descent_bound_residual(H, basis(0), 0.05)) < 1e-9

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
        for s in ([0.05, 0.5], [0.05, 0.0], [np.nan]):  # the rule holds for every entry
            with pytest.raises(ContractViolationError):
                descent_bound_residual(H, rx_init(1.0), np.array(s))
        with pytest.raises(DimensionMismatchError):
            descent_bound_residual(H, basis(0, 2), 0.05)

    def test_empty_step_sizes_give_an_empty_residual(self):
        for s in ([], np.empty((2, 0))):
            got = descent_bound_residual(H, rx_init(1.0), s)
            assert got.shape == np.shape(s) and got.dtype == float

    def test_engine_matches_dense_oracle(self):
        # one engine step over every s against one dense step per s, within
        # the table's tolerance per 1/s^2; one s gives a float
        args = descent_args(0, 8, [0.1, 0.01, 1e-3, 1e-6])
        check(("descent_bound_residual", "dense_descent_bound_residual"), **args)
        assert type(descent_bound_residual(args["h"], args["psi"], 0.1)) is float


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

    def test_degenerate_endpoints_rejected(self, tmp_path):
        # e0 = -cos(theta) = +/-1 is a fixed point: grid-km's config rejects
        # such a theta, so the search never sees it
        for theta in ("-180deg", "360deg"):  # reject files hold 0 and 180deg
            assert config_error(tmp_path, "grid-km", f"theta = {theta}\n").startswith("theta: |cos(theta)| = 1")

    def test_quarter_pi_cools_everywhere(self):
        # at s = pi/4 a single exact step strictly cools every theta in (0, pi)
        for theta in np.linspace(0.01, np.pi - 0.01, 50):
            e0 = -np.cos(theta)
            assert dbac_energy_analytic(e0, np.pi / 4) < e0


class TestBasin:
    def test_k1m1_includes_080(self):
        assert basin_min_fidelity(1, 1, 0.9) <= 0.8
        assert _best_fidelity(0.8, 1, 1) >= 0.9

    def test_k2m2_includes_060(self):
        assert basin_min_fidelity(2, 2, 0.9) <= 0.6

    def test_k2m2_excludes_010(self):
        assert basin_min_fidelity(2, 2, 0.9) > 0.1

    def test_unreachable_target_sentinel(self):
        # one channel-realized step tops out around 1 - 1e-12 from near-ground
        assert basin_min_fidelity(1, 1, 1 - 1e-14) == 1.0

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
        extra = copies_accounting(DbacSchedule.uniform(1, np.pi / 4, m=1))
        assert extra == 1 and type(extra) is int

    def test_two_by_two(self):
        assert copies_accounting(DbacSchedule.uniform(2, np.pi / 4, m=2)) == 8

    def test_two_steps_depth_one_matches_four_wires(self):
        assert copies_accounting(DbacSchedule.uniform(2, np.pi / 4, m=1)) + 1 == 4

    def test_matches_circuit_wire_counts(self):
        # the wire counts of the cooling layouts, the gate-level oracle: every input copy, the first included
        assert copies_accounting(DbacSchedule.uniform(1, 1.0, m=1)) + 1 == LAYOUTS["A"][0]
        assert copies_accounting(DbacSchedule.uniform(1, 1.0, m=2)) + 1 == LAYOUTS["B"][0]
        assert copies_accounting(DbacSchedule.uniform(2, 1.0, m=1)) + 1 == LAYOUTS["C"][0]

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m", [None, (2,) * 200])
    def test_rejects_non_finite_last_step(self, bad, m):
        with pytest.raises(ContractViolationError, match="step durations must be finite"):
            DbacSchedule(s=(0.5,) * 199 + (bad,), m=m)

    def test_rejects_zero_depth_in_last_step(self):
        with pytest.raises(ContractViolationError, match="every Trotter depth must be >= 1"):
            DbacSchedule(s=(0.5,) * 3, m=(2, 2, 0))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ContractViolationError):
            DbacSchedule(s=(0.5,), recursion="sideways")

    @pytest.mark.parametrize("m", [(1.7,), (2.0,), ("2",), (np.float64(3),)])
    def test_rejects_non_integer_depth(self, m):
        # int() would have run m = 1.7 as M = 1
        with pytest.raises(ContractViolationError, match="integer"):
            DbacSchedule(s=(0.5,), m=m)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2)])
    def test_uniform_rejects_non_integer_step_count(self, k):
        with pytest.raises(ContractViolationError, match="integer"):
            DbacSchedule.uniform(k, 0.5, m=1)

    def test_accepts_numpy_int_depths(self):
        schedule = DbacSchedule.uniform(np.int64(2), 0.5, m=np.int32(3))
        assert schedule.m == (3, 3) and all(type(mj) is int for mj in schedule.m)

    @pytest.mark.parametrize("s", [1e308, -1e308])
    @pytest.mark.parametrize("m", [None, (2, 2)])
    def test_rejects_overflowing_echo_angle(self, s, m):
        # s is finite, but s (w_max - w_min) = 2 s under -Z is not
        with pytest.raises(ContractViolationError, match="echo angles"):
            DbacSchedule(s=(0.5, s), m=m)

    def test_echo_angle_is_twice_the_step(self):
        # under H = -Z the echo angle is 2 s: it overflows from s = 2^1023
        # (about 8.99e307), where s itself is still finite
        top = float(np.nextafter(2.0**1023, 0.0))
        assert DbacSchedule(s=(top,)).s == (top,)
        assert check_step_sizes([top, -top]).tolist() == [top, -top]
        for s in (2.0**1023, 1e308):
            with pytest.raises(ContractViolationError, match="echo angles"):
                check_step_sizes([s])


class TestRecursiveExactOracle:
    test_record_matches_public_step_loop = pins(RECURSIVE, "kinds")


class TestSearchEngineOracle:
    def test_ground_fidelity_is_read_from_the_energy(self):
        # the ground projector of H = -Z is (I - H) / 2, so <P> = (1 - E) / 2
        assert np.array_equal(ground_projector(H), (np.eye(2) - H.matrix) / 2)

    test_final_fidelities_match_simulators = pins(SEARCHED, "ends")


def _counted_rotations(monkeypatch, call, *args):
    """The plane shapes of every dbac._to_data_frame call that call(*args) makes."""
    shapes = []
    rotate = dbac._to_data_frame

    def counting(r, cos, sin):
        shapes.append(np.shape(r))
        return rotate(r, cos, sin)

    monkeypatch.setattr(dbac, "_to_data_frame", counting)
    call(*args)
    monkeypatch.undo()
    return shapes


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
        # k M calls over the whole batch, the last of which computes z alone
        calls = counted_swaps(monkeypatch)
        final_fidelities_over_s(self.THETAS, 3, 2, self.S_VALUES)
        batch = (3, self.THETAS.size * self.S_VALUES.size)
        assert calls == [("partial_swap", batch)] * 5 + [("swap_z", batch)]

    def test_one_kernel_call_per_exact_step_for_all_angles(self, monkeypatch):
        # an exact reflector is one whole call, whose planes its rescale reads
        calls = counted_swaps(monkeypatch)
        final_fidelities_over_s(self.THETAS, 3, None, self.S_VALUES, "fresh")
        assert calls == [("partial_swap", (3, self.THETAS.size * self.S_VALUES.size))] * 3

    @pytest.mark.parametrize("m, mode", [(2, "chain"), (1, "fresh"), (None, "fresh")])
    def test_one_rotation_per_cooling_step(self, monkeypatch, m, mode):
        # the instruction is rotated into the data's frame; the data never is
        shapes = _counted_rotations(monkeypatch, final_fidelities_over_s, self.THETAS, 3, m, self.S_VALUES, mode)
        assert shapes == [(3, self.THETAS.size * self.S_VALUES.size)] * 3

    @pytest.mark.parametrize("theta", [{"theta_count": "1"}, {"theta_count": "0"}])
    def test_bad_theta_rejected(self, tmp_path, theta):
        # sweep-s searches from a grid of at least two angles: the config rejects a shorter one
        ((key, value),) = theta.items()
        assert config_error(tmp_path, "sweep-s", f"{key} = {value}\n").startswith(f"{key}: ")


class TestDmeStepsOracle:
    test_matches_exact_step_chains = pins(("_bloch_steps", "dme_chain"), "long")


class TestSearchPassOracle:
    def test_final_energies_match_the_search_loop(self):
        for args in ((0, 1, 1, "chain", False, [0.0, np.pi]), (1, 6, 8, "fresh", True, [-0.0, 3 * np.pi])):
            args = pass_args(*args)
            check(("_final_energies", "search_loop"), **args)
            check(("_rx_planes", "bloch_planes of _rx_init"), thetas=args["thetas"])

    test_exact_fresh_energies_match_the_exact_search_loop = pins(EXACT_FRESH, "ends")


class TestBlochReflectorOracle:
    def test_matches_exact_steps(self):
        for args in (reflector_args(3, 200, "chain"), reflector_args(4, 200, "fresh")):
            check(("_exact_steps perturbed", "_exact_steps"), **args)
            check(("_search_pass_z exact", "_exact_steps"), **args)

    test_search_energies_match_exact_steps = pins(("final_fidelities_over_s exact", "_exact_steps"), "whole grid")


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
            assert basin_min_fidelity(k, m, f_target, mode) == f_min, (k, m, mode, f_target)


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


class TestStepTableOnDistinctSizes:
    test_equals_tiled_table = pins(("final_fidelities_over_s", "tiled_table_fidelities"), "fresh")

    def test_table_built_on_the_step_sizes(self, monkeypatch):
        builds = []
        step_table = dbac._step_table

        def counting(s, m, w):
            builds.append(s.shape)
            return step_table(s, m, w)

        monkeypatch.setattr(dbac, "_step_table", counting)
        final_fidelities_over_s(np.linspace(0.1, 3.0, 7), 2, None, np.linspace(0.01, 3.0, 5).reshape(5, 1))
        assert builds == [(5,)]


def _recorded_passes(monkeypatch, *args):
    """basin_min_fidelity(*args) and the (thetas, energies) of each of its passes."""
    passes = []
    final_energies = dbac._final_energies

    def recording(thetas, k, table, mode, counts=None):
        e = final_energies(thetas, k, table, mode, counts)
        passes.append((thetas.copy(), e))
        return e

    monkeypatch.setattr(dbac, "_final_energies", recording)
    result = basin_min_fidelity(*args)
    monkeypatch.undo()
    return result, passes


class TestBasinWitnesses:
    """Witness entries skip full-grid passes but never change a decision."""

    test_matches_plain_bisection = pins(("basin_min_fidelity", "plain_basin"), "ends")

    @staticmethod
    def _check_passes(monkeypatch, m, mode, f_target):
        """Every recorded engine call of basin_min_fidelity(2, m, f_target, mode)
        against grid-only passes; returns whether the upper end's first-step
        slot missed."""
        k, size = 2, step_size_grid().size
        _, passes = _recorded_passes(monkeypatch, k, m, f_target, mode)
        assert len(passes) >= 2
        grid = dbac._grid_table(m)
        lower, upper = (np.arccos(2.0 * f0 - 1.0) for f0 in (1e-6, 1.0 - 1e-6))
        best = dbac._seed_step(k)  # the witness slots start at the closed-form estimate
        for thetas, e in passes:
            # the grid, _WITNESSES witness slots and the first-step slot, in every pass
            assert thetas.size == dbac._WITNESSES + 2
            alone = [dbac._final_energies(theta[None], k, grid, mode)[0] for theta in thetas]
            assert e.shape == (size + dbac._WITNESSES + 1,)
            assert np.array_equal(e[:size], alone[0])
            assert np.array_equal(e[size:-1], [row[best] for row in alone[1:-1]])
            assert np.array_equal(e[-1:], alone[-1][:1])
            best = int(np.argmin(alone[0]))
        # the first pass is the lower end's; every pass's last slot is the
        # upper end at the first grid step
        assert passes[0][0][0] == lower and all(thetas[-1] == upper for thetas, _ in passes)
        missed = (1.0 - passes[0][1][-1]) / 2.0 < f_target
        # a missed slot is followed by a full pass at the upper end, else the
        # next pass is a halving's
        assert (passes[1][0][0] == upper) == missed
        return missed

    @pytest.mark.parametrize("m, mode", [(None, "chain"), (None, "fresh"), (2, "chain"), (3, "fresh")])
    def test_merged_pass_entries_equal_grid_only_passes(self, monkeypatch, m, mode):
        assert not self._check_passes(monkeypatch, m, mode, 0.8)

    @pytest.mark.parametrize("m, mode", [(None, "chain"), (None, "fresh"), (2, "chain"), (3, "fresh")])
    def test_missed_upper_witness_runs_the_full_pass(self, monkeypatch, m, mode):
        # the first grid step barely moves 1 - 1e-6; the fresh targets are out of reach
        assert self._check_passes(monkeypatch, m, mode, 1 - 1e-7)

    def test_seed_step_minimizes_the_chain_law_at_half_fidelity(self):
        grid = step_size_grid()
        for k in (1, 2, 5):
            e = np.zeros(grid.size)
            for _ in range(k):
                e = dbac_energy_analytic(e, grid)
            assert dbac._seed_step(k) == int(np.argmin(e))

    test_midpoints_match_the_recursion = pins(("_midpoints", "midpoints"), "lower end")

    def test_fewer_full_grid_passes(self, monkeypatch):
        # the plain bisection makes 16: both ends of the interval, then 14
        # halvings; the upper end is decided by a slot of the lower end's pass
        _, passes = _recorded_passes(monkeypatch, 2, 2, 0.8, "fresh")
        sizes = [thetas.size for thetas, _ in passes]
        assert sizes == [dbac._WITNESSES + 2] * len(sizes)  # every batch a full-grid pass
        assert len(sizes) == 9 < 16


class TestSearchArgumentChecks:
    """The step-size search checks none of its arguments: a run's k, M,
    recursion, angles and step sizes are checked where its config enters."""

    @pytest.mark.parametrize(
        "k, m, mode", [(0, 1, "chain"), (1, 0, "chain"), (0, None, "fresh"), (1, 1, "chian")]
    )
    def test_each_entry_point_rejects(self, tmp_path, k, m, mode):
        # both experiments that run the search reject these at their config
        depth = "exact" if m is None else m
        grid_km = config_error(tmp_path, "grid-km", f"k_list = {k}\nm_list = {depth}\nrecursion = {mode}\n")
        sweep_s = config_error(tmp_path, "sweep-s", f"k = {k}\nm = {depth}\nrecursion = {mode}\n")
        assert grid_km.split(":")[0] in ("k_list", "m_list", "recursion")
        assert sweep_s.split(":")[0] in ("k", "m", "recursion")

    @pytest.mark.parametrize(
        "m, mode", [(None, "chain"), (None, "fresh"), (2, "chain"), (2, "fresh")],
        ids=["exact-chain", "exact-fresh", "dme-chain", "dme-fresh"],
    )
    @pytest.mark.parametrize(
        "key, value", [("theta_start", "nan"), ("theta_stop", "inf"), ("s_start", "nan"), ("s_stop", "-inf")],
        ids=["nan-theta", "inf-theta", "nan-step", "inf-step"],
    )
    def test_non_finite_angles_and_steps_rejected(self, tmp_path, key, value, m, mode):
        # sweep-s reads its angles and step sizes from its config, whose parser
        # rejects a non-finite angle before any depth or recursion applies
        text = f"m = {'exact' if m is None else m}\nrecursion = {mode}\n{key} = {value}\n"
        error = config_error(tmp_path, "sweep-s", text)
        assert error == f"line 3: bad value for {key}: angle must be finite, got '{value}'"

    test_negative_and_large_steps_allowed = pins(SEARCHED, "outside (0, pi]")

    @pytest.mark.parametrize("m, mode", [(None, "fresh"), (2, "chain")])
    def test_overflowing_echo_angle_rejected(self, tmp_path, m, mode):
        # 1e308 is finite, but its echo angle 2e308 under -Z is not: a
        # schedule's s and sweep-s's s grid are checked where they are built
        if m is None:
            error = config_error(tmp_path, "trajectory", f"m = exact\nrecursion = {mode}\ns = 1e308\n")
        else:
            text = f"m = {m}\nrecursion = {mode}\ns_start = 1e308\ns_stop = 1e308\n"
            error = config_error(tmp_path, "sweep-s", text)
        assert "echo angles" in error

    @pytest.mark.parametrize("k, m", [(1, 1.5), (2.5, 1), (2.0, None), (np.float64(2), 1), (1, "2")])
    def test_non_integer_depths_rejected(self, tmp_path, k, m):
        # grid-km's config parses its counts with int: a non-integer is
        # rejected, and the text "2" becomes the int 2
        text = f"k_list = {k}\nm_list = {'exact' if m is None else m}\n"
        if str(k).isdigit() and str(m).isdigit():
            cfg = config(tmp_path, "grid-km", text)
            assert (cfg.k_list, cfg.m_list) == ((int(k),), (int(m),)) and type(cfg.m_list[0]) is int
        else:
            assert "bad value" in config_error(tmp_path, "grid-km", text)

    def test_numpy_int_depths_accepted(self):
        assert optimal_step(0.3, np.int64(2), np.int32(3)) == optimal_step(0.3, 2, 3)
        assert _best_fidelity(0.5, np.int64(2), np.int32(1)) == _best_fidelity(0.5, 2, 1)

    def test_optimal_step_rejects_non_finite_energy(self, tmp_path):
        # the energy is -cos(theta) of grid-km's theta, which its config requires finite
        assert "angle must be finite" in config_error(tmp_path, "grid-km", "theta = nan\n")


def test_via_dme_rejects_damping(tmp_path, traced_runs):
    # the DME runs model no damping: their configs reject t1 where it enters
    assert traced_runs.faults["unusable/sweep-theta-t1-unapplied"] == ""
    error = config_error(tmp_path, "trajectory", "m = 2\nnoise_t1_us = 0.01\n")
    assert error.startswith("noise_t1_us: trajectory would run without it")


def test_simulators_reuse_the_validated_hamiltonian(monkeypatch):
    # H is checked when the spec is built and diagonalized once, on first use;
    # the cooling runs reuse the one shared -Z, diagonalized when dbac is imported
    h = HamiltonianSpec(np.array([[-1.0, 0.3], [0.3, 1.0]], dtype=complex))
    calls = {"check_hermitian": 0, "eigh": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(qmath, "check_hermitian", counting("check_hermitian", qmath.check_hermitian))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    dbac_recursive_exact(rx_init(1.0), DbacSchedule.uniform(10, 0.4, recursion="fresh"))
    dbac_via_dme(np.linspace(0.2, 3.0, 4), DbacSchedule.uniform(5, 0.4, m=3))
    descent_bound_residual(h, rx_init(1.0), np.linspace(0.005, 0.1, 20))
    descent_bound_residual(h, rx_init(2.0), 0.05)
    assert calls == {"check_hermitian": 0, "eigh": 1}


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: dbac_energy_analytic(np.nan, 0.3), ContractViolationError, r"e0 must lie in \[-1, 1\]"),
        # the law's t is a schedule's step size, which the schedule checks where it is built
        (lambda: DbacSchedule(s=(0.3, np.nan)), ContractViolationError, "step durations must be finite"),
        (lambda: hbac_round_closed(np.nan, 0.1, 0.1), ContractViolationError, "polarization must lie in"),
        (lambda: thermal_qubit(np.nan), ContractViolationError, "polarization must lie in"),
        (lambda: hbac_round_closed(0.1, np.nan, np.nan), ContractViolationError, "polarization must lie in"),
        # a partial swap's angle is checked where it enters: ptm's phi_list, by the config's parser
        (lambda: cli._parse_angle_list("0.3, nan"), ValueError, "angle must be finite"),
        (lambda: cli._parse_angle_list("inf"), ValueError, "angle must be finite"),
    ],
    ids=[
        "energy-law-e0", "energy-law-t", "hbac-target", "thermal-qubit", "hbac-bath", "partial-swap-nan",
        "partial-swap-inf",
    ],
)
def test_library_rejects_nan_inputs(call, error, match):
    # each public function turns NaN away with its own message instead of returning NaN, or
    # the value reaches it only through a check that does, where it enters
    with pytest.raises(error, match=match):
        call()


def test_package_import_loads_no_tomography():
    # dbac names NoiseModel in an annotation only, so the package's import stops at the engines
    code = "import sys, dbac_lab; print(*sorted(m for m in sys.modules if m.startswith('dbac_lab.')))"
    src = str(Path(dbac.__file__).parents[1])
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src)).stdout.split()
    assert loaded == ["dbac_lab.dbac", "dbac_lab.dme", "dbac_lab.errors", "dbac_lab.qmath", "dbac_lab.states"]
