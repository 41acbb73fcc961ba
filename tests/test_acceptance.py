"""Acceptance gate: every numbered criterion at its stated tolerance.

One line per criterion is printed on the terminal (run with `pytest -s` or
check the CLI `dbac-lab acceptance` output).  Criterion 5d is a strict
expected failure: six exact-reflector steps with an optimized common step size
cannot reset initializations one degree away from the excited state (the
search-verified optimum is ground fidelity ~0.63 from 179 degrees, with the
basin edge near 178.1 degrees).
"""

import itertools

import numpy as np
import pytest

from dbac_lab import acceptance, dbac, qmath


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {result.cid}: {result.name}  [{result.detail}]")
    return result


def test_criterion_1_energy_law_oracle():
    r = _report(acceptance.criterion_1())
    assert r.passed, r.detail


def test_criterion_2_swap_point():
    r = _report(acceptance.criterion_2())
    assert r.passed, r.detail


def test_criterion_3_trotter_scaling():
    r = _report(acceptance.criterion_3())
    assert r.passed, r.detail


def test_criterion_4_compilation_equivalence():
    r = _report(acceptance.criterion_4())
    assert r.passed, r.detail


@pytest.fixture(scope="module")
def basin_results():
    return {r.cid: r for r in acceptance.criterion_5()}


def test_criterion_5a_basin_k1_m1(basin_results):
    r = _report(basin_results["5a"])
    assert r.passed, r.detail


def test_criterion_5b_basin_k2_m2_with_copies(basin_results):
    r = _report(basin_results["5b"])
    assert r.passed, r.detail


def test_criterion_5c_far_state_fails(basin_results):
    r = _report(basin_results["5c"])
    assert r.passed, r.detail


@pytest.mark.xfail(
    strict=True,
    reason="six-step exact-reflector protocol cannot reach F>=0.9 from theta=179deg; "
    "schedule-search optimum is F~0.63 (basin edge ~178.1deg)",
)
def test_criterion_5d_k6_resets_every_angle(basin_results):
    r = _report(basin_results["5d"])
    assert r.passed, r.detail


def test_criterion_6_descent_bound():
    r = _report(acceptance.criterion_6())
    assert r.passed, r.detail


def test_criterion_7_purification_cross_validation():
    r = _report(acceptance.criterion_7())
    assert r.passed, r.detail


def test_criterion_8_compression_round():
    r = _report(acceptance.criterion_8())
    assert r.passed, r.detail


def test_criterion_9_ptm_suite():
    r = _report(acceptance.criterion_9())
    assert r.passed, r.detail


def test_criterion_10_determinism():
    r = _report(acceptance.criterion_10())
    assert r.passed, r.detail


def test_summary_shape():
    results = [acceptance.criterion_3(), acceptance.criterion_8()]
    summary = acceptance.summarize(results)
    assert summary["total"] == 2
    assert summary["passed"] == 2
    assert summary["unexpected_failures"] == []


def test_bound_is_applied_by_the_timing_wrapper(monkeypatch):
    check = acceptance._criterion("x", "bounded check", bound=0.0)(lambda: (True, "check ran"))
    r = check()
    assert not r.passed
    assert r.detail == "check ran, runtime < 0s: False"
    unbounded = acceptance._criterion("y", "unbounded check")(lambda: (True, "check ran"))()
    assert unbounded.passed and unbounded.detail == "check ran" and unbounded.runtime_s >= 0.0
    monkeypatch.setattr(acceptance.time, "perf_counter", itertools.count(10.0, 3.0).__next__)  # each check takes 3 s
    slow = acceptance._criterion("z", "slow check", bound=2.0)(lambda: (True, "check ran"))()
    assert not slow.passed and slow.detail.endswith("runtime < 2s: False") and slow.runtime_s == 3.0


@pytest.fixture(scope="module")
def all_results():
    return acceptance.run_all()


def test_run_all_order_and_expected_failure(all_results):
    assert [r.cid for r in all_results] == ["1", "2", "3", "4", "5a", "5b", "5c", "5d", "6", "7", "8", "9", "10"]
    assert [r.cid for r in all_results if r.expected_failure] == ["5d"]
    assert [r.cid for r in all_results if not r.passed] == ["5d"]


def test_run_all_results_carry_runtimes(all_results):
    for r in all_results:
        assert isinstance(r.runtime_s, float) and r.runtime_s >= 0.0, r.cid


def _counted(monkeypatch, name, module=acceptance, arg=0):
    """Record the shape of argument ``arg`` of every call made to the engine
    ``name`` as ``module`` binds it."""
    calls, engine = [], getattr(module, name)

    def counting(*args):
        calls.append(np.shape(args[arg]))
        return engine(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneEngineBatch:
    """Criteria 1 and 2 each make one call of a batched engine the program
    runs, over all their points, criterion 6 one per instance, criterion 7 one
    stacked two-copy round, and criterion 4 two, compared in four stacked
    distances; the dense oracles check those engines in test_dbac, test_dme
    and test_circuits."""

    def test_criterion_1_is_one_exact_reflector_step(self, monkeypatch):
        calls = _counted(monkeypatch, "_exact_steps")
        assert acceptance.criterion_1().passed
        assert calls == [(101 * 101, 2)]

    def test_criterion_2_is_one_partial_swap_batch(self, monkeypatch):
        calls = _counted(monkeypatch, "partial_swap")
        assert acceptance.criterion_2().passed
        assert calls == [(3, 100)]

    def test_criterion_6_is_one_exact_reflector_step_per_instance(self, monkeypatch):
        calls = _counted(monkeypatch, "_exact_steps", dbac, arg=1)
        assert acceptance.criterion_6().passed
        # the step sizes' square roots, (1, 3) for each of the 50 instances
        assert calls == [(1, 3)] * 50

    def test_criterion_7_is_one_stacked_round(self, monkeypatch):
        calls = _counted(monkeypatch, "cem_round_simulated")
        assert acceptance.criterion_7().passed
        assert calls == [(19, 2, 2)]

    def test_criterion_4_is_two_unitary_batches(self, monkeypatch):
        calls = _counted(monkeypatch, "circuit_unitaries")
        assert acceptance.criterion_4().passed
        # 50 angles, each compiled two ways; then cz, cnot and swap3
        assert calls == [(100,), (3,)]

    def test_criterion_4_validates_each_stack_once(self, monkeypatch):
        shapes, check = [], qmath.check_unitary

        def counting(u):
            shapes.append(np.shape(u))
            return check(u)

        monkeypatch.setattr(qmath, "check_unitary", counting)
        assert acceptance.criterion_4().passed
        # native vs targets, H/S vs targets, native vs H/S: two 50-stacks per
        # comparison; then cz, cnot and swap3 against their tables
        assert shapes == [(50, 4, 4)] * 6 + [(3, 4, 4)] * 2
