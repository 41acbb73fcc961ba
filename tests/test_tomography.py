import numpy as np
import pytest

from dbac_lab import qmath
from dbac_lab.circuits import Circuit, Gate, compile_udme_native
from dbac_lab.errors import ContractViolationError
from dbac_lab.tomography import (
    NoiseModel,
    PTM,
    pauli_labels,
    process_fidelity,
    ptm_of_channel,
    ptm_of_circuit,
    ptm_to_csv,
    unitary_channel,
)

from conftest import random_unitary

IDENTITY_1Q_CSV = (
    "basis,I,X,Y,Z\n"
    "I,1,0,0,0\n"
    "X,0,1,0,0\n"
    "Y,0,0,1,0\n"
    "Z,0,0,0,1\n"
)


class TestPtmOfChannel:
    def test_identity_two_qubits(self):
        ptm = ptm_of_channel(lambda rho: rho, 2)
        assert np.abs(ptm.r - np.eye(16)).max() < 1e-14
        assert ptm.trace_preserving

    def test_swap_point(self):
        swap = qmath.swap_operator(2)
        compiled = ptm_of_circuit(compile_udme_native(np.pi / 2))
        analytic = ptm_of_channel(unitary_channel(swap), 2)
        assert np.abs(compiled.r - analytic.r).max() < 1e-12

    def test_fully_depolarizing(self):
        ch = lambda rho: np.trace(rho) * np.eye(2) / 2
        ptm = ptm_of_channel(ch, 1)
        assert np.abs(ptm.r - np.diag([1.0, 0, 0, 0])).max() < 1e-14

    def test_unitary_ptm_is_orthogonal(self, rng):
        for _ in range(5):
            u = random_unitary(rng, 4)
            r = ptm_of_channel(unitary_channel(u), 2).r
            assert np.abs(r.T @ r - np.eye(16)).max() < 1e-9

    def test_composition_matches_product(self, rng):
        u, v = random_unitary(rng), random_unitary(rng)
        r_u = ptm_of_channel(unitary_channel(u), 1).r
        r_v = ptm_of_channel(unitary_channel(v), 1).r
        r_vu = ptm_of_channel(unitary_channel(v @ u), 1).r
        assert np.abs(r_vu - r_v @ r_u).max() < 1e-10

    def test_non_trace_preserving_flagged(self):
        half = lambda rho: 0.5 * rho
        ptm = ptm_of_channel(half, 1)
        assert not ptm.trace_preserving

    def test_labels_ordering(self):
        assert pauli_labels(2)[:5] == ["II", "IX", "IY", "IZ", "XI"]


class TestPtmOfCircuit:
    def test_identity_circuit(self):
        ptm = ptm_of_circuit(compile_udme_native(0.0))
        assert np.abs(ptm.r - np.eye(16)).max() < 1e-12

    def test_matches_channel_path(self):
        phi = np.pi / 4
        target = unitary_channel(qmath.herm_expm(qmath.swap_operator(2), -1j * phi))
        a = ptm_of_circuit(compile_udme_native(phi)).r
        b = ptm_of_channel(target, 2).r
        assert np.abs(a - b).max() < 1e-10

    def test_noise_lowers_average_fidelity_monotonically(self):
        phi = np.pi / 4
        ideal = ptm_of_channel(unitary_channel(qmath.herm_expm(qmath.swap_operator(2), -1j * phi)), 2)
        prev = process_fidelity(ideal, ptm_of_circuit(compile_udme_native(phi)))["f_avg"]
        for p2 in (0.01, 0.02, 0.04):
            noisy = ptm_of_circuit(compile_udme_native(phi), NoiseModel(p2=p2))
            f = process_fidelity(ideal, noisy)["f_avg"]
            assert f < prev
            prev = f

    def test_damping_noise_applies(self):
        c = Circuit(1, (Gate("RX", (np.pi / 2,), (0,)),))
        clean = ptm_of_circuit(c)
        damped = ptm_of_circuit(c, NoiseModel(t1_us=50.0, t2_us=60.0, gate_time_1q_us=1.0))
        assert np.abs(clean.r - damped.r).max() > 1e-4
        assert damped.trace_preserving


class TestProcessFidelity:
    def test_self_fidelity_one(self, rng):
        r = ptm_of_channel(unitary_channel(random_unitary(rng, 4)), 2)
        f = process_fidelity(r, r)
        assert f["f_pro"] == pytest.approx(1.0, abs=1e-12)
        assert f["f_avg"] == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_depolarizing(self):
        ident = ptm_of_channel(lambda rho: rho, 1)
        depol = ptm_of_channel(lambda rho: np.trace(rho) * np.eye(2) / 2, 1)
        f = process_fidelity(ident, depol)
        assert f["f_pro"] == pytest.approx(0.25, abs=1e-12)
        assert f["f_avg"] == pytest.approx(0.5, abs=1e-12)

    def test_blind_to_global_phase(self, rng):
        u = random_unitary(rng)
        a = ptm_of_channel(unitary_channel(u), 1)
        b = ptm_of_channel(unitary_channel(np.exp(1j * 0.83) * u), 1)
        assert process_fidelity(a, b)["f_pro"] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_for_unitaries(self, rng):
        a = ptm_of_channel(unitary_channel(random_unitary(rng)), 1)
        b = ptm_of_channel(unitary_channel(random_unitary(rng)), 1)
        assert process_fidelity(a, b)["f_avg"] == pytest.approx(process_fidelity(b, a)["f_avg"])


class TestCsvExport:
    def test_identity_golden(self):
        ptm = ptm_of_channel(lambda rho: rho, 1)
        assert ptm_to_csv(ptm) == IDENTITY_1Q_CSV

    def test_byte_stable(self):
        c = Circuit(1, (Gate("RX", (np.pi / 2,), (0,)),))
        assert ptm_to_csv(ptm_of_circuit(c)) == ptm_to_csv(ptm_of_circuit(c))

    def test_header_width(self):
        ptm = ptm_of_circuit(compile_udme_native(np.pi / 8))
        lines = ptm_to_csv(ptm).splitlines()
        assert len(lines) == 17
        assert all(len(line.split(",")) == 17 for line in lines)


class TestNoiseModel:
    def test_rejects_bad_probability(self):
        with pytest.raises(ContractViolationError):
            NoiseModel(p1=1.5)

    def test_rejects_t2_beyond_2t1(self):
        with pytest.raises(ContractViolationError):
            NoiseModel(t1_us=10.0, t2_us=25.0)

    def test_t2_requires_t1(self):
        with pytest.raises(ContractViolationError):
            NoiseModel(t2_us=10.0)

    @pytest.mark.parametrize(
        "t1, t2", [(float("nan"), None), (float("nan"), 10.0), (10.0, float("nan")), (-1.0, None)]
    )
    def test_rejects_nan_and_nonpositive_times(self, t1, t2):
        with pytest.raises(ContractViolationError):
            NoiseModel(t1_us=t1, t2_us=t2)

    def test_ptm_entries_bounded(self):
        with pytest.raises(ContractViolationError):
            PTM(1, 2 * np.eye(4))
