import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbac_lab import cli, qmath, tomography
from dbac_lab.circuits import (
    Circuit,
    Gate,
    compile_udme_native,
    partial_swap_unitaries,
)
from dbac_lab.errors import ContractViolationError, DimensionMismatchError
from dbac_lab.states import HamiltonianSpec
from dbac_lab.tomography import (
    NoiseModel,
    PTM,
    partial_swap_ptms,
    pauli_labels,
    process_fidelity,
    ptm_of_circuits,
)

from conftest import random_unitary
from oracles import (
    apply_kraus, check, circuit_batches, expm, kraus_args, noise_models, pins, ptm_of_channel, trace_preserving,
    unitary_channel,
)


def ptm_of_circuit(c, noise=None):
    return ptm_of_circuits([c], (noise,))[0][0]


PTM_DENSE = ("ptm_of_circuits", "dense_channel")


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
        assert trace_preserving(ptm.r)

    test_swap_point = pins(("ptm_of_circuits", "ptm_of_channel"), "swap point")

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
        assert not trace_preserving(ptm_of_channel(half, 1).r)

    def test_labels_ordering(self):
        assert pauli_labels(2)[:5] == ["II", "IX", "IY", "IZ", "XI"]


class TestPtmOfCircuit:
    def test_identity_circuit(self):
        ptm = ptm_of_circuit(compile_udme_native(0.0))
        assert np.abs(ptm.r - np.eye(16)).max() < 1e-12

    test_matches_channel_path = pins(("ptm_of_circuits", "ptm_of_channel"), "quarter")

    def test_noise_lowers_average_fidelity_monotonically(self):
        phi = np.pi / 4
        ideal = ptm_of_channel(unitary_channel(expm(HamiltonianSpec(qmath.swap_operator(2)), -1j * phi)), 2)
        compiled = ptm_of_circuit(compile_udme_native(phi))
        assert trace_preserving(compiled.r)
        prev = process_fidelity(ideal, compiled)["f_avg"]
        for p2 in (0.01, 0.02, 0.04):
            noisy = ptm_of_circuit(compile_udme_native(phi), NoiseModel(p2=p2))
            assert trace_preserving(noisy.r)
            f = process_fidelity(ideal, noisy)["f_avg"]
            assert f < prev
            prev = f

    def test_damping_noise_applies(self):
        c = Circuit(1, (Gate("RX", (np.pi / 2,), (0,)),))
        clean = ptm_of_circuit(c)
        damped = ptm_of_circuit(c, NoiseModel(t1_us=1.0, t2_us=1.2))
        assert np.abs(clean.r - damped.r).max() > 1e-4
        assert trace_preserving(damped.r)


class TestComposedPtm:
    """The composed PTMs against the dense channel, tomographed, as the oracle."""

    test_matches_dense_oracle = pins(PTM_DENSE, "compiled")
    test_fixed_circuits_match_dense_oracle = pins(PTM_DENSE, "every kind")
    test_no_dephasing_edge_matches_dense_oracle = pins(PTM_DENSE, "t2 = 2 t1")

    def test_noise_ptm_built_once_per_qubit_set(self, monkeypatch):
        built = []
        noise_ptm = tomography._noise_ptm

        def counting(noise, qubits, n):
            built.append(qubits)
            return noise_ptm(noise, qubits, n)

        monkeypatch.setattr(tomography, "_noise_ptm", counting)
        noise = NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.2)
        c = compile_udme_native(0.6)
        ptm_of_circuit(c, noise)
        assert len(c.gates) == 11
        assert sorted(built) == sorted({g.qubits for g in c.gates}) and len(built) == 3

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_one_embed_per_qubit_set(self, monkeypatch, noisy):
        embedded = []
        embed_gate = qmath.embed_gate

        def counting(gate, qubits, n):
            embedded.append(tuple(qubits))
            return embed_gate(gate, qubits, n)

        monkeypatch.setattr(qmath, "embed_gate", counting)
        noise = NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.2) if noisy else None
        c = compile_udme_native(0.6)
        ptm_of_circuit(c, noise)
        assert sorted(embedded) == [(0,), (0, 1), (1,)]

    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 1.0])
    def test_depolarizing_is_diagonal(self, p):
        idle = Circuit(2, (Gate("RZ", (0.0,), (1,)),))
        r = ptm_of_circuit(idle, NoiseModel(p1=p)).r
        # 1 - p on every Pauli string that acts on qubit 1, 1 elsewhere
        want = [1.0 if lb[1] == "I" else 1.0 - p for lb in pauli_labels(2)]
        assert np.abs(r - np.diag(want)).max() < 1e-15

    @pytest.mark.parametrize("t1, dt", [(50.0, 1.0), (2.0, 3.0)])
    def test_amplitude_damping_closed_form(self, t1, dt):
        # the channel of a gate of duration dt at this t1: dt/T1 is all it reads
        idle = Circuit(1, (Gate("RZ", (0.0,), (0,)),))
        r = ptm_of_circuit(idle, NoiseModel(t1_us=t1 * tomography.GATE_TIME_1Q_US / dt)).r
        gamma = 1.0 - np.exp(-dt / t1)
        a = np.sqrt(1.0 - gamma)
        want = [[1, 0, 0, 0], [0, a, 0, 0], [0, 0, a, 0], [gamma, 0, 0, 1 - gamma]]
        assert np.abs(r - np.array(want)).max() < 1e-15

    @pytest.mark.parametrize("n, count", [(1, 1), (1, 3), (2, 1), (2, 4)])
    def test_kraus_matches_probe(self, n, count):
        args = kraus_args(0, n, count)
        assert trace_preserving(ptm_of_channel(lambda rho: apply_kraus(rho, args["kraus"]), n).r)
        check(("_transfer", "ptm_of_channel"), **args)

    def test_more_than_two_qubits_rejected(self):
        with pytest.raises(ContractViolationError):
            ptm_of_circuit(Circuit(3, ()))
        with pytest.raises(ContractViolationError):
            tomography._transfer(np.eye(8, dtype=complex)[None], 3)


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
    # a PTM file as the ptm runner emits it: its table, rendered by the one writer
    @staticmethod
    def _csv(ptm):
        return cli._render("ptm.csv", cli._ptm_table(ptm)).decode()

    def test_identity_golden(self):
        ptm = ptm_of_channel(lambda rho: rho, 1)
        assert self._csv(ptm) == IDENTITY_1Q_CSV

    def test_byte_stable(self):
        c = Circuit(1, (Gate("RX", (np.pi / 2,), (0,)),))
        assert self._csv(ptm_of_circuit(c)) == self._csv(ptm_of_circuit(c))

    def test_header_width(self):
        ptm = ptm_of_circuit(compile_udme_native(np.pi / 8))
        lines = self._csv(ptm).splitlines()
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


class TestPtm:
    @pytest.mark.parametrize("bad", ["all", "one", "beside_two"])
    def test_rejects_nan_entries(self, bad):
        mat = {"all": np.full((4, 4), np.nan), "one": np.eye(4), "beside_two": 2 * np.eye(4)}[bad]
        if bad != "all":
            mat[3, 1] = np.nan
        with pytest.raises(ContractViolationError):
            PTM(1, mat)


class TestPtmOfCircuits:
    """The batched pass against each circuit's PTM computed alone."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batch=circuit_batches(), noises=st.lists(st.none() | noise_models(), min_size=1, max_size=3))
    def test_batch_equals_each_alone(self, batch, noises):
        got = ptm_of_circuits(batch, noises)
        assert len(got) == len(noises) and all(len(ptms) == len(batch) for ptms in got)
        for ptms, noise in zip(got, noises):
            for c, ptm in zip(batch, ptms):
                alone = ptm_of_circuit(c, noise)
                assert np.array_equal(ptm.r, alone.r) and trace_preserving(ptm.r)

    test_mixed_gate_counts_match_dense_oracle = pins(PTM_DENSE, "mixed counts")

    def test_gateless_batch_is_identity(self):
        batch = [Circuit(2, ())] * 3
        for ptms in ptm_of_circuits(batch, (None, NoiseModel(p1=0.2))):
            assert len(ptms) == 3 and all(np.array_equal(p.r, np.eye(16)) for p in ptms)

    def test_register_sizes_must_match(self):
        with pytest.raises(DimensionMismatchError):
            ptm_of_circuits([compile_udme_native(0.3), Circuit(1, (Gate("H", (), (0,)),))])

    def test_empty_batch_rejected(self, traced_runs):
        # the ptm run builds one circuit per phi_list angle: its config requires one
        assert traced_runs.faults["unusable/ptm-phi-list-empty"] == ""

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_work_per_qubit_set_not_per_circuit(self, monkeypatch, count):
        embedded, built = [], []
        embed_gate, noise_ptm = qmath.embed_gate, tomography._noise_ptm

        def counting_embed(gate, qubits, n):
            embedded.append(tuple(qubits))
            return embed_gate(gate, qubits, n)

        def counting_noise(noise, qubits, n):
            built.append(qubits)
            return noise_ptm(noise, qubits, n)

        monkeypatch.setattr(qmath, "embed_gate", counting_embed)
        monkeypatch.setattr(tomography, "_noise_ptm", counting_noise)
        batch = [compile_udme_native(phi) for phi in np.linspace(0.1, 1.4, count)]
        # two enabled noise models; None and a model with nothing on are noiseless
        noises = (None, NoiseModel(p2=0.02), NoiseModel(), NoiseModel(p1=0.01, t1_us=0.25))
        got = ptm_of_circuits(batch, noises)
        qubit_sets = [(0,), (0, 1), (1,)]
        assert sorted(embedded) == qubit_sets
        assert sorted(built) == sorted(qubit_sets * 2)
        monkeypatch.undo()
        for ptms, noise in zip(got, noises):
            for c, ptm in zip(batch, ptms):
                assert np.array_equal(ptm.r, ptm_of_circuit(c, noise).r)

    @pytest.mark.parametrize("phis", [[0.0], [0.0, np.pi / 8, np.pi / 4, np.pi / 2], [-0.7, 2.9, 1e-9]])
    def test_partial_swaps_match_kraus_route(self, phis):
        for u, ptm in zip(partial_swap_unitaries(phis), partial_swap_ptms(phis), strict=True):
            assert np.array_equal(ptm.r, tomography._transfer(u[None], 2)[0]) and trace_preserving(ptm.r)
        check(("partial_swap_ptms", "_transfer of expm"), phis=phis)

    @pytest.mark.parametrize("count", [1, 3])
    def test_recurring_gate_objects_transferred_once(self, monkeypatch, count):
        sizes = []
        transfer = tomography._transfer

        def counting(ops, n):
            sizes.append(len(ops))
            return transfer(ops, n)

        # compiled partial swaps share their 8 fixed gates and repeat one RZZ
        # object; an equal gate that is another object is transferred on its own
        rx = Gate("RX", (0.4,), (0,))
        batches = [
            [compile_udme_native(phi) for phi in np.linspace(0.2, 1.2, count)],
            [Circuit(1, (rx, Gate("H", (), (0,)), rx)), Circuit(1, (Gate("RX", (0.4,), (0,)), rx))],
        ]
        # noise builds no transfer: depolarizing is diagonal, relaxation a closed form
        noises = (None, NoiseModel(p1=0.01, p2=0.05), NoiseModel(t1_us=0.25, t2_us=0.2))
        monkeypatch.setattr(tomography, "_transfer", counting)
        for batch in batches:
            ptm_of_circuits(batch, noises)
        assert sizes == [count + 8, 3]
