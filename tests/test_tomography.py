from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbac_lab import cli, qmath, tomography
from dbac_lab.circuits import (
    GATE_KINDS,
    Circuit,
    Gate,
    compile_swap3,
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

from conftest import config_error, random_unitary
from oracles import apply_kraus, dense_channel, expm, ptm_of_channel, tol, trace_preserving, unitary_channel


def ptm_of_circuit(c, noise=None):
    return ptm_of_circuits([c], (noise,))[0][0]


ANGLES = st.floats(-2 * np.pi, 2 * np.pi)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 2))
    kinds = [k for k in GATE_KINDS if n == 2 or k != "RZZ"]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "RZZ":
            qubits = draw(st.sampled_from([(0, 1), (1, 0)]))
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        params = (draw(ANGLES),) if kind in ("RX", "RY", "RZ", "RZZ") else ()
        gates.append(Gate(kind, params, qubits))
    return Circuit(n, tuple(gates))


PROBS = st.floats(0.0, 0.2)
# the channel depends on the gate times only through dt/T1 and dt/T2: these T1
# put 2q-gate damping between dt/T1 = 0.04 and 1
T1S = st.floats(0.1, 2.5)


@st.composite
def noise_models(draw):
    kind = draw(st.sampled_from(["p1", "p2", "t1", "t1_t2", "all"]))
    if kind == "p1":
        return NoiseModel(p1=draw(PROBS))
    if kind == "p2":
        return NoiseModel(p2=draw(PROBS))
    t1 = draw(T1S)
    if kind == "t1":
        return NoiseModel(t1_us=t1)
    # t2 < 2 t1 switches the dephasing on
    t2 = t1 * draw(st.floats(0.2, 1.9))
    if kind == "t1_t2":
        return NoiseModel(t1_us=t1, t2_us=t2)
    return NoiseModel(p1=draw(PROBS), p2=draw(PROBS), t1_us=t1, t2_us=t2)


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

    def test_swap_point(self):
        swap = qmath.swap_operator(2)
        compiled = ptm_of_circuit(compile_udme_native(np.pi / 2))
        analytic = ptm_of_channel(unitary_channel(swap), 2)
        assert np.abs(compiled.r - analytic.r).max() < tol("ptm_of_circuits", "ptm_of_channel")

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

    def test_matches_channel_path(self):
        phi = np.pi / 4
        target = unitary_channel(expm(HamiltonianSpec(qmath.swap_operator(2)), -1j * phi))
        a = ptm_of_circuit(compile_udme_native(phi)).r
        b = ptm_of_channel(target, 2).r
        assert np.abs(a - b).max() < tol("ptm_of_circuits", "ptm_of_channel")

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=circuits(), noise=st.none() | noise_models())
    def test_matches_dense_oracle(self, c, noise):
        want = ptm_of_channel(dense_channel(c, noise), c.num_qubits).r
        assert np.abs(ptm_of_circuit(c, noise).r - want).max() < tol("ptm_of_circuits", "dense_channel")

    @pytest.mark.parametrize(
        "noise",
        [
            None,
            NoiseModel(p1=0.01),
            NoiseModel(p2=0.05),
            NoiseModel(t1_us=0.25),
            NoiseModel(t1_us=0.25, t2_us=0.2),
            NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.2),
        ],
        ids=["noiseless", "p1", "p2", "t1", "t1_t2", "all"],
    )
    def test_fixed_circuits_match_dense_oracle(self, noise):
        every_kind = Circuit(2, (
            Gate("RX", (0.3,), (0,)), Gate("RY", (-1.1,), (1,)), Gate("RZ", (2.2,), (0,)),
            Gate("H", (), (1,)), Gate("S", (), (0,)), Gate("SDG", (), (1,)),
            Gate("RZZ", (0.7,), (0, 1)), Gate("RZZ", (-0.4,), (1, 0)),
        ))
        assert {g.kind for g in every_kind.gates} == set(GATE_KINDS)
        one_qubit = Circuit(1, tuple(replace(g, qubits=(0,)) for g in every_kind.gates if len(g.qubits) == 1))
        for c in (every_kind, compile_swap3(), one_qubit):
            want = ptm_of_channel(dense_channel(c, noise), c.num_qubits).r
            assert np.abs(ptm_of_circuit(c, noise).r - want).max() < tol("ptm_of_circuits", "dense_channel")

    def test_noise_ptm_built_once_per_qubit_set(self, monkeypatch):
        built = []
        noise_ptm = tomography._noise_ptm

        def counting(noise, qubits, n):
            built.append(qubits)
            return noise_ptm(noise, qubits, n)

        monkeypatch.setattr(tomography, "_noise_ptm", counting)
        noise = NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.2)
        c = compile_udme_native(0.6)
        got = ptm_of_circuit(c, noise).r
        assert len(c.gates) == 11
        assert sorted(built) == sorted({g.qubits for g in c.gates}) and len(built) == 3
        want = ptm_of_channel(dense_channel(c, noise), 2).r
        assert np.abs(got - want).max() < tol("ptm_of_circuits", "dense_channel")

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
        got = ptm_of_circuit(c, noise).r
        assert sorted(embedded) == [(0,), (0, 1), (1,)]
        monkeypatch.undo()
        want = ptm_of_channel(dense_channel(c, noise), 2).r
        assert np.abs(got - want).max() < tol("ptm_of_circuits", "dense_channel")

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
    def test_kraus_matches_probe(self, rng, n, count):
        # the Kraus operators of a random channel: blocks of a random isometry
        d = 2**n
        kraus = random_unitary(rng, d * count)[:, :d].reshape(count, d, d)
        want = ptm_of_channel(lambda rho: apply_kraus(rho, kraus), n)
        got = tomography._transfer(kraus, n).sum(axis=0)
        assert trace_preserving(want.r) and np.abs(got - want.r).max() < tol("_transfer", "ptm_of_channel")

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


NOISES = [
    None,
    NoiseModel(p1=0.01),
    NoiseModel(p2=0.05),
    NoiseModel(),  # not enabled: noiseless
    NoiseModel(p1=0.01, p2=0.05, t1_us=0.25, t2_us=0.2),
]


@st.composite
def circuit_batches(draw):
    """One to four circuits on one register size, one of them empty."""
    drawn = draw(st.lists(circuits(), min_size=1, max_size=4))
    n = drawn[0].num_qubits
    batch = [c for c in drawn if c.num_qubits == n]
    batch.insert(draw(st.integers(0, len(batch))), Circuit(n, ()))
    return batch


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_mixed_gate_counts_match_dense_oracle(self, n):
        q = (0, 1) if n == 2 else (0,)
        batch = [
            Circuit(n, (Gate("RX", (0.4,), (q[-1],)),)),
            Circuit(n, (Gate("H", (), (0,)), Gate("RZ", (1.3,), (q[-1],)), Gate("S", (), (0,)))),
            Circuit(n, ()),
        ]
        if n == 2:
            batch.append(compile_udme_native(0.9))
        got = ptm_of_circuits(batch, NOISES)
        for ptms, noise in zip(got, NOISES):
            for c, ptm in zip(batch, ptms):
                want = ptm_of_channel(dense_channel(c, noise), n).r
                assert np.abs(ptm.r - want).max() < tol("ptm_of_circuits", "dense_channel")

    def test_gateless_batch_is_identity(self):
        batch = [Circuit(2, ())] * 3
        for ptms in ptm_of_circuits(batch, (None, NoiseModel(p1=0.2))):
            assert len(ptms) == 3 and all(np.array_equal(p.r, np.eye(16)) for p in ptms)

    def test_register_sizes_must_match(self):
        with pytest.raises(DimensionMismatchError):
            ptm_of_circuits([compile_udme_native(0.3), Circuit(1, (Gate("H", (), (0,)),))])

    def test_empty_batch_rejected(self, tmp_path):
        # the ptm run builds one circuit per phi_list angle: its config requires one
        assert config_error(tmp_path, "ptm", "phi_list = ,\n") == "phi_list: give at least one value"

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
        swap = qmath.swap_operator(2)
        got = partial_swap_ptms(phis)
        for phi, u, ptm in zip(phis, partial_swap_unitaries(phis), got, strict=True):
            assert np.array_equal(ptm.r, tomography._transfer(u[None], 2)[0]) and trace_preserving(ptm.r)
            target = expm(HamiltonianSpec(swap), -1j * phi)
            assert np.abs(ptm.r - tomography._transfer(target[None], 2)[0]).max() < 1e-15

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
        noises = (None, NoiseModel(p1=0.01, p2=0.05))  # depolarizing builds no transfer
        monkeypatch.setattr(tomography, "_transfer", counting)
        got = [ptm_of_circuits(batch, noises) for batch in batches]
        assert sizes == [count + 8, 3]
        monkeypatch.undo()
        for batch, by_noise in zip(batches, got):
            for noise, ptms in zip(noises, by_noise):
                for c, ptm in zip(batch, ptms):
                    want = ptm_of_channel(dense_channel(c, noise), c.num_qubits).r
                    assert np.abs(ptm.r - want).max() < tol("ptm_of_circuits", "dense_channel")
