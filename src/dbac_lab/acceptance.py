"""Acceptance suite: ten numbered criteria with pinned tolerances.

Each criterion runs standalone and reports pass/fail with a detail string.
Criteria 1 and 3 also bound their own wall time.  Runtimes vary between runs,
so they stay out of the summary that `acceptance.json` holds (identical runs
write identical bytes); the CLI puts them in the run's manifest.
Criterion 5 carries one sub-check (5d) that the implemented protocol family
cannot satisfy: six exact-reflector steps with an optimized common step size
top out near ground fidelity 0.63 when starting one degree away from the
excited state (the best achievable basin edge sits near 178.1 degrees).  The
check runs as stated and is reported as an expected failure rather than being
weakened.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import qmath
from .baselines import (
    cem_round_closed,
    cem_round_simulated,
    mixedness_of,
    ppa_round,
    target_polarization,
    thermal_qubit,
)
from .circuits import (
    circuit_unitary,
    compile_cnot,
    compile_cz,
    compile_swap3,
    compile_udme_hs,
    compile_udme_native,
)
from .dbac import (
    DbacSchedule,
    best_final_fidelity,
    copies_accounting,
    dbac_energy_analytic,
    dbac_step_exact,
    descent_bound_residual,
    final_fidelities_over_s,
    step_size_grid,
)
from .dme import dme_errors, dme_step_exact
from .states import DensityMatrix, HamiltonianSpec, PureState, energy, rx_init
from .tomography import NoiseModel, process_fidelity, ptm_of_circuit, ptm_of_kraus


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    expected_failure: bool
    detail: str
    runtime_s: float


def _result(cid, name, passed, detail, started, expected_failure=False) -> CriterionResult:
    return CriterionResult(
        cid=cid,
        name=name,
        passed=bool(passed),
        expected_failure=bool(expected_failure),
        detail=detail,
        runtime_s=round(time.perf_counter() - started, 3),
    )


def _random_density(rng, dim=2) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def criterion_1() -> CriterionResult:
    """Energy-law closed form vs brute-force stepping on a 101x101 grid."""
    t0 = time.perf_counter()
    h = HamiltonianSpec.default_single_qubit()
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, 101):
        psi = rx_init(theta)
        e0 = energy(psi, h)
        for t in np.linspace(0.0, np.pi, 101):
            e1 = energy(dbac_step_exact(psi, t, h), h)
            worst = max(worst, abs(e1 - dbac_energy_analytic(e0, t)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 2.0
    return _result(
        "1", "energy-law oracle equivalence", ok,
        f"max |formula - brute force| = {worst:.3e} (tol 1e-9), runtime < 2s: {elapsed < 2.0}", t0,
    )


def criterion_2() -> CriterionResult:
    """delta = pi/2 partial swap is an exact SWAP; compiled U(pi/2) matches SWAP."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rho, sigma = _random_density(rng), _random_density(rng)
        out = dme_step_exact(rho, sigma, np.pi / 2).matrix
        worst = max(worst, float(np.abs(out - rho).max()))
    dist = qmath.dist_up_to_global_phase(
        circuit_unitary(compile_udme_native(np.pi / 2)), qmath.swap_operator(2)
    )
    ok = worst <= 1e-12 and dist <= 1e-10
    return _result(
        "2", "swap point", ok,
        f"max channel deviation {worst:.3e} (tol 1e-12); compiled-vs-SWAP distance {dist:.3e} (tol 1e-10)", t0,
    )


def criterion_3() -> CriterionResult:
    """log-log error slope over M in {1..64} at t = pi/4 within [-1.2, -0.8]."""
    t0 = time.perf_counter()
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.full((2, 2), 0.5, dtype=complex)
    ms = np.array([1, 2, 4, 8, 16, 32, 64])
    errs = dme_errors(rho, sigma, np.pi / 4, ms)
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -1.2 <= slope <= -0.8 and elapsed < 1.0
    return _result(
        "3", "trotter error scaling", ok,
        f"slope {slope:.4f} (window [-1.2, -0.8]), runtime < 1s: {elapsed < 1.0}", t0,
    )


def criterion_4() -> CriterionResult:
    """Both compilations match exp(-i phi SWAP); table gate constructions match targets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        phi = float(rng.uniform(-np.pi, np.pi))
        target = qmath.herm_expm(qmath.swap_operator(2), -1j * phi)
        un = circuit_unitary(compile_udme_native(phi))
        uh = circuit_unitary(compile_udme_hs(phi))
        worst = max(
            worst,
            qmath.dist_up_to_global_phase(un, target),
            qmath.dist_up_to_global_phase(uh, target),
            qmath.dist_up_to_global_phase(un, uh),
        )
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    table = max(
        qmath.dist_up_to_global_phase(circuit_unitary(compile_cz()), cz),
        qmath.dist_up_to_global_phase(circuit_unitary(compile_cnot()), cnot),
        qmath.dist_up_to_global_phase(circuit_unitary(compile_swap3()), qmath.swap_operator(2)),
    )
    ok = worst <= 1e-10 and table <= 1e-10
    return _result(
        "4", "compilation equivalence", ok,
        f"worst compiled distance {worst:.3e}; worst table-construction distance {table:.3e} (tol 1e-10)", t0,
    )


def criterion_5() -> list[CriterionResult]:
    """Basin claims; 5d is the documented expected failure."""
    t0 = time.perf_counter()
    f_a = best_final_fidelity(0.8, k=1, m=1)
    ra = _result("5a", "F0=0.8 reaches 0.9 at k=1, M=1", f_a >= 0.9, f"best final fidelity {f_a:.4f}", t0)

    t0 = time.perf_counter()
    f_b = best_final_fidelity(0.6, k=2, m=2)
    copies = copies_accounting(DbacSchedule.uniform(2, np.pi / 4, m=2))
    ok_b = f_b >= 0.9 and copies["inputs_extra"] == 8
    rb = _result(
        "5b", "F0=0.6 reaches 0.9 at k=2, M=2 with 8 extra copies", ok_b,
        f"best final fidelity {f_b:.4f}; extra copies {copies['inputs_extra']}", t0,
    )

    t0 = time.perf_counter()
    f_c = best_final_fidelity(0.1, k=2, m=2)
    rc = _result("5c", "F0=0.1 fails at k=2, M=2", f_c < 0.9, f"best final fidelity {f_c:.4f}", t0)

    t0 = time.perf_counter()
    degrees = np.arange(1, 180)
    best = final_fidelities_over_s(np.deg2rad(degrees), 6, None, step_size_grid()).max(axis=1)
    worst_f, worst_deg, first_fail = 1.0, None, None
    for deg, f in zip(degrees.tolist(), best.tolist()):
        if f < 0.9 and first_fail is None:
            first_fail = deg
        if f < worst_f:
            worst_f, worst_deg = f, deg
    rd = _result(
        "5d", "k=6 exact reflectors reset every theta in 1..179 deg", worst_f >= 0.9,
        f"fails from theta={first_fail} deg; worst best-s fidelity {worst_f:.4f} at "
        f"theta={worst_deg} deg (per-step schedules extend only to 178 deg; see README)", t0,
        expected_failure=True,
    )
    return [ra, rb, rc, rd]


def criterion_6() -> CriterionResult:
    """Descent-bound residual ratios bounded across s in {0.1, 0.05, 0.025}."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    lo, hi = np.inf, -np.inf
    for i in range(50):
        n = 1 + (i % 2)
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = HamiltonianSpec(0.5 * (a + a.conj().T))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = PureState.from_vector(v)
        res = [descent_bound_residual(h, psi, s) for s in (0.1, 0.05, 0.025)]
        for r1, r2 in ((res[1] / res[0], res[2] / res[1]),):
            lo, hi = min(lo, r1, r2), max(hi, r1, r2)
    ok = lo >= 0.2 and hi <= 5.0
    return _result(
        "6", "descent bound residual boundedness", ok,
        f"consecutive-residual ratios within [{lo:.3f}, {hi:.3f}] (window [0.2, 5])", t0,
    )


def criterion_7() -> CriterionResult:
    """Closed-form vs simulated mixedness-reduction round."""
    t0 = time.perf_counter()
    psi = PureState.from_vector(np.array([0.6, 0.8j]))
    worst_x, worst_p, strict = 0.0, 0.0, True
    for x in np.arange(0.05, 0.951, 0.05):
        x = float(round(x, 10))
        closed = cem_round_closed(x)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho = DensityMatrix((1 - x) * proj + 0.5 * x * np.eye(2))
        sim = cem_round_simulated(rho)
        x_sim = mixedness_of(sim["rho_next"])
        worst_x = max(worst_x, abs(x_sim - closed["x_next"]))
        worst_p = max(worst_p, abs(sim["p_success"] - closed["p_success"]))
        strict &= closed["x_next"] < x
        strict &= abs(closed["p_success"] - (1 - x / 2 + x * x / 4)) == 0.0
    ok = worst_x <= 1e-12 and worst_p <= 1e-12 and strict
    return _result(
        "7", "two-copy purification cross-validation", ok,
        f"max |x' dev| {worst_x:.2e}, max |p dev| {worst_p:.2e} (tol 1e-12); strict decrease {strict}", t0,
    )


def criterion_8() -> CriterionResult:
    """Small-polarization 3/2 gain and unitarity of the compression round."""
    t0 = time.perf_counter()
    eps = 1e-3
    rho = thermal_qubit(eps)
    reg = qmath.kron_all([rho.matrix] * 3)
    out = ppa_round(DensityMatrix(reg))
    ratio = target_polarization(out) / eps
    spec_in = np.sort(np.linalg.eigvalsh(reg))
    spec_out = np.sort(np.linalg.eigvalsh(out.matrix))
    spec_dev = float(np.abs(spec_in - spec_out).max())
    ok = abs(ratio - 1.5) <= 1e-4 and spec_dev <= 1e-11
    return _result(
        "8", "compression-round gain and unitarity", ok,
        f"gain ratio {ratio:.6f} (target 1.5 +/- 1e-4); spectrum deviation {spec_dev:.2e} (tol 1e-11)", t0,
    )


def criterion_9() -> CriterionResult:
    """Noiseless compiled PTMs are exact; average fidelity decreases with p2."""
    t0 = time.perf_counter()
    worst = 0.0
    monotone = True
    for phi in (0.0, np.pi / 8, np.pi / 4, np.pi / 2):
        r_ideal = ptm_of_kraus([qmath.herm_expm(qmath.swap_operator(2), -1j * phi)], 2)
        r_compiled = ptm_of_circuit(compile_udme_native(phi))
        f = process_fidelity(r_ideal, r_compiled)
        worst = max(worst, abs(f["f_pro"] - 1.0))
        prev = f["f_avg"]
        for p2 in (0.01, 0.02, 0.04):
            noisy = ptm_of_circuit(compile_udme_native(phi), NoiseModel(p2=p2))
            fav = process_fidelity(r_ideal, noisy)["f_avg"]
            monotone &= fav < prev
            prev = fav
    ok = worst <= 1e-9 and monotone
    return _result(
        "9", "transfer-matrix suite", ok,
        f"max |f_pro - 1| noiseless {worst:.2e} (tol 1e-9); f_avg strictly decreasing in p2: {monotone}", t0,
    )


def criterion_10() -> CriterionResult:
    """Identical config and seed produce byte-identical outputs."""
    from . import cli

    t0 = time.perf_counter()
    cfg_text = (
        "experiment = sweep-theta\n"
        "theta_start = 0\ntheta_stop = 3.141592653589793\ntheta_count = 25\n"
        "k = 1\nm = 2\ns = 0.7853981633974483\nseed = 7\n"
    )
    sums = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.txt"
        cfg.write_text(cfg_text)
        for run in ("r1", "r2"):
            out = Path(tmp) / run
            manifest = cli.run_config(cli.validate_config(cfg, out_override=out))
            sums.append(manifest["files"])
    ok = sums[0] == sums[1] and len(sums[0]) > 0
    return _result(
        "10", "deterministic reruns", ok,
        f"checksum sets match over {len(sums[0])} file(s): {ok}", t0,
    )


def run_all() -> list[CriterionResult]:
    results: list[CriterionResult] = []
    results.append(criterion_1())
    results.append(criterion_2())
    results.append(criterion_3())
    results.append(criterion_4())
    results.extend(criterion_5())
    results.append(criterion_6())
    results.append(criterion_7())
    results.append(criterion_8())
    results.append(criterion_9())
    results.append(criterion_10())
    return results


def summarize(results: list[CriterionResult]) -> dict:
    """The verdicts, without runtimes: equal verdicts give an equal summary."""
    return {
        "total": len(results),
        "passed": sum(r.passed for r in results),
        "failed": [r.cid for r in results if not r.passed],
        "expected_failures": [r.cid for r in results if not r.passed and r.expected_failure],
        "unexpected_failures": [r.cid for r in results if not r.passed and not r.expected_failure],
        "results": [{k: v for k, v in asdict(r).items() if k != "runtime_s"} for r in results],
    }

