"""Acceptance suite: ten numbered criteria with pinned tolerances.

Each criterion is a plain check returning (passed, detail), and runs
standalone.  One wrapper, `_criterion`, times every check, applies the
wall-time bounds of criteria 1 (< 2 s) and 3 (< 1 s) and builds the result.
Runtimes vary between runs, so they stay out of the summary that
`acceptance.json` holds (identical runs write identical bytes); the CLI puts
them in the run's manifest.  Criteria 1 and 2 check the energy law and the
swap point on the batched engines the program runs, one call each, and
criterion 6 the descent bound on the exact-reflector engine, one call per
instance; the tests check those engines against the dense exact step and
the kron-and-partial-trace step, both in `tests/oracles.py`.  Criterion 7
runs its 19 two-copy rounds as one stack.
Criteria 2 and 4 compose their compiled circuits by `circuit_unitaries`;
criterion 4 compares its 100 with each other and with the closed forms
`partial_swap_unitaries`, and CZ/CNOT/SWAP with their tables, in four stacked
`dist_up_to_global_phase` calls that validate each stack once.
Criterion 5 carries one sub-check (5d) that the implemented protocol family
cannot satisfy: six exact-reflector steps with an optimized common step size
top out near ground fidelity 0.63 when starting one degree away from the
excited state (the best achievable basin edge sits near 178.1 degrees).  The
check runs as stated and is reported as an expected failure rather than being
weakened.
"""

from __future__ import annotations

import functools
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
    circuit_unitaries,
    compile_cnot,
    compile_cz,
    compile_swap3,
    compile_udme_hs,
    compile_udme_native,
    partial_swap_unitaries,
)
from .dbac import (
    DbacSchedule,
    _exact_steps,
    _rx_init,
    best_final_fidelity,
    copies_accounting,
    dbac_energy_analytic,
    descent_bound_residual,
    final_fidelities_over_s,
    step_size_grid,
)
from .dme import bloch_planes, density_matrices, dme_errors, partial_swap, swap_coefficients, swap_operands
from .states import DensityMatrix, HamiltonianSpec, PureState, pseudo_pure, random_density
from .tomography import NoiseModel, partial_swap_ptms, process_fidelity, ptm_of_circuits


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    expected_failure: bool
    detail: str
    runtime_s: float


def _criterion(cid, name, bound=None, expected_failure=False):
    """Turn a check returning ``(passed, detail)`` into a criterion returning
    its :class:`CriterionResult`.  This is the one place a criterion is timed;
    with a wall-time ``bound`` in seconds, the check also fails when it takes
    that long, and its detail says whether it kept within the bound."""
    def wrap(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            started = time.perf_counter()
            passed, detail = check()
            elapsed = time.perf_counter() - started
            if bound is not None:
                passed = passed and elapsed < bound
                detail += f", runtime < {bound:g}s: {elapsed < bound}"
            return CriterionResult(cid, name, bool(passed), expected_failure, detail, round(elapsed, 3))
        return criterion
    return wrap


@_criterion("1", "energy-law oracle equivalence", bound=2.0)
def criterion_1():
    """Energy-law closed form vs one exact-reflector step, each over a 101x101 (theta, t) grid at once."""
    w, v = HamiltonianSpec.default_single_qubit().eig
    grid = np.linspace(0.0, np.pi, 101)
    psi0 = np.repeat(_rx_init(grid, v), grid.size, axis=0)  # theta-major
    (psi1,) = _exact_steps(psi0, np.tile(grid, grid.size)[None], w, "chain")
    e1 = (np.abs(psi1) ** 2 @ w).reshape(grid.size, grid.size)
    worst = float(np.abs(e1 - dbac_energy_analytic(-np.cos(grid)[:, None], grid)).max())
    return worst <= 1e-9, f"max |formula - brute force| = {worst:.3e} (tol 1e-9)"


@_criterion("2", "swap point")
def criterion_2():
    """delta = pi/2 partial swap is an exact SWAP on 100 random pairs, run as
    one kernel batch; compiled U(pi/2) matches SWAP."""
    rng = np.random.default_rng(2024)
    rho, sigma = np.array([(random_density(rng), random_density(rng)) for _ in range(100)]).swapaxes(0, 1)
    step = swap_operands(bloch_planes(rho), swap_coefficients(np.pi / 2))
    worst = float(np.abs(density_matrices(partial_swap(bloch_planes(sigma), step)) - rho).max())
    (u,) = circuit_unitaries([compile_udme_native(np.pi / 2)])
    dist = qmath.dist_up_to_global_phase(u, qmath.swap_operator(2))
    ok = worst <= 1e-12 and dist <= 1e-10
    return ok, f"max channel deviation {worst:.3e} (tol 1e-12); compiled-vs-SWAP distance {dist:.3e} (tol 1e-10)"


@_criterion("3", "trotter error scaling", bound=1.0)
def criterion_3():
    """log-log error slope over M in {1..64} at t = pi/4 within [-1.2, -0.8]."""
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.full((2, 2), 0.5, dtype=complex)
    ms = np.array([1, 2, 4, 8, 16, 32, 64])
    errs = dme_errors(rho, sigma, np.pi / 4, ms)
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    return -1.2 <= slope <= -0.8, f"slope {slope:.4f} (window [-1.2, -0.8])"


@_criterion("4", "compilation equivalence")
def criterion_4():
    """Both compilations match exp(-i phi SWAP) at 50 random angles, all 100
    compiled circuits in one batch; table gate constructions match targets."""
    phis = np.random.default_rng(4).uniform(-np.pi, np.pi, 50)
    circuits = [compile_udme(phi) for compile_udme in (compile_udme_native, compile_udme_hs) for phi in phis]
    un, uh = np.split(circuit_unitaries(circuits), 2)
    targets = partial_swap_unitaries(phis)
    dist = qmath.dist_up_to_global_phase
    worst = max(dist(un, targets).max(), dist(uh, targets).max(), dist(un, uh).max())
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    built = circuit_unitaries([compile_cz(), compile_cnot(), compile_swap3()])
    table = dist(built, np.array([cz, cnot, qmath.swap_operator(2)])).max()
    ok = worst <= 1e-10 and table <= 1e-10
    return ok, f"worst compiled distance {worst:.3e}; worst table-construction distance {table:.3e} (tol 1e-10)"


@_criterion("5a", "F0=0.8 reaches 0.9 at k=1, M=1")
def criterion_5a():
    f_a = best_final_fidelity(0.8, k=1, m=1)
    return f_a >= 0.9, f"best final fidelity {f_a:.4f}"


@_criterion("5b", "F0=0.6 reaches 0.9 at k=2, M=2 with 8 extra copies")
def criterion_5b():
    f_b = best_final_fidelity(0.6, k=2, m=2)
    copies = copies_accounting(DbacSchedule.uniform(2, np.pi / 4, m=2))
    ok = f_b >= 0.9 and copies["inputs_extra"] == 8
    return ok, f"best final fidelity {f_b:.4f}; extra copies {copies['inputs_extra']}"


@_criterion("5c", "F0=0.1 fails at k=2, M=2")
def criterion_5c():
    f_c = best_final_fidelity(0.1, k=2, m=2)
    return f_c < 0.9, f"best final fidelity {f_c:.4f}"


@_criterion("5d", "k=6 exact reflectors reset every theta in 1..179 deg", expected_failure=True)
def criterion_5d():
    degrees = np.arange(1, 180)
    best = final_fidelities_over_s(np.deg2rad(degrees), 6, None, step_size_grid()).max(axis=1)
    worst, fails = int(np.argmin(best)), np.flatnonzero(best < 0.9)
    worst_f, worst_deg = float(best[worst]), int(degrees[worst])
    first_fail = int(degrees[fails[0]]) if fails.size else None
    return worst_f >= 0.9, (
        f"fails from theta={first_fail} deg; worst best-s fidelity {worst_f:.4f} at "
        f"theta={worst_deg} deg (per-step schedules extend only to 178 deg; see README)"
    )


def criterion_5() -> list[CriterionResult]:
    """Basin claims; 5d is the documented expected failure."""
    return [criterion_5a(), criterion_5b(), criterion_5c(), criterion_5d()]


@_criterion("6", "descent bound residual boundedness")
def criterion_6():
    """Descent-bound residual ratios bounded across s in {0.1, 0.05, 0.025},
    each instance's three step sizes in one exact-reflector engine call."""
    rng = np.random.default_rng(6)
    lo, hi = np.inf, -np.inf
    for i in range(50):
        n = 1 + (i % 2)
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = HamiltonianSpec(0.5 * (a + a.conj().T))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = PureState.from_vector(v)
        res = descent_bound_residual(h, psi, np.array([0.1, 0.05, 0.025]))
        ratios = res[1:] / res[:-1]
        lo, hi = min(lo, ratios.min()), max(hi, ratios.max())
    return lo >= 0.2 and hi <= 5.0, f"consecutive-residual ratios within [{lo:.3f}, {hi:.3f}] (window [0.2, 5])"


@_criterion("7", "two-copy purification cross-validation")
def criterion_7():
    """Closed-form vs simulated mixedness-reduction round, all 19 states in one stack."""
    psi = PureState.from_vector(np.array([0.6, 0.8j]))
    xs = [float(round(x, 10)) for x in np.arange(0.05, 0.951, 0.05)]
    sim = cem_round_simulated(np.array([pseudo_pure(x, psi).matrix for x in xs]))
    worst_x, worst_p, strict = 0.0, 0.0, True
    for x, x_sim, p_sim in zip(xs, mixedness_of(sim["rho_next"]), sim["p_success"]):
        closed = cem_round_closed(x)
        worst_x = max(worst_x, abs(x_sim - closed["x_next"]))
        worst_p = max(worst_p, abs(p_sim - closed["p_success"]))
        strict &= closed["x_next"] < x
        strict &= abs(closed["p_success"] - (1 - x / 2 + x * x / 4)) == 0.0
    ok = worst_x <= 1e-12 and worst_p <= 1e-12 and strict
    return ok, f"max |x' dev| {worst_x:.2e}, max |p dev| {worst_p:.2e} (tol 1e-12); strict decrease {strict}"


@_criterion("8", "compression-round gain and unitarity")
def criterion_8():
    """Small-polarization 3/2 gain and unitarity of the compression round."""
    eps = 1e-3
    rho = thermal_qubit(eps)
    reg = qmath.kron_all([rho.matrix] * 3)
    out = ppa_round(DensityMatrix(reg))
    ratio = target_polarization(out) / eps
    spec_in = np.sort(np.linalg.eigvalsh(reg))
    spec_out = np.sort(np.linalg.eigvalsh(out.matrix))
    spec_dev = float(np.abs(spec_in - spec_out).max())
    ok = abs(ratio - 1.5) <= 1e-4 and spec_dev <= 1e-11
    return ok, f"gain ratio {ratio:.6f} (target 1.5 +/- 1e-4); spectrum deviation {spec_dev:.2e} (tol 1e-11)"


@_criterion("9", "transfer-matrix suite")
def criterion_9():
    """Noiseless compiled PTMs are exact; average fidelity decreases with p2."""
    phis = (0.0, np.pi / 8, np.pi / 4, np.pi / 2)
    noises = (None,) + tuple(NoiseModel(p2=p2) for p2 in (0.01, 0.02, 0.04))
    # each angle's compiled PTM, noiseless and at each p2, from one batched pass
    compiled = ptm_of_circuits([compile_udme_native(phi) for phi in phis], noises)
    worst = 0.0
    monotone = True
    for i, r_ideal in enumerate(partial_swap_ptms(phis)):
        f = process_fidelity(r_ideal, compiled[0][i])
        worst = max(worst, abs(f["f_pro"] - 1.0))
        prev = f["f_avg"]
        for noisy in compiled[1:]:
            fav = process_fidelity(r_ideal, noisy[i])["f_avg"]
            monotone &= fav < prev
            prev = fav
    ok = worst <= 1e-9 and monotone
    return ok, f"max |f_pro - 1| noiseless {worst:.2e} (tol 1e-9); f_avg strictly decreasing in p2: {monotone}"


@_criterion("10", "deterministic reruns")
def criterion_10():
    """Identical config and seed produce byte-identical outputs."""
    from . import cli

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
    return ok, f"checksum sets match over {len(sums[0])} file(s): {ok}"


def run_all() -> list[CriterionResult]:
    return [
        criterion_1(), criterion_2(), criterion_3(), criterion_4(), *criterion_5(),
        criterion_6(), criterion_7(), criterion_8(), criterion_9(), criterion_10(),
    ]


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

