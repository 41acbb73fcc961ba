"""Seeded defects that tier-1 must catch, and their runner.

Each mutant replaces one exact text of one program file.  The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies one mutant there, runs tier-1 with ``-x`` under a time cap, and
prints one line per mutant: its verdict, the time it took and the first test
that failed.  A ``killed`` mutant must fail tier-1; an ``equivalent`` one
changes no result by design, says why, and must pass it.  The runner exits 1
when a verdict differs from the listed one, or when an old text does not
occur exactly once.  Tests are never mutated.

The run only needs each verdict, not the smallest failing example, so it
turns off hypothesis's shrink phase; nothing else of tier-1 changes.

    python -m tests.mutants

runs every mutant, in the listed order, from the repository root.  The list
is ordered fastest first, and only grows: a survivor is answered by a test
that kills it.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CAP = 240  # seconds of tier-1 per mutant; a killed one took at most 21 s on a 2-core VM (a 15 s child timeout)
KILLED = "killed"
PROFILE = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate), database=None)
settings.load_profile("mutants")
"""


class Mutant(NamedTuple):
    name: str
    file: str  # under src/dbac_lab/
    old: str
    new: str
    breaks: str
    verdict: str  # KILLED, or "equivalent: <why no result changes>"


MUTANTS = [
    Mutant("echo-dropped", "dbac.py", "        a = _to_data_frame(out, table.cos_phi, table.sin_phi)\n",
           "        a = out\n", "the search pass leaves its instruction out of the data's frame", KILLED),
    Mutant("partial-swap-x-plane", "dme.py", "    out_x += c2 * x\n", "    out_x += c2 * y\n",
           "partial_swap's x plane reads c2 y", KILLED),
    Mutant("cem-success", "baselines.py", "p_success = 1.0 - 0.5 * x + 0.25 * x * x",
           "p_success = 1.0 - 0.5 * x + 0.25 * x * x + 1e-12", "cem_round_closed's success probability", KILLED),
    Mutant("record-depth-plus-one", "dbac.py", "np.arange(1, m + 1).reshape(-1, 1, 1) for m in",
           "np.arange(2, m + 2).reshape(-1, 1, 1) for m in", "every copy of a DME record step makes one swap more",
           KILLED),
    Mutant("law-increment-sign", "dbac.py", "        np.subtract(p, q, x)\n", "        np.subtract(q, p, x)\n",
           "the exact chain law's increment reads E as q - p", KILLED),
    Mutant("bound-times-ten", "acceptance.py", "passed = passed and elapsed < bound",
           "passed = passed and elapsed < 10 * bound", "a criterion passes up to ten times its wall-time bound", KILLED),
    Mutant("pass-one-step-more", "dbac.py", "    for j in range(k):\n", "    for j in range(k + 1):\n",
           "the search pass makes k + 1 steps", KILLED),
    Mutant("record-recursion-swapped", "dbac.py", 'data = out if recursion == "chain" else r0',
           'data = out if recursion == "fresh" else r0', "the DME record runs chain as fresh and fresh as chain",
           KILLED),
    Mutant("native-angle", "circuits.py", '("RY", np.pi / 2)', '("RY", -np.pi / 2)',
           "the native partial swap's first RY basis change turns the other way", KILLED),
    Mutant("compose-order", "circuits.py", "        r = layer @ r\n", "        r = r @ layer\n",
           "compose multiplies a circuit's gates in reverse order", KILLED),
    Mutant("ry-sign", "circuits.py", "[c, -s, s, c]", "[c, s, -s, c]", "RY rotates the other way", KILLED),
    Mutant("take-padding-side", "circuits.py", "[len(gates)] * (depth - len(gs)) + [where[id(g)] for g in gs]",
           "[where[id(g)] for g in gs] + [len(gates)] * (depth - len(gs))",
           "a shorter circuit's identity padding comes after its gates, not before", KILLED),
    Mutant("data-frame-sign", "dbac.py", "    ry -= sin * x\n", "    ry += sin * x\n",
           "_to_data_frame's y plane rotates the wrong way", KILLED),
    Mutant("last-block-skipped", "dbac.py", "for i in range(0, thetas.size, rows)",
           "for i in range(0, thetas.size - thetas.size % rows or thetas.size, rows)",
           "the search's product batch leaves out its last block when that block is partial", KILLED),
    Mutant("grid-count-one", "cli.py", "_GRID_COUNT = (lambda v: v >= 2,", "_GRID_COUNT = (lambda v: v >= 1,",
           "a one-point theta or s grid is accepted", KILLED),
    Mutant("first-round-bath", "cli.py", "bath = cfg.eps0 if r == 1 else cfg.eps_bath", "bath = cfg.eps_bath",
           "the baselines run's round 1 compresses against eps_bath, not eps0", KILLED),
    Mutant("swap-z-cross-sign", "dme.py", "    out -= cy * x\n", "    out += cy * x\n",
           "swap_z's cross term changes sign", KILLED),
    Mutant("extra-swap", "dbac.py", "for _ in range(table.m - 1):", "for _ in range(table.m):",
           "one swap too many before the search pass's last", KILLED),
    Mutant("largest-factor-key", "cli.py", "key = max(factors, key=factors.get)",
           "key = min(factors, key=factors.get)", "a budget error names the key of the smallest factor", KILLED),
    Mutant("exact-trajectory-noise", "cli.py", "lambda c: () if c.m is None else _NOISE[:2]", "lambda c: _NOISE[:2]",
           "an exact trajectory accepts the noise keys it never applies", KILLED),
    Mutant("marginals-without-p2", "dbac.py", "            margs *= 1.0 - p2\n", "            pass\n",
           "the DME record's instruction marginals lose the p2 scaling", KILLED),
    Mutant("output-without-p1", "dbac.py", "            out *= 1.0 - p1\n", "            pass\n",
           "the DME record's step output loses the p1 scaling", KILLED),
    Mutant("noisy-g-without-q", "dme.py", "dg = d + q * s2 / np.expm1(log_c2) * r",
           "dg = d + s2 / np.expm1(log_c2) * r",
           "partial_swap_power's noisy g loses its factor q", KILLED),
    Mutant("product-cell-digits", "cli.py", 'cell = b"%.12g\\n"', 'cell = b"%.11g\\n"',
           "a product table writes its values with 11 digits", KILLED),
    Mutant("exact-rescale-dropped", "dbac.py", "                plane /= norm\n", "                pass\n",
           "the exact search pass's rescale, dropped", KILLED),
    Mutant("basin-upper-end", "dbac.py", "_BASIN_ENDS = (1e-6, 1.0 - 1e-6)", "_BASIN_ENDS = (1e-6, 1.0 - 1e-5)",
           "the basin bisection's upper end", KILLED),
    Mutant("tie-tol", "dbac.py", "_TIE_TOL = 1e-9", "_TIE_TOL = 1e-6", "optimal_step's tie tolerance", KILLED),
    Mutant("witness-proof", "dbac.py", "itertools.compress(witnesses, self._reached(tried))",
           "itertools.compress(witnesses, ~self._reached(tried))",
           "a basin witness counts as proven when it misses the target", KILLED),
    Mutant("seed-step", "dbac.py", "[_law_terms(_S_GRID)] * k)[0]))\n", "[_law_terms(_S_GRID)] * k)[0])) + 1\n",
           "the witness slots' first step, one grid step off", KILLED),
    Mutant("exact-rescale-off", "dbac.py", "                plane /= norm\n",
           "                plane /= norm * (1 + 1e-15)\n",
           "the exact search pass's rescale, off by 1e-15", KILLED),
    Mutant("acceptance-at-import", "cli.py", "from . import __version__\n", "from . import __version__, acceptance\n",
           "cli imports acceptance, and through it every module, at its own import", KILLED),
    Mutant("dme-errors-scale", "dme.py", "return 0.5 * np.linalg.norm(", "return 0.5 * (1 + 1e-9) * np.linalg.norm(",
           "dme_errors scaled by 1 + 1e-9", KILLED),
    Mutant("trotter-cells", "cli.py", "_product(2, m_max=c.m_max)", "_product(1, m_max=c.m_max)",
           "trotter's cells count one per depth", KILLED),
    Mutant("eig-tol", "states.py", "EIG_TOL = 1e-10", "EIG_TOL = 1e-8", "the eigenvalue tolerance", KILLED),
    Mutant("law-on-e0", "dbac.py", "    return np.stack([np.sin(half), np.cos(half)]) ** 2\n",
           "    e0 = -np.cos(thetas)\n    return np.stack([0.5 * (1.0 + e0), 0.5 * (1.0 - e0)])\n",
           "the exact chain law's populations from E0 = -cos(theta), which rounds away 1 -+ E0 near 0 and pi",
           KILLED),
    Mutant("relaxed-population", "tomography.py", "[1 - e1, 0, 0, e1]", "[e1 - 1, 0, 0, e1]",
           "damping relaxes the z population toward |1>, not |0>", KILLED),
    Mutant("noise-before-gate", "tomography.py", "ptms[idx] = _noise_ptm(noise, qubits, n) @ ptms[idx]",
           "ptms[idx] = ptms[idx] @ _noise_ptm(noise, qubits, n)", "a gate's noise acts before the gate", KILLED),
    Mutant("gate-time-2q", "tomography.py", "GATE_TIME_2Q_US = 0.1\n", "GATE_TIME_2Q_US = 0.11\n",
           "two-qubit gates relax for 0.11 us, not 0.1", KILLED),
    Mutant("dephasing-rate", "tomography.py", "np.exp(-dt / t2)\n", "np.exp(-dt / t2 - 0.01 * dt / noise.t1_us)\n",
           "coherences decay at 1/T2 + 0.01/T1, not 1/T2", KILLED),
    Mutant("t2-unset-rate", "tomography.py", "t2 = 2 * noise.t1_us if", "t2 = 1.9 * noise.t1_us if",
           "with T2 unset, coherences decay at 1/(1.9 T1), not 1/(2 T1)", KILLED),
    Mutant("ptm-cells-noisy", "cli.py", "_PTM_CELLS * (2 + bool(c._set_noise()))", "_PTM_CELLS * 2",
           "a noisy ptm run's cells leave out its third PTM", KILLED),
    Mutant("baselines-cells", "cli.py", "_product(4, rounds=c.rounds)", "_product(2, rounds=c.rounds)",
           "baselines' cells count two per round", KILLED),
    Mutant("record-step-work", "cli.py", "_RECORD_STEP = 5000", "_RECORD_STEP = 500",
           "a DME record step costs a tenth of its work", KILLED),
    Mutant("budget-doubled", "cli.py", "            if size > budget:", "            if size > 2 * budget:",
           "a config up to twice a budget is accepted", KILLED),
    Mutant("average-fidelity", "tomography.py", "f_avg = (d * f_pro + 1.0) / (d + 1.0)",
           "f_avg = (d * f_pro + 1.0) / (d + 2.0)", "process_fidelity's average fidelity divides by d + 2", KILLED),
    Mutant("basin-tol", "dbac.py", "_BASIN_TOL = 1e-4", "_BASIN_TOL = 1.2e-4", "the basin bisection's width",
           "equivalent: (1 - 2e-6) / 2^13 = 1.2207e-4 exceeds both, so both stop at the 14th halving"),
    Mutant("witness-levels", "dbac.py", "_WITNESS_LEVELS = 4", "_WITNESS_LEVELS = 3",
           "fewer witness levels in each basin pass",
           "equivalent: witnesses only skip full-grid passes, never change a decision, and the work bound"
           " SEARCH_ENTRIES is derived from their count"),
]


def _tree(work: Path) -> None:
    """Copy what tier-1 reads into ``work``, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", work)
    (work / "mutant_profile.py").write_text(PROFILE)


def _mutated(mutant: Mutant, src: Path) -> str:
    """The mutant's file under ``src`` with the mutant applied; exits unless
    its old text occurs exactly once."""
    text = (src / "dbac_lab" / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {count} times in src/dbac_lab/{mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[str, float, str]:
    """(verdict, seconds, first failing test) of tier-1 on the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="dbac-mutant-") as tmp:
        work = Path(tmp)
        _tree(work)
        (work / "src" / "dbac_lab" / mutant.file).write_text(_mutated(mutant, work / "src"))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "mutant_profile"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(work / "src"), str(work)]))
        start = time.perf_counter()
        try:
            done = subprocess.run(argv + ["-W", "error::RuntimeWarning"], cwd=work, env=env, capture_output=True,
                                  text=True, timeout=CAP)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)
    return ("survived" if done.returncode == 0 else KILLED), seconds, failed.group(1) if failed else ""


def main() -> int:
    for mutant in MUTANTS:  # every old text, before any tier-1 run
        _mutated(mutant, ROOT / "src")
    wrong = 0
    for mutant in MUTANTS:
        got, seconds, failed = run(mutant)
        want = KILLED if mutant.verdict == KILLED else "survived"
        wrong += got != want
        mark = "ok" if got == want else "UNEXPECTED"
        print(f"{mark:<10} {mutant.name:<24} {got:<8} {seconds:6.1f} s  {failed or mutant.verdict}", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as listed")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
