"""Config-driven experiment runner emitting plot-ready CSV/JSON plus a manifest.

Usage:
    dbac-lab <experiment> [--config PATH] [--out DIR] [--seed INT] [--workers N]

Experiments: sweep-theta, sweep-s, grid-km, trotter, ptm, baselines,
trajectory, acceptance.  The config file is line-oriented `key = value` text
with `#` comments; unknown keys, and noise keys the experiment does not apply,
are rejected.  Each config key is declared once, as an `ExperimentConfig`
field carrying its default and its parser.  Angles are finite, in radians
unless the value carries a `deg` suffix.  Runners return their tables and
`run_config` alone writes them: one writer formats every table at 12
significant digits, and `results_manifest.json` lists exactly the files this
run wrote, each with its sha256 checksum; identical config and seed give
byte-identical output.  Exit codes: 0 success, 1 config error, 2 acceptance
failure, 3 runtime failure (the experiment raised after its config was
accepted; a one-line `runtime error: ...` goes to stderr, the manifest records
the failed stage, and a run whose runner raised emits only that manifest).

`--workers` (config key `workers`) is accepted for compatibility and must be
>= 1, but it is a no-op: every experiment runs in this process, vectorized
where it pays (sweep-theta simulates all its angles as one batch).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, acceptance
from .baselines import PolarizedQubit, cem_round_closed, hbac_step
from .circuits import compile_udme_native
from .dbac import (
    DbacSchedule,
    _energy_law,
    _law_terms,
    basin_min_fidelity,
    dbac_recursive_exact,
    dbac_via_dme,
    final_fidelities_over_s,
    optimal_step,
)
from .dme import dme_errors
from .errors import ContractViolationError
from .qmath import herm_expm, swap_operator
from .states import rx_init
from .tomography import NoiseModel, pauli_labels, process_fidelity, ptm_of_circuit, ptm_of_kraus

_PI = float(np.pi)


class ConfigError(ValueError):
    pass


class RunError(RuntimeError):
    """An experiment raised after its config was accepted (exit code 3)."""


def _parse_angle(text: str) -> float:
    text = text.strip()
    value = float(np.deg2rad(float(text[:-3]))) if text.lower().endswith("deg") else float(text)
    if not np.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def _parse_angle_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_angle(tok) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_m_list(text: str):
    """Comma list of depths, or the word `exact` for ideal reflectors."""
    if text.strip().lower() == "exact":
        return None
    return _parse_int_list(text)


def _parse_km_entry(text: str) -> tuple:
    """Comma list of depths; each `exact` entry stands for ideal reflectors."""
    return tuple(None if tok.strip().lower() == "exact" else int(tok) for tok in text.split(",") if tok.strip())


# The noise keys each experiment applies (trajectory only with finite m).  A
# config that sets any other noise key is rejected rather than run without it.
_NOISE_KEYS = {
    "sweep-theta": ("noise_p1", "noise_p2"),
    "trajectory": ("noise_p1", "noise_p2"),
    "ptm": ("noise_p1", "noise_p2", "noise_t1_us", "noise_t2_us"),
}


def _key(default, parse):
    """A config key: its default and the parser for its `key = value` text."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    experiment: str = _key("", str)
    out: str = _key("", str)
    seed: int = _key(0, int)
    workers: int = _key(1, int)
    k: int = _key(1, int)
    m: Optional[tuple[int, ...]] = _key((1,), _parse_m_list)
    s: tuple[float, ...] = _key((_PI / 4,), _parse_angle_list)
    recursion: str = _key("chain", str)
    theta: float = _key(_PI / 2, _parse_angle)
    theta_start: float = _key(0.0, _parse_angle)
    theta_stop: float = _key(_PI, _parse_angle)
    theta_count: int = _key(181, int)
    s_start: float = _key(0.05, _parse_angle)
    s_stop: float = _key(_PI, _parse_angle)
    s_count: int = _key(64, int)
    k_list: tuple[int, ...] = _key((1, 2, 3), _parse_int_list)
    m_list: tuple = _key((1, 2, None), _parse_km_entry)
    f_target: float = _key(0.9, float)
    t: float = _key(_PI / 4, _parse_angle)
    m_max: int = _key(64, int)
    rounds: int = _key(10, int)
    eps0: float = _key(0.1, float)
    eps_bath: float = _key(0.1, float)
    x0: float = _key(0.5, float)
    phi_list: tuple[float, ...] = _key((0.0, _PI / 8, _PI / 4, _PI / 2), _parse_angle_list)
    noise_p1: float = _key(0.0, float)
    noise_p2: float = _key(0.0, float)
    noise_t1_us: Optional[float] = _key(None, float)
    noise_t2_us: Optional[float] = _key(None, float)
    raw: dict = field(default_factory=dict)

    def schedule(self) -> DbacSchedule:
        if len(self.s) not in (1, self.k):
            raise ConfigError(f"s: give one value or {self.k} per-step values, got {len(self.s)}")
        s = self.s if len(self.s) == self.k else (self.s[0],) * self.k
        m = self.m
        if m is not None:
            if len(m) not in (1, self.k):
                raise ConfigError(f"m: give one value or {self.k} per-step values, got {len(m)}")
            if len(m) != self.k:
                m = (m[0],) * self.k
        return DbacSchedule(s=s, m=m, recursion=self.recursion)

    def noise(self) -> Optional[NoiseModel]:
        if (self.noise_p1, self.noise_p2, self.noise_t1_us, self.noise_t2_us) == (0, 0, None, None):
            return None
        return NoiseModel(
            p1=self.noise_p1, p2=self.noise_p2, t1_us=self.noise_t1_us, t2_us=self.noise_t2_us
        )


# key -> parser. Unknown keys are rejected with the key name.
_PARSERS = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig) if "parse" in f.metadata}


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    if not cfg.out:
        raise ConfigError("out: an output directory is required")
    if cfg.k < 1:
        raise ConfigError("k: must be >= 1")
    if cfg.m is not None and any(mj < 1 for mj in cfg.m):
        raise ConfigError("m: every Trotter depth must be >= 1")
    for name in ("k_list", "m_list", "phi_list"):
        if not getattr(cfg, name):
            raise ConfigError(f"{name}: give at least one value")
    if any(v is not None and v < 1 for v in cfg.k_list + cfg.m_list):
        raise ConfigError("k_list/m_list: every step count and Trotter depth must be >= 1")
    for name in ("theta_count", "s_count"):
        if getattr(cfg, name) < 2:
            raise ConfigError(f"{name}: grid counts must be >= 2")
    if cfg.m_max < 1:
        raise ConfigError("m_max: must be >= 1")
    if not 0.0 < cfg.f_target < 1.0:
        raise ConfigError("f_target: must lie in (0, 1)")
    if cfg.rounds < 1:
        raise ConfigError("rounds: must be >= 1")
    if not 0.0 <= cfg.x0 < 1.0:
        raise ConfigError("x0: must lie in [0, 1)")
    if not (abs(cfg.eps0) <= 1 and abs(cfg.eps_bath) <= 1):  # NaN fails too
        raise ConfigError("eps0/eps_bath: polarizations must lie in [-1, 1]")
    if cfg.workers < 1:
        raise ConfigError("workers: must be >= 1")
    if cfg.recursion not in ("chain", "fresh"):
        raise ConfigError("recursion: must be 'chain' or 'fresh'")
    for name in ("noise_p1", "noise_p2"):
        if not 0.0 <= getattr(cfg, name) <= 1.0:
            raise ConfigError(f"{name}: must lie in [0, 1]")
    if cfg.experiment in ("sweep-theta", "sweep-s") and cfg.m is None:
        raise ConfigError("m: this experiment simulates the instruction-copy protocol; use finite depths")
    if cfg.experiment == "sweep-s" and cfg.m is not None and len(set(cfg.m)) != 1:
        raise ConfigError("m: sweep-s uses one common depth per step")
    if cfg.experiment == "grid-km" and abs(float(np.cos(cfg.theta))) >= 1.0:
        raise ConfigError("theta: |cos(theta)| = 1 is a protocol fixed point; no step optimizes it")
    used = () if cfg.experiment == "trajectory" and cfg.m is None else _NOISE_KEYS.get(cfg.experiment, ())
    for name in ("noise_p1", "noise_p2", "noise_t1_us", "noise_t2_us"):
        if getattr(cfg, name) not in (0, None) and name not in used:
            applied = ", ".join(used) or "none"
            raise ConfigError(f"{name}: {cfg.experiment} would run without it (applies: {applied})")
    try:
        cfg.noise()
        if cfg.experiment in ("sweep-theta", "sweep-s", "trajectory"):
            cfg.schedule()
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def validate_config(
    path: Optional[Path],
    experiment: Optional[str] = None,
    out_override: Optional[Path] = None,
    seed_override: Optional[int] = None,
    workers_override: Optional[int] = None,
) -> ExperimentConfig:
    """Parse and validate a key=value config file; unknown keys are errors."""
    cfg = ExperimentConfig()
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file {path} does not exist")
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _PARSERS[key](value))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
            cfg.raw[key] = value
    if experiment is not None:
        if cfg.experiment and cfg.experiment != experiment:
            raise ConfigError(
                f"experiment: config says {cfg.experiment!r} but the subcommand is {experiment!r}"
            )
        cfg.experiment = experiment
    if out_override is not None:
        cfg.out = str(out_override)
    if seed_override is not None:
        cfg.seed = seed_override
    if workers_override is not None:
        cfg.workers = workers_override
    return _validate(cfg)


# ---------------------------------------------------------------------------
# experiment runners: each returns {file name: payload} and touches no file; a
# `.csv` payload is (header, rows), a `.json` payload the object to dump.  A
# runner may also return fields of its own for the manifest, under the
# manifest's file name, _MANIFEST.  The one writer, run_config, formats every
# table at 12 significant digits, and its manifest lists exactly the files
# this run wrote: none if the runner raised.
# ---------------------------------------------------------------------------

_MANIFEST = "results_manifest.json"


def _analytic_energy_chain(thetas: np.ndarray, s: Sequence[float]) -> np.ndarray:
    """The closed-form energy law's E_k from each angle of ``thetas``, one
    vectorized law step per step size."""
    e = -np.cos(thetas)
    for sj in s:
        e = _energy_law(e, *_law_terms(sj))
    return e


def _run_sweep_theta(cfg: ExperimentConfig) -> dict:
    schedule = cfg.schedule()
    thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_count)
    records = dbac_via_dme(thetas, schedule, cfg.noise())
    n_instr = sum(schedule.m)
    header = ["theta", "E_target"] + [f"E_instr_{i+1}" for i in range(n_instr)] + ["E_analytic"]
    rows = np.column_stack([
        [[theta, rec.energies[-1], *rec.instruction_energies] for theta, rec in zip(thetas.tolist(), records)],
        _analytic_energy_chain(thetas, schedule.s),
    ])
    return {"sweep_theta.csv": (header, rows)}


def _run_sweep_s(cfg: ExperimentConfig) -> dict:
    thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_count)
    svals = np.linspace(cfg.s_start, cfg.s_stop, cfg.s_count)
    fids = final_fidelities_over_s(thetas, cfg.k, cfg.m[0], svals, cfg.recursion)
    rows = np.column_stack([np.repeat(thetas, svals.size), np.tile(svals, thetas.size), fids.ravel()])
    return {"sweep_s.csv": (["theta", "s", "F_final"], rows)}


def _run_grid_km(cfg: ExperimentConfig) -> dict:
    e0_ref = -float(np.cos(cfg.theta))
    rows = []
    for k in cfg.k_list:
        for m in cfg.m_list:
            s_opt = optimal_step(e0_ref, k, m, cfg.recursion)
            basin = basin_min_fidelity(k, m, cfg.f_target, cfg.recursion)
            rows.append([k, "exact" if m is None else m, s_opt, basin.f0_min])
    return {"grid_km.csv": (["k", "M", "s_opt", "F_min_basin"], rows)}


def _run_trotter(cfg: ExperimentConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = b @ b.conj().T
    sigma /= np.trace(sigma).real
    ms = np.arange(1, cfg.m_max + 1)
    rows = [[cfg.t, m, err] for m, err in zip(ms, dme_errors(rho, sigma, cfg.t, ms))]
    return {"trotter.csv": (["t", "M", "error"], rows)}


def _ptm_table(ptm) -> tuple:
    """A PTM as a CSV payload: row-major, with a basis-label column."""
    labels = pauli_labels(ptm.n_qubits)
    return ["basis", *labels], [[lb, *row] for lb, row in zip(labels, ptm.r.tolist())]


def _run_ptm(cfg: ExperimentConfig) -> dict:
    noise = cfg.noise()
    files, summary = {}, []
    for i, phi in enumerate(cfg.phi_list):
        r_ideal = ptm_of_kraus([herm_expm(swap_operator(2), -1j * phi)], 2)
        circuit = compile_udme_native(phi)
        r_compiled = ptm_of_circuit(circuit)
        files[f"ptm_analytic_{i}.csv"] = _ptm_table(r_ideal)
        files[f"ptm_compiled_{i}.csv"] = _ptm_table(r_compiled)
        entry = {"phi": float(phi), **{
            f"{key}_noiseless": val for key, val in process_fidelity(r_ideal, r_compiled).items()
        }}
        if noise is not None:
            r_noisy = ptm_of_circuit(circuit, noise)
            files[f"ptm_noisy_{i}.csv"] = _ptm_table(r_noisy)
            entry.update(
                {f"{key}_noisy": val for key, val in process_fidelity(r_ideal, r_noisy).items()}
            )
        summary.append(entry)
    files["ptm_fidelities.json"] = summary
    return files


def _run_baselines(cfg: ExperimentConfig) -> dict:
    rows = []
    reg = [PolarizedQubit(cfg.eps0)] * 3
    rows.append([0, "hbac", "target_polarization", reg[0].eps])
    for r in range(1, cfg.rounds + 1):
        reg = hbac_step(reg, cfg.eps_bath)
        rows.append([r, "hbac", "target_polarization", reg[0].eps])
    x = cfg.x0
    rows.append([0, "cem", "mixedness", x])
    for r in range(1, cfg.rounds + 1):
        step = cem_round_closed(x)
        x = step["x_next"]
        rows.append([r, "cem", "mixedness", x])
        rows.append([r, "cem", "p_success", step["p_success"]])
    return {"baselines.csv": (["round", "protocol", "metric", "value"], rows)}


def _run_trajectory(cfg: ExperimentConfig) -> dict:
    schedule = cfg.schedule()
    if schedule.m is None:
        rec = dbac_recursive_exact(rx_init(cfg.theta), schedule)
    else:
        rec = dbac_via_dme(cfg.theta, schedule, cfg.noise())
    rows = [[i, b.x, b.y, b.z] for i, b in enumerate(rec.trajectory)]
    return {"trajectory.csv": (["step", "x", "y", "z"], rows)}


def _run_acceptance(cfg: ExperimentConfig) -> dict:
    results = acceptance.run_all()
    for r in results:
        status = "PASS" if r.passed else ("FAIL (expected)" if r.expected_failure else "FAIL")
        print(f"{status:>15}  criterion {r.cid}: {r.name}  [{r.detail}]")
    summary = acceptance.summarize(results)
    counts = ("total", "passed", "failed", "expected_failures", "unexpected_failures")
    record = {key: summary[key] for key in counts}
    record["runtime_s"] = {r.cid: r.runtime_s for r in results}  # varies run to run, so not in the file
    return {"acceptance.json": summary, _MANIFEST: {"acceptance": record}}


_RUNNERS = {
    "sweep-theta": _run_sweep_theta,
    "sweep-s": _run_sweep_s,
    "grid-km": _run_grid_km,
    "trotter": _run_trotter,
    "ptm": _run_ptm,
    "baselines": _run_baselines,
    "trajectory": _run_trajectory,
    "acceptance": _run_acceptance,
}
EXPERIMENTS = tuple(_RUNNERS)


@functools.cache
def _row_format(kinds: tuple) -> str:
    """The `%` format of a row of these types: ints and strings as they are,
    floats (np.float64 included) to 12 significant digits."""
    return ",".join("%s" if issubclass(k, (int, np.integer, str)) else "%.12g" for k in kinds) + "\n"


def _render(name: str, payload) -> bytes:
    """A payload as its file's bytes: a `.json` object dumped with indent 2, or
    a `.csv` table.  A float array of rows is formatted in one operation over
    the whole table, any other rows with one `%` format per row type."""
    if name.endswith(".json"):
        return (json.dumps(payload, indent=2) + "\n").encode()
    header, rows = payload
    if isinstance(rows, np.ndarray):
        body = (",".join(["%.12g"] * rows.shape[1]) + "\n") * len(rows) % tuple(rows.ravel().tolist())
    else:
        body = "".join(_row_format(tuple(map(type, row))) % tuple(row) for row in rows)
    return (",".join(header) + "\n" + body).encode()


def run_config(cfg: ExperimentConfig) -> dict:
    """Execute one experiment, write its files and the results manifest;
    returns the manifest.

    The one writer: each payload the runner returns is rendered once (every
    table at 12 significant digits), written once and hashed from the bytes
    written, so the manifest lists exactly the files this run wrote; older
    files in `out` are left alone, unlisted.  If the runner raises, only the
    manifest is written, recording the failed stage; if writing fails, it
    lists the files already written.  Either way the error is then re-raised
    as RunError.  Fields the runner returns for the manifest (for acceptance,
    the verdicts and each criterion's runtime) are added to it.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    payloads, files, extra, error = {}, {}, {}, None
    try:
        payloads = _RUNNERS[cfg.experiment](cfg)
        extra = payloads.pop(_MANIFEST, {})
        for name in sorted(payloads):
            data = _render(name, payloads[name])
            (out / name).write_bytes(data)
            files[name] = hashlib.sha256(data).hexdigest()
    except ConfigError:
        raise
    except Exception as exc:  # record the failed stage before propagating
        error = exc
    failure = None if error is None else f"{type(error).__name__}: {error}"
    manifest = {
        "tool": "dbac-lab",
        "version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": cfg.raw,
        "files": files,
        "wall_clock_s": round(time.perf_counter() - started, 3),
    }
    if failure is not None:
        manifest["failed_stage"] = {"experiment": cfg.experiment, "error": failure}
    manifest.update(extra)
    (out / _MANIFEST).write_bytes(_render(_MANIFEST, manifest))
    if failure is not None:
        raise RunError(f"experiment failed; manifest records the stage: {failure}") from error
    return manifest


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="dbac-lab", description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = validate_config(
            args.config,
            experiment=args.experiment,
            out_override=args.out,
            seed_override=args.seed,
            workers_override=args.workers,
        )
        manifest = run_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RunError as exc:
        print("runtime error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 3
    if manifest.get("acceptance", {}).get("failed"):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
