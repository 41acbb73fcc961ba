"""Config-driven experiment runner emitting plot-ready CSV/JSON plus a manifest.

Usage:
    dbac-lab <experiment> [--config PATH] [--out DIR] [--seed INT] [--workers N]

Experiments: sweep-theta, sweep-s, grid-km, trotter, ptm, baselines,
trajectory, acceptance.  The config file is line-oriented `key = value` text
with `#` comments; unknown keys, and noise keys the experiment does not apply,
are rejected.  Angles are finite, in radians unless the value carries a `deg`
suffix.  Every run writes `results_manifest.json` with a sha256 checksum per
emitted file; identical config and seed give byte-identical output.  Exit
codes: 0 success, 1 config error, 2 acceptance failure, 3 runtime failure (the
experiment raised after its config was accepted; a one-line `runtime error:
...` goes to stderr and the manifest records the failed stage).

`--workers` (config key `workers`) is accepted for compatibility and must be
>= 1, but it is a no-op: every experiment runs in this process, vectorized
where it pays (sweep-theta simulates all its angles as one batch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, acceptance
from .baselines import PolarizedQubit, cem_round_closed, hbac_step
from .circuits import compile_udme_native, format_number
from .dbac import (
    DbacSchedule,
    basin_min_fidelity,
    dbac_energy_analytic,
    dbac_recursive_exact,
    dbac_via_dme,
    final_fidelities_over_s,
    optimal_step,
)
from .dme import DmeParams, dme_error
from .errors import ContractViolationError
from .qmath import herm_expm, swap_operator
from .states import rx_init
from .tomography import (
    NoiseModel,
    process_fidelity,
    ptm_of_channel,
    ptm_of_circuit,
    ptm_to_csv,
    unitary_channel,
)

EXPERIMENTS = (
    "sweep-theta",
    "sweep-s",
    "grid-km",
    "trotter",
    "ptm",
    "baselines",
    "trajectory",
    "acceptance",
)

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


def _parse_int(text: str) -> int:
    return int(text.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_m_list(text: str):
    """Comma list of depths, or the word `exact` for ideal reflectors."""
    if text.strip().lower() == "exact":
        return None
    return _parse_int_list(text)


def _parse_km_entry(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(None if tok.lower() == "exact" else int(tok))
    return tuple(out)


def _parse_float(text: str) -> float:
    return float(text.strip())


def _parse_str(text: str) -> str:
    return text.strip()


# key -> (parser, attribute). Unknown keys are rejected with the key name.
_SCHEMA = {
    "experiment": (_parse_str, "experiment"),
    "out": (_parse_str, "out"),
    "seed": (_parse_int, "seed"),
    "workers": (_parse_int, "workers"),
    "k": (_parse_int, "k"),
    "m": (_parse_m_list, "m"),
    "s": (_parse_angle_list, "s"),
    "phi": (_parse_angle, "phi"),
    "recursion": (_parse_str, "recursion"),
    "theta": (_parse_angle, "theta"),
    "theta_start": (_parse_angle, "theta_start"),
    "theta_stop": (_parse_angle, "theta_stop"),
    "theta_count": (_parse_int, "theta_count"),
    "s_start": (_parse_angle, "s_start"),
    "s_stop": (_parse_angle, "s_stop"),
    "s_count": (_parse_int, "s_count"),
    "k_list": (_parse_int_list, "k_list"),
    "m_list": (_parse_km_entry, "m_list"),
    "f_target": (_parse_float, "f_target"),
    "t": (_parse_angle, "t"),
    "m_max": (_parse_int, "m_max"),
    "rounds": (_parse_int, "rounds"),
    "eps0": (_parse_float, "eps0"),
    "eps_bath": (_parse_float, "eps_bath"),
    "x0": (_parse_float, "x0"),
    "phi_list": (_parse_angle_list, "phi_list"),
    "noise_p1": (_parse_float, "noise_p1"),
    "noise_p2": (_parse_float, "noise_p2"),
    "noise_t1_us": (_parse_float, "noise_t1_us"),
    "noise_t2_us": (_parse_float, "noise_t2_us"),
}


# The noise keys each experiment applies (trajectory only with finite m).  A
# config that sets any other noise key is rejected rather than run without it.
_NOISE_KEYS = {
    "sweep-theta": ("noise_p1", "noise_p2"),
    "trajectory": ("noise_p1", "noise_p2"),
    "ptm": ("noise_p1", "noise_p2", "noise_t1_us", "noise_t2_us"),
}


@dataclass
class ExperimentConfig:
    experiment: str = ""
    out: str = ""
    seed: int = 0
    workers: int = 1
    k: int = 1
    m: Optional[tuple[int, ...]] = (1,)
    s: tuple[float, ...] = (_PI / 4,)
    phi: float = _PI / 4
    recursion: str = "chain"
    theta: float = _PI / 2
    theta_start: float = 0.0
    theta_stop: float = _PI
    theta_count: int = 181
    s_start: float = 0.05
    s_stop: float = _PI
    s_count: int = 64
    k_list: tuple[int, ...] = (1, 2, 3)
    m_list: tuple = (1, 2, None)
    f_target: float = 0.9
    t: float = _PI / 4
    m_max: int = 64
    rounds: int = 10
    eps0: float = 0.1
    eps_bath: float = 0.1
    x0: float = 0.5
    phi_list: tuple[float, ...] = (0.0, _PI / 8, _PI / 4, _PI / 2)
    noise_p1: float = 0.0
    noise_p2: float = 0.0
    noise_t1_us: Optional[float] = None
    noise_t2_us: Optional[float] = None
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


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    if not cfg.out:
        raise ConfigError("out: an output directory is required")
    if cfg.k < 1:
        raise ConfigError("k: must be >= 1")
    if cfg.m is not None and any(mj < 1 for mj in cfg.m):
        raise ConfigError("m: every Trotter depth must be >= 1")
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
    if abs(cfg.eps0) > 1 or abs(cfg.eps_bath) > 1:
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
    raw = {}
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
            if key not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            parser, attr = _SCHEMA[key]
            try:
                setattr(cfg, attr, parser(value))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
            raw[key] = value
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
    cfg.raw = raw
    return _validate(cfg)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runners: each writes files into `out` and may return a summary
# ---------------------------------------------------------------------------


def _analytic_energy_chain(theta: float, s: Sequence[float]) -> float:
    e = -float(np.cos(theta))
    for sj in s:
        e = dbac_energy_analytic(e, sj)
    return e


def _run_sweep_theta(cfg: ExperimentConfig, out: Path) -> None:
    schedule = cfg.schedule()
    thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_count)
    records = dbac_via_dme(thetas, schedule, cfg.noise())
    n_instr = sum(schedule.m)
    header = ["theta", "E_target"] + [f"E_instr_{i+1}" for i in range(n_instr)] + ["E_analytic"]
    rows = [
        [theta, rec.energies[-1], *rec.instruction_energies, _analytic_energy_chain(theta, schedule.s)]
        for theta, rec in zip(thetas.tolist(), records)
    ]
    _write_csv(out / "sweep_theta.csv", header, rows)


def _run_sweep_s(cfg: ExperimentConfig, out: Path) -> None:
    thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_count)
    svals = np.linspace(cfg.s_start, cfg.s_stop, cfg.s_count)
    m = cfg.m[0]
    rows = []
    for theta in thetas:
        fids = final_fidelities_over_s(float(theta), cfg.k, m, svals, cfg.recursion)
        for s, f in zip(svals, fids):
            rows.append([float(theta), float(s), float(f)])
    _write_csv(out / "sweep_s.csv", ["theta", "s", "F_final"], rows)


def _run_grid_km(cfg: ExperimentConfig, out: Path) -> None:
    e0_ref = -float(np.cos(cfg.theta))
    rows = []
    for k in cfg.k_list:
        for m in cfg.m_list:
            s_opt = optimal_step(e0_ref, k, m, cfg.recursion)
            basin = basin_min_fidelity(k, m, cfg.f_target, cfg.recursion)
            rows.append([k, "exact" if m is None else m, s_opt, basin.f0_min])
    _write_csv(out / "grid_km.csv", ["k", "M", "s_opt", "F_min_basin"], rows)


def _run_trotter(cfg: ExperimentConfig, out: Path) -> None:
    rng = np.random.default_rng(cfg.seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = b @ b.conj().T
    sigma /= np.trace(sigma).real
    rows = []
    for m in range(1, cfg.m_max + 1):
        rows.append([cfg.t, m, dme_error(rho, sigma, DmeParams(cfg.t, m))])
    _write_csv(out / "trotter.csv", ["t", "M", "error"], rows)


def _run_ptm(cfg: ExperimentConfig, out: Path) -> None:
    noise = cfg.noise()
    summary = []
    for i, phi in enumerate(cfg.phi_list):
        target = unitary_channel(herm_expm(swap_operator(2), -1j * phi))
        r_ideal = ptm_of_channel(target, 2)
        circuit = compile_udme_native(phi)
        r_compiled = ptm_of_circuit(circuit)
        (out / f"ptm_analytic_{i}.csv").write_text(ptm_to_csv(r_ideal))
        (out / f"ptm_compiled_{i}.csv").write_text(ptm_to_csv(r_compiled))
        entry = {"phi": float(phi), **{
            f"{key}_noiseless": val for key, val in process_fidelity(r_ideal, r_compiled).items()
        }}
        if noise is not None:
            r_noisy = ptm_of_circuit(circuit, noise)
            (out / f"ptm_noisy_{i}.csv").write_text(ptm_to_csv(r_noisy))
            entry.update(
                {f"{key}_noisy": val for key, val in process_fidelity(r_ideal, r_noisy).items()}
            )
        summary.append(entry)
    (out / "ptm_fidelities.json").write_text(json.dumps(summary, indent=2) + "\n")


def _run_baselines(cfg: ExperimentConfig, out: Path) -> None:
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
    _write_csv(out / "baselines.csv", ["round", "protocol", "metric", "value"], rows)


def _run_trajectory(cfg: ExperimentConfig, out: Path) -> None:
    schedule = cfg.schedule()
    if schedule.m is None:
        rec = dbac_recursive_exact(rx_init(cfg.theta), schedule)
    else:
        rec = dbac_via_dme(cfg.theta, schedule, cfg.noise())
    rows = [[i, b.x, b.y, b.z] for i, b in enumerate(rec.trajectory)]
    _write_csv(out / "trajectory.csv", ["step", "x", "y", "z"], rows)


def _run_acceptance(cfg: ExperimentConfig, out: Path) -> dict:
    results = acceptance.run_all()
    (out / "acceptance.json").write_text(acceptance.to_json(results))
    for r in results:
        status = "PASS" if r.passed else ("FAIL (expected)" if r.expected_failure else "FAIL")
        print(f"{status:>15}  criterion {r.cid}: {r.name}  [{r.detail}]")
    return acceptance.summarize(results)


def run_config(cfg: ExperimentConfig) -> dict:
    """Execute one experiment and write the results manifest; returns the manifest.

    A failure mid-experiment still writes a manifest recording the failed stage
    and whatever files were emitted, then re-raises.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    summary = None
    failure = None
    error = None
    runner = {
        "sweep-theta": _run_sweep_theta,
        "sweep-s": _run_sweep_s,
        "grid-km": _run_grid_km,
        "trotter": _run_trotter,
        "ptm": _run_ptm,
        "baselines": _run_baselines,
        "trajectory": _run_trajectory,
        "acceptance": _run_acceptance,
    }[cfg.experiment]
    try:
        result = runner(cfg, out)
        if cfg.experiment == "acceptance":
            summary = result
    except ConfigError:
        raise
    except Exception as exc:  # record the failed stage before propagating
        error = exc
        failure = f"{type(exc).__name__}: {exc}"
    files = {
        p.name: _sha256(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "results_manifest.json"
    }
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
    if summary is not None:
        manifest["acceptance"] = {
            key: summary[key] for key in ("total", "passed", "failed", "expected_failures", "unexpected_failures")
        }
    (out / "results_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if failure is not None:
        raise RunError(f"experiment failed; manifest records the stage: {failure}") from error
    return manifest


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="dbac-lab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
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
    if cfg.experiment == "acceptance" and manifest["acceptance"]["failed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
