"""Config-driven experiment runner emitting plot-ready CSV/JSON plus a manifest.

Usage:
    dbac-lab <experiment> [--config PATH] [--out DIR] [--seed INT]

Experiments: sweep-theta, sweep-s, grid-km, trotter, ptm, baselines,
trajectory, acceptance.  The config file is line-oriented `key = value` text
with `#` comments; unknown keys, keys set twice, and noise keys the experiment
does not apply, are rejected.  Each config key is declared once, as a field of
the frozen `ExperimentConfig` carrying its default, its parser and its rule;
each experiment is declared once in `_EXPERIMENTS` with its runner, the
noise keys it applies, the values built for its runner and its two costs.
Constructing a config runs every check, the budgets before any build, and
builds, once, the schedule, noise model and grids its runner reads.
Angles are finite, in radians unless the value carries a `deg` suffix; `seed`
is >= 0; a grid's span and every step size's echo angle s (w_max - w_min)
must be finite.  A config whose batch and table hold more than
`CELL_BUDGET` values (sweep-s, sweep-theta, trajectory, trotter, baselines
and ptm), or whose partial-swap work exceeds `WORK_BUDGET` (sweep-s,
grid-km, sweep-theta and trajectory), is a config error naming the key with
the largest factor.
Runners return their tables and `run_config` alone writes them: one writer
formats every table at 12 significant digits, one format per table, and
`results_manifest.json` lists exactly the files this run wrote, each with its
sha256 checksum, and the environment (python, numpy, BLAS, core count);
identical config and seed give byte-identical output.  Exit codes: 0
success, 1 config or usage error (an unusable `--out` too, and a `--config`
that is not a readable UTF-8 file: a one-line `config error: ...` goes to
stderr), 2 acceptance failure, 3 runtime failure (the experiment raised after
its config was accepted, or its manifest could not be written; a one-line
`runtime error: ...` goes to stderr, the manifest, when written, records the
failed stage, and a run whose runner raised emits only that manifest).

The config key `workers` (>= 1, read by nothing) is accepted only for perfbench's configs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .dbac import (
    RECURSION_MODES,
    SEARCH_ENTRIES,
    DbacSchedule,
    basin_min_fidelity,
    chain_law_energies,
    check_step_sizes,
    dbac_recursive_exact,
    dbac_via_dme,
    final_fidelities_over_s,
    optimal_step,
)
from .dme import NoiseModel, dme_errors
from .errors import ContractViolationError
from .states import random_density, rx_init

_PI = float(np.pi)
# The most partial-swap entry-steps (one swap applied to one batch entry) that
# an accepted config may make; the README derives it from the measured rate.
WORK_BUDGET = 10**9
# The most values the batch and table of an accepted config may hold
# (an experiment's `cells`); the README derives it from the measured peak RSS
# per value.
CELL_BUDGET = 5 * 10**6
# The DME record's cost in those entry-steps, about 20 ns each: a cooling step
# costs 44-97 us besides its batch, and each state and instruction marginal of
# each angle 130-200 ns (README).
_RECORD_STEP = 5000
_RECORD_VALUE = 10
# An exact-reflector step of trajectory's one state vector, 10-15 us (README).
_EXACT_STEP = 1000
# A search step's own cost, besides its M swaps, in swaps per batch entry: its
# echo rotation and operand build, 1.4-4.6 swaps measured at M = 1 (README).
_SEARCH_STEP = 4
# The cells of one PTM that ptm builds per angle, with its table: 38 KB of
# peak RSS per angle for two PTMs, 46 KB for three (README).
_PTM_CELLS = 100


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


def _key(default, parse, rule=None):
    """A config key: its default, the parser for its `key = value` text and
    its rule, a (test, message) pair: a value the test rejects is the config
    error `<key>: <message>`.  Every rule is written so that NaN fails it."""
    return field(default=default, metadata={"parse": parse, "rule": rule})


_COUNT = (lambda v: v >= 1, "must be >= 1")
_GRID_COUNT = (lambda v: v >= 2, "grid counts must be >= 2")
_PROBABILITY = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_POLARIZATION = (lambda v: abs(v) <= 1, "polarization must lie in [-1, 1]")
_DEPTHS = (lambda v: v is None or all(mj >= 1 for mj in v), "every Trotter depth must be >= 1")
_NONEMPTY = (bool, "give at least one value")
_KM_ENTRIES = (lambda v: v and all(x is None or x >= 1 for x in v), "give at least one value, each >= 1")


def _built(keys: str):
    """A value validation builds once, cached, for the runners that read it; a
    library contract violation while building it is a config error naming
    `keys`, the keys it derives from."""

    def wrap(build):
        def checked(self):
            try:
                return build(self)
            except ContractViolationError as exc:
                raise ConfigError(f"{keys}: {exc}") from exc

        return functools.cached_property(checked)

    return wrap


def _grid(start: float, stop: float, count: int) -> np.ndarray:
    """np.linspace(start, stop, count), read-only; its span must be finite."""
    if not np.isfinite(stop - start):
        raise ContractViolationError("the grid's span must be finite")
    grid = np.linspace(start, stop, count)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's config: valid by construction, immutable, and holding
    what its runner reads (schedule, noise model, grids), built once here."""

    experiment: str = _key("", str)
    out: str = _key("", str)
    seed: int = _key(0, int, (lambda v: v >= 0, "must be >= 0"))
    workers: int = _key(1, int, _COUNT)
    k: int = _key(1, int, _COUNT)
    m: Optional[tuple[int, ...]] = _key((1,), _parse_m_list, _DEPTHS)
    s: tuple[float, ...] = _key((_PI / 4,), _parse_angle_list)
    recursion: str = _key("chain", str, (lambda v: v in RECURSION_MODES, "must be 'chain' or 'fresh'"))
    theta: float = _key(_PI / 2, _parse_angle)
    theta_start: float = _key(0.0, _parse_angle)
    theta_stop: float = _key(_PI, _parse_angle)
    theta_count: int = _key(181, int, _GRID_COUNT)
    s_start: float = _key(0.05, _parse_angle)
    s_stop: float = _key(_PI, _parse_angle)
    s_count: int = _key(64, int, _GRID_COUNT)
    k_list: tuple[int, ...] = _key((1, 2, 3), _parse_int_list, _KM_ENTRIES)
    m_list: tuple = _key((1, 2, None), _parse_km_entry, _KM_ENTRIES)
    f_target: float = _key(0.9, float, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"))
    t: float = _key(_PI / 4, _parse_angle)
    m_max: int = _key(64, int, _COUNT)
    rounds: int = _key(10, int, _COUNT)
    eps0: float = _key(0.1, float, _POLARIZATION)
    eps_bath: float = _key(0.1, float, _POLARIZATION)
    x0: float = _key(0.5, float, (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"))
    phi_list: tuple[float, ...] = _key((0.0, _PI / 8, _PI / 4, _PI / 2), _parse_angle_list, _NONEMPTY)
    noise_p1: float = _key(0.0, float, _PROBABILITY)
    noise_p2: float = _key(0.0, float, _PROBABILITY)
    noise_t1_us: Optional[float] = _key(None, float)
    noise_t2_us: Optional[float] = _key(None, float)
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if not self.out:
            raise ConfigError("out: an output directory is required")
        for name, (test, message) in _RULES:
            if not test(getattr(self, name)):
                raise ConfigError(f"{name}: {message}")
        if self.experiment in ("sweep-theta", "sweep-s") and self.m is None:
            raise ConfigError("m: this experiment simulates the instruction-copy protocol; use finite depths")
        if self.experiment == "sweep-s" and len(set(self._given("m"))) != 1:
            raise ConfigError("m: sweep-s uses one common depth per step")
        if self.experiment == "grid-km" and abs(float(np.cos(self.theta))) >= 1.0:
            raise ConfigError("theta: |cos(theta)| = 1 is a protocol fixed point; no step optimizes it")
        record = _EXPERIMENTS[self.experiment]
        applied = record.noise(self)
        for name in self._set_noise():
            if name not in applied:
                applies = ", ".join(applied) or "none"
                raise ConfigError(f"{name}: {self.experiment} would run without it (applies: {applies})")
        for (size, factors), budget, what in (
            (record.cells(self), CELL_BUDGET, "batch and table values"),
            (record.work(self), WORK_BUDGET, "partial-swap entry-steps"),
        ):
            if size > budget:  # named by the key with the largest factor
                key = max(factors, key=factors.get)
                raise ConfigError(f"{key}: the run's {what} would exceed the budget, {budget:.0e}")
        for name in record.built:  # build, once, what the runner reads, within the budgets
            getattr(self, name)

    def _set_noise(self) -> tuple:
        """The noise keys set: those that differ from their defaults."""
        return tuple(name for name in _NOISE if getattr(self, name) != _DEFAULTS[name])

    def _given(self, name: str) -> tuple:
        """Key `name` (s or m), which holds one value or k per-step values."""
        values = getattr(self, name)
        if len(values) not in (1, self.k):
            raise ConfigError(f"{name}: give one value or {self.k} per-step values, got {len(values)}")
        return values

    def _per_step(self, name: str) -> tuple:
        """Key `name` (s or m) as k per-step values, given one value or k."""
        values = self._given(name)
        return values * (self.k // len(values))

    def _copies(self) -> int:
        """n, the instruction copies of the run's schedule (the sum of its
        depths), from the raw key values; 0 for exact reflectors."""
        return 0 if self.m is None else self.k * self.m[0] if len(self.m) == 1 else sum(self.m)

    @_built("s/m")
    def schedule(self) -> DbacSchedule:
        s = self._per_step("s")
        return DbacSchedule(s=s, m=None if self.m is None else self._per_step("m"), recursion=self.recursion)

    @_built("noise_*")
    def noise(self) -> Optional[NoiseModel]:
        if not self._set_noise():
            return None
        return NoiseModel(p1=self.noise_p1, p2=self.noise_p2, t1_us=self.noise_t1_us, t2_us=self.noise_t2_us)

    @_built("theta_start/theta_stop")
    def theta_grid(self) -> np.ndarray:
        return _grid(self.theta_start, self.theta_stop, self.theta_count)

    @_built("s_start/s_stop")
    def s_grid(self) -> np.ndarray:
        return check_step_sizes(_grid(self.s_start, self.s_stop, self.s_count))


# key -> parser (unknown keys are rejected with the key name), key -> default,
# and each key's rule, in declaration order; the noise keys
_PARSERS = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig) if "parse" in f.metadata}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_RULES = [(f.name, f.metadata["rule"]) for f in fields(ExperimentConfig) if f.metadata.get("rule")]
_NOISE = ("noise_p1", "noise_p2", "noise_t1_us", "noise_t2_us")


def validate_config(
    path: Optional[Path],
    experiment: Optional[str] = None,
    out_override: Optional[Path] = None,
    seed_override: Optional[int] = None,
) -> ExperimentConfig:
    """Parse a key=value config file (unknown keys are errors) and the
    overrides into one validated :class:`ExperimentConfig`."""
    values, raw, first_set = {}, {}, {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as file:
                text = file.read()
        except FileNotFoundError as exc:
            raise ConfigError(f"config file {path} does not exist") from exc
        except (OSError, UnicodeDecodeError) as exc:  # a directory, an unreadable file, a non-UTF-8 byte
            raise ConfigError(f"config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in first_set:
                raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {first_set[key]})")
            first_set[key] = lineno
            try:
                values[key] = _PARSERS[key](value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
            raw[key] = value
    if experiment is not None:
        if values.get("experiment") and values["experiment"] != experiment:
            raise ConfigError(
                f"experiment: config says {values['experiment']!r} but the subcommand is {experiment!r}"
            )
        values["experiment"] = experiment
    if out_override is not None:
        values["out"] = str(out_override)
    if seed_override is not None:
        values["seed"] = seed_override
    return ExperimentConfig(**values, raw=raw)


# ---------------------------------------------------------------------------
# experiment runners: each returns {file name: payload} and touches no file; a
# `.csv` payload is (header, rows) or (header, axes, values), a `.json`
# payload the object to dump.  A runner may also return fields of its own for
# the manifest, under the manifest's file name, _MANIFEST.  Rows are a float
# array, or a list of rows whose columns each keep one kind.  A table whose
# rows are the Cartesian product of float axes (sweep-s: theta x s) is given
# by its axes and a float array of values shaped by them, one value per row:
# the writer formats each axis value once.  The payload's shape alone selects
# the form.  The one writer, run_config, formats every table at 12
# significant digits, and its manifest lists exactly the files this run
# wrote: none if the runner raised.  A runner imports what only it runs
# (circuits and tomography for ptm, baselines, acceptance) when it runs, so
# importing cli loads the engine modules alone.
# ---------------------------------------------------------------------------

_MANIFEST = "results_manifest.json"


def _run_sweep_theta(cfg: ExperimentConfig) -> dict:
    schedule, thetas = cfg.schedule, cfg.theta_grid
    rec = dbac_via_dme(thetas, schedule, cfg.noise)
    header = ["theta", "E_target"] + [f"E_instr_{i+1}" for i in range(sum(schedule.m))] + ["E_analytic"]
    law = chain_law_energies(thetas, schedule.s)
    rows = np.column_stack([thetas, rec.energies[:, -1], rec.instruction_energies, law])
    return {"sweep_theta.csv": (header, rows)}


def _run_sweep_s(cfg: ExperimentConfig) -> dict:
    thetas, svals = cfg.theta_grid, cfg.s_grid
    fids = final_fidelities_over_s(thetas, cfg.k, cfg.m[0], svals, cfg.recursion)
    return {"sweep_s.csv": (["theta", "s", "F_final"], (thetas, svals), fids)}


def _run_grid_km(cfg: ExperimentConfig) -> dict:
    e0_ref = -float(np.cos(cfg.theta))
    rows = []
    for k in cfg.k_list:
        for m in cfg.m_list:
            s_opt = optimal_step(e0_ref, k, m, cfg.recursion)
            f0_min = basin_min_fidelity(k, m, cfg.f_target, cfg.recursion)
            rows.append([k, "exact" if m is None else m, s_opt, f0_min])
    return {"grid_km.csv": (["k", "M", "s_opt", "F_min_basin"], rows)}


def _run_trotter(cfg: ExperimentConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    rho, sigma = random_density(rng), random_density(rng)
    ms = np.arange(1, cfg.m_max + 1)
    rows = np.column_stack([np.full(ms.size, cfg.t), ms, dme_errors(rho, sigma, cfg.t, ms)])
    return {"trotter.csv": (["t", "M", "error"], rows)}


def _ptm_table(ptm) -> tuple:
    """A PTM as a CSV payload: row-major, with a basis-label column."""
    from .tomography import pauli_labels

    labels = pauli_labels(ptm.n_qubits)
    return ["basis", *labels], [[lb, *row] for lb, row in zip(labels, ptm.r.tolist())]


def _run_ptm(cfg: ExperimentConfig) -> dict:
    """Every angle's ideal, compiled and (with a noise model) noisy PTM: the
    ideal ones from one stacked transfer, the compiled and noisy ones from one
    batched `ptm_of_circuits` pass over all the compiled circuits."""
    from .circuits import compile_udme_native
    from .tomography import partial_swap_ptms, process_fidelity, ptm_of_circuits

    noises = (None,) if cfg.noise is None else (None, cfg.noise)
    ideal = partial_swap_ptms(cfg.phi_list)
    built = ptm_of_circuits([compile_udme_native(phi) for phi in cfg.phi_list], noises)
    files, summary = {}, []
    for i, phi in enumerate(cfg.phi_list):
        files[f"ptm_analytic_{i}.csv"] = _ptm_table(ideal[i])
        entry = {"phi": float(phi)}
        for (tag, suffix), ptms in zip((("compiled", "noiseless"), ("noisy", "noisy")), built):
            files[f"ptm_{tag}_{i}.csv"] = _ptm_table(ptms[i])
            entry.update({f"{key}_{suffix}": val for key, val in process_fidelity(ideal[i], ptms[i]).items()})
        summary.append(entry)
    files["ptm_fidelities.json"] = summary
    return files


def _run_baselines(cfg: ExperimentConfig) -> dict:
    from .baselines import cem_round_closed, hbac_round_closed

    eps = cfg.eps0
    rows = [[0, "hbac", "target_polarization", eps]]
    for r in range(1, cfg.rounds + 1):
        bath = cfg.eps0 if r == 1 else cfg.eps_bath  # round 1 compresses three eps0 qubits
        eps = hbac_round_closed(eps, bath, bath)
        rows.append([r, "hbac", "target_polarization", eps])
    x = cfg.x0
    rows.append([0, "cem", "mixedness", x])
    for r in range(1, cfg.rounds + 1):
        step = cem_round_closed(x)
        x = step["x_next"]
        rows.append([r, "cem", "mixedness", x])
        rows.append([r, "cem", "p_success", step["p_success"]])
    return {"baselines.csv": (["round", "protocol", "metric", "value"], rows)}


def _run_trajectory(cfg: ExperimentConfig) -> dict:
    schedule = cfg.schedule
    if schedule.m is None:
        rec = dbac_recursive_exact(rx_init(cfg.theta), schedule)
    else:
        rec = dbac_via_dme(cfg.theta, schedule, cfg.noise)
    rows = np.column_stack([np.arange(len(rec.trajectory)), rec.trajectory])
    return {"trajectory.csv": (["step", "x", "y", "z"], rows)}


def _run_acceptance(cfg: ExperimentConfig) -> dict:
    from . import acceptance

    results = acceptance.run_all()
    for r in results:
        status = "PASS" if r.passed else ("FAIL (expected)" if r.expected_failure else "FAIL")
        print(f"{status:>15}  criterion {r.cid}: {r.name}  [{r.detail}]")
    summary = acceptance.summarize(results)
    counts = ("total", "passed", "failed", "expected_failures", "unexpected_failures")
    record = {key: summary[key] for key in counts}
    record["runtime_s"] = {r.cid: r.runtime_s for r in results}  # varies run to run, so not in the file
    return {"acceptance.json": summary, _MANIFEST: {"acceptance": record}}


def _product(weight: int, **factors) -> tuple[int, dict]:
    """A cost: `weight` times the product of its factors, and the factors."""
    return weight * math.prod(factors.values()), factors


def _record_cells(cfg: ExperimentConfig, weight: int, angles: dict) -> tuple[int, dict]:
    """A DME record's cells: `weight`·T(k + 1 + n), T the product of the
    `angles` counts and n the sum of the depths (0 for exact reflectors),
    the states and marginals of each angle's record."""
    depths = {} if cfg.m is None else {"m": max(cfg.m, default=0)}
    return weight * math.prod(angles.values()) * (cfg.k + 1 + cfg._copies()), {**angles, "k": cfg.k, **depths}


def _record_work(cfg: ExperimentConfig, angles: dict) -> tuple[int, dict]:
    """A DME record's work: _RECORD_STEP per cooling step plus _RECORD_VALUE
    per state after the first and instruction marginal of each angle,
    T(k + n); the exact record's, _EXACT_STEP per step."""
    if cfg.m is None:
        return _EXACT_STEP * cfg.k, {"k": cfg.k}
    values = math.prod(angles.values()) * (cfg.k + cfg._copies())
    return _RECORD_STEP * cfg.k + _RECORD_VALUE * values, {**angles, "k": cfg.k, "m": max(cfg.m, default=0)}


class _Experiment(NamedTuple):
    """One experiment: its runner; the noise keys it applies, given its
    config; the values validation builds for the runner; and its two costs,
    each a (size, factors) pair from the raw key values, with 0 where no
    budget bounds it yet.  `cells` is the values, in units of about 200 bytes
    of peak RSS, that the run's batch and table hold; `work` is the
    partial-swap entry-steps it makes (sweep-s), at most makes (grid-km) or
    costs (the DME record), a search step's own cost counted as
    `_SEARCH_STEP` more swaps.  A size over its budget is refused, named by the
    key of the largest factor, the first of a tie."""

    run: Callable[[ExperimentConfig], dict]
    noise: Callable[[ExperimentConfig], tuple] = lambda cfg: ()
    built: tuple = ()
    cells: Callable[[ExperimentConfig], tuple] = lambda cfg: (0, {})
    work: Callable[[ExperimentConfig], tuple] = lambda cfg: (0, {})


# Each experiment once.  A config that sets a noise key its experiment does not
# apply (trajectory applies none with exact reflectors) is rejected rather than
# run without it.  Cells weigh a unit by its measured peak RSS (README).
_EXPERIMENTS = {
    "sweep-theta": _Experiment(
        _run_sweep_theta, lambda c: _NOISE[:2], ("schedule", "theta_grid", "noise"),
        cells=lambda c: _record_cells(c, 1, {"theta_count": c.theta_count}),
        work=lambda c: _record_work(c, {"theta_count": c.theta_count}),
    ),
    "sweep-s": _Experiment(
        _run_sweep_s, built=("theta_grid", "s_grid"),
        cells=lambda c: _product(1, theta_count=c.theta_count, s_count=c.s_count),
        work=lambda c: _product(1, theta_count=c.theta_count, s_count=c.s_count, k=c.k, m=c.m[0] + _SEARCH_STEP),
    ),
    "grid-km": _Experiment(  # k(M + _SEARCH_STEP) per (k, M) cell, M = 1 for exact reflectors
        _run_grid_km,
        work=lambda c: _product(SEARCH_ENTRIES, k_list=sum(c.k_list),
                                m_list=sum((m or 1) + _SEARCH_STEP for m in c.m_list)),
    ),
    "trotter": _Experiment(_run_trotter, cells=lambda c: _product(2, m_max=c.m_max)),
    "ptm": _Experiment(
        _run_ptm, lambda c: _NOISE, ("noise",),
        cells=lambda c: _product(_PTM_CELLS * (2 + bool(c._set_noise())), phi_list=len(c.phi_list)),
    ),
    "baselines": _Experiment(_run_baselines, cells=lambda c: _product(4, rounds=c.rounds)),
    "trajectory": _Experiment(
        _run_trajectory, lambda c: () if c.m is None else _NOISE[:2], ("schedule", "noise"),
        cells=lambda c: _record_cells(c, 2, {}), work=lambda c: _record_work(c, {}),
    ),
    "acceptance": _Experiment(_run_acceptance),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


@functools.cache
def _row_format(kinds: tuple) -> str:
    """The `%` format of a row of these types: ints and strings as they are,
    floats (np.float64 included) to 12 significant digits."""
    return ",".join("%s" if issubclass(k, (int, np.integer, str)) else "%.12g" for k in kinds) + "\n"


def _product_table(header: Sequence[str], axes: Sequence[np.ndarray], values: np.ndarray) -> bytes:
    """A product table's CSV bytes: its header, then one row per point of the
    axes' Cartesian product, first axis slowest, holding the text of its axis
    values (each formatted once) and then its one value from `values`, shaped
    by the axes.  Floats take 12 significant digits, by one `%` operation on a
    bytes format that already holds the axis text."""
    cell = b"%.12g\n"
    *outer, last = [[b"%.12g," % v for v in axis.tolist()] for axis in axes]
    prefixes = [b""]
    for texts in outer:
        prefixes = [p + t for p in prefixes for t in texts]
    fmt = b"".join(p + (cell + p).join(last) + cell for p in prefixes)
    return (",".join(header) + "\n").encode() + fmt % tuple(values.ravel().tolist())


def _render(name: str, payload) -> bytes:
    """A payload as its file's bytes: a `.json` object dumped with indent 2,
    or a `.csv` table formatted by one `%` operation.  A `(header, axes,
    values)` payload is a :func:`_product_table`; a `(header, rows)` table (a
    float array, or a list of rows whose columns each keep one kind) takes
    its first row's format, once per row."""
    if name.endswith(".json"):
        return (json.dumps(payload, indent=2) + "\n").encode()
    if len(payload) == 3:
        return _product_table(*payload)
    header, rows = payload
    fmt = _row_format(tuple(map(type, rows[0]))) if len(rows) else ""
    values = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [v for row in rows for v in row]
    return (",".join(header) + "\n" + fmt * len(rows) % tuple(values)).encode()


@functools.cache
def _environment() -> dict:
    """What a run's numbers depend on besides its config, read once per
    process: the python and numpy versions, numpy's BLAS and the core count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
    }


def run_config(cfg: ExperimentConfig) -> dict:
    """Execute one experiment, write its files and the results manifest;
    returns the manifest.  An `out` that cannot be made a directory is a
    ConfigError, raised before anything is written.

    The one writer: each payload the runner returns is rendered once (every
    table at 12 significant digits), written once and hashed from the bytes
    written, so the manifest lists exactly the files this run wrote; older
    files in `out` are left alone, unlisted.  If the runner raises, only the
    manifest is written, recording the failed stage; if writing fails, it
    lists the files already written.  Either way the error is then re-raised
    as RunError, as is a failure to write the manifest itself.  The manifest
    also records the environment (python, numpy, BLAS, core count); fields the
    runner returns for it (for acceptance, the verdicts and each criterion's
    runtime) are added to it.
    """
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or a path through one
        raise ConfigError(f"out: {exc}") from exc
    started = time.perf_counter()
    payloads, files, extra, error = {}, {}, {}, None
    try:
        payloads = _EXPERIMENTS[cfg.experiment].run(cfg)
        extra = payloads.pop(_MANIFEST, {})
        for name in sorted(payloads):
            data = _render(name, payloads[name])
            (out / name).write_bytes(data)
            files[name] = hashlib.sha256(data).hexdigest()
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
        "environment": dict(_environment()),
    }
    if failure is not None:
        manifest["failed_stage"] = {"experiment": cfg.experiment, "error": failure}
    manifest.update(extra)
    try:
        (out / _MANIFEST).write_bytes(_render(_MANIFEST, manifest))
    except OSError as exc:  # a directory in its place, say: the run's record is lost
        lost = "" if failure is None else f" ({failure})"
        raise RunError(f"cannot write {_MANIFEST}{lost}: {exc}") from exc
    if failure is not None:
        raise RunError(f"experiment failed; manifest records the stage: {failure}") from error
    return manifest


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="dbac-lab", description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    def usage_error(message: str):  # exit 1 like any config error; exit 2 means a failed acceptance gate
        raise ConfigError(message)
    parser.error = usage_error
    try:
        args = parser.parse_args(argv)
        cfg = validate_config(args.config, experiment=args.experiment, out_override=args.out, seed_override=args.seed)
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
