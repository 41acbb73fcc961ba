"""Benchmark for dbac-lab: seeded batches of experiment runs, timed end to end.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {sweep,search,ptm} --seed N --seconds S --trace {0,1}

Each run goes through `cli.validate_config` and `cli.run_config` in this
process: the `dbac-lab` command minus interpreter start-up.  One client sends
the runs one after another (a closed loop), with `workers = 1` in every
config.  With `--trace 0` the batch runs a fixed number of times, set by
`--seconds` alone, each time with other variants of the same templates; the
last stdout line carries the end-to-end metrics named in BENCHMARK.json.
With `--trace 1` one repetition runs untraced and then traced, and the last
line carries the per-layer metrics.
The line before it is a report: environment, sample counts, failures, the
machine's measured slowdown and, when tracing, the call-count consistency
check.

Times are scaled to a reference machine speed.  On a shared machine other
load can halve this process's speed for seconds at a time.  So a fixed probe
of small-matrix work is timed before and after every run, and the run's time
is divided by the mean of the two probes' slowdowns against PROBE_NOMINAL_S.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; runs before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cap:
            os.environ[var] = str(cap)
    return cap


BLAS_THREADS = cap_blas_threads()

import numpy as np  # noqa: E402  (after the thread cap)

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# Elapsed seconds of one repetition, launches included, on the shared 2-core
# Intel Xeon VM the benchmark was sized on.  `--seconds` buys that many
# repetitions.  The count never depends on the clock, so every run of a
# workload attempts, and fails, the same number of runs.
REP_SECONDS = {"sweep": 8.5, "search": 7.0, "ptm": 9.5}
# fresh-interpreter launches after each repetition, for setup_s
LAUNCHES_PER_REP = 3
# fastest probe() seen on an otherwise idle 2-core Intel Xeon VM
PROBE_NOMINAL_S = 0.7e-3
# public functions traced in the per-layer metrics (BENCHMARK.json names them)
LAYER_SPANS = (
    "qmath.herm_expm", "qmath.check_hermitian", "qmath.partial_trace", "qmath.embed_gate",
    "dme.dme_step_exact", "dme.dme_step_instruction_marginal", "dme.dme_error",
    "states.DensityMatrix", "states.PureState",
    "dbac.dbac_via_dme", "dbac.dbac_recursive_exact", "dbac.final_fidelities_over_s",
    "dbac.best_final_fidelity", "dbac.optimal_step", "dbac.basin_min_fidelity",
    "tomography.ptm_of_circuit", "tomography.ptm_of_channel", "tomography.depolarize",
    "tomography.apply_gate_noise", "circuits.compile_udme_native", "circuits.circuit_unitary",
    "cli.validate_config", "cli.run_config",
)


def load_program():
    """Import dbac_lab from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "dbac_lab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no dbac_lab sources under {src}")
    sys.path.insert(0, str(src))
    from dbac_lab import cli

    if Path(cli.__file__).resolve().parent != (src / "dbac_lab").resolve():
        raise SystemExit(f"perfbench: imported dbac_lab from {cli.__file__}, not from {src}")
    return cli


def probe() -> float:
    """Seconds for a fixed slice of work in the program's own style: Python
    calls around 2x2 complex numpy products, eigh and kron."""
    a = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    b = np.eye(2, dtype=complex)
    t0 = time.perf_counter()
    for _ in range(20):
        b = a @ b @ a.conj().T
        b = b / np.trace(b)
        np.linalg.eigh(b)
        np.kron(b, a)
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than the reference speed this machine runs right now;
    the fastest of three probes, so that one preemption does not count."""
    return min(probe() for _ in range(3)) / PROBE_NOMINAL_S


def run_one(cli, run, cfg: Path, out: Path) -> tuple[float, str | None]:
    """One run, as `dbac-lab <experiment> --config cfg --out out` would do it."""
    t0 = time.perf_counter()
    try:
        cli.run_config(cli.validate_config(cfg, experiment=run.experiment, out_override=out))
        error = None
    except Exception as exc:  # a failed run is a measured outcome, not a benchmark error
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def run_batch(cli, runs, work: Path, tracer=None) -> tuple[list[float], list[str | None], list[float]]:
    """Send the runs one after another.  Returns, per run, its latency scaled
    to the reference speed, its error if it raised, and the slowdown used."""
    work.mkdir(parents=True)
    cfgs = []
    for i, run in enumerate(runs):
        cfgs.append(work / f"{i}.cfg")
        cfgs[-1].write_text(run.config_text())
    gc.collect()
    latencies, errors, slowdowns = [], [], []
    before = slowdown()
    for i, (run, cfg) in enumerate(zip(runs, cfgs)):
        if tracer is not None:
            tracer.run_id = i
        seconds, error = run_one(cli, run, cfg, work / str(i))
        after = slowdown()
        slowdowns.append((before + after) / 2)
        latencies.append(seconds / slowdowns[-1])
        errors.append(error)
        before = after
    return latencies, errors, slowdowns


def check_batch(runs, work: Path, errors, reference: dict) -> tuple[list[bool], list[str]]:
    """Check every run's outputs, then delete them.  Returns per-run failure
    flags and the list of incorrect outputs."""
    failed, wrong = [], []
    for i, (run, error) in enumerate(zip(runs, errors)):
        bad, why = checks.check_run(run, work / str(i), error, reference.get(run.key))
        failed.append(bad)
        if why:
            wrong.append(f"{run.key} ({run.experiment}): {why}")
    shutil.rmtree(work)
    return failed, wrong


def launch_seconds() -> float:
    """Time, scaled to the reference speed, of a fresh interpreter importing
    dbac_lab.cli: the set-up every `dbac-lab` command pays."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = slowdown()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dbac_lab.cli"], env=env, cwd=ROOT, check=True)
    seconds = time.perf_counter() - t0
    return seconds / ((before + slowdown()) / 2)


def latency_metrics(executions) -> dict[str, float]:
    """End-to-end timings from (template, seconds, failed) of every execution.

    A template's latency is the median of its executions, which all do the
    same work.  A template with a failed execution counts as the slowest run,
    because a failure misses any latency limit.  wall_s is the batch's time:
    the sum of the templates' latencies.
    """
    seconds_by_template, failed = {}, {}
    for template, seconds, bad in executions:
        seconds_by_template.setdefault(template, []).append(seconds)
        failed[template] = failed.get(template, False) or bad
    latency = {t: statistics.median(v) for t, v in seconds_by_template.items()}
    slowest = max(seconds for _, seconds, _ in executions)
    counted = [slowest if failed[t] else latency[t] for t in latency]
    return {
        "wall_s": sum(latency.values()),
        "op_p50_ms": float(np.percentile(counted, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(counted, 90)) * 1e3,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (ROOT / ".git" / name).is_file():
        return (ROOT / ".git" / name).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "workload_seed": seed,
    }


def repetitions(workload: str, seconds: float) -> int:
    """How many times the batch runs in a `seconds`-long measurement."""
    return max(MIN_REPS, int(seconds // REP_SECONDS[workload]))


def measure(cli, workload, seed, seconds, tiny, reference) -> tuple[dict, dict]:
    """Repeat the batch repetitions(workload, seconds) times, each time with
    other seed-chosen variants."""
    executions, failed, wrong, errors, walls, slow = [], [], [], {}, [], []
    launch_seconds()  # fills the page cache, and compiles bytecode where that is written
    launches = []
    started = time.perf_counter()
    reps = repetitions(workload, seconds)
    for rep in range(reps):
        runs = workloads.batch(workload, seed, rep, tiny)
        work = WORK / workload / f"rep{rep}"
        lat, errs, slowdowns = run_batch(cli, runs, work)
        bad, why = check_batch(runs, work, errs, reference)
        executions += [(run.template, t, b) for run, t, b in zip(runs, lat, bad)]
        walls.append(sum(lat))
        slow.append(statistics.median(slowdowns))
        failed += bad
        wrong += why
        for run, err in zip(runs, errs):
            if err:
                errors.setdefault(run.kind, err)
        launches += [launch_seconds() for _ in range(LAUNCHES_PER_REP)]
    attempted = len(failed)
    metrics = latency_metrics(executions)
    metrics["ok_frac"] = 1.0 - sum(failed) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = statistics.median(launches)
    report = {
        "setup_launches": len(launches),
        "repetitions": reps,
        "elapsed_s": time.perf_counter() - started,
        "latency_samples": len(workloads.template_indices(workload, tiny)),
        "executions": attempted,
        "repetition_wall_s": walls,
        "repetition_median_slowdown": slow,
        "failed_frac": sum(failed) / attempted,
        "first_error_by_kind": errors,
    }
    return metrics, {"attempted": attempted, "failed": sum(failed), "wrong": wrong, "report": report}


def traced(cli, workload, seed, tiny, reference) -> tuple[dict, dict]:
    """One repetition untraced, then the same runs traced: per-layer metrics."""
    from tracing import Tracer

    runs = workloads.batch(workload, seed, 0, tiny)
    lat_plain, errs, _ = run_batch(cli, runs, WORK / workload / "plain")
    bad_plain, wrong = check_batch(runs, WORK / workload / "plain", errs, reference)
    tracer = Tracer()
    tracer.install()
    try:
        lat_traced, errs, slowdowns = run_batch(cli, runs, WORK / workload / "traced", tracer)
    finally:
        tracer.uninstall()
    bad, why = check_batch(runs, WORK / workload / "traced", errs, reference)
    wrong += why
    ok_runs = [i for i, b in enumerate(bad) if not b]
    spans = tracer.summary(ok_runs, slowdowns)
    tracer.save(WORK / f"spans-{workload}.npz")

    total, ok_total = {}, {}
    for i, run in enumerate(runs):
        for key, val in workloads.work(run).items():
            total[key] = total.get(key, 0) + val
            if i in ok_runs:
                ok_total[key] = ok_total.get(key, 0) + val
    metrics = {}
    for name in LAYER_SPANS:
        span = spans.get(name, {"calls": 0, "ok_calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = span["calls"]
        metrics[f"{name}.self_s"] = span["self_s"]
    metrics.update({k: v for k, v in total.items() if k.startswith("work.")})

    def ratio(span, base):
        calls = spans.get(span, {}).get("ok_calls", 0)
        return calls / ok_total[base] if ok_total.get(base) else 0.0

    metrics["ratio.herm_expm_per_dme_step"] = ratio("qmath.herm_expm", "work.dme_steps")
    metrics["ratio.marginal_per_dme_step"] = ratio("dme.dme_step_instruction_marginal", "work.dme_steps")
    metrics["ratio.density_checks_per_dme_step"] = ratio("states.DensityMatrix", "work.dme_steps")
    metrics["ratio.embed_gate_per_gate"] = ratio("qmath.embed_gate", "work.gates")
    metrics["trace.overhead_s"] = sum(lat_traced) - sum(lat_plain)

    # Call counts on the completed runs against what their configs ask for.
    # A binding site the tracer missed shows up as too few calls.  The expected
    # counts describe the call structure at the recording commit, so a change
    # that restructures these calls will (and should) show mismatches here.
    mismatches = {
        key[6:]: {"traced": spans.get(key[6:], {}).get("ok_calls", 0), "expected": want}
        for key, want in ok_total.items()
        if key.startswith("calls.") and spans.get(key[6:], {}).get("ok_calls", 0) != want
    }
    report = {
        "untraced_wall_s": sum(lat_plain),
        "traced_wall_s": sum(lat_traced),
        "traced_median_slowdown": statistics.median(slowdowns),
        "spans": len(tracer.start),
        "completed_runs": len(ok_runs),
        "ratio_bases_on_completed_runs": {k: v for k, v in ok_total.items() if k.startswith("work.")},
        "call_count_check": {"passed": not mismatches, "mismatches": mismatches},
    }
    return metrics, {"attempted": 2 * len(runs), "failed": sum(bad_plain) + sum(bad), "wrong": wrong, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="one run per template kind (self-test)")
    args = parser.parse_args(argv)
    cli = load_program()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = checks.load_reference(args.workload)["runs"]
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    # warm-up: one run of each kind, outside the measurement
    run_batch(cli, workloads.batch(args.workload, args.seed, -1, tiny=True), WORK / args.workload / "warmup")

    if args.trace:
        metrics, result = traced(cli, args.workload, args.seed, args.tiny, reference)
        wanted = spec["per_layer"]
    else:
        metrics, result = measure(cli, args.workload, args.seed, args.seconds, args.tiny, reference)
        wanted = spec["end_to_end"]
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "check_tolerance": {"per_value": checks.TOL, "block": checks.BLOCK},
        "incorrect_outputs": result["wrong"],
        **result["report"],
    }
    for line in result["wrong"]:
        print(f"perfbench: incorrect output: {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
