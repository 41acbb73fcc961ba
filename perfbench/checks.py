"""Output checks: every run's files against reference values, and invariants.

A reference is recorded per run variant by record.py.  For each output file
it keeps the file's structure (header, non-numeric fields, value count) and,
for every block of BLOCK consecutive numbers, their plain sum and their
position-weighted sum (weights 1..BLOCK).  A file passes when its structure
is identical and every block sum is within TOL times the sum of the weights
used.  So any output whose values all lie within TOL of the reference passes,
and a single value off by more than BLOCK * TOL fails.  TOL is far above the
12-significant-digit rounding of the CSV files and far below any error a
defect would cause.

Runs that raise at the recording commit have no reference values.  If they
complete, their outputs get invariant checks instead: energies in [-1, 1] and
Bloch vectors of norm at most 1.  Every run, failed or not, must leave a
manifest whose checksums match the files it lists.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
from pathlib import Path

TOL = 1e-9
BLOCK = 16
MANIFEST = "results_manifest.json"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _numbers_and_shape(name: str, text: str) -> tuple[list[float], str]:
    values: list[float] = []
    shape: list[str] = []
    if name.endswith(".json"):

        def walk(node, path):
            if isinstance(node, dict):
                for key, val in node.items():
                    walk(val, f"{path}/{key}")
            elif isinstance(node, list):
                shape.append(f"{path}[{len(node)}]")
                for i, val in enumerate(node):
                    walk(val, f"{path}/{i}")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                values.append(float(node))
                shape.append(f"{path}=#")
            else:
                shape.append(f"{path}={node!r}")

        walk(json.loads(text), "")
    else:
        lines = text.split("\n")
        shape.append(lines[0])
        for line in lines[1:]:
            cells = []
            for tok in line.split(","):
                try:
                    values.append(float(tok))
                    cells.append("#")
                except ValueError:
                    cells.append(tok)
            shape.append(",".join(cells))
    return values, hashlib.sha256("\n".join(shape).encode()).hexdigest()[:16]


def fingerprint(name: str, text: str) -> dict:
    values, shape = _numbers_and_shape(name, text)
    s1, s2 = [], []
    for i in range(0, len(values), BLOCK):
        block = values[i : i + BLOCK]
        s1.append(round(math.fsum(block), 12))
        s2.append(round(math.fsum((j + 1) * v for j, v in enumerate(block)), 12))
    return {"shape": shape, "n": len(values), "s1": s1, "s2": s2}


def compare(name: str, text: str, ref: dict) -> str | None:
    """None if the file matches its reference, else the reason it does not."""
    got = fingerprint(name, text)
    if got["shape"] != ref["shape"] or got["n"] != ref["n"]:
        return f"{name}: layout differs from the reference"
    for b, (a1, r1, a2, r2) in enumerate(zip(got["s1"], ref["s1"], got["s2"], ref["s2"])):
        width = min(BLOCK, ref["n"] - b * BLOCK)
        finite = math.isfinite(a1) and math.isfinite(a2)
        if not finite or abs(a1 - r1) > TOL * width or abs(a2 - r2) > TOL * width * (width + 1) / 2:
            return f"{name}: values {b * BLOCK}..{b * BLOCK + width - 1} differ from the reference"
    return None


def output_files(out: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(out.iterdir()) if p.is_file() and p.name != MANIFEST}


def check_manifest(out: Path) -> str | None:
    path = out / MANIFEST
    if not path.is_file():
        return "no results manifest"
    listed = json.loads(path.read_text()).get("files", {})
    present = {p.name for p in out.iterdir() if p.is_file() and p.name != MANIFEST}
    if set(listed) != present:
        return "manifest lists other files than the run wrote"
    for name, digest in listed.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            return f"{name}: checksum differs from the manifest"
    return None


def _invariants(run, files: dict[str, str]) -> str | None:
    if run.experiment == "trajectory":
        rows = [line.split(",") for line in files["trajectory.csv"].splitlines()[1:]]
        if len(rows) != int(run.params["k"]) + 1:
            return "trajectory.csv: wrong number of steps"
        for row in rows:
            x, y, z = (float(v) for v in row[1:])
            if x * x + y * y + z * z > 1 + 1e-9:
                return "trajectory.csv: Bloch vector longer than 1"
    elif run.experiment == "sweep-theta":
        rows = [line.split(",") for line in files["sweep_theta.csv"].splitlines()[1:]]
        if len(rows) != int(run.params["theta_count"]):
            return "sweep_theta.csv: wrong number of angles"
        if any(abs(float(v)) > 1 + 1e-9 for row in rows for v in row[1:]):
            return "sweep_theta.csv: energy outside [-1, 1]"
    else:
        return f"no invariant check for {run.experiment}"
    return None


def check_run(run, out: Path, error: str | None, ref: dict | None) -> tuple[bool, str | None]:
    """Judge one run.  Returns (failed, wrong): a run fails if it raised or its
    output misses the check; `wrong` explains output that is incorrect, or a
    run that raises where the recording commit completed."""
    if ref is None:
        return True, "no reference recorded for this run"
    bad = check_manifest(out)
    if bad:
        return True, bad
    if error is not None:
        if ref["status"] == "ok":
            return True, f"raised where the reference run completed: {error}"
        return True, None
    files = output_files(out)
    if ref["status"] == "raises":
        bad = _invariants(run, files)
        return bad is not None, bad
    if set(files) != set(ref["files"]):
        return True, "output files differ from the reference"
    for name, text in files.items():
        bad = compare(name, text, ref["files"][name])
        if bad:
            return True, bad
    return False, None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.xz"


def load_reference(workload: str) -> dict:
    with lzma.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, data: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with lzma.open(reference_path(workload), "wt", preset=9) as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
