"""Every run that CI makes, in one list, ``RUNS``.  From the repository's root,
``python -m tests.runs`` makes each with the installed ``dbac-lab``, under
``AS_LIMIT``, and checks how it ends (``check``); ``python -m tests.runs
--against REV`` compares the files that the runs write on this tree and on REV
(``against``).  Tier-1 makes every run in one child process under the same
limit (``conftest.traced_runs``) and checks each with the same ``_fault``."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "tests" / "configs"
EXPERIMENTS = ("sweep-theta", "sweep-s", "grid-km", "trotter", "ptm", "baselines", "trajectory", "acceptance")
MANIFEST = "results_manifest.json"
AS_LIMIT = 2 * 2**30  # bytes of address space for each run: a config that needs more must be refused
_ERROR = "config error: {}\n\\Z"  # one line: the error's message
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


class Run(NamedTuple):
    argv: tuple  # dbac-lab's arguments, --out DIR last
    status: int  # its exit code
    stderr: str  # a pattern that its whole stderr matches


# every experiment at its default config, every config in tests/configs/ (its
# file name starts with its experiment) and one run whose seed comes from --seed
WRITES = [Run((e, "--out", f"out/{e}"), 2 if e == "acceptance" else 0, r"\Z") for e in EXPERIMENTS] + [
    Run((e, "--config", str(p), "--out", f"out/{p.stem}"), 0, r"\Z")
    for p in sorted(CONFIGS.glob("*.txt")) for e in EXPERIMENTS if p.stem.startswith(e + "-")
] + [Run(("trotter", "--seed", "9", "--out", "out/trotter@9"), 0, r"\Z")]


def reject_case(path: Path) -> tuple:
    """(experiment, its config error's message, config text) of a file in
    ``tests/configs/reject/``: its first line names the experiment and the
    error's whole message, and its second says why the case exists."""
    head, _, text = path.read_text().split("\n", 2)
    return (*head.lstrip("# ").split(" ", 1), text)


REJECTS = [
    Run((e, "--config", str(p), "--out", f"unusable/{p.stem}"), 1, _ERROR.format(re.escape(start)))
    for p in sorted((CONFIGS / "reject").glob("*.txt"))
    for e, start, _ in [reject_case(p)]
]
UNREADABLE = [  # a --config that is a directory, holds a non-UTF-8 byte, or is missing
    Run(("sweep-theta", "--config", c, "--out", f"unusable/{Path(c).stem}"), 1,
        _ERROR.format(re.escape(f"config file {c}") + end))  # the OS error's text follows ": "
    for c, end in (("cfg/a-directory", ": .*"), ("cfg/non-utf8.txt", ": .*"), ("cfg/missing.txt", " does not exist"))
]
# a directory in the place of the manifest, or of a table
BLOCKED = [Run(("baselines", "--out", d), 3, r"runtime error: .*\n\Z") for d in ("blocked", "blocked-table")]
RUNS = WRITES + REJECTS + UNREADABLE + BLOCKED


def prepare(work: Path) -> None:
    """Make, in ``work``, the directories and the file that the runs read."""
    for d in ("cfg/a-directory", f"blocked/{MANIFEST}", "blocked-table/baselines.csv"):
        (work / d).mkdir(parents=True)
    (work / "cfg" / "non-utf8.txt").write_bytes(b"k = 2\xff\n")


def limited() -> dict:
    """The ``subprocess`` keyword that caps a child's address space at
    ``AS_LIMIT``, where the platform has ``resource``; none elsewhere."""
    try:
        import resource
    except ImportError:
        return {}
    return {"preexec_fn": lambda: resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))}


def in_process(argvs) -> list:
    """(exit code, stderr) of each run, made by ``cli.main`` in this process."""
    from dbac_lab import cli

    ends = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            ends.append((cli.main(argv), err.getvalue()))
    return ends


def _files(out: Path) -> dict:
    """The bytes of every file under ``out`` but the manifests, by path."""
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file() and p.name != MANIFEST}


def _fault(run: Run, out: Path, status: int, stderr: str) -> str:
    """Why a run that ended so is not as listed; '' if it is."""
    if status != run.status or not re.match(run.stderr, stderr) or "Traceback" in stderr:
        return f"want exit {run.status} and stderr {run.stderr!r}"
    if status != 1 and status != 3:
        manifest = json.loads((out / MANIFEST).read_text())
        if manifest["files"] != {str(n): hashlib.sha256(b).hexdigest() for n, b in _files(out).items()}:
            return "its manifest does not list exactly its files with their sha256"
        if run.argv[0] == "acceptance":  # exit 2 alone does not tell 5d from any other failure
            print(*(f"criterion {c}: {s:.3f} s" for c, s in manifest["acceptance"]["runtime_s"].items()), sep="\n")
            summary = json.loads((out / "acceptance.json").read_text())
            return "" if summary["failed"] == ["5d"] and not summary["unexpected_failures"] else f"failed: {summary}"
    return "it wrote its --out" if status == 1 and out.exists() else ""


def check(work: Path) -> int:
    """Make every run with the installed dbac-lab in ``work``, each under
    ``AS_LIMIT``, one that writes files twice, to the same bytes.  Each must
    end as listed: its exit code, one stderr line and no traceback on an
    error, nothing written on a config error, a manifest that lists exactly its
    files with their sha256, and only 5d failed in acceptance.  1 if any ends
    otherwise."""
    prepare(work)
    faults = 0
    for run in RUNS:
        for out in [run.argv[-1]] + ([run.argv[-1].replace("out/", "rerun/")] if run in WRITES else []):
            proc = subprocess.run(["dbac-lab", *run.argv[:-1], out], cwd=work, capture_output=True, text=True,
                                  **limited())
            fault = _fault(run, work / out, proc.returncode, proc.stderr)
            if not fault and out != run.argv[-1] and _files(work / out) != _files(work / run.argv[-1]):
                fault = "its rerun wrote other bytes"
            print(f"{out}: exit {proc.returncode}, {fault or 'as listed'}", proc.stderr.strip())
            faults += bool(fault)
    print(f"{len(RUNS)} runs, {len(WRITES)} of them twice: {faults} not as listed")
    return int(faults > 0)


def _change(a, b) -> str:
    """How a file differs between the sides: by its largest value change, if only its numbers do."""
    if a is None or b is None or _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return "on one side only" if a is None or b is None else "its text differs"
    return "largest value change %.3g" % max(abs(float(x) - float(y)) for x, y in zip(*map(_NUMBER.findall, (a, b))))


def against(rev: str, work: Path) -> int:
    """Make every run that writes files, the list's and every perfbench
    variant, on this tree's ``src/`` and on ``rev``'s (by ``git archive``), one
    child process per side, and print :func:`report`; 1 on any difference, or
    on fewer runs than listed."""
    from perfbench import workloads

    argvs = [run.argv for run in WRITES]
    for run in (run for name in workloads.WORKLOADS for run in workloads.all_variants(name)):
        (config := work / f"{run.key.replace('/', '-')}.txt").write_text(run.config_text())
        argvs.append([run.experiment, "--config", str(config), "--out", f"out/bench/{run.key}"])
    (work / "argvs.json").write_text(json.dumps(argvs))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(work)], input=archive, check=True)  # REV's src/ at work/src
    code = "import json, runs; json.dump(runs.in_process(json.load(open('../argvs.json'))), open('ends.json', 'w'))"
    sides, children = [work / "tree", work / "rev"], []
    for side, src in zip(sides, (ROOT / "src", work / "src")):
        side.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
        children.append(subprocess.Popen([sys.executable, "-c", code], cwd=side, env=env))
    ends = [json.loads((side / "ends.json").read_text()) if not c.wait() else [] for side, c in zip(sides, children)]
    lines = report(argvs, ends, [side / "out" for side in sides])
    print(*lines, sep="\n")
    return int(len(lines) > 1 or min(map(len, ends)) < len(argvs))


def report(argvs, ends, outs) -> list:
    """A line for each run that ended otherwise on the two sides, and for each
    file under the two ``outs`` that differs, manifests (which hold timings)
    aside; then a total."""
    trees = [_files(out) for out in outs]
    names = sorted(trees[0].keys() | trees[1].keys())
    lines = [f"{' '.join(argv)}: exit and stderr {a} against {b}" for argv, a, b in zip(argvs, *ends) if a != b]
    lines += [f"{n}: {_change(*(t.get(n) for t in trees))}" for n in names if trees[0].get(n) != trees[1].get(n)]
    return lines + [f"{min(map(len, ends))} of {len(argvs)} runs, {len(names)} files, {len(lines)} differ"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="python -m tests.runs", description=__doc__)
    parser.add_argument("--against", metavar="REV", help="compare the files of every run that writes files with REV's")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        sys.exit(against(args.against, Path(work)) if args.against else check(Path(work)))
