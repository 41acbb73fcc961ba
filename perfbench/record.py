"""Record reference outputs for every run variant of the benchmark workloads.

Usage, from the root of the repository:

    python3 perfbench/record.py [sweep|search|ptm ...]

Runs every variant of every template once with the program in this checkout
and stores, per run, either the fingerprints of its output files or the fact
that it raised.  The stored files are the references that run.py checks
outputs against, so record only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run as bench
import workloads


def record(cli, workload: str) -> dict:
    work = bench.WORK / "record"
    refs = {}
    for run in workloads.all_variants(workload):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "run.cfg").write_text(run.config_text())
        _, error = bench.run_one(cli, run, work / "run.cfg", work / "out")
        if error is None:
            files = checks.output_files(work / "out")
            refs[run.key] = {"status": "ok", "files": {n: checks.fingerprint(n, t) for n, t in files.items()}}
        else:
            refs[run.key] = {"status": "raises", "error": error}
    shutil.rmtree(work)
    return {"commit": bench.git_commit(), "runs": refs}


def main(names) -> int:
    cli = bench.load_program()
    for workload in names or workloads.WORKLOADS:
        data = record(cli, workload)
        checks.save_reference(workload, data)
        raised = sum(r["status"] == "raises" for r in data["runs"].values())
        print(f"{workload}: {len(data['runs'])} runs recorded, {raised} raise")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
