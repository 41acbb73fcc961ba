"""The one list of CI's runs, ``tests/runs.py``, and its byte-identity report."""

from pathlib import Path

import pytest

from dbac_lab import cli

import runs


def test_the_list_holds_every_run_ci_makes():
    # spelled out in runs.py, whose import must not import the package: the statement test traces that import
    assert runs.EXPERIMENTS == cli.EXPERIMENTS
    # 8 defaults, 15 configs and one --seed run write files; each run has its own --out
    assert len(runs.WRITES) == 24 and len({run.argv[-1] for run in runs.RUNS}) == len(runs.RUNS)
    assert sum("--config" in run.argv for run in runs.WRITES) == 15
    assert runs.WRITES[-1].argv[:3] == ("trotter", "--seed", "9")
    # 92 reject files, 3 unreadable configs and 2 outputs that cannot be written
    assert (len(runs.REJECTS), len(runs.UNREADABLE), len(runs.BLOCKED)) == (92, 3, 2)
    assert [run.status for run in runs.RUNS] == [0] * 7 + [2] + [0] * 16 + [1] * 95 + [3] * 2
    configs = [Path(run.argv[run.argv.index("--config") + 1]) for run in runs.RUNS if "--config" in run.argv]
    files = [p for p in runs.CONFIGS.rglob("*") if p.is_file()]
    assert sorted(p for p in configs if runs.CONFIGS in p.parents) == sorted(files)  # each listed once


@pytest.mark.parametrize("run", runs.RUNS, ids=[run.argv[-1] for run in runs.RUNS])
def test_each_run_ends_as_listed(traced_runs, run):
    # in tier-1's one child, by CI's own check
    assert traced_runs.faults[run.argv[-1]] == ""


def test_report_names_each_difference_and_counts_runs_and_files(tmp_path):
    for side, value in (("a", "0.25"), ("b", "0.5")):
        (tmp_path / side / "x").mkdir(parents=True)
        (tmp_path / side / "x" / "t.csv").write_text(f"k,E\n1,{value}\n2,3e-05\n")
        (tmp_path / side / "x" / "same.json").write_text('{"E": [1e-05, -0.0]}\n')
        (tmp_path / side / "x" / runs.MANIFEST).write_text(f'{{"wall_clock_s": {value}}}\n')  # timings: left out
    argvs, ends = [("trotter", "--out", "x")], [[[0, ""]], [[0, ""]]]
    lines = runs.report(argvs, ends, [tmp_path / "a", tmp_path / "b"])
    assert lines == ["x/t.csv: largest value change 0.25", "1 of 1 runs, 2 files, 1 differ"]

    (tmp_path / "b" / "x" / "t.csv").write_text("k,E\n1,0.25\n2,3e-05\n")
    (tmp_path / "b" / "x" / "same.json").write_text('{"F": [1e-05, -0.0]}\n')
    (tmp_path / "b" / "y.csv").write_text("k\n")
    argvs.append(("ptm", "--out", "z"))
    ends = [[[0, ""], [3, "runtime error: x\n"]], [[0, ""]]]  # a run that failed on one side, missing on the other
    lines = runs.report(argvs, ends, [tmp_path / "a", tmp_path / "b"])
    assert lines == ["x/same.json: its text differs", "y.csv: on one side only", "1 of 2 runs, 3 files, 2 differ"]
