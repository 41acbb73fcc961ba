import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from dbac_lab import cli, dbac
from dbac_lab.errors import ContractViolationError

import runs


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def verdict(check, arg):
    """The message ``check(arg)`` raises, or None when it passes."""
    try:
        check(arg)
    except ContractViolationError as err:
        return str(err)
    return None


def config(tmp_path, experiment, text, out="out"):
    """The validated config of a run of ``experiment`` (None: the one the text
    names) whose config file holds ``text``, writing to ``tmp_path / out``
    (None: where the text says)."""
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return cli.validate_config(path, experiment, out_override=out and tmp_path / out)


def config_error(tmp_path, experiment, text, out="out"):
    """The config error of a run of ``experiment`` whose config file holds
    ``text``: the checks where a run's inputs enter, which the engines do not repeat."""
    with pytest.raises(cli.ConfigError) as info:
        config(tmp_path, experiment, text, out)
    return str(info.value)


def counted_swaps(monkeypatch):
    """The (kernel name, plane shape) of every dbac.partial_swap and
    dbac.swap_z call made while ``monkeypatch`` is active, in order."""
    calls = []
    for name in ("partial_swap", "swap_z"):

        def counting(sig, step, name=name, kernel=getattr(dbac, name)):
            calls.append((name, np.shape(sig)))
            return kernel(sig, step)

        monkeypatch.setattr(dbac, name, counting)
    return calls


TracedRuns = NamedTuple("TracedRuns", [("faults", dict), ("ran", set)])
# seconds for the child of every run: they take under 1 s on a 2-core VM, and
# a config that a budget should have refused runs into this limit
RUNS_TIMEOUT = 15

# the child: traces the package's lines from before its import, makes each run,
# naming it on stderr as it starts, and prints their ends, then the lines that ran
_TRACED_RUNS = """
import json, sys
import numpy, runs  # not the package: untraced
src, argvs = json.load(sys.stdin)
hits = set()
def line(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return line
def call(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(src) else None
sys.settrace(call)
ends = []
for argv in argvs:
    print(*argv, file=sys.stderr, flush=True)
    ends += runs.in_process([argv])
sys.settrace(None)
json.dump([ends, sorted(hits)], sys.stdout)
"""


@pytest.fixture(scope="session")
def traced_runs(tmp_path_factory):
    """Every run of ``runs.RUNS``, made by ``cli.main`` in one child process
    under ``runs.AS_LIMIT`` and ``RUNS_TIMEOUT``, traced from before the package is
    imported: ``faults``, why each run, by its ``--out``, did not end as listed
    ('' if it did, by ``runs._fault``), and ``ran``, each (module, line) of the
    package that ran."""
    work, src = tmp_path_factory.mktemp("runs"), Path(cli.__file__).parent
    runs.prepare(work)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src.parent), str(Path(runs.__file__).parent)]))
    try:
        child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _TRACED_RUNS], cwd=work, env=env,
                               input=json.dumps([str(src), [run.argv for run in runs.RUNS]]), capture_output=True,
                               text=True, check=True, timeout=RUNS_TIMEOUT, **runs.limited())
    except subprocess.TimeoutExpired as err:  # its stderr: the bytes the child wrote before it
        last = (err.stderr or b"").decode().splitlines()[-1:]
        pytest.fail(f"the runs took over {RUNS_TIMEOUT} s; the last to start: {last}")
    ends, hits = json.loads(child.stdout)
    faults = {run.argv[-1]: runs._fault(run, work / run.argv[-1], *end)
              for run, end in zip(runs.RUNS, ends, strict=True)}
    return TracedRuns(faults, {(Path(f).stem, n) for f, n in hits})
