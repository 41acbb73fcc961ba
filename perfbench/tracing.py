"""Spans around the public functions of every dbac_lab module.

install() wraps each public function at every place it is bound: the module
that defines it and every module that imported it by name (`dbac.dme_step_exact`
is the same function as `dme.dme_step_exact`).  The state classes
`states.DensityMatrix` and `states.PureState` are traced through their
`__init__`, so every construction counts, whichever module makes it.  A span
records its name, start, end, parent span and run id; spans are kept in
memory in flat arrays and written out once, by save().
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_CLASSES = ("DensityMatrix", "PureState")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "dbac_lab") -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and attr in TRACED_CLASSES:
                    self._patch(obj, "__init__", self._wrap(f"{short}.{attr}", obj.__init__))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so that no numpy view pins the arrays against further appends
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self, ok_runs, run_slowdown) -> dict[str, dict[str, float]]:
        """Per span name: calls, calls within `ok_runs`, and self time in seconds
        divided by the slowdown measured around the span's run.

        Self time is a span's duration minus the time its child spans cover;
        calls are nested, so the children of one span never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        ok = np.isin(a["run"], np.fromiter(ok_runs, dtype=np.int32))
        ok_calls = np.bincount(a["name_id"][ok], minlength=n)
        scale = np.asarray(run_slowdown, dtype=np.float64)[a["run"]]
        self_s = np.bincount(a["name_id"], weights=(dur - covered) / scale, minlength=n)
        return {
            name: {"calls": int(calls[i]), "ok_calls": int(ok_calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
