"""In-memory span tracing of the program's public functions.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: name, start, end (perf_counter ns), parent span and the id of the
workload call it belongs to. Spans live in compact arrays until the run
ends, when ``save`` writes them out. The wrappers are installed at every
module attribute the program calls a function through, because the modules
import names directly (``lfequad.engine.solve_coefficients`` and
``lfequad.correction.solve_coefficients`` are separate references).
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.call = array("i")
        self.call_id = 0
        self._stack = [NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        nid = self._name_id(name)
        names, start, end, parent, call = self.name, self.start, self.end, self.parent, self.call
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            call.append(tracer.call_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, targets):
        """Wrap ``module.attr`` for each (module, attr, span name) in targets."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.call, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Spans recorded from one thread nest: children of one parent never
    overlap each other and lie inside the parent, so the covered time is the
    sum of the children's durations.
    """
    dur = (end - start).astype(float)
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered
