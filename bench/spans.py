"""In-memory span recorder for the traced pass.

The recorder wraps named functions and methods of the program from outside:
a *span* wrapper records one span per call (name, start, end, parent span,
job id) and may add work counts computed from the call's arguments or
result; a *count* wrapper only bumps a counter, for functions called too
often to afford a span each.  Spans stay in memory until `write_jsonl`.

A name the program lacks is recorded in `missing` instead of raising, so the
same benchmark runs against commits that renamed or removed a function.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType

JOB_SPAN = "job"  # name of the root span of each job


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    job: int | None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; spans opened inside carry its id."""
        self._job = job_id
        idx = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self._job = None

    def span_wrapper(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.counts.update(measure(args, kwargs, result))
            return result

        return wrapper

    def count_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def install(self, package: str, target: str, make) -> None:
        """Replace `target` ("module.func" or "module.Class.method", relative
        to `package`) by `make(original)`.

        A module-level function is also rebound in every module of the
        package that imported it by name, so calls through those bindings are
        seen too.  Only names defined on the class itself are wrapped, so an
        inherited method is never wrapped twice.
        """
        mod_name, _, rest = target.partition(".")
        module = sys.modules.get(f"{package}.{mod_name}")
        owner, attr = module, rest
        if "." in rest and module is not None:
            cls_name, attr = rest.split(".", 1)
            owner = getattr(module, cls_name, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(target)
            return
        original = vars(owner)[attr]
        wrapped = make(original)
        self._bind(owner, attr, wrapped)
        if isinstance(owner, ModuleType):
            for name, other in list(sys.modules.items()):
                if other is not owner and name.startswith(package + ".") \
                        and vars(other).get(attr) is original:
                    self._bind(other, attr, wrapped)

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out
