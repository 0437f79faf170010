"""Span tracer that wraps library functions from outside the package.

Every traced function is replaced at each module attribute that binds it,
so calls made inside the package (module globals are looked up at call
time) are caught as well as calls from the harness.  Each call records a
span (label, start, end, parent, raised) in memory; per-label statistics
accumulate the call count, self time (span time minus the time of its
direct child spans) and the per-call durations.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class LabelStats:
    calls: int = 0
    raised: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)


class Tracer:
    """Installs wrappers for ``targets`` and records spans while installed.

    ``targets`` maps a label such as ``"sensor.sweep"`` to ``(owner,
    attribute)``; the owner is a module or a class.  For a module-level
    function, every ``spectratact`` module attribute bound to the same
    object is patched; for a class attribute only the class is patched.
    """

    def __init__(self, targets: dict[str, tuple[object, str]]):
        self.targets = targets
        self.spans: list = []
        self.stats: dict[str, LabelStats] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spectratact"
                                         or name.startswith("spectratact."))]
        for label, (owner, attr) in self.targets.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, list[int]]:
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0]
        self._stack.append(frame)
        return index, frame

    def _exit(self, label: str, index: int, frame: list[int],
              start: int, end: int, raised: bool) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans[index] = (label, start, end, parent[0] if parent else -1, raised)
        stats = self.stats.get(label)
        if stats is None:
            stats = self.stats[label] = LabelStats()
        stats.calls += 1
        stats.raised += raised
        stats.self_ns += duration - frame[1]
        stats.durations_ns.append(duration)

    def _wrap(self, label: str, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, frame = self._enter()
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._exit(label, index, frame, start, clock(), raised)

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        """A span opened by the harness itself, e.g. around a CLI command."""
        index, frame = self._enter()
        raised = True
        start = time.perf_counter_ns()
        try:
            yield
            raised = False
        finally:
            self._exit(label, index, frame, start, time.perf_counter_ns(), raised)

    def root_ns(self) -> int:
        """Total duration of spans with no parent."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] == -1)

    def write_spans(self, path: str) -> None:
        """Write recorded spans as CSV: index, label, start_ns, end_ns, parent, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,label,start_ns,end_ns,parent,raised\n")
            for i, (label, start, end, parent, raised) in enumerate(self.spans):
                fh.write(f"{i},{label},{start},{end},{parent},{int(raised)}\n")
