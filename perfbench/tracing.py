"""Span recorder for the benchmark's traced run.

``Tracer.wrap`` replaces a library name (a module global or a class
attribute) with a wrapper that records one span per call: name, start, end,
the enclosing span and the current query id.  The wrapper sits where the
calling module looks the name up, so the library itself is not edited.

Spans are kept in memory and written as JSON Lines when the run ends.  Per
span name the tracer also keeps the call count, the total duration and the
self time, i.e. the duration minus the part covered by direct child spans.
Past ``SPAN_CAP`` stored spans only those totals keep growing, which bounds
memory on workloads with millions of calls; the number of spans not stored
is reported.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, span id, parent id, query id)
        self.dropped = 0
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self.query = -1
        self._stack: list[list] = []  # per open span: [span id, seconds covered by children]
        self._next_id = 0
        self._originals: list[tuple] = []
        self._origin = perf_counter()

    def _enter(self) -> tuple[list, int]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name: str, frame: list, parent: int, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, frame[0], parent, self.query))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own call into a layer."""
        frame, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, parent, start, perf_counter())

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        observe: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> bool:
        """Trace calls to ``owner.attr`` under span ``name``.

        ``owner`` may be ``None`` (its own lookup failed).  A name that does
        not exist is recorded in ``missing`` and nothing is wrapped, so the
        metrics built on it come out absent instead of failing the run.
        ``observe(tracer, args, kwargs, result)`` runs after each call,
        outside the span, to count work from the arguments or the result.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.add(name)
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame, parent = tracer._enter()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, frame, parent, start, perf_counter())
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        own = not isinstance(owner, type) or attr in vars(owner)
        self._originals.append((owner, attr, original, own))
        setattr(owner, attr, traced)
        return True

    def unwrap_all(self) -> None:
        """Put every wrapped name back as it was."""
        for owner, attr, original, own in reversed(self._originals):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._originals.clear()

    def write(self, path: str | Path) -> None:
        """Write the stored spans as JSON Lines; times in seconds from tracer start."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, query in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "id": span_id,
                            "parent": parent,
                            "query": query,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
