"""In-memory spans recorded around calls into the program, from outside.

A span records name, start, end and parent; its self time is its
duration minus the time its children took.  Per-record call sites
(millions of calls) are not spans: :meth:`Tracer.wrap` with
``aggregate=True`` folds them into a call count and a seconds total,
and charges their time to the enclosing span as child time.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from functools import cached_property


class Tracer:
    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, child_seconds]`` per span.
        self.spans: list[list] = []
        #: Aggregated call sites: name -> [calls, seconds].
        self.sites: dict[str, list] = {}
        self._stack: list[int] = []
        self._in_site = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()
            if parent is not None:
                self.spans[parent][4] += record[2] - record[1]

    def _charge(self, name: str, seconds: float) -> None:
        site = self.sites.setdefault(name, [0, 0.0])
        site[0] += 1
        site[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, aggregate: bool = False):
        """Replace ``owner.attr`` with a traced twin (undone by :meth:`unwrap`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, cached_property):
            inner = original.func

            def compute(obj):
                with self.span(name):
                    return inner(obj)

            traced = cached_property(compute)
            traced.__set_name__(owner, attr)
        elif aggregate:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if self._in_site:  # a site calling a site: count the outer only
                    return original(*args, **kwargs)
                self._in_site = True
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._in_site = False
                    self._charge(name, time.perf_counter() - start)
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        """Inclusive seconds of every span (or aggregated site) so named."""
        if name in self.sites:
            return self.sites[name][1]
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        if name in self.sites:
            return self.sites[name][0]
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Seconds inside spans so named, minus time in their children."""
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def coverage(self, intervals) -> float:
        """Share of the ``(start, end)`` intervals spent under root spans."""
        covered = total = 0.0
        for start, end in intervals:
            total += end - start
            covered += sum(
                min(s[2], end) - max(s[1], start)
                for s in self.spans
                if s[3] is None and s[2] > start and s[1] < end
            )
        return covered / total if total else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": a, "end": b, "parent": p}
                        for n, a, b, p, _ in self.spans
                    ],
                    "sites": {k: {"calls": c, "seconds": s} for k, (c, s) in self.sites.items()},
                },
                fh,
            )
