"""In-memory span recording and per-pass span arithmetic.

A span is one timed call into a layer: its name, start, end, the span
that caused it and the pass it belongs to.  Spans are recorded by
wrapping functions where their callers look them up, kept in memory,
and written out once the benchmark ends.  Nothing here imports mmdreg,
so the helpers can be tested on their own.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Per-span self time: duration minus the part of it child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = s.duration - covered
    return out


class Tracer:
    """Records spans and computed counters for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.pass_id)

    def count(self, key, value):
        self.counts[self.pass_id][key] += value

    def wrap(self, name, fn, counter=None):
        """``fn`` recording a span per call; ``counter(args, kwargs, result)``
        returns computed counts, added under ``name.<key>``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(f"{name}.{key}", value)
            return result

        return wrapper

    def patch(self, owner, attr, name, counter=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self, pass_id):
        """Per-layer figures of one pass: calls, busy and self time per span
        name, call durations per name, and the pass's computed counters."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        by_id = {s.sid: s for s in spans}
        own = self_times(spans)
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for s in spans:
            calls[s.name] += 1
            self_s[s.name] += own[s.sid]
            durations[s.name].append(s.duration)
            # Busy time counts only the outermost span of a name, so a
            # layer re-entered below itself is not counted twice.
            p = s.parent
            while p is not None and by_id[p].name != s.name:
                p = by_id[p].parent
            if p is None:
                busy[s.name] += s.duration
        return {
            "calls": dict(calls),
            "busy_s": dict(busy),
            "self_s": dict(self_s),
            "durations": {k: np.asarray(v) for k, v in durations.items()},
            "counts": dict(self.counts.get(pass_id, {})),
        }

    def write(self, path):
        names = sorted({s.name for s in self.spans})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names}, fh)
            fh.write("\n")
            index = {n: i for i, n in enumerate(names)}
            for s in self.spans:
                fh.write(json.dumps([s.sid, index[s.name], s.start, s.end,
                                     s.parent, s.pass_id]) + "\n")


class NullTracer:
    """Stand-in for untraced passes: spans cost one no-op context."""

    pass_id = 0

    def span(self, name):
        return contextlib.nullcontext()
