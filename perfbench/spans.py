"""In-memory spans and counters for the traced benchmark run.

Coarse calls (a few per op) become spans: name, start, end, the span that
caused it, and the op it belongs to.  Fine calls (thousands per op, such as
one ``h_scalar`` evaluation) only bump a counter and a time total, and
their time is charged to the enclosing span as child time, so a span's self
time is its duration minus what its child spans and fine calls cover.

Wrappers are installed by swapping module-level names at run time and are
removed again by ``restore``; the package itself is never edited.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) for 0 <= q <= 1."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[list] = []   # [id, name, start, child_s]
        self._next_id = 0
        self.op = None                 # identifier shared by one op's spans
        self.calls = defaultdict(int)
        self.time_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # (enclosing span name, fine call name) -> calls made directly in it
        self.inside = defaultdict(int)
        self.extra = defaultdict(float)  # counts computed from results
        self.seen: set = set()  # keys met before, to tell first calls apart
        self._patched: list[tuple] = []

    # spans -----------------------------------------------------------------
    def open(self, name: str) -> int:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        return self._next_id

    def close(self) -> float:
        end = perf_counter()
        sid, name, start, child_s = self._stack.pop()
        dur = end - start
        self_time = dur - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.time_s[name] += dur
        self.self_s[name] += self_time
        self.spans.append({"id": sid, "parent": parent[0] if parent else None,
                           "op": self.op, "name": name, "start": start,
                           "end": end, "self_s": self_time})
        return dur

    def fine(self, name: str, dur: float) -> None:
        self.calls[name] += 1
        self.time_s[name] += dur
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            self.inside[(top[1], name)] += 1

    def count(self, name: str) -> None:
        self.calls[name] += 1
        if self._stack:
            self.inside[(self._stack[-1][1], name)] += 1

    # wrappers --------------------------------------------------------------
    def span_wrapper(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def fine_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fine(name, perf_counter() - start)
        return wrapper

    def count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
