"""In-memory span tracing for the benchmark's traced run.

The tracer wraps public functions of gauss_share from the outside: every
module namespace that holds a reference to a wrapped function gets the
wrapper, so calls made through `from .codebook import wz_encode` style
imports are seen too.  Nothing inside the library changes.

A span is the list [name, start, end, parent], where parent is the
enclosing span (or None) on the same thread.  Spans stay in memory until
the run ends.  Functions that run hundreds of thousands of times per run,
a few microseconds each, are counted, not spanned, so the tracer's own
cost does not swamp them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name: str, fn, hook=None):
        """Wrapper recording one span per call; hook(result, *args, **kw) runs after it."""
        clock = self.clock
        spans = self.spans
        get_stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = get_stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrapper that only counts calls."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr by wrapper in owner and in every gauss_share module holding it."""
        original = getattr(owner, attr)
        holders = [owner] + [
            mod
            for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "gauss_share" and mod is not owner
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (sum of durations) and self_s.

    self_s of a span is its duration minus its child spans' durations; a
    name's self_s is the sum over its spans.  A span's children come from
    one thread's stack, so they run one after another and never overlap.
    """
    children: dict[int, float] = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            children[id(parent)] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        name, start, end, _ = span
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - children[id(span)]
    return dict(stats)
