"""Span and counter recording for the traced benchmark run.

Layers are timed from outside: `Recorder.install` replaces module
attributes that callers look up at call time (for example
`mlmt.engine.typed_matches`) with wrappers, and `uninstall` puts the
originals back.  Nothing is wrapped unless a recorder is installed, so the
untraced run executes the library unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Keeps spans (parent id, name, start, end) and named counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _span(self, name, fn, on_result):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (parent, name, start, end)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr), wrapper))
        setattr(module, attr, wrapper)

    def install(self, span_specs, counter_specs):
        """span_specs: (name, [(module, attr)], on_result or None);
        counter_specs: (counter key, module, attr)."""
        for name, targets, on_result in span_specs:
            for module, attr in targets:
                self._patch(module, attr, self._span(name, getattr(module, attr), on_result))
        for key, module, attr in counter_specs:
            self._patch(module, attr, self._counter(key, getattr(module, attr)))

    def uninstall(self):
        for module, attr, original, _ in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Runs the body with the originals in place, so that it records
        nothing, then puts the wrappers back.  A no-op when not installed."""
        patched = list(self._patched)
        self.uninstall()
        try:
            yield
        finally:
            for module, attr, _, wrapper in patched:
                setattr(module, attr, wrapper)
            self._patched = patched

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of the spans
        whose parent it is.
        """
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for sid, (_, name, start, end) in enumerate(self.spans):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start, own + end - start - child_time[sid])
        return out
