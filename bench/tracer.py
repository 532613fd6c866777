"""Outside-in tracer: wraps module-level names and measures host time.

A :class:`Tracer` replaces a function's name in the module namespace that
calls it (``glitchsim.search`` or ``glitchsim.campaign``) with a timing
wrapper, so the library itself is untouched.  Each thread keeps its own
span stack, which makes the wrapper safe for the thread pool behind
``jobs > 1``: a span's parent is the innermost wrapped call open on the
same thread, and its self time is its duration minus the durations of
its direct children on that thread.

Per-trial calls are only aggregated per ``(name, parent)``; calls wrapped
with ``span=True`` (steps and persistence, a handful per campaign) also
keep one span record each.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []  # one {(name, parent): [calls, total_s, self_s]} per thread
        self._targets: list[tuple] = []  # (module, attr, name, span, observe)
        self.spans: list[tuple] = []  # (name, start, end, parent, thread id)
        self.counts: dict[str, dict[str, float]] = {}  # name -> observed counters

    def add(self, module, attr: str, name: str, span: bool = False, observe=None):
        """Register ``module.attr`` to be wrapped as layer ``name``.

        ``observe(args, result, exc)`` may return counters (trials, bytes,
        ...) to add up under ``name``; it runs after the call's end time
        is taken.
        """
        self._targets.append((module, attr, name, span, observe))

    @contextmanager
    def installed(self):
        """Wrap every registered name; the originals are always restored."""
        saved = []
        try:
            for module, attr, name, span, observe in self._targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, span, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def _wrap(self, fn, name, span, observe):
        def wrapper(*args, **kwargs):
            stack, table = self._thread_state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]  # child time accumulates in frame[1]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                row = table.get((name, parent))
                if row is None:
                    row = table[(name, parent)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                if span or observe is not None:
                    extra = observe(args, result, exc) if observe is not None else None
                    with self._lock:
                        if span:
                            self.spans.append((name, t0, t1, parent, threading.get_ident()))
                        if extra:
                            bucket = self.counts.setdefault(name, {})
                            for key, value in extra.items():
                                bucket[key] = bucket.get(key, 0) + value
        wrapper.__wrapped__ = fn
        return wrapper

    def table(self) -> dict:
        """All threads merged: {(name, parent): [calls, total_s, self_s]}."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, self_s) in table.items():
                row = merged.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
        return merged

    def layer(self, name: str) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of one layer summed over its parents."""
        calls = total = self_s = 0
        for (n, _), (c, t, s) in self.table().items():
            if n == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s
