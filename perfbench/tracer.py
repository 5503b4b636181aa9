"""In-memory spans around calls into mixedfrac, with self times.

A span records its name, start, end and the span that caused it.  Spans
nest per thread; a span opened by a worker thread with nothing open on
that thread is a child of the outermost span open at the time (the
``experiments.run`` call that owns the thread pool).  Wrappers are
installed on public names of a module or class namespace and removed by
``restore``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid: int, name: str, parent: int | None, start: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.installed: set[str] = set()   # span names with at least one wrapper
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None
        self._next_id = 0
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else self._root
            sp = Span(self._next_id, name, parent.sid if parent else None,
                      time.perf_counter())
            self._next_id += 1
            is_root = self._root is None
            if is_root:
                self._root = sp
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if is_root:
                    self._root = None
                self.spans.append(sp)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Trace calls made through ``owner.attr``; False if there is no such public name.

        ``on_result(span, args, kwargs, result)`` may store attributes on the span.
        """
        fn = getattr(owner, attr, None)
        if attr.startswith("_") or not callable(fn):
            return False
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, kwargs, out)
                return out

        self._patches.append((owner, attr, attr in vars(owner), fn))
        setattr(owner, attr, traced)
        self.installed.add(name)
        return True

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._patches:
            owner, attr, was_own, fn = self._patches.pop()
            if was_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append((sp.start, sp.end))
        out = {}
        for sp in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sp.sid, ())):
                lo, hi = max(lo, sp.start), min(hi, sp.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sp.sid] = sp.duration - covered
        return out
