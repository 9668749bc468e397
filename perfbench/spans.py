"""In-memory span tracing from outside the library.

Library functions are wrapped at the module attributes their callers look
up (``robust_rcpsp.bnb.worst_case_makespan_dp`` is what the search calls,
``robust_rcpsp.milp.export_lp`` is what ``solve_external`` calls), so no
file under ``src/`` changes.  Each call becomes a span: id, name, parent,
start, end and a dict of observed values.  Spans stay in memory until the
benchmark writes them out at the end.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent, start):
        self.sid, self.name, self.parent, self.start = sid, name, parent, start
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Span recorder that patches module attributes while installed.

    Spans opened on a thread with no open span of its own (the bench pool's
    worker threads) get as parent the innermost span open on the thread
    that opened the root, so pool tasks nest under ``run_experiment``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = []
        self._hooks = []  # (module, attr, observe)
        self._saved = []

    def hook(self, module, attr, observe=None):
        """Register ``module.attr`` for wrapping; ``observe(span, result,
        args)`` may copy values from the call into the span."""
        self._hooks.append((module, attr, observe))

    @contextmanager
    def installed(self):
        for module, attr, observe in self._hooks:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, observe))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def _wrap(self, fn, observe):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(span, result, args)
                return result
        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        opener = stack or self._root_stack
        parent = opener[-1].sid if opener else None
        span = Span(next(self._ids), name, parent, time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def root(self, name):
        """A top-level span (``setup``, ``op`` or ``check``) under which the
        spans of worker threads started inside it are collected."""
        with self.span(name) as span:
            self._root_stack = self._stack()
            try:
                yield span
            finally:
                self._root_stack = []


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.duration - covered
    return out


def under_roots(spans, root_names):
    """The spans that descend from a root span with one of the given names."""
    by_id = {s.sid: s for s in spans}
    keep = []
    for s in spans:
        top = s
        while top.parent is not None:
            top = by_id[top.parent]
        if top.name in root_names and s is not top:
            keep.append(s)
    return keep
