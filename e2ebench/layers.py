"""Spans around calls into the program's layers, recorded from outside.

The benchmark never edits the program to time it.  In a traced run it
replaces public functions (and the few names a module imported from
another layer) with wrappers that open a span, calls through, and puts
every original back afterwards.  A span is ``(id, name, start, end,
parent, op)``; spans of one op share the op id.  Spans stay in memory
and are written out once, when the run ends.

A layer's self time is its span's duration minus the time its child
spans cover.  Every op is wrapped in a root ``op`` span, so the self
times of one op add up to its wall time exactly; the root's own self
time is whatever no wrapped layer claimed (benchmark glue plus program
code between layer calls).
"""

import collections
import contextlib
import functools
import json
import os
import time


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []
        self.counts = collections.defaultdict(
            lambda: collections.defaultdict(float))
        self._stack = []
        self._patches = []
        self._origin = time.perf_counter()

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter() - self._origin, "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def record(self, name, start, end, parent=None, op=None):
        """Add a span timed by the caller (for concurrent requests, where
        one call stack cannot describe the nesting); returns its id."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "op": op})
        return len(self.spans) - 1

    def count(self, name, value=1):
        if self.enabled:
            self.counts[self.op][name] += value

    def wrap(self, fn, name):
        """*fn* with a span named *name* around every traced call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, name=None, replacement=None):
        """Replace ``owner.attr`` by a traced wrapper (or *replacement*).

        Class attributes are read from the class ``__dict__`` so that
        classmethods keep their descriptor type.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        if replacement is None:
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, name))
            else:
                replacement = self.wrap(raw, name)
        setattr(owner, attr, replacement)

    def unpatch(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """``{op: {span name: self seconds}}`` over every recorded op."""
        covered = collections.defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        per_op = collections.defaultdict(
            lambda: collections.defaultdict(float))
        for record in self.spans:
            duration = record["end"] - record["start"]
            per_op[record["op"]][record["name"]] += (
                duration - covered[record["id"]])
        return per_op

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class TracedHandle:
    """Skeleton backend handle whose engine calls open spans.

    ``run_cycles`` is the engine (``skeleton.run``); the count and
    history accessors are result extraction (``skeleton.extract``).
    Every other attribute passes straight through.
    """

    _EXTRACT = ("fire_counts", "accept_counts", "accept_history",
                "void_stop_counts")

    def __init__(self, handle, tracer, width):
        self._handle = handle
        self._tracer = tracer
        self._width = width

    def run_cycles(self, cycles):
        self._tracer.count("skeleton.cycle_columns", cycles * self._width)
        with self._tracer.span("skeleton.run"):
            return self._handle.run_cycles(cycles)

    def __getattr__(self, attr):
        value = getattr(self._handle, attr)
        if attr in self._EXTRACT:
            return self._tracer.wrap(value, "skeleton.extract")
        return value


def patch_skeleton_select(tracer):
    """Trace ``repro.skeleton.backend.select`` and the handle it returns."""
    from repro.skeleton import backend

    original = backend.select

    def select(graph, *args, **kwargs):
        if not tracer.enabled:
            return original(graph, *args, **kwargs)
        with tracer.span("skeleton.build"):
            handle = original(graph, *args, **kwargs)
        return TracedHandle(handle, tracer, kwargs.get("batch") or 1)

    tracer.patch(backend, "select", replacement=select)
