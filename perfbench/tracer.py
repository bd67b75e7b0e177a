"""Outside-in span tracer for scolab's public entry points.

The tracer replaces functions at the attribute sites through which
scolab's modules call each other (``from .x import y`` copies the
reference, so every importing module is patched separately), records one
span per call and restores every original attribute on exit.  Spans are
kept in memory; :func:`self_times` and :func:`summarize` turn them into
per-layer numbers after the traced calls have finished.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter


class Span:
    """One traced call.  ``parent`` is the enclosing span, or None at the root."""

    __slots__ = ("name", "start", "end", "parent", "rep", "thread", "info")

    def __init__(self, name, start, parent, rep, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rep = rep
        self.thread = thread
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patch ``(owner, attribute)`` sites with span-recording wrappers.

    A span opened on a thread with no open span of its own (a pool
    worker) takes as parent the innermost span open on the thread that
    installed the tracer, which is the call that fanned the work out.
    ``rep``, the workload repetition id, is stamped on every span.
    """

    def __init__(self, sites, rep: int = 0):
        # sites: iterable of (owner, attribute, span name, info hook or None);
        # the hook runs after the call as hook(args, kwargs) and its result
        # is stored on the span.
        self.sites = list(sites)
        self.spans: list[Span] = []
        self.rep = rep
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home_stack[-1] if tracer._home_stack else None
            span = Span(name, perf_counter(), parent, tracer.rep, threading.get_ident())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if hook is not None:
                    span.info = hook(args, kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, hook in self.sites:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict, float]:
    """Self time of every span, and the total overlap between siblings.

    Self time is a span's duration minus the part of it its children
    cover.  Children on different threads can overlap each other; the
    summed overlap (children's summed durations minus their union) is
    returned so that ``sum(self) - overlap`` equals the root spans'
    summed duration (up to rounding).
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    own = {}
    overlap = 0.0
    for span in spans:
        kids = children.get(id(span), ())
        covered = union_length(((k.start, k.end) for k in kids), span.start, span.end)
        own[id(span)] = span.duration - covered
        overlap += sum(k.duration for k in kids) - covered
    return own, overlap


def _nested(span, key) -> bool:
    """True when an ancestor of ``span`` has the same ``key`` (name or layer),
    so that its duration is already counted in that ancestor's."""
    node = span.parent
    while node is not None:
        if key(node) == key(span):
            return True
        node = node.parent
    return False


def summarize(spans) -> dict:
    """Per-name and per-layer totals for one repetition's spans."""
    own, overlap = self_times(spans)
    names = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "info": []})
    layers = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    roots = 0.0
    for span in spans:
        entry = names[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[id(span)]
        if span.info is not None:
            entry["info"].append(span.info)
        if not _nested(span, lambda s: s.name):
            entry["busy_s"] += span.duration
        layers[span.layer]["self_s"] += own[id(span)]
        if not _nested(span, lambda s: s.layer):
            layers[span.layer]["busy_s"] += span.duration
        if span.parent is None:
            roots += span.duration
    return {
        "names": dict(names),
        "layers": dict(layers),
        "root_s": roots,
        "self_sum_s": sum(own.values()),
        "overlap_s": overlap,
    }
