"""In-memory span tracer that instruments the repro layers from outside.

The benchmark does not edit the program: for a traced study it replaces
the public entry points of each layer (``Critic.fit``,
``EvalEngine.evaluate_batch``, ``MultiplexedConnection.request``, ...)
with thin wrappers that record a span — name, start, end, parent span,
thread and run id — and restores the originals afterwards.  Spans stay in
memory until the run ends; :func:`chrome_trace` turns them into
trace-event JSON (opens in Perfetto / ``chrome://tracing``) and
:func:`self_times` computes each layer's self time.

A span's parent is the innermost open span of its own thread.  A span
opened on a helper thread with nothing open there (the engine's dispatch
threads, the remote dispatcher's per-host threads) takes the innermost
open span of the thread that created the tracer, which is the study loop
that caused it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

__all__ = ["Tracer", "Span", "chrome_trace", "self_times", "layer_table"]


class Span(NamedTuple):
    """One recorded call; ``parent`` 0 means no enclosing span."""

    sid: int
    name: str
    start: float
    end: float
    parent: int
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for one traced run.

    ``wrap`` patches an attribute of a class, module or object; ``close``
    restores every patched attribute.
    """

    def __init__(self, run_id: int):
        self.run_id = int(run_id)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.window: tuple[float, float] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.thread = threading.get_ident()
        self._root_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        # Counts are updated from helper threads too (per-host requests,
        # connection readers); += on a Counter is not atomic.
        self._count_lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> None:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            try:
                parent = self._root_stack[-1][0]
            except IndexError:
                parent = 0
        stack.append((next(self._ids), name, parent, perf_counter()))

    def _close(self) -> None:
        end = perf_counter()
        sid, name, parent, start = self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent,
                               threading.get_ident()))

    # -- instrumentation -----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``after(args, result)`` runs once the span is closed, under the
        count lock, for counts that need the call's arguments or result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                with tracer._count_lock:
                    after(args, result)
            return result

        self._patch(owner, attr, original, traced)

    def count_calls(self, owner, attr: str, name: str, after=None) -> None:
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            with tracer._count_lock:
                tracer.counts[name] += 1
                if after is not None:
                    after(args, result)
            return result

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        # Class attributes are restored from the class dict so an
        # inherited method is removed again rather than pinned as an
        # override on the subclass.
        saved = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else original
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, replacement)

    def close(self) -> None:
        """Undo every patch, newest first (idempotent)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


_MISSING = object()


# -- analysis ------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Only children on the span's own thread count.  A helper-thread child
    runs beside its parent, which is meanwhile waiting for it, so that
    wait stays the parent's self time and per-thread self times add up to
    each thread's busy time.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.parent, span.thread)].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get((span.sid, span.thread), ())
                   if e > span.start and s < span.end]
        out[span.sid] = span.duration - _union_length(clipped)
    return out


def layer_table(tracer: Tracer, split: tuple[str, str, float] | None = None
                ) -> list[tuple[str, float, int]]:
    """Per-layer ``(layer, self seconds, span count)`` rows for one study.

    Rows for spans on the study's own thread add up, with the final
    ``(no span)`` row, to the study's wall-clock; ``(no span)`` is the part
    no span covers, the study loop's own bookkeeping.  Spans on helper
    threads (engine dispatch, per-host remote requests) run in parallel
    with the study thread and are listed as ``<layer> (helper threads)``.
    ``split=(layer, inner, seconds)`` moves ``seconds`` of ``layer``'s
    self time into a row ``inner``, for time a layer measures itself
    (the simulator's counted phases inside in-process evaluations).
    """
    spans = tracer.spans
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        layer = (span.layer if span.thread == tracer.thread
                 else f"{span.layer} (helper threads)")
        seconds[layer] += own[span.sid]
        calls[layer] += 1
    if split is not None and seconds.get(split[0]):
        layer, inner, moved = split
        seconds[layer] -= moved
        seconds[inner] += moved
    roots = [(s.start, s.end) for s in spans
             if s.thread == tracer.thread and not s.parent]
    start, end = tracer.window
    rows = sorted(((layer, seconds[layer], calls[layer]) for layer in seconds),
                  key=lambda row: ("helper" in row[0], -row[1]))
    rows.append(("(no span)", max(0.0, end - start - _union_length(roots)), 0))
    return rows


def chrome_trace(tracers: list[Tracer], metadata: dict) -> dict:
    """Trace-event JSON (complete ``X`` events, microseconds) for tracers."""
    events = []
    origin = min((t.window[0] for t in tracers if t.window), default=0.0)
    for tracer in tracers:
        threads: dict[int, int] = {}
        for span in sorted(tracer.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": tracer.run_id, "tid": tid,
                "args": {"span": span.sid, "parent": span.parent,
                         "run": tracer.run_id},
            })
        events.append({"name": "process_name", "ph": "M", "pid": tracer.run_id,
                       "args": {"name": f"study run {tracer.run_id}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}
