"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own code: :meth:`Tracer.instrument`
wraps public methods of the program's classes for the duration of a
``with`` block and restores the originals on exit, so the program itself
is never edited.  Each span keeps its name, start, end, thread, the span
that caused it and an optional work count (rows, flops, bytes).

Only a *layer boundary* opens a span: a call into the same layer as the
innermost open span on the thread is folded into that span, so an
``nn.epoch_metric`` that encodes internally stays one ``nn`` span.  A
span opened on a thread with no open span of its own (an engine worker,
the prefetch loader) takes the innermost span of the coordinating thread
as its parent.

A span's *self time* is its duration minus the time covered by its child
spans on the same thread.  Spans stay in memory and are written out once,
at the end, as Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


# A closed span is a plain tuple of plain values, so the garbage collector
# stops tracking it and a long trace adds no collection pauses:
# (id, name, parent, tid, start, end, work, child_s).
ID, NAME, PARENT, TID, START, END, WORK, CHILD_S = range(8)


def duration(span: tuple) -> float:
    return span[END] - span[START]


def self_time(span: tuple) -> float:
    """Duration minus the time covered by same-thread child spans."""
    return span[END] - span[START] - span[CHILD_S]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# An open span is a list: [id, name, parent, tid, start, child_s].
_CHILD = 5


class Tracer:
    """Collects spans; ``enabled=False`` makes every hook a plain call."""

    def __init__(self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_tid = threading.get_ident()
        self._main_stack: List[list] = []
        self._next_id = 0

    # -- span stack -------------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Optional[list]:
        stack = self._stack()
        if stack and layer_of(stack[-1][NAME]) == layer_of(name):
            return None  # same-layer call: folded into the open span
        if stack:
            parent = stack[-1][ID]
        else:
            main = self._main_stack
            parent = main[-1][ID] if main else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        tid = threading.get_ident()
        span = [sid, name, parent, tid, self.clock(), 0.0]
        stack.append(span)
        if tid == self._main_tid:
            self._main_stack = stack
        return span

    def _close(self, span: list, work: float = 0.0) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][_CHILD] += end - span[START]
        closed = (span[ID], span[NAME], span[PARENT], span[TID],
                  span[START], end, float(work), span[_CHILD])
        with self._lock:
            self.spans.append(closed)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        opened = self._open(name)
        try:
            yield
        finally:
            if opened is not None:
                self._close(opened)

    # -- method instrumentation ------------------------------------------
    @contextmanager
    def instrument(self, targets):
        """Wrap ``(owner, attribute, span_name[, work_fn])`` entries.

        ``work_fn(*args, **kwargs)`` returns the span's work count.  The
        originals are restored when the block exits, even on error.
        """
        if not self.enabled:
            yield
            return
        saved = []
        try:
            for entry in targets:
                owner, attr, name = entry[:3]
                work_fn = entry[3] if len(entry) > 3 else None
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, work_fn))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, original, name: str, work_fn):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            opened = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                if opened is not None:
                    tracer._close(opened, work_fn(*args, **kwargs) if work_fn else 0.0)

        return traced

    # -- summaries --------------------------------------------------------
    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, summed work."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
        )
        for s in self.spans:
            row = out[s[NAME]]
            row["calls"] += 1
            row["total_s"] += duration(s)
            row["self_s"] += self_time(s)
            row["work"] += s[WORK]
        return dict(out)

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' wall time covered by the self time
        of the layer spans beneath them on the same thread."""
        roots = {s[ID]: s for s in self.spans if s[NAME] == root}
        wall = sum(duration(s) for s in roots.values())
        if wall <= 0:
            return 0.0
        parent = {s[ID]: s[PARENT] for s in self.spans}
        root_tids = {r[TID] for r in roots.values()}
        layered = 0.0
        for s in self.spans:
            if s[ID] in roots or s[TID] not in root_tids:
                continue
            up = s[PARENT]
            while up is not None and up not in roots:
                up = parent.get(up)
            if up is not None and roots[up][TID] == s[TID]:
                layered += self_time(s)
        return layered / wall

    def write_chrome(self, path: str, metadata: Optional[dict] = None) -> None:
        """Write the spans as Chrome trace-event JSON ("X" complete events)."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s[START]):
            tid = tids.setdefault(s[TID], len(tids))
            events.append({
                "name": s[NAME],
                "cat": layer_of(s[NAME]),
                "ph": "X",
                "ts": (s[START] - t0) * 1e6,
                "dur": duration(s) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": s[ID], "parent": s[PARENT], "work": s[WORK]},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata or {}}, fh)
