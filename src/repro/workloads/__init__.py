"""Replayable workload traces, pattern suite, replayer, and SLO gates.

The trace layer sits *below* serve/cluster/train in the import
hierarchy (enforced by ``tools/check_layering.py``): traces are pure
data, and the :class:`TraceReplayer` drives targets through their
duck-typed ``submit``/``poll`` surface.  It is the one driver of every
serving load run: ``trace_from_arrivals`` samples an arrival process,
the replayer runs it, and the target's ``metrics`` hold the counters.
See ``docs/workloads.md``.
"""

from repro.workloads.arrivals import BurstArrivals, PoissonArrivals
from repro.workloads.patterns import (
    PATTERNS,
    QUICK_OVERRIDES,
    cache_busting,
    diurnal,
    flash_crowd,
    generate,
    mixed_train_serve,
)
from repro.workloads.replay import ReplayReport, TraceReplayer
from repro.workloads.slo import SLOGate
from repro.workloads.trace import (
    EVENT_KINDS,
    TRACE_SCHEMA,
    Trace,
    TraceEvent,
    merge_events,
    trace_from_arrivals,
    trace_from_streams,
)

__all__ = [
    "BurstArrivals",
    "PoissonArrivals",
    "PATTERNS",
    "QUICK_OVERRIDES",
    "cache_busting",
    "diurnal",
    "flash_crowd",
    "generate",
    "mixed_train_serve",
    "ReplayReport",
    "TraceReplayer",
    "SLOGate",
    "EVENT_KINDS",
    "TRACE_SCHEMA",
    "Trace",
    "TraceEvent",
    "merge_events",
    "trace_from_arrivals",
    "trace_from_streams",
]
