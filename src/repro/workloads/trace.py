"""Versioned, seed-deterministic workload traces.

A :class:`Trace` is the replayable unit of load: an ordered list of
:class:`TraceEvent` instants plus the metadata needed to reconstruct
the exact payload tensors (``seed``, ``payload_pool``).  Traces are
pure data — generating one involves randomness, replaying one does
not, so a trace committed to disk replays bit-identically forever.

On-disk format (``*.trace.jsonl``): JSON-lines with a schema header.

    {"schema": "repro.trace/v1", "name": "diurnal", "seed": 7, ...}
    {"t": 0.00143, "kind": "request", "key": 12}
    {"t": 0.00327, "kind": "request", "key": 3}
    {"t": 0.05000, "kind": "train"}

Event kinds:

* ``request`` — submit payload ``key`` (an index into the seeded
  payload pool) to the serving target at time ``t``;
* ``train`` — run one training step at time ``t`` (only meaningful to
  replayers given a trainer, e.g. the mixed train+serve scenario).

This module deliberately knows nothing about engines, routers, or
training loops — layering enforces ``repro.workloads`` ↛
serve/cluster/train (see ``tools/check_layering.py``); the replayer
drives targets through their duck-typed ``submit``/``poll`` surface.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, spawn_generators
from repro.workloads.arrivals import PoissonArrivals

#: current on-disk schema version
TRACE_SCHEMA = "repro.trace/v1"

#: recognised event kinds
EVENT_KINDS = ("request", "train")


@dataclass(frozen=True)
class TraceEvent:
    """One timed event: a request arrival or a training step."""

    t: float
    kind: str = "request"
    key: int = 0

    def to_json(self) -> str:
        if self.kind == "train":
            return json.dumps({"t": self.t, "kind": self.kind})
        return json.dumps({"t": self.t, "kind": self.kind, "key": self.key})

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        obj = json.loads(line)
        return cls(
            t=float(obj["t"]),
            kind=str(obj.get("kind", "request")),
            key=int(obj.get("key", 0)),
        )


@dataclass(frozen=True)
class Trace:
    """An ordered, replayable workload (header metadata + events)."""

    name: str
    seed: int
    duration_s: float
    payload_pool: int
    events: Tuple[TraceEvent, ...]
    pattern: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    schema: str = TRACE_SCHEMA

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return sum(1 for e in self.events if e.kind == "request")

    @property
    def n_train(self) -> int:
        return sum(1 for e in self.events if e.kind == "train")

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any malformed field."""
        if self.schema != TRACE_SCHEMA:
            raise ConfigurationError(
                f"unsupported trace schema {self.schema!r} "
                f"(this build reads {TRACE_SCHEMA!r})"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.payload_pool < 1:
            raise ConfigurationError(
                f"payload_pool must be >= 1, got {self.payload_pool}"
            )
        prev = 0.0
        for i, event in enumerate(self.events):
            if event.kind not in EVENT_KINDS:
                raise ConfigurationError(
                    f"event {i}: unknown kind {event.kind!r} "
                    f"(expected one of {EVENT_KINDS})"
                )
            if event.t < 0:
                raise ConfigurationError(
                    f"event {i}: negative time {event.t}"
                )
            if event.t < prev:
                raise ConfigurationError(
                    f"event {i}: time {event.t} precedes previous {prev} "
                    "(traces are oldest-first)"
                )
            if event.kind == "request" and not 0 <= event.key < self.payload_pool:
                raise ConfigurationError(
                    f"event {i}: key {event.key} outside payload pool "
                    f"[0, {self.payload_pool})"
                )
            prev = event.t

    def fingerprint(self) -> str:
        """Content hash over header + events; equal ⇔ replay-identical."""
        h = hashlib.sha256()
        h.update(self._header_json().encode())
        for event in self.events:
            h.update(b"\n")
            h.update(event.to_json().encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def _header_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "name": self.name,
                "seed": self.seed,
                "duration_s": self.duration_s,
                "payload_pool": self.payload_pool,
                "pattern": self.pattern,
                "params": self.params,
                "events": len(self.events),
            },
            sort_keys=True,
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write JSON-lines (header line first); returns the path."""
        path = Path(path)
        lines = [self._header_json()]
        lines.extend(event.to_json() for event in self.events)
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path], validate: bool = True) -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if not lines:
            raise ConfigurationError(f"trace file {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace file {path}: header line is not JSON: {exc}"
            ) from exc
        if not isinstance(header, dict) or "schema" not in header:
            raise ConfigurationError(
                f"trace file {path}: first line must be a schema header"
            )
        trace = cls(
            name=str(header.get("name", path.stem)),
            seed=int(header.get("seed", 0)),
            duration_s=float(header.get("duration_s", 0.0)),
            payload_pool=int(header.get("payload_pool", 0)),
            events=tuple(TraceEvent.from_json(ln) for ln in lines[1:]),
            pattern=str(header.get("pattern", "")),
            params=dict(header.get("params", {})),
            schema=str(header["schema"]),
        )
        declared = header.get("events")
        if declared is not None and int(declared) != len(trace.events):
            raise ConfigurationError(
                f"trace file {path}: header declares {declared} events, "
                f"found {len(trace.events)}"
            )
        if validate:
            trace.validate()
        return trace


# ----------------------------------------------------------------------
def trace_from_streams(
    arrivals: PoissonArrivals,
    duration_s: float,
    arrival_rng: np.random.Generator,
    pick_rng: np.random.Generator,
    payload_pool: int,
    *,
    seed: int = 0,
    name: str = "arrivals",
) -> Trace:
    """Build a request-only trace from pre-spawned rng streams.

    Arrival times come from ``arrival_rng`` and payload keys from
    ``pick_rng``.  :func:`trace_from_arrivals` hands it streams 0 and 2
    of ``spawn_generators(seed, 3)``; stream 1 is the payload pool the
    replayer rebuilds from the same seed.
    """
    times = arrivals.arrival_times(duration_s, arrival_rng)
    picks = pick_rng.integers(0, payload_pool, size=len(times))
    events = tuple(
        TraceEvent(t=float(t), kind="request", key=int(k))
        for t, k in zip(times, picks)
    )
    return Trace(
        name=name,
        seed=seed,
        duration_s=float(duration_s),
        payload_pool=int(payload_pool),
        events=events,
        pattern="arrivals",
        params={"arrivals": type(arrivals).__name__},
    )


def trace_from_arrivals(
    arrivals: PoissonArrivals,
    duration_s: float,
    *,
    seed: SeedLike = 0,
    payload_pool: int = 64,
    name: str = "arrivals",
) -> Trace:
    """Sample an arrival process into a request-only :class:`Trace`.

    Spawns the standard three streams from ``seed`` (arrival / payload /
    pick); stream 1 is reserved for the payload pool the replayer will
    rebuild from the same seed, so the trace and its payloads stay in
    lock-step.
    """
    if payload_pool < 1:
        raise ConfigurationError(f"payload_pool must be >= 1, got {payload_pool}")
    arrival_rng, _, pick_rng = spawn_generators(seed, 3)
    trace_seed = seed if isinstance(seed, int) else 0
    return trace_from_streams(
        arrivals,
        duration_s,
        arrival_rng,
        pick_rng,
        payload_pool,
        seed=trace_seed,
        name=name,
    )


def merge_events(
    *groups: Sequence[TraceEvent],
) -> Tuple[TraceEvent, ...]:
    """Stable time-ordered merge of event groups (ties keep group order)."""
    merged: List[Tuple[float, int, TraceEvent]] = []
    for gi, group in enumerate(groups):
        merged.extend((e.t, gi, e) for e in group)
    merged.sort(key=lambda item: (item[0], item[1]))
    return tuple(e for _, _, e in merged)
