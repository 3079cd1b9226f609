"""Trace replay against any clock-agnostic serving target.

:class:`TraceReplayer` drives a :class:`~repro.workloads.trace.Trace`
through the duck-typed surface :class:`repro.serve.ServingEngine`,
:class:`repro.cluster.Router` and :class:`repro.cluster.ShardRouter`
expose::

    target.servable.n_inputs        # payload width
    target.submit(payload, now)     # -> request | None (shed)
    target.poll(now)                # -> completed requests
    target.next_event_time()        # -> float | None (idle)
    target.metrics                  # received, completed, shed,
                                    # cache_hits, latency.samples

The target's ``metrics`` are the one record of what it did: the report
takes its counts and latencies from them, so the replayer keeps no
per-request list or counter of its own, and a target that has already
received a request is refused.

Time comes from :class:`repro.phi.events.EventSimulator`, so a replay
is a pure function of (trace, target construction) — two replays of the
same trace against identically-built targets are bit-identical.

``train`` events call an optional *trainer* object's
``step(now) -> float`` (returning the simulated seconds one step
charges).  Trainer exceptions are contained: they increment
``train_failures`` and never take serving down — the blast-radius
contract the chaos-under-load drills assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.phi.events import EventSimulator
from repro.utils.rng import spawn_generators
from repro.workloads.trace import Trace


@dataclass
class ReplayReport:
    """Target-independent summary of one trace replay (simulated time)."""

    trace_name: str
    fingerprint: str
    offered: int
    completed: int
    shed: int
    errors: int
    cache_hits: int
    train_steps: int
    train_failures: int
    train_seconds: float
    makespan_s: float
    throughput_rps: float
    goodput_fraction: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    first_train_error: str = ""

    @property
    def error_rate(self) -> float:
        return self.errors / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


class TraceReplayer:
    """Replays one trace against one serving target (single-use).

    Parameters
    ----------
    target:
        A fresh engine or router: the report reads the target's
        ``metrics``, so one replayer run per target.
    trace:
        The workload to replay; validated on construction.
    payloads:
        Optional explicit payload matrix with at least
        ``trace.payload_pool`` rows.  When omitted, the pool is rebuilt
        from the trace's seed via the standard three-stream spawn
        (stream 1), so a trace file alone reproduces the exact tensors.
    trainer:
        Object with ``step(now) -> float`` (simulated seconds charged),
        required iff the trace contains ``train`` events.
    actions:
        ``(at_s, callable(now))`` pairs fired at the given simulated
        times, after any trace event scheduled at the same instant
        (scale events, promotions, autoscaler ticks).
    """

    def __init__(
        self,
        target,
        trace: Trace,
        payloads: Optional[np.ndarray] = None,
        trainer=None,
        actions: Sequence[Tuple[float, Callable[[float], object]]] = (),
    ):
        trace.validate()
        if trace.n_train and trainer is None:
            raise ConfigurationError(
                f"trace {trace.name!r} contains {trace.n_train} train "
                "event(s) but no trainer was given"
            )
        n_inputs = target.servable.n_inputs
        if payloads is None:
            _, payload_rng, _ = spawn_generators(trace.seed, 3)
            payloads = payload_rng.random((trace.payload_pool, n_inputs))
        else:
            payloads = np.asarray(payloads, dtype=np.float64)
            if payloads.ndim != 2 or payloads.shape[1] != n_inputs:
                raise ConfigurationError(
                    f"payloads must be (n, {n_inputs}), got {payloads.shape}"
                )
            if payloads.shape[0] < trace.payload_pool:
                raise ConfigurationError(
                    f"payloads has {payloads.shape[0]} rows but the trace "
                    f"keys a pool of {trace.payload_pool}"
                )
        self.target = target
        self.trace = trace
        self.payloads = payloads
        self.trainer = trainer
        self.actions = list(actions)
        self._ran = False

    def run(self) -> ReplayReport:
        """Replay the full trace; returns the summary report."""
        if self._ran:
            raise ServingError(
                "a TraceReplayer (and its target) is single-use; "
                "build a fresh target+replayer per run"
            )
        trace = self.trace
        target = self.target
        metrics = target.metrics
        if metrics.received:
            raise ServingError(
                f"the target has already received {metrics.received} "
                "request(s); the report reads its metrics, so replay "
                "against a fresh target"
            )
        self._ran = True

        sim = EventSimulator()
        train_steps = [0]
        train_failures = [0]
        train_seconds = [0.0]
        first_train_error = [""]
        next_wake: List[Optional[float]] = [None]

        def drive():
            target.poll(sim.now)  # the target's metrics record what completed
            if next_wake[0] is not None and next_wake[0] <= sim.now + 1e-12:
                next_wake[0] = None  # that wakeup just fired (or is stale)
            upcoming = target.next_event_time()
            if upcoming is None:
                return
            upcoming = max(upcoming, sim.now)
            if next_wake[0] is None or upcoming < next_wake[0] - 1e-12:
                next_wake[0] = upcoming
                sim.schedule_at(upcoming, drive)

        def arrive(key: int):
            target.submit(self.payloads[key], sim.now)
            drive()

        def train():
            try:
                train_seconds[0] += float(self.trainer.step(sim.now))
                train_steps[0] += 1
            except Exception as exc:  # blast radius: training never kills serving
                train_failures[0] += 1
                if not first_train_error[0]:
                    first_train_error[0] = f"{type(exc).__name__}: {exc}"
            drive()

        def act(index: int):
            self.actions[index][1](sim.now)
            drive()

        for event in trace.events:
            if event.kind == "request":
                sim.schedule_at(event.t, arrive, event.key)
            else:
                sim.schedule_at(event.t, train)
        for i, (at_s, _) in enumerate(self.actions):
            sim.schedule_at(at_s, act, i)
        makespan = max(sim.run(), trace.duration_s)
        # drive schedules itself, so its closure refers to itself; unbind
        # it so the closures are freed on return, not at the next cyclic
        # collection.
        del drive

        offered = trace.n_requests
        completed = metrics.completed
        latencies = metrics.latency.samples
        p50, p95, p99 = (
            np.percentile(latencies, (50, 95, 99)) if latencies else (0.0, 0.0, 0.0)
        )
        return ReplayReport(
            trace_name=trace.name,
            fingerprint=trace.fingerprint(),
            offered=offered,
            completed=completed,
            shed=metrics.shed,
            errors=max(0, offered - metrics.shed - completed),
            cache_hits=metrics.cache_hits,
            train_steps=train_steps[0],
            train_failures=train_failures[0],
            train_seconds=train_seconds[0],
            makespan_s=makespan,
            throughput_rps=completed / makespan if makespan > 0 else 0.0,
            goodput_fraction=completed / offered if offered else 0.0,
            latency_p50_s=float(p50),
            latency_p95_s=float(p95),
            latency_p99_s=float(p99),
            first_train_error=first_train_error[0],
        )
