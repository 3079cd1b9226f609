"""The serving engine: micro-batcher + worker pool + cache + metrics.

The engine is the deployment-time mirror of the paper's training loop:
real NumPy forward passes (the functional half) paired with a simulated
device clock (the timing half).  A dispatched batch *actually* runs
through the model — results are scattered back to the individual
requests — while its duration is charged by a
:class:`SimulatedServiceModel` that executes the batch's kernel levels
on a :class:`repro.phi.machine.SimulatedMachine`, the same cost model
that times training.

Like the micro-batcher, the engine is clock-agnostic: callers pass
``now`` explicitly.  The discrete-event load tests advance it through
:class:`repro.phi.events.EventSimulator`; a real deployment would pass
``time.monotonic()``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.serve.batcher import BatchPolicy, MicroBatcher, Request
from repro.serve.cache import FeatureCache, key_prefix
from repro.serve.metrics import ServingMetrics
from repro.serve.registry import ServableModel

_EPS = 1e-12


class ConstantServiceModel:
    """Affine batch cost: ``base_s + per_example_s × batch``.

    A stand-in for tests and analytic studies; ``base_s`` is the
    per-dispatch overhead that batching amortises.
    """

    def __init__(self, base_s: float = 1e-3, per_example_s: float = 1e-4):
        if base_s < 0 or per_example_s < 0:
            raise ConfigurationError("service-model times must be >= 0")
        self.base_s = float(base_s)
        self.per_example_s = float(per_example_s)

    def seconds(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ServingError(f"batch_size must be >= 1, got {batch_size}")
        return self.base_s + self.per_example_s * batch_size


class SimulatedServiceModel:
    """Batch cost from the simulated machine's roofline model.

    Executes the servable's forward kernel levels on a
    :class:`~repro.phi.machine.SimulatedMachine` for the given batch
    size.  Small batches under-fill the Phi's thread pool and vector
    pipes (the Fig. 9 effect), so seconds-per-example falls steeply with
    batch size — this is the efficiency dynamic batching harvests.
    """

    def __init__(
        self,
        servable: ServableModel,
        spec=None,
        backend=None,
        dispatch_overhead_s: float = 50e-6,
    ):
        from repro.phi.machine import SimulatedMachine
        from repro.phi.spec import XEON_PHI_5110P
        from repro.runtime.backend import OptimizationLevel, backend_for_level

        if dispatch_overhead_s < 0:
            raise ConfigurationError("dispatch_overhead_s must be >= 0")
        self.servable = servable
        self.spec = spec if spec is not None else XEON_PHI_5110P
        self.backend = (
            backend if backend is not None else backend_for_level(OptimizationLevel.IMPROVED)
        )
        self.dispatch_overhead_s = float(dispatch_overhead_s)
        self._machine = SimulatedMachine(self.spec, self.backend)
        self._cache: dict = {}

    def seconds(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ServingError(f"batch_size must be >= 1, got {batch_size}")
        m = int(batch_size)
        if m not in self._cache:
            elapsed = self._machine.execute_levels(self.servable.forward_levels(m))
            self._cache[m] = self.dispatch_overhead_s + elapsed
        return self._cache[m]


class WorkerPool:
    """Fixed pool of device workers, each busy until a known time."""

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self._free_at = [0.0] * int(n_workers)

    @property
    def n_workers(self) -> int:
        return len(self._free_at)

    def acquire(self, now: float) -> Optional[int]:
        """Index of an idle worker at ``now``, or None if all are busy."""
        for i, t in enumerate(self._free_at):
            if t <= now + _EPS:
                return i
        return None

    def busy_until(self, worker: int, until: float) -> None:
        self._free_at[worker] = until

    def next_free_time(self) -> float:
        return min(self._free_at)


@dataclass
class _InFlightBatch:
    """A dispatched batch executing on a (simulated) worker."""

    requests: List[Request]
    worker: int
    dispatch_s: float
    done_s: float


class ServingEngine:
    """Admission → queue → batch → forward pass → completion.

    Parameters
    ----------
    servable:
        The model being served.
    policy:
        Micro-batching policy (defaults: batch ≤ 32, wait ≤ 2 ms).
    service_model:
        Maps batch size to service seconds; defaults to the simulated
        Xeon Phi at the paper's best optimization level.
    n_workers:
        Concurrent device workers (each runs one batch at a time).
    cache:
        Optional :class:`FeatureCache`; hits complete immediately and
        never touch the queue.

    :meth:`submit` validates every payload itself: it is a public entry
    point, and the check also fixes the payload's shape and dtype, so
    the cache key's shape/dtype prefix is built once here and each
    request appends only its bytes.
    """

    def __init__(
        self,
        servable: ServableModel,
        policy: Optional[BatchPolicy] = None,
        service_model=None,
        n_workers: int = 1,
        cache: Optional[FeatureCache] = None,
    ):
        if not isinstance(servable, ServableModel):
            raise ServingError(
                "ServingEngine needs a ServableModel (wrap raw models via "
                "ModelRegistry.register or ServableModel(name, model))"
            )
        self.servable = servable
        self.policy = policy if policy is not None else BatchPolicy()
        self.batcher = MicroBatcher(self.policy)
        self.service_model = (
            service_model if service_model is not None else SimulatedServiceModel(servable)
        )
        self.workers = WorkerPool(n_workers)
        self.cache = cache
        self.metrics = ServingMetrics()
        self._key_prefix = key_prefix((servable.n_inputs,), np.float64)
        self._inflight: List[_InFlightBatch] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    def submit(self, payload: np.ndarray, now: float) -> Optional[Request]:
        """Offer one request (a single feature vector) at time ``now``.

        Returns the live :class:`Request` (already complete on a cache
        hit), or ``None`` if admission control rejected it.
        """
        payload = np.asarray(payload, dtype=np.float64)
        if payload.ndim != 1 or payload.shape[0] != self.servable.n_inputs:
            raise ServingError(
                f"payload must be a 1-D vector of {self.servable.n_inputs} "
                f"features, got shape {payload.shape}"
            )
        self.metrics.received += 1
        request = Request(id=next(self._ids), payload=payload, arrival_s=now)
        if self.cache is not None:
            hit = self.cache.lookup(self._key_prefix + payload.tobytes())
            if hit is not None:
                request.result = hit
                request.dispatch_s = request.complete_s = now
                request.cache_hit = True
                self.metrics.cache_hits += 1
                self.metrics.on_served(0.0, 0.0, 0.0)
                return request
            self.metrics.cache_misses += 1
        if not self.batcher.offer(request):
            self.metrics.rejected += 1
            return None
        self.metrics.on_queue_depth(self.batcher.queue_depth)
        return request

    def cancel(self, request: Request, now: float) -> bool:
        """Withdraw a still-queued request (hedging's loser-cancel path).

        True when the request was removed before dispatch; False when it
        already rode a batch (in-flight work cannot be recalled from the
        device) or already completed.
        """
        if not self.batcher.remove(request):
            return False
        self.metrics.cancelled += 1
        return True

    def poll(self, now: float) -> List[Request]:
        """Advance the engine to ``now``: retire finished batches and
        dispatch ready ones.  Returns requests completed by this call."""
        completed = self._retire(now)
        while self.batcher.ready(now):
            worker = self.workers.acquire(now)
            if worker is None:
                break
            self._dispatch(self.batcher.next_batch(), worker, now)
        return completed

    def next_event_time(self) -> Optional[float]:
        """Earliest future time at which :meth:`poll` has work to do.

        None means the engine is fully idle (no queue, nothing in
        flight) — the trace replayer uses this to schedule wakeups.
        """
        candidates = [b.done_s for b in self._inflight]
        if self.batcher.queue_depth > 0:
            ready_at = self.workers.next_free_time()
            if self.batcher.queue_depth < self.policy.max_batch_size:
                ready_at = max(ready_at, self.batcher.oldest_deadline())
            candidates.append(ready_at)
        return min(candidates) if candidates else None

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Synchronous batch inference, bypassing the queue (admin path)."""
        return self.servable.predict(x)

    # -- load surface (read by the cluster router / autoscaler) --------
    @property
    def queue_depth(self) -> int:
        """Requests waiting in the micro-batcher queue."""
        return self.batcher.queue_depth

    @property
    def in_flight(self) -> int:
        """Requests currently riding dispatched (unretired) batches."""
        return sum(len(b.requests) for b in self._inflight)

    @property
    def outstanding(self) -> int:
        """Queued + in-flight requests: the engine's backpressure signal."""
        return self.queue_depth + self.in_flight

    # ------------------------------------------------------------------
    def _dispatch(self, batch: Sequence[Request], worker: int, now: float) -> None:
        x = np.vstack([r.payload for r in batch])
        y = self.servable.predict(x)  # the real forward pass
        service_s = self.service_model.seconds(len(batch))
        done = now + service_s
        for i, request in enumerate(batch):
            request.dispatch_s = now
            request.result = y[i]
        self.workers.busy_until(worker, done)
        self._inflight.append(_InFlightBatch(list(batch), worker, now, done))
        self.metrics.on_batch(len(batch))

    def _retire(self, now: float) -> List[Request]:
        finished = [b for b in self._inflight if b.done_s <= now + _EPS]
        if not finished:
            return []
        self._inflight = [b for b in self._inflight if b.done_s > now + _EPS]
        completed: List[Request] = []
        for batch in sorted(finished, key=lambda b: (b.done_s, b.dispatch_s)):
            for request in batch.requests:
                request.complete_s = batch.done_s
                self.metrics.on_served(
                    request.wait_s, batch.done_s - batch.dispatch_s, request.latency_s
                )
                if self.cache is not None:
                    self.cache.store(
                        self._key_prefix + request.payload.tobytes(), request.result
                    )
                completed.append(request)
        return completed
