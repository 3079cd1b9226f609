"""One serving replica: a :class:`ServingEngine` plus fleet lifecycle.

A replica is the unit the router spreads load over and the unit that
fails.  It owns a private engine (its own micro-batcher queue, worker
pool, feature cache, and metrics — nothing is shared between replicas,
which is what makes consistent-hash routing worth doing), and adds the
three lifecycle states the single-engine serving layer has no concept
of:

* **draining** — after a model swap the old engine stops accepting new
  requests but keeps polling until its queue and in-flight batches are
  empty, so a swap completes with zero failed requests;
* **retiring** — the autoscaler's scale-down path: the router stops
  routing to the replica and removes it once it has drained;
* **dead** — an injected (or, in a real deployment, actual) fault killed
  the engine mid-dispatch; outstanding requests are failed over by the
  router.

The ``replica.serve`` fault point wraps the service-time model, so a
chaos plan can stretch a replica's service times (straggler) with a
``corrupt`` rule or kill it outright with a ``raise`` rule — the same
:mod:`repro.testing.faults` switchboard the training executor uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.serve.batcher import BatchPolicy, Request
from repro.serve.cache import FeatureCache
from repro.serve.engine import ServingEngine, SimulatedServiceModel
from repro.serve.registry import ServableModel
from repro.testing.faults import FaultError, fault_transform, register_fault_site

REPLICA_SERVE_SITE = register_fault_site(
    "replica.serve",
    "cluster replica charging a batch's service time (corrupt = straggler, raise = death)",
)


class FaultableServiceModel:
    """Service model wrapper exposing the ``replica.serve`` fault point.

    A ``corrupt`` rule transforms the returned seconds (e.g. ``×20`` for
    a straggling replica); a ``raise`` rule fires mid-dispatch and the
    replica is marked dead.
    """

    def __init__(self, inner, replica_id: int):
        self.inner = inner
        self.replica_id = int(replica_id)

    def seconds(self, batch_size: int) -> float:
        seconds = self.inner.seconds(batch_size)
        seconds = fault_transform(
            REPLICA_SERVE_SITE, seconds, replica=self.replica_id, batch=int(batch_size)
        )
        if seconds <= 0:
            raise ServingError(
                f"service model produced non-positive seconds ({seconds})"
            )
        return seconds


@dataclass(frozen=True)
class ReplicaConfig:
    """Per-replica engine configuration (every replica gets a clone).

    Attributes
    ----------
    policy:
        Micro-batching / admission policy for the replica's engine.
    n_workers:
        Device workers per replica.
    cache_entries:
        Per-replica :class:`FeatureCache` capacity; 0 disables caching.
    service_model_factory:
        ``factory(servable) -> service model``; defaults to
        :class:`SimulatedServiceModel` (the simulated Phi roofline).
    """

    policy: Optional[BatchPolicy] = None
    n_workers: int = 1
    cache_entries: int = 4096
    service_model_factory: Optional[Callable[[ServableModel], object]] = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.cache_entries < 0:
            raise ConfigurationError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )


class Replica:
    """A routable serving engine with drain/retire/death lifecycle."""

    def __init__(self, replica_id: int, servable: ServableModel, config: ReplicaConfig):
        self.id = int(replica_id)
        self.config = config
        self.alive = True
        self.retiring = False
        self.failed_over = False
        self.died_at: Optional[float] = None
        self.engine = self._build_engine(servable)
        self._draining: List[ServingEngine] = []

    # ------------------------------------------------------------------
    def _build_engine(self, servable: ServableModel) -> ServingEngine:
        factory = self.config.service_model_factory or SimulatedServiceModel
        cache = (
            FeatureCache(self.config.cache_entries)
            if self.config.cache_entries
            else None
        )
        return ServingEngine(
            servable,
            policy=self.config.policy,
            service_model=FaultableServiceModel(factory(servable), self.id),
            n_workers=self.config.n_workers,
            cache=cache,
        )

    @property
    def servable(self) -> ServableModel:
        return self.engine.servable

    @property
    def routable(self) -> bool:
        """May the router send *new* requests here?"""
        return self.alive and not self.retiring

    @property
    def draining(self) -> bool:
        """Is an old engine still completing pre-swap requests?"""
        return bool(self._draining)

    @property
    def outstanding(self) -> int:
        """Queued + in-flight requests across current and draining engines."""
        total = self.engine.outstanding
        for old in self._draining:
            total += old.outstanding
        return total

    @property
    def queue_depth(self) -> int:
        return self.engine.queue_depth

    # ------------------------------------------------------------------
    def submit(self, payload: np.ndarray, now: float) -> Optional[Request]:
        """Offer one request to the *current* engine (None = shed)."""
        if not self.alive:
            raise ServingError(f"replica {self.id} is dead (cannot submit)")
        return self.engine.submit(payload, now)

    def cancel(self, request: Request, now: float) -> bool:
        """Withdraw a still-queued request from any of the replica's engines."""
        if not self.alive:
            return False
        if self.engine.cancel(request, now):
            return True
        return any(old.cancel(request, now) for old in self._draining)

    def poll(self, now: float) -> List[Request]:
        """Advance every engine to ``now``; completed requests, oldest swap first.

        An injected ``replica.serve`` fault (raise rule) surfaces here:
        the replica is marked dead and whatever completed *before* the
        fault is still returned, including the batches the dying engine
        retired in this same call — the router fails over the rest.
        """
        completed: List[Request] = []
        if not self.alive:
            return completed
        for old in list(self._draining):
            try:
                completed.extend(old.poll(now))
            except FaultError as exc:
                completed.extend(exc.completed)
                self._mark_dead(now)
                return completed
            if old.outstanding == 0:
                self._draining.remove(old)
        try:
            completed.extend(self.engine.poll(now))
        except FaultError as exc:
            completed.extend(exc.completed)
            self._mark_dead(now)
        return completed

    def next_event_time(self) -> Optional[float]:
        if not self.alive:
            return None
        candidates = [
            t
            for t in (engine.next_event_time() for engine in [self.engine, *self._draining])
            if t is not None
        ]
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    def swap(self, servable: ServableModel, now: float) -> None:
        """Serve ``servable`` from now on; the old engine drains in place."""
        if not self.alive:
            raise ServingError(f"replica {self.id} is dead (cannot swap)")
        old = self.engine
        self.engine = self._build_engine(servable)
        if old.outstanding > 0:
            self._draining.append(old)

    def _mark_dead(self, now: float) -> None:
        self.alive = False
        self.died_at = now
        self._draining.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if not self.alive else ("retiring" if self.retiring else "live")
        return (
            f"Replica(id={self.id}, {state}, model={self.servable.name!r}, "
            f"outstanding={self.outstanding})"
        )
