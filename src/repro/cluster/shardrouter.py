"""Scatter-gather front door for model-parallel shards.

Where :class:`~repro.cluster.router.Router` picks *one* replica per
request, the :class:`ShardRouter` owns a fleet in which each replica
serves one :class:`~repro.shard.shards.ModelShard` and every request
fans out to **all** of them: scatter the payload, gather the partial
outputs (:func:`repro.shard.gather_outputs` — ensemble mean for MLP
shards, unit-order concat for stack code layers).

Placement uses the same consistent-hash ring as
:class:`~repro.cluster.router.ConsistentHashPolicy`: shard ``k``'s key
walks the vnode ring to the first replica that does not already hold a
shard, so the shard→replica map is a pure function of the fleet ids —
two routers built over the same fleet agree without coordination.

Degraded mode is the point of the design: dropout decoupling means a
shard's contribution is an *approximation*, not a dependency.  A leg
lost to the ``shard.exchange`` fault site, an admission-control
rejection, or a replica death (``replica.serve``) only increments the
degraded counters; the request still completes from the surviving legs.
Only when *every* leg is lost — or the final gather itself faults
(``shard.gather``) — does the client see a failure.

The router is clock-agnostic and exposes the same
``submit``/``poll``/``next_event_time`` surface as :class:`Router`, so
:class:`~repro.workloads.TraceReplayer` drives it unchanged::

    router = ShardRouter(shards)
    trace = trace_from_arrivals(PoissonArrivals(2000.0), 0.1, seed=0)
    replay = TraceReplayer(router, trace).run()
    router.metrics.completed / replay.makespan_s, router.degraded_requests
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.replica import Replica, ReplicaConfig
from repro.cluster.router import _stable_hash, vnode_ring
from repro.errors import ConfigurationError, ServingError
from repro.serve.batcher import Request
from repro.serve.registry import ServableModel
from repro.shard.servables import gather_outputs, shard_servables
from repro.shard.shards import ModelShard
from repro.testing.faults import (
    SHARD_EXCHANGE_SITE,
    SHARD_GATHER_SITE,
    FaultError,
    fault_point,
)

__all__ = ["ShardRouter", "ShardedRequest", "place_shards"]


def place_shards(n_shards: int, replica_ids: Sequence[int], n_vnodes: int = 64) -> Dict[int, int]:
    """Consistent-hash placement: shard index → replica id, one each.

    Shard ``k``'s key walks the vnode ring
    (:func:`~repro.cluster.router.vnode_ring`, the one
    :class:`~repro.cluster.router.ConsistentHashPolicy` routes on) to the
    first replica not yet holding a shard.  Deterministic in
    ``(n_shards, replica_ids)`` alone.
    """
    ids = tuple(sorted(set(int(r) for r in replica_ids)))
    if len(ids) < n_shards:
        raise ConfigurationError(
            f"need at least {n_shards} replicas to place {n_shards} shards, "
            f"got {len(ids)}"
        )
    hashes, owners = vnode_ring(ids, int(n_vnodes))
    placement: Dict[int, int] = {}
    used: set = set()
    for k in range(n_shards):
        i = bisect_left(hashes, _stable_hash(f"shard-{k}".encode()))
        for step in range(len(owners)):
            rid = ids[owners[(i + step) % len(owners)]]
            if rid not in used:
                placement[k] = rid
                used.add(rid)
                break
    return placement


@dataclass(eq=False)
class ShardedRequest:
    """One client request scattered across every shard replica."""

    id: int
    payload: np.ndarray = field(repr=False)
    arrival_s: float
    legs: Dict[int, Optional[Request]] = field(default_factory=dict)
    results: Dict[int, Optional[np.ndarray]] = field(default_factory=dict)
    complete_s: Optional[float] = None
    result: Optional[np.ndarray] = field(default=None, repr=False)
    failed: bool = False
    lost_shards: Tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.lost_shards) and not self.failed

    @property
    def latency_s(self) -> Optional[float]:
        if self.complete_s is None:
            return None
        return self.complete_s - self.arrival_s


class ShardRouter:
    """Scatter-gather serving over one replica per model shard.

    Parameters
    ----------
    shards:
        The complete shard set of one model (any order; indices 0..N-1).
    replica_config:
        Engine configuration cloned into every shard replica.
    n_vnodes:
        Ring resolution for :func:`place_shards`.
    name:
        Prefix of the per-shard servable names.
    """

    def __init__(
        self,
        shards: Sequence[ModelShard],
        replica_config: Optional[ReplicaConfig] = None,
        n_vnodes: int = 64,
        name: str = "sharded",
    ):
        shards = sorted(shards, key=lambda s: s.index)
        if not shards:
            raise ConfigurationError("ShardRouter needs at least one shard")
        n = shards[0].n_shards
        if [s.index for s in shards] != list(range(n)):
            raise ConfigurationError(
                f"need the complete shard set 0..{n - 1}, got "
                f"{[s.index for s in shards]}"
            )
        self.shards: List[ModelShard] = list(shards)
        self.replica_config = (
            replica_config if replica_config is not None else ReplicaConfig()
        )
        self.metrics = ClusterMetrics()
        self._servables: List[ServableModel] = shard_servables(self.shards, name=name)
        self.placement = place_shards(n, range(n), n_vnodes=n_vnodes)
        self._replicas: Dict[int, Replica] = {}
        for k, rid in self.placement.items():
            self._replicas[rid] = Replica(rid, self._servables[k], self.replica_config)
        self._shard_of_replica = {rid: k for k, rid in self.placement.items()}
        self._ids = itertools.count()
        self._pending: Dict[int, ShardedRequest] = {}
        self._leg_index: Dict[Tuple[int, int], Tuple[ShardedRequest, int]] = {}
        self.degraded_requests = 0
        self.degraded_legs = 0

    # -- fleet surface ---------------------------------------------------
    @property
    def servable(self) -> ServableModel:
        """Representative servable (all shards share the input width)."""
        return self._servables[0]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def replicas(self) -> Tuple[Replica, ...]:
        return tuple(self._replicas[rid] for rid in sorted(self._replicas))

    @property
    def n_live(self) -> int:
        return sum(1 for r in self._replicas.values() if r.alive)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def replica_of(self, shard_index: int) -> Replica:
        return self._replicas[self.placement[shard_index]]

    # -- request path ----------------------------------------------------
    def submit(self, payload: np.ndarray, now: float) -> Optional[ShardedRequest]:
        """Scatter one request to every shard; ``None`` = all legs lost."""
        payload = np.asarray(payload, dtype=np.float64)
        if payload.ndim != 1 or payload.shape[0] != self.servable.n_inputs:
            raise ServingError(
                f"payload must be a 1-D vector of {self.servable.n_inputs} "
                f"features, got shape {payload.shape}"
            )
        self.metrics.received += 1
        sreq = ShardedRequest(id=next(self._ids), payload=payload, arrival_s=now)
        for k in range(self.n_shards):
            replica = self.replica_of(k)
            if not replica.alive:
                self._lose_leg(sreq, k)
                continue
            try:
                fault_point(SHARD_EXCHANGE_SITE, shard=k, request=sreq.id, phase="scatter")
            except FaultError:
                self._lose_leg(sreq, k)
                continue
            request = replica.submit(payload, now)
            if request is None:  # admission control: this leg is shed
                self.metrics.backpressure_events += 1
                self._lose_leg(sreq, k)
                continue
            sreq.legs[k] = request
            if request.complete_s is not None:  # per-shard cache hit
                sreq.results[k] = request.result
            else:
                self._leg_index[(replica.id, id(request))] = (sreq, k)
        if not any(leg is not None for leg in sreq.legs.values()):
            sreq.failed = True
            self.metrics.shed += 1
            return None
        if self._resolved(sreq):
            self._gather(sreq, now)
        else:
            self._pending[sreq.id] = sreq
        return sreq

    def poll(self, now: float) -> List[ShardedRequest]:
        """Advance every shard replica; returns requests answered here."""
        answered: List[ShardedRequest] = []
        for replica in self.replicas:
            for request in replica.poll(now):
                entry = self._leg_index.pop((replica.id, id(request)), None)
                if entry is None:
                    continue
                sreq, k = entry
                sreq.results[k] = request.result
            if not replica.alive and not replica.failed_over:
                self._fail_over(replica)
        for sreq in list(self._pending.values()):
            if self._resolved(sreq):
                del self._pending[sreq.id]
                self._gather(sreq, now)
                if not sreq.failed:
                    answered.append(sreq)
        return answered

    def next_event_time(self) -> Optional[float]:
        candidates = [
            t
            for t in (r.next_event_time() for r in self.replicas)
            if t is not None
        ]
        return min(candidates) if candidates else None

    # -- internals -------------------------------------------------------
    def _lose_leg(self, sreq: ShardedRequest, shard_index: int) -> None:
        sreq.legs[shard_index] = None
        sreq.results[shard_index] = None
        sreq.lost_shards = tuple(sorted(set(sreq.lost_shards) | {shard_index}))
        self.degraded_legs += 1

    def _fail_over(self, replica: Replica) -> None:
        """A shard replica died: its outstanding legs degrade, not fail."""
        replica.failed_over = True
        self.metrics.replica_deaths += 1
        doomed = [key for key in self._leg_index if key[0] == replica.id]
        for key in doomed:
            sreq, k = self._leg_index.pop(key)
            self._lose_leg(sreq, k)

    def _resolved(self, sreq: ShardedRequest) -> bool:
        return all(k in sreq.results for k in range(self.n_shards))

    def _gather(self, sreq: ShardedRequest, now: float) -> None:
        try:
            fault_point(
                SHARD_GATHER_SITE,
                request=sreq.id,
                lost=len(sreq.lost_shards),
            )
            outputs = [sreq.results[k] for k in range(self.n_shards)]
            sreq.result = gather_outputs(self.shards, outputs)
        except (FaultError, ValueError):
            sreq.failed = True
            self.metrics.failed += 1
            return
        sreq.complete_s = now
        if sreq.lost_shards:
            self.degraded_requests += 1
        self.metrics.on_completed(sreq.latency_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter({self.n_shards} shards, {self.n_live} live replicas, "
            f"pending={self.pending}, degraded={self.degraded_requests})"
        )
