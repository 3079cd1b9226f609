"""The cluster front door: routing, spillover, hedging, fail-over.

The paper's thesis — many cheap workers behind a careful coordination
layer beat one fast worker — applied to serving.  The :class:`Router`
spreads requests over N :class:`~repro.cluster.replica.Replica`\\ s and
owns every cross-replica decision:

* **routing policy** — pluggable: :class:`RoundRobinPolicy` (uniform),
  :class:`LeastLoadedPolicy` (queue-depth aware, reads each replica's
  backpressure signal), :class:`ConsistentHashPolicy` (payload-keyed, so
  repeated inputs land on the same replica and its private
  :class:`~repro.serve.cache.FeatureCache` actually accumulates hits);
* **spillover + shedding** — a replica whose admission control rejects a
  request (bounded queue) is skipped and the next candidate tried; only
  when *every* routable replica rejects is the request shed;
* **hedged requests** — a request still unanswered past a p99-derived
  deadline is re-dispatched to a second replica; the first response
  wins, and the losing leg is cancelled (withdrawn from its queue when
  still queued, discarded on completion when already in flight);
* **fail-over** — when a replica dies (the ``replica.serve`` fault
  point), its outstanding legs are re-dispatched to surviving replicas;
* **zero-downtime swap / elasticity** — :meth:`swap` rolls a new model
  version across the fleet while old engines drain, and
  :meth:`add_replica` / :meth:`remove_replica` give the autoscaler its
  two actuators.

The router is clock-agnostic like the engine beneath it: callers pass
``now`` to :meth:`submit` / :meth:`poll`, and :meth:`next_event_time`
feeds the trace replayer, so a seed fully determines every
routing decision, hedge, and latency number.
"""

from __future__ import annotations

import hashlib
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.replica import Replica, ReplicaConfig
from repro.errors import ConfigurationError, ServingError
from repro.serve.batcher import Request
from repro.serve.cache import key_prefix, payload_bytes
from repro.serve.registry import ServableModel
from repro.testing.faults import FaultError, fault_point, register_fault_site

_EPS = 1e-12

ROUTER_DISPATCH_SITE = register_fault_site(
    "router.dispatch",
    "cluster router handing a request to a replica (raise = dispatch failure)",
)


def _stable_hash(data: bytes) -> int:
    """64-bit digest that is stable across processes (unlike ``hash``)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def vnode_ring(ids: Sequence[int], n_vnodes: int) -> Tuple[List[int], List[int]]:
    """The consistent-hash ring of replica ``ids``, ``n_vnodes`` points each.

    Two parallel lists: the vnode hashes in ring order and, for each, its
    owner's position in ``ids``.  A key belongs to the first vnode at or
    after it (``bisect_left`` on the hashes), wrapping past the end.
    """
    vnodes = sorted(
        (_stable_hash(f"replica-{rid}-vnode-{v}".encode()), rid)
        for rid in set(ids)
        for v in range(n_vnodes)
    )
    return [h for h, _ in vnodes], [ids.index(rid) for _, rid in vnodes]


def payload_key(payload: np.ndarray) -> int:
    """Routing key of a payload: a stable hash of its exact key bytes
    (:func:`repro.serve.cache.payload_bytes`, the feature cache's key)."""
    return _stable_hash(payload_bytes(payload))


@dataclass(eq=False)
class Leg:
    """One dispatch of a cluster request to one replica."""

    replica_id: int
    request: Request
    hedge: bool = False


@dataclass(eq=False)
class ClusterRequest:
    """A client request as the router sees it (may ride several legs)."""

    id: int
    key: int
    payload: np.ndarray = field(repr=False)
    arrival_s: float
    complete_s: Optional[float] = None
    result: Optional[np.ndarray] = field(default=None, repr=False)
    served_by: Optional[int] = None
    failed: bool = False
    hedged: bool = False
    hedge_at: Optional[float] = None
    legs: List[Leg] = field(default_factory=list)

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end delay: arrival at the router → first response."""
        if self.complete_s is None:
            return None
        return self.complete_s - self.arrival_s


# ---------------------------------------------------------------------------
# routing policies
# ---------------------------------------------------------------------------

class RoundRobinPolicy:
    """Uniform rotation over the routable replicas."""

    def __init__(self):
        self._turn = 0

    def choose(self, request: ClusterRequest, candidates: Sequence[Replica]) -> Replica:
        replica = candidates[self._turn % len(candidates)]
        self._turn += 1
        return replica


class LeastLoadedPolicy:
    """Lowest outstanding (queued + in-flight) wins; ties break on id.

    This is the policy that actually *reads* the backpressure signal
    each replica surfaces (:attr:`Replica.outstanding`), steering new
    work away from deep queues before admission control has to shed.
    """

    def choose(self, request: ClusterRequest, candidates: Sequence[Replica]) -> Replica:
        return min(candidates, key=lambda r: (r.outstanding, r.id))


class ConsistentHashPolicy:
    """Payload-keyed ring hashing with virtual nodes.

    The same payload always lands on the same replica while membership
    is stable, so per-replica feature caches accumulate hits instead of
    each replica re-deriving every hot item; when a replica joins or
    leaves, only the keys on its ring arcs move (not a full reshuffle).

    Each candidate list (by replica ids, in the order given) has its
    ring cached as two parallel lists: the vnode hashes in ring order
    and, for each, its owner's position in the candidate list.  A
    request costs one bisect on its int key.
    """

    def __init__(self, n_vnodes: int = 64):
        if n_vnodes < 1:
            raise ConfigurationError(f"n_vnodes must be >= 1, got {n_vnodes}")
        self.n_vnodes = int(n_vnodes)
        self._rings: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}

    def _ring(self, ids: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
        ring = self._rings.get(ids)
        if ring is None:
            ring = self._rings[ids] = vnode_ring(ids, self.n_vnodes)
        return ring

    def choose(self, request: ClusterRequest, candidates: Sequence[Replica]) -> Replica:
        hashes, owners = self._ring(tuple([r.id for r in candidates]))
        i = bisect_left(hashes, request.key)
        return candidates[owners[i if i < len(owners) else 0]]


# ---------------------------------------------------------------------------
# hedging policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HedgePolicy:
    """When to re-dispatch a slow request to a second replica.

    The deadline is ``multiplier × observed p99`` of the router's own
    completed-latency histogram once ``warmup`` completions have been
    recorded; before that (a cold router has no p99) it is
    ``min_deadline_s``.  ``max_deadline_s`` is an optional SLO ceiling:
    when a *persistent* straggler owns a whole replica it also owns the
    observed p99, and an unclamped ``multiplier × p99`` deadline would
    chase the straggler upward until hedging never fires — the ceiling
    pins "how long may any request sit before we try elsewhere" to the
    latency budget instead.  A request is hedged at most once; the first
    response wins and the losing leg is cancelled.
    """

    enabled: bool = True
    multiplier: float = 2.0
    min_deadline_s: float = 5e-3
    max_deadline_s: Optional[float] = None
    warmup: int = 50

    def __post_init__(self):
        if self.multiplier <= 1.0:
            raise ConfigurationError(
                f"hedge multiplier must be > 1 (got {self.multiplier}); "
                "hedging at or below p99 would duplicate healthy traffic"
            )
        if self.min_deadline_s <= 0:
            raise ConfigurationError(
                f"min_deadline_s must be > 0, got {self.min_deadline_s}"
            )
        if self.max_deadline_s is not None and self.max_deadline_s < self.min_deadline_s:
            raise ConfigurationError(
                f"max_deadline_s ({self.max_deadline_s}) must be >= "
                f"min_deadline_s ({self.min_deadline_s})"
            )
        if self.warmup < 1:
            raise ConfigurationError(f"warmup must be >= 1, got {self.warmup}")


NO_HEDGING = HedgePolicy(enabled=False)


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------

class Router:
    """Front door over N serving replicas.

    Parameters
    ----------
    servable:
        The model version the fleet starts on.
    n_replicas:
        Initial fleet size (the autoscaler may change it later).
    replica_config:
        Engine configuration cloned into every replica.
    policy:
        Routing policy (default: round-robin).
    hedge:
        Hedging policy (default: enabled, 2 × p99 deadline); pass
        :data:`NO_HEDGING` to disable.
    """

    def __init__(
        self,
        servable: ServableModel,
        n_replicas: int = 2,
        replica_config: Optional[ReplicaConfig] = None,
        policy=None,
        hedge: Optional[HedgePolicy] = None,
    ):
        if not isinstance(servable, ServableModel):
            raise ServingError(
                "Router needs a ServableModel (wrap raw models via "
                "ModelRegistry.register or ServableModel(name, model))"
            )
        if n_replicas < 1:
            raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
        self.replica_config = replica_config if replica_config is not None else ReplicaConfig()
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.hedge = hedge if hedge is not None else HedgePolicy()
        self.metrics = ClusterMetrics()
        self._servable = servable
        self._replicas: List[Replica] = []
        self._next_replica_id = 0
        self._ids = itertools.count()
        self._pending: Dict[int, ClusterRequest] = {}
        self._leg_index: Dict[Tuple[int, int], ClusterRequest] = {}
        # Validation fixes every payload's shape and dtype (and a swap
        # keeps the input width), so the routing key's prefix is fixed too.
        self._key_prefix = key_prefix((servable.n_inputs,), np.float64)
        for _ in range(int(n_replicas)):
            self._spawn_replica()

    # -- fleet surface ---------------------------------------------------
    @property
    def servable(self) -> ServableModel:
        """The version new replicas (and new requests) serve."""
        return self._servable

    @property
    def replicas(self) -> Tuple[Replica, ...]:
        """Current fleet, including retiring/dead members not yet reaped."""
        return tuple(self._replicas)

    def routable_replicas(self) -> List[Replica]:
        return [r for r in self._replicas if r.routable]

    @property
    def n_live(self) -> int:
        return len(self.routable_replicas())

    @property
    def pending(self) -> int:
        """Client requests submitted but not yet answered."""
        return len(self._pending)

    @property
    def swap_complete(self) -> bool:
        """Has every live replica finished draining its pre-swap engine?"""
        return all(not r.draining for r in self._replicas if r.alive)

    # -- request path ----------------------------------------------------
    def submit(self, payload: np.ndarray, now: float) -> Optional[ClusterRequest]:
        """Route one request at ``now``; ``None`` means the cluster shed it."""
        payload = np.asarray(payload, dtype=np.float64)
        if payload.ndim != 1 or payload.shape[0] != self._servable.n_inputs:
            raise ServingError(
                f"payload must be a 1-D vector of {self._servable.n_inputs} "
                f"features, got shape {payload.shape}"
            )
        self.metrics.received += 1
        creq = ClusterRequest(
            id=next(self._ids),
            key=_stable_hash(self._key_prefix + payload.tobytes()),
            payload=payload,
            arrival_s=now,
        )
        leg = self._dispatch(creq, now, hedge=False)
        if leg is None:
            creq.failed = True
            self.metrics.shed += 1
            return None
        if creq.complete_s is not None:  # per-replica cache hit, answered inline
            return creq
        if self.hedge.enabled:
            creq.hedge_at = now + self.hedge_deadline_s()
        self._pending[creq.id] = creq
        return creq

    def poll(self, now: float) -> List[ClusterRequest]:
        """Advance the fleet to ``now``; returns client requests answered here."""
        completed: List[ClusterRequest] = []
        for replica in list(self._replicas):
            for request in replica.poll(now):
                creq = self._leg_index.pop((replica.id, id(request)), None)
                if creq is None:
                    continue  # a cancelled leg's stale completion
                if creq.complete_s is not None:
                    self.metrics.hedges_wasted += 1  # loser was already in flight
                    continue
                leg = next(
                    leg for leg in creq.legs
                    if leg.replica_id == replica.id and leg.request is request
                )
                self._complete(creq, leg, now)
                completed.append(creq)
            if not replica.alive and not replica.failed_over:
                self._fail_over(replica, now)
        self._reap(now)
        if self.hedge.enabled:
            self._launch_hedges(now)
        return completed

    def next_event_time(self) -> Optional[float]:
        """Earliest future time :meth:`poll` has work to do (None = idle)."""
        candidates = [
            t for t in (r.next_event_time() for r in self._replicas) if t is not None
        ]
        if self.hedge.enabled and self.n_live >= 2:
            candidates.extend(
                creq.hedge_at
                for creq in self._pending.values()
                if not creq.hedged and creq.hedge_at is not None
            )
        return min(candidates) if candidates else None

    def hedge_deadline_s(self) -> float:
        """Current hedge deadline: ``multiplier × p99`` once warmed up,
        clamped into ``[min_deadline_s, max_deadline_s]``."""
        deadline = self.hedge.min_deadline_s
        histogram = self.metrics.latency
        if histogram.count >= self.hedge.warmup:
            deadline = max(
                deadline, self.hedge.multiplier * histogram.percentile(99)
            )
        if self.hedge.max_deadline_s is not None:
            deadline = min(deadline, self.hedge.max_deadline_s)
        return deadline

    # -- model lifecycle -------------------------------------------------
    def swap(self, servable: ServableModel, now: float) -> None:
        """Zero-downtime model swap: new engines serve, old engines drain.

        Every live replica atomically flips its *current* engine to
        ``servable``; requests already queued or in flight complete on
        the old engine, which is dropped once empty.  Poll until
        :attr:`swap_complete` to observe the drain finishing.
        """
        if not isinstance(servable, ServableModel):
            raise ServingError("swap needs a ServableModel")
        if servable.n_inputs != self._servable.n_inputs:
            raise ServingError(
                f"swap cannot change the input width "
                f"({self._servable.n_inputs} -> {servable.n_inputs})"
            )
        self._servable = servable
        for replica in self._replicas:
            if replica.alive and not replica.retiring:
                replica.swap(servable, now)
        self.metrics.swaps += 1

    def add_replica(self) -> Replica:
        """Scale up: grow the fleet by one replica of the current version."""
        replica = self._spawn_replica()
        self.metrics.scale_ups += 1
        return replica

    def remove_replica(self, now: float) -> Optional[int]:
        """Scale down: retire the newest routable replica (graceful drain).

        The victim stops receiving new requests immediately and is
        reaped by :meth:`poll` once its outstanding work completes.
        Returns the victim's id, or None when only one routable replica
        remains (the floor the router itself enforces).
        """
        candidates = self.routable_replicas()
        if len(candidates) <= 1:
            return None
        victim = max(candidates, key=lambda r: r.id)
        victim.retiring = True
        self.metrics.scale_downs += 1
        return victim.id

    # -- internals -------------------------------------------------------
    def _spawn_replica(self) -> Replica:
        replica = Replica(self._next_replica_id, self._servable, self.replica_config)
        self._next_replica_id += 1
        self._replicas.append(replica)
        return replica

    def _dispatch(
        self, creq: ClusterRequest, now: float, hedge: bool
    ) -> Optional[Request]:
        """Place one leg on some routable replica; None = everyone refused."""
        if creq.legs:  # never two legs of one request on one replica
            exclude = {leg.replica_id for leg in creq.legs}
            candidates = [r for r in self._replicas if r.routable and r.id not in exclude]
        else:
            candidates = [r for r in self._replicas if r.routable]
        while candidates:
            replica = self.policy.choose(creq, candidates)
            try:
                fault_point(ROUTER_DISPATCH_SITE, replica=replica.id, request=creq.id)
            except FaultError:
                self.metrics.dispatch_faults += 1
                candidates.remove(replica)
                continue
            request = replica.submit(creq.payload, now)
            if request is None:  # admission control said no: spill over
                self.metrics.backpressure_events += 1
                candidates.remove(replica)
                continue
            leg = Leg(replica.id, request, hedge=hedge)
            creq.legs.append(leg)
            if request.complete_s is not None:  # cache hit answered inline
                self._complete(creq, leg, now)
            else:
                self._leg_index[(replica.id, id(request))] = creq
            return request
        return None

    def _complete(self, creq: ClusterRequest, winner: Leg, now: float) -> None:
        creq.result = winner.request.result
        creq.complete_s = winner.request.complete_s
        creq.served_by = winner.replica_id
        self._pending.pop(creq.id, None)
        if winner.hedge:
            self.metrics.hedges_won += 1
        self.metrics.on_completed(creq.latency_s, cache_hit=winner.request.cache_hit)
        for leg in creq.legs:
            if leg is winner:
                continue
            replica = self._replica_by_id(leg.replica_id)
            if (
                replica is not None
                and replica.alive
                and replica.cancel(leg.request, now)
            ):
                # Withdrawn before dispatch: the loser never runs.
                self._leg_index.pop((leg.replica_id, id(leg.request)), None)
                self.metrics.hedges_cancelled += 1
            # else: already riding a batch; its completion is counted
            # as hedges_wasted when it surfaces in poll().

    def _fail_over(self, replica: Replica, now: float) -> None:
        """Re-dispatch every outstanding leg of a dead replica."""
        replica.failed_over = True
        self.metrics.replica_deaths += 1
        doomed = [
            (key, creq)
            for key, creq in self._leg_index.items()
            if key[0] == replica.id
        ]
        for key, creq in doomed:
            del self._leg_index[key]
            creq.legs = [leg for leg in creq.legs if leg.replica_id != replica.id]
            if creq.complete_s is not None:
                continue  # only a losing hedge leg died; client was answered
            if any(
                (leg.replica_id, id(leg.request)) in self._leg_index
                for leg in creq.legs
            ):
                continue  # another live leg is still racing
            if self._dispatch(creq, now, hedge=False) is not None:
                self.metrics.rerouted += 1
                if self.hedge.enabled and creq.complete_s is None:
                    creq.hedged = False  # the rerouted leg earns its own budget
                    creq.hedge_at = now + self.hedge_deadline_s()
            else:
                creq.failed = True
                self._pending.pop(creq.id, None)
                self.metrics.failed += 1

    def _launch_hedges(self, now: float) -> None:
        if self.n_live < 2:
            return
        for creq in list(self._pending.values()):
            if creq.hedged or creq.hedge_at is None or now + _EPS < creq.hedge_at:
                continue
            creq.hedged = True  # one shot, whether or not a replica accepts
            if self._dispatch(creq, now, hedge=True) is not None:
                self.metrics.hedges_launched += 1

    def _reap(self, now: float) -> None:
        """Drop settled dead members and drained retirees from the fleet;
        nothing else holds them, so their engines, caches and latency
        samples go with them."""
        for replica in list(self._replicas):
            dead_and_settled = not replica.alive and replica.failed_over
            drained_retiree = replica.retiring and replica.outstanding == 0
            if dead_and_settled or drained_retiree:
                self._replicas.remove(replica)

    def _replica_by_id(self, replica_id: int) -> Optional[Replica]:
        for replica in self._replicas:
            if replica.id == replica_id:
                return replica
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Router({self.n_live} live / {len(self._replicas)} replicas, "
            f"policy={type(self.policy).__name__}, pending={self.pending})"
        )
