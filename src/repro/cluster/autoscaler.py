"""Metrics-driven autoscaling: the fleet follows the load.

The scaling signals are two numbers every routable replica already
keeps, so the autoscaler adds no instrumentation: its engine's
admission-control count ``engine.metrics.shed`` and its
``outstanding`` work (queued plus in flight):

* **scale up** when the fleet shows distress: any admission-control
  rejections since the last evaluation (requests are being shed — the
  queue bound is the paper's backpressure analogue of a full device
  buffer), or mean outstanding work per replica above the high
  watermark;
* **scale down** when the fleet is cold: no rejections and mean
  outstanding below the low watermark, with at least the configured
  minimum kept alive.

Evaluations are clocked by the same simulated time as everything else
(``evaluate(now)`` self-gates on ``interval_s``), a cooldown separates
consecutive actions so one burst does not staircase the fleet up and
down, and the decision history is recorded for the drills — identical
seeded runs take identical scaling actions at identical instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.router import Router
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AutoscalerConfig:
    """Watermarks and pacing of the scaling loop.

    Attributes
    ----------
    min_replicas / max_replicas:
        Hard fleet-size bounds the autoscaler never crosses.
    high_watermark:
        Mean outstanding requests per routable replica above which the
        fleet scales up (queue building = service capacity exceeded).
    low_watermark:
        Mean outstanding below which an idle fleet scales down.
    interval_s:
        Minimum simulated seconds between evaluations.
    cooldown_s:
        Minimum simulated seconds between *actions* (up or down).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    high_watermark: float = 16.0
    low_watermark: float = 1.0
    interval_s: float = 0.02
    cooldown_s: float = 0.1

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ConfigurationError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if not 0 <= self.low_watermark < self.high_watermark:
            raise ConfigurationError(
                "need 0 <= low_watermark < high_watermark, got "
                f"low={self.low_watermark}, high={self.high_watermark}"
            )
        if self.interval_s <= 0 or self.cooldown_s < 0:
            raise ConfigurationError(
                "interval_s must be > 0 and cooldown_s >= 0, got "
                f"interval_s={self.interval_s}, cooldown_s={self.cooldown_s}"
            )


class Autoscaler:
    """Watches a router's replica metrics; adds/retires replicas."""

    def __init__(self, router: Router, config: Optional[AutoscalerConfig] = None):
        self.router = router
        self.config = config if config is not None else AutoscalerConfig()
        self.history: List[Dict[str, object]] = []
        self._next_eval = 0.0
        self._last_action_at: Optional[float] = None
        self._seen_shed = 0

    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> Optional[str]:
        """Run one scaling decision at ``now`` if the interval elapsed.

        Returns ``"scale-up"`` / ``"scale-down"`` when an action was
        taken, ``None`` otherwise (not due, in cooldown, or no signal).
        """
        if now + 1e-12 < self._next_eval:
            return None
        self._next_eval = now + self.config.interval_s

        live = self.router.routable_replicas()
        if not live:
            return None
        total_shed = sum(r.engine.metrics.shed for r in live)
        shed_delta = total_shed - self._seen_shed
        self._seen_shed = total_shed
        mean_outstanding = sum(r.outstanding for r in live) / len(live)

        in_cooldown = (
            self._last_action_at is not None
            and now - self._last_action_at + 1e-12 < self.config.cooldown_s
        )
        action: Optional[str] = None
        overloaded = shed_delta > 0 or mean_outstanding > self.config.high_watermark
        idle = shed_delta == 0 and mean_outstanding < self.config.low_watermark
        if overloaded and len(live) < self.config.max_replicas and not in_cooldown:
            self.router.add_replica()
            action = "scale-up"
        elif idle and len(live) > self.config.min_replicas and not in_cooldown:
            if self.router.remove_replica(now) is not None:
                action = "scale-down"
        if action is not None:
            self._last_action_at = now
            self.history.append(
                {
                    "t": now,
                    "action": action,
                    "n_replicas": len(self.router.routable_replicas()),
                    "mean_outstanding": mean_outstanding,
                    "shed_delta": shed_delta,
                }
            )
        return action

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Autoscaler(live={len(self.router.routable_replicas())}, "
            f"actions={len(self.history)})"
        )
