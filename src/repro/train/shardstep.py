"""Composite :class:`~repro.train.loop.TrainStep` over model shards.

:class:`ShardedTrainStep` drives one inner step per shard through the
unmodified :class:`~repro.train.loop.TrainLoop` (the inner
:class:`~repro.train.loop.ModelStep`\\ s carry their engines, serial or
parallel): every loop batch fans out to each shard's
``compute``/``apply``, a per-shard ``after_apply`` hook advances that
shard's cross-block decay, and every ``exchange_every`` updates the step
runs the bounded exchange callback (the replicated-bias sync) behind the
``shard.exchange`` fault site — the kill point the chaos
drills use to prove bit-identical resume.

The composite is deliberately ignorant of what a shard *is* (it never
imports :mod:`repro.shard`); it only sequences inner steps, so the same
class could gang any set of same-length training steps.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.testing.faults import SHARD_EXCHANGE_SITE, fault_point
from repro.train.loop import TrainStep

__all__ = ["ShardedTrainStep"]


class ShardedTrainStep(TrainStep):
    """Run N per-shard training steps in lockstep as one loop step.

    Parameters
    ----------
    steps:
        One :class:`TrainStep` per shard, all over the same example
        count (the loop shuffles once; every shard sees the same row
        order).
    exchange:
        Optional ``exchange(update_index)`` callback run every
        ``exchange_every`` applied updates — the bounded periodic
        replicated-bias sync.  Fires after the
        ``shard.exchange`` fault point, so an injected kill lands
        *before* any shard state changes.
    exchange_every:
        Updates between exchanges; ``0`` disables them.
    after_apply:
        Optional per-shard zero-argument hooks run right after each
        shard's ``apply`` — :mod:`repro.nn.sharded` passes the
        cross-block decay closures here.
    """

    def __init__(
        self,
        steps: Sequence[TrainStep],
        *,
        exchange: Optional[Callable[[int], None]] = None,
        exchange_every: int = 0,
        after_apply: Optional[Sequence[Callable[[], None]]] = None,
    ):
        if not steps:
            raise ConfigurationError("ShardedTrainStep needs at least one shard step")
        counts = {int(s.n_examples()) for s in steps}
        if len(counts) != 1:
            raise ConfigurationError(
                f"shard steps disagree on example count: {sorted(counts)}"
            )
        if exchange_every < 0:
            raise ConfigurationError(
                f"exchange_every must be >= 0, got {exchange_every}"
            )
        if after_apply is not None and len(after_apply) != len(steps):
            raise ConfigurationError(
                f"after_apply needs one hook per shard "
                f"({len(after_apply)} != {len(steps)})"
            )
        self.steps: List[TrainStep] = list(steps)
        self.exchange = exchange
        self.exchange_every = int(exchange_every)
        self.after_apply = list(after_apply) if after_apply is not None else None
        self.updates_applied = 0
        self.exchanges = 0

    # -- data access -----------------------------------------------------
    def n_examples(self) -> int:
        return self.steps[0].n_examples()

    def load(self, idx: np.ndarray):
        return tuple(s.load(idx) for s in self.steps)

    def rows(self, batch) -> int:
        return self.steps[0].rows(batch[0])

    def narrow(self, batch, lo: int, hi: int):
        return tuple(s.narrow(b, lo, hi) for s, b in zip(self.steps, batch))

    # -- the update ------------------------------------------------------
    def compute(self, batch):
        losses, states = [], []
        reduce_s = 0.0
        for s, b in zip(self.steps, batch):
            loss, state = s.compute(b)
            losses.append(float(loss))
            states.append(state)
            reduce_s += s.reduce_s
        self.reduce_s = reduce_s
        return self._mean(losses), states

    def apply(self, states) -> None:
        for k, (s, state) in enumerate(zip(self.steps, states)):
            s.apply(state)
            if self.after_apply is not None:
                self.after_apply[k]()
        self._after_update()

    # -- clock + metric --------------------------------------------------
    def charge(self, n_rows: int) -> float:
        total = 0.0
        for s in self.steps:
            total += s.charge(n_rows)
        return total

    def epoch_metric(self, epoch_losses: Sequence[float]) -> float:
        # epoch_losses are already the shard-mean per-update losses
        return self.steps[0].epoch_metric(epoch_losses)

    # -- internals -------------------------------------------------------
    def _after_update(self) -> None:
        self.updates_applied += 1
        if (
            self.exchange_every > 0
            and self.updates_applied % self.exchange_every == 0
        ):
            fault_point(
                SHARD_EXCHANGE_SITE,
                update=self.updates_applied,
                exchange=self.exchanges,
            )
            if self.exchange is not None:
                self.exchange(self.updates_applied)
            self.exchanges += 1

    @staticmethod
    def _mean(losses: List[float]) -> float:
        total = 0.0
        for value in losses:
            total += value
        return total / len(losses)
