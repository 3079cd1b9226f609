"""Bounded-slot hand-off queue: the backbone of every staged pipeline.

:class:`BoundedSlotQueue` is the slot/semaphore discipline extracted
from :class:`~repro.runtime.executor.ChunkPrefetcher` (paper Fig. 5's
finite staging buffer) so other producer/consumer pipelines — the
layer-wise :class:`~repro.train.pipeline.ActivationQueue` in particular
— share one audited implementation of the three invariants the PR-4
deadlock suite pins:

* **backpressure** — a semaphore of ``n_slots`` permits; a permit is
  held from the producer's :meth:`acquire` until the consumer calls
  :meth:`release` *after finishing its work on the item*, so at most
  ``n_slots`` items are ever staged or in flight;
* **producer death is a typed error, never a hang** — the consumer's
  :meth:`get` polls with a timeout and checks producer liveness, so a
  producer that raises (publishing the error sentinel via
  :meth:`put_error`) or dies without publishing anything surfaces as
  :class:`SlotQueueProducerFailed` / :class:`SlotQueueProducerDead`
  instead of blocking forever;
* **consumer death never wedges the producer** — :meth:`close` makes
  any blocked :meth:`acquire` return ``False`` so the producer can exit
  at its next slot boundary.

Wrappers translate the typed errors into their domain exceptions
(``PrefetchError``, ``PipelineError``) without re-implementing the
liveness protocol.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from repro.errors import ConfigurationError


class SlotQueueError(ConfigurationError):
    """Base class for hand-off failures surfaced by :meth:`BoundedSlotQueue.get`."""


class SlotQueueProducerFailed(SlotQueueError):
    """The producer published the error sentinel (:meth:`put_error`)."""


class SlotQueueProducerDead(SlotQueueError):
    """The producer thread died without publishing an item or a sentinel."""


class SlotQueueClosed(SlotQueueError):
    """The queue was closed while the consumer was waiting on an empty queue."""


_ITEM, _ERROR = "item", "error"


class BoundedSlotQueue:
    """A bounded producer→consumer hand-off with explicit slot ownership.

    Unlike :class:`queue.Queue`, the capacity bound is decoupled from the
    publish: the producer takes a slot with :meth:`acquire` *before*
    starting the (possibly expensive) work that creates the item, and
    the consumer returns it with :meth:`release` only after it has
    finished using the item — so ``n_slots`` bounds staged **plus**
    in-use items, exactly the paper's finite-staging-buffer rule.

    Producer protocol::

        if not q.acquire():      # False => consumer closed the queue
            return
        item = produce()         # may be expensive
        q.put(item)
        ...
        # on failure: q.put_error(exc)  (no slot needed)

    Consumer protocol::

        item = q.get(producer_alive=thread.is_alive)   # raises, never hangs
        try:
            consume(item)
        finally:
            q.release()
    """

    def __init__(self, n_slots: int, name: str = "slotqueue", poll_s: float = 0.05):
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        if poll_s <= 0:
            raise ConfigurationError(f"poll_s must be > 0, got {poll_s}")
        self.n_slots = int(n_slots)
        self.name = str(name)
        self._poll_s = float(poll_s)
        self._slots = threading.Semaphore(self.n_slots)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = threading.Event()
        self._error: Optional[BaseException] = None

    # -- producer side ---------------------------------------------------
    def acquire(self) -> bool:
        """Take one slot; blocks (polling) until one frees or the queue
        closes.  Returns ``False`` when closed — the producer's signal to
        stop producing."""
        if self._closed.is_set():
            return False
        while not self._slots.acquire(timeout=self._poll_s):
            if self._closed.is_set():
                return False
        return True

    def put(self, item) -> None:
        """Publish an item (the caller must hold a slot from :meth:`acquire`)."""
        self._queue.put((_ITEM, item))

    def put_error(self, exc: BaseException) -> None:
        """Record the producer's failure and publish the error sentinel.

        Takes no slot, so a producer dying with every buffer full can
        still tell the consumer about it.
        """
        self._error = exc
        self._queue.put((_ERROR, None))

    # -- consumer side ---------------------------------------------------
    def get(self, producer_alive: Optional[Callable[[], bool]] = None):
        """Blocking get that cannot outlive the producer.

        Polls with a timeout; on an empty queue it raises
        :class:`SlotQueueClosed` once :meth:`close` has been called, and
        :class:`SlotQueueProducerDead` when ``producer_alive()`` reports
        the producer gone (after one non-blocking drain to absorb a
        publish racing the death check).  The error sentinel raises
        :class:`SlotQueueProducerFailed` with the recorded exception as
        its ``__cause__``.
        """
        while True:
            try:
                tag, item = self._queue.get(timeout=self._poll_s)
            except queue.Empty:
                if self._closed.is_set():
                    raise SlotQueueClosed(
                        f"{self.name}: closed while waiting for an item"
                    ) from self._error
                if producer_alive is not None and not producer_alive():
                    try:  # drain a publish that raced with the death check
                        tag, item = self._queue.get_nowait()
                    except queue.Empty:
                        raise SlotQueueProducerDead(
                            f"{self.name}: producer died without publishing"
                        ) from self._error
                else:
                    continue
            if tag is _ERROR:
                raise SlotQueueProducerFailed(
                    f"{self.name}: producer failed: {self._error!r}"
                ) from self._error
            return item

    def release(self) -> None:
        """Return one slot after finishing with a consumed item."""
        self._slots.release()

    # -- shutdown --------------------------------------------------------
    def close(self) -> None:
        """Stop the hand-off: blocked :meth:`acquire` calls return
        ``False`` and blocked :meth:`get` calls raise
        :class:`SlotQueueClosed` once drained."""
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        """The exception recorded by :meth:`put_error`, if any."""
        return self._error

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"BoundedSlotQueue({self.name!r}, n_slots={self.n_slots}, {state})"
