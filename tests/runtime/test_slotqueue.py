"""Edge cases of the extracted bounded-slot hand-off core.

The PR-4 deadlock regression suite covers the file-chunk path
(:class:`~repro.runtime.executor.ChunkPrefetcher`); these tests pin the
shared :class:`~repro.runtime.slotqueue.BoundedSlotQueue` itself —
producer death, consumer death, and the zero-capacity edge — so the
activation-queue pipeline inherits audited semantics.
"""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.runtime.slotqueue import (
    BoundedSlotQueue,
    SlotQueueClosed,
    SlotQueueError,
    SlotQueueProducerDead,
    SlotQueueProducerFailed,
)


class TestConstruction:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="n_slots"):
            BoundedSlotQueue(0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="n_slots"):
            BoundedSlotQueue(-1)

    def test_nonpositive_poll_rejected(self):
        with pytest.raises(ConfigurationError, match="poll_s"):
            BoundedSlotQueue(1, poll_s=0.0)

    def test_repr_names_the_queue(self):
        q = BoundedSlotQueue(2, name="acts")
        assert "acts" in repr(q) and "open" in repr(q)
        q.close()
        assert "closed" in repr(q)


class TestHandoff:
    def test_fifo_order(self):
        q = BoundedSlotQueue(3)
        for i in range(3):
            assert q.acquire()
            q.put(i)
        got = []
        for _ in range(3):
            got.append(q.get())
            q.release()
        assert got == [0, 1, 2]

    def test_capacity_bounds_staged_items(self):
        q = BoundedSlotQueue(2, poll_s=0.005)
        assert q.acquire() and q.acquire()
        # Third acquire blocks until the consumer releases a slot.
        acquired = []

        def producer():
            acquired.append(q.acquire())

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert acquired == []  # still blocked: both slots held
        q.put("a")
        assert q.get() == "a"
        q.release()
        t.join(timeout=2.0)
        assert acquired == [True]


class TestProducerDeath:
    def test_put_error_surfaces_with_cause(self):
        q = BoundedSlotQueue(1, name="acts")
        boom = ValueError("boom")
        q.put_error(boom)
        with pytest.raises(SlotQueueProducerFailed, match="acts") as exc_info:
            q.get()
        assert exc_info.value.__cause__ is boom
        assert q.error is boom

    def test_hard_death_without_sentinel_raises(self):
        """A producer that dies without publishing anything must surface
        as a typed error on the consumer side — never a hang."""
        q = BoundedSlotQueue(1, name="acts", poll_s=0.005)

        def producer():
            q.acquire()  # takes the slot, then dies without put()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        t.join()
        with pytest.raises(SlotQueueProducerDead, match="acts"):
            q.get(producer_alive=t.is_alive)

    def test_publish_racing_the_death_check_is_drained(self):
        """An item published just before the producer died is delivered,
        not lost to the liveness check."""
        q = BoundedSlotQueue(1, poll_s=0.005)
        q.acquire()
        q.put("last words")
        assert q.get(producer_alive=lambda: False) == "last words"

    def test_error_after_items_drains_items_first(self):
        q = BoundedSlotQueue(2)
        q.acquire()
        q.put("ok")
        q.put_error(RuntimeError("late failure"))
        assert q.get() == "ok"
        q.release()
        with pytest.raises(SlotQueueProducerFailed):
            q.get()


class TestConsumerDeath:
    def test_close_unblocks_stalled_producer(self):
        """Consumer gone with every buffer full: close() must release the
        producer from its acquire stall with a False verdict."""
        q = BoundedSlotQueue(1, poll_s=0.005)
        assert q.acquire()  # fill the only slot
        verdicts = []

        def producer():
            verdicts.append(q.acquire())

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.03)
        assert verdicts == []  # blocked
        q.close()
        t.join(timeout=2.0)
        assert verdicts == [False]

    def test_acquire_after_close_refuses_even_with_free_slots(self):
        q = BoundedSlotQueue(4)
        q.close()
        assert q.acquire() is False

    def test_get_on_closed_empty_queue_raises(self):
        q = BoundedSlotQueue(1, name="acts", poll_s=0.005)
        q.close()
        with pytest.raises(SlotQueueClosed, match="acts"):
            q.get()

    def test_close_still_drains_published_items(self):
        q = BoundedSlotQueue(1)
        q.acquire()
        q.put("in flight")
        q.close()
        assert q.get() == "in flight"

    def test_typed_errors_share_a_base(self):
        for exc_type in (SlotQueueProducerDead, SlotQueueProducerFailed,
                         SlotQueueClosed):
            assert issubclass(exc_type, SlotQueueError)
            assert issubclass(exc_type, ConfigurationError)
