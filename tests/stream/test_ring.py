"""Bounded ring-buffer source: accounting, overruns, iteration."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import REGISTRY
from repro.stream.ring import RingBufferSource


def _block(n=8):
    return np.ones(n, dtype=np.complex128)


class TestRingBufferSource:
    def test_fifo_order(self):
        ring = RingBufferSource(capacity_blocks=4)
        for k in range(3):
            assert ring.push(np.full(4, k, dtype=np.complex128))
        assert ring.pop()[0] == 0
        assert ring.pop()[0] == 1
        assert ring.pop()[0] == 2
        assert ring.pop() is None

    def test_overrun_drops_and_accounts(self):
        ring = RingBufferSource(capacity_blocks=2)
        assert ring.push(_block(8))
        assert ring.push(_block(8))
        assert not ring.push(_block(8))
        stats = ring.stats()
        assert stats["overruns"] == 1
        assert stats["samples_dropped"] == 8
        assert stats["blocks_pushed"] == 2
        # The queued blocks are intact.
        assert ring.pop().size == 8
        assert ring.push(_block(4))

    def test_close_then_drain(self):
        ring = RingBufferSource(capacity_blocks=4)
        ring.push(_block(3))
        ring.push(_block(5))
        ring.close()
        sizes = [b.size for b in ring]
        assert sizes == [3, 5]
        with pytest.raises(ValueError):
            ring.push(_block())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSource(capacity_blocks=0)

    def test_depth_tracking(self):
        ring = RingBufferSource(capacity_blocks=8)
        assert ring.stats()["depth"] == 0
        ring.push(_block())
        ring.push(_block())
        assert ring.stats()["depth"] == 2
        ring.pop()
        assert ring.stats()["depth"] == 1


class TestRingScheduleInvariants:
    """Random interleavings of push/pop never break the accounting.

    The invariant set under any schedule: every pushed block is either
    still queued or was popped (``blocks_pushed == blocks_popped +
    depth``); sample accounting splits offered load exactly into kept
    and dropped; overruns happen iff a push met a full ring; the
    watermark never exceeds capacity.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        schedule=st.lists(
            st.tuples(
                st.sampled_from(("push", "pop")),
                st.integers(min_value=1, max_value=32),
            ),
            max_size=200,
        ),
    )
    def test_totals_invariant_under_random_schedule(self, capacity, schedule):
        ring = RingBufferSource(capacity_blocks=capacity)
        offered_blocks = offered_samples = 0
        popped_samples = 0
        for op, size in schedule:
            if op == "push":
                offered_blocks += 1
                offered_samples += size
                was_full = len(ring) >= capacity
                accepted = ring.push(np.zeros(size, dtype=np.complex64))
                assert accepted == (not was_full)
            else:
                block = ring.pop()
                if block is not None:
                    popped_samples += block.size
        stats = ring.stats()
        assert stats["blocks_pushed"] == stats["blocks_popped"] + stats["depth"]
        assert stats["blocks_pushed"] + stats["overruns"] == offered_blocks
        assert stats["samples_pushed"] + stats["samples_dropped"] == (
            offered_samples
        )
        queued_samples = sum(b.size for b in ring)
        assert popped_samples + queued_samples == stats["samples_pushed"]
        assert stats["high_watermark"] <= capacity

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=4),
        sizes=st.lists(
            st.integers(min_value=1, max_value=64), min_size=1, max_size=80
        ),
        consumer_stride=st.integers(min_value=1, max_value=5),
    )
    def test_concurrent_producer_consumer_totals(
        self, capacity, sizes, consumer_stride
    ):
        """One producer thread, one consumer thread, adversarial timing.

        The ring is a SPSC structure; whatever the interleaving, no
        block is lost unaccounted and no block is delivered twice.
        """
        ring = RingBufferSource(capacity_blocks=capacity)
        consumed = []

        def produce():
            for index, size in enumerate(sizes):
                ring.push(np.full(size, index, dtype=np.complex64))
                if index % 3 == 2:
                    time.sleep(0)  # yield to shake the interleaving
            ring.close()

        def consume():
            while True:
                block = ring.pop()
                if block is not None:
                    consumed.append(block)
                elif ring.closed:
                    # One more pop covers a push racing the close flag.
                    block = ring.pop()
                    if block is None:
                        return
                    consumed.append(block)
                elif len(consumed) % consumer_stride == 0:
                    time.sleep(0)

        producer = threading.Thread(target=produce)
        consumer = threading.Thread(target=consume)
        producer.start()
        consumer.start()
        producer.join(timeout=30)
        consumer.join(timeout=30)
        assert not producer.is_alive() and not consumer.is_alive()
        stats = ring.stats()
        assert stats["depth"] == 0
        assert stats["blocks_pushed"] == len(consumed) == stats["blocks_popped"]
        assert stats["blocks_pushed"] + stats["overruns"] == len(sizes)
        assert stats["samples_pushed"] == sum(b.size for b in consumed)
        assert stats["samples_pushed"] + stats["samples_dropped"] == sum(sizes)
        # FIFO survives concurrency: delivered indices strictly increase.
        indices = [int(b[0].real) for b in consumed]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


class TestRingUnderPipelinedConsumer:
    """A consumer interleaved with, and slower than, the producer.

    The contract under backpressure is *loss, not blocking*: when the
    consumer falls behind, the ring fills and further pushes are dropped
    and counted as overruns, object-level and in the metric registry.
    """

    def test_backpressure_becomes_overruns_not_deadlock(self):
        n_blocks, block_len = 12, 64
        consumed = []
        REGISTRY.enable()
        REGISTRY.reset()
        try:
            ring = RingBufferSource(capacity_blocks=2)
            for k in range(n_blocks):
                ring.push(np.full(block_len, k, dtype=np.complex128))
                # The consumer keeps up with one block in three.
                if k % 3 == 2:
                    consumed.append(ring.pop())
            ring.close()
            consumed.extend(ring)
            stats = ring.stats()
            counters = REGISTRY.snapshot()["counters"]
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert stats["overruns"] > 0
        assert stats["samples_dropped"] == block_len * stats["overruns"]
        assert stats["blocks_pushed"] + stats["overruns"] == n_blocks
        assert stats["blocks_pushed"] == len(consumed)
        assert stats["depth"] == 0
        assert counters.get("stream.ring.overruns") == stats["overruns"]
        assert (
            counters.get("stream.ring.samples_dropped")
            == stats["samples_dropped"]
        )
