"""A decoded frame costs the metrics registry nothing of its own.

The native session push bins each emitted frame's diagnostics (vote
margins, phase-run lengths, latency) itself, and
:class:`repro.stream.session.StreamSession` folds the bins into the
registry once per push.  Held here on a three-sender capture decoded
by a :class:`repro.stream.engine.StreamEngine`: with the registry on,
every session push makes at most :data:`PER_PUSH` instrument calls
however many frames it emits; with it off, a push makes none; and an
engine block adds at most :data:`PER_BLOCK` of its own.
"""

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram
from repro.stream.engine import StreamEngine
from repro.stream.session import StreamSession

#: Instrument calls a metered push may make: five walk outcome counters
#: and the hit coherences, then, when it emitted frames, the frame and
#: CRC-failure counters, the decoded bits and three folded histograms.
PER_PUSH = 12
#: Instrument calls an engine block may make besides its pushes: blocks,
#: samples, frames, leak suppressions, block seconds, realtime margin.
PER_BLOCK = 6
#: Whole-capture pushes, so one push emits several frames.
BLOCK = 1 << 20


@pytest.fixture(scope="module")
def capture():
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.03)
    samples, _ = traffic.capture(np.random.default_rng(42))
    return traffic, samples


def _decode(monkeypatch, capture, block_size, metered):
    """Frames, instrument calls per block, ``(frames, calls)`` per push
    and the engine's session count.

    Every public method of an instrument counts as a call.
    """
    calls = [0]
    for cls in (Counter, Gauge, Histogram):
        for name, original in list(vars(cls).items()):
            if name.startswith("_") or not callable(original):
                continue

            def counted(self, *args, _original=original, **kwargs):
                calls[0] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    pushes = []
    push = StreamSession._push

    def recorded(self, *args):
        before = calls[0]
        frames = push(self, *args)
        pushes.append((len(frames), calls[0] - before))
        return frames

    monkeypatch.setattr(StreamSession, "_push", recorded)
    traffic, samples = capture
    engine = StreamEngine(
        zigbee_channels=[11, 12, 13, 14],
        demux=True,
        decimation=8,
        working_dtype=np.complex64,
    )
    REGISTRY.reset()
    if metered:
        REGISTRY.enable()
    blocks, frames = [], []
    try:
        for block in traffic.blocks(samples, block_size):
            before = calls[0]
            frames.extend(engine.process_block(block))
            blocks.append(calls[0] - before)
        frames.extend(engine.finish())
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    return frames, blocks, pushes, len(engine.sessions)


@pytest.mark.parametrize("block_size", [BLOCK, 16384])
def test_metered_push_makes_a_fixed_number_of_calls(
    monkeypatch, capture, block_size
):
    frames, blocks, pushes, sessions = _decode(
        monkeypatch, capture, block_size, metered=True
    )
    assert frames
    assert max(calls for _, calls in pushes) <= PER_PUSH
    assert max(blocks) <= PER_BLOCK + sessions * PER_PUSH
    if block_size == BLOCK:
        # Not vacuous: a push emitting several frames stays in the bound.
        assert max(emitted for emitted, _ in pushes) >= 3


@pytest.mark.parametrize("block_size", [BLOCK, 16384])
def test_unmetered_push_makes_no_calls(monkeypatch, capture, block_size):
    frames, blocks, pushes, _ = _decode(
        monkeypatch, capture, block_size, metered=False
    )
    assert sum(emitted for emitted, _ in pushes) >= len(frames) > 0
    assert [calls for _, calls in pushes] == [0] * len(pushes)
    assert max(blocks) <= PER_BLOCK
