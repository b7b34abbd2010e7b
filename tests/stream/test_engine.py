"""End-to-end engine decode against scheduled ground truth."""

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine, batch_decode_stream


def _delivered(frames, truth):
    """Count scheduled transmissions matched by a CRC-valid decode."""
    remaining = {}
    for t in truth:
        remaining.setdefault((t.zigbee_channel, t.frame_bits), []).append(t)
    count = 0
    for frame in frames:
        if not frame.crc_ok:
            continue
        queue = remaining.get((frame.zigbee_channel, frame.bits))
        if queue:
            queue.pop(0)
            count += 1
    return count


@pytest.fixture(scope="module")
def wideband_capture():
    traffic = StreamTraffic(
        [StreamSender(0, zigbee_channel=13, reading_interval_s=0.004)],
        duration_s=0.03,
    )
    samples, truth = traffic.capture(np.random.default_rng(11))
    return traffic, samples, truth


@pytest.fixture(scope="module")
def demux_capture():
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.03)
    samples, truth = traffic.capture(np.random.default_rng(42))
    return traffic, samples, truth


class TestWideband:
    def test_single_sender_decodes_all(self, wideband_capture):
        traffic, samples, truth = wideband_capture
        assert truth, "schedule produced no transmissions"
        engine = StreamEngine()
        frames = engine.run(traffic.blocks(samples, 16384))
        assert _delivered(frames, truth) == len(truth)
        ok = [f for f in frames if f.crc_ok]
        assert len(ok) == len(truth)
        for frame in ok:
            assert frame.zigbee_channel == 13
            assert frame.coherence > 0.5

    def test_multi_channel_wideband_is_rejected(self):
        with pytest.raises(ValueError, match="Appendix B"):
            StreamEngine(zigbee_channels=[11, 13], demux=False)

    def test_no_channels_is_rejected(self):
        with pytest.raises(ValueError):
            StreamEngine(zigbee_channels=[])

    def test_stats(self, wideband_capture):
        traffic, samples, _ = wideband_capture
        engine = StreamEngine()
        engine.run(traffic.blocks(samples, 16384))
        stats = engine.stats()
        assert stats["mode"] == "wideband"
        assert stats["samples_in"] == samples.size
        assert stats["blocks_in"] == -(-samples.size // 16384)
        assert len(stats["sessions"]) == 1


class TestDemux:
    def test_concurrent_senders_all_delivered(self, demux_capture):
        traffic, samples, truth = demux_capture
        channels_used = {t.zigbee_channel for t in truth}
        assert len(channels_used) >= 2, "schedule exercised one channel only"
        engine = StreamEngine(demux=True)
        frames = engine.run(traffic.blocks(samples, 16384))
        assert _delivered(frames, truth) == len(truth)

    def test_no_spurious_crc_valid_frames(self, demux_capture):
        # Sub-band leakage aliases onto the same product phase, so
        # without arbitration a strong sender decodes verbatim on
        # neighbouring idle sessions too.  Every surviving CRC-valid
        # frame must correspond to a real transmission on its channel.
        traffic, samples, truth = demux_capture
        frames = batch_decode_stream(samples, demux=True)
        truth_keys = {(t.zigbee_channel, t.frame_bits) for t in truth}
        for frame in frames:
            if frame.crc_ok:
                assert (frame.zigbee_channel, frame.bits) in truth_keys

    def test_leak_copies_are_suppressed(self, demux_capture):
        traffic, samples, _ = demux_capture
        engine = StreamEngine(demux=True)
        engine.run(traffic.blocks(samples, 16384))
        assert engine.frames_suppressed > 0

    def test_default_channels_cover_wifi_overlap(self):
        engine = StreamEngine(demux=True)
        assert engine.zigbee_channels == [11, 12, 13, 14]

    def test_released_frames_sorted_by_position(self, demux_capture):
        traffic, samples, _ = demux_capture
        frames = batch_decode_stream(samples, demux=True)
        # batch decode releases everything at once: global order.
        indices = [f.preamble_index for f in frames]
        assert indices == sorted(indices)

