"""Decimated channelizer: invariance, delivery equality, validation.

The decimating front end (``decimation=4``) changes the product-rate
the session runs at, so it is a *different* decoder from the full-rate
one — frames are not bit-identical across rates.  What must hold:

* the decimated engine is still block-size invariant (the whole point
  of the carry/origin bookkeeping surviving the rate change), and
* it delivers the same *payloads*: the CRC-valid bit multiset matches
  the full-rate engine on the same capture.  Channel attribution of
  leak-arbitrated duplicates may differ between rates, so the
  comparison is over bits only, not ``(channel, bits)``.

On the stream benchmarks' 1 M-sample capture the decimated product
domains deliver exactly the scheduled ``(channel, bits)`` multiset, and
the full-rate engine its bits.
"""

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine, batch_decode_stream

BLOCK_SIZES = (64, 1000, 4096, 65536, 9973)


def _decode_fields(frames):
    return [frame.decode_fields() for frame in frames]


def _crc_ok_bits(frames):
    return sorted(tuple(frame.bits) for frame in frames if frame.crc_ok)


@pytest.fixture(scope="module")
def demux_case():
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.025)
    samples, truth = traffic.capture(np.random.default_rng(42))
    assert truth
    return traffic, samples


@pytest.fixture(scope="module")
def decimated_reference(demux_case):
    traffic, samples = demux_case
    engine = StreamEngine(demux=True, decimation=4)
    frames = engine.run(traffic.blocks(samples, 65536))
    assert frames
    return _decode_fields(frames)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_decimated_streaming_is_block_size_invariant(
    demux_case, decimated_reference, block_size
):
    traffic, samples = demux_case
    engine = StreamEngine(demux=True, decimation=4)
    frames = engine.run(traffic.blocks(samples, block_size))
    assert _decode_fields(frames) == decimated_reference


def test_decimated_random_cuts_match(demux_case, decimated_reference, rng):
    traffic, samples = demux_case
    engine = StreamEngine(demux=True, decimation=4)
    frames = []
    lo = 0
    while lo < samples.size:
        size = int(rng.integers(1, 20000))
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    assert _decode_fields(frames) == decimated_reference


def test_decimated_delivers_full_rate_payloads(demux_case):
    traffic, samples = demux_case
    full_rate = batch_decode_stream(samples, demux=True)
    engine = StreamEngine(demux=True, decimation=4)
    decimated = engine.run(traffic.blocks(samples, 65536))
    bits = _crc_ok_bits(decimated)
    assert bits
    assert bits == _crc_ok_bits(full_rate)


@pytest.fixture(scope="module")
def headline_case():
    """The 3-sender, 1 M-sample capture the stream benchmarks decoded."""
    senders = [
        StreamSender(i, zigbee_channel=ch, reading_interval_s=0.008)
        for i, ch in enumerate((11, 13, 14))
    ]
    traffic = StreamTraffic(senders, duration_s=0.05)
    samples, truth = traffic.capture(np.random.default_rng(20260806))
    return traffic, samples, truth


def test_every_product_domain_delivers_the_schedule(headline_case):
    # Decimation 4 in complex128 and complex64 and the headline
    # decimation 8 in complex64 deliver the same (channel, bits)
    # multiset, which is the scheduled traffic; the full-rate engine
    # delivers the same payload bits.
    traffic, samples, truth = headline_case
    schedule = sorted((t.zigbee_channel, t.frame_bits) for t in truth)
    assert schedule
    for decimation, dtype in (
        (4, np.complex128), (4, np.complex64), (8, np.complex64),
    ):
        engine = StreamEngine(
            demux=True, decimation=decimation, working_dtype=dtype
        )
        frames = engine.run(traffic.blocks(samples, 131072))
        delivered = sorted(
            (f.zigbee_channel, tuple(f.bits)) for f in frames if f.crc_ok
        )
        assert delivered == schedule, (decimation, dtype)
    full_rate = StreamEngine(demux=True).run(traffic.blocks(samples, 131072))
    assert _crc_ok_bits(full_rate) == sorted(bits for _, bits in schedule)


def test_decimation_must_divide_lag():
    # lag = 16 at 20 Msps: D=3 would shear the lagged-product grid.
    with pytest.raises(ValueError):
        StreamEngine(demux=True, decimation=3)


def test_decimation_requires_demux():
    # The wideband path has no channelizer filter to decimate behind.
    with pytest.raises(ValueError):
        StreamEngine(decimation=4)


def test_stats_reports_decimation(demux_case):
    traffic, samples = demux_case
    engine = StreamEngine(demux=True, decimation=4)
    engine.run(traffic.blocks(samples, 65536))
    stats = engine.stats()
    assert stats["decimation"] == 4
    # One front end, so no kernel mode to report.
    assert "kernel_mode" not in stats
