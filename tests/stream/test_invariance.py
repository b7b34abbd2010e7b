"""Block-size invariance: streaming decode is bit-identical to batch.

The acceptance property of the whole subsystem: for any block size —
tiny, prime, huge — feeding the same capture through
:class:`repro.stream.StreamEngine` yields *exactly* the frames of
:func:`repro.stream.batch_decode_stream` (one whole-capture call), down
to the float diagnostics.  This holds because the front end's
arithmetic is fixed (:class:`repro.stream.frontend.FastChannelBank`:
correctly rounded FMAs in one order, an output emitted only once its
whole window is buffered) and the session's caches are pure functions
of stream position; numpy's native complex multiply, ``np.convolve``
and SIMD ``np.exp`` all vary their last bit with array length or
alignment and would each break this test.

The contract is held at every configuration the engine builds: demux at
decimation 1, 2, 4 and 8 and wideband, each in complex128 and complex64,
under fixed and random cuts.
"""

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine, batch_decode_stream

#: Deliberately adversarial sizes: smaller than the lag, non-dividing,
#: page-sized, larger than the whole scan chunk, and a prime.
BLOCK_SIZES = (64, 1000, 4096, 65536, 9973)


def _decode_fields(frames):
    return [frame.decode_fields() for frame in frames]


@pytest.fixture(scope="module")
def wideband_case():
    traffic = StreamTraffic(
        [StreamSender(0, zigbee_channel=13, reading_interval_s=0.004)],
        duration_s=0.025,
    )
    samples, truth = traffic.capture(np.random.default_rng(21))
    reference = batch_decode_stream(samples)
    assert truth and reference
    return traffic, samples, _decode_fields(reference)


@pytest.fixture(scope="module")
def demux_case():
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.025)
    samples, truth = traffic.capture(np.random.default_rng(42))
    reference = batch_decode_stream(samples, demux=True)
    assert truth and reference
    return traffic, samples, _decode_fields(reference)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_wideband_streaming_matches_batch(wideband_case, block_size):
    traffic, samples, reference = wideband_case
    engine = StreamEngine()
    frames = engine.run(traffic.blocks(samples, block_size))
    assert _decode_fields(frames) == reference


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_demux_streaming_matches_batch(demux_case, block_size):
    traffic, samples, reference = demux_case
    engine = StreamEngine(demux=True)
    frames = engine.run(traffic.blocks(samples, block_size))
    assert _decode_fields(frames) == reference


def test_random_block_sizes_match_batch(wideband_case, rng):
    # Not just fixed sizes: a stream cut at random points must decode
    # identically too (blocks of 1..2 scan chunks, plus runts).
    traffic, samples, reference = wideband_case
    engine = StreamEngine()
    frames = []
    lo = 0
    while lo < samples.size:
        size = int(rng.integers(1, 20000))
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    assert _decode_fields(frames) == reference


#: Every front-end configuration: engine keywords by name.
CONFIGS = {
    f"{shape}-{np.dtype(dtype).name}": dict(kwargs, working_dtype=dtype)
    for shape, kwargs in (
        ("d1", dict(demux=True)),
        ("d2", dict(demux=True, decimation=2)),
        ("d4", dict(demux=True, decimation=4)),
        ("d8", dict(demux=True, decimation=8)),
        ("wideband", dict(demux=False)),
    )
    for dtype in (np.complex128, np.complex64)
}


def _random_cuts(engine, samples, rng):
    frames = []
    lo = 0
    while lo < samples.size:
        size = int(rng.integers(1, 20000))
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    return frames


@pytest.mark.parametrize("cuts", ("fixed", "random"))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_config_streams_like_batch(demux_case, config, cuts):
    traffic, samples, _ = demux_case
    kwargs = CONFIGS[config]
    batch = batch_decode_stream(samples, **kwargs)
    assert any(frame.crc_ok for frame in batch), "no CRC-valid frame"
    engine = StreamEngine(**kwargs)
    if cuts == "fixed":
        frames = engine.run(traffic.blocks(samples, 9973))
    else:
        frames = _random_cuts(engine, samples, np.random.default_rng(5))
    assert _decode_fields(frames) == _decode_fields(batch)


def test_latency_is_the_only_blocking_dependent_field(wideband_case):
    traffic, samples, reference = wideband_case
    engine = StreamEngine()
    frames = engine.run(traffic.blocks(samples, 64))
    for frame in frames:
        assert frame.latency_products >= 0
