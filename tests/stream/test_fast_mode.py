"""Fast kernel mode: decode equivalence, bank channel independence.

Fast mode trades the exact path's bit-reproducibility for a native
front end (:class:`FastChannelBank`: the mixer folded into the filter
taps, one call per block for every channel) and, optionally, a
complex64 working dtype.  The contract is *decode equivalence*: on the
same capture it must deliver the same CRC-valid payload bits as the
exact engine, for any way the stream is cut into blocks.  On top of
that, each channel of a bank must be *bit-identical* to a one-channel
bank on the same blocks, so a tenant decoding one channel sees what a
full demux sees on it.  The kernel's arithmetic itself is held to a
numpy oracle in ``test_frontend_native.py``.
"""

import numpy as np
import pytest

from repro.zigbee.channels import frequency_offset_hz
from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine
from repro.stream.frontend import ChannelizerFrontEnd, FastChannelBank

CHANNELS = (11, 13, 14)


def _crc_ok_bits(frames):
    return sorted(tuple(frame.bits) for frame in frames if frame.crc_ok)


def _random_cut_run(engine, samples, rng):
    frames = []
    lo = 0
    while lo < samples.size:
        size = int(rng.integers(1, 20000))
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    return frames


@pytest.fixture(scope="module")
def demux_case():
    senders = [
        StreamSender(i, zigbee_channel=ch) for i, ch in enumerate(CHANNELS)
    ]
    traffic = StreamTraffic(senders, duration_s=0.025)
    samples, truth = traffic.capture(np.random.default_rng(42))
    assert truth
    return traffic, samples


@pytest.fixture(scope="module")
def exact_bits(demux_case):
    traffic, samples = demux_case
    engine = StreamEngine(demux=True, decimation=4)
    bits = _crc_ok_bits(engine.run(traffic.blocks(samples, 65536)))
    assert bits
    return bits


@pytest.mark.parametrize("working_dtype", (None, np.complex64))
def test_fast_decode_equivalence_over_random_cuts(
    demux_case, exact_bits, working_dtype
):
    traffic, samples = demux_case
    rng = np.random.default_rng(7)
    for _ in range(3):
        engine = StreamEngine(
            demux=True,
            decimation=4,
            mode="fast",
            working_dtype=working_dtype,
        )
        frames = _random_cut_run(engine, samples, rng)
        assert _crc_ok_bits(frames) == exact_bits


def test_fast_full_rate_decode_equivalence(demux_case, exact_bits):
    traffic, samples = demux_case
    engine = StreamEngine(demux=True, mode="fast")
    frames = engine.run(traffic.blocks(samples, 65536))
    assert _crc_ok_bits(frames) == exact_bits


def test_fast_is_self_consistent_across_cuts(demux_case):
    # Fast mode is not bit-equivalent to exact, but it must agree with
    # *itself* regardless of block cuts — the bank's arithmetic per
    # output is fixed, so outputs depend only on window content.
    traffic, samples = demux_case
    engine = StreamEngine(
        demux=True, decimation=4, mode="fast", working_dtype=np.complex64
    )
    reference = [
        f.decode_fields() for f in engine.run(traffic.blocks(samples, 65536))
    ]
    engine = StreamEngine(
        demux=True, decimation=4, mode="fast", working_dtype=np.complex64
    )
    frames = _random_cut_run(engine, samples, np.random.default_rng(11))
    assert [f.decode_fields() for f in frames] == reference


def _bank(dtype, channels=CHANNELS, decimation=4):
    return FastChannelBank(
        [frequency_offset_hz(ch, 1) for ch in channels],
        20e6,
        16,
        decimation=decimation,
        working_dtype=dtype,
    )


def _exact_products(z, channel, decimation):
    exact = ChannelizerFrontEnd(
        frequency_offset_hz(channel, 1), 20e6, 16, decimation=decimation
    )
    return exact.process(z).products


def _assert_same(banked, solos):
    for (single,), out in zip(solos, banked):
        assert single.start == out.start
        assert np.array_equal(single.products, out.products)


class TestFastChannelBank:
    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64))
    def test_bit_identical_to_solo_front_ends(self, demux_case, dtype, rng):
        # Channels never mix in the kernel: a three-channel bank emits
        # what three one-channel banks emit, bit for bit, flush included.
        _, samples = demux_case
        samples = samples[:200_000]
        bank = _bank(dtype)
        solos = [_bank(dtype, channels=(ch,)) for ch in CHANNELS]
        lo = 0
        while lo < samples.size:
            size = int(rng.integers(1, 30000))
            block = samples[lo : lo + size]
            lo += size
            _assert_same(
                bank.process_block(block), [s.process_block(block) for s in solos]
            )
        _assert_same(bank.flush(), [s.flush() for s in solos])

    def test_serves_one_channel(self, demux_case):
        # One channel (a gateway tenant) goes through the same bank and
        # decodes what the exact chain decodes on that channel.
        traffic, samples = demux_case
        frames = {}
        for mode, dtype in (("exact", None), ("fast", np.complex64)):
            engine = StreamEngine(
                demux=True,
                zigbee_channels=[13],
                decimation=4,
                mode=mode,
                working_dtype=dtype,
            )
            assert (engine._bank is not None) == (mode == "fast")
            frames[mode] = _crc_ok_bits(
                engine.run(traffic.blocks(samples, 65536))
            )
        assert frames["fast"] and frames["fast"] == frames["exact"]

    def test_serves_full_rate(self, rng):
        # Decimation 1 runs the same kernel: its rotated products land
        # on the exact full-rate chain's.
        z = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        (out,) = _bank(np.complex128, channels=(13,), decimation=1).process_block(z)
        ref = _exact_products(z, 13, 1)
        assert out.products.shape == ref.shape
        np.testing.assert_allclose(out.products, ref, rtol=1e-8, atol=1e-8)

    def test_requires_a_channel(self):
        with pytest.raises(ValueError):
            _bank(np.complex64, channels=())

    def test_rejects_unsupported_working_dtype(self):
        with pytest.raises(ValueError):
            _bank(np.float32)

    def test_rejects_decimation_not_dividing_lag(self):
        with pytest.raises(ValueError):
            _bank(np.complex64, decimation=3)


def test_product_rotation_compensates_folded_mixer(rng):
    # The bank drops the output-rate mixer factor and multiplies each
    # product by its channel's product rotation instead; the products
    # must land on the exact mixed chain's (up to float tolerance).
    z = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
    (out,) = _bank(np.complex128, channels=(13,)).process_block(z)
    ref = _exact_products(z, 13, 4)
    assert out.products.shape == ref.shape
    np.testing.assert_allclose(out.products, ref, rtol=1e-8, atol=1e-8)


def test_rejects_float32_in_exact_mode():
    with pytest.raises(ValueError):
        StreamEngine(demux=True, working_dtype=np.complex64)
