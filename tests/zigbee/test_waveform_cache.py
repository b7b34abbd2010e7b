"""O-QPSK frame synthesis: the segment-table fast path, fresh renders.

The segment table is a pure optimization, asserted sample-exact against
chip-by-chip rendering.  Frames themselves are not memoized: every
render returns a new array, and sending frames retains none of them.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.link import link_at_snr
from repro.zigbee.dsss import spread
from repro.zigbee.oqpsk import OqpskModulator
from repro.zigbee.transmitter import ZigBeeTransmitter


class TestTransmitterRender:
    def test_two_renders_are_equal_and_distinct(self):
        tx = ZigBeeTransmitter(tx_power_dbm=-10.0)
        psdu = bytes(range(12))
        first = tx.waveform_for_psdu(psdu)
        second = tx.waveform_for_psdu(psdu)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable


class TestSynthesisKeepsNoFrames:
    def test_random_payload_frames_are_not_retained(self):
        link = link_at_snr(6.0)
        rng = np.random.default_rng(37)
        # One frame first, so the segment and mixer tables are built
        # before tracing starts.
        link.send_bits(rng.integers(0, 2, 64), rng)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(24):
                link.send_bits(rng.integers(0, 2, 64), rng)
            gc.collect()
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 2_000_000, f"synthesis kept {grown / 1e6:.2f} MB"


class TestSegmentTableEquivalence:
    @pytest.mark.parametrize("sample_rate", [2e6, 20e6])
    def test_modulate_symbols_matches_chip_reference(self, sample_rate, rng):
        mod = OqpskModulator(sample_rate)
        symbols = rng.integers(0, 16, 40)
        fast = mod.modulate_symbols(symbols)
        reference = mod.modulate_chips(spread(symbols))
        assert np.array_equal(fast, reference)  # sample-exact, not approx

    def test_every_single_symbol_matches(self):
        mod = OqpskModulator(20e6)
        for s in range(16):
            assert np.array_equal(
                mod.modulate_symbols([s]), mod.modulate_chips(spread([s]))
            )

    def test_quadrature_tail_overlap_add(self):
        # The half-chip quadrature spill from symbol k lands inside
        # symbol k+1's block; adjacent pairs exercise every junction.
        mod = OqpskModulator(20e6)
        for a in range(0, 16, 5):
            for b in range(0, 16, 3):
                assert np.array_equal(
                    mod.modulate_symbols([a, b]),
                    mod.modulate_chips(spread([a, b])),
                )
