"""Unit tests for 802.15.4 PHY framing."""

import pytest
from hypothesis import given, strategies as st

from repro.constants import ZIGBEE_MAX_PSDU
from repro.zigbee.frame import (
    PHY_OVERHEAD_BYTES,
    PhyFrame,
    SHR_SYMBOLS,
    build_ppdu_symbols,
    ppdu_duration_seconds,
)
from tests.zigbee.ppdu import parse_ppdu_symbols


class TestPhyFrame:
    def test_length(self):
        assert PhyFrame(b"abc").length == 3

    def test_max_psdu_enforced(self):
        PhyFrame(bytes(ZIGBEE_MAX_PSDU))  # fine
        with pytest.raises(ValueError):
            PhyFrame(bytes(ZIGBEE_MAX_PSDU + 1))


class TestShr:
    def test_shr_is_ten_symbols(self):
        # 4 preamble bytes + SFD = 5 bytes = 10 symbols.
        assert len(SHR_SYMBOLS) == 10

    def test_preamble_symbols_are_zero(self):
        assert SHR_SYMBOLS[:8] == (0,) * 8

    def test_sfd_symbols(self):
        # SFD 0xA7, low nibble first: (7, A).
        assert SHR_SYMBOLS[8:] == (0x7, 0xA)

    def test_phy_overhead(self):
        assert PHY_OVERHEAD_BYTES == 6


class TestBuildParse:
    @given(st.binary(min_size=1, max_size=ZIGBEE_MAX_PSDU))
    def test_roundtrip(self, psdu):
        symbols = build_ppdu_symbols(psdu)
        frame = parse_ppdu_symbols(symbols)
        assert frame.psdu == psdu

    def test_symbol_count(self):
        symbols = build_ppdu_symbols(b"\x11\x22\x33")
        assert len(symbols) == 2 * (PHY_OVERHEAD_BYTES + 3)

    def test_bad_shr_rejected(self):
        symbols = list(build_ppdu_symbols(b"x"))
        symbols[0] = 5
        with pytest.raises(ValueError, match="synchronization"):
            parse_ppdu_symbols(symbols)

    def test_truncated_stream_rejected(self):
        symbols = build_ppdu_symbols(b"hello")
        with pytest.raises(ValueError, match="truncated"):
            parse_ppdu_symbols(symbols[:-2])

    def test_too_short_for_header(self):
        with pytest.raises(ValueError, match="too short"):
            parse_ppdu_symbols([0] * 5)

    def test_nibble_order_applies_to_payload_only(self):
        symbols_std = build_ppdu_symbols(b"\x67")
        symbols_hi = build_ppdu_symbols(b"\x67", nibble_order="high-first")
        # Header identical, payload nibble-swapped.
        assert symbols_std[:12] == symbols_hi[:12]
        assert symbols_std[12:] == [7, 6]
        assert symbols_hi[12:] == [6, 7]

    def test_parse_with_matching_nibble_order(self):
        symbols = build_ppdu_symbols(b"\x12\x34", nibble_order="high-first")
        frame = parse_ppdu_symbols(symbols, nibble_order="high-first")
        assert frame.psdu == b"\x12\x34"


class TestDuration:
    def test_minimal_packet_is_576us(self):
        # The paper's Section II-B: an 18-byte packet lasts 576 us.
        assert ppdu_duration_seconds(12) == pytest.approx(576e-6)

    def test_max_packet(self):
        assert ppdu_duration_seconds(127) == pytest.approx((127 + 6) * 32e-6)
