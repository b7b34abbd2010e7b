"""Unit and property tests for the 802.15.4 FCS (CRC-16 ITU-T)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.zigbee.crc import append_fcs, check_fcs, crc16_itut
from tests.zigbee.crc_reference import crc16_itut_bitwise


class TestCrc16:
    def test_empty_input(self):
        assert crc16_itut(b"") == 0x0000

    def test_known_vector_123456789(self):
        # CRC-16/KERMIT check value for the classic test string.
        assert crc16_itut(b"123456789") == 0x2189

    def test_fits_sixteen_bits(self):
        assert 0 <= crc16_itut(b"\xff" * 300) <= 0xFFFF

    def test_sensitive_to_single_bit(self):
        assert crc16_itut(b"\x00\x00") != crc16_itut(b"\x00\x01")

    def test_order_sensitive(self):
        assert crc16_itut(b"\x01\x02") != crc16_itut(b"\x02\x01")


class TestTableMatchesBitwise:
    @pytest.mark.parametrize("initial", (0x0000, 0xFFFF, 0x1D0F))
    def test_every_single_byte(self, initial):
        for byte in range(256):
            data = bytes((byte,))
            assert crc16_itut(data, initial) == crc16_itut_bitwise(data, initial)

    def test_random_strings(self):
        rng = np.random.default_rng(2027)
        for n in range(201):
            data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            assert crc16_itut(data) == crc16_itut_bitwise(data)

    @given(st.binary(max_size=200), st.integers(0, 0xFFFF))
    def test_any_string_any_initial(self, data, initial):
        assert crc16_itut(data, initial) == crc16_itut_bitwise(data, initial)


class TestFcs:
    def test_append_adds_two_bytes(self):
        framed = append_fcs(b"hello")
        assert len(framed) == 7
        assert framed[:5] == b"hello"

    def test_check_passes_for_valid_frame(self):
        assert check_fcs(append_fcs(b"payload"))

    def test_check_fails_for_corrupt_body(self):
        frame = bytearray(append_fcs(b"payload"))
        frame[0] ^= 0x01
        assert not check_fcs(bytes(frame))

    def test_check_fails_for_corrupt_fcs(self):
        frame = bytearray(append_fcs(b"payload"))
        frame[-1] ^= 0x80
        assert not check_fcs(bytes(frame))

    def test_short_frames_invalid(self):
        assert not check_fcs(b"")
        assert not check_fcs(b"\x00")

    def test_fcs_low_byte_first(self):
        crc = crc16_itut(b"x")
        framed = append_fcs(b"x")
        assert framed[-2] == crc & 0xFF
        assert framed[-1] == crc >> 8

    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, payload):
        assert check_fcs(append_fcs(payload))

    @given(st.binary(min_size=1, max_size=100), st.data())
    def test_any_single_bit_flip_detected(self, payload, data):
        frame = bytearray(append_fcs(payload))
        bit = data.draw(st.integers(0, len(frame) * 8 - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
        assert not check_fcs(bytes(frame))
