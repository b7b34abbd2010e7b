"""Unit and property tests for the SymBee frame codec."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.frame import (
    DATA_START,
    FRAME_TYPE_ACK,
    FRAME_TYPE_CONTROL,
    FRAME_TYPE_DATA,
    MAX_DATA_BITS,
    OUTER_CRC_BITS,
    SEQUENCE_FIELD,
    TYPE_FIELD,
    SymBeeFrame,
    bits_to_int,
    build_frame_bits,
    frame_airtime_s,
    frame_overhead_bits,
    int_to_bits,
    pack_bits,
    parse_frame_bits,
)
from repro.transport.pdu import (
    NOMINAL_PAYLOAD_BITS,
    SCHEME_NAMES,
    Fragment,
    encode_fragment,
)


class TestBuild:
    def test_overhead(self):
        assert frame_overhead_bits() == 40
        bits = build_frame_bits([1, 0, 1], sequence=5)
        assert len(bits) == 3 + 40

    def test_max_data_fits_zigbee_payload(self):
        bits = build_frame_bits([0] * MAX_DATA_BITS, sequence=0)
        assert len(bits) + 4 <= 116  # + preamble, within MAC payload

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            build_frame_bits([0, 2], sequence=0)

    def test_sequence_range(self):
        with pytest.raises(ValueError):
            build_frame_bits([0], sequence=300)

    def test_frame_type_range(self):
        with pytest.raises(ValueError):
            build_frame_bits([0], sequence=0, frame_type=16)

    def test_length_field_limit(self):
        with pytest.raises(ValueError):
            build_frame_bits([0] * 256, sequence=0)


class TestParse:
    @given(
        st.lists(st.integers(0, 1), max_size=MAX_DATA_BITS),
        st.integers(0, 255),
        st.sampled_from([FRAME_TYPE_DATA, FRAME_TYPE_CONTROL, FRAME_TYPE_ACK]),
    )
    def test_roundtrip(self, data, seq, frame_type):
        bits = build_frame_bits(data, sequence=seq, frame_type=frame_type)
        frame = parse_frame_bits(bits)
        assert frame is not None
        assert frame.crc_ok
        assert list(frame.data_bits) == data
        assert frame.sequence == seq
        assert frame.frame_type == frame_type

    def test_too_short_returns_none(self):
        assert parse_frame_bits([0] * 30) is None

    def test_truncated_data_returns_none(self):
        bits = build_frame_bits([1] * 20, sequence=1)
        assert parse_frame_bits(bits[:-10]) is None

    @given(st.data())
    def test_single_bit_flip_fails_crc(self, data):
        bits = build_frame_bits([1, 0, 1, 1, 0], sequence=9)
        position = data.draw(st.integers(0, len(bits) - 1))
        flipped = list(bits)
        flipped[position] ^= 1
        frame = parse_frame_bits(flipped)
        # A flip in the length field may derail parsing entirely (None);
        # any parsed frame must flag the corruption.
        if frame is not None and frame.data_bits == (1, 0, 1, 1, 0) and (
            frame.sequence == 9
        ):
            assert not frame.crc_ok

    def test_extra_trailing_bits_ignored(self):
        bits = build_frame_bits([1, 1], sequence=3)
        frame = parse_frame_bits(list(bits) + [0, 1, 0])
        assert frame.crc_ok
        assert frame.data_bits == (1, 1)

    def test_dataclass_fields(self):
        frame = SymBeeFrame(data_bits=(1,), sequence=2)
        assert frame.frame_type == FRAME_TYPE_DATA
        assert frame.crc_ok


class TestLayout:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_field_positions_read_back_a_transport_frame(self, scheme, rng):
        payload_bits = NOMINAL_PAYLOAD_BITS[SCHEME_NAMES.index(scheme)]
        fragment = Fragment(
            msg_id=5,
            frag_index=9,
            frag_count=12,
            payload=tuple(int(b) for b in rng.integers(0, 2, payload_bits)),
        )
        data_bits, frame_type, sequence = encode_fragment(fragment, scheme)
        bits = build_frame_bits(data_bits, sequence, frame_type)
        assert len(bits) == DATA_START + len(data_bits) + OUTER_CRC_BITS
        assert bits_to_int(bits[TYPE_FIELD]) == frame_type
        assert bits_to_int(bits[SEQUENCE_FIELD]) == sequence
        assert bits[DATA_START : len(bits) - OUTER_CRC_BITS] == data_bits

    @pytest.mark.parametrize(
        "data_bits,airtime_ms",
        [(1, 1.984), (16, 2.464), (28, 2.848), (72, 4.256)],
    )
    def test_airtime_is_one_payload_byte_per_bit(self, data_bits, airtime_ms):
        assert frame_airtime_s(data_bits) == pytest.approx(
            airtime_ms * 1e-3, rel=1e-12
        )


class TestBitHelpers:
    @given(st.integers(1, 24).flatmap(
        lambda width: st.tuples(st.just(width), st.integers(0, 2**width - 1))
    ))
    def test_int_round_trip(self, width_value):
        width, value = width_value
        bits = int_to_bits(value, width)
        assert len(bits) == width
        assert bits_to_int(bits) == value

    def test_msb_first(self):
        assert int_to_bits(1, 4) == [0, 0, 0, 1]
        assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"

    def test_empty(self):
        assert int_to_bits(0, 0) == []
        assert bits_to_int([]) == 0
        assert pack_bits([]) == b""

    def test_pack_zero_pads_to_a_byte(self):
        assert pack_bits([1, 0, 1]) == b"\xa0"
        assert pack_bits([1] * 9) == b"\xff\x80"

    def test_pack_round_trips_bytes(self, rng):
        from repro.transport.segmentation import bytes_to_bits

        data = bytes(rng.integers(0, 256, 17, dtype="uint8"))
        assert pack_bits(bytes_to_bits(data)) == data

    def test_bits_to_int_reads_numpy_bits(self):
        assert bits_to_int(np.array([1, 0, 1, 1], dtype=np.int8)) == 11
