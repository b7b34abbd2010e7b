"""Wire protocol: framing bounds, sample codecs, asyncio readers."""

import asyncio
import struct

import numpy as np
import pytest

from repro.gateway.protocol import (
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    ProtocolError,
    decode_block,
    encode_block,
    message_from_wire,
    message_to_wire,
    pack_message,
    read_message,
)


def _read_from_bytes(data):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_message(reader)

    return asyncio.run(run())


class TestFraming:
    def test_round_trip(self):
        frame = pack_message({"type": "poll", "tenant": "t"}, b"abc")
        header, payload = _read_from_bytes(frame)
        assert header == {"type": "poll", "tenant": "t"}
        assert payload == b"abc"

    def test_clean_eof_is_none(self):
        assert _read_from_bytes(b"") is None

    def test_truncated_frame_raises(self):
        frame = pack_message({"type": "poll"}, b"abcdef")
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_from_bytes(frame[:-2])

    def test_oversized_lengths_rejected_before_allocation(self):
        prefix = struct.pack("!II", MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(ProtocolError, match="header length"):
            _read_from_bytes(prefix)
        prefix = struct.pack("!II", 2, MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(ProtocolError, match="payload length"):
            _read_from_bytes(prefix)

    def test_non_object_header_rejected(self):
        frame = struct.pack("!II", 5, 0) + b"[1,2]"
        with pytest.raises(ProtocolError, match="JSON object"):
            _read_from_bytes(frame)

    @pytest.mark.parametrize(
        "header",
        [
            b'{"count":' + b"9" * 5000 + b"}",  # int past the digit limit
            b"[" * 100000,  # nesting past the recursion limit
            b"\xff\xfe{}",  # not UTF-8
        ],
        ids=["long-int", "deep-nesting", "bad-utf8"],
    )
    def test_unparseable_header_is_protocol_error(self, header):
        frame = struct.pack("!II", len(header), 0) + header
        with pytest.raises(ProtocolError, match="bad header JSON"):
            _read_from_bytes(frame)


class TestSampleBlocks:
    @pytest.mark.parametrize("dtype", ["complex64", "complex128"])
    def test_block_round_trip(self, dtype):
        rng = np.random.default_rng(5)
        block = (
            rng.standard_normal(257) + 1j * rng.standard_normal(257)
        ).astype(dtype)
        header, payload = encode_block(block)
        assert header == {"dtype": dtype, "count": 257}
        decoded = decode_block(header, payload)
        assert decoded.dtype == block.dtype
        assert not decoded.flags.writeable
        np.testing.assert_array_equal(decoded, block)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ProtocolError, match="dtype"):
            encode_block(np.ones(4, dtype=np.float32))
        with pytest.raises(ProtocolError, match="dtype"):
            decode_block({"dtype": "float64", "count": 1}, b"\0" * 8)

    def test_count_payload_mismatch_rejected(self):
        header, payload = encode_block(np.ones(4, dtype=np.complex64))
        with pytest.raises(ProtocolError, match="bytes"):
            decode_block(dict(header, count=5), payload)
        with pytest.raises(ProtocolError, match="non-negative"):
            decode_block(dict(header, count=-1), payload)

    def test_bool_count_rejected(self):
        # ``True`` is an int to Python but not a count on the wire.
        header, payload = encode_block(np.ones(1, dtype=np.complex64))
        with pytest.raises(ProtocolError, match="non-negative integer"):
            decode_block(dict(header, count=True), payload)


class TestMessageCodec:
    def test_delivery_round_trip(self):
        message = {
            "msg_id": 3,
            "data": b"\x00\xffhi",
            "frag_count": 2,
            "duplicates": 0,
            "zigbee_channel": 13,
            "latency_s": 0.5,
        }
        wire = message_to_wire(message)
        assert "data" not in wire
        assert wire["data_hex"] == "00ff6869"
        assert message_from_wire(wire) == message
