"""Property tests: no wire input escapes the gateway's error contract.

Whatever bytes a client sends, in whatever pieces they arrive, the
server's :class:`~repro.gateway.protocol.FrameSocket` reader returns a
frame, ``None`` (clean EOF) or raises :class:`ProtocolError`, and valid
frames sent back to back come out whole and in order; whatever header
dict and payload a parsed frame carries, ``GatewayServer._dispatch``
returns a response dict or raises :class:`ProtocolError` /
:class:`GatewayError`.  Anything else would reach the server's
``internal`` branch.  The core must only ever hold tenants that a
successful ``hello`` admitted.
"""

import json
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gateway.core import GatewayCore
from repro.gateway.errors import GatewayError
from repro.gateway.protocol import (
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    ProtocolError,
    pack_message,
)
from repro.gateway.server import GatewayServer
from tests.gateway.framing import read_frame, read_frames

#: Small engine so admitting and decoding stay cheap per example.
FAST_ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "working_dtype": "complex64",
}

VERBS = ("hello", "samples", "poll", "finish", "stats", "bye")
TENANTS = ("a", "b", "")

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)
engine_keys = st.sampled_from(
    (
        "demux",
        "decimation",
        "mode",
        "working_dtype",
        "zigbee_channels",
        "sample_rate",
        "wifi_channel",
        "tau",
        "capture_tau",
        "bogus",
    )
)
#: Engine overrides: mostly wrong-typed values under real keyword names.
#: Numbers stay small so a value that happens to be legal builds an
#: engine of ordinary size.
engine_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-4, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(("fast", "exact", "complex64", "x")),
    st.lists(st.integers(min_value=0, max_value=30), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
headers = st.fixed_dictionaries(
    {},
    optional={
        "type": st.one_of(st.sampled_from(VERBS), json_values),
        "tenant": st.one_of(st.sampled_from(TENANTS), json_values),
        "engine": st.one_of(
            st.dictionaries(engine_keys, engine_values, max_size=3),
            json_values,
        ),
        "dtype": st.one_of(
            st.sampled_from(("complex64", "complex128", "float32")),
            json_values,
        ),
        "count": st.one_of(
            st.integers(min_value=-2, max_value=16), json_values
        ),
    },
)
requests = st.lists(
    st.tuples(headers, st.binary(max_size=128)), min_size=1, max_size=8
)


@st.composite
def wire_bytes(draw):
    """A frame that may lie about its lengths, carry junk or be cut short."""
    header = draw(
        st.one_of(
            st.binary(max_size=64),
            json_values.map(lambda v: json.dumps(v).encode("utf-8")),
            headers.map(lambda h: json.dumps(h).encode("utf-8")),
            st.just(b"\xff\xfe"),
        )
    )
    payload = draw(st.binary(max_size=64))
    length = st.one_of(
        st.integers(min_value=0, max_value=96),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(
            (MAX_HEADER_BYTES, MAX_HEADER_BYTES + 1, MAX_PAYLOAD_BYTES + 1)
        ),
    )
    header_len = draw(st.one_of(st.just(len(header)), length))
    payload_len = draw(st.one_of(st.just(len(payload)), length))
    data = struct.pack("!II", header_len, payload_len) + header + payload
    cut = draw(st.integers(min_value=0, max_value=len(data)))
    return draw(st.sampled_from((data, data[:cut])))


def _chunk(data, raw):
    """A write size from one byte to the whole input."""
    return data.draw(st.integers(min_value=1, max_value=max(len(raw), 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frame_reader_ends_in_frame_eof_or_protocol_error(data):
    raw = data.draw(wire_bytes())
    try:
        result = read_frame(raw, _chunk(data, raw))
    except ProtocolError:
        return
    if result is None:
        assert raw == b""
        return
    header, payload = result
    assert isinstance(header, dict)
    assert isinstance(payload, memoryview)
    assert len(payload) == struct.unpack_from("!I", raw, 4)[0]


#: Headers that survive a JSON round trip unchanged (no NaN).
plain_headers = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.integers(), st.text(max_size=40), st.booleans()),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.lists(
        st.tuples(plain_headers, st.binary(max_size=6000)),
        min_size=1,
        max_size=5,
    ),
)
def test_back_to_back_frames_come_out_in_order(data, frames):
    raw = b"".join(pack_message(h, p) for h, p in frames)
    *got, eof = read_frames(raw, _chunk(data, raw), len(frames) + 1)
    assert eof is None
    assert [(h, bytes(p)) for h, p in got] == frames


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=requests)
def test_dispatch_ends_in_response_or_refusal(batch):
    core = GatewayCore(engine=FAST_ENGINE, max_tenants=2)
    server = GatewayServer(core)
    admitted = set()
    try:
        for header, payload in batch:
            try:
                response = server._dispatch(header, payload)
            except (ProtocolError, GatewayError):
                pass
            else:
                assert isinstance(response, dict)
                assert isinstance(response.get("type"), str)
                if response["type"] == "welcome":
                    admitted.add(header["tenant"])
            assert set(core.tenant_ids()) <= admitted
    finally:
        core.close()
