"""TenantConsumer: one decode per frame, reassembler-owned latency, counters."""

import sys
import time
from types import SimpleNamespace

import pytest

from repro.gateway.core import GatewayCore
from repro.gateway.loadgen import build_workloads, drive_core
from repro.gateway.tenant import TenantConsumer
from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine
from repro.transport import pdu
from repro.transport.pdu import SCHEME_NONE, Fragment, encode_fragment
from repro.transport.segmentation import segment_message

#: Fast decode path: one decimated channel.
FAST_ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "working_dtype": "complex64",
}
BLOCK_SIZE = 16384


def _workload(tenants=1):
    return build_workloads(
        tenants, 2, seed=11, duration_s=0.02,
        engine=FAST_ENGINE, dtype="complex64",
    )


def _stream_frame(fragment, channel=13):
    """A stand-in for an engine-released frame carrying one fragment."""
    bits, frame_type, sequence = encode_fragment(fragment, SCHEME_NONE)
    frame = SimpleNamespace(
        frame_type=frame_type, sequence=sequence, data_bits=bits
    )
    return SimpleNamespace(frame=frame, zigbee_channel=channel)


class _ScriptedEngine:
    """Releases one scripted frame per block."""

    def __init__(self, frames):
        self._frames = list(frames)

    def process_block(self, block):
        return [self._frames.pop(0)]

    def finish(self):
        return []

    def stats(self):
        return {}


def test_dead_message_leaves_no_stale_latency(monkeypatch):
    # Two fragments that pass the inner CRC-12 but carry no end marker:
    # the reassembly completes yet yields no bytes.  The next message
    # under the same (channel, msg_id, frag_count) key must time its
    # latency from its own first fragment, not from the dead one's.
    dead = [
        Fragment(msg_id=1, frag_index=i, frag_count=2, payload=(0,) * 16)
        for i in range(2)
    ]
    live = segment_message(b"hi", 1, 16)
    assert len(live) == 2
    frames = [_stream_frame(f) for f in dead + live]

    consumer = TenantConsumer("t")
    consumer.engine.finish()  # frees the native session it built
    consumer.engine = _ScriptedEngine(frames)
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    delivered = []
    for tick in (0.0, 1.0, 100.0, 100.5):  # one frame per tick
        now[0] = tick
        delivered.extend(consumer.process(None) or [])

    assert [m["data"] for m in delivered] == [b"hi"]
    assert delivered[0]["latency_s"] == pytest.approx(0.5)
    assert consumer.finish()["reassembly"] == {
        "fragments_accepted": 4,
        "frames_rejected": 0,
        "messages_completed": 1,
        "pending": 0,
    }


def test_message_dict_keys_in_wire_order():
    consumer = TenantConsumer("t")
    consumer.engine.finish()
    consumer.engine = _ScriptedEngine(
        _stream_frame(f) for f in segment_message(b"hi", 3, 16)
    )
    messages = [m for _ in range(2) for m in consumer.process(None) or []]
    assert list(messages[0]) == [
        "msg_id", "data", "frag_count", "duplicates", "zigbee_channel",
        "latency_s",
    ]
    assert messages[0]["zigbee_channel"] == 13


@pytest.fixture
def released(monkeypatch):
    """Every frame any :class:`StreamEngine` releases, in order."""
    frames = []
    for name in ("process_block", "finish"):

        def recorded(engine, *args, _original=getattr(StreamEngine, name)):
            out = _original(engine, *args)
            frames.extend(out)
            return out

        monkeypatch.setattr(StreamEngine, name, recorded)
    return frames


def test_one_fragment_decode_per_released_frame(monkeypatch, released):
    calls = []
    original = pdu.decode_fragment

    def counted(*args):
        calls.append(args)
        return original(*args)

    # Every module that imported the function by name gets the counter.
    for module in list(sys.modules.values()):
        if getattr(module, "decode_fragment", None) is original:
            monkeypatch.setattr(module, "decode_fragment", counted)

    (workload,) = _workload()
    consumer = TenantConsumer(workload.tenant_id, workload.engine)
    samples = workload.samples
    for lo in range(0, samples.size, BLOCK_SIZE):
        consumer.process(samples[lo : lo + BLOCK_SIZE])
    result = consumer.finish()

    assert result["reassembly"]["messages_completed"] > 0
    assert all(f.frame is not None for f in released)
    assert len(calls) == len(released)


def test_gateway_counters_match_engine_and_reassembler(monkeypatch, released):
    reassembly = []
    finish = TenantConsumer.finish

    def recorded_finish(consumer):
        result = finish(consumer)
        reassembly.append(result["reassembly"])
        return result

    monkeypatch.setattr(TenantConsumer, "finish", recorded_finish)

    workloads = _workload(tenants=2)
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        with GatewayCore(engine=FAST_ENGINE, max_tenants=2) as core:
            drive_core(core, workloads)
        counters = REGISTRY.snapshot(include_zero=True)["counters"]
    finally:
        REGISTRY.disable()
        REGISTRY.reset()

    assert len(reassembly) == len(workloads)
    delivered = [m for w in workloads for m in w.delivered]
    assert delivered
    assert counters["gateway.frames_decoded"] == len(released)
    assert counters["gateway.fragments_accepted"] == sum(
        r["fragments_accepted"] for r in reassembly
    )
    assert counters["gateway.messages_delivered"] == sum(
        r["messages_completed"] for r in reassembly
    ) == len(delivered)
    assert counters["gateway.message_bytes_delivered"] == sum(
        len(m["data"]) for m in delivered
    )
