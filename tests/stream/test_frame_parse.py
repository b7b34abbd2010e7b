"""Stream frames leave the native session parsed.

The session push reads each emitted frame's header and checks its CRC
in C; :class:`repro.stream.session.StreamSession` builds the
:class:`repro.core.frame.SymBeeFrame` from those fields without parsing
the bits again.  Held here: no Python CRC-16 runs while an engine
decodes, and every released frame carries exactly what
:func:`repro.core.frame.parse_frame_bits` makes of its bits.
"""

import sys

import numpy as np
import pytest

from repro.core.frame import parse_frame_bits
from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine
from repro.zigbee import crc


@pytest.fixture(scope="module")
def decoded():
    """Frames of a three-sender capture whose leak copies fail their CRC."""
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.03)
    samples, _ = traffic.capture(np.random.default_rng(42))
    calls = []
    original = crc.crc16_itut

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Every module that imported the function by name gets the counter.
    patched = [
        module
        for module in list(sys.modules.values())
        if getattr(module, "crc16_itut", None) is original
    ]
    for module in patched:
        module.crc16_itut = counted
    try:
        engine = StreamEngine(
            zigbee_channels=[11, 12, 13, 14],
            demux=True,
            decimation=8,
            working_dtype=np.complex64,
        )
        frames = engine.run(traffic.blocks(samples, 16384))
    finally:
        for module in patched:
            module.crc16_itut = original
    return frames, calls


def test_capture_has_crc_failures(decoded):
    frames, _ = decoded
    assert any(f.crc_ok for f in frames)
    assert any(not f.crc_ok for f in frames)


def test_no_python_crc_while_decoding(decoded):
    _, calls = decoded
    assert calls == []


def test_frames_match_parse_frame_bits(decoded):
    frames, _ = decoded
    for f in frames:
        parsed = parse_frame_bits(f.bits)
        assert f.frame == parsed
        assert f.crc_ok == bool(parsed is not None and parsed.crc_ok)
        assert f.bits == tuple(int(b) for b in f.bits)
