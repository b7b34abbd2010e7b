"""Transport fragments through the streaming receive engine.

Broadcast path: a scripted :class:`StreamSender` plays the exact frames
``encode_fragment`` produces, the stream engine delimits them from the
continuous capture, and :class:`StreamReassembler` rebuilds the message
— no ACK channel, no ARQ.
"""

import numpy as np

from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import batch_decode_stream
from repro.transport import (
    SCHEME_HAMMING,
    StreamReassembler,
    encode_fragment,
    segment_message,
)

MESSAGE = b"streamed!"


def _completed(reassembler, frames):
    return [m for m in map(reassembler.push, frames) if m is not None]


def _capture(seed=3, stutter=1):
    fragments = segment_message(MESSAGE, msg_id=5, fragment_bits=18)
    script = tuple(
        encode_fragment(f, SCHEME_HAMMING)
        for f in fragments
        for _ in range(stutter)
    )
    sender = StreamSender(
        0, zigbee_channel=13, reading_interval_s=0.003, frames=script
    )
    traffic = StreamTraffic([sender], duration_s=0.004 * (len(script) + 3))
    samples, truth = traffic.capture(np.random.default_rng(seed))
    return samples, truth, len(fragments)


def test_scripted_fragments_reassemble_from_stream():
    samples, truth, n_fragments = _capture()
    assert len(truth) == n_fragments  # whole script made it on the air
    frames = batch_decode_stream(samples)
    reassembler = StreamReassembler()
    completed = _completed(reassembler, frames)
    assert [m.data for m in completed] == [MESSAGE]
    assert completed[0].msg_id == 5
    assert completed[0].frag_count == n_fragments
    assert completed[0].zigbee_channel == 13
    assert reassembler.pending == 0


def test_duplicate_fragments_tolerated():
    # Broadcast redundancy: every fragment aired twice back-to-back
    # still yields the message exactly once, extra copies counted as
    # duplicates (the last one completes, so it is never a duplicate).
    samples, truth, n_fragments = _capture(stutter=2)
    assert len(truth) == 2 * n_fragments
    reassembler = StreamReassembler()
    completed = _completed(reassembler, batch_decode_stream(samples))
    assert [m.data for m in completed] == [MESSAGE]
    assert reassembler.fragments_accepted == 2 * n_fragments
    assert completed[0].duplicates == n_fragments - 1


def test_non_transport_frames_are_counted_not_crashed():
    # A plain DATA-frame sender (no script) produces frames the
    # transport layer must reject cleanly.
    sender = StreamSender(0, zigbee_channel=13, reading_interval_s=0.003)
    traffic = StreamTraffic([sender], duration_s=0.02)
    samples, truth = traffic.capture(np.random.default_rng(1))
    assert truth  # something was actually sent
    reassembler = StreamReassembler()
    completed = _completed(reassembler, batch_decode_stream(samples))
    assert completed == []
    assert reassembler.frames_rejected >= len(truth)
    assert reassembler.fragments_accepted == 0
