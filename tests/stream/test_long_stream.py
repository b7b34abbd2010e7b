"""Float32 sessions keep decoding however long the stream runs.

A window sum taken as the difference of two prefix entries loses about
as many digits as the prefix has grown.  Float32 prefixes that grew for
the whole stream made a session deaf a few seconds in: fed one gateway
tenant's 0.25 s capture over and over, a one-channel decimation-4
float32 session decoded all 48 frames per repetition up to the 17th and
none from the 20th on (~2e7 products), and the headline decimation-8
demux engine went deaf near the 38th -- after handing some of the
channel-13 frames to channel 12's session from the second repetition
on.  The float prefixes now restart every 2^17 products, so every
repetition must decode the first one's CRC-valid frames on their own
channel, with header rejects near the complex128 count.
"""

from collections import Counter

import numpy as np
import pytest

from repro.gateway.loadgen import build_workloads
from repro.stream.engine import StreamEngine

#: The ledger's gateway tenant engine (one channel, decimation 4).
TENANT = {"demux": True, "zigbee_channels": [13], "decimation": 4}
#: The headline receiver: four-channel demux at decimation 8.
HEADLINE = {"demux": True, "decimation": 8}
REPETITIONS = 40
BLOCK = 131072


@pytest.fixture(scope="module")
def capture():
    workload = build_workloads(
        1, 16, 2027, duration_s=0.25, engine=TENANT, dtype=np.complex64
    )[0]
    return workload.samples


def _repeat(capture, config, dtype, repetitions):
    """CRC-valid frame multiset and header rejects of every repetition."""
    engine = StreamEngine(**config, working_dtype=dtype)
    frames, rejects = [], []
    for _ in range(repetitions):
        before = sum(s.header_rejects for s in engine.sessions)
        for lo in range(0, capture.size, BLOCK):
            frames.extend(engine.process_block(capture[lo : lo + BLOCK]))
        rejects.append(sum(s.header_rejects for s in engine.sessions) - before)
    frames.extend(engine.finish())
    # Products per repetition on every session's channel.
    per = capture.size // config["decimation"]
    valid = [Counter() for _ in range(repetitions)]
    for frame in frames:
        if frame.crc_ok:
            valid[frame.preamble_index // per][
                (frame.zigbee_channel, frame.bits)
            ] += 1
    return valid, rejects


@pytest.mark.parametrize("config", [TENANT, HEADLINE], ids=["d4", "d8"])
def test_float32_sessions_do_not_go_deaf(capture, config):
    valid, rejects = _repeat(capture, config, np.complex64, REPETITIONS)
    assert sum(valid[0].values()) >= 40
    for repetition, frames in enumerate(valid):
        assert frames == valid[0], repetition
    _, exact = _repeat(capture, config, np.complex128, 2)
    # Stay near the complex128 count (a dulled float32 gate rejects
    # more false preambles before it rejects everything).
    reference = max(exact)
    for repetition, count in enumerate(rejects):
        assert abs(count - reference) <= max(5, reference // 2), repetition
