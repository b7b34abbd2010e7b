"""Leak arbitration: the one-sweep grouping against the cascade it replaced.

:func:`cascade_release` is the engine's arbitration as it ran before the
sweep: split the pool at the horizon, then demote every ready frame
that overlaps a held one, over and over until nothing moves, and judge
the frames left ready.  It is the oracle for
:func:`repro.stream.engine.arbitrate`.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stream.engine as engine_module
from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine, arbitrate


def cascade_release(pending, horizon=None):
    """``(released, held, suppressed)`` by the demotion cascade."""
    if horizon is None:
        ready, held = list(pending), []
    else:
        ready, held = [], []
        for frame in pending:
            (ready if frame.end_index < horizon else held).append(frame)
        demoted = True
        while demoted and ready:
            demoted = False
            for frame in list(ready):
                if any(
                    frame.preamble_index < other.end_index
                    and other.preamble_index < frame.end_index
                    for other in held
                ):
                    ready.remove(frame)
                    held.append(frame)
                    demoted = True
    released, suppressed = [], 0
    for frame in ready:
        key = (frame.band_power, -frame.zigbee_channel)
        if any(
            other.zigbee_channel != frame.zigbee_channel
            and other.bits == frame.bits
            and other.preamble_index < frame.end_index
            and frame.preamble_index < other.end_index
            and (other.band_power, -other.zigbee_channel) > key
            for other in ready
        ):
            suppressed += 1
        else:
            released.append(frame)
    released.sort(key=lambda f: (f.preamble_index, f.zigbee_channel))
    return released, held, suppressed


@dataclass(eq=False)
class _Frame:
    preamble_index: int
    end_index: int
    zigbee_channel: int
    bits: tuple
    band_power: float


# A small grid, so frames often share a start or touch end to start.
_frames = st.lists(
    st.builds(
        lambda start, length, channel, bits, power: _Frame(
            start, start + length, channel, bits, power
        ),
        st.integers(0, 40),
        st.integers(1, 12),
        st.sampled_from((11, 12, 13, 14)),
        st.sampled_from(((0, 1), (1, 0), (1, 1))),
        st.sampled_from((0.5, 1.0, 2.0)),
    ),
    max_size=40,
)


def _ids(frames):
    return sorted(id(frame) for frame in frames)


@settings(max_examples=400, deadline=None)
@given(pending=_frames, horizon=st.one_of(st.none(), st.integers(0, 55)))
def test_sweep_matches_cascade(pending, horizon):
    released, held, suppressed = arbitrate(pending, horizon)
    want_released, want_held, want_suppressed = cascade_release(
        pending, horizon
    )
    assert [id(f) for f in released] == [id(f) for f in want_released]
    assert _ids(held) == _ids(want_held)
    assert suppressed == want_suppressed
    # Every pending frame is released, held or suppressed exactly once.
    assert len(released) + len(held) + suppressed == len(pending)


def test_group_is_held_until_its_last_member_ends():
    # a overlaps b, b overlaps c: one group, decided only once c ends.
    a = _Frame(0, 10, 11, (1,), 2.0)
    b = _Frame(5, 20, 12, (1,), 1.0)
    c = _Frame(15, 30, 13, (0,), 1.0)
    lone = _Frame(40, 50, 14, (1,), 1.0)
    released, held, suppressed = arbitrate([c, lone, a, b], horizon=25)
    assert released == [] and suppressed == 0
    assert _ids(held) == _ids([a, b, c, lone])
    released, held, suppressed = arbitrate([c, lone, a, b], horizon=51)
    assert released == [a, c, lone] and held == [] and suppressed == 1


def test_touching_frames_are_separate_groups():
    # ``touching`` starts where ``ended`` ends: no overlap, so ``ended``
    # is released while ``touching`` waits for the horizon.
    ended = _Frame(0, 10, 11, (1,), 1.0)
    touching = _Frame(10, 30, 12, (1,), 2.0)
    released, held, suppressed = arbitrate([touching, ended], horizon=20)
    assert released == [ended] and held == [touching] and suppressed == 0


@pytest.mark.timeout(300)
def test_engine_frames_match_the_cascade(monkeypatch):
    # A demux capture in small blocks: many per-block releases, each
    # with frames straddling the horizon.
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.02)
    samples, truth = traffic.capture(np.random.default_rng(42))
    assert truth

    def decode():
        engine = StreamEngine(demux=True, decimation=4)
        frames = engine.run(traffic.blocks(samples, 4096))
        return frames, engine.frames_suppressed

    frames, suppressed = decode()
    monkeypatch.setattr(engine_module, "arbitrate", cascade_release)
    want_frames, want_suppressed = decode()
    assert suppressed == want_suppressed > 0
    assert [
        (f.zigbee_channel, f.preamble_index, f.bits) for f in frames
    ] == [(f.zigbee_channel, f.preamble_index, f.bits) for f in want_frames]
