"""Scan strides and the stream tail against their frozen decodes.

``tests/stream/golden/stride_golden.json`` holds the decodes of the
stride sweep and the stride-64 tail frames (see
:mod:`tests.stream.golden.stride`).  Every case must reproduce them
under any blocking and with the metrics registry on or off: every
frame's ``decode_fields()`` and each session's ``header_rejects`` and
``partial_at_eof``.  Every value of every case is held to the bit.
"""

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from tests.stream.golden import encode_frames
from tests.stream.golden.stride import TAIL_OFFSETS, cases, decode, load


@pytest.fixture(scope="module")
def golden():
    return load()


@pytest.fixture(scope="module")
def stride_cases():
    return cases()


def _blocks(size, cut, seed):
    if cut == "whole":
        return [size]
    if cut == "random":
        rng = np.random.default_rng(seed)
        sizes = []
        while sum(sizes) < size:
            sizes.append(int(rng.integers(1, 20000)))
        return sizes
    return [cut] * -(-size // cut)


def test_tail_frame_is_frozen(golden):
    # The stride-64 tail cases each hold one CRC-valid frame: it decodes
    # only if the final partial chunk is gated.
    for offset in TAIL_OFFSETS:
        for shape in ("wideband", "d8"):
            frames = golden[f"tail-o{offset}-{shape}"]["frames"]
            assert [row[7] for row in frames] == [True], (offset, shape)


@pytest.mark.parametrize("metered", (False, True), ids=("plain", "metered"))
@pytest.mark.parametrize("cut", ("whole", 16384, "random"))
def test_strides_and_tail_match_frozen(golden, stride_cases, cut, metered):
    assert sorted(stride_cases) == sorted(golden)
    if metered:
        REGISTRY.reset()
        REGISTRY.enable()
    try:
        for seed, (name, (samples, kwargs)) in enumerate(
            sorted(stride_cases.items())
        ):
            frames, engine = decode(
                samples, kwargs, _blocks(samples.size, cut, seed)
            )
            sessions = engine.stats()["sessions"]
            expected = golden[name]
            assert encode_frames(frames) == expected["frames"], name
            assert [
                s["header_rejects"] for s in sessions
            ] == expected["header_rejects"], name
            assert [
                s["partial_at_eof"] for s in sessions
            ] == expected["partial_at_eof"], name
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
