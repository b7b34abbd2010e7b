"""Scan strides and the stream tail against their frozen decodes.

``tests/stream/golden/stride_golden.json`` holds the decodes of the
stride sweep and the stride-64 tail frames (see
:mod:`tests.stream.golden.stride`).  Every case must reproduce them
under any blocking and with the metrics registry on or off: every
frame's ``decode_fields()`` and each session's ``header_rejects`` and
``partial_at_eof``.

One column has a named exception.  The fixture was frozen while the
tail went through the batch ``capture_preamble`` in float64 direct
sums; the walk now gates the tail from the prefix caches, in the
working dtype like every full chunk, so the ``coherence`` of a frame
captured in the tail (the four wideband tail frames) moved in its last
bits.  Those four are held to a relative 1e-12 instead of bit equality;
every other value of every case is exact.
"""

import math

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from tests.stream.golden import encode_frames
from tests.stream.golden.stride import TAIL_OFFSETS, cases, decode, load

#: Cases whose frame was captured in the tail by a complex128 session.
TAIL_CAPTURES = {f"tail-o{offset}-wideband" for offset in TAIL_OFFSETS}
#: ``coherence``'s column in an encoded frame (a ``float.hex`` string).
COHERENCE = 8


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


def _same_frames(got, want, name):
    """Encoded frames equal, a tail capture's coherence to 1e-12."""
    if name not in TAIL_CAPTURES:
        return got == want
    drop = [row[:COHERENCE] + row[COHERENCE + 1 :] for row in got]
    keep = [row[:COHERENCE] + row[COHERENCE + 1 :] for row in want]
    return drop == keep and all(
        math.isclose(
            float.fromhex(a[COHERENCE]),
            float.fromhex(b[COHERENCE]),
            rel_tol=1e-12,
        )
        for a, b in zip(got, want)
    )


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
            assert _same_frames(
                encode_frames(frames), expected["frames"], name
            ), name
            assert [
                s["header_rejects"] for s in sessions
            ] == expected["header_rejects"], name
            assert [
                s["partial_at_eof"] for s in sessions
            ] == expected["partial_at_eof"], name
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
