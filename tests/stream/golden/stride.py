"""Frozen scan-stride and stream-tail decodes: ``stride_golden.json``.

The scan stride decides how much of a stream's end is left over once
the last full scan chunk is gated: ``stride + span + window`` products
make a full chunk, so the tail the session gates at end-of-stream
grows with ``scan_stride_bits``.  At the default 8 bits a capture found
in the tail can never finish its header, but a gateway ``hello`` may
set the stride up to 64 bits, and then a whole frame fits in the tail.

Two families of cases, each recording every frame's ``decode_fields()``
and each session's ``header_rejects`` and ``partial_at_eof``:

* ``sweep``: seeds 0-5, one channel-13 sender, 10 ms, at every stride
  in :data:`STRIDES`, wideband and demux decimation-8 complex64;
* ``tail``: one 8-bit frame whose capture is cut 200 samples after its
  end, at offsets that put its preamble inside the stride-64 tail, so
  the frame decodes only if the tail is gated.

Frozen from the receiver whose end-of-stream tail went through the
batch ``capture_preamble``, before the native walk took the tail over.
Regenerate (only after a deliberate change to what the receiver
decodes) with::

    PYTHONPATH=src python -m tests.stream.golden.stride
"""

import json
from pathlib import Path

import numpy as np

from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine
from tests.stream.golden import encode_frames

PATH = Path(__file__).with_name("stride_golden.json")

#: Scan strides, in bits: the default and up to the gateway's limit.
STRIDES = (8, 24, 48, 64)
SEEDS = tuple(range(6))
#: Engine keywords by shape name.
SHAPES = {
    "wideband": dict(demux=False),
    "d8": dict(demux=True, decimation=8, working_dtype=np.complex64),
}
#: Products of lead before the tail frame's end, past the 60000 kept.
TAIL_OFFSETS = (15360, 17920, 20480, 23040)


def sweep_capture(seed):
    """10 ms of one channel-13 sender's traffic, seeded."""
    traffic = StreamTraffic(
        [StreamSender(0, zigbee_channel=13)], duration_s=0.01
    )
    samples, _ = traffic.capture(np.random.default_rng(seed))
    return samples


def tail_capture(offset):
    """Seed 0's first 8-bit frame, cut to end 200 samples after it."""
    traffic = StreamTraffic(
        [StreamSender(0, zigbee_channel=13, data_bits=8)], duration_s=0.01
    )
    samples, truth = traffic.capture(np.random.default_rng(0))
    end = truth[0].end_sample
    return samples[end - 60000 - offset : end + 200]


def cases():
    """``{name: (samples, engine keywords)}`` for every frozen case."""
    out = {}
    for seed in SEEDS:
        samples = sweep_capture(seed)
        for stride in STRIDES:
            for shape, kwargs in SHAPES.items():
                out[f"sweep-s{seed}-b{stride}-{shape}"] = (
                    samples, dict(kwargs, scan_stride_bits=stride)
                )
    for offset in TAIL_OFFSETS:
        samples = tail_capture(offset)
        for shape, kwargs in SHAPES.items():
            out[f"tail-o{offset}-{shape}"] = (
                samples, dict(kwargs, scan_stride_bits=64)
            )
    return out


def decode(samples, kwargs, blocks):
    """``(frames, engine)`` after pushing ``blocks`` (a list of sizes)."""
    engine = StreamEngine(**kwargs)
    frames = []
    lo = 0
    for size in blocks:
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    return frames, engine


def record(frames, engine):
    """What :data:`PATH` stores for one decode."""
    sessions = engine.stats()["sessions"]
    return {
        "frames": encode_frames(frames),
        "header_rejects": [s["header_rejects"] for s in sessions],
        "partial_at_eof": [s["partial_at_eof"] for s in sessions],
    }


def main():
    golden = {
        name: record(*decode(samples, kwargs, [samples.size]))
        for name, (samples, kwargs) in cases().items()
    }
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(
        f"{len(golden)} cases, "
        f"{sum(len(entry['frames']) for entry in golden.values())} frames"
    )


def load():
    """The frozen stride/tail decodes, keyed by case name."""
    return json.loads(PATH.read_text())


if __name__ == "__main__":
    main()
