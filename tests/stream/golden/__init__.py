"""Golden scan fixtures: frozen decodes the stream scanner must reproduce.

``scan_golden.json`` holds, per configuration in :data:`CASES`, every
frame's ``decode_fields()`` (floats stored exactly, as ``float.hex``),
each session's ``header_rejects``, and — from a second run with the
metrics registry on — the ``decoder.preamble.*`` and ``stream.session.*``
counters and the ``decoder.preamble.coherence`` histogram.  The file was
frozen while the dense ``grouped`` reference scanner still existed and
produced exactly these values alongside the hot-index walk, so the
walk is held to that reference without the code that computed it.
The ``d4_c128`` and ``full_rate`` rows were refrozen once, when the
numpy exact front end retired and every engine moved to the native
bank: every field but the float ``coherence``/``band_power``
diagnostics and the coherence histogram's float total stayed the same.

Regenerate (only after a deliberate change to what the receiver
decodes) with::

    PYTHONPATH=src python -m tests.stream.golden.freeze
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine

PATH = Path(__file__).with_name("scan_golden.json")

#: Decimated float32 demux, the configuration the scanner was built for.
F32 = dict(demux=True, working_dtype=np.complex64)

#: Metric namespaces the scanner and the session state machine feed.
SCAN_METRICS = ("decoder.preamble.", "stream.session.")

#: Frozen configurations: which capture, the engine keywords, and the
#: block size (None: the whole capture as one block).
CASES = {
    "d4": ("demux", dict(F32, decimation=4), 65536),
    "d8": ("demux", dict(F32, decimation=8), 65536),
    "d4_c128": ("demux", dict(demux=True, decimation=4), 65536),
    "full_rate": ("demux", dict(demux=False), 9973),
    "noise_d8": ("noise", dict(F32, decimation=8), None),
}


def demux_capture():
    """25 ms of samples from three senders on channels 11/13/14."""
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.025)
    samples, truth = traffic.capture(np.random.default_rng(42))
    assert truth
    return samples


def noise_capture():
    """1 M samples of receiver noise at the capture floor, no sender."""
    traffic = StreamTraffic([StreamSender(0)], duration_s=0.05)
    return traffic.front_end.capture(
        [],
        traffic.total_samples,
        rng=np.random.default_rng(7),
        include_noise=traffic.include_noise,
    )


CAPTURES = {"demux": demux_capture, "noise": noise_capture}


def random_cuts(engine, samples, seed):
    """Decode ``samples`` pushed in random-size blocks (1..20000)."""
    cuts = np.random.default_rng(seed)
    frames = []
    lo = 0
    while lo < samples.size:
        size = int(cuts.integers(1, 20000))
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    return frames


def decode(case, samples, cut_seed=None, **engine_overrides):
    """Run ``case`` over ``samples``: ``(frames, engine)``.

    ``cut_seed`` pushes random-size blocks instead of the case's fixed
    block size.
    """
    _, kwargs, block = CASES[case]
    engine = StreamEngine(**{**kwargs, **engine_overrides})
    if cut_seed is not None:
        return random_cuts(engine, samples, cut_seed), engine
    if block is None:
        frames = engine.process_block(samples)
        frames.extend(engine.finish())
        return frames, engine
    blocks = (samples[lo : lo + block] for lo in range(0, samples.size, block))
    return engine.run(blocks), engine


def header_rejects(engine):
    """Each session's ``header_rejects``, in channel order."""
    return [s["header_rejects"] for s in engine.stats()["sessions"]]


def metered(run):
    """``run()`` with the registry on: ``(result, counters, coherence)``.

    ``counters`` keeps the :data:`SCAN_METRICS` namespaces;
    ``coherence`` is the ``decoder.preamble.coherence`` histogram.
    """
    REGISTRY.enable()
    REGISTRY.reset()
    try:
        result = run()
        snapshot = REGISTRY.snapshot()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith(SCAN_METRICS)
    }
    return result, counters, snapshot["histograms"].get(
        "decoder.preamble.coherence"
    )


def _bits(bits):
    return "".join(str(int(b)) for b in bits)


def encode_frames(frames):
    """JSON form of every frame's ``decode_fields()``, floats exact."""
    rows = []
    for frame in frames:
        (channel, n0, data_start, end, n_bits, bits, parsed, crc_ok,
         coherence, band_power) = frame.decode_fields()
        if parsed is not None:
            parsed = dict(asdict(parsed), data_bits=_bits(parsed.data_bits))
        rows.append([
            channel, n0, data_start, end, n_bits, _bits(bits), parsed,
            crc_ok, float(coherence).hex(), float(band_power).hex(),
        ])
    return rows


def encode_histogram(hist):
    """JSON form of a histogram snapshot, its float total exact."""
    if hist is None:
        return None
    return dict(hist, total=float(hist["total"]).hex())


def record(case, samples):
    """What :data:`PATH` stores for ``case``."""
    frames, engine = decode(case, samples)
    (metered_frames, _), counters, coherence = metered(
        lambda: decode(case, samples)
    )
    frames = encode_frames(frames)
    if encode_frames(metered_frames) != frames:
        raise AssertionError(f"{case}: registry-on frames differ")
    return {
        "frames": frames,
        "header_rejects": header_rejects(engine),
        "counters": counters,
        "coherence": encode_histogram(coherence),
    }


def load():
    """The frozen fixtures, keyed by case name."""
    return json.loads(PATH.read_text())
