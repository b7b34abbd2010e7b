"""Stream workloads: ``idle`` listening on pure noise, and a 3-sender ``demux``.

Both run the serial headline receiver -- a 4-session demux at
decimation 8 with fast kernels, complex64 and the batched scan -- over
131072-sample blocks, with a fresh engine for every pass.

* ``idle``: 5 M samples (0.25 s of stream) of noise at the capture
  floor.  The receiver spends most of its life here, so this is where
  the channelizer bank, lagged products, derived caches and scan carry
  the time; noise trips the header gate hundreds of times per session
  per pass while body decode, arbitration and reassembly idle.  Closed
  loop; each ``process_block`` call is one request.
* ``demux``: eight 5 M-sample captures of three senders on ZigBee
  channels 11/13/14 every ~8 ms, ~92 frames each -- the decode-heavy
  counterpart, where body decode, CRC and leak arbitration run.  Phase A
  is a closed loop for throughput.  Phase B paces blocks open-loop at
  5 Msps (a block is due when its last sample would have arrived) and
  times each frame from when its last sample was due to when the engine
  returned it.  The pace is a quarter of the 20 Msps radio rate because
  serial demux runs at 15-19 Msps on a quiet 2-CPU host and at ~10 Msps
  when other tenants of a shared host slow it down; at 10 Msps a third
  to most of the blocks were then handed over late, and latency measured
  a growing backlog instead of the receiver.  Each phase-B pass cuts its
  first block at a different length, so frames land at new positions
  within their blocks and the latency distribution does not hinge on one
  capture's block alignment; the engine is block-size invariant, so
  every pass still decodes the identical frames.

Inputs come from ``--seed`` and are rendered by a separate
process (:func:`build_inputs`), so synthesis memory never shows up in
the measured process's peak RSS.

Every capture is one the headline receiver decodes without error.  With
frames on the air ~90 % of the time, about one demux capture in a
hundred holds a frame the receiver misses (it starts while another
channel's frame is on the air, and the earlier frame's CRC-valid leak
copy shadows it) or a CRC-valid frame decoded out of noise; such a draw
is replaced by the next one (:func:`render`).  For the seeds in
``screened.json`` the replaced draws are listed there, so those inputs
do not depend on the code being measured and a receiver that errs where
this one did not shows as failed operations.
"""

import json
import time
from pathlib import Path

import numpy as np

import repro.stream.engine as engine_module
from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream.engine import StreamEngine
from repro.stream.frontend import (
    ChannelizerFrontEnd,
    FastChannelBank,
    StreamingFrontEnd,
)
from repro.stream.session import StreamSession

from benchmarks.ledger.common import (
    Outcome,
    digest,
    end_to_end,
    golden,
    median,
    median_metrics,
    passes,
    percentile,
)
from benchmarks.ledger.spans import SpanLedger, recording

SAMPLE_RATE = 20e6
SAMPLES = 5_000_000
BLOCK = 131072
ENGINE = {
    "demux": True,
    "decimation": 8,
    "mode": "fast",
    "working_dtype": "complex64",
    "scan_kernel": "batched",
}
#: (ZigBee channel, mean reading interval) per demux sender.
SENDERS = ((11, 0.008), (13, 0.008), (14, 0.008))
#: Distinct captures per workload, decoded in turn.  Decode work and
#: frame latency depend on where frames fall and how they overlap, so a
#: single 5 M-sample demux capture (~90 frames) makes the numbers a
#: property of the seed; eight captures average that out.  Noise has no
#: such structure, so ``idle`` needs one.
CAPTURES = {"idle": 1, "demux": 8}
#: Scheduled demux frames per input sample.  Poisson arrivals put 75 to
#: 111 frames into 5 M samples depending on the seed (median 92), and
#: decode work follows the count; the renderer redraws the schedule until
#: the count is within 5 % of this rate, so every capture offers the
#: same work while positions, overlaps, payloads and noise still vary.
FRAMES_PER_SAMPLE = 92 / SAMPLES
_MAX_DRAWS = 1000
#: Second element of every capture's RNG key.
_KIND = {"idle": 0, "demux": 1}
#: Draws the receiver errs on, per workload, for the seeds listed there
#: (written by ``screen.py``).
SCREENED = Path(__file__).resolve().parent / "screened.json"
#: Draws decoded and replaced for a receiver error on a seed
#: ``screened.json`` does not cover.  Past them the draw is kept and its
#: errors count as failed operations, so a receiver that errs on most
#: captures is reported instead of searched around.
RECEIVER_REDRAWS = 3
#: Phase-B open-loop pace (samples per second).
PACED_RATE = 5e6
#: A paced block handed over later than this past due counts as late.
LATE_S = 1e-3
#: Share of the demux budget spent on phase A (the rest is phase B).  A
#: paced pass takes 1 s, so phase B gets most of the budget: enough
#: passes to visit all eight captures.
PHASE_A_SHARE = 0.3
#: Untraced passes per traced pass in a trace run.
UNTRACED_PER_TRACED = 2

#: Per-layer seconds: metric -> span names whose self times it sums.
STREAM_LAYERS = {
    "stream.frontend.bank_s": ("stream.frontend.bank",),
    "stream.frontend.channelizer_s": ("stream.frontend.channelizer",),
    "stream.frontend.lagged_s": ("stream.frontend.lagged",),
    "dsp.kernels.cmul_s": ("dsp.kernels.cmul",),
    "stream.session.derive_s": ("stream.session",),
    "stream.session.scan_s": ("stream.session.scan",),
    "stream.session.header_s": ("stream.session.header",),
    "stream.session.body_s": ("stream.session.body",),
    # Engine wrapper self time is the dtype conversion before the
    # program's own stream.block span; stream.block/finish self time is
    # leak arbitration and per-block bookkeeping.
    "stream.engine.self_s": ("stream.engine", "stream.block", "stream.finish"),
}

#: Counters the traced passes read off the program (stream and gateway).
_COUNTERS = (
    "header_rejects",
    "crc_failures",
    "frames_emitted",
    "leak_suppressed",
    "products_out",
    "fragments_accepted",
    "messages_completed",
)


def new_counts():
    return dict.fromkeys(_COUNTERS, 0)


def stream_patches(counts):
    """Wrappers for every stream layer; counters land in ``counts``."""

    def engine_finished(args, _frames):
        engine = args[0]
        for session in engine.stats()["sessions"]:
            for key in ("header_rejects", "crc_failures", "frames_emitted"):
                counts[key] += session[key]
        counts["leak_suppressed"] += engine.frames_suppressed

    def products(_args, fe_block):
        counts["products_out"] += int(fe_block.products.size)

    return [
        (StreamEngine, "process_block", "stream.engine"),
        (StreamEngine, "finish", "stream.engine", engine_finished),
        (FastChannelBank, "process_block", "stream.frontend.bank"),
        (FastChannelBank, "flush", "stream.frontend.bank"),
        (ChannelizerFrontEnd, "process", "stream.frontend.channelizer"),
        (ChannelizerFrontEnd, "flush", "stream.frontend.channelizer"),
        (StreamingFrontEnd, "process", "stream.frontend.lagged", products),
        (engine_module, "cmul", "dsp.kernels.cmul"),
        (StreamSession, "push_products", "stream.session"),
        (StreamSession, "finish", "stream.session"),
    ]


def stream_layer_metrics(ledger, counts):
    metrics = {
        name: ledger.total(*spans) for name, spans in STREAM_LAYERS.items()
    }
    for key in ("header_rejects", "crc_failures", "frames_emitted"):
        metrics[f"stream.session.{key}"] = counts[key]
    captures = counts["frames_emitted"] + counts["header_rejects"]
    crc_valid = counts["frames_emitted"] - counts["crc_failures"]
    metrics["stream.session.capture_yield"] = (
        crc_valid / captures if captures else 0.0
    )
    metrics["stream.engine.leak_suppressed"] = counts["leak_suppressed"]
    metrics["stream.frontend.products_out"] = counts["products_out"]
    return metrics


def frame_identity(frames):
    return [f.decode_fields() for f in frames]


def crc_multiset(frames):
    return sorted(
        (f.zigbee_channel, list(f.bits)) for f in frames if f.crc_ok
    )


def truth_queues(truth):
    """``(channel, bits) -> [end sample, ...]`` of the scheduled frames."""
    queues = {}
    for channel, bits, end in truth:
        queues.setdefault((channel, bits), []).append(end)
    return queues


def match(queues, frame):
    """End sample of the scheduled frame this decode matches, or None."""
    if not frame.crc_ok:
        return None
    queue = queues.get((frame.zigbee_channel, tuple(frame.bits)))
    return queue.pop(0) if queue else None


def receiver_errors(frames, truth):
    """Scheduled frames missed plus CRC-valid frames nobody sent."""
    queues = truth_queues(truth)
    matched = sum(1 for f in frames if match(queues, f) is not None)
    valid = sum(1 for f in frames if f.crc_ok)
    return len(truth) - matched, valid - matched


def decode(samples):
    """The headline receiver over one capture in :data:`BLOCK` blocks."""
    engine = StreamEngine(**ENGINE)
    frames = []
    for lo in range(0, samples.size, BLOCK):
        frames.extend(engine.process_block(samples[lo : lo + BLOCK]))
    frames.extend(engine.finish())
    return frames


def screened_draws(name, seed, size):
    """``{capture: draws the receiver errs on}`` from ``screened.json``.

    None when the file does not cover this seed and size.
    """
    data = json.loads(SCREENED.read_text())
    if size != data["size"] or not any(
        lo <= seed < hi for lo, hi in data["seeds"]
    ):
        return None
    bad = {}
    for screened_seed, index, draw in data[name]:
        if screened_seed == seed:
            bad.setdefault(index, set()).add(draw)
    return bad


def render(name, seed, index, size, known_bad=None, redraws=RECEIVER_REDRAWS):
    """Capture ``index`` of a workload: ``(samples, truth, replaced draws)``.

    Draw ``d`` renders from the RNG key ``[seed, kind, index, d]``; the
    first draw that qualifies is the capture.  A demux draw qualifies
    when its frame count is within 5 % of :data:`FRAMES_PER_SAMPLE`, and
    any draw only if the receiver decodes it without error: judged from
    ``known_bad`` (a set of draws) when given, else by decoding it, for at
    most ``redraws`` replaced draws.  ``truth`` lists ``(channel, frame
    bits, end sample)`` per scheduled frame.
    """
    if name == "idle":
        senders = [StreamSender(0)]
    else:
        senders = [
            StreamSender(i, zigbee_channel=channel, reading_interval_s=gap)
            for i, (channel, gap) in enumerate(SENDERS)
        ]
    traffic = StreamTraffic(senders, duration_s=size / SAMPLE_RATE)
    centre = size * FRAMES_PER_SAMPLE
    replaced = []
    for draw in range(_MAX_DRAWS):
        rng = np.random.default_rng([seed, _KIND[name], index, draw])
        if name == "idle":
            records, contributions = [], []
        else:
            records, contributions = traffic.schedule(rng)
            if abs(len(records) - centre) > max(1.0, 0.05 * centre):
                continue
        samples = traffic.front_end.capture(
            contributions,
            traffic.total_samples,
            rng=rng,
            include_noise=traffic.include_noise,
        )
        truth = [
            (r.zigbee_channel, tuple(r.frame_bits), r.end_sample)
            for r in records
        ]
        if known_bad is not None:
            errs = draw in known_bad
        else:
            errs = len(replaced) < redraws and any(
                receiver_errors(decode(samples), truth)
            )
        if not errs:
            return samples, truth, replaced
        replaced.append(draw)
    raise RuntimeError(f"no {name} capture {index} qualifies for seed {seed}")


def build_inputs(name, seed, size, directory):
    """Render the workload's captures (+ ground truth) into ``directory``."""
    known_bad = screened_draws(name, seed, size)
    for index in range(CAPTURES[name]):
        samples, truth, _ = render(
            name, seed, index, size,
            known_bad=None if known_bad is None else known_bad.get(index, ()),
        )
        np.save(directory / f"samples-{index}.npy", samples)
        (directory / f"truth-{index}.json").write_text(json.dumps(truth))


class StreamWorkload:
    """``idle`` or ``demux`` over captures rendered by :func:`build_inputs`.

    Pass ``i`` decodes capture ``i % CAPTURES[name]``; only one capture
    is held in memory at a time.
    """

    def __init__(self, name, seed, work, size=SAMPLES):
        if name not in CAPTURES:
            raise ValueError(f"not a stream workload: {name!r}")
        self.name = name
        self.seed = int(seed)
        self.work = work
        self.size = int(size)
        #: Golden CRC-multiset digest per capture, or None.
        self.expected = golden(name, self.seed, self.size)
        self.loaded = None
        self.samples = None
        self.truth = None

    def build_inputs(self):
        build_inputs(self.name, self.seed, self.size, self.work)

    def setup(self, t0):
        """Ready for input: imports done and an engine constructed."""
        StreamEngine(**ENGINE)
        return time.monotonic() - t0

    def close(self):
        pass

    def _use(self, index):
        """Load capture ``index % CAPTURES`` (outside any timing)."""
        index %= CAPTURES[self.name]
        if index == self.loaded:
            return
        self.samples = None  # drop the previous capture before loading
        self.samples = np.load(self.work / f"samples-{index}.npy")
        self.truth = [
            (channel, tuple(bits), end)
            for channel, bits, end in json.loads(
                (self.work / f"truth-{index}.json").read_text()
            )
        ]
        self.loaded = index

    # -- passes ------------------------------------------------------------

    def _blocks(self, first=BLOCK):
        """The capture cut into blocks, the first one ``first`` long."""
        samples = self.samples
        return [samples[:first]] + [
            samples[lo : lo + BLOCK] for lo in range(first, samples.size, BLOCK)
        ]

    def _closed_pass(self, block_times=None):
        """One closed-loop pass; returns (wall seconds, frames)."""
        engine = StreamEngine(**ENGINE)
        frames = []
        blocks = self._blocks()
        clock = time.perf_counter
        started = clock()
        for block in blocks:
            before = clock()
            frames.extend(engine.process_block(block))
            if block_times is not None:
                block_times.append(clock() - before)
        frames.extend(engine.finish())
        return clock() - started, frames

    def _paced_pass(self, index, latencies, lateness):
        """Open-loop pass ``index`` at :data:`PACED_RATE`; returns frames.

        Each matched frame adds ``(paced_s, compute_s)`` to
        ``latencies``: from its last sample's due time to the due time
        of the block whose call returned it (set by the pacing), then
        from that due time to the return (compute, including any
        lateness of the handover).
        """
        first = 1 + int(index * 0.6180339887498949 * BLOCK) % BLOCK
        engine = StreamEngine(**ENGINE)
        blocks = self._blocks(first)
        released = []
        clock = time.perf_counter
        started = clock()
        due_samples = 0
        for block in blocks:
            due_samples += block.size
            due = started + due_samples / PACED_RATE
            now = clock()
            if now < due:
                time.sleep(due - now)
                now = clock()
            lateness.append(now - due)
            frames = engine.process_block(block)
            released.append((due_samples, clock() - due, frames))
        frames = engine.finish()
        released.append((due_samples, clock() - due, frames))
        pending = truth_queues(self.truth)
        for due_at, compute_s, frames in released:
            for frame in frames:
                end = match(pending, frame)
                if end is not None:
                    paced_s = (due_at - end) / PACED_RATE
                    latencies.append((paced_s, compute_s))
        return [f for _, _, frames in released for f in frames]

    def _score(self, frames, outcome, reference):
        """Check one pass's frames against truth, golden and earlier passes.

        The engine is block-size invariant, so every pass over a capture
        must decode the same frames however its blocks were cut.
        """
        index = self.loaded
        missed, unscheduled = receiver_errors(frames, self.truth)
        if self.name == "idle":
            # One operation per pass: listen and report nothing.
            outcome.check(1, int(unscheduled > 0),
                          "idle passes with CRC-valid frames")
            identity = frame_identity(frames)
            changed = reference.setdefault(index, identity) != identity
            outcome.check(0, int(changed), "idle passes whose frames changed",
                          wrong=True)
            return
        outcome.check(len(self.truth), missed, "scheduled frames missed")
        outcome.check(0, unscheduled, "CRC-valid frames not scheduled")
        pass_digest = digest(crc_multiset(frames))
        expected = reference.setdefault(
            index, self.expected[index] if self.expected else pass_digest
        )
        outcome.check(0, int(pass_digest != expected),
                      "CRC multiset digest mismatches", wrong=True)

    # -- entry points ------------------------------------------------------

    def measure(self, seconds):
        """Untraced run: end-to-end metrics."""
        outcome = Outcome()
        reference = {}
        walls, latencies, lateness = [], [], []
        closed_s = seconds * (PHASE_A_SHARE if self.name == "demux" else 1.0)
        for index, factor in passes(closed_s, probe=True):
            self._use(index)
            block_times = []
            wall, frames = self._closed_pass(block_times)
            walls.append((wall, factor))
            if self.name == "idle":
                latencies.append(([(0.0, t) for t in block_times], factor))
            self._score(frames, outcome, reference)
        if self.name == "demux":
            for index, factor in passes(seconds - closed_s, probe=True):
                self._use(index)
                frame_latencies = []
                frames = self._paced_pass(index, frame_latencies, lateness)
                latencies.append((frame_latencies, factor))
                self._score(frames, outcome, reference)
        metrics, raw, factor = end_to_end(self.size, walls, latencies)
        info = {
            "closed_passes": len(walls),
            "latency_passes": len(latencies),
            "latency_samples": sum(len(s) for s, _ in latencies),
            "latency_kind": "block" if self.name == "idle" else "frame",
            "digest": [reference.get(i) for i in range(CAPTURES[self.name])]
            if self.name == "demux" else None,
        }
        if lateness:
            info["paced_late_share"] = _late_share(lateness)
        return outcome.result(
            metrics, info, raw_metrics=raw, speed_factor=factor
        )

    def trace(self, seconds, setup_ledger=None):
        """Traced run: per-layer metrics and the tracing overhead.

        Passes come in groups of :data:`UNTRACED_PER_TRACED` untraced and
        one traced pass over the same capture, so every traced pass is
        checked against untraced frames of its own input.
        """
        outcome = Outcome()
        reference, untraced_frames = {}, {}
        untraced, traced, block_times, per_pass = [], [], [], []
        group = UNTRACED_PER_TRACED + 1
        closed_s = seconds * (PHASE_A_SHARE if self.name == "demux" else 1.0)
        for index, _ in passes(closed_s, minimum=group):
            self._use(index // group)
            if index % group < UNTRACED_PER_TRACED:
                wall, frames = self._closed_pass(block_times)
                untraced.append(wall)
                self._score(frames, outcome, reference)
                untraced_frames[self.loaded] = frame_identity(frames)
                continue
            ledger, counts = SpanLedger(), new_counts()
            with recording(ledger, stream_patches(counts)):
                wall, frames = self._closed_pass()
            traced.append(wall)
            changed = frame_identity(frames) != untraced_frames[self.loaded]
            outcome.check(0, int(changed),
                          "traced passes whose frames differ from untraced",
                          wrong=True)
            per_pass.append(stream_layer_metrics(ledger, counts))
        metrics = median_metrics(per_pass)
        metrics["stream.engine.block_p50_ms"] = 1e3 * percentile(block_times, 50)
        metrics["stream.engine.block_p99_ms"] = 1e3 * percentile(block_times, 99)
        metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
        if self.name == "demux":
            lateness = []
            for index, _ in passes(seconds - closed_s):
                self._use(index)
                frames = self._paced_pass(index, [], lateness)
                self._score(frames, outcome, reference)
            metrics["loadgen.late_share"] = _late_share(lateness)
            metrics["loadgen.late_max_ms"] = 1e3 * max(lateness)
        info = {
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "block_samples": len(block_times),
        }
        return outcome.result(metrics, info)


def _late_share(lateness):
    return sum(1 for late in lateness if late > LATE_S) / len(lateness)
