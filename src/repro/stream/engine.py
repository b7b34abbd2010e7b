"""The continuously-listening receive engine: one front end + sessions.

One :class:`StreamEngine` owns one
:class:`repro.stream.frontend.FastChannelBank` (the front end: every
decoded channel's products in one native call per block) and, per
decoded ZigBee channel, a :class:`repro.stream.session.StreamSession`
(frames), and feeds every incoming sample block through them.  Two
shapes:

* **wideband** (default): one session decoding the whole 20 MHz capture
  directly — the batch :class:`repro.core.SymBeeLink` receive path,
  restructured to run block-by-block.  Its bank has one channel at
  decimation 1 with a 1-tap identity filter, and the bank's product
  rotation ``exp(j 2 pi f lag / fs)`` for the reference ZigBee channel
  is the Appendix-B CFO correction.
* **demux**: one bank channel + session per overlapping ZigBee channel,
  so concurrent senders on different channels decode from the same
  stream.  Wideband sessions cannot do this: every overlapping pair's
  CFO correction wraps to the same +4pi/5 (the Appendix-B constant), so
  in the product domain the channels are rotationally
  indistinguishable — separation must happen in the sample domain,
  before the autocorrelation.

The engine takes only the settings some caller sets.  Two of them
shape the front end:

* ``decimation`` (demux only, default 1) — each sub-band is decimated
  inside the channelizer; every session-side quantity (lag, window,
  bit period, vote taus) scales through the decimation-aware
  :class:`repro.core.decoder.SymBeeDecoder`.  The factor must divide
  the lag (16 at 20 Msps) and the bit period, and past 8 the vote
  window leaves too few plateau positions, so 1, 2, 4 or 8; decimation
  8 is the headline config.
* ``working_dtype`` — complex128 (default) or complex64, the precision
  the bank and the sessions compute in.

Everything else is fixed: the 20 Msps WiFi sample rate, the demux
channelizer (:data:`DEMUX_NTAPS` taps cut at :data:`DEMUX_CUTOFF_HZ`;
one identity tap for wideband), the decoder's default vote taus and the
capture floor derived from the filter length.  The taus stay settable
on :class:`~repro.core.decoder.SymBeeDecoder`,
:class:`~repro.stream.session.StreamSession` and
:class:`repro.core.link.SymBeeLink`, where Fig 22 and the session tests
set them.

The bank's arithmetic is fixed (correctly rounded FMAs in one order),
so the products — and with them the frames — are the same bits on every
host and for any blocking.

The engine is one serial pass per block, the way a WiFi receiver's
idle-listening autocorrelation runs.  Parallelism lives at coarser
grain: independent trials (:func:`repro.runtime.run_trials`) and
independent gateway processes.

Use :func:`batch_decode_stream` as the one-shot reference: it runs the
identical engine over the whole capture as a single block, which is what
the block-size-invariance guarantee is measured against.
"""

import time

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.core.decoder import SymBeeDecoder
from repro.core.phase import cfo_compensation_phase

# The perf ledger (benchmarks/ledger) wraps this module attribute by
# name; nothing here calls it.
from repro.dsp.kernels import exact_cmul as cmul  # noqa: F401
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.stream.frontend import FastChannelBank
from repro.stream.session import StreamSession
from repro.zigbee.channels import (
    frequency_offset_hz,
    overlapping_zigbee_channels,
)

_BLOCKS = REGISTRY.counter("stream.engine.blocks")
_SAMPLES = REGISTRY.counter("stream.engine.samples_in")
_FRAMES = REGISTRY.counter("stream.engine.frames")
_SUPPRESSED = REGISTRY.counter("stream.engine.leak_suppressed")
#: Wall-clock health signal: seconds per engine block (timing is
#: run-dependent, so ``stream.health.*`` is outside every identity
#: contract).
_BLOCK_SECONDS = REGISTRY.histogram(
    "stream.health.block_seconds",
    edges=(0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0),
)
#: Stream-time over wall-time per block — >= 1.0 means the decode is
#: holding the input's realtime line.
_MARGIN = REGISTRY.gauge("stream.realtime_margin")

#: Default demux channelizer: short enough to keep most of the 84-sample
#: plateau (an ``ntaps``-tap FIR costs ``ntaps - 1`` plateau samples),
#: wide enough to pass the 2 MHz ZigBee main lobe.
DEMUX_NTAPS = 21
DEMUX_CUTOFF_HZ = 1.4e6


class StreamEngine:
    """Block-by-block SymBee receiver over an unbounded sample stream."""

    #: The WiFi receiver's 20 MHz sampling; every caller streams at it.
    sample_rate = WIFI_SAMPLE_RATE_20MHZ

    def __init__(
        self,
        wifi_channel=1,
        zigbee_channels=None,
        demux=False,
        scan_stride_bits=8,
        decimation=1,
        working_dtype=None,
        mode="fast",
        scan_kernel="batched",
    ):
        """Build the bank and one session per decoded channel.

        ``scan_stride_bits`` stays settable because
        ``tests/stream/golden/stride.py`` freezes the only full-frame
        test of the walk's end-of-stream tail with it.  ``mode`` and
        ``scan_kernel`` each accept one value; they stay because the
        perf ledger's engine configs pass them.
        """
        self.wifi_channel = wifi_channel
        self.demux = bool(demux)
        self.decimation = int(decimation)
        if mode != "fast":
            raise ValueError(f"unknown kernel mode {mode!r}; expected 'fast'")
        if scan_kernel != "batched":
            raise ValueError(
                f"unknown scan kernel {scan_kernel!r}; expected 'batched'"
            )
        self.working_dtype = np.dtype(
            np.complex128 if working_dtype is None else working_dtype
        )
        if not self.demux and self.decimation != 1:
            raise ValueError(
                "decimation requires demux=True: the wideband path has no "
                "channelizer, so there is no anti-alias filter to decimate "
                "behind"
            )
        lag = int(round(self.sample_rate * 0.8e-6))
        if zigbee_channels is None:
            channels = (
                overlapping_zigbee_channels(wifi_channel) if demux else [13]
            )
        else:
            channels = list(zigbee_channels)
        if not channels:
            raise ValueError("no ZigBee channels to decode")
        if not demux and len(channels) > 1:
            raise ValueError(
                "wideband mode decodes one reference channel: every "
                "overlapping pair's CFO correction wraps to the same "
                "+4pi/5 (Appendix B), so wideband sessions cannot tell "
                "channels apart — use demux=True"
            )
        offsets = [frequency_offset_hz(ch, wifi_channel) for ch in channels]
        # Wideband uses the identity filter: the bank's product rotation
        # is then the Appendix-B CFO correction for the reference channel.
        ntaps = DEMUX_NTAPS if demux else 1
        self._bank = FastChannelBank(
            offsets,
            self.sample_rate,
            lag,
            ntaps=ntaps,
            cutoff_hz=DEMUX_CUTOFF_HZ,
            decimation=self.decimation,
            working_dtype=self.working_dtype,
        )
        self._sessions = []
        for channel, offset in zip(channels, offsets):
            if demux:
                # The channelized stream sits at its own baseband: the
                # bank's constant mixer rotation puts the plateaus at
                # +-4pi/5, so the decoder needs no CFO correction.
                decoder = SymBeeDecoder(
                    sample_rate=self.sample_rate,
                    cfo_correction=None,
                    decimation=self.decimation,
                )
                # The FIR eats ntaps - 1 plateau samples, so the capture
                # count floor must drop by as much (plus edge margin) —
                # in decimated-output units, rounded up so the floor is
                # never optimistic.
                capture_tau = min(
                    -(-(ntaps - 1 + 8) // self.decimation),
                    decoder.window // 2 - 1,
                )
            else:
                # The bank applies the CFO rotation; the decoder's
                # correction still sets the session's zero-product fill.
                decoder = SymBeeDecoder(
                    sample_rate=self.sample_rate,
                    cfo_correction=cfo_compensation_phase(
                        offset, lag, self.sample_rate
                    ),
                )
                capture_tau = None
            self._sessions.append(
                StreamSession(
                    decoder,
                    zigbee_channel=channel,
                    scan_stride_bits=scan_stride_bits,
                    capture_tau=capture_tau,
                    dtype=self.working_dtype,
                )
            )
        self.blocks_in = 0
        self.samples_in = 0
        self.frames_out = 0
        self.frames_suppressed = 0
        #: Emitted frames awaiting cross-session leak arbitration.
        self._pending = []

    @property
    def zigbee_channels(self):
        return [session.zigbee_channel for session in self._sessions]

    @property
    def sessions(self):
        return list(self._sessions)

    def process_block(self, block):
        """Feed one sample block to every channel; return decoded frames."""
        metered = REGISTRY.enabled
        if metered:
            t0 = time.perf_counter()
        # The bank reads the block in place, rounding as it goes.
        block = np.asarray(block)
        with TRACER.span("stream.block", samples=int(block.size)):
            self._push(self._bank.process_block(block))
            frames = self._release(final=False)
        self.blocks_in += 1
        self.samples_in += int(block.size)
        self.frames_out += len(frames)
        _BLOCKS.inc()
        _SAMPLES.inc(int(block.size))
        if frames:
            _FRAMES.inc(len(frames))
        if metered:
            elapsed = time.perf_counter() - t0
            _BLOCK_SECONDS.observe(elapsed)
            if elapsed > 0 and block.size:
                _MARGIN.set((block.size / self.sample_rate) / elapsed)
        return frames

    def finish(self):
        """Flush every front end and session at end-of-stream."""
        with TRACER.span("stream.finish"):
            self._push(self._bank.flush())
            for session in self._sessions:
                self._pending.extend(session.finish())
            frames = self._release(final=True)
        self.frames_out += len(frames)
        if frames:
            _FRAMES.inc(len(frames))
        return frames

    def _push(self, fe_blocks):
        """Hand each channel's new products to its session."""
        for session, fe_block in zip(self._sessions, fe_blocks):
            self._pending.extend(session.push_products(fe_block.products))

    def _release(self, final):
        """Release the pending frames whose arbitration is final.

        Held until every session's :attr:`StreamSession.horizon` has
        passed them (see :func:`arbitrate`); the whole pool on ``final``.
        """
        if not self._pending:
            return []
        horizon = None if final else min(s.horizon for s in self._sessions)
        released, self._pending, suppressed = arbitrate(
            self._pending, horizon
        )
        if suppressed:
            self.frames_suppressed += suppressed
            _SUPPRESSED.inc(suppressed)
        return released

    def run(self, blocks, collector=None):
        """Decode every block of an iterable, then finish.

        ``collector`` (a :class:`repro.obs.live.LiveCollector`) is
        offered a tick after every block.  The caller finalizes the
        collector after :meth:`run` returns, which is what makes the
        last sample's cumulative totals equal the end-of-run registry
        snapshot.
        """
        frames = []
        for block in blocks:
            frames.extend(self.process_block(block))
            if collector is not None:
                collector.maybe_tick()
        frames.extend(self.finish())
        return frames

    def stats(self):
        return {
            "mode": "demux" if self.demux else "wideband",
            "decimation": self.decimation,
            "blocks_in": self.blocks_in,
            "samples_in": self.samples_in,
            "frames_out": self.frames_out,
            "sessions": [session.stats() for session in self._sessions],
        }


def arbitrate(pending, horizon=None):
    """Cross-session leak arbitration over a pool of pending frames.

    Adjacent sub-bands alias onto the same product phase (their 5 MHz
    spacing is a multiple of ``fs / lag``), so a strong sender also
    decodes — attenuated but otherwise faithful — on neighbouring idle
    sessions.  Among time-overlapping frames carrying *identical bits*
    on different sessions, only the strongest ``band_power`` copy
    survives (ties break toward the lower channel number, keeping the
    decision deterministic).

    One sweep in ``preamble_index`` order cuts the pool into
    overlap-connected groups: a group ends where the next frame starts
    at or past the group's largest ``end_index``.  A group is decided
    only when every member ends before ``horizon`` (no session can
    still emit a frame overlapping it); otherwise the whole group is
    held.  ``horizon=None`` decides every group.  Arbitration only
    compares frames within one group, so deciding per block and
    deciding once over the whole stream agree.

    Returns ``(released, held, suppressed)``: the surviving frames
    sorted by stream position, the frames still held, and how many
    leak copies were dropped.
    """
    released, held, suppressed = [], [], 0
    for group in _overlap_groups(pending):
        if horizon is not None and (
            max(frame.end_index for frame in group) >= horizon
        ):
            held.extend(group)
            continue
        for frame in group:
            key = (frame.band_power, -frame.zigbee_channel)
            if any(
                other.zigbee_channel != frame.zigbee_channel
                and other.bits == frame.bits
                and other.preamble_index < frame.end_index
                and frame.preamble_index < other.end_index
                and (other.band_power, -other.zigbee_channel) > key
                for other in group
            ):
                suppressed += 1
            else:
                released.append(frame)
    released.sort(key=lambda f: (f.preamble_index, f.zigbee_channel))
    return released, held, suppressed


def _overlap_groups(frames):
    """Overlap-connected groups of ``frames``, in stream order."""
    groups = []
    end = None
    for frame in sorted(frames, key=lambda f: f.preamble_index):
        if groups and frame.preamble_index < end:
            groups[-1].append(frame)
            end = max(end, frame.end_index)
        else:
            groups.append([frame])
            end = frame.end_index
    return groups


def batch_decode_stream(samples, **engine_kwargs):
    """Decode a whole capture in one shot — the batch reference.

    Builds a :class:`StreamEngine` with the given configuration, feeds the
    entire capture as a single block and flushes.  Streaming the same
    capture through the same configuration in *any* block sizes yields a
    bit-identical frame list; the invariance tests and the throughput
    benchmark both compare against this function.
    """
    engine = StreamEngine(**engine_kwargs)
    frames = engine.process_block(np.asarray(samples, dtype=np.complex128))
    frames.extend(engine.finish())
    return frames


__all__ = [
    "StreamEngine",
    "batch_decode_stream",
]
