"""The continuously-listening receive engine: front ends + sessions.

One :class:`StreamEngine` owns, per decoded ZigBee channel, a front end
(products) and a :class:`repro.stream.session.StreamSession` (frames),
and feeds every incoming sample block through all of them.  Two modes:

* **wideband** (default): one session decoding the whole 20 MHz capture
  directly, with the Appendix-B CFO rotation for its reference ZigBee
  channel — exactly the batch :class:`repro.core.SymBeeLink` receive
  path, restructured to run block-by-block.  Bit-identical to batch for
  any block size.
* **demux**: one :class:`repro.stream.frontend.ChannelizerFrontEnd` +
  session per overlapping ZigBee channel, so concurrent senders on
  different channels decode from the same stream.  Wideband sessions
  cannot do this: every overlapping pair's CFO correction wraps to the
  same +4pi/5 (the Appendix-B constant), so in the product domain the
  channels are rotationally indistinguishable — separation must happen
  in the sample domain, before the autocorrelation.

The demux path has three performance controls (PR 5), all defaulting to
the exact full-rate behaviour:

* ``decimation`` — each sub-band is decimated inside the channelizer;
  every session-side quantity (lag, window, bit period, vote taus)
  scales through the decimation-aware
  :class:`repro.core.decoder.SymBeeDecoder`.  The factor must divide
  the lag, window and bit period (``gcd = 4`` at 20 Msps, so 1, 2 or 4).
* ``mode`` — ``"exact"`` (bit-exact block-size invariance) or
  ``"fast"`` (native kernels, mixer folded into the filter taps;
  decode-equivalent).
* ``run(blocks, jobs=n)`` — per-channel demux across a persistent
  :class:`repro.runtime.workerpool.BlockWorkerPool` (PR 6): channel
  workers are spawned once, every sample block is published once into
  shared memory and consumed zero-copy by all workers, and handoff is
  pipelined through bounded per-worker queues.  Channels are fully
  independent between the front end and arbitration, workers ship
  per-channel frames and metric shards back, and the parent merges
  shards and arbitrates once over the complete pool, so serial and
  parallel runs report identical frames and identical ``stream.*``
  metric totals.  When ``jobs > 1`` cannot apply (wideband, or a
  single demux channel) the engine counts ``stream.jobs_ignored`` and
  logs a warning instead of silently running serial.

Use :func:`batch_decode_stream` as the one-shot reference: it runs the
identical engine over the whole capture as a single block, which is what
the block-size-invariance guarantee is measured against.
"""

import logging
import time

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.core.decoder import SymBeeDecoder
from repro.core.phase import cfo_compensation_phase
from repro.dsp.kernels import cmul, validate_mode
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.runtime.executor import resolve_jobs
from repro.stream.frontend import (
    ChannelizerFrontEnd,
    FastChannelBank,
    StreamingFrontEnd,
)
from repro.stream.ring import RingBufferSource
from repro.stream.session import StreamSession
from repro.zigbee.channels import (
    frequency_offset_hz,
    overlapping_zigbee_channels,
)

_BLOCKS = REGISTRY.counter("stream.engine.blocks")
_SAMPLES = REGISTRY.counter("stream.engine.samples_in")
_FRAMES = REGISTRY.counter("stream.engine.frames")
_SUPPRESSED = REGISTRY.counter("stream.engine.leak_suppressed")
_JOBS_IGNORED = REGISTRY.counter("stream.jobs_ignored")
#: Wall-clock health signals (the ``stream.health.*`` / gauge namespace
#: is *excluded* from the serial==parallel determinism contract: timing
#: is inherently run-dependent, and workers observe per-channel blocks
#: where the serial engine observes whole-engine blocks).
_BLOCK_SECONDS = REGISTRY.histogram(
    "stream.health.block_seconds",
    edges=(0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0),
)
#: Stream-time over wall-time — >= 1.0 means the decode is holding the
#: input's realtime line (serial: per block; parallel: cumulative).
_MARGIN = REGISTRY.gauge("stream.realtime_margin")

_LOG = logging.getLogger(__name__)

#: Default demux channelizer: short enough to keep most of the 84-sample
#: plateau (an ``ntaps``-tap FIR costs ``ntaps - 1`` plateau samples),
#: wide enough to pass the 2 MHz ZigBee main lobe.
DEMUX_NTAPS = 21
DEMUX_CUTOFF_HZ = 1.4e6


class _ChannelPath:
    """One decoded channel: its front end, rotation, mode and session."""

    __slots__ = ("zigbee_channel", "front_end", "rotation", "mode", "session")

    def __init__(self, zigbee_channel, front_end, rotation, mode, session):
        self.zigbee_channel = zigbee_channel
        self.front_end = front_end
        self.rotation = rotation
        self.mode = mode
        self.session = session

    def process_block(self, block):
        """Feed one sample block through this channel; return its frames.

        The complete per-channel chain — front end, CFO rotation,
        session — with no engine-level bookkeeping, so parallel workers
        can drive a path directly without double-counting the engine's
        block/sample metrics.
        """
        return self.push_front_end_block(self.front_end.process(block))

    def push_front_end_block(self, fe_block):
        """Rotation + session tail of the chain, given front-end output.

        Split out so :class:`~repro.stream.frontend.FastChannelBank`
        can filter all channels at once and hand each path its block.
        """
        products = fe_block.products
        if self.rotation is not None and products.size:
            products = cmul(products, self.rotation, self.mode)
        return self.session.push_products(products)

    def flush_front_end(self):
        """Emit the front end's deferred tail at end-of-stream.

        Fast-mode channelizers withhold up to one filtered output per
        channel mid-stream to keep products cut-invariant (see
        :meth:`repro.stream.frontend.ChannelizerFrontEnd.flush`); this
        pushes that tail through the session before the session itself
        is flushed.
        """
        return self.push_front_end_block(self.front_end.flush())


class StreamEngine:
    """Block-by-block SymBee receiver over an unbounded sample stream."""

    def __init__(
        self,
        wifi_channel=1,
        sample_rate=WIFI_SAMPLE_RATE_20MHZ,
        zigbee_channels=None,
        demux=False,
        scan_stride_bits=8,
        capture_tau=None,
        tau=None,
        tau_sync=None,
        ntaps=DEMUX_NTAPS,
        cutoff_hz=DEMUX_CUTOFF_HZ,
        decimation=None,
        mode="exact",
        working_dtype=None,
        scan_kernel="batched",
    ):
        self.wifi_channel = wifi_channel
        self.sample_rate = float(sample_rate)
        self.demux = bool(demux)
        self.decimation = 1 if decimation is None else int(decimation)
        self.mode = validate_mode(mode)
        if scan_kernel != "batched":
            # One scanner: the keyword stays for callers that name it.
            raise ValueError(
                f"unknown scan kernel {scan_kernel!r}; expected 'batched'"
            )
        self.working_dtype = (
            None if working_dtype is None else np.dtype(working_dtype)
        )
        if self.mode == "exact" and self.working_dtype not in (
            None,
            np.dtype(np.complex128),
        ):
            raise ValueError("exact mode requires a complex128 working dtype")
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
        #: Constructor configuration minus the channel list — what a
        #: parallel worker needs to rebuild one single-channel engine
        #: with identical thresholds (see :meth:`run`).
        self._engine_kwargs = {
            "wifi_channel": wifi_channel,
            "sample_rate": self.sample_rate,
            "demux": self.demux,
            "scan_stride_bits": scan_stride_bits,
            "capture_tau": capture_tau,
            "tau": tau,
            "tau_sync": tau_sync,
            "ntaps": ntaps,
            "cutoff_hz": cutoff_hz,
            "decimation": self.decimation,
            "mode": self.mode,
            "working_dtype": self.working_dtype,
        }
        self._paths = []
        for channel in channels:
            offset = frequency_offset_hz(channel, wifi_channel)
            if demux:
                front_end = ChannelizerFrontEnd(
                    offset,
                    self.sample_rate,
                    lag,
                    ntaps=ntaps,
                    cutoff_hz=cutoff_hz,
                    decimation=self.decimation,
                    mode=self.mode,
                    working_dtype=self.working_dtype,
                )
                # The channelized stream sits at its own baseband: the
                # plateaus are at +-4pi/5 already, no CFO rotation needed.
                # Fast mode skips the channelizer's output-rate mixer
                # multiply and compensates with one constant product
                # rotation here instead (see ChannelizerFrontEnd).
                decoder = SymBeeDecoder(
                    sample_rate=self.sample_rate,
                    tau=tau,
                    tau_sync=tau_sync,
                    cfo_correction=None,
                    decimation=self.decimation,
                )
                rotation = front_end.product_rotation
                if rotation == 1.0:
                    rotation = None
                # The FIR eats ntaps - 1 plateau samples, so the capture
                # count floor must drop by as much (plus edge margin) —
                # in decimated-output units, rounded up so the floor is
                # never optimistic.
                session_tau = capture_tau
                if session_tau is None:
                    session_tau = min(
                        -(-(ntaps - 1 + 8) // self.decimation),
                        decoder.window // 2 - 1,
                    )
            else:
                front_end = StreamingFrontEnd(
                    lag,
                    mode=self.mode,
                    dtype=self.working_dtype or np.complex128,
                )
                decoder = SymBeeDecoder(
                    sample_rate=self.sample_rate,
                    tau=tau,
                    tau_sync=tau_sync,
                    cfo_correction=cfo_compensation_phase(
                        offset, lag, self.sample_rate
                    ),
                )
                rotation = decoder.rotation
                session_tau = capture_tau
            self._paths.append(
                _ChannelPath(
                    zigbee_channel=channel,
                    front_end=front_end,
                    rotation=rotation,
                    mode=self.mode,
                    session=StreamSession(
                        decoder,
                        zigbee_channel=channel,
                        scan_stride_bits=scan_stride_bits,
                        capture_tau=session_tau,
                        dtype=self.working_dtype or np.complex128,
                    ),
                )
            )
        #: Shared-GEMM filter bank: in a fast-mode decimating demux the
        #: channels all buffer the same raw stream, so one stacked
        #: matrix product filters every channel per block (serial runs
        #: only — parallel workers own one channel each and keep the
        #: single-channel kernel).
        self._bank = None
        if (
            demux
            and self.mode == "fast"
            and self.decimation > 1
            and len(self._paths) > 1
        ):
            self._bank = FastChannelBank(
                [path.front_end for path in self._paths]
            )
        self.blocks_in = 0
        self.samples_in = 0
        self.frames_out = 0
        self.frames_suppressed = 0
        #: Emitted frames awaiting cross-session leak arbitration.
        self._pending = []
        #: Per-channel session stats shipped back by parallel workers
        #: (the local sessions stay idle in a parallel run).
        self._worker_session_stats = None
        #: Transport stats of the last parallel run's worker pool.
        self._pool_stats = None

    @property
    def zigbee_channels(self):
        return [path.zigbee_channel for path in self._paths]

    @property
    def sessions(self):
        return [path.session for path in self._paths]

    def process_block(self, block):
        """Feed one sample block to every channel; return decoded frames."""
        metered = REGISTRY.enabled
        if metered:
            t0 = time.perf_counter()
        # Convert to the working dtype once, not once per channel path.
        block = np.asarray(block, dtype=self.working_dtype or np.complex128)
        with TRACER.span("stream.block", samples=int(block.size)):
            if self._bank is not None:
                fe_blocks = self._bank.process_block(block)
                for path, fe_block in zip(self._paths, fe_blocks):
                    self._pending.extend(path.push_front_end_block(fe_block))
            else:
                for path in self._paths:
                    self._pending.extend(path.process_block(block))
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
            if self._bank is not None:
                fe_blocks = self._bank.flush()
                for path, fe_block in zip(self._paths, fe_blocks):
                    self._pending.extend(path.push_front_end_block(fe_block))
            else:
                for path in self._paths:
                    self._pending.extend(path.flush_front_end())
            for path in self._paths:
                self._pending.extend(path.session.finish())
            frames = self._release(final=True)
        self.frames_out += len(frames)
        if frames:
            _FRAMES.inc(len(frames))
        return frames

    def _release(self, final):
        """Cross-session leak arbitration over the pending frame pool.

        Adjacent sub-bands alias onto the same product phase (their 5 MHz
        spacing is a multiple of ``fs / lag``), so a strong sender also
        decodes — attenuated but otherwise faithful — on neighbouring
        idle sessions.  Among time-overlapping pending frames carrying
        *identical bits* on different sessions, only the strongest
        ``band_power`` copy survives (ties break toward the lower channel
        number, keeping the decision deterministic).

        A frame is held until every session's :attr:`StreamSession.horizon`
        has passed its end — after that no session can emit anything
        overlapping it, so the decision is final and independent of block
        boundaries.  Released frames come out sorted by stream position.

        Incremental (per-block) release and one final whole-pool pass
        decide identically: demotion keeps every overlap-connected group
        together until all its members have arrived, and band-power
        arbitration only ever compares frames within one group — which
        is why the parallel path can skip incremental release entirely
        and arbitrate once at the end.
        """
        if not self._pending:
            return []
        if final:
            ready, held = list(self._pending), []
        else:
            horizon = min(path.session.horizon for path in self._paths)
            ready, held = [], []
            for frame in self._pending:
                (ready if frame.end_index < horizon else held).append(frame)
            # Arbitration is decided per overlap-connected group: demote
            # any ready frame overlapping a held one (and cascade), so a
            # group is only ever judged with all its members present.
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
        if not ready:
            return []
        released = []
        for frame in ready:
            key = (frame.band_power, -frame.zigbee_channel)
            beaten = any(
                other.zigbee_channel != frame.zigbee_channel
                and other.bits == frame.bits
                and other.preamble_index < frame.end_index
                and frame.preamble_index < other.end_index
                and (other.band_power, -other.zigbee_channel) > key
                for other in ready
            )
            if beaten:
                self.frames_suppressed += 1
                _SUPPRESSED.inc()
            else:
                released.append(frame)
        self._pending = held
        released.sort(key=lambda f: (f.preamble_index, f.zigbee_channel))
        return released

    def run(self, blocks, jobs=None, collector=None):
        """Drain a block source (any iterable, e.g. a ring) and finish.

        A :class:`repro.stream.ring.RingBufferSource` iterates its queued
        blocks; for live producer/consumer interleaving, call
        :meth:`process_block` per popped block instead.

        ``jobs`` (default: the ``REPRO_JOBS`` environment variable, i.e.
        serial) fans the demux channels out across a persistent
        :class:`repro.runtime.workerpool.BlockWorkerPool` — workers are
        spawned once, each block is published once into shared memory
        while workers chew on earlier blocks, and each worker runs its
        channels' full front-end + session chains.  The parent
        arbitrates leak suppression once over the complete frame pool.
        The frame list, per-session stats and ``stream.*`` metric totals
        are identical to a serial run; requires ``demux`` with more than
        one channel.  A ``jobs > 1`` request the engine cannot honour
        (wideband, or a single demux channel) increments the
        ``stream.jobs_ignored`` counter and logs a warning before
        running serial.

        ``collector`` (a :class:`repro.obs.live.LiveCollector`) is
        offered a tick after every block; in a pooled run the engine
        also drains the pool's telemetry side queue into it so the live
        view includes worker progress, then drops that preview once the
        join-time authoritative shard merge lands.  The caller finalizes
        the collector after :meth:`run` returns, which is what makes the
        last sample's cumulative totals equal the end-of-run registry
        snapshot.
        """
        jobs = resolve_jobs(jobs)
        if jobs != 1:
            if self.demux and len(self._paths) > 1:
                return self._run_parallel(blocks, jobs, collector)
            _JOBS_IGNORED.inc()
            _LOG.warning(
                "jobs=%d ignored: parallel demux needs demux=True with "
                ">1 channel (engine has %s%d); running serial",
                jobs,
                "demux, " if self.demux else "wideband, ",
                len(self._paths),
            )
        frames = []
        for block in blocks:
            frames.extend(self.process_block(block))
            if collector is not None:
                collector.maybe_tick()
        frames.extend(self.finish())
        return frames

    def _run_parallel(self, blocks, jobs, collector=None):
        """Persistent-pool per-channel fan-out behind :meth:`run`.

        Blocks stream straight from the source into shared memory —
        nothing is materialized — so a live producer (ring pop loop)
        overlaps with worker decode.  Blocks are published as canonical
        complex128 (value-preserving for every working dtype) and each
        worker applies the engine's own per-block dtype conversion.
        """
        from repro.runtime.workerpool import BlockWorkerPool
        from repro.stream.parallel import channel_consumer

        n_blocks = 0
        n_samples = 0
        live = collector is not None and REGISTRY.enabled
        with TRACER.span(
            "stream.run_parallel", jobs=int(jobs), channels=len(self._paths)
        ):
            pool = BlockWorkerPool(
                channel_consumer,
                self._engine_kwargs,
                [path.zigbee_channel for path in self._paths],
                jobs=jobs,
                telemetry_blocks=1 if live else None,
            )
            try:
                if live:
                    t_start = time.perf_counter()
                for block in blocks:
                    block = np.ascontiguousarray(block, dtype=np.complex128)
                    pool.publish(block)
                    n_blocks += 1
                    n_samples += int(block.size)
                    if live:
                        # Cumulative published-stream-time over wall time:
                        # the producer-side realtime margin.
                        elapsed = time.perf_counter() - t_start
                        if elapsed > 0:
                            _MARGIN.set(
                                (n_samples / self.sample_rate) / elapsed
                            )
                        collector.ingest_shards(pool.drain_telemetry())
                        collector.maybe_tick()
                    elif collector is not None:
                        collector.maybe_tick()
                results = pool.join()
                self._pool_stats = pool.stats()
            finally:
                pool.close()
            if live:
                # join() merged the workers' authoritative end-of-run
                # shards into the registry; the side-queue preview must
                # go or everything a worker counted would double.
                collector.drop_side_shards()
            self._worker_session_stats = []
            for frames, session_stats in results:
                self._pending.extend(frames)
                self._worker_session_stats.append(session_stats)
            released = self._release(final=True)
        self.blocks_in += n_blocks
        self.samples_in += n_samples
        self.frames_out += len(released)
        _BLOCKS.inc(n_blocks)
        _SAMPLES.inc(n_samples)
        if released:
            _FRAMES.inc(len(released))
        return released

    def stats(self):
        return {
            "mode": "demux" if self.demux else "wideband",
            "kernel_mode": self.mode,
            "decimation": self.decimation,
            "blocks_in": self.blocks_in,
            "samples_in": self.samples_in,
            "frames_out": self.frames_out,
            "sessions": (
                list(self._worker_session_stats)
                if self._worker_session_stats is not None
                else [path.session.stats() for path in self._paths]
            ),
            "pool": self._pool_stats,
        }

    @property
    def pool_stats(self):
        """Worker-pool transport stats of the last parallel run (or None)."""
        return self._pool_stats


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
    "RingBufferSource",
    "batch_decode_stream",
]
