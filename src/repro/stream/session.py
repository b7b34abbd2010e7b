"""Per-channel streaming decode session (preamble -> header -> body).

A :class:`StreamSession` consumes the CFO-compensated phasor-product
stream of one ZigBee channel in arbitrary-size pieces and emits complete
SymBee frames.  Every decision is a function of the *absolute* product
stream only, never of where pushes were cut, which is what makes
streaming decode bit-identical to a single whole-capture call:

* **Search** runs over deterministic scan chunks.  The session waits
  until the chunk ``[o, o + stride + span + window)`` is fully buffered
  (``o`` the scan origin, ``stride = scan_stride_bits * bit_period``,
  ``span = (folds - 1) * bit_period``), applies the
  :func:`repro.core.preamble.capture_preamble` gate cascade to it, and
  accepts a capture only in the first ``stride`` products — later hits
  are re-found by the next chunk, whose origin is ``o + stride``
  regardless of blocking.  (The capture gates are slice-relative, so
  scanning *fixed* chunks is what keeps them deterministic.)
* **Header**: an accepted capture's 24 header bits are decoded and
  validated (version / type / length) as soon as their last vote window
  is buffered — in the same walk, or at the start of the next one while
  the capture is *pending* — and a bogus header resumes searching at
  ``n0 + bit_period`` (one bit past the false preamble).
* **Body** waits for the full frame (header + data + CRC vote windows),
  majority-votes every bit in one pass, checks the CRC, emits, and
  resumes searching right after a valid frame — or one bit past the
  preamble of a failed one, so a real frame shadowed inside the claimed
  span is still found.

``finish()`` flushes at end-of-stream: the walk then also gates what is
left after the last full chunk as one shorter chunk (accepting any
position — no later chunk will see it), and a capture whose frame ran
off the stream is counted as partial.

**One native call per push.**  The session's state lives in one C
struct (``struct session``, ``session_body.h``, built by
:mod:`repro.stream.native`) that owns every buffer: the products, the
derived caches below, the hot index, and the state (search / pending /
body, origin, ``n0``, data start, coherence, bit count).  A push is one
``session_push_f32``/``_f64`` call: it derives the new products'
caches, then walks and decodes bodies until it is blocked (the walk
with its header gate, the body votes against ``tau_sync``, the frame
CRC that decides where the search resumes, band power), then trims
everything the state can no longer reach.  It returns fixed-size
descriptors of the frames it emitted, each already parsed: its bits,
its header fields (version, frame type, data length, sequence) and its
CRC verdict.  That verdict (``frame_parse`` in ``derive.c``) is the
one CRC-16 check a stream frame gets; Python builds the
:class:`StreamFrame` and its :class:`repro.core.frame.SymBeeFrame` from
the descriptor without parsing the bits again.  The struct is
freed by :meth:`StreamSession.finish` (or with the session object);
``lib.session_live()`` counts the structs alive.

**The derived caches.**  Scanning chunk-by-chunk through
:func:`capture_preamble` would re-derive unit phasors, fold profiles
and window counts for every chunk — and a header reject rewinds the
origin by one bit, so signal-dense streams would re-derive the same
region dozens of times.  The session instead keeps rolling,
absolute-indexed caches of every quantity the gate cascade needs, each
computed once per product: prefix counts of ``product.imag >= 0`` (any
bit's votes are one difference), the unit phasors, and the circular
fold profile (the fixed-order sum of ``folds`` shifted unit phasors)
reduced at once to prefix counts of negative fold angles, prefix sums
of the fold magnitude and of the unit fold phasor; then, per window
start, the windowed count, candidate coherence and concentration, the
prefix count of starts clearing the coherence floor, and the *hot
index* — the starts that could clear the concentration gate.  The
arithmetic is numpy's in numpy's order (``derive.c``): no fused
multiply-add, correctly rounded ``sqrt`` and divide, the fold order
``((u0 + u1) + u2) + ...``, strict left-fold prefix sums (continuing
the fold from a running total is bit-identical to one whole-stream
pass), thresholds rounded to the working dtype the way numpy weak-casts
a Python float.  So cache slices hold the same floats for any push
sizes.  The numpy formulation lives on as the test oracle
(``tests/stream/session_reference.py``).

**The scanner.**  The walk (``walk_body.h``) goes from hot position to
hot position.  Chunks holding none are misses settled without
arithmetic; a chunk holding one is gated by the fused count+coherence
test (two coherence-pass prefix entries), then the rest of the cascade
runs over its hot entries: the relative coherence threshold, the best
concentration, the first survivor cluster and its count peak.  Chunk
``q``'s candidate window starts are ``[q, q + stride]`` inclusive (its
fold profile has ``stride + 1`` window positions, so the upper edge
reproduces the late hit serial scanning finds and rejects).  Skipping
hot-free chunks is exact:

* a kept position has ``cohcand >= f32(coherence_min)`` (the relative
  threshold is never below ``coherence_min``, and rounding to the
  working dtype is monotonic), and a survivor has ``conc >= f32(0.6)``
  — so every survivor is hot, and so is the capture anchor;
* no working-precision float lies in ``[0.6, f32(0.6))``, so a chunk
  with no kept hot position has a best concentration below 0.6 exactly
  as the dense cascade computes it;
* the dense cascade compares Python-float thresholds against
  working-dtype arrays, which NEP 50 weak-casts to the array dtype, so
  the kernel computes each threshold in double with Python's ``max``
  and rounds it to the working dtype before comparing.

An accepted hit gates its header in place, and a reject rewinds the
origin without leaving the kernel; a hit whose header is not buffered
yet is pending, and the next call gates it first, so it is counted
once whatever the blocking.  The windowed sums come from prefix
differences, so their last bits differ from ``capture_preamble``'s; the
gates have 0.2 of slack and the values are used consistently, so the
decisions are deterministic and block-size invariant either way.

**Working dtype and horizon.**  ``dtype=numpy.complex64`` (the engine's
optional float32 working precision) runs the kernels' float variants
and halves the memory traffic of every cache.  A window sum taken as
the difference of two prefix entries loses about as many digits as the
prefix has grown, so the float32 prefixes restart from zero every 2^17
products (``session_body.h``: windows straddling a restart are summed
across it, and every value is still a function of absolute position):
a window never carries more than one segment's cancellation, however
long the stream runs.  Unsegmented, a float32 session went deaf a few
seconds into a stream (its prefixes near 2^24, window sums cancelled
to nothing), and a dense decimation-8 channel already lost captures to
a neighbour's leak copy past ~6e5 products, where a window's ~10
products carry the cancellation of the whole prefix.  2^17 stays ~5x
below that and holds every golden capture (at most 1.25e5 products a
session) in one segment.  Float64 prefixes do not restart; they lose
1e-3 of a window mean only past ~10^13 products (days of an
undecimated stream).  The integer caches (vote counts, fold-negativity
counts, coherence passes) are int32 and wrap: every use is a difference
of two entries, which modular arithmetic gets right at any stream
length.

**Telemetry.**  Every push returns per-stage nanosecond counters
(derive, scan, body) and its outcome counts, with no second code path.
Under ``TRACER`` the session records the scan and body times as finished
``stream.session.scan`` / ``stream.session.body`` child spans
(:meth:`repro.obs.trace.Tracer.record`), so a ``stream.session`` span
around the push keeps the derive and bookkeeping time as its self time.
Under ``REGISTRY`` the push also splits skipped chunks by the gate they
miss and returns the hit coherences (observed in hit order) and each
body's vote counts and sign-run lengths; no decision depends on it.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import SYMBEE_PREAMBLE_BITS
from repro.core.decoder import observe_sync_runs
from repro.core.frame import (
    DATA_START,
    FRAME_TYPE_ACK,
    FRAME_TYPE_TRANSPORT_BASE,
    MAX_DATA_BITS,
    MAX_KNOWN_FRAME_TYPE,
    OUTER_CRC_BITS,
    VERSION,
    SymBeeFrame,
)
from repro.core.preamble import (
    _COHERENCE,
    _HIT,
    _MISS_COHERENCE,
    _MISS_CONCENTRATION,
    _MISS_COUNT,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.stream.native import ffi, lib

#: Per working dtype: the C type of its real plane, the push kernel, and
#: how many products a float prefix segment holds (0: no restarts).
_PRECISION = {
    np.dtype(np.complex64): ("float", lib.session_push_f32, 1 << 17),
    np.dtype(np.complex128): ("double", lib.session_push_f64, 0),
}
#: Session states, indexed by the struct's ``state`` (``enum`` in
#: ``derive.c``).
STATES = ("search", "pending", "body")

_FRAMES = REGISTRY.counter("stream.session.frames")
_CRC_FAILED = REGISTRY.counter("stream.session.crc_failed")
_HEADER_REJECTS = REGISTRY.counter("stream.session.header_rejects")
_PARTIAL_EOF = REGISTRY.counter("stream.session.partial_at_eof")
#: Products buffered past a frame's last vote window when it was emitted
#: — the decode latency floor in samples (one bit period = 640).
_LATENCY = REGISTRY.histogram(
    "stream.session.frame_latency",
    edges=(640, 2560, 5120, 10240, 20480, 40960, 81920, 163840),
)


def walk_params(decoder, folds, dtype, capture_floor, coherence_min,
                scan_stride, coherence_slack):
    """The ``struct walk_params`` constants of one session, as a dict.

    The windowed expressions' Python-float scalars are rounded to the
    working dtype the way numpy weak-casts them against its arrays; the
    cascade's thresholds stay Python floats until the kernel rounds
    them.  ``coh_pass`` is the smallest working float whose float64
    value clears ``coherence_min``: ``v >= coh_pass`` in working
    precision is then exactly ``float64(v) >= coherence_min``, the
    comparison the cascade's final verdict uses (for float32 the
    nearest cast may round below the floor; one ulp up restores it).
    """
    ftype = np.float32 if np.dtype(dtype) == np.complex64 else np.float64
    window, bp = decoder.window, decoder.bit_period
    coh_pass = ftype(coherence_min)
    if float(coh_pass) < coherence_min:
        coh_pass = np.nextafter(coh_pass, ftype(np.inf))
    return dict(
        window=window,
        floor=int(capture_floor),
        inv_fw=ftype(1.0 / (folds * window)),
        inv_w=ftype(1.0 / window),
        coh_pass=coh_pass,
        coh_min=ftype(coherence_min),
        conc_min=ftype(0.6),
        stride=scan_stride,
        bit_period=bp,
        lead=folds * bp,
        header_span=(DATA_START - 1) * bp + window,
        scan_len=scan_stride + (folds - 1) * bp + window,
        slack=float(coherence_slack),
        coherence_min=float(coherence_min),
        conc_floor=0.6,
        tau_sync=decoder.tau_sync,
        version=VERSION,
        max_type=MAX_KNOWN_FRAME_TYPE,
        ack_type=FRAME_TYPE_ACK,
        transport_base=FRAME_TYPE_TRANSPORT_BASE,
        max_length=MAX_DATA_BITS,
        seam=_PRECISION[np.dtype(dtype)][2],
    )


@dataclass(frozen=True)
class StreamFrame:
    """One frame decoded out of the stream.

    Indices are absolute product-stream coordinates of the session's
    channel (for demux sessions: the filtered sub-band stream, offset
    from the wideband stream by the channelizer's group delay).
    ``latency_products`` is how many products past the frame's last vote
    window the session had buffered when it emitted — the block-induced
    decode latency.
    """

    zigbee_channel: "int | None"
    preamble_index: int
    data_start: int
    end_index: int
    n_bits: int
    bits: tuple
    frame: "object | None"    # SymBeeFrame, or None if unparseable
    crc_ok: bool
    coherence: float
    #: Mean product magnitude (~signal power) over the frame span.  A
    #: frame leaked from a neighbouring sub-band (5 MHz is an exact
    #: multiple of ``fs / lag``, so neighbours alias onto the *same*
    #: product phase and only amplitude distinguishes them) shows up with
    #: the channelizer's stopband attenuation here; the engine's
    #: arbitration keeps the strongest copy.
    band_power: float
    latency_products: int

    def decode_fields(self):
        """Every field determined by stream *content* alone.

        ``latency_products`` is excluded: it measures how long after the
        frame's last vote window the emit happened, which legitimately
        depends on block size.  The invariance guarantee — and the tests
        asserting it — covers exactly this tuple.
        """
        return (
            self.zigbee_channel,
            self.preamble_index,
            self.data_start,
            self.end_index,
            self.n_bits,
            self.bits,
            self.frame,
            self.crc_ok,
            self.coherence,
            self.band_power,
        )


class StreamSession:
    """Stateful preamble/header/body decoder for one channel's stream.

    ``dtype`` is the working precision of the product buffer and every
    derived cache: ``complex128`` (default) or ``complex64`` (float32,
    decode-equivalent at half the memory traffic).
    """

    def __init__(
        self,
        decoder,
        zigbee_channel=None,
        scan_stride_bits=8,
        capture_tau=None,
        folds=SYMBEE_PREAMBLE_BITS,
        coherence_slack=0.2,
        coherence_min=0.5,
        dtype=np.complex128,
    ):
        self.decoder = decoder
        self.zigbee_channel = zigbee_channel
        self.capture_tau = capture_tau
        self.folds = int(folds)
        self.coherence_slack = float(coherence_slack)
        self.coherence_min = float(coherence_min)
        self.dtype = np.dtype(dtype)
        if self.dtype not in _PRECISION:
            raise ValueError("dtype must be complex64 or complex128")
        if scan_stride_bits < 1:
            raise ValueError("scan_stride_bits must be >= 1")
        #: Products the search origin advances per missed chunk.
        self.stride = int(scan_stride_bits) * decoder.bit_period
        #: Extra products a fold window reaches past its start.
        self.span = (self.folds - 1) * decoder.bit_period
        #: Full deterministic scan-chunk length.
        self.scan_len = self.stride + self.span + decoder.window
        tau = decoder.tau if capture_tau is None else int(capture_tau)
        real, self._push_kernel, _ = _PRECISION[self.dtype]
        self._ctype = real + "[]"
        params = ffi.new("struct walk_params *", walk_params(
            decoder, self.folds, self.dtype, decoder.window - tau,
            self.coherence_min, self.stride, self.coherence_slack,
        ))
        #: Unit phasor of a zero product: the post-compensation zero
        #: phase (as :meth:`repro.core.decoder.SymBeeDecoder.unit_phasors`).
        fill = 1.0 if decoder.rotation is None else complex(decoder.rotation)
        native = lib.session_new(
            params, self.folds, self.dtype.itemsize // 2,
            fill.real, fill.imag,
        )
        if native == ffi.NULL:
            raise MemoryError("cannot allocate a native stream session")
        #: The native session (``struct session *``), freed by
        #: :meth:`finish` or with this object; None once finished.
        self._native = ffi.gc(native, lib.session_free)
        self._out = ffi.new("struct session_out *")
        #: The scan origin the session ended on (set by :meth:`finish`).
        self._end = 0
        self.frames_emitted = 0
        self.crc_failures = 0
        self.header_rejects = 0
        self.partial_at_eof = 0
        self.products_in = 0

    # -- public API ---------------------------------------------------------

    def push_products(self, products):
        """Consume one chunk of compensated products; return decoded frames."""
        # The kernel reads the products by pointer, in the working dtype.
        products = np.ascontiguousarray(products, dtype=self.dtype)
        n = products.size
        self.products_in += n
        return self._push(ffi.from_buffer(self._ctype, products), n, 0)

    def finish(self):
        """Flush at end-of-stream; return any frames decodable from the tail.

        Frees the native session: the stream has ended, a later push
        raises and a later finish returns nothing.
        """
        if self._native is None:
            return []
        frames = self._push(ffi.NULL, 0, 1)
        if self._out.partial:
            # A capture whose frame never fully arrived.
            self.partial_at_eof += 1
            _PARTIAL_EOF.inc()
        self._end = self._native.origin
        ffi.release(self._native)
        self._native = None
        return frames

    @property
    def horizon(self):
        """Lower bound on any future frame's ``preamble_index``.

        While searching, no capture can land before the scan origin;
        while a capture is pending or decoding, a header reject or a
        failed CRC could restart the search at ``n0 + bit_period``, so
        ``n0`` bounds from below.  The engine's cross-session
        arbitration releases a frame only once every session's horizon
        has passed it.
        """
        native = self._native
        if native is None:
            return self._end
        return native.n0 if native.state else native.origin

    @property
    def stage_ns(self):
        """``(derive, scan, body)`` nanoseconds the last push spent."""
        out = self._out
        return out.derive_ns, out.scan_ns, out.body_ns

    def stats(self):
        return {
            "zigbee_channel": self.zigbee_channel,
            "products_in": self.products_in,
            "frames_emitted": self.frames_emitted,
            "crc_failures": self.crc_failures,
            "header_rejects": self.header_rejects,
            "partial_at_eof": self.partial_at_eof,
        }

    # -- the native push ----------------------------------------------------

    def _push(self, products, n, final):
        """One ``session_push`` call, then its frames and telemetry."""
        native = self._native
        if native is None:
            raise RuntimeError("push to a finished stream session")
        out = self._out
        metered = REGISTRY.enabled
        count = self._push_kernel(native, products, n, final, metered, out)
        if count < 0:
            if count == -1:
                raise MemoryError("native stream session out of memory")
            raise IndexError("stream session scan outside its caches")
        rejects = out.rejects
        if rejects:
            self.header_rejects += rejects
            _HEADER_REJECTS.inc(rejects)
        if TRACER.enabled:
            if out.scan_ns:
                TRACER.record("stream.session.scan", out.scan_ns * 1e-9)
            if out.body_ns:
                TRACER.record("stream.session.body", out.body_ns * 1e-9)
        if metered:
            _HIT.inc(out.hits)
            _MISS_COUNT.inc(out.miss_count)
            _MISS_COHERENCE.inc(out.miss_coherence)
            _MISS_CONCENTRATION.inc(out.miss_concentration)
            # One scalar observation at a time, in hit order, so the
            # histogram's float total is the dense cascade's sequential
            # sum.
            for coherence in ffi.unpack(native.observed, out.observed):
                _COHERENCE.observe(coherence)
        if not count:
            return []
        return [
            self._frame(native.frames[i], metered) for i in range(count)
        ]

    def _frame(self, desc, metered):
        """The :class:`StreamFrame` of one emitted frame's descriptor.

        The kernel parsed the header and checked the CRC; the frame is
        None when the bits are too short for their declared length, as
        the Python frame parser decides.
        """
        n_bits = desc.n_bits
        bits = tuple(ffi.buffer(desc.bits, n_bits)[:])
        crc_ok = bool(desc.crc_ok)
        end = DATA_START + desc.length
        frame = None
        if n_bits >= end + OUTER_CRC_BITS:
            frame = SymBeeFrame(
                data_bits=bits[DATA_START:end],
                sequence=desc.sequence,
                frame_type=desc.frame_type,
                version=desc.version,
                crc_ok=crc_ok,
            )
        self.frames_emitted += 1
        _FRAMES.inc()
        if not crc_ok:
            self.crc_failures += 1
            _CRC_FAILED.inc()
        latency = desc.latency
        _LATENCY.observe(latency)
        if metered:
            # Observation only: the bit diagnostics, once per emitted
            # frame, from the votes the kernel thresholded.
            votes = np.frombuffer(ffi.buffer(desc.votes, 4 * n_bits), np.int32)
            runs = np.frombuffer(
                ffi.buffer(self._native.runs + desc.runs_lo, 8 * desc.runs_n),
                np.int64,
            )
            observe_sync_runs(runs, votes, self.decoder.tau_sync)
        return StreamFrame(
            zigbee_channel=self.zigbee_channel,
            preamble_index=desc.n0,
            data_start=desc.data_start,
            end_index=desc.end,
            n_bits=n_bits,
            bits=bits,
            frame=frame,
            crc_ok=crc_ok,
            coherence=desc.coherence,
            band_power=desc.band_power,
            latency_products=latency,
        )
