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
* **Header** decodes the 24 header bits as soon as their last vote
  window is buffered, validates version / type / length, and on a bogus
  header resumes searching at ``n0 + bit_period`` (one bit past the
  false preamble).
* **Body** waits for the full frame (header + data + CRC vote windows),
  majority-votes every bit in one pass, parses, emits, and resumes
  searching right after the frame.

``finish()`` flushes at end-of-stream: the final partial chunk is
scanned once (accepting any position — no later chunk will see it), and
a capture whose frame ran off the stream is counted as partial.

**The incremental scanner.**  Scanning chunk-by-chunk through
:func:`capture_preamble` re-derives unit phasors, fold profiles and
window counts for every chunk — and a header reject rewinds the origin
by one bit, so signal-dense streams re-derive the same region dozens of
times.  The session instead maintains :class:`_DerivedStreams`: rolling,
absolute-indexed caches of every quantity the gate cascade needs, each
computed once per product by one native pass per push (the C kernel in
``derive.c``, built by :mod:`repro.stream.native`) and, for the
windowed statistics, by the scan's own kernel call.  The cache
arithmetic is deliberately blocking-invariant — elementwise
single-rounding ops, fixed-order fold sums, and prefix sums whose
accumulation order is the stream order itself (a strict left fold, so
continuing it from a running total is bit-identical to one whole-stream
pass) — so cache slices taken at any moment contain the same floats for
any push sizes.
:meth:`StreamSession._scan_batched` then evaluates the whole cascade for
every buffered chunk from those caches (count floor, relative
coherence, concentration, cluster-peak anchor — the same decisions in
the same order as ``capture_preamble``, including its outcome
metrics), touching each product a constant number of times no matter
how often header rejects rewind across it.  The windowed
coherence/concentration sums come from prefix differences rather than
per-chunk summation, so their last ~1e-11 (float64) differs from
``capture_preamble``'s; the gates have 0.2 of slack and the values are
used consistently, so decisions are deterministic and block-size
invariant either way.

**The native derive pass.**  The kernel computes every cache bit for
bit as numpy would, float32 and float64 alike, because it does numpy's
operations in numpy's order: ``re*re`` then ``+ im*im`` with no fused
multiply-add (``-ffp-contract=off``), correctly rounded ``sqrt`` and
divide, the fold order ``((u0 + u1) + u2) + ...``, strict left-fold
prefix sums, and thresholds rounded to the working dtype the way numpy
weak-casts a Python float against a float32 array.  The numpy
formulation lives on only as the test oracle
(``tests/stream/derive_reference.py``), checked byte for byte on
hostile values and random push splits.  There is one derive path and
no fallback: the kernel compiles on first import with the local gcc
through cffi into ``repro/stream/_native/`` (a cache keyed by a hash of
the sources, flags and Python ABI), and a host that cannot build it
fails that import with an error naming what is missing.

**The scanner.**  :meth:`StreamSession._scan_batched` is one call of
the native walk kernel (``walk_body.h``): it extends the windowed caches
and the sparse hot index — the positions that could clear the
concentration floor, an int64 buffer of absolute positions — then walks
from hot position to hot position.  Chunks holding none are misses
settled without arithmetic; a chunk holding one is gated from two
prefix entries, one slice max and a pass over its hot entries, whose
gate values the kernel reads from the windowed caches by position — the
same decisions, from the same floats, as running the dense cascade on
every chunk (the argument sits next to the walk).  The kernel also
fuses the header gate: a hit evaluates the 24-bit header word in place
and a reject rewinds the origin without leaving the call, so a reject
chain costs no Python at all.  It returns the session's next state
(searching from a new origin, a header pending, or a body to decode),
the reject count and the outcome counts.  Its decision contract is the
Python walk it replaced (``tests/stream/walk_reference.py``, which
``tests/stream/test_walk_native.py`` holds it to on crafted caches):
numpy's NaN-propagating ``max`` over the working dtype, thresholds
computed in double with Python's ``max`` and rounded to the working
dtype, int32-wrapping vote differences.  Telemetry never
switches this path: with the metrics registry on, the kernel only adds
outcome counts (skipped ranges split by the gate they miss) and the
hit coherences, observed in hit order; header rejects are counted once
per call, and the body decode records its bit diagnostics from the
votes it thresholds.

**Working dtype.**  ``dtype=numpy.complex64`` (the engine's optional
float32 working precision) runs the kernel's float variant
and halves the memory traffic of every cache.  The float gate caches
then carry ~1e-3 of prefix-cancellation error after a million products
instead of ~1e-11 — still far inside the 0.2 gate slack, but growing
linearly with session length, so very long unbroken float32 sessions
(beyond ~10^8 products) should be avoided; complex128 is good past
10^15.  The integer caches (vote counts,
fold-negativity counts) are exact at any precision; they are kept in
int32, which bounds a single session at 2^31 products (~9 days of one
decimated sub-band) — beyond any test or bench horizon, and a
deliberate trade for halved prefix traffic.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import SYMBEE_PREAMBLE_BITS
from repro.core.decoder import observe_sync_decode
from repro.core.frame import (
    FRAME_TYPE_ACK,
    FRAME_TYPE_TRANSPORT_BASE,
    MAX_DATA_BITS,
    MAX_KNOWN_FRAME_TYPE,
    VERSION,
    frame_overhead_bits,
    parse_frame_bits,
)
from repro.core.preamble import (
    _COHERENCE,
    _HIT,
    _MISS_COHERENCE,
    _MISS_CONCENTRATION,
    _MISS_COUNT,
    capture_preamble,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.stream.native import ffi, lib

_HEADER_BITS = 24
#: C element type of each working dtype's real plane, and the suffix of
#: the kernels computing in it.
_PRECISION = {
    np.dtype(np.complex64): ("float", "f32"),
    np.dtype(np.complex128): ("double", "f64"),
}
#: C element type of each buffer dtype (a complex buffer: its real plane).
_CTYPES = {
    np.dtype(np.int32): "int32_t",
    np.dtype(np.int64): "int64_t",
    np.dtype(np.float32): "float",
    np.dtype(np.float64): "double",
    np.dtype(np.complex64): "float",
    np.dtype(np.complex128): "double",
}
#: The walk kernel's ``state`` results (``enum`` in ``derive.c``).
_WALK_HEADER, _WALK_BODY = 1, 2


def _ptr(ctype, array):
    """C pointer to a contiguous array's first element, as ``ctype *``."""
    return ffi.from_buffer(ctype + "[]", array)


def _unit_from_products(chunk, fill):
    """Deterministic unit phasors (zero products take ``fill``).

    ``chunk / sqrt(re*re + im*im)`` per element, computed by the native
    kernel with single-rounding real operations, so the result is the
    same floats no matter how the stream was blocked or how the buffer
    happens to be aligned.  numpy's reciprocal-then-complex-multiply
    path in the core decoder is faster but rounds differently depending
    on SIMD lane, which would leak block-size dependence into the
    capture coherence.  Works in the chunk's own precision (complex64
    or complex128).
    """
    chunk = np.ascontiguousarray(chunk)
    real, suffix = _PRECISION[chunk.dtype]
    unit = np.empty(chunk.size, dtype=chunk.dtype)
    getattr(lib, "units_" + suffix)(
        _ptr(real, chunk), chunk.size, fill.real, fill.imag, _ptr(real, unit)
    )
    return unit


def _header_valid(version, frame_type, length):
    """Whether decoded header fields name a frame the parser accepts."""
    return (
        version == VERSION
        and frame_type <= MAX_KNOWN_FRAME_TYPE
        and not FRAME_TYPE_ACK < frame_type < FRAME_TYPE_TRANSPORT_BASE
        and length <= MAX_DATA_BITS
    )


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


class _StreamBuffer:
    """Growable product buffer addressed by absolute stream index."""

    def __init__(self, dtype=np.complex128):
        self._data = np.empty(8192, dtype=dtype)
        self._start = 0   # physical index of absolute index ``base``
        self._len = 0
        self.base = 0     # absolute stream index of the oldest kept product
        #: ``_data`` as a C pointer (renewed only when it reallocates)
        #: and the offset addressing it: absolute index ``p`` is element
        #: ``p + off`` — the kernels take the pair, so no call converts
        #: a view.
        self.ptr = _ptr(_CTYPES[self._data.dtype], self._data)
        self.off = 0

    @property
    def end(self):
        """One past the newest buffered absolute index."""
        return self.base + self._len

    def alloc(self, n):
        """Append ``n`` uninitialised entries, return the view to fill.

        Lets producers compute straight into the buffer (cumsums, fold
        sums) instead of building a temporary and copying it in.
        """
        if self._start + self._len + n > self._data.size:
            if self._start:
                # Compact trimmed space before growing.
                self._data[: self._len] = self._data[
                    self._start : self._start + self._len
                ]
                self._start = 0
                self.off = -self.base
            if self._len + n > self._data.size:
                cap = self._data.size
                while cap < self._len + n:
                    cap *= 2
                grown = np.empty(cap, dtype=self._data.dtype)
                grown[: self._len] = self._data[: self._len]
                self._data = grown
                self.ptr = _ptr(_CTYPES[grown.dtype], grown)
        lo = self._start + self._len
        self._len += n
        return self._data[lo : lo + n]

    def release(self, n):
        """Give back the last ``n`` entries of the newest :meth:`alloc`."""
        self._len -= n

    def append(self, arr):
        if arr.size:
            self.alloc(arr.size)[:] = arr

    def trim(self, lo):
        """Forget everything below absolute index ``lo`` (O(1))."""
        drop = min(max(lo - self.base, 0), self._len)
        self._start += drop
        self.base += drop
        self._len -= drop

    def skip(self, n):
        """Advance an *empty* buffer past ``n`` absolute indices.

        Lets a lazily-maintained stream rejoin a producer that moved
        ahead while nothing was being recorded, without storing
        placeholders for the skipped range.
        """
        if self._len:
            raise ValueError("skip requires an empty buffer")
        self.base += n
        self.off -= n

    def view(self, lo, hi):
        """Zero-copy view of absolute range ``[lo, hi)`` (must be buffered)."""
        if lo < self.base or hi > self.end:
            raise IndexError(
                f"range [{lo}, {hi}) outside buffered [{self.base}, {self.end})"
            )
        a = self._start + (lo - self.base)
        return self._data[a : a + (hi - lo)]


class _PrefixSum:
    """Rolling prefix sums: entry ``i`` is the sum over stream ``[0, i)``.

    A producer extends it by continuing the strict left fold from the
    running total: :meth:`alloc` hands out the new entries, the producer
    writes ``total + v0``, ``(total + v0) + v1``, ... into them, and the
    last one becomes the new :attr:`total`.  Continuing the fold from a
    running total is bit-identical to one whole-stream pass for any
    chunking — floats included — so every entry is a function of
    absolute position only.  Windowed sums anywhere in the stream are
    then two gathers and a subtract, the same values no matter how the
    stream was pushed.  The price for floats is the usual large-prefix
    cancellation: a window sum loses about as many digits as the prefix
    has grown — see the module docstring for the per-dtype horizon.
    """

    def __init__(self, dtype):
        dtype = np.dtype(dtype)
        self._buf = _StreamBuffer(dtype)
        self._buf.append(np.zeros(1, dtype=dtype))
        #: Running total, the fold's continuation seed.  Kept outside
        #: the buffer: trimming may drop every entry (the stream can be
        #: forgotten past the newest prefix), and the seed must survive.
        self.total = dtype.type(0)

    @property
    def end(self):
        return self._buf.end

    @property
    def base(self):
        """Oldest absolute index still viewable (the trim floor)."""
        return self._buf.base

    def alloc(self, n):
        """Append ``n`` entries to fill; set :attr:`total` once filled."""
        return self._buf.alloc(n)

    def view(self, lo, hi):
        return self._buf.view(lo, hi)

    def trim(self, lo):
        self._buf.trim(lo)

    def skip_to(self, index):
        """Re-seed after the value stream jumped ahead (empty buffer).

        Records a fresh prefix entry at absolute ``index`` holding the
        running total, so later extends continue the fold there.  The
        skipped values are simply never counted — window sums taken
        entirely past ``index`` are unaffected (the missing constant
        cancels in every difference).
        """
        self._buf.skip(index - self._buf.end)
        self._buf.alloc(1)[0] = self.total


class _DerivedStreams:
    """Rolling absolute-indexed derived streams behind the scanner.

    Everything the capture gate cascade and the synchronized decode
    consume, computed once per product as the stream arrives:

    * ``mask_prefix`` — prefix counts of ``product.imag >= 0`` (integer,
      exact): any bit's vote count is one prefix difference.
    * unit phasors (kept only far enough back to extend the profile).
    * the circular fold profile (fixed-order sum of ``folds`` shifted
      unit-phasor streams), immediately reduced to:

      - ``count_prefix`` — prefix counts of negative fold angles
        (the same signed-zero-aware negativity test
        ``capture_preamble`` uses; integer, exact),
      - ``coherence_prefix`` — prefix sums of the fold magnitude,
      - ``concentration_prefix`` — prefix sums of the per-position
        *unit* fold phasor (complex),

      after which the profile values themselves are dropped.

    All of it is blocking-invariant by construction (see the module
    docstring), so :meth:`StreamSession._scan_batched` can gate any chunk
    from slices without re-deriving anything.  Float caches follow the
    session's working dtype (float32 halves their traffic, at the
    precision noted in the module docstring).

    The front end's deferred emission (see
    :class:`repro.stream.frontend.FastChannelBank`) makes the products
    blocking-invariant, so the prefix arithmetic here carries
    the invariance through unchanged.  A lazily-extended variant that
    derived the float gates only over scanned regions was measured
    slower at every signal density — the count gate fires for nearly
    every noise chunk, so coherence ends up densely covered anyway and
    the on-demand dispatch overhead is pure loss.
    """

    def __init__(
        self,
        decoder,
        folds,
        dtype=np.complex128,
        capture_floor=None,
        coherence_min=0.5,
        scan_stride=None,
        coherence_slack=0.2,
    ):
        self.bit_period = decoder.bit_period
        self.window = decoder.window
        self.folds = int(folds)
        self.span = (self.folds - 1) * self.bit_period
        fill = decoder.rotation
        #: Unit phasor of a zero product: the post-compensation zero
        #: phase (as :meth:`repro.core.decoder.SymBeeDecoder.unit_phasors`).
        self.fill = 1.0 + 0.0j if fill is None else complex(fill)
        cdtype = np.dtype(dtype)
        rdtype = np.dtype(np.float32 if cdtype == np.complex64 else np.float64)
        #: Scalar type of the float caches (what thresholds round to).
        self.float_type = rdtype.type
        self._cdtype = cdtype
        self._real, suffix = _PRECISION[cdtype]
        self._derive = getattr(lib, "derive_" + suffix)
        self._walk = getattr(lib, "walk_" + suffix)
        self._u = _StreamBuffer(cdtype)
        #: One past the last stream position with a computed fold value.
        self.profile_end = 0
        self.mask_prefix = _PrefixSum(np.int32)
        self.count_prefix = _PrefixSum(np.int32)
        self.coherence_prefix = _PrefixSum(rdtype)
        self.concentration_prefix = _PrefixSum(cdtype)
        # -- windowed-statistic caches ----------------------------------
        # Every windowed gate statistic is a pure function of absolute
        # position — chunk alignment only chooses which slice to look
        # at.  Header rejects rewind the origin by one bit period and
        # rescan everything buffered ahead, re-deriving the same values
        # ~8x on capture-dense streams; computing them once per position
        # in extend_windowed() turns every rescan into cache reads.
        self._capture_floor = (
            self.window - decoder.tau if capture_floor is None
            else int(capture_floor)
        )
        self._coherence_min = float(coherence_min)
        #: Scan-chunk stride in products; a chunk starting at ``q``
        #: evaluates the inclusive window-start range ``[q, q + stride]``.
        self._scan_stride = (
            8 * self.bit_period if scan_stride is None else int(scan_stride)
        )
        #: One past the last position with computed windowed statistics.
        self.win_end = 0
        self.count_win = _StreamBuffer(np.int32)
        self.cohcand_win = _StreamBuffer(rdtype)
        self.conc_win = _StreamBuffer(rdtype)
        #: Smallest working-dtype float whose float64 value clears the
        #: coherence floor: ``v >= _coh_pass`` in working precision is
        #: exactly ``float64(v) >= coherence_min``, the comparison the
        #: cascade's final verdict uses.  (For float32 the nearest cast
        #: of the threshold may round below the float64 floor; nudging
        #: one ulp up restores exact equivalence.)
        t = rdtype.type(self._coherence_min)
        if float(t) < self._coherence_min:
            t = np.nextafter(t, rdtype.type(np.inf))
        self._coh_pass = t
        #: Prefix counts of ``cohcand_win >= _coh_pass``.  A chunk
        #: starting at ``q`` passes the fused count+coherence gate iff
        #: some position in ``[q, q + stride]`` passes — a sliding *any*,
        #: answered by one prefix difference per chunk.
        self.cohpass_prefix = _PrefixSum(np.int32)
        #: The hot index: sorted absolute positions that could pass the
        #: concentration gate for *some* chunk alignment (see
        #: extend_windowed).  Its buffer index counts entries, not stream
        #: positions; the kernel appends to it, trim drops the dead front.
        self.hot = _StreamBuffer(np.int64)
        # The kernel's constants.  The windowed expressions' Python-float
        # scalars are rounded to the working dtype the way numpy
        # weak-casts them against its arrays; the cascade's thresholds
        # stay Python floats until the kernel rounds them.
        window = self.window
        ftype = rdtype.type
        self._params = ffi.new("struct walk_params *", dict(
            window=window,
            floor=self._capture_floor,
            inv_fw=ftype(1.0 / (self.folds * window)),
            inv_w=ftype(1.0 / window),
            coh_pass=self._coh_pass,
            coh_min=ftype(self._coherence_min),
            conc_min=ftype(0.6),
            stride=self._scan_stride,
            bit_period=self.bit_period,
            lead=self.folds * self.bit_period,
            header_span=(_HEADER_BITS - 1) * self.bit_period + window,
            scan_len=self._scan_stride + self.span + window,
            slack=float(coherence_slack),
            coherence_min=self._coherence_min,
            conc_floor=0.6,
            tau_sync=decoder.tau_sync,
            version=VERSION,
            max_type=MAX_KNOWN_FRAME_TYPE,
            ack_type=FRAME_TYPE_ACK,
            transport_base=FRAME_TYPE_TRANSPORT_BASE,
            max_length=MAX_DATA_BITS,
        ))
        self._out = ffi.new("struct walk_out *")

    def extend(self, products):
        """Derive every cache the new ``products`` complete, in one call.

        Vote counts and unit phasors of the products, then the fold of
        every profile position whose span they complete (fixed fold
        order ``((u0 + u1) + u2) + ...``, elementwise, so each position's
        value never depends on the surrounding slice), reduced straight
        into the count, coherence and concentration prefixes.  The
        profile values themselves are never stored.
        """
        n = products.size
        if not n:
            return
        # The kernel reads the products by pointer, in the working dtype.
        products = np.ascontiguousarray(products, dtype=self._cdtype)
        real = self._real
        units = self._u.alloc(n)
        mask = self.mask_prefix.alloc(n)
        lo = self.profile_end
        hi = self._u.end - self.span
        m = max(hi - lo, 0)
        fold_units = self._u.view(lo, hi + self.span if m else lo)
        count = self.count_prefix.alloc(m)
        coh = self.coherence_prefix.alloc(m)
        conc = self.concentration_prefix.alloc(m)
        conc_seed = self.concentration_prefix.total
        self._derive(
            _ptr(real, products), n, self.fill.real, self.fill.imag,
            _ptr(real, units), _ptr("int32_t", mask), self.mask_prefix.total,
            _ptr(real, fold_units), m, self.bit_period, self.folds,
            _ptr("int32_t", count), self.count_prefix.total,
            _ptr(real, coh), self.coherence_prefix.total,
            _ptr(real, conc), conc_seed.real, conc_seed.imag,
        )
        self.mask_prefix.total = mask[-1]
        if m:
            self.profile_end = hi
            self.count_prefix.total = count[-1]
            self.coherence_prefix.total = coh[-1]
            self.concentration_prefix.total = conc[-1]

    def extend_windowed(self):
        """Bring the windowed-statistic caches up to the profile end.

        For each newly covered position ``p`` (a window start), computes
        from the prefix streams — with exactly the expressions and
        rounding the scan cascade uses, so the cached floats are
        bit-identical to deriving them inside the scanner:

        * ``count_win[p]`` — votes in ``[p, p + window)`` (int, exact),
        * ``cohcand_win[p]`` — the windowed mean fold magnitude where
          the count clears the capture floor, ``-inf`` elsewhere (the
          fused count+coherence gate input),
        * ``conc_win[p]`` — the windowed concentration magnitude,
        * ``cohpass_prefix`` — prefix counts of positions whose
          candidate coherence clears the floor in float64 terms, so a
          chunk's fused count+coherence verdict (does *any* window
          start in ``[q, q + stride]`` pass?) is one prefix
          difference,
        * the hot index ``hot`` — positions where ``conc_win >= 0.6``
          *and* ``cohcand_win >= coherence_min``, both compared in
          working precision.  Every position that can survive the
          concentration gate is hot (see
          :meth:`StreamSession._scan_batched`), so the scan walks these
          events instead of the dense chunk grid.

        The same kernel call as :meth:`walk`, walking no chunk.
        """
        self.walk(self.win_end, 0, 0)

    def walk(self, origin, chunks, buf_end, observed=None):
        """Extend the windowed caches, then walk ``chunks`` scan chunks.

        One kernel call: :meth:`extend_windowed`'s work, then the
        hot-index walk of :meth:`StreamSession._scan_batched` from
        ``origin`` with ``buf_end`` products buffered.  ``observed`` is a
        float64 array when the metrics registry is on (room for every
        hit: one per bit period walked, plus one); the kernel then
        splits skipped chunks by gate and writes each hit's coherence
        into it, in hit order.  Returns the kernel's ``struct walk_out``
        (valid until the next call).
        """
        w = self.window
        lo = self.win_end
        base = self.count_prefix.base
        if lo < base:
            # The session trimmed past the cache's high-water mark while
            # a capture was decoding: positions below the trim floor can
            # never be scanned again, so rejoin the prefixes there.  The
            # windowed buffers were trimmed empty to exactly ``lo``.
            self.count_win.skip(base - lo)
            self.cohcand_win.skip(base - lo)
            self.conc_win.skip(base - lo)
            self.cohpass_prefix.skip_to(base)
            self.win_end = lo = base
        hi = max(self.profile_end - w + 1, lo)
        n = hi - lo
        # The kernel reads by pointer: every chunk's windows, and every
        # header a reject chain may reach, must be cached.
        buffered = min(hi + self.span + w - 1, self.mask_prefix.end - 1)
        if chunks and not (
            self.count_win.base <= origin
            and origin + chunks * self._scan_stride < hi
            and buf_end <= buffered
        ):
            raise IndexError(
                f"walk of {chunks} chunk(s) from {origin} to {buf_end} "
                f"outside the caches [{self.count_win.base}, {hi})"
            )
        # Room first: an alloc may move a buffer (new pointer, offset).
        cw, ch, cc = self.count_win, self.cohcand_win, self.conc_win
        hot = self.hot
        if n:
            cw.alloc(n)
            ch.alloc(n)
            cc.alloc(n)
            cpass = self.cohpass_prefix.alloc(n)
        n_hot = hot._len
        hot.alloc(n)
        cn = self.count_prefix._buf
        cm = self.coherence_prefix._buf
        cu = self.concentration_prefix._buf
        cp = self.cohpass_prefix._buf
        mk = self.mask_prefix._buf
        out = self._out
        if observed is None:
            obs, cap = ffi.NULL, 0
        else:
            obs, cap = _ptr("double", observed), observed.size
        self._walk(
            self._params, out,
            cn.ptr, cn.off, cm.ptr, cm.off, cu.ptr, cu.off,
            cw.ptr, cw.off, ch.ptr, ch.off, cc.ptr, cc.off, cp.ptr, cp.off,
            hot.ptr, hot._start, hot._start + n_hot, mk.ptr, mk.off,
            lo, hi, origin, chunks, buf_end, obs, cap,
        )
        hot.release(n - out.n_hot)
        if n:
            self.cohpass_prefix.total = cpass[-1]
            self.win_end = hi
        return out

    def trim(self, lo):
        self._u.trim(self.profile_end)
        self.mask_prefix.trim(lo)
        self.count_prefix.trim(lo)
        self.coherence_prefix.trim(lo)
        self.concentration_prefix.trim(lo)
        self.count_win.trim(lo)
        self.cohcand_win.trim(lo)
        self.conc_win.trim(lo)
        self.cohpass_prefix.trim(lo)
        # The walk consumes nearly every hot entry before the session
        # trims, so only the few live entries past the origin remain.
        hot = self.hot
        if hot._len:
            live = hot.view(hot.base, hot.end)
            hot.trim(hot.base + int(live.searchsorted(lo)))


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
        if self.dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError("dtype must be complex64 or complex128")
        if scan_stride_bits < 1:
            raise ValueError("scan_stride_bits must be >= 1")
        #: Products the search origin advances per missed chunk.
        self.stride = int(scan_stride_bits) * decoder.bit_period
        #: Extra products a fold window reaches past its start.
        self.span = (self.folds - 1) * decoder.bit_period
        #: Full deterministic scan-chunk length.
        self.scan_len = self.stride + self.span + decoder.window
        self._buf = _StreamBuffer(self.dtype)
        tau = decoder.tau if capture_tau is None else int(capture_tau)
        self._derived = _DerivedStreams(
            decoder,
            self.folds,
            self.dtype,
            capture_floor=decoder.window - tau,
            coherence_min=self.coherence_min,
            scan_stride=self.stride,
            coherence_slack=self.coherence_slack,
        )
        #: Memoized vote-window edges per bit count for the body decode —
        #: the shapes repeat every call, and arange dominates small calls.
        self._starts_cache = {}
        # The 24-bit header word as one gather: vote-prefix offsets of
        # the 48 window edges (starts, then ends) and the bit weights.
        starts = decoder.bit_period * np.arange(_HEADER_BITS, dtype=np.int64)
        self._header_gather = (
            np.concatenate((starts, starts + decoder.window)),
            1 << np.arange(_HEADER_BITS - 1, -1, -1, dtype=np.int64),
        )
        self._state = "search"
        self._origin = 0          # absolute origin of the next scan chunk
        self._n0 = 0              # absolute preamble index of current capture
        self._data_start = 0
        self._coherence = 0.0
        self._total_bits = 0
        self.frames_emitted = 0
        self.crc_failures = 0
        self.header_rejects = 0
        self.partial_at_eof = 0
        self.products_in = 0

    # -- public API ---------------------------------------------------------

    def push_products(self, products):
        """Consume one chunk of compensated products; return decoded frames."""
        products = np.asarray(products, dtype=self.dtype)
        self._buf.append(products)
        self._derived.extend(products)
        self.products_in += products.size
        return self._drain(final=False)

    def finish(self):
        """Flush at end-of-stream; return any frames decodable from the tail."""
        frames = self._drain(final=True)
        if self._state != "search":
            # A capture whose frame never fully arrived.
            self.partial_at_eof += 1
            _PARTIAL_EOF.inc()
            self._state = "search"
        self._origin = self._buf.end
        self._buf.trim(self._origin)
        self._derived.trim(self._origin)
        return frames

    @property
    def horizon(self):
        """Lower bound on any future frame's ``preamble_index``.

        While searching, no capture can land before the scan origin;
        while a capture is in flight, a header reject could restart the
        search at ``n0 + bit_period``, so ``n0`` bounds from below.  The
        engine's cross-session arbitration releases a frame only once
        every session's horizon has passed it.
        """
        return self._origin if self._state == "search" else self._n0

    def stats(self):
        return {
            "zigbee_channel": self.zigbee_channel,
            "products_in": self.products_in,
            "frames_emitted": self.frames_emitted,
            "crc_failures": self.crc_failures,
            "header_rejects": self.header_rejects,
            "partial_at_eof": self.partial_at_eof,
        }

    # -- state machine ------------------------------------------------------

    def _drain(self, final):
        emitted = []
        while self._advance(final, emitted):
            pass
        # In search the restart points at or after the origin; during
        # header/body a reject can resume at n0 + bit_period, so keep n0.
        keep = self._origin if self._state == "search" else self._n0
        self._buf.trim(keep)
        self._derived.trim(keep)
        return emitted

    def _advance(self, final, emitted):
        """One state transition; False when blocked on more input.

        Each transition runs under its own trace span (``scan`` /
        ``header`` / ``body``) so ``listen --profile`` attributes
        session time to the stage that spent it; the spans are gated on
        ``TRACER.enabled`` so the idle hot path never pays the
        context-manager protocol when nobody is tracing.
        """
        if self._state == "search":
            if not TRACER.enabled:
                return self._search(final)
            with TRACER.span("stream.session.scan"):
                return self._search(final)
        if self._state == "header":
            if not TRACER.enabled:
                return self._header(final)
            with TRACER.span("stream.session.header"):
                return self._header(final)
        if not TRACER.enabled:
            return self._body(final, emitted)
        with TRACER.span("stream.session.body"):
            return self._body(final, emitted)

    def _search(self, final):
        avail = self._buf.end - self._origin
        if avail >= self.scan_len:
            chunks = 1 + (avail - self.scan_len) // self.stride
            return self._scan_batched(chunks)
        if final and avail >= self.span + self.decoder.window:
            # Last partial chunk: nothing after it will re-scan, so
            # accept a capture anywhere in it.  Rare (once per stream)
            # and shorter than a full chunk, so it goes through the
            # reference capture_preamble rather than the scanner; the
            # chunk content at end-of-stream is the same for any
            # blocking, so the outcome still is too.
            chunk = self._buf.view(self._origin, self._origin + avail)
            capture = capture_preamble(
                None,
                self.decoder,
                folds=self.folds,
                tau=self.capture_tau,
                coherence_slack=self.coherence_slack,
                coherence_min=self.coherence_min,
                unit_phasors=_unit_from_products(
                    np.asarray(chunk, dtype=np.complex128),
                    self._derived.fill,
                ),
            )
            if capture is not None:
                self._n0 = self._origin + capture.index
                self._data_start = self._origin + capture.data_start
                self._coherence = capture.coherence
                self._state = "header"
                return True
            self._origin = self._buf.end
        return False

    def _scan_batched(self, chunks):
        """Gate ``chunks`` consecutive buffered chunks: the hot-index walk.

        Chunk-by-chunk semantics identical to handing each chunk to
        :func:`capture_preamble` — the dense cascade (count floor ->
        relative coherence -> concentration -> cluster-peak anchor ->
        accept only below ``stride``), with the same outcome metrics —
        evaluated from the :class:`_DerivedStreams` caches by one call of
        the native walk kernel (``walk_body.h``), which first extends
        those caches.  Chunk ``q``'s candidate window starts are
        ``[q, q + s]`` inclusive: its fold profile has exactly ``s + 1``
        window positions, so the inclusive upper edge also reproduces
        the late hit that serial scanning finds and then rejects against
        the accept limit (chunk boundary positions are legitimately
        evaluated by both neighbouring chunks, exactly as serial
        scanning does).

        The cost follows the hot index instead of the chunk grid.  From
        the origin ``o`` the walk bisects to the first hot position
        ``h >= o``; the first chunk holding it starts at ``q = o + k*s``
        with ``k = max(0, ceil((h - o - s) / s))``, and every chunk in
        ``[o, q)`` is a miss.  Chunk ``q`` is gated by the fused
        count+coherence test (two ``cohpass_prefix`` entries), then the
        rest of the cascade runs over the hot entries of ``[q, q + s]``:
        the relative coherence threshold, the best concentration, the
        first survivor cluster and its count peak (the leading window
        qualifies while still sliding onto the plateau, the peak marks
        the plateau proper).  A miss or a late hit (``n0 >= s``) moves
        the walk on to ``q + s``.

        Why skipping chunks is exact:

        * a kept position has ``cohcand >= f32(coherence_min)`` (the
          relative threshold is never below ``coherence_min``, and
          rounding to the working dtype is monotonic), and a survivor
          has ``conc >= f32(0.6)`` — so every survivor is hot, and the
          capture anchor (inside the first survivor cluster) is too;
        * no working-precision float lies in ``[0.6, f32(0.6))``, so a
          chunk with no *kept* hot position has a best concentration
          below 0.6 exactly as the dense cascade computes it: a
          concentration miss, or an earlier count/coherence miss;
        * the dense cascade compares Python-float thresholds against
          working-dtype arrays, which NEP 50 weak-casts to the array
          dtype, so the kernel computes each threshold in double with
          Python's ``max`` and rounds it to the working dtype before
          comparing — every comparison is the dense cascade's own.

        An accept gates the 24-bit header word in place (unless its
        last vote window is not buffered yet: then :meth:`_header` takes
        over once it is), and a reject rewinds the origin to
        ``n0 + bit_period`` without leaving the kernel.  The header
        rejects reach the ``stream.session.header_rejects`` counter in
        one bulk increment.  Outcome metrics: ``_HIT`` and a coherence
        observation for every hit (late hits included), a coherence or
        concentration miss for a gated chunk that misses, and — with
        the registry on — the count/coherence/concentration split of
        every skipped range.  The coherences reach the histogram one
        scalar observation at a time, in hit order, so its float total
        is the sequential sum the dense cascade's observations give.
        """
        bp = self.decoder.bit_period
        buf_end = self._buf.end
        metered = REGISTRY.enabled
        observed = None
        if metered:
            # Every hit moves the walk on by at least a bit period.
            reach = max(chunks * self.stride, buf_end - self._origin)
            observed = np.empty(reach // bp + 2)
        out = self._derived.walk(self._origin, chunks, buf_end, observed)
        self._origin = out.origin
        n0 = out.n0
        if n0 >= 0:
            self._n0 = n0
            self._data_start = n0 + self.folds * bp
            self._coherence = out.coherence
            state = out.state
            if state == _WALK_HEADER:
                self._state = "header"
            elif state == _WALK_BODY:
                self._total_bits = frame_overhead_bits() + out.length
                self._state = "body"
        rejects = out.rejects
        if rejects:
            self.header_rejects += rejects
            _HEADER_REJECTS.inc(rejects)
        if metered:
            _HIT.inc(out.hits)
            _MISS_COUNT.inc(out.miss_count)
            _MISS_COHERENCE.inc(out.miss_coherence)
            _MISS_CONCENTRATION.inc(out.miss_concentration)
            for coherence in observed[: out.observed].tolist():
                _COHERENCE.observe(coherence)
        return True

    def _header(self, final):
        end = self._bits_end(_HEADER_BITS)
        if self._buf.end < end:
            return False
        version, frame_type, length = self._header_fields(
            self._derived.mask_prefix.view(self._data_start, end + 1)
        )
        if not _header_valid(version, frame_type, length):
            return self._reject_header()
        self._total_bits = frame_overhead_bits() + length
        self._state = "body"
        return True

    def _body(self, final, emitted):
        end = self._bits_end(self._total_bits)
        if self._buf.end < end:
            return False
        votes = self._votes(self._total_bits)
        tau_sync = self.decoder.tau_sync
        bits = tuple((votes >= tau_sync).astype(np.uint8).tolist())
        if REGISTRY.enabled:
            # Observation only: the bit diagnostics, once per emitted
            # frame, from the votes just thresholded.
            segment = self._buf.view(self._data_start, end)
            observe_sync_decode(segment.imag >= 0.0, votes, tau_sync)
        frame = parse_frame_bits(bits)
        crc_ok = bool(frame is not None and frame.crc_ok)
        self.frames_emitted += 1
        _FRAMES.inc()
        if not crc_ok:
            self.crc_failures += 1
            _CRC_FAILED.inc()
        latency = self._buf.end - end
        _LATENCY.observe(latency)
        span = self._buf.view(self._n0, end)
        # Magnitude via single-rounding real ops (not np.abs's hypot
        # kernel) so the value cannot drift with buffer alignment —
        # the engine's leak arbitration compares it across sessions.
        mag = span.real * span.real
        mag += span.imag * span.imag
        np.sqrt(mag, out=mag)
        band_power = float(np.mean(mag))
        emitted.append(
            StreamFrame(
                zigbee_channel=self.zigbee_channel,
                preamble_index=self._n0,
                data_start=self._data_start,
                end_index=end,
                n_bits=self._total_bits,
                bits=bits,
                frame=frame,
                crc_ok=crc_ok,
                coherence=self._coherence,
                band_power=band_power,
                latency_products=latency,
            )
        )
        self._state = "search"
        if crc_ok:
            self._origin = (
                self._data_start + self._total_bits * self.decoder.bit_period
            )
        else:
            # A failed CRC means the capture was bogus (a neighbour's
            # leaked preamble, a collision) — resume one bit past it
            # instead of skipping the whole claimed span, so a real
            # frame shadowed inside that span is still found.
            self._origin = self._n0 + self.decoder.bit_period
        return True

    # -- helpers ------------------------------------------------------------

    def _header_fields(self, prefix):
        """``(version, frame_type, length)`` from the header's vote prefix.

        ``prefix`` is the vote-mask prefix starting at ``data_start``:
        all 24 header bits decode as one machine word — a gather at the
        48 window edges, thresholded and dotted with the bit weights.
        """
        idx, weights = self._header_gather
        edges = prefix[idx]
        votes = edges[_HEADER_BITS:] - edges[:_HEADER_BITS]
        word = int((votes >= self.decoder.tau_sync) @ weights)
        return (
            (word >> (_HEADER_BITS - 4)) & 0xF,
            (word >> (_HEADER_BITS - 8)) & 0xF,
            (word >> (_HEADER_BITS - 16)) & 0xFF,
        )

    def _bits_end(self, n_bits):
        """Absolute index one past the last vote window of ``n_bits``."""
        return (
            self._data_start
            + (n_bits - 1) * self.decoder.bit_period
            + self.decoder.window
        )

    def _votes(self, n_bits):
        """Vote counts of ``n_bits`` bits from ``data_start`` (int array).

        One gather at the bit windows' edges in the vote-mask prefix.
        """
        prefix = self._derived.mask_prefix.view(
            self._data_start, self._bits_end(n_bits) + 1
        )
        cached = self._starts_cache.get(n_bits)
        if cached is None:
            starts = self.decoder.bit_period * np.arange(n_bits, dtype=np.int64)
            cached = (starts, starts + self.decoder.window)
            self._starts_cache[n_bits] = cached
        starts, ends = cached
        return prefix[ends] - prefix[starts]

    def _reject_header(self):
        self.header_rejects += 1
        _HEADER_REJECTS.inc()
        self._state = "search"
        self._origin = self._n0 + self.decoder.bit_period
        return True
