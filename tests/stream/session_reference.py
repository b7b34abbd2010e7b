"""The stream session in numpy and Python: the oracle for the native one.

:class:`ReferenceSession` is :class:`repro.stream.session.StreamSession`
as the receiver ran it before the session moved into one C call: its
buffers are Python objects (:class:`StreamBuffer`, :class:`PrefixSum`),
its derived caches are numpy passes (:class:`ReferenceDerived`: unit
phasors, the fixed-order fold, the signed-zero-aware negativity test,
magnitude and normalisation, strict left-fold prefix sums with
``np.cumsum``, the windowed prefix differences and the hot filter), its
scan is the Python hot-index walk (the bisect from hot position to hot
position, the fused count+coherence gate, the relative-coherence /
concentration / cluster-peak cascade in Python floats, the 24-bit
header gate and its rewinds, a pending header gated first and the
stream's tail at its end, the bulk count/coherence/concentration split
of skipped ranges), and its body decode is numpy (vote gather,
threshold, :func:`parse_frame_bits`, ``np.mean`` band power).  It
records the same metrics.  Thresholds stay Python floats, so numpy's own
weak-scalar casting decides how they round against float32 arrays --
the rounding the kernels are handed pre-computed.  Its float prefixes
restart at the same seams as the native session's.

The two kernels the native push calls keep their own oracles here:
:class:`KernelDerived` is :class:`ReferenceDerived` with its derive and
windowed passes replaced by ``derive_*`` and a zero-chunk ``walk_*``
call, and :class:`KernelWalkSession` is :class:`ReferenceSession` whose
scan is one ``walk_*`` call -- the same kernels over the same Python
buffers, so a difference is a difference in the kernel.

:func:`load_caches` installs crafted windowed caches in a fresh
reference or kernel-walk session, and :func:`adversarial_caches` crafts
caches crowded onto every threshold boundary.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from repro.constants import SYMBEE_PREAMBLE_BITS
from repro.core.decoder import observe_sync_decode
from repro.core.frame import (
    DATA_START,
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
)
from repro.obs.metrics import REGISTRY
from repro.stream.native import ffi, lib
from repro.stream.session import (
    _CRC_FAILED,
    _FRAMES,
    _HEADER_REJECTS,
    _LATENCY,
    _PARTIAL_EOF,
    _PRECISION,
    STATES,
    StreamFrame,
    walk_params,
)

#: The native session's buffers, in ``session_view`` order.
BUFFERS = (
    "products", "units", "mask_prefix", "count_prefix", "coherence_prefix",
    "concentration_prefix", "count_win", "cohcand_win", "conc_win",
    "cohpass_prefix", "hot",
)


class StreamBuffer:
    """Growable buffer addressed by absolute stream index."""

    def __init__(self, dtype=np.complex128):
        self._data = np.empty(8192, dtype=dtype)
        self._start = 0   # physical index of absolute index ``base``
        self._len = 0
        self.base = 0     # absolute stream index of the oldest kept entry

    @property
    def end(self):
        """One past the newest buffered absolute index."""
        return self.base + self._len

    def alloc(self, n):
        """Append ``n`` uninitialised entries, return the view to fill."""
        if self._start + self._len + n > self._data.size:
            if self._start:
                # Compact trimmed space before growing.
                self._data[: self._len] = self._data[
                    self._start : self._start + self._len
                ]
                self._start = 0
            if self._len + n > self._data.size:
                cap = self._data.size
                while cap < self._len + n:
                    cap *= 2
                grown = np.empty(cap, dtype=self._data.dtype)
                grown[: self._len] = self._data[: self._len]
                self._data = grown
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
        """Advance an *empty* buffer past ``n`` absolute indices."""
        if self._len:
            raise ValueError("skip requires an empty buffer")
        self.base += n

    def view(self, lo, hi):
        """Zero-copy view of absolute range ``[lo, hi)`` (must be buffered)."""
        if lo < self.base or hi > self.end:
            raise IndexError(
                f"range [{lo}, {hi}) outside buffered [{self.base}, {self.end})"
            )
        a = self._start + (lo - self.base)
        return self._data[a : a + (hi - lo)]

    def pointer(self, ctype):
        """``(pointer, offset)``: absolute ``p`` is element ``p + offset``."""
        pointer = ffi.from_buffer(ctype + "[]", self._data)
        return pointer, self._start - self.base


class PrefixSum:
    """Rolling prefix sums: entry ``i`` sums the stream over ``[0, i)``.

    Producers continue the strict left fold from the running
    :attr:`total`; float prefixes with a ``seam`` restart it at every
    positive multiple of the seam (see :func:`extend_prefix`).
    """

    def __init__(self, dtype):
        dtype = np.dtype(dtype)
        self._buf = StreamBuffer(dtype)
        self._buf.append(np.zeros(1, dtype=dtype))
        #: The fold's continuation seed (survives trimming every entry).
        self.total = dtype.type(0)

    @property
    def end(self):
        return self._buf.end

    @property
    def base(self):
        return self._buf.base

    def alloc(self, n):
        return self._buf.alloc(n)

    def view(self, lo, hi):
        return self._buf.view(lo, hi)

    def trim(self, lo):
        self._buf.trim(lo)

    def skip_to(self, index):
        """Re-seed at absolute ``index`` after the stream jumped ahead."""
        self._buf.skip(index - self._buf.end)
        self._buf.alloc(1)[0] = self.total


def unit_from_products(chunk, fill, out=None):
    """Unit phasors by single-rounding real ufuncs (zero -> ``fill``)."""
    mag = chunk.real * chunk.real
    mag += chunk.imag * chunk.imag
    np.sqrt(mag, out=mag)
    zero = mag == 0.0
    has_zero = bool(zero.any())
    if has_zero:
        mag[zero] = 1.0
    unit = np.empty(chunk.size, dtype=chunk.dtype) if out is None else out
    unit.real = chunk.real / mag
    unit.imag = chunk.imag / mag
    if has_zero:
        unit[zero] = fill
    return unit


def preamble_fold(u, bit_period, folds):
    """``out[i] = ((u[i] + u[i + bp]) + u[i + 2 bp]) + ...`` over ``folds``."""
    n = u.size - (folds - 1) * bit_period
    if n <= 0:
        return u[:0].copy()
    if folds == 1:
        return u[:n].copy()
    out = u[:n] + u[bit_period : bit_period + n]
    for k in range(2, folds):
        out += u[k * bit_period : k * bit_period + n]
    return out


def extend_prefix(prefix, values, pos0=0, seam=0):
    """Continue ``prefix``'s left fold over ``values`` with ``np.cumsum``.

    ``values`` are positions ``pos0, pos0 + 1, ...``; with ``seam`` the
    fold restarts from zero at each positive multiple of it.
    """
    n = values.size
    if n == 0:
        return
    tail = prefix.alloc(n)
    tail[:] = values
    resets = set()
    if seam:
        first = max(-(-pos0 // seam) * seam, seam)
        resets = set(range(first - pos0, n, seam))
    cuts = sorted({0, n} | resets)
    for a, b in zip(cuts, cuts[1:]):
        segment = tail[a:b]
        segment[0] += tail.dtype.type(0) if a in resets else prefix.total
        np.cumsum(segment, out=segment)
    prefix.total = tail[-1]


def seam_sum(prefix, p, w, seam):
    """The window ``[p, p + w)`` of a re-seeded prefix, in its dtype."""
    at = prefix.view(p, p + w + 1)
    b = (p // seam + 1) * seam
    base = at[0] if p % seam else at.dtype.type(0)
    if p + w <= b:
        return at[w] - base
    return (at[b - p] - base) + at[w]


class ReferenceDerived:
    """The session's derived caches, computed by numpy.

    ``mask_prefix`` (vote counts), the unit phasors ``units``, the fold
    reductions ``count_prefix`` / ``coherence_prefix`` /
    ``concentration_prefix``, the windowed ``count_win`` /
    ``cohcand_win`` / ``conc_win``, ``cohpass_prefix`` and the ``hot``
    index, as the native session keeps them (see
    :mod:`repro.stream.session`).  ``seam`` overrides the dtype's
    float-prefix segment (tests use short ones).
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
        seam=None,
    ):
        self.bit_period = decoder.bit_period
        self.window = decoder.window
        self.folds = int(folds)
        self.span = (self.folds - 1) * self.bit_period
        fill = decoder.rotation
        self.fill = 1.0 + 0.0j if fill is None else complex(fill)
        cdtype = np.dtype(dtype)
        rdtype = np.dtype(np.float32 if cdtype == np.complex64 else np.float64)
        self.float_type = rdtype.type
        self._cdtype = cdtype
        self._capture_floor = (
            self.window - decoder.tau if capture_floor is None
            else int(capture_floor)
        )
        self._coherence_min = float(coherence_min)
        self._scan_stride = (
            8 * self.bit_period if scan_stride is None else int(scan_stride)
        )
        self.params = walk_params(
            decoder, self.folds, cdtype, self._capture_floor,
            self._coherence_min, self._scan_stride, coherence_slack,
        )
        if seam is not None:
            self.params["seam"] = int(seam)
        self.seam = self.params["seam"]
        self._coh_pass = self.params["coh_pass"]
        self.units = StreamBuffer(cdtype)
        #: One past the last stream position with a computed fold value.
        self.profile_end = 0
        self.mask_prefix = PrefixSum(np.int32)
        self.count_prefix = PrefixSum(np.int32)
        self.coherence_prefix = PrefixSum(rdtype)
        self.concentration_prefix = PrefixSum(cdtype)
        #: One past the last position with computed windowed statistics.
        self.win_end = 0
        self.count_win = StreamBuffer(np.int32)
        self.cohcand_win = StreamBuffer(rdtype)
        self.conc_win = StreamBuffer(rdtype)
        self.cohpass_prefix = PrefixSum(np.int32)
        self.hot = StreamBuffer(np.int64)

    def extend(self, products):
        """Derive every cache the new ``products`` complete."""
        if products.size:
            extend_prefix(self.mask_prefix, products.imag >= 0.0)
            unit_from_products(
                products, self.fill, out=self.units.alloc(products.size)
            )
        hi = self.units.end - self.span
        lo = self.profile_end
        if hi <= lo:
            return
        prof = preamble_fold(
            self.units.view(lo, hi + self.span), self.bit_period, self.folds
        )
        self.profile_end = hi
        neg = prof.imag < 0.0
        zero_imag = prof.imag == 0.0
        if zero_imag.any():
            neg |= np.signbit(prof.imag) & zero_imag & (prof.real < 0.0)
        extend_prefix(self.count_prefix, neg)
        mag = prof.real * prof.real
        mag += prof.imag * prof.imag
        np.sqrt(mag, out=mag)
        extend_prefix(self.coherence_prefix, mag, lo, self.seam)
        np.maximum(mag, mag.dtype.type(1e-12), out=mag)
        unit = prof
        unit.real /= mag
        unit.imag /= mag
        extend_prefix(self.concentration_prefix, unit, lo, self.seam)

    def rejoin(self):
        """The first unscanned window start, after any trim past it.

        Positions below the trim floor can never be scanned again, so
        the (emptied) windowed caches rejoin the prefixes there.
        """
        lo = self.win_end
        base = self.count_prefix.base
        if lo < base:
            self.count_win.skip(base - lo)
            self.cohcand_win.skip(base - lo)
            self.conc_win.skip(base - lo)
            self.cohpass_prefix.skip_to(base)
            self.win_end = lo = base
        return lo

    def extend_windowed(self):
        """Bring the windowed caches and the hot index to the profile end."""
        w = self.window
        lo = self.rejoin()
        hi = self.profile_end - w + 1
        if hi <= lo:
            return
        n = hi - lo
        cn = self.count_prefix.view(lo, hi + w)
        counts = self.count_win.alloc(n)
        np.subtract(cn[w:], cn[:-w], out=counts)
        cm = self.coherence_prefix.view(lo, hi + w)
        cohcand = self.cohcand_win.alloc(n)
        np.subtract(cm[w:], cm[:-w], out=cohcand)
        cohcand *= 1.0 / (self.folds * self.window)
        cu = self.concentration_prefix.view(lo, hi + w)
        du = cu[w:] - cu[:-w]
        seam = self.seam
        if seam:
            # Window starts on a seam or straddling one: (b - w, b].
            b = max(-(-lo // seam) * seam, seam)
            for b in range(b, hi + w - 1, seam):
                for p in range(max(b - w + 1, lo), min(b, hi - 1) + 1):
                    cohcand[p - lo] = seam_sum(
                        self.coherence_prefix, p, w, seam
                    ) * self.float_type(1.0 / (self.folds * self.window))
                    du[p - lo] = complex(
                        seam_sum(_Plane(self.concentration_prefix, "real"),
                                 p, w, seam),
                        seam_sum(_Plane(self.concentration_prefix, "imag"),
                                 p, w, seam),
                    )
        cohcand[counts < self._capture_floor] = -np.inf
        mag = du.real * du.real
        mag += du.imag * du.imag
        np.sqrt(mag, out=mag)
        conc = self.conc_win.alloc(n)
        np.multiply(mag, 1.0 / w, out=conc)
        index_reference(self, lo, cohcand, conc)
        self.win_end = hi

    def trim(self, lo):
        self.units.trim(self.profile_end)
        for name in BUFFERS[2:10]:
            getattr(self, name).trim(lo)
        # Only the few live hot entries past the origin remain.
        hot = self.hot
        if hot._len:
            live = hot.view(hot.base, hot.end)
            hot.trim(hot.base + int(live.searchsorted(lo)))


class _Plane:
    """One real plane of a complex prefix, viewed like a prefix."""

    def __init__(self, prefix, part):
        self._prefix, self._part = prefix, part

    def view(self, lo, hi):
        return getattr(self._prefix.view(lo, hi), self._part)


def index_reference(derived, lo, cohcand, conc):
    """Extend ``cohpass_prefix`` and the hot index from new windows.

    The coherence-pass prefix counts the window starts whose candidate
    coherence reaches ``_coh_pass``; the starts with ``conc >= 0.6`` and
    ``cohcand >= coherence_min`` (Python floats, weak-cast by numpy to
    the caches' dtype) join the hot index.
    """
    extend_prefix(derived.cohpass_prefix, cohcand >= derived._coh_pass)
    hm = conc >= 0.6
    hm &= cohcand >= derived._coherence_min
    derived.hot.append(lo + hm.nonzero()[0])


class KernelDerived(ReferenceDerived):
    """The derived caches computed by the native derive and walk kernels."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._real, self._derive, self._walk = {
            np.dtype(np.complex64): ("float", lib.derive_f32, lib.walk_f32),
            np.dtype(np.complex128): ("double", lib.derive_f64, lib.walk_f64),
        }[self._cdtype]
        self._params = ffi.new("struct walk_params *", self.params)
        self._out = ffi.new("struct walk_out *")

    def extend(self, products):
        n = products.size
        if not n:
            return
        products = np.ascontiguousarray(products, dtype=self._cdtype)
        real = self._real
        units = self.units.alloc(n)
        mask = self.mask_prefix.alloc(n)
        lo = self.profile_end
        hi = self.units.end - self.span
        m = max(hi - lo, 0)
        fold_units = self.units.view(lo, hi + self.span if m else lo)
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
            _ptr(real, conc), conc_seed.real, conc_seed.imag, lo, self.seam,
        )
        self.mask_prefix.total = mask[-1]
        if m:
            self.profile_end = hi
            self.count_prefix.total = count[-1]
            self.coherence_prefix.total = coh[-1]
            self.concentration_prefix.total = conc[-1]

    def extend_windowed(self):
        self.walk(self.win_end, 0, 0)

    def walk(
        self, origin, chunks, buf_end, pending=-1, final=False, observed=None
    ):
        """One ``walk_*`` call: extend the windowed caches, walk ``chunks``.

        Refuses (``IndexError``) a walk reaching outside the caches, as
        the native session does.  Returns the kernel's ``struct
        walk_out``.
        """
        w = self.window
        lo = self.rejoin()
        hi = max(self.profile_end - w + 1, lo)
        n = hi - lo
        buffered = min(hi + self.span + w - 1, self.mask_prefix.end - 1)
        if (chunks or final or pending >= 0) and not (
            self.count_win.base <= (origin if pending < 0 else pending)
            and (not chunks or origin + chunks * self._scan_stride < hi)
            and buf_end <= buffered
        ):
            raise IndexError(
                f"walk of {chunks} chunk(s) from {origin} to {buf_end} "
                f"outside the caches [{self.count_win.base}, {hi})"
            )
        real = self._real
        if n:
            self.count_win.alloc(n)
            self.cohcand_win.alloc(n)
            self.conc_win.alloc(n)
            cpass = self.cohpass_prefix.alloc(n)
        hot = self.hot
        n_hot = hot._len
        hot.alloc(n)
        if observed is None:
            obs, cap = ffi.NULL, 0
        else:
            obs, cap = _ptr("double", observed), observed.size
        out = self._out
        self._walk(
            self._params, out,
            *self.count_prefix._buf.pointer("int32_t"),
            *self.coherence_prefix._buf.pointer(real),
            *self.concentration_prefix._buf.pointer(real),
            *self.count_win.pointer("int32_t"),
            *self.cohcand_win.pointer(real),
            *self.conc_win.pointer(real),
            *self.cohpass_prefix._buf.pointer("int32_t"),
            ffi.from_buffer("int64_t[]", hot._data), hot._start,
            hot._start + n_hot,
            *self.mask_prefix._buf.pointer("int32_t"),
            lo, hi, origin, chunks, buf_end, pending, final, obs, cap,
        )
        hot.release(n - out.n_hot)
        if n:
            self.cohpass_prefix.total = cpass[-1]
            self.win_end = hi
        return out


def _ptr(ctype, array):
    return ffi.from_buffer(ctype + "[]", array)


def header_valid(version, frame_type, length):
    """Whether decoded header fields name a frame the parser accepts."""
    return (
        version == VERSION
        and frame_type <= MAX_KNOWN_FRAME_TYPE
        and not FRAME_TYPE_ACK < frame_type < FRAME_TYPE_TRANSPORT_BASE
        and length <= MAX_DATA_BITS
    )


def header_fields(prefix, bit_period, window, tau_sync):
    """``(version, frame_type, length)`` from the header's vote prefix.

    ``prefix`` is the vote-mask prefix from the data start on: all 24
    header bits decode as one word -- a gather at the 48 window edges
    (int32 differences, wrapping as the kernel's), thresholded and
    dotted with the bit weights.
    """
    starts = bit_period * np.arange(DATA_START, dtype=np.int64)
    edges = prefix[np.concatenate((starts, starts + window))]
    votes = edges[DATA_START:] - edges[:DATA_START]
    weights = 1 << np.arange(DATA_START - 1, -1, -1, dtype=np.int64)
    word = int((votes >= tau_sync) @ weights)
    return (
        (word >> (DATA_START - 4)) & 0xF,
        (word >> (DATA_START - 8)) & 0xF,
        (word >> (DATA_START - 16)) & 0xFF,
    )


def _values(buf, positions):
    """``buf``'s entries at absolute ``positions``, as Python scalars."""
    return buf.view(buf.base, buf.end)[positions - buf.base].tolist()


class ReferenceSession:
    """The stream session's state machine in Python over numpy caches.

    The constructor is :class:`repro.stream.session.StreamSession`'s
    (plus ``seam``, see :class:`ReferenceDerived`); so are
    :meth:`push_products`, :meth:`finish`, :attr:`horizon`, :meth:`stats`
    and the metrics.
    """

    derived_class = ReferenceDerived

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
        seam=None,
    ):
        self.decoder = decoder
        self.zigbee_channel = zigbee_channel
        self.folds = int(folds)
        self.coherence_slack = float(coherence_slack)
        self.coherence_min = float(coherence_min)
        self.dtype = np.dtype(dtype)
        if self.dtype not in _PRECISION:
            raise ValueError("dtype must be complex64 or complex128")
        if scan_stride_bits < 1:
            raise ValueError("scan_stride_bits must be >= 1")
        self.stride = int(scan_stride_bits) * decoder.bit_period
        self.span = (self.folds - 1) * decoder.bit_period
        self.scan_len = self.stride + self.span + decoder.window
        self._buf = StreamBuffer(self.dtype)
        tau = decoder.tau if capture_tau is None else int(capture_tau)
        self._derived = self.derived_class(
            decoder,
            self.folds,
            self.dtype,
            capture_floor=decoder.window - tau,
            coherence_min=self.coherence_min,
            scan_stride=self.stride,
            coherence_slack=self.coherence_slack,
            seam=seam,
        )
        self._state = "search"
        self._origin = 0
        self._n0 = 0
        self._data_start = 0
        self._coherence = 0.0
        self._total_bits = 0
        self._final = False
        self.frames_emitted = 0
        self.crc_failures = 0
        self.header_rejects = 0
        self.partial_at_eof = 0
        self.products_in = 0

    def push_products(self, products):
        products = np.asarray(products, dtype=self.dtype)
        self._buf.append(products)
        self._derived.extend(products)
        self.products_in += products.size
        return self._drain()

    def finish(self):
        self._final = True
        frames = self._drain()
        self._final = False
        if self._state != "search":
            self.partial_at_eof += 1
            _PARTIAL_EOF.inc()
            self._state = "search"
        self._origin = self._buf.end
        self._buf.trim(self._origin)
        self._derived.trim(self._origin)
        return frames

    @property
    def horizon(self):
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

    def caches(self):
        """``(base, values)`` of every buffer, in ``session_view`` order."""
        derived = self._derived
        bufs = [self._buf, derived.units] + [
            getattr(derived, name) for name in BUFFERS[2:]
        ]
        return [
            (buf.base, buf.view(buf.base, buf.end).copy()) for buf in bufs
        ]

    # -- state machine ------------------------------------------------------

    def _drain(self):
        emitted = []
        while self._advance(emitted):
            pass
        keep = self._origin if self._state == "search" else self._n0
        self._buf.trim(keep)
        self._derived.trim(keep)
        return emitted

    def _advance(self, emitted):
        if self._state == "body":
            return self._body(emitted)
        avail = self._buf.end - self._origin
        chunks = max(avail - self.scan_len + self.stride, 0) // self.stride
        tail = self._final and avail >= self.scan_len - self.stride
        if not (chunks or tail or self._state == "pending"):
            return False
        return self._scan_batched(chunks)

    def _scan_batched(self, chunks):
        """The Python hot-index walk over ``chunks`` chunks (and the tail)."""
        s = self.stride
        bp = self.decoder.bit_period
        window = self.decoder.window
        derived = self._derived
        derived.extend_windowed()
        metered = REGISTRY.enabled
        hot = derived.hot
        positions = hot.view(hot.base, hot.end)
        hot_pos = positions.tolist()
        # The cached gate values at each hot position (a float32
        # converts to a Python float losslessly).
        self._hot = (
            hot_pos,
            _values(derived.cohcand_win, positions),
            _values(derived.conc_win, positions),
            _values(derived.count_win, positions),
        )
        n_hot = len(hot_pos)
        mpb = derived.mask_prefix._buf
        mpd, mpo = mpb._data, mpb._start - mpb.base
        hdr_span = (DATA_START - 1) * bp + window
        buf_end = self._buf.end
        rejects = 0
        o = self._origin
        stop = o + chunks * s  # first chunk start not fully buffered
        i = bisect_left(hot_pos, o)
        pending = self._state == "pending"
        self._state = "search"
        while True:
            if not pending:
                q = stop
                if i < n_hot:
                    # k = max(0, ceil((h - o - s) / s)), in integer form.
                    q = min(stop, o + s * max(0, (hot_pos[i] - o - 1) // s))
                if metered and q > o:
                    self._count_skipped(o, (q - o) // s)
                e = q + s  # chunk q's last window start
                tail = q == stop
                if tail:
                    # The stream's tail, gated at its end if it holds a
                    # window start; a hit anywhere in it is accepted.
                    self._origin = stop
                    e = buf_end - self.scan_len + s
                    if not self._final or e < q:
                        break
                    if i == n_hot or hot_pos[i] > e:
                        if metered:
                            self._count_missed(q, e)
                        break
                hit = self._gate(q, e, i)
                if tail and hit is None:
                    break
                if not tail and (hit is None or hit[0] >= e):
                    o = e
                    i = bisect_left(hot_pos, o, i)
                    continue
                self._origin = q
                self._n0, self._coherence = hit
                self._data_start = self._n0 + self.folds * bp
            pending = False
            if buf_end < self._data_start + hdr_span:
                self._state = "pending"
                break
            a = mpo + self._data_start
            fields = header_fields(
                mpd[a : a + hdr_span + 1], bp, window, self.decoder.tau_sync
            )
            if header_valid(*fields):
                self._total_bits = frame_overhead_bits() + fields[2]
                self._state = "body"
                break
            rejects += 1
            o = self._origin = self._n0 + bp
            avail = buf_end - o
            stop = o
            if avail >= self.scan_len:
                stop += (1 + (avail - self.scan_len) // s) * s
            i = bisect_left(hot_pos, o, i)
        if rejects:
            self.header_rejects += rejects
            _HEADER_REJECTS.inc(rejects)
        return self._state == "body"

    def _gate(self, q, e, i):
        """The fused gate, then the cascade, of window starts [q, e]."""
        cp = self._derived.cohpass_prefix
        if cp.view(e + 1, e + 2)[0] == cp.view(q, q + 1)[0]:
            _MISS_COHERENCE.inc()
            return None
        derived = self._derived
        pos, coh, conc, count = self._hot
        ftype = derived.float_type
        slack = self.coherence_slack
        best = float(derived.cohcand_win.view(q, e + 1).max())
        thr = float(ftype(max(best - slack, self.coherence_min)))
        kept = [j for j in range(i, bisect_right(pos, e, i)) if coh[j] >= thr]
        if not kept:
            _MISS_CONCENTRATION.inc()
            return None
        thr = float(ftype(max(max([conc[j] for j in kept]) - slack, 0.6)))
        for k, peak in enumerate(kept):
            if conc[peak] >= thr:
                break
        j = peak
        for nxt in kept[k + 1 :]:
            if pos[nxt] != pos[j] + 1 or conc[nxt] < thr:
                break
            j = nxt
            if count[j] > count[peak]:
                peak = j
        _HIT.inc()
        _COHERENCE.observe(coh[peak])
        return pos[peak], coh[peak]

    def _count_skipped(self, o, n):
        s = self.stride
        derived = self._derived
        cp = derived.cohpass_prefix.view(o, o + n * s + 2)
        n_conc = int(np.count_nonzero(cp[s + 1 :: s] > cp[: n * s : s]))
        counts = derived.count_win.view(o, o + n * s + 1)
        tops = np.maximum(
            np.maximum.reduceat(counts, np.arange(0, n * s, s)), counts[s::s]
        )
        n_count = n - int(np.count_nonzero(tops >= derived._capture_floor))
        _MISS_COUNT.inc(n_count)
        _MISS_COHERENCE.inc(n - n_count - n_conc)
        _MISS_CONCENTRATION.inc(n_conc)

    def _count_missed(self, q, e):
        """The miss split of one hot-free chunk, window starts [q, e]."""
        derived = self._derived
        cp = derived.cohpass_prefix
        counted = int(
            derived.count_win.view(q, e + 1).max() >= derived._capture_floor
        )
        passed = int(cp.view(e + 1, e + 2)[0] > cp.view(q, q + 1)[0])
        _MISS_COUNT.inc(1 - counted)
        _MISS_COHERENCE.inc(counted - passed)
        _MISS_CONCENTRATION.inc(passed)

    def _body(self, emitted):
        bp, window = self.decoder.bit_period, self.decoder.window
        end = self._data_start + (self._total_bits - 1) * bp + window
        if self._buf.end < end:
            return False
        prefix = self._derived.mask_prefix.view(self._data_start, end + 1)
        starts = bp * np.arange(self._total_bits, dtype=np.int64)
        votes = prefix[starts + window] - prefix[starts]
        tau_sync = self.decoder.tau_sync
        bits = tuple((votes >= tau_sync).astype(np.uint8).tolist())
        if REGISTRY.enabled:
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
        mag = span.real * span.real
        mag += span.imag * span.imag
        np.sqrt(mag, out=mag)
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
                band_power=float(np.mean(mag)),
                latency_products=latency,
            )
        )
        self._state = "search"
        if crc_ok:
            self._origin = self._data_start + self._total_bits * bp
        else:
            self._origin = self._n0 + bp
        return True


class KernelWalkSession(ReferenceSession):
    """A reference session whose caches and scan are the native kernels."""

    derived_class = KernelDerived

    def _scan_batched(self, chunks):
        bp = self.decoder.bit_period
        buf_end = self._buf.end
        metered = REGISTRY.enabled
        observed = None
        if metered:
            # Every hit moves the walk on by at least a bit period.
            reach = max(chunks * self.stride, buf_end - self._origin)
            observed = np.empty(reach // bp + 2)
        pending = self._n0 if self._state == "pending" else -1
        out = self._derived.walk(
            self._origin, chunks, buf_end, pending, self._final, observed
        )
        self._origin = out.origin
        if out.n0 >= 0:
            self._n0 = out.n0
            self._data_start = out.n0 + self.folds * bp
            self._coherence = out.coherence
        self._state = STATES[out.state]
        if self._state == "body":
            self._total_bits = frame_overhead_bits() + out.length
        if out.rejects:
            self.header_rejects += out.rejects
            _HEADER_REJECTS.inc(out.rejects)
        if metered:
            _HIT.inc(out.hits)
            _MISS_COUNT.inc(out.miss_count)
            _MISS_COHERENCE.inc(out.miss_coherence)
            _MISS_CONCENTRATION.inc(out.miss_concentration)
            for coherence in observed[: out.observed].tolist():
                _COHERENCE.observe(coherence)
        return self._state == "body"


def native_caches(session):
    """``(base, values)`` of a native session's buffers, as
    :meth:`ReferenceSession.caches` lists them."""
    real = np.float32 if session.dtype == np.complex64 else np.float64
    dtypes = (
        session.dtype, session.dtype, np.int32, np.int32, real,
        session.dtype, np.int32, real, real, np.int32, np.int64,
    )
    view = ffi.new("struct session_view *")
    caches = []
    for which, dtype in enumerate(dtypes):
        lib.session_view(session._native, which, view)
        size = np.dtype(dtype).itemsize * view.len
        values = np.frombuffer(ffi.buffer(view.data, size), dtype).copy()
        caches.append((view.base, values))
    return caches


def load_caches(session, counts, cohcand, conc, votes=None, buffered=None):
    """Install crafted windowed caches for window starts ``0 .. n-1``.

    ``session`` (a :class:`ReferenceSession` or :class:`KernelWalkSession`)
    must be fresh.  The coherence-pass prefix and the hot index come from
    the numpy hot filter; the profile end is set where the windowed
    caches end, so a scan extends nothing and walks exactly these
    values.  ``votes`` are per-product vote flags (``imag >= 0``) from
    position 0, feeding the header gate; ``buffered`` is where the
    session's product stream ends (default: the end a real session
    would have with these windows, ``n + span + window - 1``).
    """
    derived = session._derived
    n = counts.size
    windowed = (derived.count_win, derived.cohcand_win, derived.conc_win)
    for buf, values in zip(windowed, (counts, cohcand, conc)):
        buf.alloc(n)[:] = values
    index_reference(derived, 0, cohcand, conc)
    derived.win_end = n
    derived.profile_end = n + derived.window - 1
    if votes is not None:
        extend_prefix(derived.mask_prefix, np.asarray(votes, dtype=bool))
    if buffered is None:
        buffered = n + derived.span + derived.window - 1
    session._buf.skip(buffered)


def adversarial_caches(rng, n, s, floor, coh_min, slack, dtype=np.float32):
    """Windowed caches crowded onto every threshold boundary.

    Each stride block draws a best coherence ``b`` and concentration
    ``bc`` and fills its positions with them plus values on and one ulp
    either side of ``coherence_min``, ``b - slack``, 0.6 and
    ``bc - slack`` -- exactly where comparing a float64 threshold instead
    of its working-dtype rounding flips a decision.  A third of the
    blocks are quiet (no concentration reaches 0.6, so no hot position)
    and a third weak (coherence capped at ``dtype(coherence_min)``), so
    a walk also skips long hot-free runs and gates chunks that can fail.
    """
    f32 = np.dtype(dtype).type

    def near(v):
        v = f32(v)
        return [np.nextafter(v, f32(0)), v, np.nextafter(v, f32(2))]

    counts = rng.integers(floor - 2, floor + 3, n).astype(np.int32)
    cohcand = np.empty(n, f32)
    conc = np.empty(n, f32)
    for lo in range(0, n, s):
        m = min(s, n - lo)
        kind = rng.integers(3)
        b = f32(coh_min) if kind == 1 else f32(rng.uniform(coh_min, 1.0))
        bc = f32(rng.uniform(0.6, 1.0))
        coh_pool = np.array(
            [b, *near(coh_min), *near(b - slack), rng.uniform(0.3, b)], f32
        )
        conc_pool = np.array(
            [bc, *near(0.6), *near(bc - slack), rng.uniform(0.3, bc)], f32
        )
        if kind == 2:
            conc_pool = conc_pool[conc_pool < 0.6]
        cohcand[lo : lo + m] = rng.choice(coh_pool[coh_pool <= b], m)
        conc[lo : lo + m] = rng.choice(conc_pool, m)
    cohcand[counts < floor] = -np.inf
    return counts, cohcand, conc
