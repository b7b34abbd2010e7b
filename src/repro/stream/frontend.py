"""The stream receiver's front end, and its exact numpy reference.

The batch pipeline hands a whole capture to
:meth:`repro.core.decoder.SymBeeDecoder.phasor_stream` at once; a
continuously listening receiver only ever sees fixed-size sample blocks.
What the receiver derives from them is the idle-listening
autocorrelation product ``p[n] = x[n] * conj(x[n + lag])``,
which pairs exactly two samples, so carrying a short tail across block
boundaries reproduces the whole-stream products for any blocking.

:class:`FastChannelBank` is the one front end every
:class:`repro.stream.engine.StreamEngine` builds.  For the multi-sender
demux it isolates each ZigBee channel: because every overlapping
WiFi/ZigBee pair shares the *same* Appendix-B correction (+4pi/5),
concurrent senders on different ZigBee channels land on identical
product-domain rotations and cannot be separated after the
autocorrelation.  Separation has to happen before it: mix the 5
MHz-spaced sub-band to DC, low-pass away the other sub-bands, then form
products on the filtered stream.  Each sub-band only holds a 2 MHz
ZigBee signal, so the filtered stream can also be **decimated**; the
factor must divide the autocorrelation lag, so every downstream quantity
scales exactly, and the polyphase FIR is evaluated only at the kept
output positions.  The wideband receiver is the same bank with one
channel at decimation 1 and a 1-tap identity filter: its product
rotation ``exp(j 2 pi f lag / fs)`` is the Appendix-B CFO correction.

The bank's arithmetic is fixed — correctly rounded FMAs in one order
(``repro/stream/frontend_body.h``) — so its products are the same bits
on every host, whatever BLAS or vector width it has, and for any
blocking: an output leaves only once its last polyphase row is
buffered.  ``tests/stream/frontend_reference.py`` is the numpy oracle it
is held to bit for bit.

:class:`ChannelizerFrontEnd` and :class:`StreamingFrontEnd` are the
exact numpy reference chain (mixer table, fixed-order FIR, exact
products; see :mod:`repro.dsp.kernels`).  No engine builds them; tests
compare the bank against them.
"""

from dataclasses import dataclass

import numpy as np

from repro.dsp.kernels import (
    exact_cmul,
    exact_lagged_products,
    polyphase_decimate_exact,
)
from repro.stream import native


@dataclass(frozen=True)
class FrontEndBlock:
    """Newly computed front-end outputs for one input block.

    ``start`` is the global stream index (product coordinates: product
    ``k`` pairs samples ``k`` and ``k + lag``) of ``products[0]``.
    """

    products: np.ndarray
    start: int


class StreamingFrontEnd:
    """Exact chunked autocorrelation products (numpy reference).

    Feed arbitrary-size blocks to :meth:`process`; the concatenation of
    the returned ``products`` arrays is bit-identical to
    ``exact_lagged_products(whole_stream, lag)`` for any blocking,
    including blocks shorter than the lag — every element is
    scalar-exact complex arithmetic (see
    :func:`repro.dsp.kernels.exact_cmul`), unlike numpy's FMA-contracted
    native multiply whose rounding drifts with length and alignment.
    """

    def __init__(self, lag):
        self.lag = int(lag)
        if self.lag <= 0:
            raise ValueError("lag must be positive")
        self.reset()

    def reset(self):
        self._tail = np.empty(0, dtype=np.complex128)
        #: Total samples consumed so far.
        self.samples_in = 0
        self._products_out = 0

    def process(self, block):
        """Consume one sample block, return the newly computable products."""
        block = np.asarray(block, dtype=np.complex128)
        x = np.concatenate((self._tail, block)) if self._tail.size else block
        self.samples_in += block.size
        start = self._products_out
        new_products = max(0, self.samples_in - self.lag) - start
        if new_products > 0:
            prod = exact_lagged_products(x, self.lag)
            products = prod[prod.size - new_products :]
            self._products_out += new_products
        else:
            products = np.empty(0, dtype=np.complex128)
        if x.size >= self.lag:
            self._tail = x[x.size - self.lag :].copy()
        else:
            self._tail = x if x is not block else x.copy()
        return FrontEndBlock(products=products, start=start)

    def flush(self):
        """End-of-stream hook; products are never deferred here (no-op)."""
        return self.process(np.empty(0, dtype=np.complex128))


def design_lowpass(ntaps, cutoff_hz, sample_rate):
    """Hamming-windowed-sinc low-pass FIR taps with unit DC gain.

    Deliberately short filters: the SymBee plateau is only ``window + lag``
    samples long and shrinks by ``ntaps - 1`` samples after filtering, so
    channel isolation trades stopband attenuation against plateau loss
    (see ``docs/streaming.md``).  One tap is the identity filter
    ``[1.0]`` (a windowed sinc of length 1), which the wideband receiver
    runs.
    """
    ntaps = int(ntaps)
    if ntaps < 1 or ntaps % 2 == 0:
        raise ValueError("ntaps must be an odd integer >= 1")
    if not 0.0 < cutoff_hz < sample_rate / 2.0:
        raise ValueError("cutoff must be in (0, sample_rate/2)")
    m = np.arange(ntaps, dtype=np.float64) - (ntaps - 1) / 2.0
    taps = np.sinc(2.0 * cutoff_hz / sample_rate * m)
    taps *= np.hamming(ntaps)
    return taps / taps.sum()


def _mixer_period(frequency_offset_hz, sample_rate, max_period=1 << 16):
    """Exact integer period of ``exp(-j*2*pi*f*n/fs)``, or ``None``.

    Exists whenever ``f / fs`` is rational with a small denominator —
    true for every ZigBee/WiFi channel offset (multiples of 1 MHz).
    """
    from math import gcd

    f = abs(frequency_offset_hz)
    if f == 0.0:
        return 1
    if f != int(f) or sample_rate != int(sample_rate):
        return None
    period = int(sample_rate) // gcd(int(f), int(sample_rate))
    return period if period <= max_period else None


class ChannelizerFrontEnd:
    """One exact demux sub-band: mix to DC, low-pass, decimate, products.

    The numpy reference for one channel of :class:`FastChannelBank`,
    which the engine runs.  Three implementation points keep the chain
    block-size invariant to the last bit (plain "same formula per
    element" is not enough — numpy's SIMD transcendentals,
    FMA-contracted complex multiplies and ``np.convolve`` all change
    their exact float behaviour with array length or alignment):

    * the mixer phasor is exactly periodic whenever ``f / fs`` is
      rational (every Appendix-B channel offset is a multiple of 1 MHz,
      so the period is at most 20 samples at 20 Msps); one period is
      precomputed at construction and indexed by *global* sample
      position, so each stream index always multiplies by the exact same
      table value.  Irrational offsets fall back to a per-block
      ``np.exp`` whose SIMD-vs-scalar remainder lanes can differ by one
      ulp at block boundaries — invariance then holds only to ~1 ulp.
    * the FIR accumulates tap-by-tap over (strided) slices on the
      real/imag planes (fixed tap order) rather than via
      ``np.convolve``, whose internal summation order changes with input
      length — every filtered sample is the same fixed-order
      accumulation for any blocking.  With ``decimation > 1`` only the
      kept outputs are ever evaluated, and each is bit-identical to the
      corresponding full-rate output (the decimated exact stream is a
      strict subsample of the ``decimation=1`` exact stream).
    * every complex multiply goes through the exact kernels of
      :mod:`repro.dsp.kernels`, sidestepping numpy's FMA-contracted
      complex path whose rounding depends on buffer alignment.

    Product coordinates are those of the *filtered, decimated* stream:
    the chain delays the signal by the filter's ``(ntaps - 1) / 2``
    group delay, drops ``ntaps - 1`` priming samples and keeps every
    ``decimation``-th output, which shifts/scales indices relative to
    the wideband stream.  The preamble search recovers timing itself, so
    nothing downstream depends on the offset.
    """

    def __init__(
        self,
        frequency_offset_hz,
        sample_rate,
        lag,
        ntaps=21,
        cutoff_hz=1.4e6,
        decimation=1,
    ):
        self.frequency_offset_hz = float(frequency_offset_hz)
        self.sample_rate = float(sample_rate)
        self.taps = design_lowpass(ntaps, cutoff_hz, sample_rate)
        self.ntaps = int(ntaps)
        self.decimation = _check_decimation(decimation, lag)
        self._buf = np.empty(0, dtype=np.complex128)
        self._index = 0  # global input-sample index of the next block
        self._inner = StreamingFrontEnd(lag // self.decimation)
        period = _mixer_period(self.frequency_offset_hz, self.sample_rate)
        if period is not None:
            t = np.arange(period, dtype=np.float64)
            self._mixer_table = np.exp(
                -1j
                * (2.0 * np.pi * self.frequency_offset_hz * t / self.sample_rate)
            )
        else:
            self._mixer_table = None

    @property
    def samples_in(self):
        return self._index

    def reset(self):
        self._buf = np.empty(0, dtype=np.complex128)
        self._index = 0
        self._inner.reset()

    def _mix(self, block):
        """Global-index mixer multiply."""
        if self._mixer_table is not None:
            idx = np.arange(self._index, self._index + block.size, dtype=np.int64)
            idx %= self._mixer_table.size
            return exact_cmul(block, self._mixer_table[idx])
        t = np.arange(self._index, self._index + block.size, dtype=np.float64)
        return exact_cmul(
            block,
            np.exp(
                -1j
                * (2.0 * np.pi * self.frequency_offset_hz * t / self.sample_rate)
            ),
        )

    def process(self, block):
        """Consume one wideband block, return this sub-band's new products."""
        new = self._mix(np.asarray(block, dtype=np.complex128))
        self._index += new.size
        z = np.concatenate((self._buf, new)) if self._buf.size else new
        # The buffer always starts at the next output's window, so window
        # starts are local 0, D, 2D, ...
        total = z.size - self.ntaps + 1
        if total <= 0:
            self._buf = z
            return self._inner.process(np.empty(0, dtype=np.complex128))
        filtered = polyphase_decimate_exact(z, self.taps, self.decimation)
        self._buf = z[filtered.size * self.decimation :].copy()
        return self._inner.process(filtered)

    def flush(self):
        """End-of-stream hook; the exact chain never defers (no-op)."""
        return self._inner.process(np.empty(0, dtype=np.complex128))


def _check_decimation(decimation, lag):
    decimation = int(decimation)
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    if lag % decimation:
        raise ValueError(f"decimation {decimation} must divide the lag {lag}")
    return decimation


#: Working dtype -> (C scalar type, kernel).
_KERNELS = {
    np.dtype(np.complex64): ("float", native.lib.frontend_f32),
    np.dtype(np.complex128): ("double", native.lib.frontend_f64),
}


class FastChannelBank:
    """The receiver's front end: every channel in one native call.

    Each channel mixes its sub-band to DC, low-passes, decimates and
    forms the rotated lagged products, like the exact
    :class:`ChannelizerFrontEnd` but with the mixer folded into the
    filter: with ``wtaps[i] = taps[ntaps-1-i] * mix[i]`` the decimated
    output at window start ``k`` is ``mix[k] * (window_k . wtaps)``.
    The output-rate factor ``mix[k]`` is linear in phase, so in the
    product domain it collapses to one constant per channel,
    ``mix[k] * conj(mix[k + lag]) = exp(+j 2 pi f lag / fs)``
    (:attr:`product_rotations`), which the kernel multiplies in.  The
    products therefore land on the exact chain's to float rounding.
    With one tap, no decimation and one channel at the reference
    offset, the filter is the identity and the rotation is the
    Appendix-B CFO correction: the wideband receiver.

    :meth:`process_block` makes one call to ``frontend_f32`` /
    ``frontend_f64`` (``repro/stream/frontend_body.h``) for all the
    channels: the polyphase FIR over the raw carry and the new block
    (read in place, complex64 or complex128, rounded to the working
    dtype as ``astype`` rounds), the lagged products across each
    channel's carry and the rotation.  Its arithmetic is fixed — explicit
    correctly rounded FMAs in one order, spelled out in the header — so
    the products are the same bits on every host and for any number of
    channels: no BLAS, no vector-width dependence.

    Outputs whose last polyphase row is not yet buffered are withheld
    until it is, so no cut changes an output; :meth:`flush` emits them
    at end of stream, reading zeros past it.  Products are therefore
    block-size invariant, flush included.
    """

    def __init__(
        self,
        frequency_offsets_hz,
        sample_rate,
        lag,
        ntaps=21,
        cutoff_hz=1.4e6,
        decimation=1,
        working_dtype=np.complex128,
    ):
        offsets = [float(f) for f in frequency_offsets_hz]
        if not offsets:
            raise ValueError("FastChannelBank needs at least one channel")
        self.working_dtype = np.dtype(working_dtype)
        if self.working_dtype not in _KERNELS:
            raise ValueError(
                f"working dtype must be complex64 or complex128, not "
                f"{self.working_dtype}"
            )
        self.decimation = d = _check_decimation(decimation, lag)
        taps = design_lowpass(ntaps, cutoff_hz, sample_rate)
        self.ntaps = int(ntaps)
        #: Lag in decimated outputs.
        self.lag = lag // d
        nb = -(-self.ntaps // d)
        i = np.arange(self.ntaps, dtype=np.float64)
        self._weights = np.zeros((len(offsets), nb * d), self.working_dtype)
        rotations = []
        for weights, f in zip(self._weights, offsets):
            mix = np.exp(-1j * (2.0 * np.pi * f * i / sample_rate))
            weights[: self.ntaps] = taps[::-1] * mix
            rotations.append(np.exp(1j * (2.0 * np.pi * f * lag / sample_rate)))
        #: Per-channel product rotation, in the working dtype.
        self.product_rotations = np.array(rotations, self.working_dtype)
        self._ctype, self._kernel = _KERNELS[self.working_dtype]
        #: Each channel's last outputs not yet paired (``_have`` of them).
        self._ycarry = np.zeros((len(offsets), self.lag), self.working_dtype)
        self._have = 0
        self._pointers = tuple(
            native.ffi.from_buffer(self._ctype + "[]", a)
            for a in (self._weights, self.product_rotations, self._ycarry)
        )
        self._empty = np.empty(0, self.working_dtype)
        #: Raw samples not yet consumed by an emitted output.
        self._buf = self._empty
        self._products_out = 0
        self.samples_in = 0

    def process_block(self, block):
        """Filter one wideband block for every channel at once.

        Returns one :class:`FrontEndBlock` per channel, in construction
        order.
        """
        return self._run(block, final=False)

    def flush(self):
        """Emit the withheld outputs at end of stream."""
        return self._run(self._empty, final=True)

    def _run(self, block, final):
        x = np.asarray(block)
        if x.dtype not in _KERNELS or not x.flags.c_contiguous:
            x = np.ascontiguousarray(x, self.working_dtype)
        carry, d, lag = self._buf, self.decimation, self.lag
        channels = self._weights.shape[0]
        cap = max(0, self._have - lag - (-(carry.size + x.size) // d))
        products = np.empty((channels, cap), self.working_dtype)
        weights, rotations, ycarry = self._pointers
        ffi = native.ffi
        emit = self._kernel(
            ffi.from_buffer(self._ctype + "[]", carry), carry.size,
            ffi.from_buffer(x), x.size, x.dtype == np.complex128, final,
            self.ntaps, d, channels, weights, rotations, ycarry,
            self._have, lag,
            ffi.from_buffer(self._ctype + "[]", products), cap,
        )
        if emit < 0:
            raise MemoryError("front-end kernel scratch allocation failed")
        self.samples_in += x.size
        consumed = emit * d
        if consumed >= carry.size:
            self._buf = x[consumed - carry.size :].astype(self.working_dtype)
        else:
            self._buf = np.concatenate((carry[consumed:], x)).astype(
                self.working_dtype, copy=False
            )
        pairs = max(0, self._have + emit - lag)
        self._have = min(self._have + emit, lag)
        start = self._products_out
        self._products_out += pairs
        return [FrontEndBlock(row[:pairs], start) for row in products]
