"""Block-wise idle-listening front ends with exact tail state.

The batch pipeline hands a whole capture to
:meth:`repro.core.decoder.SymBeeDecoder.phasor_stream` at once; a
continuously listening receiver only ever sees fixed-size sample blocks.
Both autocorrelation quantities the receiver derives are *local*:

* the product ``p[n] = x[n] * conj(x[n + lag])`` pairs exactly two
  samples, so carrying the last ``lag`` samples across block boundaries
  reproduces the batch stream **bit-identically** — every element is the
  same two-operand multiply regardless of where blocks were cut;
* the Schmidl-Cox metric at ``n`` windows ``lag + window`` samples, so a
  ``lag + window - 1`` overlap lets each block's metric entries be
  recomputed exactly over their own windows.  (The batch implementation
  uses one whole-capture cumulative sum, so metric values can differ
  from the streaming ones by float accumulation order — the same
  caveat :func:`repro.dsp.runs.sliding_window_sum` already documents.
  The decode path never consumes the metric, only the products.)

:class:`ChannelizerFrontEnd` adds per-ZigBee-channel isolation for the
multi-sender demux: because every overlapping WiFi/ZigBee pair shares
the *same* Appendix-B correction (+4pi/5), concurrent senders on
different ZigBee channels land on identical product-domain rotations and
cannot be separated after the autocorrelation.  Separation has to happen
before it: mix the 5 MHz-spaced sub-band to DC, low-pass away the other
sub-bands, then form products on the filtered stream (which then needs
no CFO correction at all — the channel sits at its transmit baseband).

Since PR 5 the channelizer also **decimates**: each sub-band only holds
a 2 MHz ZigBee signal, so after the low-pass nothing above ~1.4 MHz
survives and the filtered stream can be kept at a fraction of the
wideband rate.  The decimation factor must divide the autocorrelation
lag, the stable window and the bit period (all multiples of 4 at
20 Msps), so every downstream quantity scales exactly; the polyphase
implementation evaluates the FIR *only at the kept output positions*,
making the whole per-channel chain cost proportional to the decimated
rate.  Two kernel modes (see :mod:`repro.dsp.kernels`): ``exact``
(default, bit-exact block-size invariance — kept outputs are literally
a subsample of the full-rate exact stream) and ``fast`` (native complex
kernels, mixer folded into the filter taps, optional complex64 working
dtype; decode-equivalent, not bit-equivalent).
"""

from dataclasses import dataclass

import numpy as np

from repro.dsp.kernels import (
    exact_cmul,
    exact_lagged_products,
    lagged_products as _lagged_products,
    polyphase_decimate,
    stream_lagged_products,
    validate_mode,
)
from repro.wifi.idle_listening import autocorrelation_metric


def lagged_products(x, lag):
    """Deterministic ``x[n] * conj(x[n + lag])`` (exact kernel).

    Kept as a module-level alias of
    :func:`repro.dsp.kernels.exact_lagged_products` — the streaming
    subsystem's original home for it.
    """
    return exact_lagged_products(x, lag)


@dataclass(frozen=True)
class FrontEndBlock:
    """Newly computed front-end outputs for one input block.

    ``start`` is the global stream index (product coordinates: product
    ``k`` pairs samples ``k`` and ``k + lag``) of ``products[0]``.
    ``metric``/``corr_phase`` are ``None`` unless the front end was built
    with ``compute_metric=True``; their global coordinates coincide with
    the product coordinates (metric ``k`` windows samples ``k ..
    k + lag + window``).
    """

    products: np.ndarray
    start: int
    metric: "np.ndarray | None" = None
    corr_phase: "np.ndarray | None" = None


class StreamingFrontEnd:
    """Chunked autocorrelation products (and optionally the S&C metric).

    Feed arbitrary-size blocks to :meth:`process`; in the default
    ``exact`` mode the concatenation of the returned ``products`` arrays
    is bit-identical to ``lagged_products(whole_stream, lag)`` for any
    blocking, including blocks shorter than the lag — every element is
    scalar-exact complex arithmetic (see
    :func:`repro.dsp.kernels.exact_cmul`), unlike numpy's FMA-contracted
    native multiply whose rounding drifts with length and alignment.
    ``fast`` mode uses the native kernel (decode-equivalent only) and
    honours a complex64 working ``dtype``.
    """

    def __init__(self, lag, window=None, compute_metric=False, mode="exact",
                 dtype=np.complex128):
        self.lag = int(lag)
        if self.lag <= 0:
            raise ValueError("lag must be positive")
        self.window = self.lag if window is None else int(window)
        if self.window <= 0:
            raise ValueError("window must be positive")
        self.compute_metric = bool(compute_metric)
        self.mode = validate_mode(mode)
        self.dtype = np.dtype(np.complex128 if mode == "exact" else dtype)
        #: Samples carried across block boundaries.
        self.overlap = (
            self.lag + self.window - 1 if self.compute_metric else self.lag
        )
        self._tail = np.empty(0, dtype=self.dtype)
        #: Total samples consumed so far.
        self.samples_in = 0
        self._products_out = 0
        self._metric_out = 0

    def reset(self):
        self._tail = np.empty(0, dtype=self.dtype)
        self.samples_in = 0
        self._products_out = 0
        self._metric_out = 0

    def process(self, block):
        """Consume one sample block, return the newly computable outputs."""
        block = np.asarray(block, dtype=self.dtype)
        if self.mode != "exact" and not self.compute_metric:
            # Fused streaming path: seam + interior products straight
            # from the carry and the new block, no concatenate pass.
            # Per-element bit-identical to the concatenated form (see
            # the kernel), so the invariance tests cover both paths.
            start = self._products_out
            products, self._tail = stream_lagged_products(
                block, self._tail, self.lag, self.mode
            )
            self.samples_in += block.size
            self._products_out += products.size
            return FrontEndBlock(
                products=products, start=start, metric=None, corr_phase=None
            )
        x = np.concatenate((self._tail, block)) if self._tail.size else block
        self.samples_in += block.size
        start = self._products_out

        total_products = max(0, self.samples_in - self.lag)
        new_products = total_products - self._products_out
        if new_products > 0:
            prod = _lagged_products(x, self.lag, self.mode)
            products = prod[prod.size - new_products :]
            self._products_out = total_products
        else:
            products = np.empty(0, dtype=self.dtype)

        metric = corr_phase = None
        if self.compute_metric:
            total_metric = max(0, self.samples_in - self.lag - self.window + 1)
            new_metric = total_metric - self._metric_out
            if new_metric > 0:
                m, a = autocorrelation_metric(x, self.lag, self.window)
                metric = m[m.size - new_metric :]
                corr_phase = a[a.size - new_metric :]
                self._metric_out = total_metric
            else:
                metric = np.empty(0, dtype=np.float64)
                corr_phase = np.empty(0, dtype=np.float64)

        if x.size >= self.overlap:
            self._tail = x[x.size - self.overlap :].copy()
        else:
            self._tail = x if x is not block else x.copy()
        return FrontEndBlock(
            products=products, start=start, metric=metric, corr_phase=corr_phase
        )

    def flush(self):
        """End-of-stream hook; products are never deferred here (no-op)."""
        return self.process(np.empty(0, dtype=self.dtype))


def design_lowpass(ntaps, cutoff_hz, sample_rate):
    """Hamming-windowed-sinc low-pass FIR taps with unit DC gain.

    Deliberately short filters: the SymBee plateau is only ``window + lag``
    samples long and shrinks by ``ntaps - 1`` samples after filtering, so
    channel isolation trades stopband attenuation against plateau loss
    (see ``docs/streaming.md``).
    """
    ntaps = int(ntaps)
    if ntaps < 3 or ntaps % 2 == 0:
        raise ValueError("ntaps must be an odd integer >= 3")
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


def supported_decimations(sample_rate=None):
    """Legal channelizer decimation factors at ``sample_rate``.

    A decimation factor must divide both the autocorrelation lag (so
    the decimated product stream still realizes the 0.8 us lag as a
    whole number of samples) and the SymBee bit period (so the bit grid
    stays exactly periodic in decimated units).  The stable-plateau
    vote *window* need not divide evenly — the decoder floors it (84 ->
    10 at decimation 8, trimming four full-rate positions off the
    plateau tail) — so the legality analysis is ``gcd(lag,
    bit_period)``: its divisors are ``(1, 2, 4, 8, 16)`` at 20 Msps and
    twice that at 40 Msps.  Factors above 8 at 20 Msps are *legal* but
    leave at most 5 decimated plateau positions per bit next to a
    21-tap anti-alias FIR's edge loss — decode quality collapses, so
    the engine and CLI treat 8 as the practical ceiling.
    """
    from math import gcd

    from repro.constants import (
        SYMBEE_BIT_PERIOD_20MHZ,
        WIFI_AUTOCORR_LAG_20MHZ,
        WIFI_SAMPLE_RATE_20MHZ,
    )

    if sample_rate is None:
        sample_rate = WIFI_SAMPLE_RATE_20MHZ
    scale = int(sample_rate / WIFI_SAMPLE_RATE_20MHZ)
    g = gcd(WIFI_AUTOCORR_LAG_20MHZ * scale, SYMBEE_BIT_PERIOD_20MHZ * scale)
    return tuple(d for d in range(1, g + 1) if g % d == 0)


class ChannelizerFrontEnd:
    """One demux sub-band: mix to DC, low-pass, decimate, then products.

    Three implementation points keep the default ``exact`` chain
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

    ``mode="fast"`` swaps all of the above for native kernels and folds
    the mixer into the filter: with ``wtaps[i] = taps[ntaps-1-i] *
    mix[i]`` the decimated output is ``mix[k] * (window_k . wtaps)``, so
    the wideband-rate mixing pass disappears entirely.  The output-rate
    factor ``mix[k]`` is dropped too: the mixer has linear phase, so in
    the *product* domain it collapses to one constant,
    ``mix[k] * conj(mix[k + lag]) = exp(+j 2 pi f lag / fs)`` — exposed
    as :attr:`product_rotation` for the consumer to fold into its own
    per-product rotation (fast-mode ``products`` are therefore uniformly
    rotated by its inverse until the consumer applies it; magnitudes,
    and hence nothing in the filter response, are affected).
    ``working_dtype=numpy.complex64`` additionally halves memory
    traffic.  Fast mode is decode-equivalent, not bit-equivalent.

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
        mode="exact",
        working_dtype=None,
    ):
        self.frequency_offset_hz = float(frequency_offset_hz)
        self.sample_rate = float(sample_rate)
        self.taps = design_lowpass(ntaps, cutoff_hz, sample_rate)
        self.ntaps = int(ntaps)
        self.decimation = int(decimation)
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if lag % self.decimation:
            raise ValueError(
                f"decimation {self.decimation} must divide the lag {lag}"
            )
        self.mode = validate_mode(mode)
        if working_dtype is None:
            self.working_dtype = np.dtype(np.complex128)
        else:
            self.working_dtype = np.dtype(working_dtype)
            if self.mode == "exact" and self.working_dtype != np.complex128:
                raise ValueError(
                    "exact mode requires a complex128 working dtype"
                )
        #: Global input-sample index of the next output's FIR window
        #: start; outputs are kept at window starts divisible by the
        #: decimation factor, so this advances in decimation steps.
        self._next_win = 0
        self._buf = np.empty(0, dtype=self.working_dtype)
        self._index = 0  # global input-sample index of the next block
        self._inner = StreamingFrontEnd(
            lag // self.decimation, mode=self.mode, dtype=self.working_dtype
        )
        period = _mixer_period(self.frequency_offset_hz, self.sample_rate)
        if period is not None:
            t = np.arange(period, dtype=np.float64)
            self._mixer_table = np.exp(
                -1j
                * (2.0 * np.pi * self.frequency_offset_hz * t / self.sample_rate)
            )
        else:
            self._mixer_table = None
        if self.mode == "fast":
            # Mixer folded into the taps.  The mixed-and-filtered output
            # at window start k is
            #   y[k] = sum_i taps[ntaps-1-i] * mix[k+i] * x[k+i]
            #        = mix[k] * sum_i (taps[ntaps-1-i] * mix[i]) * x[k+i]
            # so dotting raw windows with wtaps[i] = taps[ntaps-1-i] *
            # mix[i] reproduces the exact chain up to the output-rate
            # factor mix[k] — which the product domain reduces to the
            # constant product_rotation below, so it is never applied
            # per sample at all.
            i = np.arange(self.ntaps, dtype=np.float64)
            mix_i = np.exp(
                -1j * (2.0 * np.pi * self.frequency_offset_hz * i / self.sample_rate)
            )
            wtaps = self.taps[::-1] * mix_i
            # polyphase_decimate_fast dots windows with its taps[::-1],
            # so hand it the pre-reversed weight vector.
            self._fast_taps = wtaps[::-1].copy()
            if self.working_dtype == np.complex64:
                self._fast_taps = self._fast_taps.astype(np.complex64)
            #: What a product formed on this front end's output must be
            #: multiplied by to match the exact mixed chain:
            #: mix[k] * conj(mix[k + lag]) = exp(+j 2 pi f lag / fs),
            #: constant because the mixer's phase is linear in k.
            self.product_rotation = complex(
                np.exp(
                    1j
                    * (2.0 * np.pi * self.frequency_offset_hz * lag / self.sample_rate)
                )
            )
        else:
            self._fast_taps = None
            self.product_rotation = 1.0

    @property
    def samples_in(self):
        return self._index

    def reset(self):
        self._buf = np.empty(0, dtype=self.working_dtype)
        self._next_win = 0
        self._index = 0
        self._inner.reset()

    def _mix_exact(self, block):
        """Global-index mixer multiply (the exact-mode front half)."""
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

    def _emittable(self, z_size):
        """How many buffered outputs this mode emits mid-stream.

        Exact mode emits every computable output.  Fast mode with
        ``decimation > 1`` withholds outputs whose zero-padded polyphase
        block window runs past the buffer (at most one): those would
        fall back to a direct dot whose rounding differs from the GEMM
        band sum, and *which* positions take the fallback depends on
        where the stream was cut — the one ulp-level leak of block
        boundaries into fast-mode products.  Deferring them until they
        are GEMM-computable (or to :meth:`flush`, where the boundary is
        the cut-independent end of stream) makes fast products
        cut-invariant too.
        """
        total = z_size - self.ntaps + 1
        if total <= 0:
            return 0
        m = 1 + (total - 1) // self.decimation
        if self.mode == "exact" or self.decimation == 1:
            return m
        nb = -(-self.ntaps // self.decimation)
        return min(m, max(z_size // self.decimation - nb + 1, 0))

    def process(self, block):
        """Consume one wideband block, return this sub-band's new products."""
        block = np.asarray(block, dtype=self.working_dtype)
        if self.mode == "exact":
            # Mix first (global-index table), buffer the mixed stream.
            new = self._mix_exact(np.asarray(block, dtype=np.complex128))
        else:
            # Fast mode buffers the raw stream; the mixer rides in the
            # folded taps, and the residual per-output factor collapses
            # to the constant product_rotation at the product level.
            new = block
        self._index += block.size
        z = np.concatenate((self._buf, new)) if self._buf.size else new
        # The buffer always starts at global index _next_win, so window
        # starts are local 0, D, 2D, ...
        m = self._emittable(z.size)
        if m < 1:
            self._buf = z if z is not new else z.copy()
            return self._inner.process(np.empty(0, dtype=self.working_dtype))
        if self.mode == "exact":
            filtered = polyphase_decimate(z, self.taps, self.decimation, mode="exact")
        else:
            filtered = polyphase_decimate(
                z, self._fast_taps, self.decimation, mode="fast", trailing="defer"
            )
        consumed = m * self.decimation
        self._next_win += consumed
        self._buf = z[consumed:].copy()
        return self._inner.process(filtered)

    def flush(self):
        """Emit any deferred tail outputs at end-of-stream.

        Fast mode's mid-stream deferral (see :meth:`_emittable`) can
        leave up to one computable output in the buffer; the stream end
        is the same for every blocking, so finishing it with the direct
        dot here is deterministic.  Exact mode never defers — this is a
        no-op returning an empty block.
        """
        z = self._buf
        total = z.size - self.ntaps + 1
        if total <= 0 or self.mode == "exact":
            return self._inner.process(np.empty(0, dtype=self.working_dtype))
        m = 1 + (total - 1) // self.decimation
        filtered = polyphase_decimate(
            z, self._fast_taps, self.decimation, mode="fast"
        )
        consumed = m * self.decimation
        self._next_win += consumed
        self._buf = z[consumed:].copy()
        return self._inner.process(filtered)


class FastChannelBank:
    """Drive several fast-mode channelizers with one shared GEMM.

    In fast mode every :class:`ChannelizerFrontEnd` of a demux bank
    buffers the *same* raw wideband stream with the same filter length
    and decimation factor — only the mixer-folded tap vectors (and the
    per-channel product state) differ.  Filtering the channels one at a
    time therefore repeats the dtype conversion, the tail concatenate,
    the carry copy and the strided block view C times on identical
    data.  The bank keeps one copy of that shared raw buffer and builds
    the strided block view once per block; each channel then runs its
    own ``(n, D) @ (D, nb)`` polyphase product against the shared view.

    :meth:`process_block` is *bit-identical* to calling each front
    end's ``process`` on the same blocks: the per-channel matrix
    product has exactly the shape ``polyphase_decimate_fast`` issues
    (BLAS kernels are shape-dependent, so a single stacked
    ``(n, D) @ (D, C * nb)`` product would diverge at the ulp level
    from the single-channel path a one-channel engine takes), the
    band-sum accumulation order matches the kernel, and the
    per-channel lagged-product state is still owned by each front end's
    inner :class:`StreamingFrontEnd`.

    Only worth it for ``decimation > 1`` (at ``D == 1`` the polyphase
    weight matrix degenerates to one column per tap); construction
    rejects anything but fast-mode front ends with shared geometry.
    """

    def __init__(self, front_ends):
        front_ends = list(front_ends)
        if len(front_ends) < 2:
            raise ValueError("FastChannelBank needs at least two front ends")
        first = front_ends[0]
        for fe in front_ends:
            if fe.mode != "fast":
                raise ValueError("FastChannelBank requires fast-mode front ends")
            if (
                fe.ntaps != first.ntaps
                or fe.decimation != first.decimation
                or fe.working_dtype != first.working_dtype
            ):
                raise ValueError(
                    "FastChannelBank front ends must share ntaps, decimation "
                    "and working dtype"
                )
        if first.decimation < 2:
            raise ValueError("FastChannelBank requires decimation >= 2")
        self.front_ends = front_ends
        self.ntaps = first.ntaps
        self.decimation = first.decimation
        self.working_dtype = first.working_dtype
        d = self.decimation
        nb = -(-self.ntaps // d)
        self._nb = nb
        # Per-channel window-dot vectors (the kernels dot windows with
        # taps[::-1], and _fast_taps is handed to them pre-reversed)
        # and their zero-padded (nb, D) polyphase weight matrices.  The
        # dot vector keeps the exact memory layout the single-channel
        # kernel uses (reversed view, or a contiguous astype copy at
        # complex64) — BLAS dot products are stride-dependent at the
        # ulp level, and the tails must stay bit-identical to it.
        self._wdots = []
        self._weights = []
        for fe in front_ends:
            wdot = fe._fast_taps[::-1]
            if self.working_dtype == np.complex64:
                wdot = wdot.astype(np.complex64)
            self._wdots.append(wdot)
            padded = np.zeros(nb * d, dtype=wdot.dtype)
            padded[: self.ntaps] = wdot
            self._weights.append(padded.reshape(nb, d))
        self._buf = np.empty(0, dtype=self.working_dtype)
        self._index = 0

    def process_block(self, block):
        """Filter one wideband block for every channel at once.

        Returns one :class:`FrontEndBlock` per front end, in
        construction order — the same objects each front end's own
        ``process`` would have produced for this block sequence.
        """
        block = np.asarray(block, dtype=self.working_dtype)
        self._index += block.size
        z = np.concatenate((self._buf, block)) if self._buf.size else block
        # Same deferred-emission count as each front end's own process
        # (all front ends share geometry, so one count serves all) —
        # every emitted output goes through the GEMM band sum, keeping
        # fast products cut-invariant and the bank bit-identical to the
        # solo path.
        m_emit = self.front_ends[0]._emittable(z.size)
        if m_emit < 1:
            self._buf = z if z is not block else z.copy()
            empty = np.empty(0, dtype=self.working_dtype)
            return [fe._inner.process(empty) for fe in self.front_ends]
        d = self.decimation
        outs = self._filter_all(z, m_emit)
        consumed = m_emit * d
        self._buf = z[consumed:].copy()
        blocks = []
        for fe, out in zip(self.front_ends, outs):
            fe._next_win += consumed
            fe._index = self._index
            blocks.append(fe._inner.process(out))
        return blocks

    def flush(self):
        """Emit the deferred tail outputs at end-of-stream.

        Mirrors :meth:`ChannelizerFrontEnd.flush` per channel — the
        same kernel call on the same buffered tail, so a bank run stays
        bit-identical to solo runs through the end of the stream.
        """
        z = self._buf
        total = z.size - self.ntaps + 1
        if total <= 0:
            empty = np.empty(0, dtype=self.working_dtype)
            return [fe._inner.process(empty) for fe in self.front_ends]
        d = self.decimation
        m = 1 + (total - 1) // d
        consumed = m * d
        outs = [
            polyphase_decimate(z, fe._fast_taps, d, mode="fast")
            for fe in self.front_ends
        ]
        self._buf = z[consumed:].copy()
        blocks = []
        for fe, out in zip(self.front_ends, outs):
            fe._next_win += consumed
            blocks.append(fe._inner.process(out))
        return blocks

    def _filter_all(self, z, m_main):
        """Band-sum GEMM outputs for every channel (all GEMM-covered).

        The caller's ``m_main`` never exceeds ``n_blocks - nb + 1``
        (that is what :meth:`ChannelizerFrontEnd._emittable` returns),
        so no output needs the direct-dot fallback whose rounding
        differs from the band sum.
        """
        d, nb = self.decimation, self._nb
        n_blocks = z.size // d
        st = z.strides[0]
        blocks = np.lib.stride_tricks.as_strided(
            z, (n_blocks, d), (d * st, st)
        )
        outs = []
        for weight in self._weights:
            v = blocks @ weight.T
            out = np.empty(m_main, dtype=v.dtype)
            out[:] = v[:m_main, 0]
            for b in range(1, nb):
                out += v[b : m_main + b, b]
            outs.append(out)
        return outs
