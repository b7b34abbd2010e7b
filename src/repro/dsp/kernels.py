"""Mode-switched DSP kernels: ``exact`` vs ``fast``.

The streaming receive path promises *bit-exact block-size invariance*
in its default configuration, which forces every float in the chain
through single-rounding real ufunc ops (numpy's native complex multiply,
``np.convolve`` and SIMD ``np.exp`` all change their last bit with array
length or alignment — see ``repro.stream.frontend``).  Those decomposed
kernels leave throughput on the table: the native fused kernels are
2-5x faster on the same data.

This module holds both implementations behind one ``mode`` switch:

* ``"exact"`` — the decomposed single-rounding kernels.  Deterministic
  for any blocking, alignment or SIMD path; the block-size-invariance
  guarantee (and its tests) rests on them.
* ``"fast"`` — numpy's native complex kernels, a BLAS-backed
  sliding-window matmul for FIR/decimation, and an overlap-save FFT FIR
  for long filters.  Results agree with ``exact`` to normal float
  rounding (~1 ulp per op), which is orders of magnitude below every
  decode threshold — validated end-to-end by decode-equivalence tests,
  not bit-equivalence.

Fast mode optionally runs in a float32 working dtype (``complex64``):
half the memory traffic on the front-end hot loops, still ~7 decimal
digits — far beyond what a +-4pi/5 phase-sign decision needs.

The fast kernels here take their bits from numpy and the host's BLAS
(``@`` picks a ``cgemm`` kernel per CPU), so they are not the streaming
receiver's fast front end.  That is
:class:`repro.stream.frontend.FastChannelBank`: one native call per
block that filters, pairs and rotates every demux channel with
explicit correctly rounded FMAs in a fixed order, the same bits on
every host.  The wideband stream path still uses
:func:`stream_lagged_products` and :func:`cmul` from here.
"""

import numpy as np

#: The two kernel modes every switched function accepts.
KERNEL_MODES = ("exact", "fast")


def validate_mode(mode):
    """Return ``mode`` if known, raise ``ValueError`` otherwise."""
    if mode not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
        )
    return mode


# -- complex multiply --------------------------------------------------------


def exact_cmul(a, b):
    """Complex multiply decomposed into single-rounding real ops.

    numpy's native complex-multiply kernel contracts its internal
    multiply-adds into FMAs whose peel/remainder lanes depend on buffer
    alignment and length, so ``a * b`` can differ by one ulp between two
    calls over the *same* element — enough to break bit-exact block-size
    invariance.  Real multiply/add/subtract ufuncs are each a single
    correctly-rounded IEEE operation in every lane, so building the
    product from them is deterministic for any blocking, alignment or
    SIMD path.  (The result is the textbook four-multiply form, which an
    FMA kernel does *not* reproduce — consistency, not agreement with
    ``np.multiply``, is the point.)
    """
    ar, ai = a.real, a.imag
    br, bi = b.real, b.imag
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.complex128)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def cmul(a, b, mode="exact"):
    """``a * b`` through the selected kernel mode."""
    if mode == "exact":
        return exact_cmul(a, b)
    validate_mode(mode)
    return np.multiply(a, b)


# -- lagged autocorrelation products ----------------------------------------


def exact_lagged_products(x, lag):
    """Deterministic ``x[n] * conj(x[n + lag])`` (see :func:`exact_cmul`).

    Semantically :meth:`repro.core.decoder.SymBeeDecoder.raw_products`,
    but decomposed into real ufunc ops so every element matches scalar
    complex arithmetic bit-for-bit regardless of array length or
    alignment — the property the streaming front ends' invariance
    guarantee rests on.
    """
    lag = int(lag)
    if lag <= 0:
        raise ValueError("lag must be positive")
    n = x.size - lag
    if n <= 0:
        return np.empty(0, dtype=np.complex128)
    a, b = x[:n], x[lag:]
    out = np.empty(n, dtype=np.complex128)
    # conj folded in: (ar + j*ai) * (br - j*bi)
    out.real = a.real * b.real + a.imag * b.imag
    out.imag = a.imag * b.real - a.real * b.imag
    return out


def lagged_products(x, lag, mode="exact"):
    """Autocorrelation products through the selected kernel mode.

    Fast mode keeps the input's complex dtype (``complex64`` stays
    ``complex64``); exact mode always yields ``complex128``.
    """
    if mode == "exact":
        return exact_lagged_products(x, lag)
    validate_mode(mode)
    lag = int(lag)
    if lag <= 0:
        raise ValueError("lag must be positive")
    n = x.size - lag
    if n <= 0:
        return np.empty(0, dtype=x.dtype if x.dtype.kind == "c" else np.complex128)
    return x[:n] * np.conjugate(x[lag:])


def stream_lagged_products(x_new, carry, lag, mode="fast"):
    """Continue ``p[n] = x[n] * conj(x[n + lag])`` across a block boundary.

    The stream so far ends with ``carry`` (its last ``min(lag, total)``
    samples, every earlier product already emitted) and now grows by
    ``x_new``.  Returns ``(products, new_carry)`` where ``products`` are
    exactly the newly computable outputs, in stream order, and
    ``new_carry`` is the updated tail (always an owned copy, never a
    view into ``x_new`` — callers may hand in borrowed blocks, e.g.
    shared-memory views).

    This is the streaming front ends' inner loop fused into one kernel
    call: the seam products (pairs straddling the boundary, at most
    ``lag`` of them) read ``carry`` directly and the interior products
    read ``x_new`` in place, so the per-block
    ``concatenate(tail, block)`` pass — a full copy of every sample just
    to make the pairing contiguous — disappears.  Element values are
    unchanged: both kernel modes compute each product elementwise from
    the same two samples as the concatenated form (the exact mode by its
    scalar-exact decomposition, the fast mode by numpy's elementwise
    complex multiply), so per-element bit-identity — and with it the
    front ends' blocking-invariance guarantee — carries over.
    """
    validate_mode(mode)
    lag = int(lag)
    if lag <= 0:
        raise ValueError("lag must be positive")
    if carry.size > lag:
        raise ValueError("carry longer than lag: products were skipped")
    if mode == "exact":
        dtype = np.dtype(np.complex128)
    else:
        dtype = x_new.dtype if x_new.dtype.kind == "c" else np.dtype(np.complex128)
    c = carry.size
    n = c + x_new.size - lag
    if n <= 0:
        new_carry = np.empty(c + x_new.size, dtype=carry.dtype)
        new_carry[:c] = carry
        new_carry[c:] = x_new
        return np.empty(0, dtype=dtype), new_carry
    seam_n = min(c, n)
    out = np.empty(n, dtype=dtype)
    if seam_n:
        a = carry[:seam_n]
        b = x_new[lag - c : lag - c + seam_n]
        if mode == "exact":
            s = out[:seam_n]
            s.real = a.real * b.real + a.imag * b.imag
            s.imag = a.imag * b.real - a.real * b.imag
        else:
            np.multiply(a, np.conjugate(b), out=out[:seam_n])
    main_n = n - seam_n
    if main_n:
        a = x_new[:main_n]
        b = x_new[lag : lag + main_n]
        if mode == "exact":
            s = out[seam_n:]
            s.real = a.real * b.real + a.imag * b.imag
            s.imag = a.imag * b.real - a.real * b.imag
        else:
            np.multiply(a, np.conjugate(b), out=out[seam_n:])
    if x_new.size >= lag:
        new_carry = x_new[x_new.size - lag :].astype(carry.dtype, copy=True)
    else:
        keep = lag - x_new.size
        new_carry = np.empty(lag, dtype=carry.dtype)
        new_carry[:keep] = carry[c - keep :]
        new_carry[keep:] = x_new
    return out, new_carry


# -- FIR filtering -----------------------------------------------------------


def fir_exact(z, taps):
    """Valid-mode FIR with a blocking-independent accumulation order.

    ``out[k] = sum_j taps[j] * z[k + ntaps - 1 - j]`` accumulated
    tap-by-tap on the real/imag planes (fixed tap order) rather than via
    ``np.convolve``, whose internal summation order changes with input
    length — every output element is the same fixed sequence of
    single-rounding real multiply-adds no matter how the stream was
    blocked.  Returns ``max(0, len(z) - ntaps + 1)`` outputs.
    """
    z = np.asarray(z)
    ntaps = len(taps)
    m = z.size - ntaps + 1
    if m <= 0:
        return np.empty(0, dtype=np.complex128)
    acc_r = np.zeros(m, dtype=np.float64)
    acc_i = np.zeros(m, dtype=np.float64)
    for j in range(ntaps):
        shift = ntaps - 1 - j
        s = z[shift : shift + m]
        acc_r += taps[j] * s.real
        acc_i += taps[j] * s.imag
    out = np.empty(m, dtype=np.complex128)
    out.real = acc_r
    out.imag = acc_i
    return out


def fir_fft(z, taps, fft_size=None):
    """Valid-mode FIR via overlap-save FFT convolution.

    O(N log L) instead of O(N * ntaps): the input is processed in
    ``fft_size`` segments overlapping by ``ntaps - 1`` samples, each
    filtered as ``ifft(fft(segment) * fft(taps))`` with the circular
    wrap-around region discarded.  Wins over the direct form once the
    filter is long (>~48 taps at typical block sizes); float rounding
    differs from :func:`fir_exact` by FFT accumulation error (~1e-13
    relative), so this is a ``fast``-mode kernel only.
    """
    z = np.asarray(z, dtype=np.complex128)
    taps = np.asarray(taps)
    ntaps = taps.size
    m = z.size - ntaps + 1
    if m <= 0:
        return np.empty(0, dtype=np.complex128)
    if fft_size is None:
        # Power of two at least 8x the filter span amortizes the
        # per-segment FFT cost without blowing the cache.
        fft_size = 1 << max(10, int(np.ceil(np.log2(8 * ntaps))))
    if fft_size < 2 * ntaps:
        raise ValueError("fft_size must be at least twice the filter length")
    h = np.fft.fft(taps, fft_size)
    step = fft_size - (ntaps - 1)
    out = np.empty(m, dtype=np.complex128)
    for lo in range(0, m, step):
        seg = z[lo : lo + fft_size]
        if seg.size < fft_size:
            seg = np.concatenate(
                (seg, np.zeros(fft_size - seg.size, dtype=np.complex128))
            )
        filt = np.fft.ifft(np.fft.fft(seg) * h)
        take = min(step, m - lo)
        out[lo : lo + take] = filt[ntaps - 1 : ntaps - 1 + take]
    return out


def fir_fast(z, taps):
    """Valid-mode FIR through the fastest native path for the size.

    Short filters go through a BLAS matvec over a zero-copy sliding
    window view (one fused pass, no Python-level tap loop); long filters
    switch to :func:`fir_fft`.  Complex64 input stays complex64 on the
    matmul path.
    """
    z = np.asarray(z)
    ntaps = len(taps)
    if z.size - ntaps + 1 <= 0:
        return np.empty(0, dtype=np.complex128)
    if ntaps > 48:
        return fir_fft(z, taps)
    win = np.lib.stride_tricks.sliding_window_view(z, ntaps)
    rev = np.asarray(taps)[::-1]
    if z.dtype == np.complex64:
        rev = rev.astype(np.complex64)
    return win @ rev


def fir(z, taps, mode="exact"):
    """Valid-mode FIR through the selected kernel mode."""
    if mode == "exact":
        return fir_exact(z, taps)
    validate_mode(mode)
    return fir_fast(z, taps)


# -- polyphase decimating FIR ------------------------------------------------


def polyphase_decimate_exact(z, taps, decimation, offset=0):
    """Decimated valid-mode FIR with blocking-independent rounding.

    Computes ``fir_exact(z, taps)[offset::decimation]`` without ever
    materializing the non-kept outputs: for each tap the strided input
    slice is accumulated in the same fixed tap order as
    :func:`fir_exact`, so every kept output is **bit-identical** to the
    corresponding full-rate output — the decimated exact path is
    literally a subsample of the full-rate exact path.
    """
    z = np.asarray(z)
    decimation = int(decimation)
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    ntaps = len(taps)
    total = z.size - ntaps + 1
    if total <= offset:
        return np.empty(0, dtype=np.complex128)
    m = 1 + (total - 1 - offset) // decimation
    acc_r = np.zeros(m, dtype=np.float64)
    acc_i = np.zeros(m, dtype=np.float64)
    for j in range(ntaps):
        shift = offset + ntaps - 1 - j
        s = z[shift : shift + (m - 1) * decimation + 1 : decimation]
        acc_r += taps[j] * s.real
        acc_i += taps[j] * s.imag
    out = np.empty(m, dtype=np.complex128)
    out.real = acc_r
    out.imag = acc_i
    return out


def polyphase_decimate_fast(z, taps, decimation, offset=0):
    """Decimated valid-mode FIR via a polyphase block-reshape matmul.

    ``decimation == 1`` is a plain BLAS matvec over a zero-copy sliding
    window view.  For ``decimation > 1`` the strided window view defeats
    BLAS's packed kernels (each gather walks non-unit strides), so the
    computation is rephrased on *contiguous* blocks instead: with the
    reversed taps zero-padded to ``nb * D`` and reshaped to ``W`` of
    shape ``(nb, D)``, and the input cut into contiguous non-overlapping
    ``D``-blocks ``B[r] = z[offset + r*D : offset + (r+1)*D]``,

        out[m] = sum_b (B[m + b] . W[b]) = sum_b V[m + b, b]

    where ``V = B @ W.T`` is one fully-contiguous GEMM.  The diagonal
    band sum over the tiny ``nb`` axis costs ``nb`` vector adds.  Complex
    taps are supported; complex64 input stays complex64.  Outputs whose
    zero-padded block window runs past the end of ``z`` (at most one,
    since the padding is shorter than ``D``) are finished with a direct
    dot.

    The bits follow the host's BLAS.  The streaming receiver does not
    use this kernel: its fast front end is
    :class:`repro.stream.frontend.FastChannelBank`, whose native kernel
    fixes the arithmetic on every host.
    """
    z = np.asarray(z)
    decimation = int(decimation)
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    ntaps = len(taps)
    if z.size - ntaps + 1 <= offset:
        return np.empty(0, dtype=np.complex128)
    rev = np.asarray(taps)[::-1]
    if z.dtype == np.complex64:
        rev = rev.astype(np.complex64)
    if decimation == 1:
        win = np.lib.stride_tricks.sliding_window_view(z, ntaps)[offset:]
        return win @ rev
    m_out = 1 + (z.size - ntaps - offset) // decimation
    zo = z[offset:]
    nb = -(-ntaps // decimation)  # ceil: padded tap blocks
    n_blocks = zo.size // decimation
    m_main = n_blocks - nb + 1
    if m_main < 1:
        # Input barely covers a window; the strided view is fine here.
        win = np.lib.stride_tricks.sliding_window_view(z, ntaps)[offset::decimation]
        return win @ rev
    w = np.zeros(nb * decimation, dtype=rev.dtype)
    w[:ntaps] = rev
    w = w.reshape(nb, decimation)
    st = zo.strides[0]
    blocks = np.lib.stride_tricks.as_strided(
        zo, (n_blocks, decimation), (decimation * st, st)
    )
    v = blocks @ w.T
    m_main = min(m_main, m_out)
    out = np.empty(m_out, dtype=v.dtype)
    main = out[:m_main]
    main[:] = v[:m_main, 0]
    for b in range(1, nb):
        main += v[b : m_main + b, b]
    for m in range(m_main, m_out):
        lo = m * decimation
        out[m] = zo[lo : lo + ntaps] @ rev
    return out


def polyphase_decimate(z, taps, decimation, offset=0, mode="exact"):
    """Decimated valid-mode FIR through the selected kernel mode."""
    if mode == "exact":
        return polyphase_decimate_exact(z, taps, decimation, offset)
    validate_mode(mode)
    return polyphase_decimate_fast(z, taps, decimation, offset)


__all__ = [
    "KERNEL_MODES",
    "validate_mode",
    "cmul",
    "exact_cmul",
    "exact_lagged_products",
    "lagged_products",
    "stream_lagged_products",
    "fir",
    "fir_exact",
    "fir_fft",
    "fir_fast",
    "polyphase_decimate",
    "polyphase_decimate_exact",
    "polyphase_decimate_fast",
]
