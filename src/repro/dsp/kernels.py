"""Exact numpy reference kernels for the stream front end.

The streaming receiver's front end is the native
:class:`repro.stream.frontend.FastChannelBank`: one call per block that
filters, pairs and rotates every channel with explicit correctly
rounded FMAs in a fixed order, the same bits on every host and for any
blocking.  The kernels here are its numpy reference: the exact chain
(:class:`repro.stream.frontend.ChannelizerFrontEnd` and
:class:`repro.stream.frontend.StreamingFrontEnd`) that the tests compare
the bank against.  No engine builds them.

Each kernel is built from single-rounding real ufunc ops (numpy's
native complex multiply, ``np.convolve`` and SIMD ``np.exp`` all change
their last bit with array length or alignment), so every element is the
same for any blocking, alignment or SIMD path.
"""

import numpy as np


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


def exact_lagged_products(x, lag):
    """Deterministic ``x[n] * conj(x[n + lag])`` (see :func:`exact_cmul`).

    Semantically :meth:`repro.core.decoder.SymBeeDecoder.raw_products`,
    but decomposed into real ufunc ops so every element matches scalar
    complex arithmetic bit-for-bit regardless of array length or
    alignment.
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


def polyphase_decimate_exact(z, taps, decimation, offset=0):
    """Decimated valid-mode FIR with blocking-independent rounding.

    ``out[m] = sum_j taps[j] * z[offset + m * decimation + ntaps - 1 - j]``
    accumulated tap-by-tap over strided slices on the real/imag planes
    (fixed tap order) rather than via ``np.convolve``, whose summation
    order changes with input length.  Only the kept outputs are
    evaluated, and each is bit-identical to the corresponding
    ``decimation=1`` output: the decimated stream is a strict subsample
    of the full-rate one.
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


__all__ = [
    "exact_cmul",
    "exact_lagged_products",
    "polyphase_decimate_exact",
]
