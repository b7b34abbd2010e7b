"""The channelizer bank's front-end arithmetic, in numpy: the test oracle.

:class:`repro.stream.frontend.FastChannelBank` filters, pairs and
rotates every channel in one C call (``frontend_f32``/``frontend_f64``,
``repro/stream/frontend_body.h``) whose arithmetic is fixed: correctly
rounded fused multiply-adds in one order.  This module spells out the
same arithmetic over a whole stream at once, with no BLAS and no
hardware FMA, so it gives the same bits on every host:

* a float32 FMA is emulated in float64: the product of two float32 is
  exact in float64, TwoSum gives the sum's rounding error exactly, the
  sum is rounded to odd (53 bits, more than the 2 * 24 + 2 that make
  the final rounding to float32 correct), then cast;
* a float64 FMA is computed exactly with :class:`fractions.Fraction`
  and rounded once (slow: keep float64 cases small).

:func:`products` is what the bank emits over any cuts of ``z`` followed
by a flush: the outputs whose polyphase rows run past the end of the
stream read zeros there.
"""

import math
from fractions import Fraction

import numpy as np


def fma32(a, b, c):
    """Correctly rounded float32 ``a * b + c``, elementwise."""
    p = np.asarray(a, np.float32).astype(np.float64) * np.float32(b)
    c = np.asarray(c, np.float32).astype(np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        s = p + c
        bp = s - p
        err = (p - (s - bp)) + (c - bp)
        inexact = np.isfinite(s) & (err != 0)
        even = (s.view(np.int64) & 1) == 0
        odd = np.nextafter(s, np.where(err > 0, np.inf, -np.inf))
        return np.where(inexact & even, odd, s).astype(np.float32)


def _fma64_scalar(a, b, c):
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is already inf or nan
    if not math.isfinite(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        # Exact zeros keep IEEE's signs: -0 only from -0 + -0.
        product_negative = math.copysign(1.0, a) * math.copysign(1.0, b) < 0
        if a * b == 0 and c == 0 and product_negative and math.copysign(1.0, c) < 0:
            return -0.0
        return 0.0
    try:
        return exact.numerator / exact.denominator
    except OverflowError:
        # (copysign would convert ``exact`` to a float and overflow too.)
        return math.inf if exact > 0 else -math.inf


def fma64(a, b, c):
    """Correctly rounded float64 ``a * b + c``, elementwise."""
    a, b, c = np.broadcast_arrays(
        np.asarray(a, np.float64), np.float64(b), np.asarray(c, np.float64)
    )
    out = [_fma64_scalar(*abc) for abc in zip(a.tolist(), b.tolist(), c.tolist())]
    return np.array(out, np.float64).reshape(a.shape)


def _fma(real):
    return fma32 if real == np.float32 else fma64


def cmul(ur, ui, vr, vi):
    """numpy's complex multiply ``u * v`` as the kernel computes it."""
    fma = _fma(ur.dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        return fma(ur, vr, -(ui * vi)), fma(ur, vi, ui * vr)


def filtered(z, weights, ntaps, decimation):
    """Every channel's polyphase FIR outputs over the whole stream.

    ``weights`` is the bank's ``(channels, nb * d)`` zero-padded
    weight matrix; returns ``(re, im)``, each ``(channels, outputs)``.
    """
    d = decimation
    nb = -(-ntaps // d)
    real = np.float32 if weights.dtype == np.complex64 else np.float64
    fma = _fma(real)
    z = np.asarray(z).astype(weights.dtype)
    m = 0 if z.size < ntaps else 1 + (z.size - ntaps) // d
    rows = np.zeros((m + nb - 1) * d, weights.dtype)
    rows[: min(rows.size, z.size)] = z[: rows.size]
    xr = rows.real.reshape(-1, d)
    xi = rows.imag.reshape(-1, d)
    out_r = np.empty((len(weights), m), real)
    out_i = np.empty((len(weights), m), real)
    with np.errstate(invalid="ignore", over="ignore"):
        for c, w in enumerate(weights):
            for b in range(nb):
                re = np.zeros(m, real)
                im = np.zeros(m, real)
                for k in range(d):
                    pr, pi = xr[b : b + m, k], xi[b : b + m, k]
                    wr, wi = w[b * d + k].real, w[b * d + k].imag
                    re = fma(pr, wr, fma(-pi, wi, re))
                    im = fma(pr, wi, fma(pi, wr, im))
                if b == 0:
                    out_r[c], out_i[c] = re, im
                else:
                    out_r[c] += re
                    out_i[c] += im
    return out_r, out_i


def products(z, weights, rotations, ntaps, decimation, lag):
    """Every channel's rotated lagged products: ``(channels, n)`` complex.

    ``lag`` is in decimated outputs (the bank's :attr:`lag`).
    """
    yr, yi = filtered(z, weights, ntaps, decimation)
    n = max(0, yr.shape[1] - lag)
    out = np.empty((len(weights), n), weights.dtype)
    for c, rot in enumerate(rotations):
        ur, ui = yr[c, :n], yi[c, :n]
        vr, vi = yr[c, lag : lag + n], -yi[c, lag : lag + n]
        pr, pi = cmul(ur, ui, vr, vi)
        out[c].real, out[c].imag = cmul(
            pr, pi, np.full(n, rot.real), np.full(n, rot.imag)
        )
    return out
