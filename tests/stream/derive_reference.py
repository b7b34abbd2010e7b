"""The numpy derive: reference oracle for the native derive kernel.

:class:`NumpyDerivedStreams` is :class:`repro.stream.session._DerivedStreams`
with its kernel calls replaced by the numpy passes the receiver ran
before the kernel existed: unit phasors, the fixed-order fold, the
signed-zero-aware negativity test, magnitude and normalisation, strict
left-fold prefix sums (``np.cumsum``), the windowed prefix differences
and the hot filter (:func:`index_reference`, which also loads crafted
caches for the walk oracle in ``tests/stream/walk_reference.py``).
Thresholds stay Python floats here, so numpy's own weak-scalar casting
decides how they round against float32 arrays -- the rounding the
kernel is handed pre-computed.  Everything else
(buffers, trimming, the rejoin path) is inherited, so a difference
between the two classes is a difference in derived floats.
"""

import numpy as np

from repro.stream.session import _DerivedStreams


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


def extend_prefix(prefix, values):
    """Continue ``prefix``'s left fold over ``values`` with ``np.cumsum``."""
    n = values.size
    if n == 0:
        return
    tail = prefix.alloc(n)
    tail[:] = values
    tail[0] += prefix.total
    np.cumsum(tail, out=tail)
    prefix.total = tail[-1]


class NumpyDerivedStreams(_DerivedStreams):
    """The derived caches computed by numpy instead of the kernel."""

    def extend(self, products):
        if products.size:
            extend_prefix(self.mask_prefix, products.imag >= 0.0)
            unit_from_products(
                products, self.fill, out=self._u.alloc(products.size)
            )
        hi = self._u.end - self.span
        lo = self.profile_end
        if hi <= lo:
            return
        prof = preamble_fold(
            self._u.view(lo, hi + self.span), self.bit_period, self.folds
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
        extend_prefix(self.coherence_prefix, mag)
        np.maximum(mag, mag.dtype.type(1e-12), out=mag)
        unit = prof
        unit.real /= mag
        unit.imag /= mag
        extend_prefix(self.concentration_prefix, unit)

    def extend_windowed(self):
        w = self.window
        lo = self.win_end
        base = self.count_prefix.base
        if lo < base:
            self.count_win.skip(base - lo)
            self.cohcand_win.skip(base - lo)
            self.conc_win.skip(base - lo)
            self.cohpass_prefix.skip_to(base)
            self.win_end = lo = base
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
        cohcand[counts < self._capture_floor] = -np.inf
        cu = self.concentration_prefix.view(lo, hi + w)
        du = cu[w:] - cu[:-w]
        mag = du.real * du.real
        mag += du.imag * du.imag
        np.sqrt(mag, out=mag)
        conc = self.conc_win.alloc(n)
        np.multiply(mag, 1.0 / w, out=conc)
        index_reference(self, lo, cohcand, conc)
        self.win_end = hi


def index_reference(derived, lo, cohcand, conc):
    """Extend ``cohpass_prefix`` and the hot index from new windows.

    ``cohcand`` / ``conc`` are the cached statistics of window starts
    ``lo, lo + 1, ...``: the coherence-pass prefix counts the starts
    whose candidate coherence reaches ``_coh_pass``, and the starts with
    ``conc >= 0.6`` and ``cohcand >= coherence_min`` (Python floats,
    weak-cast by numpy to the caches' dtype) join the hot index.
    """
    extend_prefix(derived.cohpass_prefix, cohcand >= derived._coh_pass)
    hm = conc >= 0.6
    hm &= cohcand >= derived._coherence_min
    derived.hot.append(lo + hm.nonzero()[0])
