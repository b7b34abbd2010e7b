"""Rational-rate resampling of complex baseband captures.

The modulators in this repo render directly at the receiver rate, so the
main pipeline never resamples.  This exists for the workflows that do
cross rates: replaying a stored 20 Msps trace into a 40 MHz receiver
(Section VI-B style), or feeding the 20 Msps OFDM interference generator
into a 40 Msps capture.  Polyphase filtering via
``scipy.signal.resample_poly``.
"""

from math import gcd

import numpy as np


def resample(samples, rate_in, rate_out):
    """Resample a capture from ``rate_in`` to ``rate_out`` samples/s.

    The ratio must be rational with small terms (it always is between
    the 20/40 Msps rates used here).  Output length is
    ``round(len(samples) * rate_out / rate_in)`` up to polyphase edge
    effects; complex inputs are filtered as I and Q independently.
    """
    from scipy.signal import resample_poly

    if rate_in <= 0 or rate_out <= 0:
        raise ValueError("rates must be positive")
    samples = np.asarray(samples)
    if rate_in == rate_out:
        return samples.copy()
    # Express the ratio as up/down in integers.
    scale = 1
    up, down = rate_out, rate_in
    while (abs(up - round(up)) > 1e-9 or abs(down - round(down)) > 1e-9) and scale < 1e6:
        scale *= 10
        up, down = rate_out * scale, rate_in * scale
    up, down = int(round(up)), int(round(down))
    divisor = gcd(up, down)
    up //= divisor
    down //= divisor
    if max(up, down) > 10_000:
        raise ValueError(
            f"rate ratio {rate_out}/{rate_in} is not a small rational"
        )
    if np.iscomplexobj(samples):
        return (
            resample_poly(samples.real, up, down)
            + 1j * resample_poly(samples.imag, up, down)
        )
    return resample_poly(samples, up, down)
