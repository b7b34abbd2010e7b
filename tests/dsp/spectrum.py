"""Spectrum estimation: the oracle of the band-plan tests.

Used to validate the frequency-domain claims the whole design rests on:
ZigBee occupies ~2 MHz, WiFi ~16.6 MHz of its 20 MHz channel, and the
front-end mixer places a source at its centre-frequency offset.  Thin
wrappers over Welch's method plus occupied-bandwidth measurement.
"""

import numpy as np


def power_spectral_density(samples, sample_rate, nperseg=1024):
    """Two-sided Welch PSD of a complex baseband capture.

    Returns ``(frequencies, psd)`` sorted by frequency, with frequencies
    spanning ``(-fs/2, fs/2]``.
    """
    from scipy import signal as sp_signal

    samples = np.asarray(samples)
    if samples.size < 8:
        raise ValueError("capture too short for a PSD estimate")
    nperseg = min(nperseg, samples.size)
    freqs, psd = sp_signal.welch(
        samples,
        fs=sample_rate,
        nperseg=nperseg,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(freqs)
    return freqs[order], psd[order]


def occupied_bandwidth(samples, sample_rate, fraction=0.99, nperseg=1024):
    """Bandwidth containing ``fraction`` of the total power (OBW).

    The standard N%-power measurement: integrate the PSD outward from
    both edges until ``(1 - fraction) / 2`` of the power is excluded per
    side; the span between the crossing frequencies is the OBW.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    freqs, psd = power_spectral_density(samples, sample_rate, nperseg)
    total = psd.sum()
    if total <= 0:
        return 0.0
    tail = (1.0 - fraction) / 2.0 * total
    cumulative = np.cumsum(psd)
    low_index = int(np.searchsorted(cumulative, tail))
    high_index = int(np.searchsorted(cumulative, total - tail))
    low_index = min(low_index, freqs.size - 1)
    high_index = min(high_index, freqs.size - 1)
    return float(freqs[high_index] - freqs[low_index])


def spectral_centroid(samples, sample_rate, nperseg=1024):
    """Power-weighted mean frequency — locates a source in the band."""
    freqs, psd = power_spectral_density(samples, sample_rate, nperseg)
    total = psd.sum()
    if total <= 0:
        return 0.0
    return float(np.sum(freqs * psd) / total)
