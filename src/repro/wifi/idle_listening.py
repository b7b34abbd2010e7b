"""Autocorrelation-based WiFi idle listening (paper Figure 4 (c)-(d)).

The module continuously computes the per-sample phase difference at the
STS lag,

    dp[n] = angle(x[n] * conj(x[n+L])),    L = 16 samples at 20 Msps,

and declares a WiFi packet when the phase stays near zero with high
autocorrelation energy for the Short Training Field duration (the
Schmidl-Cox plateau).  SymBee's receiver recycles the very same ``dp``
stream — that reuse is the paper's light-weight-decoding argument — so
this module is shared by the WiFi packet detector and the SymBee decoder.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    WIFI_AUTOCORR_LAG_20MHZ,
    WIFI_SAMPLE_RATE_20MHZ,
    WIFI_STF_DURATION,
)
from repro.dsp.runs import run_starts, sliding_window_sum


def phase_differences(samples, lag):
    """``dp[n] = angle(x[n] * conj(x[n + lag]))`` for every valid ``n``.

    With this sign convention a baseband tone ``exp(-j*2*pi*f*t)`` (the
    continuous sinusoid inside the (6,7) pair after downconversion) yields
    ``dp = +2*pi*f*lag*Ts``; see the paper's Section IV-B derivation.

    Contract: the result is always a ``float64`` array of length
    ``max(0, len(samples) - lag)``.  Inputs shorter than ``lag + 1``
    samples — which the streaming tail path produces for every block
    until the front end has buffered one full lag — yield an empty array,
    never an error; a non-positive ``lag`` raises ``ValueError``.
    """
    samples = np.asarray(samples)
    if lag <= 0:
        raise ValueError("lag must be positive")
    if samples.size <= lag:
        return np.empty(0, dtype=np.float64)
    return np.angle(samples[:-lag] * np.conj(samples[lag:])).astype(
        np.float64, copy=False
    )


def autocorrelation_metric(samples, lag, window=None):
    """Normalized Schmidl-Cox timing metric and correlation phase.

    ``m[n] = |P[n]|^2 / R[n]^2`` with ``P[n] = sum_{k<W} x[n+k] conj(x[n+k+lag])``
    and ``R[n] = sum_{k<W} |x[n+k+lag]|^2``, using the classical window
    ``W = lag`` unless overridden.  Values near 1 indicate a signal that
    repeats with period ``lag`` — a WiFi STF.  Returns ``(metric, angle(P))``;
    the windowed phase is robust where individual samples are near zero.

    The window sums run over every sample the receiver captures, so they
    are computed with O(N) cumulative sums rather than O(N*W)
    convolutions (identical up to float accumulation order).

    Contract: returns two independent ``float64`` arrays, each of length
    ``max(0, len(samples) - lag - window + 1)``.  Inputs shorter than
    ``lag + window`` samples — hit constantly by the streaming tail path
    while a block overlap is still filling — yield two distinct empty
    arrays, never an error; a non-positive ``lag`` or ``window`` raises
    ``ValueError``.
    """
    samples = np.asarray(samples)
    if lag <= 0:
        raise ValueError("lag must be positive")
    if window is None:
        window = lag
    if window <= 0:
        raise ValueError("window must be positive")
    if samples.size < lag + window:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    prod = samples[:-lag] * np.conj(samples[lag:])
    energy = np.abs(samples[lag:]) ** 2
    p = sliding_window_sum(prod, window)
    r = sliding_window_sum(energy, window)
    with np.errstate(divide="ignore", invalid="ignore"):
        metric = np.abs(p) ** 2 / np.maximum(r, 1e-30) ** 2
    return (
        metric.astype(np.float64, copy=False),
        np.angle(p).astype(np.float64, copy=False),
    )


@dataclass(frozen=True)
class WifiDetection:
    """A detected WiFi packet candidate."""

    start_index: int
    plateau_length: int


class IdleListening:
    """The continuously running packet-search module of a WiFi receiver."""

    #: Schmidl-Cox timing metric a WiFi STF plateau must exceed.
    metric_threshold = 0.7
    #: Largest autocorrelation phase (radians) an STF plateau may show.
    phase_tolerance = 0.35

    def __init__(self, sample_rate=WIFI_SAMPLE_RATE_20MHZ):
        self.sample_rate = float(sample_rate)
        lag = self.sample_rate * 0.8e-6  # STS repetition period
        if abs(lag - round(lag)) > 1e-9:
            raise ValueError("sample rate must give an integer STS lag")
        #: Autocorrelation lag in samples (16 at 20 Msps, 32 at 40 Msps).
        self.lag = int(round(lag))
        if self.sample_rate == WIFI_SAMPLE_RATE_20MHZ:
            assert self.lag == WIFI_AUTOCORR_LAG_20MHZ
        #: Samples a Schmidl-Cox plateau must persist to call a WiFi packet.
        #: The STF lasts 8 us; the plateau is about one lag shorter, and we
        #: leave one further lag of margin for noisy edges.
        self.min_plateau = int(WIFI_STF_DURATION * self.sample_rate) - 3 * self.lag

    def phase_stream(self, samples):
        """The dp[n] stream SymBee recycles (paper Figure 4 (c))."""
        return phase_differences(samples, self.lag)

    def detect_wifi_packets(self, samples):
        """All STF plateaus in a capture, as :class:`WifiDetection` list.

        A WiFi packet needs both a high timing metric and near-zero phase
        difference sustained for the STF duration; a ZigBee signal keeps
        its phase at +-4pi/5 or other nonzero levels, so it never passes —
        the standard-compatibility property the paper leans on.
        """
        samples = np.asarray(samples)
        metric, corr_phase = autocorrelation_metric(samples, self.lag)
        if metric.size == 0:
            return []
        good = (metric > self.metric_threshold) & (
            np.abs(corr_phase) < self.phase_tolerance
        )
        starts = run_starts(good, self.min_plateau)
        detections = []
        for start in starts:
            end = start
            while end < good.size and good[end]:
                end += 1
            detections.append(
                WifiDetection(start_index=int(start), plateau_length=int(end - start))
            )
        return detections
