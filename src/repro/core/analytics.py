"""Analytical models (paper Sections II-B and VII).

* ``phase_error_probability`` — Pr_eps, the chance a single stable-phase
  value crosses the zero decision boundary at a given SNR.  The paper
  obtained the distribution empirically from GNURadio; here it is
  estimated by Monte Carlo over the *identical* computation
  (angle(x[n] x*[n+16]) of a noisy 0.5 MHz tone).
* ``ber_from_phase_error`` — the paper's Eq. 2: decoding is majority
  voting over 84 values, so BER is a binomial tail.
* Rate arithmetic: the 31.25 kbps raw rate, the packet-level
  1.736 kHz vs symbol-level 62.5 kHz bandwidth argument, and the
  145.4x speedup figure.
"""

import numpy as np

from repro.constants import (
    SYMBEE_RAW_BIT_RATE,
    SYMBEE_STABLE_WINDOW_20MHZ,
    WIFI_SAMPLE_RATE_20MHZ,
    ZIGBEE_SYMBOL_DURATION,
)
from repro.dsp.noise import complex_gaussian
from repro.dsp.signal_ops import db_to_linear


def phase_error_probability(snr_db, rng, n_samples=200_000, lag=16):
    """Monte-Carlo Pr_eps at a given SNR.

    Simulates the continuous sinusoid inside a SymBee bit 1 (phase
    +4pi/5), adds noise at ``snr_db`` over the sampling bandwidth, and
    counts how often the observed phase difference falls below the zero
    boundary (wrapping past pi counts too, exactly as a real decoder
    would see it).  By symmetry the same value applies to bit 0.
    """
    n = n_samples + lag
    t = np.arange(n) / WIFI_SAMPLE_RATE_20MHZ
    tone = -np.exp(-1j * 2.0 * np.pi * 0.5e6 * t)
    noise = complex_gaussian(n, 1.0 / db_to_linear(snr_db), rng)
    x = tone + noise
    dp = np.angle(x[:-lag] * np.conj(x[lag:]))
    return float(np.mean(dp < 0.0))


def ber_from_phase_error(pr_eps, window=SYMBEE_STABLE_WINDOW_20MHZ, threshold=None):
    """Paper Eq. 2: binomial tail of the majority vote.

    ``BER = sum_{l=threshold..window} C(window, l) p^l (1-p)^(window-l)``
    with the paper's threshold of half the window (42 of 84).
    """
    from scipy import stats

    if not 0.0 <= pr_eps <= 1.0:
        raise ValueError("pr_eps must be a probability")
    if threshold is None:
        threshold = window // 2
    return float(stats.binom.sf(threshold - 1, window, pr_eps))


def raw_bit_rate_bps():
    """SymBee's raw rate: one bit per two ZigBee symbols = 31.25 kbps."""
    return SYMBEE_RAW_BIT_RATE


def packet_level_bandwidth_hz(packet_duration_s=576e-6):
    """Modulation bandwidth of packet-level CTC (Section II-B: 1.736 kHz)."""
    if packet_duration_s <= 0:
        raise ValueError("packet duration must be positive")
    return 1.0 / packet_duration_s


def symbol_level_bandwidth_hz():
    """Modulation bandwidth of symbol-level CTC (Section II-B: 62.5 kHz)."""
    return 1.0 / ZIGBEE_SYMBOL_DURATION


def shannon_gain_factor(packet_duration_s=576e-6):
    """The paper's "36x" bandwidth expansion from packet to symbol level."""
    return symbol_level_bandwidth_hz() / packet_level_bandwidth_hz(packet_duration_s)


def speedup_versus(baseline_bps):
    """SymBee's raw-rate multiple over a baseline (145.4x over C-Morse)."""
    if baseline_bps <= 0:
        raise ValueError("baseline rate must be positive")
    return raw_bit_rate_bps() / baseline_bps

