"""Analytical models (paper Sections II-B and VII).

* ``phase_error_probability`` — Pr_eps, the chance a single stable-phase
  value crosses the zero decision boundary at a given SNR.  The paper
  obtained the distribution empirically from GNURadio; here it is
  estimated by Monte Carlo over the *identical* computation
  (angle(x[n] x*[n+16]) of a noisy 0.5 MHz tone), plus a closed-form
  Gaussian approximation for cross-checking.
* ``ber_from_phase_error`` — the paper's Eq. 2: decoding is majority
  voting over 84 values, so BER is a binomial tail.
* Rate arithmetic: the 31.25 kbps raw rate, the packet-level
  1.736 kHz vs symbol-level 62.5 kHz bandwidth argument, and the
  145.4x speedup figure.
"""

import numpy as np

from repro.constants import (
    SYMBEE_BIT_DURATION,
    SYMBEE_RAW_BIT_RATE,
    SYMBEE_STABLE_PHASE,
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


def phase_error_probability_gaussian(snr_db, lag=16):
    """Closed-form Gaussian approximation of Pr_eps.

    Each sample's phase error is approximately Normal(0, 1/(2*SNR)) at
    moderate SNR; the difference of two independent phase errors has
    variance 1/SNR.  An error occurs when the difference pushes the
    nominal +-4pi/5 across the nearer decision boundary — the zero
    boundary is 4pi/5 away, the wrap boundary (pi) only pi/5 away, so
    both tails contribute.  Accurate above roughly 0 dB; the Monte-Carlo
    estimator is authoritative below that.
    """
    from scipy import stats

    snr = db_to_linear(snr_db)
    sigma = np.sqrt(1.0 / snr)
    to_zero = SYMBEE_STABLE_PHASE
    to_wrap = np.pi - SYMBEE_STABLE_PHASE
    return float(stats.norm.sf(to_zero / sigma) + stats.norm.sf(to_wrap / sigma))


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


def analytic_ber_curve(snr_grid_db, rng, n_samples=200_000):
    """BER(SNR) by Eq. 2 over Monte-Carlo Pr_eps — the paper's Figure 12."""
    return [
        ber_from_phase_error(phase_error_probability(snr, rng, n_samples))
        for snr in snr_grid_db
    ]


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


def bit_airtime_seconds():
    """On-air time of one SymBee bit (32 us)."""
    return SYMBEE_BIT_DURATION


def effective_throughput_bps(data_bits, include_mac=True, ifs_seconds=192e-6):
    """Sustained rate after protocol overheads (what a deployment sees).

    The paper's 31.25 kbps is the in-payload symbol rate.  A continuous
    sender also pays, per packet: the PHY header (SHR + PHR, 6 bytes),
    the MAC header + FCS (11 bytes), the SymBee preamble (4 bits = 4
    payload bytes), the SymBee frame header/CRC (40 bits), and the
    inter-frame spacing (LIFS, 40 symbols = 640 us for long frames; the
    default here uses the 192 us SIFS-like value for short ones —
    overridable).  ``data_bits`` is the application payload per frame.
    """
    from repro.core.frame import frame_overhead_bits
    from repro.zigbee.frame import ppdu_duration_seconds
    from repro.zigbee.mac import MAC_OVERHEAD_BYTES

    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    payload_bytes = 4 + frame_overhead_bits() + data_bits  # 1 byte per bit
    mac_bytes = MAC_OVERHEAD_BYTES if include_mac else 0
    airtime = ppdu_duration_seconds(payload_bytes + mac_bytes) + ifs_seconds
    return data_bits / airtime
