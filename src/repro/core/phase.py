"""Cross-observed phase extraction and CFO compensation.

This module glues the WiFi idle-listening output to SymBee semantics:

* :func:`cross_observed_phases` — the dp[n] stream for a capture;
* :func:`compensate_cfo` — the paper's Appendix-B correction.  Because
  ZigBee channels are spaced 5 MHz and every overlapping WiFi/ZigBee
  centre-frequency offset is (3 + 5m) MHz, the offset's contribution to
  dp is the *same* modulo 2*pi for every channel pair, and adding the
  constant +4*pi/5 cancels it;
* stable-phase analysis helpers used by the Appendix-A reproduction and
  the symbol-pair ablation.
"""

import numpy as np

from repro.constants import SYMBEE_STABLE_PHASE
from repro.dsp.runs import longest_run
from repro.dsp.signal_ops import wrap_phase
from repro.wifi.idle_listening import phase_differences


def cross_observed_phases(samples, lag):
    """The idle-listening phase stream dp[n] for a baseband capture."""
    return phase_differences(samples, lag)


def cfo_compensation_phase(frequency_offset_hz, lag, sample_rate):
    """Phase to *add* to dp to undo a centre-frequency offset.

    dp'[n] = dp[n] - 2*pi*f_delta*lag*Ts, so the correction is
    ``+2*pi*f_delta*lag/fs`` wrapped to (-pi, pi].  For every overlapping
    ZigBee/WiFi channel pair this equals +4*pi/5 (paper Appendix B).
    """
    return float(wrap_phase(2.0 * np.pi * frequency_offset_hz * lag / sample_rate))


def compensate_cfo(phases, correction=SYMBEE_STABLE_PHASE):
    """Apply the constant Appendix-B correction and re-wrap."""
    return wrap_phase(np.asarray(phases) + correction)


def pair_phase_stream(symbol_pair, sample_rate=20e6, lag=None):
    """Noiseless dp stream of one two-symbol ZigBee waveform.

    The pair is rendered in isolation at baseband (no CFO), so the stream
    is exactly what a CFO-compensated WiFi receiver would see.
    """
    from repro.zigbee.oqpsk import OqpskModulator

    if lag is None:
        lag = int(round(sample_rate * 0.8e-6))
    mod = OqpskModulator(sample_rate)
    waveform = mod.modulate_symbols(list(symbol_pair))
    return cross_observed_phases(waveform, lag)


def stable_run_lengths(symbol_pair, sample_rate=20e6, tolerance=1e-6):
    """Longest exact-plateau runs at -4pi/5 and +4pi/5 for a symbol pair.

    Returns ``(negative_run, positive_run)``.  The paper's claim (Section
    IV-A) is that (6,7) and (E,F) maximize these over all pairs; the
    ablation bench verifies it exhaustively.
    """
    dp = pair_phase_stream(symbol_pair, sample_rate)
    neg = longest_run(np.abs(dp + SYMBEE_STABLE_PHASE) < tolerance)
    pos = longest_run(np.abs(dp - SYMBEE_STABLE_PHASE) < tolerance)
    return neg, pos


def discrete_phase_levels(sample_rate=20e6, amplitude_floor=1e-3, decimals=6):
    """Observed discrete dp levels across all 256 symbol pairs.

    Appendix A derives 17 possible values, +-i*pi/10 for i = 0..8, for
    samples inside sinusoidal regions.  Samples near pulse zero-crossings
    have ill-defined angles and are excluded via ``amplitude_floor``
    (relative to peak amplitude).
    """
    from repro.zigbee.oqpsk import OqpskModulator

    lag = int(round(sample_rate * 0.8e-6))
    mod = OqpskModulator(sample_rate)
    levels = set()
    for a in range(16):
        for b in range(16):
            x = mod.modulate_symbols([a, b])
            valid = (np.abs(x[:-lag]) > amplitude_floor) & (
                np.abs(x[lag:]) > amplitude_floor
            )
            dp = np.angle(x[:-lag] * np.conj(x[lag:]))
            for value in np.round(dp[valid], decimals):
                levels.add(float(value))
    return sorted(levels)
