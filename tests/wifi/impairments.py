"""Analog/digital front-end impairments (test models).

The paper's receiver is a USRP; commodity WiFi front ends add DC offset,
I/Q imbalance and finite ADC resolution.  SymBee's decoding statistic —
the *difference* of phases 16 samples apart — is naturally robust to
several of these, and these models let tests quantify exactly how robust
(see ``tests/core/test_failure_injection.py``).

All functions are pure: they return new arrays.
"""

import numpy as np

from repro.dsp.signal_ops import db_to_linear


def apply_dc_offset(samples, offset):
    """Additive complex DC at baseband (LO leakage)."""
    return np.asarray(samples) + complex(offset)


def apply_iq_imbalance(samples, amplitude_db=0.5, phase_deg=2.0):
    """Gain/phase mismatch between the I and Q chains.

    Standard model: ``y = alpha * x + beta * conj(x)`` with

        alpha = (1 + g e^{j phi}) / 2,   beta = (1 - g e^{j phi}) / 2,

    where ``g`` is the amplitude ratio and ``phi`` the phase error.  The
    image-rejection ratio is ``|alpha|^2 / |beta|^2``; 0.5 dB / 2 degrees
    is a typical uncalibrated commodity front end (~35 dB IRR).
    """
    g = np.sqrt(db_to_linear(amplitude_db))
    phi = np.deg2rad(phase_deg)
    rotor = g * np.exp(1j * phi)
    alpha = (1.0 + rotor) / 2.0
    beta = (1.0 - rotor) / 2.0
    samples = np.asarray(samples)
    return alpha * samples + beta * np.conj(samples)


def image_rejection_ratio_db(amplitude_db, phase_deg):
    """IRR implied by an imbalance setting (diagnostic)."""
    g = np.sqrt(db_to_linear(amplitude_db))
    phi = np.deg2rad(phase_deg)
    rotor = g * np.exp(1j * phi)
    alpha = abs((1.0 + rotor) / 2.0)
    beta = abs((1.0 - rotor) / 2.0)
    if beta == 0:
        return float("inf")
    return float(20.0 * np.log10(alpha / beta))


def clip_magnitude(samples, level):
    """Saturating front end: magnitudes above ``level`` are clipped.

    Phase is preserved (limiter behaviour), which is the usual RF
    saturation model.
    """
    if level <= 0:
        raise ValueError("clip level must be positive")
    samples = np.asarray(samples)
    magnitude = np.abs(samples)
    over = magnitude > level
    out = samples.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        out[over] = samples[over] / magnitude[over] * level
    return out


def quantize(samples, bits, full_scale):
    """Uniform mid-rise ADC on I and Q separately.

    ``bits`` per component; inputs beyond ``full_scale`` saturate.  The
    interesting question for SymBee is how few bits the recycled phase
    stream survives on — see the failure-injection tests.
    """
    if bits < 1:
        raise ValueError("need at least 1 bit")
    if full_scale <= 0:
        raise ValueError("full scale must be positive")
    samples = np.asarray(samples)
    levels = 2 ** int(bits)
    step = 2.0 * full_scale / levels

    def _component(x):
        clipped = np.clip(x, -full_scale, full_scale - step / 2)
        return (np.floor(clipped / step) + 0.5) * step

    return _component(samples.real) + 1j * _component(samples.imag)
