"""Elementary complex-baseband signal operations.

Conventions:

* Signals are one-dimensional ``numpy`` arrays of ``complex128`` samples.
* Power is the mean squared magnitude of the samples (unit load assumed).
* Phases are expressed in radians and wrapped to the interval (-pi, pi].
"""

import numpy as np


def db_to_linear(value_db):
    """Convert a power ratio in decibels to a linear ratio."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    """Convert a linear power ratio to decibels.

    Zero or negative input is clamped to -inf dB rather than raising, so
    measurement code can safely take the dB of an empty band.
    """
    value = np.asarray(value, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(value)


def dbm_to_watts(power_dbm):
    """Convert dBm to watts."""
    return 10.0 ** ((np.asarray(power_dbm, dtype=float) - 30.0) / 10.0)


def watts_to_dbm(power_watts):
    """Convert watts to dBm."""
    power_watts = np.asarray(power_watts, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power_watts) + 30.0


def signal_power(x):
    """Mean power (mean squared magnitude) of a sampled signal."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    flat = x.ravel()
    if np.iscomplexobj(flat):
        # One BLAS pass instead of abs -> square -> mean (and no sqrt).
        return float(np.vdot(flat, flat).real) / flat.size
    if flat.dtype.kind == "f":
        return float(np.dot(flat, flat)) / flat.size
    return float(np.mean(np.abs(x) ** 2))


def scale_to_power(x, target_power):
    """Scale ``x`` so its mean power equals ``target_power`` (linear units)."""
    if target_power < 0:
        raise ValueError("target_power must be nonnegative")
    p = signal_power(x)
    if p == 0.0:
        return np.asarray(x) * np.sqrt(target_power)
    return np.asarray(x) * np.sqrt(target_power / p)


#: Precomputed mixer phasor tables, one per (offset, rate, phase); entries
#: are ~1 MB at typical frame lengths, so the table is kept deliberately
#: small.
_ROTATOR_CACHE = {}
_ROTATOR_CACHE_MAX = 8


def mixer_rotator(frequency_offset_hz, sample_rate_hz, n, initial_phase=0.0):
    """The length-``n`` mixer phasor ``exp(j*(2*pi*f*t + phase0))``, memoized.

    Monte-Carlo trials downconvert waveforms at the same centre-frequency
    offset thousands of times; the complex exponential dominates the
    mixer cost, so it is cached (read-only) and reused.  One table is
    kept per ``(offset, rate, phase)`` and a shorter request is served
    its prefix (sample ``t`` does not depend on the table's length), so
    variable-length bursts share it.  A longer request regrows the table
    to exactly ``n`` samples.
    """
    n = int(n)
    key = (float(frequency_offset_hz), float(sample_rate_hz), float(initial_phase))
    rotator = _ROTATOR_CACHE.get(key)
    if rotator is None or rotator.size < n:
        t = np.arange(n)
        rotator = np.exp(
            1j
            * (2.0 * np.pi * frequency_offset_hz * t / sample_rate_hz + initial_phase)
        )
        rotator.setflags(write=False)
        if key not in _ROTATOR_CACHE:
            while len(_ROTATOR_CACHE) >= _ROTATOR_CACHE_MAX:
                _ROTATOR_CACHE.pop(next(iter(_ROTATOR_CACHE)))
        _ROTATOR_CACHE[key] = rotator
    return rotator[:n]


def mix(x, frequency_offset_hz, sample_rate_hz, initial_phase=0.0):
    """Frequency-shift a complex baseband signal.

    Multiplies ``x`` by ``exp(j*(2*pi*f*t + phase0))`` (the memoized
    :func:`mixer_rotator` table), which models a mixer moving the signal
    by ``frequency_offset_hz``.  A positive offset moves the spectrum up.
    """
    x = np.asarray(x)
    return x * mixer_rotator(frequency_offset_hz, sample_rate_hz, x.size, initial_phase)


def wrap_phase(phi):
    """Wrap angles to the interval (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    wrapped = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
    # np.mod maps odd multiples of pi to -pi; the convention here is +pi.
    if wrapped.ndim == 0:
        return float(np.pi) if wrapped == -np.pi else float(wrapped)
    wrapped[wrapped == -np.pi] = np.pi
    return wrapped
