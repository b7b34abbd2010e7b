"""Folding: periodic-signal detection by coherent summation.

This is the technique SymBee borrows (paper Section V, citing Staelin's
fast folding algorithm) to capture its preamble under heavy noise: a vector
containing ``folds`` repetitions of a length-``period`` pattern is sliced
into subvectors of that period and summed column-wise, so the periodic
component grows linearly with the number of folds while zero-mean noise
grows only with its square root.
"""

import numpy as np


def fold(values, period, folds):
    """Stack ``folds`` consecutive period-sized slices into a matrix.

    Returns an array of shape ``(folds, period)``.  Raises ``ValueError`` if
    ``values`` is too short to supply ``folds * period`` samples.
    """
    values = np.asarray(values)
    if period <= 0:
        raise ValueError("period must be positive")
    if folds <= 0:
        raise ValueError("folds must be positive")
    needed = period * folds
    if values.size < needed:
        raise ValueError(
            f"need {needed} samples to fold {folds}x{period}, got {values.size}"
        )
    return values[:needed].reshape(folds, period)


def circular_folded_profile(angles, period, folds):
    """Sliding circular (phasor) fold of an angle stream.

    ``out[n] = sum_{i=0..folds-1} exp(j * angles[n + period*i])``.

    For angle data near the +-pi wrap boundary — exactly where SymBee's
    -4pi/5 plateau lives — the plain column sum of angles self-cancels
    when noise wraps individual values, while the phasor sum accumulates
    coherently: its angle estimates the common phase and its magnitude
    (up to ``folds``) measures how coherent the ``folds`` repetitions are.
    Returns the complex profile; callers take ``np.angle``/``np.abs``.
    """
    angles = np.asarray(angles, dtype=float)
    if period <= 0:
        raise ValueError("period must be positive")
    if folds <= 0:
        raise ValueError("folds must be positive")
    if angles.size <= period * (folds - 1):
        return np.empty(0, dtype=np.complex128)
    return phasor_folded_profile(np.exp(1j * angles), period, folds)


def phasor_folded_profile(phasors, period, folds):
    """Sliding phasor fold of an already-exponentiated stream.

    Same output as :func:`circular_folded_profile` given
    ``phasors = exp(j*angles)``; receivers that carry the complex
    autocorrelation products around (see
    ``SymBeeDecoder.phasor_stream``) fold their unit phasors directly
    and skip the angle -> exp round trip.
    """
    phasors = np.asarray(phasors, dtype=np.complex128)
    if period <= 0:
        raise ValueError("period must be positive")
    if folds <= 0:
        raise ValueError("folds must be positive")
    span = period * (folds - 1)
    if phasors.size <= span:
        return np.empty(0, dtype=np.complex128)
    out_len = phasors.size - span
    if folds == 1:
        return phasors[:out_len].copy()
    out = phasors[:out_len] + phasors[period : period + out_len]
    for i in range(2, folds):
        out += phasors[i * period : i * period + out_len]
    return out


def folded_profile(values, period, folds):
    """Sliding fold-sum over every start offset.

    ``out[n] = sum_{i=0..folds-1} values[n + period*i]`` for every ``n`` such
    that the last term exists.  Computed via a strided sum so the preamble
    detector can scan an entire capture in O(folds * N).
    """
    values = np.asarray(values, dtype=float)
    if period <= 0:
        raise ValueError("period must be positive")
    if folds <= 0:
        raise ValueError("folds must be positive")
    span = period * (folds - 1)
    if values.size <= span:
        return np.empty(0, dtype=float)
    out_len = values.size - span
    out = np.zeros(out_len, dtype=float)
    for i in range(folds):
        out += values[i * period : i * period + out_len]
    return out
