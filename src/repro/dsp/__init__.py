"""Signal-processing substrate: conversions, noise, folding, runs.

These are the low-level numeric primitives that every other subpackage
builds on.  They are deliberately free of any ZigBee/WiFi semantics.
"""

from repro.dsp.signal_ops import (
    db_to_linear,
    linear_to_db,
    dbm_to_watts,
    watts_to_dbm,
    signal_power,
    normalize_power,
    scale_to_power,
    mix,
    wrap_phase,
    measured_snr_db,
)
from repro.dsp.noise import awgn, noise_for_snr, complex_gaussian
from repro.dsp.folding import fold, fold_sum, folded_profile
from repro.dsp.kernels import (
    exact_cmul,
    exact_lagged_products,
    polyphase_decimate_exact,
)
from repro.dsp.runs import longest_run, run_starts, sliding_count
from repro.dsp.traces import save_capture, load_capture, mix_at_sinr
from repro.dsp.resample import resample
from repro.dsp.spectrum import (
    power_spectral_density,
    occupied_bandwidth,
    spectral_centroid,
)

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "signal_power",
    "normalize_power",
    "scale_to_power",
    "mix",
    "wrap_phase",
    "measured_snr_db",
    "awgn",
    "noise_for_snr",
    "complex_gaussian",
    "fold",
    "fold_sum",
    "folded_profile",
    "exact_cmul",
    "exact_lagged_products",
    "polyphase_decimate_exact",
    "longest_run",
    "run_starts",
    "sliding_count",
    "save_capture",
    "load_capture",
    "mix_at_sinr",
    "resample",
    "power_spectral_density",
    "occupied_bandwidth",
    "spectral_centroid",
]
