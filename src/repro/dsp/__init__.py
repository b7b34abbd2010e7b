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
    scale_to_power,
    mix,
    wrap_phase,
)
from repro.dsp.noise import awgn, noise_for_snr, complex_gaussian
from repro.dsp.folding import fold, folded_profile
from repro.dsp.kernels import (
    exact_cmul,
    exact_lagged_products,
    polyphase_decimate_exact,
)
from repro.dsp.runs import longest_run, run_starts, sliding_count
from repro.dsp.traces import save_capture, load_capture, mix_at_sinr
from repro.dsp.resample import resample

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "signal_power",
    "scale_to_power",
    "mix",
    "wrap_phase",
    "awgn",
    "noise_for_snr",
    "complex_gaussian",
    "fold",
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
]
