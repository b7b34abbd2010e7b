"""SymBee: the paper's primary contribution.

Encoding (ZigBee side) writes one byte per SymBee bit into a legitimate
802.15.4 payload — the (6,7) symbol pair for bit 1, (E,F) for bit 0 —
and decoding (WiFi side) thresholds the phase-difference stream the WiFi
idle-listening module computes anyway.  See DESIGN.md Section 2 for how
the paper's internal inconsistencies were resolved.
"""

from repro.core.encoder import SymBeeEncoder, PREAMBLE_BITS
from repro.core.phase import (
    compensate_cfo,
    cfo_compensation_phase,
    cross_observed_phases,
    stable_run_lengths,
    discrete_phase_levels,
)
from repro.core.decoder import SymBeeDecoder, BitDetection, SyncDecodeResult
from repro.core.preamble import capture_preamble, PreambleCapture
from repro.core.coding import (
    hamming74_encode,
    hamming74_decode,
    interleave,
    deinterleave,
)
from repro.core.scrambler import scramble, descramble, prbs7
from repro.core.adaptive import AdaptiveCoding, LinkQualityEstimator
from repro.core.template import TemplateDecoder
from repro.core.energy import EnergyBudget, symbee_budget, energy_comparison
from repro.core.convolutional import conv_encode, viterbi_decode
from repro.core.frame import SymBeeFrame, build_frame_bits, parse_frame_bits
from repro.core.link import SymBeeLink, LinkResult
from repro.core.analytics import (
    phase_error_probability,
    ber_from_phase_error,
    raw_bit_rate_bps,
    packet_level_bandwidth_hz,
    symbol_level_bandwidth_hz,
)

__all__ = [
    "SymBeeEncoder",
    "PREAMBLE_BITS",
    "compensate_cfo",
    "cfo_compensation_phase",
    "cross_observed_phases",
    "stable_run_lengths",
    "discrete_phase_levels",
    "SymBeeDecoder",
    "BitDetection",
    "SyncDecodeResult",
    "capture_preamble",
    "PreambleCapture",
    "hamming74_encode",
    "hamming74_decode",
    "interleave",
    "deinterleave",
    "scramble",
    "descramble",
    "prbs7",
    "AdaptiveCoding",
    "LinkQualityEstimator",
    "TemplateDecoder",
    "EnergyBudget",
    "symbee_budget",
    "energy_comparison",
    "conv_encode",
    "viterbi_decode",
    "SymBeeFrame",
    "build_frame_bits",
    "parse_frame_bits",
    "SymBeeLink",
    "LinkResult",
    "phase_error_probability",
    "ber_from_phase_error",
    "raw_bit_rate_bps",
    "packet_level_bandwidth_hz",
    "symbol_level_bandwidth_hz",
]
