"""Figure 20: a WiFi-interfered SymBee signal still decodes.

The paper shows an all-ones SymBee segment hit by a 270 us 802.11g burst
at 0 dB SINR: the stable windows under the burst drop from 84 clean
votes to about 60, still above the 42-vote majority threshold, so every
bit decodes correctly.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.link import SymBeeLink
from repro.dsp.signal_ops import db_to_linear, scale_to_power
from repro.core.link import link_at_snr
from repro.wifi.ofdm import OfdmTransmitter


class SingleBurst:
    """Interference 'model' placing one WiFi burst at a fixed offset."""

    def __init__(self, start_index, duration_s, sinr_db):
        self.start_index = int(start_index)
        self.duration_s = float(duration_s)
        self.sinr_db = float(sinr_db)

    def contributions(self, n_samples, symbee_power_watts, rng, center_frequency):
        burst = OfdmTransmitter().burst(self.duration_s, rng)
        power = symbee_power_watts / db_to_linear(self.sinr_db)
        burst = scale_to_power(burst, power)
        return [(burst, self.start_index, center_frequency)]


@dataclass(frozen=True)
class InterferenceExampleResult:
    counts: tuple              # per-bit nonnegative votes
    clean_votes: int
    min_votes_under_burst: int
    threshold: int
    all_bits_correct: bool
    burst_duration_us: float
    sinr_db: float


def run(seed=20, n_bits=20, burst_duration_s=270e-6, sinr_db=0.0, snr_db=20.0):
    """All-ones message with one mid-message burst at the given SINR."""
    rng = np.random.default_rng(seed)
    probe = link_at_snr(snr_db)
    # Land the burst in the middle of the message region.
    mid_bit = n_bits // 2
    burst_start = probe.true_bit_positions(n_bits)[mid_bit] - 100

    link = link_at_snr(snr_db)
    link.interference = SingleBurst(burst_start, burst_duration_s, sinr_db)
    bits = [1] * n_bits
    result = link.send_bits(bits, rng)

    counts = result.counts
    window = link.decoder.window
    burst_bits = range(
        mid_bit, min(n_bits, mid_bit + int(np.ceil(burst_duration_s * 31250)) + 1)
    )
    min_under_burst = min((counts[k] for k in burst_bits), default=0)
    return InterferenceExampleResult(
        counts=counts,
        clean_votes=window,
        min_votes_under_burst=int(min_under_burst),
        threshold=link.decoder.tau_sync,
        all_bits_correct=result.bit_errors == 0 and result.preamble_captured,
        burst_duration_us=burst_duration_s * 1e6,
        sinr_db=sinr_db,
    )


def main():
    from repro.experiments.common import print_table

    result = run()
    print(
        f"\n== Fig 20: {result.burst_duration_us:.0f} us WiFi burst at "
        f"{result.sinr_db:.0f} dB SINR over all-ones SymBee ==")
    rows = [(k, c) for k, c in enumerate(result.counts)]
    print_table(("bit index", "nonnegative votes (of 84)"), rows)
    print(
        f"min votes under the burst: {result.min_votes_under_burst} "
        f"(clean: {result.clean_votes}, threshold: {result.threshold})"
    )
    print(f"all bits decoded correctly: {result.all_bits_correct}")
    return result


if __name__ == "__main__":
    main()
