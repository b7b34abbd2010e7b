"""Adaptive link: vote-count telemetry drives coding decisions.

SymBee's majority-vote decoder produces a free quality signal — how far
each bit's vote count sits from the 42-vote boundary.  This example runs
a link whose SNR drifts over time (a sensor on someone's desk as the
office fills up), feeds the counts into the
:class:`repro.core.LinkQualityEstimator`, and lets
:class:`repro.core.AdaptiveCoding` switch Hamming(7,4) on only when the
estimated BER says frames would otherwise start dying.

    python examples/adaptive_link.py
"""

import numpy as np

from repro.core import (
    AdaptiveCoding,
    LinkQualityEstimator,
    hamming74_decode,
    hamming74_encode,
)
from repro.core.link import link_at_snr
from repro.experiments.common import print_table


def run_epoch(snr_db, use_coding, rng, n_frames=6, data_bits=48):
    """Send frames at one SNR; returns (delivered_data_bits, airtime_bits, counts)."""
    link = link_at_snr(snr_db)
    delivered = airtime = 0
    observations = []
    for _ in range(n_frames):
        data = rng.integers(0, 2, data_bits)
        on_air = hamming74_encode(data) if use_coding else data
        result = link.send_bits(on_air, rng, decode_synchronized=False)
        observations.append((result.decoded_bits, result.counts))
        airtime += len(on_air)
        if len(result.decoded_bits) == len(on_air):
            if use_coding:
                decoded, _ = hamming74_decode(np.array(result.decoded_bits))
            else:
                decoded = np.array(result.decoded_bits)
            if np.array_equal(decoded, data):
                delivered += data_bits
    return delivered, airtime, observations


def main():
    rng = np.random.default_rng(12)
    estimator = LinkQualityEstimator()
    policy = AdaptiveCoding(frame_bits=48, min_samples=84 * 4)

    # The day at the office: clean morning, noisy midday, cleaner evening.
    snr_schedule = [12.0, 8.0, 2.0, -4.0, -4.5, -4.0, 0.0, 8.0, 12.0]

    rows = []
    total_adaptive = total_airtime = 0
    for epoch, snr in enumerate(snr_schedule):
        decision = policy.decide(estimator)
        delivered, airtime, observations = run_epoch(
            snr, decision.use_coding, rng
        )
        estimator.reset()  # track the *current* channel, not history
        for decoded_bits, counts in observations:
            estimator.observe(decoded_bits, counts)
        total_adaptive += delivered
        total_airtime += airtime
        rows.append(
            (
                epoch,
                f"{snr:+.0f}",
                "Hamming(7,4)" if decision.use_coding else "uncoded",
                f"{decision.estimated_ber:.3f}",
                f"{delivered}/{airtime}",
            )
        )
    print_table(
        ("epoch", "SNR dB", "mode chosen", "est. BER (prior)", "data/airtime bits"),
        rows,
        title="adaptive coding over a drifting channel",
    )

    # Fixed policies over the same schedule, for comparison.
    for label, coded in (("always uncoded", False), ("always coded", True)):
        rng_fixed = np.random.default_rng(12)
        delivered = airtime = 0
        for snr in snr_schedule:
            d, a, _ = run_epoch(snr, coded, rng_fixed)
            delivered += d
            airtime += a
        print(f"{label:15s}: {delivered} data bits over {airtime} airtime bits "
              f"({delivered / airtime:.2f})")
    print(f"{'adaptive':15s}: {total_adaptive} data bits over {total_airtime} "
          f"airtime bits ({total_adaptive / total_airtime:.2f})")


if __name__ == "__main__":
    main()
