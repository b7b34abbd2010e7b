"""Ablation: 20 vs 40 MHz WiFi receiver (paper Section VI-B).

"Overall, doubled stable phase values improves the robustness with the
capacity to tolerate twice the errors."  This bench measures BER at both
receiver bandwidths over the same AWGN operating points.
"""

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ, WIFI_SAMPLE_RATE_40MHZ
from repro.core.link import link_at_snr
from repro.experiments.common import scaled


def ber_at(sample_rate, snr_db, n_frames, seed=99):
    rng = np.random.default_rng(seed)
    link = link_at_snr(snr_db, sample_rate=sample_rate)
    errors = sent = 0
    for _ in range(n_frames):
        bits = rng.integers(0, 2, 40)
        result = link.send_bits(bits, rng, decode_synchronized=False)
        errors += result.bit_errors
        sent += result.n_bits
    return errors / sent


def test_bench_ablation_wideband(run_once, benchmark):
    n_frames = scaled(8)
    grid = (-6.0, -4.0, -2.0)

    def sweep():
        out = {}
        for snr in grid:
            out[snr] = (
                ber_at(WIFI_SAMPLE_RATE_20MHZ, snr, n_frames),
                ber_at(WIFI_SAMPLE_RATE_40MHZ, snr, n_frames),
            )
        return out

    results = run_once(sweep)
    print("\n== ablation: BER at 20 vs 40 Msps receivers ==")
    for snr, (narrow, wide) in results.items():
        print(f"  SNR {snr:+.0f} dB: 20 MHz {narrow:.3f} | 40 MHz {wide:.3f}")
    benchmark.extra_info.update(
        {f"snr_{snr}": {"20mhz": n, "40mhz": w} for snr, (n, w) in results.items()}
    )

    # The doubled window must never be meaningfully worse.
    for snr, (narrow, wide) in results.items():
        assert wide <= narrow + 0.05, snr
