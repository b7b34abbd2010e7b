"""Ablation: preamble repetition count (paper Section V).

The paper states "preamble can be further protected by increasing the
repetitions, where four offered reliable capturing".  This bench sweeps
the number of folds used by the capture stage — sending extra leading
zero bits so longer preambles exist on air — and measures capture
accuracy at a noisy operating point.
"""

import numpy as np

from repro.core.preamble import capture_preamble
from repro.core.link import link_at_snr
from repro.experiments.common import scaled


def capture_accuracy(folds, snr_db, n_frames, seed=77):
    """Fraction of frames whose preamble is captured within tolerance."""
    rng = np.random.default_rng(seed)
    link = link_at_snr(snr_db)
    extra_zeros = max(0, folds - 4)
    hits = 0
    for _ in range(n_frames):
        message = list(rng.integers(0, 2, 24))
        bits = [0] * extra_zeros + message
        result = link.send_bits(bits, rng, keep_phases=True)
        pre = capture_preamble(result.phases, link.decoder, folds=folds)
        if pre is None:
            continue
        # n0 may anchor on any of the leading zero bits; accept captures
        # aligned to the bit grid within the preamble region.
        expected_n0 = result.true_data_start - (4 + extra_zeros) * link.decoder.bit_period
        offset = pre.index - expected_n0
        on_grid = abs(offset % link.decoder.bit_period) <= 16 or (
            link.decoder.bit_period - (offset % link.decoder.bit_period) <= 16
        )
        if on_grid and -16 <= offset <= (4 + extra_zeros) * link.decoder.bit_period:
            hits += 1
    return hits / n_frames


def test_bench_ablation_preamble_folds(run_once, benchmark):
    n_frames = scaled(10)

    def sweep():
        return {
            folds: capture_accuracy(folds, snr_db=5.0, n_frames=n_frames)
            for folds in (2, 4, 8)
        }

    rates = run_once(sweep)
    print("\n== ablation: capture accuracy vs preamble folds (SNR +5 dB) ==")
    for folds, rate in rates.items():
        print(f"  folds={folds}: capture accuracy {rate:.2f}")
    benchmark.extra_info.update({f"folds_{k}": v for k, v in rates.items()})

    # More repetitions must not hurt, and the paper's choice of four
    # must already be reliable at the operating SNR.
    assert rates[4] >= rates[2] - 0.15
    assert rates[4] >= 0.8
