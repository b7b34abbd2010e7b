"""Ablation/extension: interleaving under bursty WiFi interference.

The paper's Figure 21 notes Hamming(7,4) "can only correct one bit out
of 7"; a WiFi burst covers ~8 consecutive SymBee bits, overwhelming
single-error correction.  A block interleaver (depth 12 over the 84-bit
codeword) maps consecutive on-air errors onto *distinct* codewords —
this bench replays the Figure-20 single-burst setup at hostile SINRs and
shows interleaving erasing the burst entirely.
"""

import numpy as np

from repro.core.coding import (
    deinterleave,
    hamming74_decode,
    hamming74_encode,
    interleave,
)
from repro.core.link import link_at_snr
from repro.experiments.common import scaled
from repro.experiments.fig20_interference_example import SingleBurst

DEPTH = 12
DATA_BITS = 48


def ber_with_scheme(sinr_db, use_interleaving, n_frames, seed=67, snr_db=25.0):
    rng = np.random.default_rng(seed)
    errors = sent = 0
    for _ in range(n_frames):
        link = link_at_snr(snr_db)
        burst_anchor = link.true_bit_positions(84)[30] - 100
        link.interference = SingleBurst(burst_anchor, 270e-6, sinr_db)
        data = rng.integers(0, 2, DATA_BITS)
        coded = hamming74_encode(data)
        on_air = interleave(coded, DEPTH) if use_interleaving else coded
        result = link.send_bits(on_air, rng, decode_synchronized=False)
        if len(result.decoded_bits) == len(on_air):
            received = np.array(result.decoded_bits, dtype=np.int8)
            if use_interleaving:
                received = deinterleave(received, DEPTH)
            decoded, _ = hamming74_decode(received)
            errors += int(np.sum(decoded != data))
        else:
            errors += DATA_BITS
        sent += DATA_BITS
    return errors / sent


def test_bench_ablation_interleaving(run_once, benchmark):
    n_frames = scaled(12)
    grid = (-6.0, -10.0, -15.0)

    def sweep():
        return {
            sinr: (
                ber_with_scheme(sinr, False, n_frames),
                ber_with_scheme(sinr, True, n_frames),
            )
            for sinr in grid
        }

    results = run_once(sweep)
    print("\n== ablation: one 270 us burst — Hamming(7,4) vs + interleaving ==")
    for sinr, (plain, interleaved) in results.items():
        print(f"  SINR {sinr:+.0f} dB: coded {plain:.3f} | "
              f"coded+interleaved {interleaved:.3f}")
    benchmark.extra_info.update(
        {f"sinr_{sinr}": {"coded": p, "interleaved": i}
         for sinr, (p, i) in results.items()}
    )

    # The burst defeats plain Hamming at hostile SINR; interleaving maps
    # its consecutive errors one-per-codeword, all correctable.
    worst = min(grid)
    plain, interleaved = results[worst]
    assert plain > 0.01
    assert interleaved < plain / 2
    for sinr, (p, i) in results.items():
        assert i <= p + 0.01, sinr
