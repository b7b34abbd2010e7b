"""Ablation/extension: which FEC earns its rate on a SymBee link.

Three schemes over the real AWGN link at matched data payloads:
uncoded, the paper's Hamming(7,4) (rate 4/7), and the 802.11-standard
K=7 convolutional code (rate 1/2).  Reported as *frame* goodput — data
bits of CRC-clean frames per on-air bit — because frames are
all-or-nothing: per-bit accounting can never justify a rate-1/2 code,
but frame survival can (and does, in the noisy regime).
"""

import numpy as np

from repro.core.coding import hamming74_decode, hamming74_encode
from repro.core.convolutional import conv_encode, viterbi_decode
from repro.core.link import link_at_snr
from repro.experiments.common import scaled

DATA_BITS = 48


def goodput_fraction(scheme, snr_db, n_frames, seed=77):
    """Data bits of bit-exact frames delivered per on-air bit spent."""
    rng = np.random.default_rng(seed)
    link = link_at_snr(snr_db)
    delivered = airtime = 0
    for _ in range(n_frames):
        data = rng.integers(0, 2, DATA_BITS)
        if scheme == "uncoded":
            on_air = data
        elif scheme == "hamming":
            on_air = hamming74_encode(data)
        elif scheme == "conv":
            on_air = conv_encode(data)
        else:
            raise ValueError(scheme)
        result = link.send_bits(on_air, rng, decode_synchronized=False)
        airtime += len(on_air)
        if len(result.decoded_bits) != len(on_air):
            continue
        received = np.array(result.decoded_bits, dtype=np.int8)
        if scheme == "uncoded":
            decoded = received
        elif scheme == "hamming":
            decoded, _ = hamming74_decode(received)
        else:
            decoded = viterbi_decode(received)
        if np.array_equal(decoded, data):
            delivered += DATA_BITS
    return delivered / airtime


def test_bench_ablation_fec(run_once, benchmark):
    n_frames = scaled(10)
    grid = (-7.0, -5.0, -2.0, 2.0)
    schemes = ("uncoded", "hamming", "conv")

    def sweep():
        return {
            snr: {s: goodput_fraction(s, snr, n_frames) for s in schemes}
            for snr in grid
        }

    results = run_once(sweep)
    print("\n== ablation: FEC goodput fraction (data bits per on-air bit) ==")
    for snr, row in results.items():
        cells = " | ".join(f"{s} {v:.3f}" for s, v in row.items())
        print(f"  SNR {snr:+.0f} dB: {cells}")
    benchmark.extra_info.update(
        {f"snr_{snr}": row for snr, row in results.items()}
    )

    # Clean link: uncoded wins (no rate tax).  In the noisy transition
    # region the convolutional code delivers frames the others lose.
    clean = results[max(grid)]
    assert clean["uncoded"] >= clean["hamming"] >= clean["conv"] - 0.02
    transition = results[-5.0]
    assert transition["conv"] >= transition["uncoded"]
    assert transition["conv"] >= transition["hamming"] - 0.02
