"""Ablation/extension: PRBS whitening vs pathological payloads.

Four consecutive message zeros are indistinguishable from the SymBee
preamble (DESIGN.md Section 4b); a constant all-zero payload is the
worst case, repeating the hazard deterministically.  This bench measures
capture/decode accuracy on such payloads with and without the PRBS-7
scrambler, under enough noise that the capture stage actually has to
choose between candidates.
"""

import numpy as np

from repro.core.scrambler import descramble, scramble
from repro.core.link import link_at_snr
from repro.experiments.common import scaled


def run_case(whiten, snr_db, n_frames, seed=66, data_bits=48):
    rng = np.random.default_rng(seed)
    link = link_at_snr(snr_db)
    data = [0] * data_bits           # pathological constant payload
    correct = 0
    for _ in range(n_frames):
        sent = list(scramble(data)) if whiten else list(data)
        result = link.send_bits(sent, rng)
        if not result.preamble_captured or len(result.decoded_bits) != data_bits:
            continue
        got = (
            list(descramble(list(result.decoded_bits)))
            if whiten
            else list(result.decoded_bits)
        )
        correct += sum(1 for a, b in zip(got, data) if a == b)
    return correct / (n_frames * data_bits)


def test_bench_ablation_scrambler(run_once, benchmark):
    n_frames = scaled(12)

    def sweep():
        return {
            snr: (run_case(False, snr, n_frames), run_case(True, snr, n_frames))
            for snr in (6.0, 10.0)
        }

    results = run_once(sweep)
    print("\n== ablation: all-zero payload, plain vs PRBS-whitened ==")
    for snr, (plain, whitened) in results.items():
        print(f"  SNR {snr:+.0f} dB: plain {plain:.3f} | whitened {whitened:.3f}")
    benchmark.extra_info.update(
        {f"snr_{snr}": {"plain": p, "whitened": w}
         for snr, (p, w) in results.items()}
    )

    # Whitening must deliver the pathological payload reliably and never
    # do worse than sending the raw constant pattern.
    for snr, (plain, whitened) in results.items():
        assert whitened >= 0.95, snr
        assert whitened >= plain - 0.02, snr
