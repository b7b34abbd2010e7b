"""Ablation: the paper's sign test vs full-template correlation.

SymBee deliberately decodes with 84 sign comparisons per bit so the WiFi
side stays nearly free.  A matched template over the ~378
neighbour-invariant phase positions of the whole 640-sample bit period
is the coherent-optimum alternative.  This bench measures the SNR gap —
the price the paper pays for its near-zero-cost decoder.
"""

import numpy as np

from repro.core.template import TemplateDecoder
from repro.core.link import link_at_snr
from repro.experiments.common import scaled

SNR_GRID_DB = (-8.0, -6.0, -4.0, -2.0)


def ber_pair(snr_db, n_frames, seed=58):
    rng = np.random.default_rng(seed)
    link = link_at_snr(snr_db)
    template_decoder = TemplateDecoder(link.decoder)
    vote = template = sent = 0
    for _ in range(n_frames):
        bits = rng.integers(0, 2, 48)
        result = link.send_bits(bits, rng, keep_phases=True,
                                decode_synchronized=False)
        vote += result.bit_errors
        decoded = template_decoder.decode_synchronized(
            result.phases, result.true_data_start, len(bits)
        )
        template += sum(a != b for a, b in zip(bits, decoded.bits))
        sent += len(bits)
    return vote / sent, template / sent


def test_bench_ablation_template_decoder(run_once, benchmark):
    n_frames = scaled(10)

    def sweep():
        return {snr: ber_pair(snr, n_frames) for snr in SNR_GRID_DB}

    results = run_once(sweep)
    print("\n== ablation: 84-value sign vote vs full-template correlation ==")
    for snr, (vote, template) in results.items():
        print(f"  SNR {snr:+.0f} dB: vote {vote:.3f} | template {template:.3f}")
    benchmark.extra_info.update(
        {f"snr_{snr}": {"vote": v, "template": t}
         for snr, (v, t) in results.items()}
    )

    # The coherent decoder dominates at every noisy point (several dB of
    # gain); both converge to zero where the link is clean.
    for snr, (vote, template) in results.items():
        assert template <= vote + 0.01, snr
    worst = min(SNR_GRID_DB)
    assert results[worst][0] > 0.05          # vote struggles
    assert results[worst][1] < results[worst][0] / 2
