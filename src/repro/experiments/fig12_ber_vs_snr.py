"""Figure 12: numerical bit error rate under different SNR.

The paper computes BER analytically (its Eq. 2) from an empirically
obtained per-value error probability Pr_eps.  Here both halves run:
Pr_eps comes from Monte Carlo over the identical phase computation, Eq. 2
turns it into BER, and a full-PHY simulated BER (ground-truth-timed
synchronized decoding, isolating the decoder from preamble capture, over
an AWGN link) cross-checks the analytic curve.

SNR convention: per-sample over the receiver's full 20 MHz sampling
bandwidth.  EXPERIMENTS.md discusses how this maps onto the paper's axis.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.analytics import ber_from_phase_error, phase_error_probability
from repro.core.link import link_at_snr
from repro.experiments.common import scaled


@dataclass(frozen=True)
class BerVsSnrResult:
    snr_db: tuple
    pr_eps: tuple
    ber_analytic: tuple
    ber_simulated: tuple


DEFAULT_SNR_GRID = (-10, -8, -6, -5, -4, -2, 0, 2, 4, 6)


def run(snr_grid_db=DEFAULT_SNR_GRID, seed=12, n_frames=None, bits_per_frame=64):
    """Sweep SNR; return Pr_eps, Eq.-2 BER, and simulated BER."""
    rng = np.random.default_rng(seed)
    n_frames = scaled(10) if n_frames is None else n_frames

    pr_eps, analytic, simulated = [], [], []
    for snr in snr_grid_db:
        p = phase_error_probability(snr, rng, n_samples=scaled(100_000))
        pr_eps.append(p)
        analytic.append(ber_from_phase_error(p))

        link = link_at_snr(snr)
        errors = sent = 0
        for _ in range(n_frames):
            bits = rng.integers(0, 2, bits_per_frame)
            result = link.send_bits(bits, rng, decode_synchronized=False)
            errors += result.bit_errors
            sent += result.n_bits
        simulated.append(errors / sent if sent else 0.0)

    return BerVsSnrResult(
        snr_db=tuple(snr_grid_db),
        pr_eps=tuple(pr_eps),
        ber_analytic=tuple(analytic),
        ber_simulated=tuple(simulated),
    )


def main():
    from repro.experiments.common import fmt, print_table

    result = run()
    rows = [
        (snr, fmt(p, 4), fmt(a, 4), fmt(s, 4))
        for snr, p, a, s in zip(
            result.snr_db, result.pr_eps, result.ber_analytic, result.ber_simulated
        )
    ]
    print_table(
        ("SNR (dB)", "Pr_eps", "BER Eq.2", "BER simulated"),
        rows,
        title="Fig 12: bit error rate vs SNR",
    )
    from repro.experiments.plotting import ascii_series

    print(ascii_series(
        result.snr_db,
        {"Eq.2": result.ber_analytic, "simulated": result.ber_simulated},
        x_label="SNR (dB)", y_label="BER, log scale", y_log=True,
    ))
    return result


if __name__ == "__main__":
    main()
