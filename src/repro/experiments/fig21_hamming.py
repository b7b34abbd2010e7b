"""Figure 21: BER vs SINR with and without Hamming(7,4) coding.

Trace-driven in the paper: clean SymBee captures mixed with recorded
802.11g signal at controlled SINR.  Here the interference generator
plays continuous WiFi bursts (90% duty) at the target SINR over a
high-SNR SymBee link, so interference — not noise — dominates, then the
same transmissions are repeated with Hamming(7,4) link-layer coding.
Paper shape targets: about 19.5% uncoded BER at -10 dB SINR, and coding
roughly halving the BER across the sweep.
"""

from dataclasses import dataclass

import numpy as np

from repro.channel.interference import WifiInterferenceModel
from repro.core.coding import hamming74_decode, hamming74_encode
from repro.core.link import link_at_snr
from repro.experiments.common import scaled

SINR_GRID_DB = (-10, -6, -3, 0, 3, 6, 10)


@dataclass(frozen=True)
class HammingResult:
    sinr_db: tuple
    ber_uncoded: tuple
    ber_coded: tuple


def _interference_at_sinr(sinr_db):
    return WifiInterferenceModel(
        duty_cycle=0.9,
        mean_sir_db=sinr_db,
        sir_sigma_db=0.0,
        burst_duration_range_s=(250e-6, 300e-6),
    )


def run(seed=21, sinr_grid_db=SINR_GRID_DB, n_frames=None, data_bits=56, snr_db=25.0):
    """Sweep SINR; measure raw and Hamming-coded BER.

    ``data_bits`` must be a multiple of 4 (Hamming blocks); the coded
    transmission carries ``data_bits / 4 * 7`` SymBee bits.
    """
    if data_bits % 4 != 0:
        raise ValueError("data_bits must be a multiple of 4")
    rng = np.random.default_rng(seed)
    n_frames = scaled(12) if n_frames is None else n_frames

    uncoded, coded = [], []
    for sinr in sinr_grid_db:
        errs_u = sent_u = errs_c = sent_c = 0
        for _ in range(n_frames):
            link = link_at_snr(snr_db)
            link.interference = _interference_at_sinr(sinr)
            bits = rng.integers(0, 2, data_bits)

            result = link.send_bits(bits, rng, decode_synchronized=False)
            errs_u += result.bit_errors
            sent_u += result.n_bits

            codeword = hamming74_encode(bits)
            result_c = link.send_bits(codeword, rng, decode_synchronized=False)
            if len(result_c.decoded_bits) == len(codeword):
                decoded, _ = hamming74_decode(np.array(result_c.decoded_bits))
                errs_c += int(np.sum(decoded != bits))
            else:
                errs_c += data_bits
            sent_c += data_bits
        uncoded.append(errs_u / sent_u)
        coded.append(errs_c / sent_c)

    return HammingResult(
        sinr_db=tuple(sinr_grid_db),
        ber_uncoded=tuple(uncoded),
        ber_coded=tuple(coded),
    )


def main():
    from repro.experiments.common import fmt, print_table

    result = run()
    rows = [
        (sinr, fmt(u, 4), fmt(c, 4))
        for sinr, u, c in zip(result.sinr_db, result.ber_uncoded, result.ber_coded)
    ]
    print_table(
        ("SINR (dB)", "BER no coding", "BER Hamming(7,4)"),
        rows,
        title="Fig 21: BER under WiFi interference, with and without coding",
    )
    return result


if __name__ == "__main__":
    main()
