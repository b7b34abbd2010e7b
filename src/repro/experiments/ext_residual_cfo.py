"""Extension: residual carrier offset tolerance.

The paper's Appendix B only compensates channel-grid offsets; crystal
tolerances add up to +-40 ppm (+-100 kHz at 2.44 GHz).  This experiment
maps BER against residual offset with and without the preamble-based
offset tracking this repo adds, locating the tolerance envelope (the
bit-0 plateau reaches the +-pi wrap near +-100 kHz, where the absolute
sign test fails by construction).
"""

from dataclasses import dataclass

import numpy as np

from repro.core.link import link_at_snr
from repro.experiments.common import scaled

CFO_GRID_HZ = (-80e3, -40e3, 0.0, 40e3, 60e3, 80e3)


@dataclass(frozen=True)
class ResidualCfoResult:
    cfo_hz: tuple
    ber_untracked: tuple
    ber_tracked: tuple
    snr_db: float


def run(seed=42, cfo_grid_hz=CFO_GRID_HZ, n_frames=None, snr_db=6.0,
        bits_per_frame=48):
    n_frames = scaled(10) if n_frames is None else n_frames
    untracked, tracked = [], []
    for cfo in cfo_grid_hz:
        for track, out in ((False, untracked), (True, tracked)):
            rng = np.random.default_rng(seed)
            link = link_at_snr(
                snr_db, residual_cfo_hz=cfo, track_residual_cfo=track
            )
            errors = sent = 0
            for _ in range(n_frames):
                result = link.send_bits(
                    rng.integers(0, 2, bits_per_frame), rng
                )
                errors += result.n_bits - result.delivered_bits
                sent += result.n_bits
            out.append(errors / sent)
    return ResidualCfoResult(
        cfo_hz=tuple(cfo_grid_hz),
        ber_untracked=tuple(untracked),
        ber_tracked=tuple(tracked),
        snr_db=snr_db,
    )


def main():
    from repro.experiments.common import fmt, print_table

    result = run()
    rows = [
        (f"{cfo / 1e3:+.0f}", fmt(u, 3), fmt(t, 3))
        for cfo, u, t in zip(
            result.cfo_hz, result.ber_untracked, result.ber_tracked
        )
    ]
    print_table(
        ("residual CFO (kHz)", "BER untracked", "BER tracked"),
        rows,
        title=f"Extension: residual-CFO tolerance (SNR {result.snr_db:+.0f} dB)",
    )
    return result


if __name__ == "__main__":
    main()
