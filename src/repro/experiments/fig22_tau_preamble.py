"""Figure 22: impact of tau and of the SymBee preamble.

(a) sweeps the unsynchronized detector's error tolerance tau at a fixed
noisy operating point and measures false-positive and false-negative
rates — higher tau misses fewer bits but fires more often on noise,
with the paper picking tau = 10 as the balance point.

(b) compares BER with the preamble (folding capture + synchronized
majority voting) against BER without it (pure sliding-window detection)
across SNR; the paper reports 27.4% -> 7.6% at its -5 dB point.

SNR values use this repo's per-sample wideband convention; the qualitative
shapes (tau trade-off, large preamble gain) are the reproduction targets.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.link import link_at_snr
from repro.experiments.common import scaled


def _match_detections(detections, true_positions, bit_values, tolerance):
    """Match unsync detections against ground truth.

    Returns ``(misses, wrong_values, false_positives)``: true positions
    with no detection nearby, matched detections with the wrong bit, and
    detections matching no true position.
    """
    used = set()
    misses = wrong = 0
    for position, value in zip(true_positions, bit_values):
        best = None
        for i, det in enumerate(detections):
            if i in used or abs(det.index - position) > tolerance:
                continue
            if best is None or abs(det.index - position) < abs(
                detections[best].index - position
            ):
                best = i
        if best is None:
            misses += 1
        else:
            used.add(best)
            if detections[best].bit != value:
                wrong += 1
    false_positives = len(detections) - len(used)
    return misses, wrong, false_positives


@dataclass(frozen=True)
class TauSweepResult:
    taus: tuple
    false_negative_rate: tuple
    false_positive_rate: tuple
    snr_db: float


@dataclass(frozen=True)
class PreambleComparisonResult:
    snr_db: tuple
    ber_with_preamble: tuple
    ber_without_preamble: tuple


def run_tau_sweep(seed=22, taus=tuple(range(0, 21, 2)), snr_db=6.0,
                  n_frames=None, bits_per_frame=48):
    """Figure 22(a): F/N and F/P of unsynchronized detection vs tau."""
    rng = np.random.default_rng(seed)
    n_frames = scaled(8) if n_frames is None else n_frames
    link = link_at_snr(snr_db)
    tolerance = link.decoder.bit_period // 2

    # Collect phase streams once; re-detect per tau.
    captures = []
    for _ in range(n_frames):
        bits = list(rng.integers(0, 2, bits_per_frame))
        result = link.send_bits(bits, rng, keep_phases=True)
        positions = link.true_bit_positions(len(bits))
        captures.append((result.phases, positions, bits))

    fn_rates, fp_rates = [], []
    for tau in taus:
        misses = wrong = fps = total = 0
        for phases, positions, bits in captures:
            detections = link.decoder.detect_bits(phases, tau=tau)
            m, w, f = _match_detections(detections, positions, bits, tolerance)
            misses += m
            wrong += w
            fps += f
            total += len(bits)
        fn_rates.append((misses + wrong) / total)
        fp_rates.append(fps / total)
    return TauSweepResult(
        taus=tuple(taus),
        false_negative_rate=tuple(fn_rates),
        false_positive_rate=tuple(fp_rates),
        snr_db=snr_db,
    )


def run_preamble_comparison(seed=221, snr_grid_db=(0.0, 2.0, 4.0, 6.0, 8.0),
                            n_frames=None, bits_per_frame=48):
    """Figure 22(b): BER with vs without the SymBee preamble."""
    rng = np.random.default_rng(seed)
    n_frames = scaled(8) if n_frames is None else n_frames

    with_pre, without_pre = [], []
    for snr in snr_grid_db:
        link = link_at_snr(snr)
        tolerance = link.decoder.bit_period // 2
        errs_sync = errs_unsync = total = 0
        for _ in range(n_frames):
            bits = list(rng.integers(0, 2, bits_per_frame))
            result = link.send_bits(bits, rng, keep_phases=True)
            errs_sync += result.n_bits - result.delivered_bits

            detections = link.decoder.detect_bits(result.phases)
            positions = link.true_bit_positions(len(bits))
            m, w, _ = _match_detections(detections, positions, bits, tolerance)
            errs_unsync += m + w
            total += len(bits)
        with_pre.append(errs_sync / total)
        without_pre.append(errs_unsync / total)
    return PreambleComparisonResult(
        snr_db=tuple(snr_grid_db),
        ber_with_preamble=tuple(with_pre),
        ber_without_preamble=tuple(without_pre),
    )


def run(seed=22, **kwargs):
    """Both halves of Figure 22."""
    return run_tau_sweep(seed=seed, **kwargs), run_preamble_comparison(seed=seed + 199)


def main():
    from repro.experiments.common import fmt, print_table

    tau_result, preamble_result = run()
    print_table(
        ("tau", "F/N rate", "F/P rate"),
        [
            (tau, fmt(fn, 3), fmt(fp, 3))
            for tau, fn, fp in zip(
                tau_result.taus,
                tau_result.false_negative_rate,
                tau_result.false_positive_rate,
            )
        ],
        title=f"Fig 22(a): detection errors vs tau (SNR {tau_result.snr_db:+.0f} dB)",
    )
    print_table(
        ("SNR (dB)", "BER with preamble", "BER without preamble"),
        [
            (snr, fmt(w, 3), fmt(wo, 3))
            for snr, w, wo in zip(
                preamble_result.snr_db,
                preamble_result.ber_with_preamble,
                preamble_result.ber_without_preamble,
            )
        ],
        title="Fig 22(b): BER with vs without the SymBee preamble",
    )
    return tau_result, preamble_result


if __name__ == "__main__":
    main()
