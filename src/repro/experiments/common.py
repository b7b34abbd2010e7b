"""Shared experiment infrastructure: Monte-Carlo runners and printers.

Monte-Carlo sizes scale with the ``REPRO_SCALE`` environment variable
(default 1.0): benches run quickly at the default, and ``REPRO_SCALE=10``
reproduces with tight confidence intervals.  Trials run through
``repro.runtime`` — ``REPRO_JOBS`` (or the ``jobs=`` argument) selects
process-parallel execution, and every trial draws from its own
``SeedSequence`` child so results are bit-identical at any job count.
"""

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.analytics import raw_bit_rate_bps
from repro.core.link import SymBeeLink
from repro.obs.trace import TRACER
from repro.runtime import as_seed_sequence, run_trials

#: Diagnostics go through the ``repro.*`` logger namespace (wire it up
#: with ``repro.obs.configure_logging`` or the CLI's ``-v``/``-q``);
#: experiment *table output* stays on stdout via :func:`print_table`.
log = logging.getLogger("repro.experiments")


def mc_scale():
    """Monte-Carlo scale factor from the environment (min 0.1)."""
    try:
        scale = float(os.environ.get("REPRO_SCALE", "1"))
    except ValueError:
        scale = 1.0
    return max(scale, 0.1)


def scaled(n):
    """Scale a nominal repetition count, keeping at least 2."""
    return max(2, int(round(n * mc_scale())))


@dataclass
class LinkStats:
    """Aggregated outcome of a batch of SymBee frames over one link."""

    frames: int = 0
    captures: int = 0
    bits_sent: int = 0
    bits_delivered: int = 0
    bit_errors: int = 0
    snr_samples: list = field(default_factory=list)

    def add(self, result):
        self.frames += 1
        self.captures += int(result.preamble_captured)
        self.bits_sent += result.n_bits
        self.bits_delivered += result.delivered_bits
        self.bit_errors += result.n_bits - result.delivered_bits
        self.snr_samples.append(result.snr_db)

    @property
    def capture_rate(self):
        return self.captures / self.frames if self.frames else 0.0

    @property
    def ber(self):
        """Errors per sent bit, counting lost frames as all-errored."""
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0

    @property
    def throughput_bps(self):
        """Raw symbol-level rate discounted by the delivered-bit fraction.

        This matches the paper's accounting: the 31.25 kbps figure is the
        in-payload rate, degraded by losses, not amortized over ZigBee
        header airtime.
        """
        if self.bits_sent == 0:
            return 0.0
        return raw_bit_rate_bps() * self.bits_delivered / self.bits_sent

    @property
    def mean_snr_db(self):
        return float(np.mean(self.snr_samples)) if self.snr_samples else float("nan")


def _link_trial(task):
    """One Monte-Carlo trial (module-level so it pickles to workers)."""
    link, seed, bits_per_frame, mac_sequence, send_kwargs = task
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, bits_per_frame)
    return link.send_bits(bits, rng, mac_sequence=mac_sequence, **send_kwargs)


def measure_link(link, rng, n_frames=20, bits_per_frame=64, jobs=None,
                 **send_kwargs):
    """Run ``n_frames`` random frames over a link and aggregate.

    Each trial gets its own child of ``rng``'s seed sequence and an
    explicit MAC sequence number (the trial index), so trial ``k`` is a
    pure function of the experiment seed — the same ``LinkStats`` comes
    back whether trials run serially or across ``jobs`` processes.
    """
    seeds = as_seed_sequence(rng).spawn(n_frames)
    tasks = [
        (link, seeds[k], bits_per_frame, k & 0xFF, send_kwargs)
        for k in range(n_frames)
    ]
    stats = LinkStats()
    with TRACER.span("measure_link", frames=n_frames, bits=bits_per_frame):
        for result in run_trials(_link_trial, tasks, jobs=jobs):
            stats.add(result)
    log.debug(
        "measure_link: %d frames, capture %.2f, BER %.4f",
        stats.frames, stats.capture_rate, stats.ber,
    )
    return stats


#: Distances (metres) used across the paper's Figures 13/14.
DISTANCES_M = (5, 10, 15, 20, 25)

#: Scenario order as plotted in the paper.
SCENARIO_ORDER = ("outdoor", "classroom", "office", "dormitory", "library", "mall")


def scenario_sweep(rng, scenarios=SCENARIO_ORDER, distances=DISTANCES_M,
                   n_frames=20, bits_per_frame=64, jobs=None):
    """The Figure 13/14 sweep: per-scenario, per-distance link stats.

    Returns ``{scenario: {distance: LinkStats}}``.  Every (scenario,
    distance) cell derives its seed from ``rng`` in a fixed order, so the
    sweep is deterministic for any ``jobs`` setting.
    """
    from repro.channel.scenarios import get_scenario

    cells = [(name, distance) for name in scenarios for distance in distances]
    seeds = as_seed_sequence(rng).spawn(len(cells))
    results = {name: {} for name in scenarios}
    for (name, distance), seed in zip(cells, seeds):
        scenario = get_scenario(name)
        link = SymBeeLink(
            link_channel=scenario.link(distance),
            interference=scenario.interference(),
        )
        with TRACER.span("scenario_sweep.cell", scenario=name, distance_m=distance):
            cell = measure_link(
                link, seed, n_frames=n_frames, bits_per_frame=bits_per_frame,
                jobs=jobs,
            )
        results[name][distance] = cell
        log.info(
            "sweep %s @ %dm: %.2f kbps, BER %.4f",
            name, distance, cell.throughput_bps / 1000, cell.ber,
        )
    return results


def print_table(headers, rows, title=None):
    """Fixed-width ASCII table matching the repo's bench output style."""
    if title:
        print(f"\n== {title} ==")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt(value, digits=3):
    """Compact float formatting for table cells."""
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)
