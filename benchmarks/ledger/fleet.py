"""Fleet workload: a 500-sender campaign manifest in, a summary out.

The BENCH_PR8 fleet (500 nodes, 4 gateways, burst noise, crash faults)
over 85 s of simulated time, about 56 k frames per campaign, run closed
loop after a cold :class:`repro.sim.DeliveryTable` calibration into a
fresh cache directory (the calibration is the set-up a user pays once
per configuration, so it counts toward ``setup_s``).

This code is disjoint from the stream path: the event scheduler, the
communication model and the calibrated packet fast path, with the batch
``SymBeeLink`` PHY only in set-up.  Every stream optimization should
leave this workload unchanged.
"""

import tempfile
import time

from repro.sim import CalibrationConfig, DeliveryTable, run_campaign
from repro.sim.comm import CommunicationModel
from repro.sim.faults import FAULT_MODELS
from repro.sim.noise import NOISE_MODELS

from benchmarks.ledger.common import (
    Outcome,
    digest,
    end_to_end,
    golden,
    median,
    median_metrics,
    passes,
)
from benchmarks.ledger.spans import SpanLedger, recording

DURATION_S = 85.0
MANIFEST = {
    "name": "fleet-500",
    "fidelity": "packet",
    "topology": {"kind": "random", "n_nodes": 500, "radius_m": 60.0,
                 "gateways": 4},
    "noise": {"kind": "burst", "interference_duty": 0.15,
              "n_interferers": 2},
    "faults": {"kind": "crash", "mtbf_s": 120.0, "mean_downtime_s": 10.0},
    "traffic": {"interval_s": 0.7, "max_retries": 1},
}
CALIBRATION = CalibrationConfig(
    snr_grid_db=(-2.0, 2.0, 6.0, 10.0),
    max_interferers=2,
    fec_schemes=("none",),
    frames_per_point=32,
    seed=0x5EEDCA1,
)

#: Per-layer seconds of a campaign: metric -> span names.
CAMPAIGN_LAYERS = {
    "sim.fastpath.probability_s": ("sim.fastpath.probability",),
    "sim.comm.deliver_s": ("sim.comm.deliver",),
    "sim.comm.link_snr_s": ("sim.comm.link_snr",),
    "sim.noise.state_s": ("sim.noise.state",),
    "sim.faults.alive_s": ("sim.faults.alive",),
    # The campaign span minus the calls above: event dispatch, CSMA and
    # bookkeeping.
    "sim.scheduler.self_s": ("sim.campaign",),
}
#: Per-layer seconds of the cold calibration (existing program spans).
CALIBRATION_LAYERS = {
    "sim.fastpath.calibrate_s": ("sim.calibrate",),
    "core.link.modulate_s": ("link.modulate",),
    "core.link.channel_s": ("link.channel",),
    "core.link.front_end_s": ("link.front_end",),
    "core.link.decode_s": ("link.decode",),
}
_RESULT_COUNTERS = {
    "sim.campaign.offered": "offered",
    "sim.campaign.delivered": "delivered",
    "sim.campaign.collided": "collided",
    "sim.campaign.retries": "retries",
    "sim.campaign.defers": "defers",
    "sim.scheduler.events": "events_processed",
}


def _patches():
    return [
        (DeliveryTable, "probability", "sim.fastpath.probability"),
        (CommunicationModel, "deliver", "sim.comm.deliver"),
        (CommunicationModel, "link_snr", "sim.comm.link_snr"),
        *[
            (cls, "state", "sim.noise.state")
            for cls in NOISE_MODELS.values()
            if "state" in vars(cls)
        ],
        *[
            (cls, "alive", "sim.faults.alive")
            for cls in FAULT_MODELS.values()
            if "alive" in vars(cls)
        ],
    ]


class FleetWorkload:
    """Campaigns of :data:`MANIFEST`, seeded from ``--seed``."""

    name = "fleet"

    def __init__(self, seed, work, size=DURATION_S):
        self.seed = int(seed)
        self.work = work
        self.size = float(size)
        self.expected = golden(self.name, self.seed, self.size)
        self.manifest = {**MANIFEST, "seed": self.seed, "duration_s": self.size}
        self.table = None

    def setup(self, t0):
        """Ready for input: imports done and a cold calibration cached."""
        cache_dir = tempfile.mkdtemp(prefix="calibration-", dir=self.work)
        self.table = DeliveryTable.load_or_calibrate(
            CALIBRATION, cache_dir=cache_dir
        )
        return time.monotonic() - t0

    def close(self):
        pass

    def _campaign(self, outcome, reference):
        """One manifest -> summary; returns (wall seconds, counters).

        The result object is dropped here: a campaign result kept alive
        through the next campaign slows it measurably (a larger heap for
        the collector to walk).
        """
        started = time.perf_counter()
        result = run_campaign(dict(self.manifest), table=self.table)
        summary = result.summary_json()
        wall = time.perf_counter() - started
        broken = result.delivered + result.lost != result.offered
        pass_digest = digest(summary)
        wanted = reference.setdefault("digest", self.expected or pass_digest)
        outcome.check(1, int(broken or pass_digest != wanted),
                      "campaigns off their summary digest or invariant",
                      wrong=True)
        counters = {
            name: getattr(result, field)
            for name, field in _RESULT_COUNTERS.items()
        }
        return wall, counters

    def measure(self, seconds):
        """Untraced campaigns: end-to-end metrics."""
        outcome = Outcome()
        reference = {}
        walls, offered = [], 0
        for _, factor in passes(seconds, probe=True):
            wall, counters = self._campaign(outcome, reference)
            walls.append((wall, factor))
            offered = counters["sim.campaign.offered"]
        # One manifest is one request, so each pass has one latency.
        latencies = [([(0.0, wall)], factor) for wall, factor in walls]
        metrics, raw, factor = end_to_end(offered, walls, latencies)
        info = {
            "campaigns": len(walls),
            "latency_samples": len(walls),
            "latency_kind": "campaign wall (manifest -> summary)",
            "offered_frames": offered,
            "digest": reference.get("digest"),
        }
        return outcome.result(
            metrics, info, raw_metrics=raw, speed_factor=factor
        )

    def trace(self, seconds, setup_ledger):
        """Untraced and traced campaigns, interleaved."""
        outcome = Outcome()
        reference = {}
        untraced, traced, per_pass = [], [], []
        for index, _ in passes(seconds, minimum=2):
            if index % 2 == 0:
                wall, _ = self._campaign(outcome, reference)
                untraced.append(wall)
                continue
            ledger = SpanLedger()
            with recording(ledger, _patches()):
                wall, metrics = self._campaign(outcome, reference)
            traced.append(wall)
            for name, spans in CAMPAIGN_LAYERS.items():
                metrics[name] = ledger.total(*spans)
            per_pass.append(metrics)
        metrics = median_metrics(per_pass)
        for name, spans in CALIBRATION_LAYERS.items():
            metrics[name] = setup_ledger.total(*spans)
        metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
        info = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        return outcome.result(metrics, info)
