"""Golden fleet campaigns: frozen summaries the simulator must reproduce.

``summaries.json`` holds, per campaign in :data:`CASES`, the parsed
``CampaignResult.summary_json()`` of a short packet-fidelity campaign on
the synthetic :func:`logistic_table`, plus every transmission record of
one small :class:`repro.network.ConvergecastNetwork` run (floats stored
exactly, as ``float.hex``).  Between them the campaigns cover every
topology (grid, random, cluster, multi-gateway), both mobility models,
every noise model, every fault model, shadowing on and off, and
retries, so each per-entity RNG stream the campaign draws from
(``traffic``, ``mac``, ``shadow``, ``deliver``, ``noise``,
``noise-burst``, ``faults``, ``mobility``) feeds at least one summary.

``calibration.json`` freezes one small real :class:`DeliveryTable`
calibration (:data:`CALIBRATION`, with interferer columns, so OFDM
bursts are synthesized and mixed into every interfered capture): the
cache file ``DeliveryTable.save`` writes, byte for byte, and a SHA-256
over every capture the sample-level PHY assembled, in calibration
order.  The table's counts alone would miss a change in the last bit
of a sample; the capture digest does not.  Like the stream goldens, the
digest assumes an FMA-capable OpenBLAS kernel (it holds under the
default, ``Haswell`` and ``Zen`` cores; ``Sandybridge`` scales the
bursts by a power whose last bit differs).

Python's ``json`` round-trips floats exactly, so re-dumping a stored
summary with ``summary_json()``'s own options reproduces its bytes.

Regenerate (only after a deliberate change to what a campaign decides)
with::

    PYTHONPATH=src python -m tests.sim.golden.freeze
"""

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

# One BLAS thread before numpy loads, as in ``tests/conftest.py``: the
# convergecast case runs the sample-level PHY, and the freeze entry
# point does not run under pytest.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.channel.scenarios import get_scenario  # noqa: E402
from repro.network import ConvergecastNetwork, NodeConfig  # noqa: E402
from repro.sim import (  # noqa: E402
    CalibrationConfig,
    DeliveryTable,
    run_campaign,
)
from repro.wifi.front_end import WifiFrontEnd  # noqa: E402

PATH = Path(__file__).with_name("summaries.json")
CALIBRATION_PATH = Path(__file__).with_name("calibration.json")

#: A small real calibration: three SNR points, up to two interferers.
CALIBRATION = CalibrationConfig(
    snr_grid_db=(0.0, 4.0, 8.0),
    max_interferers=2,
    fec_schemes=("none",),
    frames_per_point=8,
    seed=2027,
)


def logistic_table(max_interferers=2, frames=1000):
    """Synthetic table: logistic in SNR, 3 dB penalty per interferer."""
    config = CalibrationConfig(
        snr_grid_db=(-4.0, 0.0, 4.0, 8.0, 12.0),
        max_interferers=max_interferers,
        frames_per_point=frames,
    )
    cells = {}
    for snr, k, fec in config.points():
        p = 1.0 / (1.0 + math.exp(-(snr - 2.0 - 3.0 * k)))
        cells[(snr, k, fec)] = (int(round(p * frames)), frames)
    return DeliveryTable(config, cells)


#: A link budget that loses frames, so retries and ACK feedback matter.
LOSSY = {"scenario": "office", "snr_margin_db": 15.0, "shadowing": False}
#: Shadowing on (the default), at a margin near the delivery cliff.
SHADOWED = {"scenario": "office", "snr_margin_db": 30.0}


def _manifest(name, seed, **sections):
    manifest = {
        "name": name,
        "seed": seed,
        "duration_s": 3.0,
        "fidelity": "packet",
        "topology": {"kind": "grid", "n_nodes": 16, "spacing_m": 4.0},
        "traffic": {"interval_s": 0.3, "max_retries": 1},
    }
    manifest.update(sections)
    return manifest


#: Frozen campaigns, by name.
CASES = {
    name: _manifest(name, seed, **sections)
    for name, seed, sections in [
        ("grid-default", 21, {}),
        ("grid-lossy-retries", 22, {
            "comm": LOSSY,
            "traffic": {"interval_s": 0.3, "max_retries": 3},
        }),
        ("grid-contention", 23, {
            "topology": {"kind": "grid", "n_nodes": 40, "spacing_m": 2.0},
            "traffic": {"interval_s": 0.03, "max_retries": 0},
            "duration_s": 1.5,
        }),
        ("grid-multi-gateway-burst", 24, {
            "topology": {"kind": "grid", "n_nodes": 25, "spacing_m": 6.0,
                         "gateways": 3},
            "noise": {"kind": "burst", "mean_good_s": 0.2,
                      "mean_bad_s": 0.1, "bad_extra_loss_db": 20.0},
            "comm": SHADOWED,
            "traffic": {"interval_s": 0.2, "max_retries": 2},
        }),
        ("random-ambient", 25, {
            "topology": {"kind": "random", "n_nodes": 24, "radius_m": 30.0},
            "noise": {"kind": "ambient", "extra_loss_db": 3.0,
                      "interference_duty": 0.4, "n_interferers": 2},
            "comm": SHADOWED,
        }),
        ("random-multi-gateway-crash", 26, {
            "topology": {"kind": "random", "n_nodes": 30, "radius_m": 40.0,
                         "gateways": 4},
            "faults": {"kind": "crash", "mtbf_s": 1.0,
                       "mean_downtime_s": 0.5},
        }),
        ("cluster-burst-ambient", 27, {
            "topology": {"kind": "cluster", "n_clusters": 3,
                         "nodes_per_cluster": 8, "cluster_radius_m": 6.0,
                         "spread_m": 40.0},
            "noise": {"kind": "burst", "interference_duty": 0.3,
                      "n_interferers": 2, "bad_extra_loss_db": 25.0},
            "comm": SHADOWED,
        }),
        ("grid-waypoint", 28, {
            "mobility": {"kind": "waypoint", "speed_m_s": 8.0},
            "comm": SHADOWED,
        }),
        ("cluster-waypoint-pause", 29, {
            "topology": {"kind": "cluster", "n_clusters": 2,
                         "nodes_per_cluster": 10},
            "mobility": {"kind": "waypoint", "speed_m_s": 5.0,
                         "pause_s": 0.2, "area_radius_m": 30.0},
            "comm": LOSSY,
        }),
        ("grid-ack-blackout", 30, {
            "comm": LOSSY,
            "faults": {"kind": "ack-blackout",
                       "blackouts": [[0.5, 1.2], [2.0, 2.4]]},
            "traffic": {"interval_s": 0.3, "max_retries": 2},
        }),
        ("fleet-mini", 31, {
            "topology": {"kind": "random", "n_nodes": 60, "radius_m": 60.0,
                         "gateways": 4},
            "noise": {"kind": "burst", "interference_duty": 0.15,
                      "n_interferers": 2},
            "faults": {"kind": "crash", "mtbf_s": 2.0,
                       "mean_downtime_s": 0.4},
            "traffic": {"interval_s": 0.4, "max_retries": 1},
        }),
        ("random-waypoint-burst-crash", 32, {
            "topology": {"kind": "random", "n_nodes": 20, "radius_m": 25.0,
                         "gateways": 2},
            "mobility": {"kind": "waypoint", "speed_m_s": 3.0,
                         "pause_s": 0.1},
            "noise": {"kind": "burst", "extra_loss_db": 2.0,
                      "interference_duty": 0.5, "n_interferers": 1},
            "faults": {"kind": "crash", "mtbf_s": 1.5,
                       "mean_downtime_s": 0.3},
            "comm": SHADOWED,
            "traffic": {"interval_s": 0.25, "max_retries": 2},
        }),
    ]
}


def run_case(name, table=None):
    """Run the campaign :data:`CASES` names: its ``CampaignResult``."""
    if table is None:
        table = logistic_table()
    return run_campaign(dict(CASES[name]), table=table)


def convergecast_records():
    """One small convergecast run, every record as a JSON-safe row."""
    nodes = [
        NodeConfig(node_id=i, distance_m=5.0 + 4.0 * i,
                   reading_interval_s=0.1)
        for i in range(4)
    ]
    network = ConvergecastNetwork(
        nodes, get_scenario("office"), sim_duration_s=0.6, seed=5,
        max_retries=2,
    )
    result = network.run()
    return {
        "readings_generated": result.readings_generated,
        "records": [
            [r.node_id, r.sequence, float(r.created_s).hex(),
             float(r.start_s).hex(), float(r.duration_s).hex(), r.attempt,
             r.collided, r.delivered]
            for r in result.records
        ],
    }


def calibration_record():
    """Calibrate :data:`CALIBRATION` serially; its frozen form.

    Returns ``{"table": <cache file text>, "captures": <count>,
    "capture_sha256": <hex>}``; the digest covers each capture's
    complex128 bytes in the order the serial calibration builds them.
    """
    digest = hashlib.sha256()
    count = 0
    capture = WifiFrontEnd.capture

    def recording(self, *args, **kwargs):
        nonlocal count
        out = capture(self, *args, **kwargs)
        digest.update(out.tobytes())
        count += 1
        return out

    WifiFrontEnd.capture = recording
    try:
        table = DeliveryTable.calibrate(CALIBRATION, jobs=1)
    finally:
        WifiFrontEnd.capture = capture
    with tempfile.TemporaryDirectory() as directory:
        path = table.save(os.path.join(directory, "table.json"))
        text = Path(path).read_text(encoding="utf-8")
    return {
        "table": text,
        "captures": count,
        "capture_sha256": digest.hexdigest(),
    }


def summary_bytes(summary):
    """``summary_json()``'s bytes for a stored (parsed) summary."""
    return json.dumps(summary, sort_keys=True, indent=2)


def load():
    """The frozen fixtures: ``{"campaigns": ..., "convergecast": ...}``."""
    return json.loads(PATH.read_text())


def load_calibration():
    """The frozen :func:`calibration_record`."""
    return json.loads(CALIBRATION_PATH.read_text())
