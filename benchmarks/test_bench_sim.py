"""PR-8 bench: fleet-scale campaign throughput at both fidelities.

The acceptance claim: a 500-sender, >=100k-frame packet-fidelity
campaign completes in under 30 s on a one-CPU container, because the
calibrated delivery table replaces the sample-level PHY (~8 ms/frame)
with a table lookup.  The same engine at ``fidelity="sample"`` runs the
real PHY on a small scene in the same session, so the run prints the
fast-path speedup as a same-run ratio, plus the one-off calibration
cost it amortizes.  ``BENCH_PR8.json`` at the repo root is a frozen
record of an earlier run; nothing rewrites it.
"""

import time

import pytest

from repro.sim import CalibrationConfig, DeliveryTable, run_campaign

#: Acceptance ceiling for the fleet campaign (seconds, 1-CPU container).
FLEET_BUDGET_S = 30.0

FLEET_MANIFEST = {
    "name": "fleet-500",
    "seed": 7,
    "duration_s": 170.0,
    "fidelity": "packet",
    "topology": {"kind": "random", "n_nodes": 500, "radius_m": 60.0,
                 "gateways": 4},
    "noise": {"kind": "burst", "interference_duty": 0.15,
              "n_interferers": 2},
    "faults": {"kind": "crash", "mtbf_s": 120.0, "mean_downtime_s": 10.0},
    "traffic": {"interval_s": 0.7, "max_retries": 1},
}

SAMPLE_MANIFEST = {
    "name": "sample-ground-truth",
    "seed": 7,
    "duration_s": 2.0,
    "fidelity": "sample",
    "topology": {"kind": "grid", "n_nodes": 4, "spacing_m": 1e-6},
    "traffic": {"interval_s": 0.25, "max_retries": 0},
    "comm": {"scenario": "office", "snr_margin_db": 4.0,
             "shadowing": False},
}

CALIBRATION = CalibrationConfig(
    snr_grid_db=(-2.0, 2.0, 6.0, 10.0),
    max_interferers=2,
    fec_schemes=("none",),
    frames_per_point=32,
    seed=0x5EEDCA1,
)


@pytest.mark.perf_smoke
def test_bench_sim_fleet_fast_path(tmp_path):
    # One-off calibration cost (cold cache), then the cache hit.
    t0 = time.perf_counter()
    table = DeliveryTable.load_or_calibrate(CALIBRATION, cache_dir=tmp_path)
    calibrate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    DeliveryTable.load_or_calibrate(CALIBRATION, cache_dir=tmp_path)
    cache_hit_s = time.perf_counter() - t0

    fleet = run_campaign(dict(FLEET_MANIFEST), table=table)
    fleet_fps = fleet.offered / fleet.elapsed_s

    sample = run_campaign(dict(SAMPLE_MANIFEST), table=table)
    sample_fps = sample.offered / sample.elapsed_s

    print("\n== fleet campaign fast path (PR 8) ==")
    print(
        f"  calibration: {CALIBRATION.frames_per_point} frames x "
        f"{len(CALIBRATION.points())} points in {calibrate_s:.1f}s "
        f"(cache hit {cache_hit_s * 1e3:.0f} ms)"
    )
    print(
        f"  packet: {fleet.offered} frames over {fleet.n_nodes} nodes, "
        f"{fleet.elapsed_s:.1f}s wall -> {fleet_fps:.0f} frames/s, "
        f"delivery {fleet.delivery_ratio:.3f}"
    )
    print(
        f"  sample: {sample.offered} frames, {sample.elapsed_s:.1f}s wall "
        f"-> {sample_fps:.0f} frames/s, "
        f"delivery {sample.delivery_ratio:.3f}"
    )
    print(f"  fast-path speedup: {fleet_fps / sample_fps:.0f}x per frame")

    # Acceptance: fleet scale under budget, and the fast path is what
    # makes it possible (orders of magnitude over the sample PHY).
    assert fleet.offered >= 100_000
    assert fleet.elapsed_s < FLEET_BUDGET_S
    assert fleet.n_nodes == 500
    assert 0.5 < fleet.delivery_ratio <= 1.0
    assert sample.offered > 0
    assert fleet_fps > 50 * sample_fps
    # Cache hit must be effectively free next to recalibration.
    assert cache_hit_s < max(0.5, calibrate_s / 5)
