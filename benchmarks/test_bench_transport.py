"""Goodput benchmark for the PR-4 transport subsystem.

Sweeps session goodput over an SNR grid for each fixed FEC scheme and
for the adaptive policy.  Each grid point runs warmed-up sessions: a
handful of seeded :class:`TransportSession` objects each delivering
several messages back-to-back, so the adaptive policy's cold-start
(first message on the robustness-first conv prior) is amortized the way
a long-lived sender would amortize it.  Goodput counts only byte-exact
deliveries over total simulated link time.

What the sweep shows (``BENCH_PR4.json`` at the repo root is a frozen
record of an earlier run; nothing rewrites it) is a real property of
this PHY, worth stating plainly: transport frames carry 50 payload bits
uncoded but only 18 (Hamming) or 8 (conv) coded, at nearly identical
air time, so uncoded + selective-repeat ARQ dominates raw goodput
wherever the link delivers frames at all, and the informed adaptive
policy correctly *converges to uncoded* there.  The acceptance bar for
adaptation is therefore against the fixed *coded* provisioning you
would deploy without channel knowledge: at the low-SNR end adaptive
must beat both fixed-Hamming and fixed-conv, while matching fixed-
uncoded's delivery reliability.
"""

import time

from repro.runtime import run_trials
from repro.transport import TransportSession

SNR_GRID_DB = (1.0, 1.5, 2.0, 3.0, 6.0)
MODES = ("none", "hamming", "conv", "adaptive")
SEEDS = (1, 2)
MESSAGES_PER_SESSION = 4
MESSAGE = bytes(range(40))
#: Grid points considered "low SNR" (raw uncoded frame loss >= ~37%).
LOW_SNR_DB = (1.0, 1.5)


def _session_point(task):
    """One (snr, fec, seed) warmed-up session; module-level for pickling."""
    snr_db, fec, seed = task
    session = TransportSession(snr_db=snr_db, seed=seed, fec=fec)
    delivered_bytes = 0
    elapsed_s = 0.0
    delivered = 0
    n_tx = retransmits = fec_switches = 0
    for _ in range(MESSAGES_PER_SESSION):
        result = session.send(MESSAGE)
        if result.byte_exact:
            delivered += 1
            delivered_bytes += len(MESSAGE)
        elapsed_s += result.elapsed_s
        n_tx += result.n_tx
        retransmits += result.retransmits
        fec_switches += result.fec_switches
    return {
        "snr_db": snr_db,
        "fec": fec,
        "seed": seed,
        "goodput_bps": 8.0 * delivered_bytes / elapsed_s,
        "delivered": delivered,
        "messages": MESSAGES_PER_SESSION,
        "n_tx": n_tx,
        "retransmits": retransmits,
        "fec_switches": fec_switches,
    }


def test_bench_transport_goodput():
    tasks = [
        (snr, fec, seed)
        for snr in SNR_GRID_DB
        for fec in MODES
        for seed in SEEDS
    ]
    t0 = time.perf_counter()
    rows = run_trials(_session_point, tasks)
    elapsed = time.perf_counter() - t0

    series = {}
    for fec in MODES:
        points = []
        for snr in SNR_GRID_DB:
            cell = [
                r for r in rows if r["fec"] == fec and r["snr_db"] == snr
            ]
            messages = sum(r["messages"] for r in cell)
            points.append(
                {
                    "snr_db": snr,
                    "goodput_bps": round(
                        sum(r["goodput_bps"] for r in cell) / len(cell), 2
                    ),
                    "delivery_rate": sum(r["delivered"] for r in cell)
                    / messages,
                    "mean_tx_per_message": round(
                        sum(r["n_tx"] for r in cell) / messages, 1
                    ),
                }
            )
        series[fec] = points

    def point(fec, snr):
        return next(p for p in series[fec] if p["snr_db"] == snr)

    print(f"\n{len(tasks)} sessions in {elapsed:.2f} s")
    for fec in MODES:
        line = "  ".join(
            f"{p['snr_db']:g}dB:{p['goodput_bps']:8.1f}"
            for p in series[fec]
        )
        print(f"{fec:>8}  {line}")

    # Acceptance: at the low-SNR end, adaptation beats both fixed coded
    # provisionings...
    for snr in LOW_SNR_DB:
        adaptive_bps = point("adaptive", snr)["goodput_bps"]
        assert adaptive_bps >= point("hamming", snr)["goodput_bps"]
        assert adaptive_bps >= point("conv", snr)["goodput_bps"]
        # ... without giving up fixed-uncoded's delivery reliability.
        assert (
            point("adaptive", snr)["delivery_rate"]
            >= point("none", snr)["delivery_rate"]
        )
    # Everyone delivers everything on the benign end of the grid.
    for fec in MODES:
        assert point(fec, SNR_GRID_DB[-1])["delivery_rate"] == 1.0
    # And the adaptive sessions really adapted somewhere on the grid.
    assert any(
        r["fec"] == "adaptive" and r["fec_switches"] > 0 for r in rows
    )
