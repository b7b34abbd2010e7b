"""Energy accounting: the paper's "energy-economic" claim, quantified.

Two claims to check numerically:

* **Sender side** — SymBee moves 145x more bits per packet than
  packet-level CTC, so the TX energy *per delivered bit* collapses.
  The radio model uses TelosB/CC2420 datasheet currents (the paper's
  sender hardware).
* **Receiver side** — decoding recycles the idle-listening output the
  WiFi chip computes anyway, so the marginal receive cost is a handful
  of integer comparisons per bit (measured in
  ``benchmarks/test_bench_components.py`` as far-faster-than-realtime).

This module provides the sender-side model and per-scheme comparisons.
"""

from dataclasses import dataclass

from repro.core.frame import frame_airtime_s

#: CC2420 current draw at selected TX power settings (datasheet), amps.
CC2420_TX_CURRENT_A = {
    0: 17.4e-3,
    -1: 16.5e-3,
    -3: 15.2e-3,
    -5: 13.9e-3,
    -7: 12.5e-3,
    -10: 11.2e-3,
    -15: 9.9e-3,
    -25: 8.5e-3,
}

#: TelosB supply voltage.
SUPPLY_VOLTAGE_V = 3.0

#: CC2420 idle (RX-off, oscillator on) current — charged to the gaps a
#: modulation scheme forces between its packets.
IDLE_CURRENT_A = 0.426e-3


def tx_current_a(tx_power_dbm):
    """Interpolated CC2420 TX current for a power setting."""
    points = sorted(CC2420_TX_CURRENT_A)
    if tx_power_dbm <= points[0]:
        return CC2420_TX_CURRENT_A[points[0]]
    if tx_power_dbm >= points[-1]:
        return CC2420_TX_CURRENT_A[points[-1]]
    for low, high in zip(points, points[1:]):
        if low <= tx_power_dbm <= high:
            fraction = (tx_power_dbm - low) / (high - low)
            return (
                CC2420_TX_CURRENT_A[low]
                + fraction * (CC2420_TX_CURRENT_A[high] - CC2420_TX_CURRENT_A[low])
            )
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class EnergyBudget:
    """Sender energy for delivering one message."""

    scheme: str
    bits: int
    on_air_s: float
    idle_s: float
    tx_power_dbm: float

    @property
    def tx_energy_j(self):
        return tx_current_a(self.tx_power_dbm) * SUPPLY_VOLTAGE_V * self.on_air_s

    @property
    def idle_energy_j(self):
        return IDLE_CURRENT_A * SUPPLY_VOLTAGE_V * self.idle_s

    @property
    def total_energy_j(self):
        return self.tx_energy_j + self.idle_energy_j

    @property
    def energy_per_bit_j(self):
        if self.bits <= 0:
            return float("inf")
        return self.total_energy_j / self.bits


def symbee_budget(bits, tx_power_dbm=0.0):
    """Energy to deliver ``bits`` over SymBee frames.

    The air time is :func:`repro.core.frame.frame_airtime_s` of one frame
    carrying all ``bits``: the SymBee preamble, header and CRC, and the
    ZigBee PHY/MAC header bytes, each at one bit period.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    on_air = frame_airtime_s(bits)
    return EnergyBudget(
        scheme="SymBee",
        bits=bits,
        on_air_s=on_air,
        idle_s=0.0,
        tx_power_dbm=tx_power_dbm,
    )


def packet_level_budget(scheme, bits, rng, tx_power_dbm=0.0):
    """Energy for a packet-level CTC scheme from its event schedule.

    On-air time is the sum of scheduled packet durations; the enforced
    gaps between them (the modulation's own dead time) are charged at
    idle current.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    message = rng.integers(0, 2, bits)
    events, total_duration = scheme.encode(message, rng)
    on_air = sum(e.duration_s for e in events)
    idle = max(0.0, total_duration - on_air)
    return EnergyBudget(
        scheme=scheme.name,
        bits=bits,
        on_air_s=on_air,
        idle_s=idle,
        tx_power_dbm=tx_power_dbm,
    )


def energy_comparison(bits, rng, tx_power_dbm=0.0):
    """Per-bit sender energy, SymBee vs every Figure-16 baseline."""
    from repro.baselines import all_baselines

    rows = [symbee_budget(bits, tx_power_dbm)]
    rows += [
        packet_level_budget(scheme, bits, rng, tx_power_dbm)
        for scheme in all_baselines()
    ]
    return rows
