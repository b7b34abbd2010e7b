"""Multi-node convergecast networking on top of the SymBee PHY.

The paper motivates SymBee with upstream IoT traffic ("convergecast
which takes majority portion of IoT traffic").  This package provides
the substrate for evaluating that setting: sensor nodes with queues and
CSMA-CA contention, a shared-channel timeline with collision detection,
and per-transmission delivery decided by the full PHY link simulation.
"""

from repro.network.simulator import (
    ConvergecastNetwork,
    NetworkResult,
    NodeConfig,
    TransmissionRecord,
)
from repro.network.traffic import (
    ScheduledTransmission,
    StreamSender,
    StreamTraffic,
)

__all__ = [
    "ConvergecastNetwork",
    "NetworkResult",
    "NodeConfig",
    "ScheduledTransmission",
    "StreamSender",
    "StreamTraffic",
    "TransmissionRecord",
]
