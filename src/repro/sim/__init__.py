"""repro.sim — discrete-event fleet simulation with a calibrated fast path.

A hand-rolled (simpy-idiom) discrete-event simulator for SymBee sensor
fleets: an :class:`EventScheduler` with deterministic tie-breaking and
per-entity seeded RNG streams, pluggable topology / mobility / noise /
fault models, and a :class:`CommunicationModel` that decides frame fates
either through the real sample-level PHY (``fidelity="sample"``) or a
:class:`DeliveryTable` calibrated from it (``fidelity="packet"``) —
fleet-scale campaigns in seconds instead of hours.

See ``docs/simulation.md`` for the architecture and manifest format.
"""

from repro.sim.campaign import (
    CampaignResult,
    FleetSimulation,
    build_model,
    load_manifest,
    run_campaign,
)
from repro.sim.comm import FIDELITIES, CommunicationModel, DeliveryOutcome, make_comm
from repro.sim.fastpath import (
    CALIBRATION_VERSION,
    CalibrationConfig,
    DeliveryTable,
    default_cache_dir,
    sample_frame_outcomes,
)
from repro.sim.faults import (
    FAULT_MODELS,
    AckBlackoutFaults,
    FaultModel,
    NodeCrashFaults,
)
from repro.sim.mobility import (
    MOBILITY_MODELS,
    MobilityModel,
    StaticMobility,
    WaypointMobility,
)
from repro.sim.noise import (
    NOISE_MODELS,
    AmbientNoise,
    BurstNoise,
    NoiseModel,
    NoiseState,
)
from repro.sim.scheduler import Event, EventScheduler, stable_key_int
from repro.sim.topology import (
    TOPOLOGIES,
    ClusterTopology,
    GridTopology,
    RandomTopology,
    Topology,
)

__all__ = [
    "AckBlackoutFaults",
    "AmbientNoise",
    "BurstNoise",
    "CALIBRATION_VERSION",
    "CalibrationConfig",
    "CampaignResult",
    "ClusterTopology",
    "CommunicationModel",
    "DeliveryOutcome",
    "DeliveryTable",
    "Event",
    "EventScheduler",
    "FAULT_MODELS",
    "FIDELITIES",
    "FaultModel",
    "FleetSimulation",
    "GridTopology",
    "MOBILITY_MODELS",
    "MobilityModel",
    "NOISE_MODELS",
    "NodeCrashFaults",
    "NoiseModel",
    "NoiseState",
    "RandomTopology",
    "StaticMobility",
    "TOPOLOGIES",
    "Topology",
    "WaypointMobility",
    "build_model",
    "default_cache_dir",
    "load_manifest",
    "make_comm",
    "run_campaign",
    "sample_frame_outcomes",
    "stable_key_int",
]
