"""Convergecast network simulator: many SymBee sensors, one WiFi sink.

Time handling is event-ordered on a shared-channel timeline:

1. every node generates readings as a Poisson process and queues frames;
2. a frame's transmission start is decided by unslotted CSMA-CA against
   the committed channel timeline (hidden terminals are ignored — all
   nodes hear each other, matching a single-room deployment);
3. transmissions that still overlap (CCA race within a backoff slot)
   collide and are lost; up to ``max_retries`` MAC retries follow;
4. every non-collided transmission is then pushed through the *actual*
   PHY simulation (:class:`repro.core.SymBeeLink`) for the node's
   distance/scenario, deciding delivery bit-by-bit.

The result object aggregates delivery ratio, end-to-end latency,
aggregate goodput and channel utilization.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.frame import frame_overhead_bits
from repro.core.link import SymBeeLink
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.runtime import as_seed_sequence, run_trials
from repro.sim.scheduler import EventScheduler
from repro.zigbee.csma import CsmaCa
from repro.zigbee.frame import ppdu_duration_seconds
from repro.zigbee.mac import MAC_OVERHEAD_BYTES

#: MAC-layer telemetry: per-attempt outcomes plus the queueing delay a
#: frame accrues between its reading being generated and hitting the air.
_M_ARRIVALS = REGISTRY.counter("mac.arrivals")
_M_TRANSMISSIONS = REGISTRY.counter("mac.transmissions")
_M_CSMA_FAILURES = REGISTRY.counter("mac.csma_failures")
_M_COLLISIONS = REGISTRY.counter("mac.collisions")
_M_RETRIES = REGISTRY.counter("mac.retries")
_M_DELIVERED = REGISTRY.counter("mac.delivered")
_M_PHY_LOST = REGISTRY.counter("mac.phy_lost")
_M_QUEUE_DELAY = REGISTRY.histogram(
    "mac.queue_delay_s",
    edges=(0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0),
)


def _phy_trial(task):
    """One PHY frame evaluation (module-level so it pickles to workers).

    The trial rng is derived purely from the transmission's identity, so
    outcomes match between inline and deferred/parallel evaluation.
    """
    link, seed, data_bits, sequence = task
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, data_bits)
    _, frame = link.send_frame(
        bits,
        sequence=sequence & 0xFF,
        rng=rng,
        mac_sequence=sequence & 0xFF,
    )
    return frame is not None and frame.crc_ok


@dataclass(frozen=True)
class NodeConfig:
    """One sensor node's placement and traffic.

    ``position`` is an optional (x, y) in metres with the WiFi sink at
    the origin; when given, ``distance_m`` may be omitted (it is derived)
    and pairwise node distances enable hidden-terminal modelling via the
    network's ``carrier_sense_range_m``.
    """

    node_id: int
    distance_m: float = None
    reading_interval_s: float = 0.5
    data_bits: int = 16
    position: tuple = None

    def __post_init__(self):
        if self.position is not None:
            x, y = self.position
            derived = float(np.hypot(x, y))
            if self.distance_m is None:
                object.__setattr__(self, "distance_m", derived)
        if self.distance_m is None or self.distance_m <= 0:
            raise ValueError("node needs a positive distance or a position")

    def distance_to(self, other):
        """Pairwise distance; requires both nodes to have positions."""
        if self.position is None or other.position is None:
            raise ValueError("pairwise distance needs node positions")
        return float(
            np.hypot(
                self.position[0] - other.position[0],
                self.position[1] - other.position[1],
            )
        )


@dataclass
class TransmissionRecord:
    """One on-air attempt and its fate."""

    node_id: int
    sequence: int
    created_s: float
    start_s: float
    duration_s: float
    attempt: int
    collided: bool = False
    delivered: bool = False

    @property
    def end_s(self):
        return self.start_s + self.duration_s

    @property
    def latency_s(self):
        return self.end_s - self.created_s


@dataclass
class NetworkResult:
    """Aggregated outcome of one simulation run."""

    records: list = field(default_factory=list)
    readings_generated: int = 0
    sim_duration_s: float = 0.0

    @property
    def delivered(self):
        return [r for r in self.records if r.delivered]

    @property
    def delivery_ratio(self):
        if self.readings_generated == 0:
            return 0.0
        unique = {(r.node_id, r.sequence) for r in self.delivered}
        return len(unique) / self.readings_generated

    @property
    def collision_rate(self):
        if not self.records:
            return 0.0
        return sum(r.collided for r in self.records) / len(self.records)

    @property
    def mean_latency_s(self):
        latencies = [r.latency_s for r in self.delivered]
        return float(np.mean(latencies)) if latencies else float("nan")

    @property
    def channel_utilization(self):
        if self.sim_duration_s <= 0:
            return 0.0
        busy = sum(r.duration_s for r in self.records)
        return busy / self.sim_duration_s

    def goodput_bps(self, data_bits_per_reading):
        if self.sim_duration_s <= 0:
            return 0.0
        unique = {(r.node_id, r.sequence) for r in self.delivered}
        return len(unique) * data_bits_per_reading / self.sim_duration_s


class ConvergecastNetwork:
    """N SymBee sensors converging on one WiFi access point."""

    def __init__(
        self,
        nodes,
        scenario,
        sim_duration_s=5.0,
        max_retries=2,
        seed=0,
        csma=None,
        carrier_sense_range_m=None,
        jobs=None,
    ):
        self.nodes = list(nodes)
        if not self.nodes:
            raise ValueError("need at least one node")
        self.scenario = scenario
        self.sim_duration_s = float(sim_duration_s)
        self.max_retries = int(max_retries)
        self.rng = np.random.default_rng(seed)
        #: PHY trial seeds derive from this root keyed by the
        #: transmission identity (node, sequence, attempt), so a frame's
        #: fate is independent of evaluation order and worker count.
        self._phy_seed_root = as_seed_sequence(seed)
        #: Worker processes for PHY evaluation (None -> ``REPRO_JOBS``).
        #: Only ``max_retries=0`` runs can parallelize: with retries, a
        #: frame's delivery outcome feeds back into the MAC schedule.
        self.jobs = jobs
        self.csma = csma if csma is not None else CsmaCa()
        #: When set (and nodes carry positions), a node's CCA only hears
        #: transmitters within this range — the hidden-terminal model.
        #: The sink still receives everything, so hidden transmissions
        #: collide at the receiver.
        self.carrier_sense_range_m = carrier_sense_range_m
        if carrier_sense_range_m is not None:
            if any(node.position is None for node in self.nodes):
                raise ValueError(
                    "carrier sensing by range requires node positions"
                )
            self._audible = {
                (a.node_id, b.node_id): a.distance_to(b) <= carrier_sense_range_m
                for a in self.nodes
                for b in self.nodes
            }
        else:
            self._audible = None
        self._links = {
            node.node_id: SymBeeLink(
                link_channel=scenario.link(node.distance_m),
                interference=scenario.interference(),
            )
            for node in self.nodes
        }
        self._timeline = []  # committed (start, end) intervals, kept sorted

    # -- channel timeline -------------------------------------------------------

    def _channel_busy(self, start_s, duration_s, listener_id=None):
        """Busy as perceived by ``listener_id`` (None = hears everything)."""
        end_s = start_s + duration_s
        for s, e, owner in self._timeline:
            if not (s < end_s and start_s < e):
                continue
            if (
                listener_id is None
                or self._audible is None
                or owner is None
                or self._audible[(listener_id, owner)]
            ):
                return True
        return False

    def _commit(self, start_s, end_s, owner=None):
        self._timeline.append((start_s, end_s, owner))
        self._timeline.sort()

    @staticmethod
    def _frame_airtime(node):
        """On-air duration of one SymBee frame from this node."""
        payload_bytes = 4 + frame_overhead_bits() + node.data_bits
        return ppdu_duration_seconds(payload_bytes + MAC_OVERHEAD_BYTES)

    def _phy_seed(self, node_id, sequence, attempt):
        """Deterministic per-transmission seed, independent of order."""
        root = self._phy_seed_root
        return np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=root.spawn_key + (int(node_id), int(sequence), int(attempt)),
        )

    # -- simulation ----------------------------------------------------------------

    def _generate_arrivals(self):
        """Poisson reading arrivals per node, merged chronologically."""
        arrivals = []
        for node in self.nodes:
            clock = float(self.rng.exponential(node.reading_interval_s))
            sequence = 0
            while clock < self.sim_duration_s:
                arrivals.append((clock, node, sequence))
                sequence += 1
                clock += float(self.rng.exponential(node.reading_interval_s))
        arrivals.sort(key=lambda item: item[0])
        return arrivals

    def run(self):
        """Run one simulation and return a :class:`NetworkResult`.

        The MAC timeline always runs serially (it is a single shared
        channel).  PHY evaluations run inline when retries are enabled —
        a lost frame reschedules itself, so delivery must be known before
        the event loop proceeds — and are otherwise deferred and batched
        through the parallel runtime, since without retries a frame's
        fate cannot influence the schedule.
        """
        with TRACER.span("network.run", nodes=len(self.nodes)):
            result = self._run_events()
        if REGISTRY.enabled:
            # Final accounting (not inline): collision revocation can
            # retro-actively flip earlier records, so the settled record
            # list is the only consistent source.
            records = result.records
            _M_ARRIVALS.inc(result.readings_generated)
            _M_TRANSMISSIONS.inc(len(records))
            _M_COLLISIONS.inc(sum(r.collided for r in records))
            _M_DELIVERED.inc(len(result.delivered))
            _M_PHY_LOST.inc(
                sum(1 for r in records if not r.collided and not r.delivered)
            )
            _M_QUEUE_DELAY.observe_array(
                [r.start_s - r.created_s for r in records]
            )
        return result

    def _run_events(self):
        """The MAC/PHY event loop behind :meth:`run`.

        Events run on a :class:`repro.sim.EventScheduler`: one event per
        frame attempt, retries rescheduling themselves.  The scheduler's
        deterministic (time, insertion) tie-breaking reproduces the
        historical sorted-list ordering exactly — a retry's time never
        precedes its own trigger event, so at equal timestamps the
        insertion order is the processing order in both schemes — which
        keeps every ``self.rng`` draw, and therefore every result,
        bit-identical across the refactor.
        """
        arrivals = self._generate_arrivals()
        result = NetworkResult(
            readings_generated=len(arrivals), sim_duration_s=self.sim_duration_s
        )
        node_free_at = {node.node_id: 0.0 for node in self.nodes}
        defer_phy = self.max_retries == 0
        deferred = []  # (record, phy task) pairs when defer_phy
        scheduler = EventScheduler()

        def attempt_event(created, node, sequence, attempt):
            start_floor = max(created, node_free_at[node.node_id])

            def hears(start_s, duration_s, _node_id=node.node_id):
                return self._channel_busy(start_s, duration_s, _node_id)

            outcome = self.csma.attempt(start_floor, hears, self.rng)
            if not outcome.success:
                _M_CSMA_FAILURES.inc()
                if attempt < self.max_retries:
                    _M_RETRIES.inc()
                    scheduler.at(
                        outcome.tx_time_s,
                        attempt_event,
                        outcome.tx_time_s,
                        node,
                        sequence,
                        attempt + 1,
                    )
                return

            duration = self._frame_airtime(node)
            record = TransmissionRecord(
                node_id=node.node_id,
                sequence=sequence,
                created_s=created,
                start_s=outcome.tx_time_s,
                duration_s=duration,
                attempt=attempt,
            )
            # Collision at the *sink*: CCA can pass while an overlapping
            # transmission exists (backoff races, or a hidden terminal
            # the sender cannot hear).  The receiver loses BOTH frames,
            # so earlier overlapped records are revoked too.
            record.collided = self._channel_busy(record.start_s, duration)
            if record.collided:
                for earlier in result.records:
                    if (
                        earlier.start_s < record.end_s
                        and record.start_s < earlier.end_s
                    ):
                        earlier.collided = True
                        earlier.delivered = False
            self._commit(record.start_s, record.end_s, node.node_id)
            node_free_at[node.node_id] = record.end_s

            if not record.collided:
                task = (
                    self._links[node.node_id],
                    self._phy_seed(node.node_id, sequence, attempt),
                    node.data_bits,
                    sequence,
                )
                if defer_phy:
                    deferred.append((record, task))
                else:
                    record.delivered = _phy_trial(task)

            result.records.append(record)
            if not record.delivered and attempt < self.max_retries:
                _M_RETRIES.inc()
                scheduler.at(
                    record.end_s,
                    attempt_event,
                    record.end_s,
                    node,
                    sequence,
                    attempt + 1,
                )

        for created, node, sequence in arrivals:
            scheduler.at(created, attempt_event, created, node, sequence, 0)
        scheduler.run()

        if deferred:
            outcomes = run_trials(
                _phy_trial, [task for _, task in deferred], jobs=self.jobs
            )
            for (record, _), delivered in zip(deferred, outcomes):
                # A later event may have revoked this record (hidden-
                # terminal collision at the sink) after it was queued.
                record.delivered = delivered and not record.collided

        return result
