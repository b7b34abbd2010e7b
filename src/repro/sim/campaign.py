"""Fleet campaigns: many senders, one MAC, a manifest in, a summary out.

A campaign wires every ``repro.sim`` piece together: the scheduler
drives self-rescheduling Poisson arrivals per sensor; a packet-level
CSMA/CA MAC arbitrates per-contention-domain airtime (one domain per
(gateway, ZigBee channel) pair — the spatial-reuse assumption that far
apart cells do not hear each other); the communication model decides
each frame's fate at ``packet`` or ``sample`` fidelity; fault and noise
models perturb everything along the way.

MAC semantics (the packet-level reading of ``zigbee.csma``):

* A sender whose CCA hears an ongoing transmission defers to the
  current busy horizon plus a random slotted backoff.
* CCA is blind to a transmission younger than ``CCA_DURATION_S`` — two
  starts within that window **collide**, killing both.  Collisions are
  resolved retroactively at the *end* event, which is when delivery is
  decided (so a later blind starter can still revoke an in-flight
  frame, exactly as the convergecast simulator does).
* A failed frame retries (fresh CSMA attempt) only while the fault
  model says ACK feedback is available — during an ACK blackout losses
  go unnoticed and unrepaired.

Determinism: everything derives from the manifest seed through
per-entity scheduler streams, and :meth:`CampaignResult.summary`
contains no wall-clock quantities — same seed + same manifest gives a
bit-identical summary dict.
"""

import json

from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.sim.comm import CommunicationModel, make_comm
from repro.sim.faults import FAULT_MODELS
from repro.sim.mobility import MOBILITY_MODELS
from repro.sim.noise import NOISE_MODELS
from repro.sim.scheduler import EventScheduler
from repro.sim.topology import TOPOLOGIES
from repro.zigbee.channels import overlapping_zigbee_channels
from repro.zigbee.csma import CCA_DURATION_S, UNIT_BACKOFF_S

_M_OFFERED = REGISTRY.counter("sim.frames.offered")
_M_DELIVERED = REGISTRY.counter("sim.frames.delivered")
_M_COLLIDED = REGISTRY.counter("sim.frames.collided")
_M_LOST = REGISTRY.counter("sim.frames.lost")
_M_RETRIES = REGISTRY.counter("sim.frames.retries")
_M_DEFERS = REGISTRY.counter("sim.csma.defers")
_M_DOWN = REGISTRY.counter("sim.faults.skipped_down")
_M_LAT = REGISTRY.histogram(
    "sim.latency_ms", edges=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
)

#: Gap between a failed frame's end and its retry attempt (ACK wait).
RETRY_TURNAROUND_S = 0.000864  # macAckWaitDuration-ish at 250 kb/s

#: Backoff exponent window, per 802.15.4 slotted CSMA (2^BE - 1 slots).
MAX_BACKOFF_SLOTS = 8


class _Transmission:
    """One frame on the air in some contention domain."""

    __slots__ = (
        "node_id", "sequence", "attempt", "created_s", "start_s", "end_s",
        "collided",
    )

    def __init__(self, node_id, sequence, attempt, created_s, start_s, end_s):
        self.node_id = node_id
        self.sequence = sequence
        self.attempt = attempt
        self.created_s = created_s
        self.start_s = start_s
        self.end_s = end_s
        self.collided = False


class _Domain:
    """Per-(gateway, channel) contention state."""

    __slots__ = ("busy_until", "current", "airtime_s")

    def __init__(self):
        self.busy_until = 0.0
        self.current = None
        self.airtime_s = 0.0


class CampaignResult:
    """Aggregated campaign outcome with a deterministic summary."""

    def __init__(self, manifest, n_nodes, n_domains, duration_s, fidelity):
        self.manifest = manifest
        self.n_nodes = n_nodes
        self.n_domains = n_domains
        self.duration_s = duration_s
        self.fidelity = fidelity
        self.offered = 0
        self.delivered = 0
        self.collided = 0
        self.lost = 0
        self.retries = 0
        self.defers = 0
        self.skipped_down = 0
        self.airtime_s = 0.0
        self.latencies_s = []
        self.events_processed = 0
        #: Configured interference (from the manifest's noise model) and
        #: the observed interferer activity accumulated per delivery
        #: attempt — both deterministic, so summary() may carry them.
        self.interference_duty = 0.0
        self.n_interferers = 0
        self.interferer_samples = 0
        self.interferer_total = 0
        #: Wall-clock seconds; informational only, never in summary().
        self.elapsed_s = None

    @property
    def delivery_ratio(self):
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def utilization(self):
        denom = self.duration_s * self.n_domains
        return self.airtime_s / denom if denom > 0 else 0.0

    def _latency_stats(self):
        if not self.latencies_s:
            return {"mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0}
        ordered = sorted(self.latencies_s)
        n = len(ordered)
        return {
            "mean_ms": round(1e3 * sum(ordered) / n, 6),
            "p50_ms": round(1e3 * ordered[n // 2], 6),
            "p95_ms": round(1e3 * ordered[min(n - 1, (19 * n) // 20)], 6),
        }

    def summary(self):
        """Deterministic (seed+manifest → bit-identical) summary dict."""
        return {
            "name": self.manifest.get("name", "campaign"),
            "seed": self.manifest.get("seed", 0),
            "fidelity": self.fidelity,
            "n_nodes": self.n_nodes,
            "n_domains": self.n_domains,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "delivered": self.delivered,
            "collided": self.collided,
            "lost": self.lost,
            "retries": self.retries,
            "csma_defers": self.defers,
            "skipped_down": self.skipped_down,
            "delivery_ratio": round(self.delivery_ratio, 6),
            "utilization": round(self.utilization, 6),
            "latency": self._latency_stats(),
            "interference": {
                "duty": round(self.interference_duty, 6),
                "n_interferers": self.n_interferers,
                "mean_active": round(
                    self.interferer_total / self.interferer_samples, 6
                )
                if self.interferer_samples
                else 0.0,
            },
            "events_processed": self.events_processed,
        }

    def summary_json(self):
        return json.dumps(self.summary(), sort_keys=True, indent=2)


class FleetSimulation:
    """A whole sensor fleet reporting to gateways over SymBee links.

    Built from a manifest dict (see :func:`load_manifest`); call
    :meth:`run` once.  Components may be overridden by keyword for
    tests (notably ``table`` to inject a synthetic delivery table).
    """

    def __init__(self, manifest, table=None, cache_dir=None, jobs=None):
        self.manifest = dict(manifest)
        m = self.manifest
        self.seed = int(m.get("seed", 0))
        self.duration_s = float(m.get("duration_s", 5.0))
        self.fidelity = str(m.get("fidelity", "packet"))
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        traffic = dict(m.get("traffic") or {})
        self.interval_s = float(traffic.get("interval_s", 0.5))
        self.max_retries = int(traffic.get("max_retries", 1))
        if self.interval_s <= 0:
            raise ValueError("traffic interval_s must be positive")

        self.scheduler = EventScheduler(seed=self.seed)
        topology = dict(m.get("topology") or {"kind": "grid", "n_nodes": 9})
        if topology.get("kind") in ("random", "cluster"):
            # The campaign seed reshuffles placement unless the manifest
            # pins one.
            topology.setdefault("seed", self.seed)
        self.topology = build_model(TOPOLOGIES, topology, "topology", "grid")
        self.mobility = build_model(
            MOBILITY_MODELS, m.get("mobility"), "mobility", "static"
        )
        self.noise = build_model(NOISE_MODELS, m.get("noise"), "noise", "none")
        self.faults = build_model(FAULT_MODELS, m.get("faults"), "fault", "none")
        comm_spec = m.get("comm")
        self.comm = (
            comm_spec
            if isinstance(comm_spec, CommunicationModel)
            else make_comm(comm_spec)
        )

        self.mobility.bind(self.topology, self.scheduler)
        self.noise.bind(self.scheduler)
        self.faults.bind(self.scheduler)
        self.comm.bind(
            self.topology,
            self.mobility,
            self.noise,
            self.scheduler,
            fidelity=self.fidelity,
            table=table,
            cache_dir=cache_dir,
            jobs=jobs,
        )

        channels = overlapping_zigbee_channels(
            self.comm._cal_config.wifi_channel
        )
        self._channel_of = {
            node_id: channels[node_id % len(channels)]
            for node_id in self.topology.node_ids
        }
        self._domains = {}
        #: node -> its contention domain, resolved once.
        self._domain_of = {}
        for node_id in self.topology.node_ids:
            key = (
                self.topology.gateway_of[node_id],
                self._channel_of[node_id],
            )
            self._domain_of[node_id] = self._domains.setdefault(
                key, _Domain()
            )
        self._airtime_s = self.comm.frame_airtime_s()
        self.result = CampaignResult(
            self.manifest,
            n_nodes=len(self.topology.node_ids),
            n_domains=len(self._domains),
            duration_s=self.duration_s,
            fidelity=self.fidelity,
        )
        self.result.interference_duty = float(
            getattr(self.noise, "interference_duty", 0.0)
        )
        self.result.n_interferers = int(
            getattr(self.noise, "max_interferers", 0)
        )
        self._sequences = {}
        # Per-node draws: Poisson gaps as ``interval * standard
        # exponential`` (bit-identical to ``exponential(interval)``) and
        # backoff slots.
        self._traffic = self.scheduler.draws("traffic", "standard_exponential")
        self._backoff = self.scheduler.draws(
            "mac", "integers", 0, MAX_BACKOFF_SLOTS
        )

    # -- event handlers -----------------------------------------------------

    def _next_arrival(self, node_id, now_s):
        gap = self.interval_s * self._traffic[node_id]()
        at = now_s + max(gap, 1e-9)
        if at < self.duration_s:
            self.scheduler.at(at, self._on_arrival, node_id)

    def _on_arrival(self, node_id):
        now = self.scheduler.now
        self._next_arrival(node_id, now)
        if not self.faults.alive(node_id, now):
            self.result.skipped_down += 1
            _M_DOWN.inc()
            return
        sequence = self._sequences.get(node_id, 0)
        self._sequences[node_id] = sequence + 1
        self.result.offered += 1
        _M_OFFERED.inc()
        self._attempt(node_id, sequence, 0, now)

    def _attempt(self, node_id, sequence, attempt, created_s):
        now = self.scheduler.now
        domain = self._domain_of[node_id]
        current = domain.current
        if now < domain.busy_until:
            if current is not None and now < current.start_s + CCA_DURATION_S:
                # CCA sampled before the other transmitter's energy
                # ramped: both frames are on the air and both die.
                current.collided = True
                tx = self._start_transmission(
                    domain, node_id, sequence, attempt, created_s, now
                )
                tx.collided = True
                return
            # Heard the channel busy: defer past the horizon plus a
            # random slotted backoff.
            self.result.defers += 1
            _M_DEFERS.inc()
            retry_at = (
                domain.busy_until
                + CCA_DURATION_S
                + self._backoff[node_id]() * UNIT_BACKOFF_S
            )
            self.scheduler.at(
                retry_at, self._attempt, node_id, sequence, attempt, created_s
            )
            return
        self._start_transmission(
            domain, node_id, sequence, attempt, created_s, now
        )

    def _start_transmission(
        self, domain, node_id, sequence, attempt, created_s, now
    ):
        tx = _Transmission(
            node_id, sequence, attempt, created_s, now, now + self._airtime_s
        )
        domain.current = tx
        domain.busy_until = max(domain.busy_until, tx.end_s)
        domain.airtime_s += self._airtime_s
        self.result.airtime_s += self._airtime_s
        self.scheduler.at(tx.end_s, self._on_end, tx)
        return tx

    def _on_end(self, tx):
        now = self.scheduler.now
        delivered = False
        if not tx.collided:
            outcome = self.comm.deliver(
                tx.node_id, tx.sequence, tx.attempt, tx.start_s
            )
            delivered = outcome.delivered
            self.result.interferer_samples += 1
            self.result.interferer_total += int(outcome.interferers)
        else:
            self.result.collided += 1
            _M_COLLIDED.inc()
        if delivered:
            self.result.delivered += 1
            _M_DELIVERED.inc()
            latency = now - tx.created_s
            self.result.latencies_s.append(latency)
            _M_LAT.observe(latency * 1e3)
            return
        if tx.attempt < self.max_retries and self.faults.ack_available(
            tx.node_id, now
        ):
            self.result.retries += 1
            _M_RETRIES.inc()
            retry_at = (
                now
                + RETRY_TURNAROUND_S
                + self._backoff[tx.node_id]() * UNIT_BACKOFF_S
            )
            self.scheduler.at(
                retry_at,
                self._attempt,
                tx.node_id,
                tx.sequence,
                tx.attempt + 1,
                tx.created_s,
            )
            return
        self.result.lost += 1
        _M_LOST.inc()

    # -- driver -------------------------------------------------------------

    def run(self):
        """Execute the campaign; returns the :class:`CampaignResult`."""
        import time

        started = time.perf_counter()
        with TRACER.span(
            "sim.campaign",
            fidelity=self.fidelity,
            n_nodes=len(self.topology.node_ids),
        ):
            for node_id in self.topology.node_ids:
                self._next_arrival(node_id, 0.0)
            # Drain fully: retries scheduled near the horizon may land
            # past duration_s; arrivals stop there, so the queue empties.
            self.scheduler.run()
        self.result.events_processed = self.scheduler.events_processed
        self.result.elapsed_s = time.perf_counter() - started
        return self.result


def load_manifest(path):
    """Read a scenario manifest (JSON) with a path-prefixed error."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as error:
        raise ValueError(
            f"{path}: {error.strerror or error}"
        ) from None
    except ValueError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    return manifest


def build_model(models, spec, what, default_kind):
    """Build a manifest model from ``{"kind": ..., **kwargs}`` (or None).

    ``models`` maps each kind to its constructor (``TOPOLOGIES``,
    ``FAULT_MODELS``, ...); ``what`` names the model in the error an
    unknown kind raises.
    """
    spec = dict(spec or {})
    kind = spec.pop("kind", default_kind)
    try:
        factory = models[kind]
    except KeyError:
        valid = ", ".join(sorted(models))
        raise ValueError(
            f"unknown {what} kind {kind!r}; valid: {valid}"
        ) from None
    return factory(**spec)


def run_campaign(manifest, table=None, cache_dir=None, jobs=None):
    """Build and run a fleet campaign in one call."""
    simulation = FleetSimulation(
        manifest, table=table, cache_dir=cache_dir, jobs=jobs
    )
    return simulation.run()
