"""Reliable message delivery over the SymBee link: the transport session.

One :class:`TransportSession` owns a fault-aware PHY harness
(:class:`repro.transport.channel.TransportChannel`), a FreeBee-style ACK
side channel, a selective-repeat ARQ machine and an adaptation policy,
and advances them in **virtual time**: data frames occupy their true
802.15.4 air time, ACK beacon trains their true FreeBee duration, and
retransmit timers fire on the same clock.  No wall-clock sleeping — a
multi-second link exchange simulates in however long its PHY frames take
to synthesize.

Determinism is the load-bearing property.  Every stochastic draw comes
from a ``SeedSequence`` child keyed by *what* the draw is for — the
fault profile's dynamics, transmission (fragment, attempt), ACK index —
never by *when* it happens to be made, so a given seed reproduces the
exact retransmission schedule, and independent sessions can run on
worker processes (``repro.runtime``) with results identical to serial
execution.
"""

import heapq
from dataclasses import dataclass

from numpy.random import SeedSequence, default_rng

from repro.core.frame import frame_airtime_s
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.transport.ackchannel import ACK_WINDOW, AckChannel
from repro.transport.arq import ArqSender
from repro.transport.channel import TransportChannel
from repro.transport.faults import FaultProfile
from repro.transport.pdu import (
    MAX_MSG_ID,
    NOMINAL_PAYLOAD_BITS,
    SCHEME_NAMES,
    encode_fragment,
    feasible_schemes,
    scheme_id,
)
from repro.transport.policy import TransportPolicy
from repro.transport.receiver import TransportReceiver
from repro.transport.segmentation import segment_message

#: RX/TX turnaround between consecutive frames (12 symbols at 62.5 ksym/s,
#: the 802.15.4 aTurnaroundTime).
TURNAROUND_S = 192e-6

_M_FRAGMENTS = REGISTRY.counter("transport.fragments.sent")
_M_FRAG_DELIVERED = REGISTRY.counter("transport.fragments.delivered")
_M_RETRANSMITS = REGISTRY.counter("transport.retransmits")
_M_FEC_SWITCHES = REGISTRY.counter("transport.fec_switches")
_M_MESSAGES = REGISTRY.counter("transport.messages")
_M_MSG_DELIVERED = REGISTRY.counter("transport.messages.delivered")
_M_MSG_FAILED = REGISTRY.counter("transport.messages.failed")
_M_ACKS_SENT = REGISTRY.counter("transport.acks.sent")
_M_ACKS_DELIVERED = REGISTRY.counter("transport.acks.delivered")
_M_ACKS_LOST = REGISTRY.counter("transport.acks.lost")
_M_RTT = REGISTRY.histogram(
    "transport.rtt_s", edges=(0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
)
_M_ATTEMPTS = REGISTRY.histogram(
    "transport.attempts", edges=(1, 2, 3, 4, 6, 8, 12)
)
_M_GOODPUT = REGISTRY.gauge("transport.goodput_bps")
_M_IN_FLIGHT = REGISTRY.gauge("transport.window_in_flight")
_M_FEC_SCHEME = REGISTRY.gauge("transport.fec_scheme")
_M_LINK_QUALITY = REGISTRY.gauge("transport.link_quality")
_M_EST_BER = REGISTRY.gauge("transport.estimated_ber")


@dataclass(frozen=True)
class TxAttempt:
    """One data-frame transmission in the session schedule."""

    time_s: float
    frag_index: int
    attempt: int
    scheme: int
    delivered: bool      # PHY preamble captured, stream complete
    accepted: bool       # passed the transport's inner checksum


@dataclass(frozen=True)
class AckAttempt:
    """One ACK beacon train in the session schedule."""

    start_s: float
    arrival_s: float
    ok: bool
    base: "int | None"
    quality: "int | None"


@dataclass(frozen=True)
class TransportResult:
    """Outcome of one message exchange (picklable for the MC runtime)."""

    message_bytes: int
    delivered: bool
    byte_exact: bool
    elapsed_s: float
    fragment_bits: int
    frag_count: int
    n_tx: int
    retransmits: int
    fec_switches: int
    schedule: tuple          # TxAttempt per transmission, in time order
    acks: tuple              # AckAttempt per ACK train
    scheme_counts: dict      # scheme name -> transmissions

    @property
    def goodput_bps(self):
        if not self.delivered or self.elapsed_s <= 0:
            return 0.0
        return 8.0 * self.message_bytes / self.elapsed_s


def _spawned_rng(root, *key):
    """Generator for a stable purpose-keyed child of the root seed."""
    return default_rng(
        SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + tuple(key))
    )


class _Endpoint:
    """Sender+receiver pair working through one message.

    :meth:`TransportSession.send` builds one per message and advances
    it on the session clock; the clock, channel and policy outlive it.
    """

    #: Attempts after which a fragment goes out under the strongest
    #: feasible scheme, whatever the policy says.
    escalate_after = 2

    _KEY_PROFILE = 1
    _KEY_TX = 2
    _KEY_ACK = 3

    def __init__(
        self,
        root,
        channel,
        ack_channel,
        policy,
        fixed_scheme,
        message,
        msg_id,
        fragment_bits,
        window,
        rto_s,
        max_attempts,
    ):
        self.root = root
        self.channel = channel
        self.ack_channel = ack_channel
        self.policy = policy
        self.fixed_scheme = fixed_scheme
        self.message = bytes(message)
        self.msg_id = int(msg_id)
        self.fragment_bits = int(fragment_bits)
        self.fragments = segment_message(self.message, self.msg_id, self.fragment_bits)
        self.feasible = feasible_schemes(self.fragment_bits)
        self.arq = ArqSender(
            len(self.fragments),
            window=window,
            rto_s=rto_s,
            max_attempts=max_attempts,
        )
        self.receiver = TransportReceiver()
        self._profile_rng = _spawned_rng(root, self._KEY_PROFILE)
        self._ack_queue = []       # (arrival_s, AckDelivery) min-heap
        self._ack_seq = 0
        #: End of the ACK beacon train on the air; one AP plays one
        #: train at a time.
        self._ack_until_s = float("-inf")
        self._ack_dirty = False
        self._last_scheme = None
        self.schedule = []
        self.acks = []
        self.fec_switches = 0
        self.scheme_counts = {}

    # -- feedback path -------------------------------------------------------

    def pump_acks(self, now_s):
        """Apply every ACK whose beacon train has finished by ``now_s``."""
        while self._ack_queue and self._ack_queue[0][0] <= now_s:
            _, _, delivery = heapq.heappop(self._ack_queue)
            if delivery.record is None:
                if REGISTRY.enabled:
                    _M_ACKS_LOST.inc()
                continue
            if REGISTRY.enabled:
                _M_ACKS_DELIVERED.inc()
            self.policy.on_quality(delivery.record.quality)
            newly = self.arq.on_ack(delivery.record, self.msg_id)
            if REGISTRY.enabled:
                for k in newly:
                    if self.arq.last_tx_s[k] is not None:
                        _M_RTT.observe(delivery.arrival_s - self.arq.last_tx_s[k])
                    _M_ATTEMPTS.observe(self.arq.attempts[k])
                _M_LINK_QUALITY.set(delivery.record.quality)
                _M_EST_BER.set(self.policy.estimated_ber)
                _M_IN_FLIGHT.set(self.arq.in_flight())

    def maybe_send_ack(self, now_s):
        """Receiver pushes its current state when the side channel frees up.

        Receptions that land while a beacon train is still on the air
        mark the state dirty; the next call after the channel frees
        flushes them, so the sender is never left waiting on a state
        change that happened mid-train.
        """
        if (
            not self._ack_dirty
            or not self.receiver.started
            or now_s < self._ack_until_s
        ):
            return
        self._ack_dirty = False
        record = self.receiver.ack_record()
        rng = _spawned_rng(self.root, self._KEY_ACK, self._ack_seq)
        self._ack_seq += 1
        delivery = self.ack_channel.send(record, now_s, rng)
        self._ack_until_s = delivery.arrival_s
        heapq.heappush(
            self._ack_queue, (delivery.arrival_s, self._ack_seq, delivery)
        )
        ok = delivery.record is not None
        self.acks.append(
            AckAttempt(
                start_s=now_s,
                arrival_s=delivery.arrival_s,
                ok=ok,
                base=record.base,
                quality=record.quality,
            )
        )
        if REGISTRY.enabled:
            _M_ACKS_SENT.inc()

    # -- data path -----------------------------------------------------------

    def _choose_scheme(self, attempt):
        if self.fixed_scheme is not None:
            return self.fixed_scheme
        if attempt > self.escalate_after:
            return max(self.feasible)
        return self.policy.decide_scheme(self.feasible, self.fragment_bits).scheme

    def tx_ready(self, now_s):
        return self.arq.next_tx(now_s) is not None

    def transmit(self, now_s):
        """Send the most urgent eligible fragment; returns its air time."""
        k = self.arq.next_tx(now_s)
        if k is None:
            raise RuntimeError("transmit called with no eligible fragment")
        attempt = self.arq.attempts[k] + 1
        scheme = self._choose_scheme(attempt)
        if self._last_scheme is not None and scheme != self._last_scheme:
            self.fec_switches += 1
            if REGISTRY.enabled:
                _M_FEC_SWITCHES.inc()
        self._last_scheme = scheme
        name = SCHEME_NAMES[scheme]
        self.scheme_counts[name] = self.scheme_counts.get(name, 0) + 1

        data_bits, frame_type, sequence = encode_fragment(self.fragments[k], scheme)
        rng = _spawned_rng(self.root, self._KEY_TX, k, attempt)
        with TRACER.span(
            "transport.tx", frag=k, attempt=attempt, scheme=name
        ):
            observation = self.channel.transmit(
                data_bits, frame_type, sequence, now_s, rng, self._profile_rng
            )
        airtime_s = frame_airtime_s(len(data_bits))
        self.arq.record_tx(k, now_s, airtime_s)

        fragment = self.receiver.on_observation(observation)
        accepted = fragment is not None
        if observation.delivered:
            # Even a duplicate warrants a fresh ACK: receiving one means
            # the previous ACK very likely died on the side channel.
            self._ack_dirty = True
        self.schedule.append(
            TxAttempt(
                time_s=now_s,
                frag_index=k,
                attempt=attempt,
                scheme=scheme,
                delivered=observation.delivered,
                accepted=accepted,
            )
        )
        if REGISTRY.enabled:
            _M_FRAGMENTS.inc()
            if attempt > 1:
                _M_RETRANSMITS.inc()
            if accepted:
                _M_FRAG_DELIVERED.inc()
            _M_FEC_SCHEME.set(scheme)
            _M_IN_FLIGHT.set(self.arq.in_flight())
        end_s = now_s + airtime_s
        self.maybe_send_ack(end_s)
        return airtime_s

    # -- scheduling ----------------------------------------------------------

    def next_event(self, now_s):
        """Earliest future instant at which this endpoint can make progress."""
        times = [t for t, _, _ in self._ack_queue[:1]]
        wakeup = self.arq.next_wakeup()
        if wakeup is not None and wakeup > now_s:
            times.append(wakeup)
        if (
            self._ack_dirty
            and self.receiver.started
            and self._ack_until_s > now_s
        ):
            times.append(self._ack_until_s)
        return min(times) if times else None

    @property
    def done(self):
        return self.arq.done

    @property
    def failed(self):
        """Out of budget with no feedback left that could still save it."""
        return (
            not self.arq.done
            and self.arq.exhausted
            and not self._ack_queue
            and self.arq.next_tx(float("inf")) is None
        )

    @property
    def active(self):
        return not self.done and not self.failed

    def result(self, elapsed_s):
        retransmits = sum(1 for tx in self.schedule if tx.attempt > 1)
        delivered = self.arq.done
        received = self.receiver.message()
        return TransportResult(
            message_bytes=len(self.message),
            delivered=delivered,
            byte_exact=received == self.message,
            elapsed_s=float(elapsed_s),
            fragment_bits=self.fragment_bits,
            frag_count=len(self.fragments),
            n_tx=len(self.schedule),
            retransmits=retransmits,
            fec_switches=self.fec_switches,
            schedule=tuple(self.schedule),
            acks=tuple(self.acks),
            scheme_counts=dict(self.scheme_counts),
        )


class TransportSession:
    """Single-sender reliable transport over a faulted SymBee link."""

    def __init__(
        self,
        snr_db=6.0,
        fault_profile=None,
        seed=0,
        fec="adaptive",
        window=ACK_WINDOW,
        rto_s=0.35,
        max_attempts=12,
    ):
        self.root = (
            seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
        )
        profile = fault_profile if fault_profile is not None else FaultProfile()
        self.profile = profile
        self.channel = TransportChannel(snr_db=snr_db, fault_profile=profile)
        impairments = profile.ack_impairments()
        self.ack_channel = AckChannel(
            loss_prob=impairments.loss_prob,
            jitter_sigma_s=impairments.jitter_sigma_s,
            blackouts=impairments.blackouts,
        )
        if fec == "adaptive":
            self.fixed_scheme = None
        else:
            self.fixed_scheme = scheme_id(fec) if isinstance(fec, str) else int(fec)
        self.policy = TransportPolicy()
        self.window = int(window)
        self.rto_s = float(rto_s)
        self.max_attempts = int(max_attempts)
        self._msg_seq = 0
        self._clock_s = 0.0

    def _fragment_bits(self):
        if self.fixed_scheme is not None:
            return NOMINAL_PAYLOAD_BITS[self.fixed_scheme]
        return self.policy.decide_fragmentation().fragment_bits

    def send(self, message):
        """Deliver ``message`` (bytes) reliably; a :class:`TransportResult`.

        Repeated calls share the session clock, channel tracker and
        policy state — a long-lived sender whose adaptation carries over
        from message to message.
        """
        msg_id = self._msg_seq % MAX_MSG_ID
        endpoint = _Endpoint(
            root=SeedSequence(
                entropy=self.root.entropy,
                spawn_key=self.root.spawn_key + (self._msg_seq,),
            ),
            channel=self.channel,
            ack_channel=self.ack_channel,
            policy=self.policy,
            fixed_scheme=self.fixed_scheme,
            message=message,
            msg_id=msg_id,
            fragment_bits=self._fragment_bits(),
            window=self.window,
            rto_s=self.rto_s,
            max_attempts=self.max_attempts,
        )
        self._msg_seq += 1
        if REGISTRY.enabled:
            _M_MESSAGES.inc()

        start_s = self._clock_s
        now_s = start_s
        with TRACER.span("transport.message", msg_id=msg_id, bytes=len(message)):
            while True:
                endpoint.pump_acks(now_s)
                endpoint.maybe_send_ack(now_s)
                if endpoint.done or endpoint.failed:
                    break
                if endpoint.tx_ready(now_s):
                    airtime_s = endpoint.transmit(now_s)
                    now_s += airtime_s + TURNAROUND_S
                    continue
                upcoming = endpoint.next_event(now_s)
                if upcoming is None:
                    break  # out of budget and out of feedback
                now_s = max(now_s, upcoming)

        self._clock_s = now_s
        result = endpoint.result(now_s - start_s)
        if REGISTRY.enabled:
            if result.delivered:
                _M_MSG_DELIVERED.inc()
                _M_GOODPUT.set(result.goodput_bps)
            else:
                _M_MSG_FAILED.inc()
        return result
