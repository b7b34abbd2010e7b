"""Node and gateway fault models for fleet simulations.

Faults answer two questions the MAC loop asks, both in nondecreasing
time order: *is this sensor alive right now?* (a crashed node generates
no traffic) and *is the MAC feedback path up?* (during an ACK blackout a
sender learns nothing about its frame's fate, so it never retries —
the convergecast reading of ``transport``'s ACK-blackout profile).

Crash/recover dynamics are per-node alternating exponential up/down
sojourns advanced lazily on dedicated scheduler streams keyed
``("faults", node_id)``, the same lazy-chain idiom
:class:`repro.transport.faults.GilbertElliott` uses.  Each sojourn is
``mean * standard_exponential()`` from the node's block drawer,
bit-identical to ``exponential(mean)``.

Each model is bound to the campaign's scheduler once (``bind``), then
queried; ``FAULT_MODELS`` maps a manifest ``kind`` to its class.
"""


class FaultModel:
    """Base protocol: nothing ever fails."""

    kind = "none"

    def bind(self, scheduler):
        self._scheduler = scheduler

    def alive(self, node_id, time_s):
        """Whether the sensor is up at ``time_s`` (per-node monotone)."""
        return True

    def ack_available(self, node_id, time_s):
        """Whether MAC-level delivery feedback works at ``time_s``."""
        return True


class NodeCrashFaults(FaultModel):
    """Random node crash/recover with exponential sojourns.

    Each node runs an independent up/down renewal process: up for
    Exponential(``mtbf_s``), down for Exponential(``mean_downtime_s``).
    State is evaluated lazily at query time, so only nodes that actually
    transmit pay for their chain.
    """

    kind = "crash"

    def __init__(self, mtbf_s=30.0, mean_downtime_s=5.0):
        if mtbf_s <= 0 or mean_downtime_s <= 0:
            raise ValueError("sojourn means must be positive")
        self.mtbf_s = float(mtbf_s)
        self.mean_downtime_s = float(mean_downtime_s)
        self._chains = {}

    def bind(self, scheduler):
        super().bind(scheduler)
        self._chains = {}
        self._sojourns = scheduler.draws("faults", "standard_exponential")

    def alive(self, node_id, time_s):
        chain = self._chains.get(node_id)
        if chain is None:
            sojourn = self._sojourns[node_id]
            chain = [True, self.mtbf_s * sojourn()]
            self._chains[node_id] = chain
        up, next_flip = chain
        if time_s >= next_flip:
            sojourn = self._sojourns[node_id]
            while time_s >= next_flip:
                up = not up
                mean = self.mtbf_s if up else self.mean_downtime_s
                next_flip += mean * sojourn()
            chain[0] = up
            chain[1] = next_flip
        return up


class AckBlackoutFaults(FaultModel):
    """Scripted windows where MAC delivery feedback goes dark.

    Sensors stay up and frames still fly, but inside each
    ``(start_s, end_s)`` window a sender gets no ACK, so a lost frame is
    never retried — retransmission pressure visibly drops while raw
    loss stays constant, the signature the transport PR established.
    """

    kind = "ack-blackout"

    def __init__(self, blackouts=((0.3, 0.9),)):
        self.blackouts = tuple((float(a), float(b)) for a, b in blackouts)
        for a, b in self.blackouts:
            if b <= a:
                raise ValueError("blackout windows must have end > start")

    def ack_available(self, node_id, time_s):
        return not any(a <= time_s < b for a, b in self.blackouts)


#: Manifest ``kind`` -> constructor.
FAULT_MODELS = {
    "none": FaultModel,
    "crash": NodeCrashFaults,
    "ack-blackout": AckBlackoutFaults,
}
