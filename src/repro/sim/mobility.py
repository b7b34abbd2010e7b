"""Node mobility: where is a node at simulated time ``t``?

Mobility models are queried by the communication model at every
transmission start, in nondecreasing time order (the event loop
guarantees it), so trajectory state advances lazily per node.  Per-node
randomness comes from dedicated scheduler streams keyed
``("mobility", node_id)`` — one node's wandering never perturbs
another's, and adding nodes does not reshuffle existing trajectories.

Each model follows a ``bind``-then-``position`` protocol;
``MOBILITY_MODELS`` maps a manifest ``kind`` to its class.
"""

import math


class MobilityModel:
    """Base protocol: bind to a simulation, then answer position queries."""

    kind = "static"

    #: Whether every node stays at its topology position for the whole
    #: run; consumers may then compute position-derived values once.
    static = True

    def bind(self, topology, scheduler):
        """Attach to the run (called once before events fire)."""
        self._topology = topology
        self._scheduler = scheduler

    def position(self, node_id, time_s):
        """Node position (x, y) at ``time_s`` (nondecreasing per node)."""
        return self._topology.positions[node_id]


class StaticMobility(MobilityModel):
    """Everyone stays put — the degenerate (and fastest) model."""


class WaypointMobility(MobilityModel):
    """Random waypoint: pick a point in the arena, walk there, pause.

    The classic mobility benchmark: each node independently draws a
    destination uniform in a disc (radius ``area_radius_m``, default the
    topology extent plus one hop), walks at ``speed_m_s``, pauses
    ``pause_s``, repeats.  Gateways never move.
    """

    kind = "waypoint"
    static = False

    def __init__(self, speed_m_s=1.4, pause_s=0.0, area_radius_m=None):
        if speed_m_s <= 0:
            raise ValueError("speed must be positive")
        if pause_s < 0:
            raise ValueError("pause must be nonnegative")
        self.speed_m_s = float(speed_m_s)
        self.pause_s = float(pause_s)
        self.area_radius_m = (
            float(area_radius_m) if area_radius_m is not None else None
        )
        self._legs = {}

    def bind(self, topology, scheduler):
        super().bind(topology, scheduler)
        if self.area_radius_m is None:
            self.area_radius_m = topology.extent_m() + 10.0
        self._legs = {}
        self._uniform = scheduler.draws("mobility", "random")

    def _draw_waypoint(self, uniform):
        r = self.area_radius_m * math.sqrt(uniform())
        a = 2.0 * math.pi * uniform()
        return (r * math.cos(a), r * math.sin(a))

    def position(self, node_id, time_s):
        leg = self._legs.get(node_id)
        if leg is None:
            start = self._topology.positions[node_id]
            leg = self._new_leg(node_id, 0.0, start)
        t0, t1, p0, p1 = leg
        while time_s >= t1:
            leg = self._new_leg(node_id, t1, p1)
            t0, t1, p0, p1 = leg
        if p0 == p1:  # pausing
            return p0
        frac = (time_s - t0) / (t1 - t0)
        return (
            p0[0] + frac * (p1[0] - p0[0]),
            p0[1] + frac * (p1[1] - p0[1]),
        )

    def _new_leg(self, node_id, start_time, start_pos):
        """Next trajectory leg: a walk to a fresh waypoint, or a pause."""
        last = self._legs.get(node_id)
        walking = last is None or last[2] == last[3] or self.pause_s == 0.0
        if walking:
            target = self._draw_waypoint(self._uniform[node_id])
            distance = math.hypot(
                target[0] - start_pos[0], target[1] - start_pos[1]
            )
            duration = max(1e-9, distance / self.speed_m_s)
            leg = (start_time, start_time + duration, start_pos, target)
        else:
            leg = (start_time, start_time + self.pause_s, start_pos, start_pos)
        self._legs[node_id] = leg
        return leg


#: Manifest ``kind`` -> constructor.
MOBILITY_MODELS = {
    "static": StaticMobility,
    "waypoint": WaypointMobility,
}
