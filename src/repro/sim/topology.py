"""Node/gateway placement models for fleet simulations.

A topology decides, once at construction time, where every sensor and
every WiFi gateway sits (metres, gateway-0 centred coordinate frame) and
which gateway each sensor converges on (nearest by euclidean distance).
Randomized layouts draw from a dedicated seeded stream so placement is a
pure function of the topology config — independent of everything the
event loop later does.

Layouts are declarative constructors with a ``positions`` map;
``TOPOLOGIES`` maps a manifest ``kind`` to its class.
"""

import math

import numpy as np

from repro.runtime import as_seed_sequence


class Topology:
    """Base: explicit positions handed in directly.

    ``positions`` maps ``node_id -> (x, y)``; ``gateways`` is a tuple of
    ``(x, y)`` WiFi sink positions (at least one).
    """

    kind = "explicit"

    def __init__(self, positions, gateways=((0.0, 0.0),)):
        self.positions = {
            int(node_id): (float(x), float(y))
            for node_id, (x, y) in dict(positions).items()
        }
        self.gateways = tuple((float(x), float(y)) for x, y in gateways)
        if not self.positions:
            raise ValueError("topology needs at least one node")
        if not self.gateways:
            raise ValueError("topology needs at least one gateway")
        #: node -> index of its nearest gateway (its convergecast sink).
        self.gateway_of = {
            node_id: min(
                range(len(self.gateways)),
                key=lambda g: math.hypot(
                    pos[0] - self.gateways[g][0],
                    pos[1] - self.gateways[g][1],
                ),
            )
            for node_id, pos in self.positions.items()
        }

    @property
    def node_ids(self):
        return sorted(self.positions)

    def distance_to_gateway(self, node_id, position=None):
        """Distance (>= 1 m floor) from a node position to its sink.

        The 1 m floor matches the path-loss reference distance — a node
        physically on top of its gateway still has a finite link budget.
        """
        gx, gy = self.gateways[self.gateway_of[node_id]]
        x, y = self.positions[node_id] if position is None else position
        return max(1.0, math.hypot(x - gx, y - gy))

    def extent_m(self):
        """Radius of the smallest origin-centred disc holding every node."""
        return max(
            math.hypot(x, y) for x, y in self.positions.values()
        )


class GridTopology(Topology):
    """``n_nodes`` on a square grid around a central gateway.

    Rows fill in reading order at ``spacing_m`` pitch; the grid is
    centred on the origin where gateway 0 sits.  ``gateways > 1`` adds
    extra sinks evenly spaced on a ring at half the grid's extent, the
    multi-gateway convergecast layout.
    """

    kind = "grid"

    def __init__(self, n_nodes, spacing_m=3.0, gateways=1):
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if spacing_m <= 0:
            raise ValueError("spacing must be positive")
        side = int(math.ceil(math.sqrt(n_nodes)))
        half = (side - 1) / 2.0
        positions = {}
        for node_id in range(n_nodes):
            row, col = divmod(node_id, side)
            positions[node_id] = (
                (col - half) * spacing_m,
                (row - half) * spacing_m,
            )
        super().__init__(
            positions,
            gateways=_gateway_ring(int(gateways), half * spacing_m / 2.0),
        )


class RandomTopology(Topology):
    """``n_nodes`` uniform in a disc of ``radius_m`` around the gateway."""

    kind = "random"

    def __init__(self, n_nodes, radius_m=25.0, gateways=1, seed=0):
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if radius_m <= 0:
            raise ValueError("radius must be positive")
        rng = np.random.default_rng(as_seed_sequence(seed))
        # Uniform over the disc: sqrt-radial + uniform angle.
        radii = radius_m * np.sqrt(rng.random(n_nodes))
        angles = 2.0 * np.pi * rng.random(n_nodes)
        positions = {
            i: (float(radii[i] * np.cos(angles[i])),
                float(radii[i] * np.sin(angles[i])))
            for i in range(n_nodes)
        }
        super().__init__(
            positions, gateways=_gateway_ring(int(gateways), radius_m / 2.0)
        )


class ClusterTopology(Topology):
    """Clustered deployment: one gateway per cluster of sensors.

    Cluster centres are uniform in a disc of ``spread_m``; each cluster's
    ``nodes_per_cluster`` members scatter Gaussian (``cluster_radius_m``
    sigma) around their centre, and the cluster's gateway sits at the
    centre — the many-buildings / many-rooms deployment where spatial
    reuse between clusters is the point.
    """

    kind = "cluster"

    def __init__(
        self,
        n_clusters=4,
        nodes_per_cluster=8,
        cluster_radius_m=5.0,
        spread_m=60.0,
        seed=0,
    ):
        n_clusters = int(n_clusters)
        nodes_per_cluster = int(nodes_per_cluster)
        if n_clusters < 1 or nodes_per_cluster < 1:
            raise ValueError("need at least one cluster and one node each")
        rng = np.random.default_rng(as_seed_sequence(seed))
        centres = []
        for _ in range(n_clusters):
            r = spread_m * math.sqrt(float(rng.random()))
            a = 2.0 * math.pi * float(rng.random())
            centres.append((r * math.cos(a), r * math.sin(a)))
        positions = {}
        node_id = 0
        for cx, cy in centres:
            offsets = rng.normal(0.0, cluster_radius_m, size=(nodes_per_cluster, 2))
            for k in range(nodes_per_cluster):
                positions[node_id] = (
                    cx + float(offsets[k, 0]),
                    cy + float(offsets[k, 1]),
                )
                node_id += 1
        super().__init__(positions, gateways=tuple(centres))


def _gateway_ring(count, radius_m):
    """Gateway 0 at the origin, extras evenly spaced on a ring."""
    if count < 1:
        raise ValueError("need at least one gateway")
    gateways = [(0.0, 0.0)]
    for k in range(count - 1):
        angle = 2.0 * math.pi * k / max(1, count - 1)
        gateways.append(
            (radius_m * math.cos(angle), radius_m * math.sin(angle))
        )
    return tuple(gateways)


#: Manifest ``kind`` -> constructor; kwargs come straight from the manifest.
TOPOLOGIES = {
    "grid": GridTopology,
    "random": RandomTopology,
    "cluster": ClusterTopology,
}
