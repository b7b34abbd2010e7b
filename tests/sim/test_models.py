"""Topology, mobility, noise and fault models."""

import math

import pytest

from repro.sim import (
    AckBlackoutFaults,
    AmbientNoise,
    BurstNoise,
    ClusterTopology,
    EventScheduler,
    GridTopology,
    NodeCrashFaults,
    RandomTopology,
    StaticMobility,
    WaypointMobility,
    build_model,
)
from repro.sim.faults import FAULT_MODELS
from repro.sim.mobility import MOBILITY_MODELS
from repro.sim.noise import NOISE_MODELS
from repro.sim.topology import TOPOLOGIES


class TestTopology:
    def test_grid_places_requested_nodes(self):
        topo = GridTopology(9, spacing_m=3.0)
        assert len(topo.node_ids) == 9
        assert topo.gateways == ((0.0, 0.0),)
        # Centred grid: mean position is the origin.
        xs = [p[0] for p in topo.positions.values()]
        ys = [p[1] for p in topo.positions.values()]
        assert abs(sum(xs)) < 1e-9 and abs(sum(ys)) < 1e-9

    def test_distance_floor_is_one_metre(self):
        topo = GridTopology(1)
        node = topo.node_ids[0]
        assert topo.distance_to_gateway(node, position=(0.0, 0.0)) == 1.0

    def test_random_topology_is_seeded(self):
        a = RandomTopology(20, radius_m=30.0, seed=4)
        b = RandomTopology(20, radius_m=30.0, seed=4)
        c = RandomTopology(20, radius_m=30.0, seed=5)
        assert a.positions == b.positions
        assert a.positions != c.positions
        assert all(
            math.hypot(x, y) <= 30.0 + 1e-9
            for x, y in a.positions.values()
        )

    def test_multi_gateway_assignment_is_nearest(self):
        topo = RandomTopology(40, radius_m=50.0, gateways=3, seed=2)
        assert len(topo.gateways) == 3
        for node_id, pos in topo.positions.items():
            gw = topo.gateway_of[node_id]
            own = math.hypot(
                pos[0] - topo.gateways[gw][0], pos[1] - topo.gateways[gw][1]
            )
            for other in topo.gateways:
                assert own <= math.hypot(
                    pos[0] - other[0], pos[1] - other[1]
                ) + 1e-9

    def test_cluster_topology_gateways_at_centres(self):
        topo = ClusterTopology(
            n_clusters=3, nodes_per_cluster=5, cluster_radius_m=4.0, seed=1
        )
        assert len(topo.gateways) == 3
        assert len(topo.node_ids) == 15

    def test_make_topology_registry(self):
        topo = build_model(
            TOPOLOGIES, {"kind": "grid", "n_nodes": 4}, "topology", "grid"
        )
        assert len(topo.node_ids) == 4
        with pytest.raises(ValueError, match="unknown topology kind 'mesh'"):
            build_model(TOPOLOGIES, {"kind": "mesh"}, "topology", "grid")


class TestMobility:
    def test_static_returns_topology_positions(self):
        topo = GridTopology(4)
        scheduler = EventScheduler(seed=0)
        model = StaticMobility()
        model.bind(topo, scheduler)
        node = topo.node_ids[0]
        assert model.position(node, 0.0) == topo.positions[node]
        assert model.position(node, 99.0) == topo.positions[node]

    def test_waypoint_moves_at_bounded_speed(self):
        topo = GridTopology(4, spacing_m=2.0)
        scheduler = EventScheduler(seed=8)
        model = WaypointMobility(speed_m_s=2.0)
        model.bind(topo, scheduler)
        node = topo.node_ids[1]
        previous = model.position(node, 0.0)
        for step in range(1, 40):
            current = model.position(node, 0.25 * step)
            moved = math.hypot(
                current[0] - previous[0], current[1] - previous[1]
            )
            assert moved <= 2.0 * 0.25 + 1e-9
            previous = current

    def test_waypoint_is_per_node_independent(self):
        topo = GridTopology(4)
        a = WaypointMobility(speed_m_s=1.0)
        a.bind(topo, EventScheduler(seed=8))
        b = WaypointMobility(speed_m_s=1.0)
        b.bind(topo, EventScheduler(seed=8))
        # Querying other nodes first must not change node 0's path.
        for node in reversed(topo.node_ids):
            b.position(node, 5.0)
        assert a.position(0, 5.0) == b.position(0, 5.0)

    def test_make_mobility_defaults_to_static(self):
        def make(spec):
            return build_model(MOBILITY_MODELS, spec, "mobility", "static")

        assert isinstance(make(None), StaticMobility)
        assert isinstance(
            make({"kind": "waypoint", "speed_m_s": 3.0}), WaypointMobility
        )


class TestNoise:
    def test_clean_model_reports_nothing(self):
        model = build_model(NOISE_MODELS, None, "noise", "none")
        model.bind(EventScheduler(seed=0))
        state = model.state(3, 1.0)
        assert state.extra_loss_db == 0.0
        assert state.interferers == 0
        assert model.max_interferers == 0

    def test_ambient_duty_draws_interferers(self):
        model = AmbientNoise(interference_duty=1.0, n_interferers=2)
        model.bind(EventScheduler(seed=1))
        state = model.state(0, 0.0)
        assert state.interferers == 2
        assert model.max_interferers == 2

    def test_ambient_extra_loss_is_flat(self):
        model = AmbientNoise(extra_loss_db=3.0)
        model.bind(EventScheduler(seed=1))
        assert model.state(0, 0.0).extra_loss_db == 3.0
        assert model.max_interferers == 0

    def test_burst_noise_adds_loss_in_bad_state(self):
        model = BurstNoise(
            mean_good_s=0.001, mean_bad_s=0.001, bad_extra_loss_db=6.0
        )
        model.bind(EventScheduler(seed=3))
        losses = {model.state(0, 0.01 * k).extra_loss_db for k in range(200)}
        assert losses == {0.0, 6.0}

    def test_burst_chains_are_per_node(self):
        model = BurstNoise(mean_good_s=0.01, mean_bad_s=0.01)
        model.bind(EventScheduler(seed=3))
        a = [model.state(0, 0.01 * k).extra_loss_db for k in range(100)]
        b = [model.state(1, 0.01 * k).extra_loss_db for k in range(100)]
        assert a != b  # independent streams


class TestFaults:
    def test_default_never_fails(self):
        model = build_model(FAULT_MODELS, None, "fault", "none")
        model.bind(EventScheduler(seed=0))
        assert model.alive(5, 100.0)
        assert model.ack_available(5, 100.0)

    def test_crash_cycles_up_and_down(self):
        model = NodeCrashFaults(mtbf_s=1.0, mean_downtime_s=1.0)
        model.bind(EventScheduler(seed=2))
        states = {model.alive(0, 0.5 * k) for k in range(200)}
        assert states == {True, False}

    def test_crash_is_deterministic_per_seed(self):
        a = NodeCrashFaults(mtbf_s=1.0, mean_downtime_s=0.5)
        a.bind(EventScheduler(seed=6))
        b = NodeCrashFaults(mtbf_s=1.0, mean_downtime_s=0.5)
        b.bind(EventScheduler(seed=6))
        assert [a.alive(1, 0.3 * k) for k in range(50)] == [
            b.alive(1, 0.3 * k) for k in range(50)
        ]

    def test_ack_blackout_windows(self):
        model = AckBlackoutFaults(blackouts=((1.0, 2.0),))
        assert model.ack_available(0, 0.5)
        assert not model.ack_available(0, 1.5)
        assert model.ack_available(0, 2.5)
        assert model.alive(0, 1.5)  # node itself stays up

    def test_registry_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            build_model(FAULT_MODELS, {"kind": "meteor"}, "fault", "none")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the fleet MAC packs 8 frame bits per payload byte and drops the "
        "4-bit preamble, so a 16-bit frame gets 0.768 ms of air instead of "
        "the layout's 2.464 ms; the ledger fleet digest and the campaign "
        "goldens freeze the short value"
    ),
)
@pytest.mark.parametrize("fec", ("none", "hamming"))
def test_fleet_airtime_matches_frame_layout(fec):
    from repro.core.frame import frame_airtime_s
    from repro.sim.comm import CommunicationModel
    from repro.sim.fastpath import _fec_encode

    model = CommunicationModel(fec=fec)
    coded_bits = len(_fec_encode([0] * model.data_bits, fec))
    assert model.frame_airtime_s() == frame_airtime_s(coded_bits)
