"""Unit tests for repro.net: model, protocols, simulator, metrics."""

import pytest

from repro.core.theorem1 import schedule_from_prototile
from repro.lattice.region import box_region
from repro.net.metrics import SimulationMetrics, metrics_table
from repro.net.model import Network, SensorNode
from repro.net.protocols import (
    CSMALike,
    GlobalTDMA,
    ScheduleMAC,
    SlottedAloha,
    make_protocol,
)
from repro.net.simulator import BroadcastSimulator, compare_protocols, simulate
from repro.tiles.shapes import chebyshev_ball, plus_pentomino
from repro.tiling.construct import figure5_mixed_tiling


class TestModel:
    def test_sensor_node_requires_self_coverage(self):
        with pytest.raises(ValueError):
            SensorNode((0, 0), [(1, 0)])

    def test_network_rejects_duplicates(self):
        node = SensorNode((0, 0), [(0, 0)])
        with pytest.raises(ValueError):
            Network([node, SensorNode((0, 0), [(0, 0)])])

    def test_network_rejects_empty(self):
        with pytest.raises(ValueError):
            Network([])

    def test_homogeneous_topology(self):
        tile = plus_pentomino()
        points = box_region((0, 0), (2, 2)).points
        network = Network.homogeneous(points, tile)
        assert len(network) == 9
        assert (0, 1) in network.receivers_of((0, 0))
        assert (1, 1) not in network.receivers_of((0, 0))
        assert (0, 0) in network.senders_covering((0, 1))

    def test_from_multi_tiling(self):
        multi = figure5_mixed_tiling()
        points = box_region((0, 0), (3, 3)).points
        network = Network.from_multi_tiling(points, multi)
        node = network.node((0, 0))
        assert node.interference == multi.neighborhood_of((0, 0))

    def test_receivers_exclude_self(self):
        tile = chebyshev_ball(1)
        points = box_region((0, 0), (2, 2)).points
        network = Network.homogeneous(points, tile)
        assert (1, 1) not in network.receivers_of((1, 1))


class TestProtocols:
    def test_schedule_mac(self):
        import random
        schedule = schedule_from_prototile(plus_pentomino())
        mac = ScheduleMAC(schedule)
        rng = random.Random(0)
        point = (2, 2)
        slot = schedule.slot_of(point)
        assert mac.wants_to_send(point, slot, False, rng)
        assert not mac.wants_to_send(point, slot + 1, False, rng)
        assert mac.slots_per_round() == schedule.num_slots

    def test_global_tdma_unique_slots(self):
        import random
        points = box_region((0, 0), (1, 1)).points
        mac = GlobalTDMA(sorted(points))
        rng = random.Random(0)
        for time in range(4):
            senders = [p for p in points
                       if mac.wants_to_send(p, time, False, rng)]
            assert len(senders) == 1
        assert mac.slots_per_round() == 4

    def test_tdma_rejects_non_integral_position(self):
        with pytest.raises(TypeError,
                           match="coordinate is not an integer: 0.5"):
            make_protocol("tdma", positions=[(0, 0), (0.5, 1)])

    def test_positions_validated_only_when_required(self):
        # aloha never reads the positions, so it does not coerce them.
        mac = make_protocol("aloha", positions=[(0.5, 1)], p=0.1)
        assert isinstance(mac, SlottedAloha)

    def test_aloha_probability_bounds(self):
        with pytest.raises(ValueError):
            SlottedAloha(1.5)
        import random
        always = SlottedAloha(1.0)
        never = SlottedAloha(0.0)
        rng = random.Random(0)
        assert always.wants_to_send((0, 0), 0, False, rng)
        assert not never.wants_to_send((0, 0), 0, False, rng)
        assert always.slots_per_round() is None

    def test_csma_backs_off(self):
        import random
        mac = CSMALike(1.0)
        rng = random.Random(0)
        assert mac.wants_to_send((0, 0), 0, False, rng)
        assert not mac.wants_to_send((0, 0), 0, True, rng)


class TestSimulator:
    def _network(self, side=4):
        tile = chebyshev_ball(1)
        points = box_region((0, 0), (side - 1, side - 1)).points
        return Network.homogeneous(points, tile), tile

    def test_tiling_schedule_zero_collisions(self):
        network, tile = self._network()
        schedule = schedule_from_prototile(tile)
        metrics = simulate(network, ScheduleMAC(schedule), slots=90,
                           packet_interval=schedule.num_slots, seed=0)
        assert metrics.failed_receptions == 0
        assert metrics.delivery_ratio > 0.9
        assert metrics.energy_per_delivered == pytest.approx(1.0)

    def test_aloha_collides(self):
        network, _ = self._network()
        metrics = simulate(network, SlottedAloha(0.3), slots=90,
                           packet_interval=9, seed=0)
        assert metrics.failed_receptions > 0
        assert metrics.wasted_transmissions > 0

    def test_conservation(self):
        network, tile = self._network()
        schedule = schedule_from_prototile(tile)
        simulator = BroadcastSimulator(network, ScheduleMAC(schedule),
                                       packet_interval=9, seed=0)
        simulator.run(45)
        metrics = simulator.metrics
        assert metrics.packets_delivered + simulator.pending_packets() == \
            metrics.packets_created
        assert metrics.transmissions >= metrics.successful_broadcasts

    def test_compare_protocols_shapes(self):
        network, tile = self._network()
        schedule = schedule_from_prototile(tile)
        results = compare_protocols(
            network,
            [ScheduleMAC(schedule), SlottedAloha(0.2)],
            slots=60, packet_interval=9, seed=1)
        assert len(results) == 2
        assert results[0].protocol == "tiling-schedule"

    def test_step_returns_transmitters(self):
        network, tile = self._network(side=3)
        schedule = schedule_from_prototile(tile)
        simulator = BroadcastSimulator(network, ScheduleMAC(schedule),
                                       packet_interval=9, seed=0)
        transmitters = simulator.step()
        assert all(schedule.slot_of(p) == 0 for p in transmitters)

    def test_rejects_bad_arguments(self):
        network, tile = self._network(side=2)
        schedule = schedule_from_prototile(tile)
        with pytest.raises(ValueError):
            BroadcastSimulator(network, ScheduleMAC(schedule),
                               packet_interval=0)
        simulator = BroadcastSimulator(network, ScheduleMAC(schedule))
        with pytest.raises(ValueError):
            simulator.run(0)


class TestMetrics:
    def test_derived_quantities(self):
        metrics = SimulationMetrics("test", 10, slots=100, transmissions=50,
                                    successful_broadcasts=40,
                                    failed_receptions=30,
                                    packets_created=60,
                                    packets_delivered=40,
                                    total_latency=80,
                                    energy_transmit=50.0)
        assert metrics.wasted_transmissions == 10
        assert metrics.delivery_ratio == pytest.approx(40 / 60)
        assert metrics.collision_rate == pytest.approx(0.3)
        assert metrics.energy_per_delivered == pytest.approx(1.25)
        assert metrics.mean_latency == pytest.approx(2.0)

    def test_zero_division_guards(self):
        metrics = SimulationMetrics("empty", 0)
        assert metrics.delivery_ratio == 0.0
        assert metrics.collision_rate == 0.0
        assert metrics.energy_per_delivered == float("inf")
        assert metrics.mean_latency == float("inf")

    def test_table_rendering(self):
        metrics = SimulationMetrics("proto", 4, slots=10,
                                    packets_created=4, packets_delivered=4,
                                    transmissions=4,
                                    successful_broadcasts=4,
                                    energy_transmit=4.0)
        text = metrics_table([metrics])
        assert "proto" in text
        assert "delivery" in text
        assert metrics_table([]) == "(no results)"
