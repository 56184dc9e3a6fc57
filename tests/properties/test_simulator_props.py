"""Property-based tests for the network simulator's invariants."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theorem1 import schedule_from_prototile, schedule_from_tiling
from repro.engine import EngineConfig, numpy_available
from repro.lattice.region import box_region
from repro.net.energy import UNIT_TX_MODEL, EnergyModel
from repro.net.metrics import SimulationMetrics
from repro.net.model import Network, SensorNode
from repro.net.protocols import (
    CSMALike,
    GlobalTDMA,
    MACProtocol,
    ScheduleMAC,
    SlottedAloha,
)
from repro.net.simulator import BroadcastSimulator
from repro.tiles.shapes import chebyshev_ball
from repro.tiling.lattice_tiling import LatticeTiling
from repro.utils.rng import StreamRNG
from tests.properties.strategies import transversal_prototiles

SETTINGS = dict(max_examples=20, deadline=None)
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
ENERGY_MODELS = [UNIT_TX_MODEL, EnergyModel(tx_cost=1.0, rx_cost=0.3,
                                            idle_cost=0.1)]
_SCHEDULE = schedule_from_prototile(chebyshev_ball(1))


def reference_run(network, protocol, slots, packet_interval, seed,
                  energy_model):
    """Per-sensor FIFO deques and scalar decisions: the representation
    the simulator's packet counters replace.

    Returns the metrics and, per slot, the transmitting positions and
    the packets still queued afterwards.
    """
    positions = network.positions
    n = len(positions)
    index_of = {p: i for i, p in enumerate(positions)}
    receivers = [[index_of[r] for r in network.receivers_of(p)]
                 for p in positions]
    stream = StreamRNG(seed)
    queues = [deque() for _ in positions]
    heard = [False] * n
    metrics = SimulationMetrics(protocol=protocol.name, num_sensors=n)
    steps = []
    for t in range(slots):
        if t % packet_interval == 0:
            for queue in queues:
                queue.append(t)
            metrics.packets_created += n
        sending = [i for i in range(n) if queues[i] and protocol.wants_to_send(
            positions[i], t, heard[i], stream.draw(i, t))]
        counts = [0] * n
        for i in sending:
            for r in receivers[i]:
                counts[r] += 1
        for i in sending:
            failed = sum(r in sending or counts[r] > 1 for r in receivers[i])
            metrics.failed_receptions += failed
            if not failed:
                metrics.total_latency += t - queues[i].popleft()
                metrics.successful_broadcasts += 1
                metrics.packets_delivered += 1
        metrics.transmissions += len(sending)
        metrics.energy_transmit += energy_model.tx_cost * len(sending)
        if energy_model.rx_cost > 0 or energy_model.idle_cost > 0:
            metrics.energy_receive += energy_model.rx_cost * sum(counts)
            metrics.energy_idle += energy_model.idle_cost * (n - len(sending))
        heard = [count > 0 for count in counts]
        metrics.slots = t + 1
        steps.append(([positions[i] for i in sending],
                      sum(len(queue) for queue in queues)))
    return metrics, steps


#: name -> protocol factory over a network.
PROTOCOLS = {"aloha": lambda network: SlottedAloha(0.4),
             "csma": lambda network: CSMALike(0.4),
             "schedule": lambda network: ScheduleMAC(_SCHEDULE),
             "tdma": lambda network: GlobalTDMA(network.positions)}


def assert_matches_reference(network, make_protocol, slots, packet_interval,
                             seed, backend, energy_model):
    """Stepped and run() simulations both equal the deque reference."""
    expected, expected_steps = reference_run(
        network, make_protocol(network), slots, packet_interval, seed,
        energy_model)

    def simulator():
        return BroadcastSimulator(
            network, make_protocol(network),
            packet_interval=packet_interval, seed=seed,
            energy_model=energy_model, config=EngineConfig(backend=backend))

    stepped = simulator()
    steps = []
    for _ in range(slots):
        sent = stepped.step()
        steps.append((sent, stepped.pending_packets()))
    assert steps == expected_steps
    assert stepped.metrics == expected
    ran = simulator()
    assert ran.run(slots) == expected
    assert ran.pending_packets() == expected_steps[-1][1]
    return expected


@st.composite
def small_networks(draw, max_sensors=10):
    """Sensors on a small grid with arbitrary (asymmetric, possibly
    empty) interference sets."""
    cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=1, max_size=max_sensors, unique=True))
    return Network(
        SensorNode(cell, [cell, *draw(st.lists(st.sampled_from(cells),
                                               max_size=4))])
        for cell in cells)


class TestSimulatorConservation:
    @given(st.integers(0, 10_000), st.floats(0.05, 0.9),
           st.integers(1, 12), st.integers(10, 80))
    @settings(**SETTINGS)
    def test_aloha_conservation_laws(self, seed, p, interval, slots):
        from repro.tiles.shapes import chebyshev_ball
        network = Network.homogeneous(
            box_region((0, 0), (3, 3)).points, chebyshev_ball(1))
        simulator = BroadcastSimulator(network, SlottedAloha(p),
                                       packet_interval=interval, seed=seed)
        metrics = simulator.run(slots)
        assert metrics.packets_delivered + simulator.pending_packets() == \
            metrics.packets_created
        assert metrics.successful_broadcasts == metrics.packets_delivered
        assert metrics.transmissions >= metrics.successful_broadcasts
        assert metrics.energy_transmit == float(metrics.transmissions)
        assert metrics.slots == slots

    @given(st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_deterministic_given_seed(self, seed):
        from repro.tiles.shapes import plus_pentomino
        network = Network.homogeneous(
            box_region((0, 0), (3, 3)).points, plus_pentomino())

        def run():
            simulator = BroadcastSimulator(network, SlottedAloha(0.3),
                                           packet_interval=3, seed=seed)
            return simulator.run(40)

        a, b = run(), run()
        assert a.transmissions == b.transmissions
        assert a.failed_receptions == b.failed_receptions
        assert a.packets_delivered == b.packets_delivered


class TestScheduleDrivenInvariants:
    @given(transversal_prototiles(max_index=8), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_tiling_schedule_never_collides(self, pair, seed):
        # The headline guarantee, stressed over random exact prototiles:
        # a Theorem 1 schedule produces zero failed receptions on any
        # homogeneous network, and every transmission completes.
        prototile, sublattice = pair
        tiling = LatticeTiling(prototile, sublattice)
        schedule = schedule_from_tiling(tiling)
        network = Network.homogeneous(
            box_region((-3, -3), (3, 3)).points, prototile)
        simulator = BroadcastSimulator(network, ScheduleMAC(schedule),
                                       packet_interval=schedule.num_slots,
                                       seed=seed)
        metrics = simulator.run(4 * schedule.num_slots)
        assert metrics.failed_receptions == 0
        assert metrics.wasted_transmissions == 0


class TestCounterRepresentation:
    @given(small_networks(),
           st.sampled_from(["aloha", "csma", "schedule", "tdma"]),
           st.integers(1, 4), st.integers(0, 10_000), st.integers(1, 24),
           st.sampled_from(BACKENDS), st.sampled_from(ENERGY_MODELS))
    @settings(max_examples=60, deadline=None)
    def test_matches_deque_reference(self, network, name, interval, seed,
                                     slots, backend, energy_model):
        assert_matches_reference(network, PROTOCOLS[name], slots, interval,
                                 seed, backend, energy_model)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolated_transmitter_completes_at_once(self, backend):
        # (0, 0) and (1, 0) jam each other every slot; (5, 5) hears no
        # one and is heard by no one, so each of its packets leaves in
        # the slot it was made.
        network = Network.homogeneous([(0, 0), (1, 0), (5, 5)],
                                      chebyshev_ball(1))
        metrics = assert_matches_reference(
            network, lambda network: SlottedAloha(1.0), 6, 1, 3, backend,
            UNIT_TX_MODEL)
        assert metrics.successful_broadcasts == 6
        assert metrics.total_latency == 0
        assert metrics.failed_receptions == 12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_sensor_network(self, backend):
        network = Network.homogeneous([(2, 3)], chebyshev_ball(1))
        for make_protocol in PROTOCOLS.values():
            assert_matches_reference(network, make_protocol, 9, 2, 1,
                                     backend, ENERGY_MODELS[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["aloha", "csma"])
    def test_backlog_beyond_one_packet(self, backend, name):
        # One packet per slot plus collisions: queues grow past one
        # packet, so the head-of-line creation time is delivered[i] > 0
        # slots old and latencies differ from zero.
        network = Network.homogeneous(box_region((0, 0), (3, 3)).points,
                                      chebyshev_ball(1))
        metrics = assert_matches_reference(network, PROTOCOLS[name], 30, 1,
                                           8, backend, ENERGY_MODELS[1])
        assert metrics.failed_receptions > 0
        assert metrics.packets_created - metrics.packets_delivered > \
            len(network)
        assert metrics.total_latency > metrics.packets_delivered

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slot_table_entries_outside_the_round_never_send(self, backend):
        # The simulator groups sensors by table slot; entries below 0 or
        # at/after the round length belong to no slot, exactly as
        # ``t % round == slot`` never holds for them.
        class FixedTable(MACProtocol):
            name = "fixed-table"
            uses_carrier_sense = False
            slots = {(0, 0): -1, (1, 0): 1, (2, 0): 3, (3, 0): 1, (4, 0): 0}

            def wants_to_send(self, position, time, heard_last_slot, rng):
                return time % 3 == self.slots[position]

            def slots_per_round(self):
                return 3

            def slot_table(self, positions):
                return [self.slots[p] for p in positions]

        network = Network.homogeneous(list(FixedTable.slots),
                                      chebyshev_ball(1))
        metrics = assert_matches_reference(
            network, lambda network: FixedTable(), 9, 2, 0, backend,
            UNIT_TX_MODEL)
        assert metrics.transmissions > 0
