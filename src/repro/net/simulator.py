"""Slotted broadcast simulator implementing the paper's collision rules.

Time is slotted (the schedules assume "access to the current time,
represented by an integer t").  Each slot:

1. every backlogged sensor asks its MAC protocol whether to transmit;
2. receptions resolve under the paper's two collision rules —
   a transmitting sensor cannot receive, and a sensor covered by two or
   more simultaneous transmitters receives none of them;
3. a transmission whose *every* intended receiver got the message
   completes the broadcast (the packet leaves the queue); otherwise the
   packet stays queued and is retransmitted later — the energy waste the
   paper's introduction highlights.

Traffic model: every sensor generates one broadcast packet every
``packet_interval`` slots (deterministic sensing reports), queued FIFO,
so each queue is a counter: of the ``created`` packets every sensor has
made, sensor ``i`` has delivered ``delivered[i]``; it is backlogged iff
``delivered[i] < created``, and its head packet was made at slot
``delivered[i] * packet_interval``.

Execution runs on the bulk engine: the network topology is frozen once
into the dense-id adjacency of :class:`repro.engine.simindex`, the two
collision rules reduce to coverage *counts* over that adjacency (a sensor
is jammed iff >= 2 transmitters cover it; it hears something iff >= 1
does; only the transmitters' CSR rows are visited), and purely periodic
protocols expose a slot table so per-slot MAC decisions become one
comparison per sensor.  Random protocols go through
:meth:`repro.net.protocols.MACProtocol.decision_block`: decisions for a
whole window of slots are drawn at once from a counter-based
:class:`repro.utils.rng.StreamRNG` keyed by ``(seed, sensor, slot)``, so
results are independent of iteration order and window boundaries.
Carrier-sensing protocols are dispatched one slot at a time (the
carrier-sense vector — a neighborhood OR over the CSR adjacency — only
exists once the previous slot resolves) but still vectorize across
sensors.  With numpy available the counts and decisions are computed by
array kernels; the pure-Python fallback runs the same integer arithmetic
and produces identical metrics.

With workers enabled (``REPRO_ENGINE_WORKERS`` or
:func:`repro.engine.parallel.set_workers`) large decision windows
additionally shard their sensor axis across worker processes inside the
randmac kernels, and the simulator widens the precomputed window to
amortize the dispatch; because every decision is keyed by
``(seed, sensor, slot)``, the resulting :class:`SimulationMetrics` are
bit-identical for any worker count.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.engine.backend import numpy_module
from repro.engine.config import EngineConfig, default_config
from repro.engine.parallel import shard_workers
from repro.faults.injection import active_plan as _active_plan
from repro.net.energy import UNIT_TX_MODEL, EnergyModel
from repro.net.metrics import SimulationMetrics
from repro.net.model import Network
from repro.net.protocols import MACProtocol, make_protocol
from repro.utils.rng import StreamRNG
from repro.utils.validation import require_positive
from repro.utils.vectors import IntVec

__all__ = ["BroadcastSimulator", "simulate", "compare_protocols"]

#: Slots of random-MAC decisions precomputed per ``decision_block`` call
#: for protocols that do not carrier-sense.  Purely a batching knob: the
#: counter-based rng makes the results independent of the window size.
_DECISION_WINDOW = 128

#: Cap on (sensors x slots) cells per precomputed window when workers
#: widen it — bounds the decision matrix to a few tens of MB.
_MAX_DECISION_CELLS = 1 << 24


def _decision_window_for(num_sensors: int, workers: int | None = None,
                         base: int | None = None) -> int:
    """Window length for non-carrier-sense protocols.

    With sharded decisions enabled (``REPRO_ENGINE_WORKERS`` or an
    :class:`EngineConfig` worker count), wider windows amortize the
    per-window worker dispatch; the counter-based rng keeps results
    identical for every window size, so this is purely a batching
    decision.  ``workers``/``base`` override the ambient worker
    resolution and the module default window when given.
    """
    if base is None:
        base = _DECISION_WINDOW
    window = base * (shard_workers() if workers is None else workers)
    if num_sensors > 0:
        window = min(window, _MAX_DECISION_CELLS // num_sensors)
    return max(base, window)


class BroadcastSimulator:
    """Stateful slotted simulator for one network + MAC protocol pair."""

    def __init__(self, network: Network, protocol: MACProtocol,
                 packet_interval: int = 1,
                 seed: int | None = None,
                 energy_model: EnergyModel = UNIT_TX_MODEL,
                 bulk_decisions: bool | None = None,
                 config: EngineConfig | None = None):
        """``bulk_decisions=False`` forces the scalar reference path:
        random-MAC decisions fall back to one ``wants_to_send`` call per
        sensor per slot (ignoring any vectorized ``decision_block``
        override).  Both paths draw from the same per-sensor counter
        streams, so they produce identical metrics — the flag exists for
        the equivalence tests and benchmarks that prove it.  ``None``
        (the default) defers to ``config.bulk_decisions``, which
        defaults to the vectorized path.

        ``config`` pins this simulator's backend, worker count and
        decision window explicitly; with no config at all the installed
        default config is consulted, and fields left ``None`` keep the
        ambient env-var-driven behavior.  The config is re-applied
        around every :meth:`step`, so the kernels the MAC protocols
        dispatch into see it too.
        """
        require_positive(packet_interval, "packet_interval")
        if config is None:
            config = default_config()
        self._config = config
        if bulk_decisions is None:
            bulk_decisions = config.bulk_decisions
        self.network = network
        self.protocol = protocol
        self.packet_interval = packet_interval
        self.energy_model = energy_model
        self.metrics = SimulationMetrics(protocol=protocol.name,
                                         num_sensors=len(network))
        self._positions = network.positions
        self._n = len(self._positions)
        self._adjacency = network.adjacency_index()
        # Packets made per sensor; ``_delivered[i]`` counts sensor i's sent.
        self._created = 0
        self._heard = [False] * self._n
        # Purely periodic protocols publish their decisions as a slot
        # table; errors (e.g. a schedule not covering every position)
        # surface through wants_to_send on the slow path, exactly as they
        # would without the table.
        try:
            table = getattr(protocol, "slot_table",
                            lambda positions: None)(self._positions)
        except Exception:
            table = None
        round_length = protocol.slots_per_round()
        if table is not None and round_length:
            self._slot_table: list[int] | None = list(table)
            self._round_length = round_length
            # Byzantine injection seam: an armed FaultPlan corrupts the
            # published slot table (a pure function of the plan seed and
            # the sorted sensor positions, so both backends corrupt the
            # same sensors to the same wrong slots).  Unarmed this is a
            # single None check.
            plan = _active_plan()
            if plan is not None and plan.byzantine > 0.0:
                assignment = dict(zip(self._positions, self._slot_table))
                corrupted = plan.corrupt_assignment(assignment, round_length)
                if corrupted:
                    index_of = {point: i
                                for i, point in enumerate(self._positions)}
                    for point, slot in corrupted.items():
                        self._slot_table[index_of[point]] = slot
        else:
            self._slot_table = None
            self._round_length = None
        # Random-protocol path: per-sensor counter streams + windowed
        # decision blocks.  The scalar reference mode pins dispatch to
        # the base-class wants_to_send loop, one slot at a time.
        self._stream = StreamRNG(seed)
        if bulk_decisions:
            self._decision_block = protocol.decision_block
            self._decision_window = (
                1 if protocol.uses_carrier_sense
                else _decision_window_for(self._n,
                                          workers=config.resolve_workers(),
                                          base=config.decision_window))
        else:
            self._decision_block = (
                lambda *args: MACProtocol.decision_block(protocol, *args))
            self._decision_window = 1
        self._decision_rows = None
        self._decision_t0 = 0
        # run() advances this so windows never precompute past the
        # requested horizon; step() callers keep the unbounded default.
        self._decision_horizon: int | None = None
        self._np = np = (numpy_module()
                         if config.resolve_backend() == "numpy" else None)
        if np is not None:
            self._offsets, self._degrees = self._adjacency.csr_arrays()
            self._edge_receivers = self._adjacency.edge_arrays()[1]
            self._slot_array = (np.asarray(self._slot_table, dtype=np.int64)
                                if self._slot_table is not None else None)
            self._delivered = np.zeros(self._n, dtype=np.int64)
        else:
            self._delivered = [0] * self._n
        self._time = 0

    # ------------------------------------------------------------------
    @property
    def time(self) -> int:
        """Current slot number."""
        return self._time

    def pending_packets(self) -> int:
        """Packets still queued across all sensors."""
        delivered = self._delivered
        return self._created * self._n - int(
            sum(delivered) if self._np is None else delivered.sum())

    def _applied(self):
        """Context applying the explicit config fields, if there are any.

        Kernels reached through the protocols (decision blocks and their
        sharded dispatch) resolve the *ambient* backend/worker state, so
        a simulator carrying an explicit config installs it around every
        step; an all-default config skips the bookkeeping entirely.
        """
        config = self._config
        if config.backend is None and config.workers is None \
                and config.on_kernel_failure is None:
            return nullcontext()
        return config.apply()

    def step(self) -> list[IntVec]:
        """Advance one slot; returns the sensors that transmitted."""
        with self._applied():
            transmitters = self._step()
        ids = transmitters.tolist() if self._np is not None else transmitters
        return [self._positions[i] for i in ids]

    def _step(self):
        """One slot; returns the transmitters' ascending dense ids."""
        time = self._time
        metrics = self.metrics
        n = self._n
        np = self._np
        interval = self.packet_interval
        if time % interval == 0:  # traffic generation
            self._created += 1
            metrics.packets_created += n
        created, delivered = self._created, self._delivered

        # MAC decisions: only backlogged sensors (delivered < created) send.
        if self._slot_table is None:
            row = self._decision_row(time)
        elif np is not None:
            row = self._slot_array == time % self._round_length
        else:
            slot = time % self._round_length
            row = [s == slot for s in self._slot_table]
        if np is not None:
            candidates = np.asarray(row).nonzero()[0]
            transmitters = candidates[delivered[candidates] < created]
        else:
            transmitters = [i for i, d in enumerate(row)
                            if d and delivered[i] < created]
        # Flaky injection seam: an armed FaultPlan silently drops
        # scheduled transmissions, keyed purely by ``(sensor, slot)`` —
        # both backends build the same ascending dense-id transmitter
        # list, so the drops replay identically.  Unarmed this is a
        # single None check per slot.
        plan = _active_plan()
        if plan is not None and plan.flaky > 0.0 and len(transmitters):
            kept = plan.filter_transmitters(
                transmitters if np is None else transmitters.tolist(), time)
            transmitters = kept if np is None else np.asarray(kept,
                                                              dtype=np.intp)
        num_transmitters = len(transmitters)
        metrics.transmissions += num_transmitters
        metrics.energy_transmit += \
            self.energy_model.tx_cost * num_transmitters

        # Reception resolution per the paper's two rules: a receiver is
        # lost iff it transmits itself (rule 1) or >= 2 transmitters
        # cover it (rule 2, where "cover" counts the sender too).
        if np is not None:
            degrees = self._degrees[transmitters]
            ends = degrees.cumsum()
            total_receptions = int(ends[-1]) if num_transmitters else 0
            # Edge ids of the transmitters' CSR rows, concatenated.
            edges = (self._offsets[transmitters] - ends + degrees).repeat(
                degrees)
            edges += np.arange(total_receptions)
            receivers = self._edge_receivers[edges]
            counts = np.bincount(receivers, minlength=n)
            lost = counts > 1
            lost[transmitters] = True
            # failures[e]: failed receptions among the first e edges, so
            # a transmitter completes iff its row adds none.
            failures = np.zeros(total_receptions + 1, dtype=np.intp)
            lost[receivers].cumsum(out=failures[1:])
            metrics.failed_receptions += int(failures[-1])
            done = transmitters[failures[ends] == failures[ends - degrees]]
            heads = delivered[done]
            head_sum = int(heads.sum())
            delivered[done] = heads + 1
            self._heard = counts > 0
        else:
            receivers_of = self._adjacency.receivers
            counts = [0] * n
            for i in transmitters:
                for receiver in receivers_of[i]:
                    counts[receiver] += 1
            sending = set(transmitters)
            failed = [sum(r in sending or counts[r] > 1
                          for r in receivers_of[i]) for i in transmitters]
            metrics.failed_receptions += sum(failed)
            done = [i for i, f in zip(transmitters, failed) if not f]
            head_sum = sum(delivered[i] for i in done)
            for i in done:
                delivered[i] += 1
            self._heard = [count > 0 for count in counts]
            total_receptions = sum(counts)
        # A completed broadcast delivers its sender's head packet, made
        # at slot delivered[i] * interval.
        metrics.successful_broadcasts += len(done)
        metrics.packets_delivered += len(done)
        metrics.total_latency += len(done) * time - interval * head_sum

        # Non-transmit energy (counts already hold per-sensor receptions).
        model = self.energy_model
        if model.rx_cost > 0 or model.idle_cost > 0:
            metrics.energy_receive += model.rx_cost * total_receptions
            metrics.energy_idle += \
                model.idle_cost * (n - num_transmitters)

        self._time += 1
        metrics.slots = self._time
        return transmitters

    def _decision_row(self, time: int):
        """This slot's MAC decisions, from the cached window if current.

        Decisions are a pure function of ``(seed, sensor, slot)`` (plus
        the carrier-sense vector, for single-slot windows), so the cache
        is transparent: any window size yields the same rows.
        """
        rows = self._decision_rows
        t0 = self._decision_t0
        if rows is None or not t0 <= time < t0 + len(rows):
            t0 = time
            t1 = t0 + self._decision_window
            if self._decision_horizon is not None:
                t1 = max(t0 + 1, min(t1, self._decision_horizon))
            rows = self._decision_block(self._positions, t0, t1,
                                        self._heard, self._stream)
            self._decision_rows = rows
            self._decision_t0 = t0
        return rows[time - t0]

    def run(self, slots: int) -> SimulationMetrics:
        """Simulate the given number of slots and return the metrics."""
        require_positive(slots, "slots")
        self._decision_horizon = self._time + slots
        try:
            with self._applied():
                for _ in range(slots):
                    self._step()
        finally:
            self._decision_horizon = None
        return self.metrics


def _resolve_protocol(network: Network, protocol: MACProtocol | str,
                      protocol_params: dict) -> MACProtocol:
    if isinstance(protocol, str):
        return make_protocol(protocol, positions=network.positions,
                             **protocol_params)
    if protocol_params:
        raise TypeError(
            f"protocol parameters {sorted(protocol_params)} are only "
            f"accepted when the protocol is named by string")
    return protocol


def simulate(network: Network, protocol: MACProtocol | str, slots: int,
             packet_interval: int = 1,
             seed: int | None = None,
             energy_model: EnergyModel = UNIT_TX_MODEL,
             config: EngineConfig | None = None,
             **protocol_params) -> SimulationMetrics:
    """One-shot convenience wrapper around :class:`BroadcastSimulator`.

    ``protocol`` may be a constructed :class:`MACProtocol` or a
    registered name (``"aloha"``, ``"csma"``, ``"tdma"``, ...), in which
    case extra keyword arguments parameterize it — e.g.
    ``simulate(network, "aloha", slots=90, p=0.2)``.  ``config`` pins the
    engine configuration for this run (backend, workers, decision
    window); omitted, the ambient env-var-driven behavior is unchanged.
    """
    simulator = BroadcastSimulator(
        network, _resolve_protocol(network, protocol, protocol_params),
        packet_interval=packet_interval,
        seed=seed, energy_model=energy_model, config=config)
    return simulator.run(slots)


def compare_protocols(network: Network,
                      protocols: list[MACProtocol | str],
                      slots: int, packet_interval: int = 1,
                      seed: int | None = None,
                      energy_model: EnergyModel = UNIT_TX_MODEL,
                      config: EngineConfig | None = None,
                      ) -> list[SimulationMetrics]:
    """Run each protocol on the same network and traffic pattern."""
    return [
        simulate(network, protocol, slots,
                 packet_interval=packet_interval, seed=seed,
                 energy_model=energy_model, config=config)
        for protocol in protocols
    ]
