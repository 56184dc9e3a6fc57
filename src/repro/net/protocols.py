"""MAC protocols: when does a sensor decide to transmit?

The paper contrasts its deterministic tiling schedule with the
probabilistic protocols "most communication protocols for wireless sensor
networks" use.  Four policies are provided:

* :class:`ScheduleMAC` — drives any :class:`repro.core.schedule.Schedule`
  (tiling schedules, Theorem 2 schedules, coloring-based schedules);
* :class:`GlobalTDMA` — the paper's strawman: one slot per sensor,
  round-robin; collision-free but with a round length that grows with
  the network;
* :class:`SlottedAloha` — transmit pending packets with probability ``p``;
* :class:`CSMALike` — probabilistic, but defers when a sensor whose range
  covers this one transmitted in the previous slot (a crude carrier
  sense).

A protocol sees only local information: its own position, the time, and
last slot's activity as observed at its position.

Decisions come in two granularities.  ``wants_to_send`` is the scalar
interface — one sensor, one slot.  ``decision_block`` is the bulk
interface the simulator drives: a whole ``(slot, sensor)`` window of
decisions at once, drawn from the counter-based
:class:`repro.utils.rng.StreamRNG` so each sensor's randomness is keyed
by ``(seed, sensor, slot)`` and the two granularities agree bit-for-bit.

Protocols also resolve *by name* through the registry at the bottom of
this module (``make_protocol("aloha", p=0.2)``), which is what lets the
:class:`repro.api.Session` facade accept ``simulate(protocol="aloha",
p=0.2)`` request-style instead of requiring constructed objects.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # Annotations only — runtime draws arrive via the rng parameter.
    import random

from repro.core.schedule import Schedule
from repro.engine.randmac import bernoulli_block, masked_bernoulli_block
from repro.utils.rng import StreamDraw, StreamRNG
from repro.utils.validation import require_probability
from repro.utils.vectors import IntVec, as_intvec

__all__ = ["MACProtocol", "ScheduleMAC", "GlobalTDMA", "SlottedAloha",
           "CSMALike", "ProtocolContext", "register_protocol",
           "protocol_names", "make_protocol"]


class MACProtocol(abc.ABC):
    """Decision interface: should a backlogged sensor transmit now?"""

    name = "mac"

    #: Whether decisions may depend on ``heard_last_slot``.  The
    #: simulator dispatches carrier-sensing protocols one slot at a time
    #: (the carrier-sense vector only exists after the previous slot
    #: resolves); protocols that set this ``False`` promise to ignore the
    #: argument, which lets whole windows of decisions be precomputed.
    #: Conservative default: ``True``.
    uses_carrier_sense = True

    @abc.abstractmethod
    def wants_to_send(self, position: IntVec, time: int,
                      heard_last_slot: bool,
                      rng: random.Random | StreamDraw) -> bool:
        """Decide whether the sensor at ``position`` transmits at ``time``.

        Args:
            position: the sensor's lattice coordinates.
            time: current slot number.
            heard_last_slot: whether any sensor covering this position
                transmitted in the previous slot (local carrier sense).
            rng: random source for this decision (unused by
                deterministic protocols).  On the bulk simulator path
                this is a :class:`repro.utils.rng.StreamDraw` over the
                sensor's own ``(sensor, slot)`` counter cell.
        """

    def decision_block(self, positions: Sequence[IntVec], t0: int, t1: int,
                       heard: Sequence[bool], rng: StreamRNG):
        """Transmit decisions for every sensor over slots ``t0..t1-1``.

        Returns a matrix indexed ``[t - t0][i]`` of booleans, aligned
        with ``positions`` (dense sensor ids).  ``heard`` is the
        carrier-sense vector for slot ``t0``; protocols with
        :attr:`uses_carrier_sense` set are only ever called with
        single-slot windows, and later slots of a multi-slot window see
        ``False``.

        The default implementation is the scalar reference: one
        ``wants_to_send`` call per cell, each served by the per-sensor
        counter stream ``rng.draw(i, t)``.  Vectorized overrides (the
        random protocols below) must return the same booleans — the
        backend-equivalence suite holds them to it.
        """
        rows = []
        sensors = range(len(positions))
        draw = rng.draw(0, t0)  # one adapter, re-pointed per cell
        for t in range(t0, t1):
            if t == t0:
                rows.append([self.wants_to_send(positions[i], t,
                                                bool(heard[i]),
                                                draw.rebind(i, t))
                             for i in sensors])
            else:
                rows.append([self.wants_to_send(positions[i], t, False,
                                                draw.rebind(i, t))
                             for i in sensors])
        return rows

    def slots_per_round(self) -> int | None:
        """Round length for periodic protocols, ``None`` for random ones."""
        return None

    def slot_table(self, positions: Sequence[IntVec]) -> list[int] | None:
        """Per-position slots for purely periodic protocols.

        When this returns a list ``s`` (aligned with ``positions``) the
        protocol promises ``wants_to_send(positions[i], t, ...) ==
        (t % slots_per_round() == s[i])`` — a pure function of time that
        never touches the rng — and the simulator precomputes decisions
        for all sensors at once instead of querying them one by one.
        Probabilistic protocols return ``None`` (the default).
        """
        return None


class ScheduleMAC(MACProtocol):
    """Deterministic MAC driven by a periodic schedule."""

    uses_carrier_sense = False

    def __init__(self, schedule: Schedule, name: str = "tiling-schedule"):
        self.schedule = schedule
        self.name = name

    def wants_to_send(self, position: IntVec, time: int,
                      heard_last_slot: bool, rng: random.Random) -> bool:
        return self.schedule.may_send(position, time)

    def slots_per_round(self) -> int | None:
        return self.schedule.num_slots

    def slot_table(self, positions: Sequence[IntVec]) -> list[int] | None:
        slots_of = getattr(self.schedule, "slots_of", None)
        if slots_of is not None:
            return slots_of(positions)
        return [self.schedule.slot_of(p) for p in positions]


class GlobalTDMA(MACProtocol):
    """One slot per sensor, round-robin over the whole network.

    "The obvious disadvantage of TDMA is that it does not scale: if the
    number k of sensors is large, then the sensors cannot communicate
    frequently enough" — the round length equals the network size.
    """

    name = "global-tdma"
    uses_carrier_sense = False

    def __init__(self, positions: Sequence[IntVec]):
        ordered = sorted(as_intvec(p) for p in positions)
        self._slot_of = {p: i for i, p in enumerate(ordered)}

    @property
    def num_slots(self) -> int:
        return len(self._slot_of)

    def wants_to_send(self, position: IntVec, time: int,
                      heard_last_slot: bool, rng: random.Random) -> bool:
        return time % self.num_slots == self._slot_of[as_intvec(position)]

    def slots_per_round(self) -> int | None:
        return self.num_slots

    def slot_table(self, positions: Sequence[IntVec]) -> list[int] | None:
        return [self._slot_of[as_intvec(p)] for p in positions]


class SlottedAloha(MACProtocol):
    """Transmit each pending packet with probability ``p`` per slot."""

    uses_carrier_sense = False

    def __init__(self, p: float):
        require_probability(p, "p")
        self.p = p
        self.name = f"slotted-aloha(p={p:g})"

    def wants_to_send(self, position: IntVec, time: int,
                      heard_last_slot: bool,
                      rng: random.Random | StreamDraw) -> bool:
        return rng.random() < self.p

    def decision_block(self, positions: Sequence[IntVec], t0: int, t1: int,
                       heard: Sequence[bool], rng: StreamRNG):
        if type(self).wants_to_send is not SlottedAloha.wants_to_send:
            # a subclass changed the scalar rule: honor it
            return super().decision_block(positions, t0, t1, heard, rng)
        return bernoulli_block(rng, len(positions), t0, t1, self.p)


class CSMALike(MACProtocol):
    """ALOHA with one-slot carrier-sense backoff.

    If a covering sensor transmitted last slot, stay silent; otherwise
    behave like slotted ALOHA with probability ``p``.  Still collision-
    prone (two sensors can start in the same slot), as the experiments
    show.
    """

    uses_carrier_sense = True

    def __init__(self, p: float):
        require_probability(p, "p")
        self.p = p
        self.name = f"csma-like(p={p:g})"

    def wants_to_send(self, position: IntVec, time: int,
                      heard_last_slot: bool,
                      rng: random.Random | StreamDraw) -> bool:
        if heard_last_slot:
            return False
        return rng.random() < self.p

    def decision_block(self, positions: Sequence[IntVec], t0: int, t1: int,
                       heard: Sequence[bool], rng: StreamRNG):
        if type(self).wants_to_send is not CSMALike.wants_to_send:
            # a subclass changed the scalar rule: honor it
            return super().decision_block(positions, t0, t1, heard, rng)
        return masked_bernoulli_block(rng, len(positions), t0, t1, self.p,
                                      heard)


# ----------------------------------------------------------------------
# Protocol registry: resolve protocols by name (the facade's request
# surface), with the deployment context injected by the caller.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolContext:
    """What a named protocol may need from its deployment.

    Attributes:
        positions: the network's sensor positions, as given (``tdma``
            needs them for its one-slot-per-sensor round).
        schedule: a periodic schedule (``schedule`` wraps it in a
            :class:`ScheduleMAC`).
    """

    positions: tuple[IntVec, ...] | None = None
    schedule: Schedule | None = None

    def require_positions(self, name: str) -> tuple[IntVec, ...]:
        """The positions as canonical integer vectors.

        Coerced here rather than in :func:`make_protocol`, so protocols
        that never ask for them do not pay for validating every sensor.

        Raises:
            ValueError: when no positions were supplied.
            TypeError: when a coordinate is not integral.
        """
        if self.positions is None:
            raise ValueError(
                f"protocol {name!r} needs the sensor positions; resolve it "
                f"through a network-aware caller (simulate / Session)")
        return tuple(as_intvec(p) for p in self.positions)

    def require_schedule(self, name: str) -> Schedule:
        if self.schedule is None:
            raise ValueError(
                f"protocol {name!r} needs a schedule; resolve it through "
                f"repro.api.Session.simulate (or construct ScheduleMAC "
                f"directly)")
        return self.schedule


#: factory(context, **params) -> MACProtocol
ProtocolFactory = Callable[..., MACProtocol]

_REGISTRY: dict[str, ProtocolFactory] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_protocol(name: str, factory: ProtocolFactory | None = None,
                      *, overwrite: bool = False):
    """Register a named protocol factory (usable as a decorator).

    The factory is called as ``factory(context, **params)`` where
    ``context`` is a :class:`ProtocolContext`; names are matched
    case-insensitively with ``_``/``-`` folded together.

    Raises:
        ValueError: when the name is already taken and ``overwrite`` is
            not set — shadowing a built-in silently would change what
            every ``simulate(protocol=...)`` call means.
    """
    key = _normalize(name)

    def _register(fn: ProtocolFactory) -> ProtocolFactory:
        if not overwrite and key in _REGISTRY:
            raise ValueError(
                f"protocol name {key!r} is already registered; pass "
                f"overwrite=True to replace it")
        _REGISTRY[key] = fn
        return fn

    if factory is None:
        return _register
    return _register(factory)


def protocol_names() -> tuple[str, ...]:
    """The registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_protocol(name: str, /, *,
                  positions: Sequence[IntVec] | None = None,
                  schedule: Schedule | None = None,
                  **params) -> MACProtocol:
    """Build a registered protocol by name.

    Args:
        name: a registered name (see :func:`protocol_names`).
        positions: sensor positions, for protocols that need the
            deployment (``tdma``); validated only when one asks for them.
        schedule: a schedule, for ``schedule``-driven MACs.
        **params: forwarded to the factory (e.g. ``p=0.2`` for
            ``aloha``/``csma``).

    Raises:
        KeyError: for an unknown name (listing the known ones).
    """
    key = _normalize(name)
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(protocol_names())
        raise KeyError(
            f"unknown protocol {name!r}; known: {known}") from None
    context = ProtocolContext(
        positions=None if positions is None else tuple(positions),
        schedule=schedule)
    return factory(context, **params)


@register_protocol("aloha")
@register_protocol("slotted-aloha")
def _make_aloha(context: ProtocolContext, p: float) -> MACProtocol:
    return SlottedAloha(p)


@register_protocol("csma")
@register_protocol("csma-like")
def _make_csma(context: ProtocolContext, p: float) -> MACProtocol:
    return CSMALike(p)


@register_protocol("tdma")
@register_protocol("global-tdma")
def _make_tdma(context: ProtocolContext) -> MACProtocol:
    return GlobalTDMA(context.require_positions("tdma"))


@register_protocol("schedule")
@register_protocol("tiling-schedule")
def _make_schedule_mac(context: ProtocolContext,
                       name: str = "tiling-schedule") -> MACProtocol:
    return ScheduleMAC(context.require_schedule("schedule"), name=name)
