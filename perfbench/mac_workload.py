"""``mac-sim``: the slotted broadcast simulator under three MAC protocols.

Why: ``repro.net`` and ``engine.randmac`` do their work only here.
``schedule`` is the paper's collision-free TDMA over the radius-1
tiling; ``aloha`` and ``csma`` are the random-access baselines.  Each
protocol simulates the same 10^4-sensor window for 256 slots with one
seeded simulator stream, so every cycle repeats the previous one
exactly.
"""

from __future__ import annotations

import dataclasses
import time

import traffic
from common import CallLog, Measurement, own_peak_rss_mib

PROTOCOLS = (("aloha", {"p": traffic.MAC_P}),
             ("csma", {"p": traffic.MAC_P}),
             ("schedule", {}))
#: Cycles needed so the random protocols are repeated on one seed.
MIN_CYCLES = 2


def build(seed: int):
    """The session with its network and adjacency index built."""
    from repro.api import Box, Session

    lo, hi = traffic.mac_window(seed)
    session = Session.for_chebyshev(1, 2, window=Box(lo, hi))
    session.network().adjacency_index()
    return session


def measure(ctx, seconds: float, tracer=None) -> Measurement:
    session = build(ctx.seed)
    sim_seed = traffic.mac_seed(ctx.seed)
    work = len(session.network()) * traffic.MAC_SLOTS
    log = CallLog()
    first: dict = {}
    problems = []
    attempted = failed = 0
    transmissions = failed_receptions = successes = 0
    if tracer is not None:
        tracer.enabled = True
    started = time.perf_counter()
    while len(log.cycles) < MIN_CYCLES \
            or time.perf_counter() - started < seconds:
        for name, params in PROTOCOLS:
            result = log.call(name, session.simulate, name,
                              traffic.MAC_SLOTS, seed=sim_seed, **params)
            attempted += 1
            transmissions += result.transmissions
            failed_receptions += result.failed_receptions
            successes += result.successful_broadcasts
            summary = dataclasses.asdict(result)
            wrong = None
            if name == "schedule" and (
                    result.failed_receptions != 0
                    or result.successful_broadcasts != result.transmissions
                    or result.transmissions == 0):
                wrong = "schedule lost a reception"
            elif first.setdefault(name, summary) != summary:
                wrong = f"{name} differs on a same-seed repeat"
            if wrong is not None:
                failed += 1
                problems.append(wrong)
        log.end_cycle()
    if tracer is not None:
        tracer.enabled = False
    random_rate = log.rate({"aloha": work, "csma": work})
    tdma_rate = log.rate({"schedule": work})
    p50, p99 = log.latency_ms()
    rss = own_peak_rss_mib()
    return Measurement(
        e2e={"rate_per_s": random_rate, "rate2_per_s": tdma_rate,
             "p50_ms": p50, "p99_ms": p99, "peak_rss_mib": rss},
        named={"sim.random_msslots_s": (random_rate / 1e6,
                                        "Msensor-slot/s"),
               "sim.tdma_msslots_s": (tdma_rate / 1e6, "Msensor-slot/s"),
               "sim.cycle_p50_ms": (p50, "ms"),
               "sim.cycle_p99_ms": (p99, "ms"),
               "sim.peak_rss_mib": (rss, "MiB"),
               "sim.cycles": (len(log.cycles), "count"),
               "box.slowdown": (log.slowdown, "ratio")},
        layers={"net.transmissions": transmissions,
                "net.failed_receptions": failed_receptions,
                "net.success_ratio": (successes / transmissions
                                      if transmissions else 0.0)},
        attempted=attempted, failed=failed, problems=problems)
