"""Benchmark + regeneration of the scalability claim (contribution 2).

The tiling schedule's round length stays |N| while TDMA's grows with the
network; slot assignment per sensor is O(1) versus growing coloring cost.
The bulk cases stress the engine's vectorized slot assignment on a
~10^5-sensor window against the per-point pure-Python loop.
"""

import time

import pytest

from repro.api import Box, EngineConfig, Session
from repro.core.schedule import find_collisions
from repro.engine import cpu_budget, numpy_available
from repro.experiments.base import format_rows
from repro.experiments.systems_experiments import run_scaling
from repro.graphs.coloring import dsatur_coloring
from repro.graphs.interference import conflict_graph_homogeneous
from repro.lattice.region import box_region
from repro.tiles.shapes import chebyshev_ball
from repro.utils.vectors import box_points

_TILE = chebyshev_ball(1)
_SCHEDULE = Session.for_prototile(_TILE).schedule
# 316 x 316 = 99856 sensors: the large-window engine workload.
_BULK_SIDE = 316
# 100 x 100 = 10^4 sensors: the random-MAC simulator workload.
_RANDMAC_SIDE = 100


def _window(side):
    """Row-major window list (the natural bulk representation)."""
    return list(box_points((0, 0), (side - 1, side - 1)))


def test_scaling_regenerates(report, benchmark):
    result = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    report("Contribution 2 — scalability", format_rows(result.rows))
    assert result.passed


@pytest.mark.parametrize("side", [8, 16, 32])
def test_tiling_assignment_scales_linearly(benchmark, side):
    points = box_region((0, 0), (side - 1, side - 1)).points

    def assign_all():
        return [_SCHEDULE.slot_of(p) for p in points]

    slots = benchmark(assign_all)
    assert len(slots) == side * side


@pytest.mark.parametrize("side", [8, 16])
def test_dsatur_baseline_cost(benchmark, side):
    points = box_region((0, 0), (side - 1, side - 1)).points
    graph = conflict_graph_homogeneous(points, _TILE)

    coloring = benchmark(dsatur_coloring, graph)
    assert max(coloring.values()) + 1 >= _TILE.size


@pytest.mark.parametrize("side", [100, _BULK_SIDE])
def test_bulk_slot_assignment(benchmark, side):
    points = _window(side)
    session = Session(_SCHEDULE)

    assignment = benchmark.pedantic(session.assign, args=(points,),
                                    rounds=1, iterations=1)
    assert len(assignment) == side * side
    assert set(assignment.slots) == set(range(session.num_slots))


@pytest.mark.skipif(cpu_budget() < 4,
                    reason="the >= 2x shard gate needs >= 4 usable cores "
                           "(on 2 cores the theoretical ceiling is 2.0x)")
def test_sharded_collision_scan_speedup(report, record_scaling):
    """Sharded point scan on a 10^5-point window vs the serial path.

    The ROADMAP asks for multi-core throughput *beyond single-threaded
    numpy*, so the workload pins the compute-bound pure-Python kernel
    (the fallback every deployment has) and shards its point axis across
    worker processes.  Results must be bit-identical for every worker
    count, and with 4 workers on 4+ cores the wall-clock target of
    >= 2x leaves pool spawn/merge overhead plenty of headroom.
    """
    points = _window(_BULK_SIDE)
    worker_counts = (2, 4)

    serial_session = Session(_SCHEDULE,
                             config=EngineConfig(backend="python"))
    t0 = time.perf_counter()
    serial = serial_session.verify(points, use_cache=False).collisions
    serial_time = time.perf_counter() - t0
    record_scaling("collision-scan/serial", seconds=serial_time,
                   backend="python", workers=1,
                   sensors=len(points))

    best_speedup = 0.0
    for workers in worker_counts:
        session = Session(_SCHEDULE, config=EngineConfig(
            backend="python", workers=workers))
        t0 = time.perf_counter()
        sharded = session.verify(points, use_cache=False).collisions
        shard_time = time.perf_counter() - t0
        assert sharded == serial
        speedup = serial_time / shard_time
        best_speedup = max(best_speedup, speedup)
        record_scaling("collision-scan/sharded", seconds=shard_time,
                       speedup=speedup, backend="python",
                       workers=workers, sensors=len(points))

    report("Engine — sharded collision scan",
           f"{len(points)} sensors, pure-Python kernel: serial "
           f"{serial_time * 1e3:.0f} ms, best sharded "
           f"{serial_time / best_speedup * 1e3:.0f} ms "
           f"({best_speedup:.1f}x on up to {max(worker_counts)} workers), "
           f"collision lists bit-identical")
    assert best_speedup >= 2


def test_incremental_verification_speedup(report, record_scaling):
    """Session.edit (dirty-region re-verification) vs full re-verification.

    A 10^4-point window under churn: each ``Session.edit`` reassigns a
    few slots and the session's cache re-verifies only the dirty region.
    The incremental result must equal the full rescan and land >= 10x
    faster.
    """
    points = _window(_RANDMAC_SIDE)
    tile = _TILE

    def neighborhood(p):
        return tile.translate(p)

    session = Session.for_mapping(
        dict(zip(points, _SCHEDULE.slots_of(points))),
        neighborhood_of=neighborhood, window=points)

    t0 = time.perf_counter()
    full_report = session.verify(use_cache=False)
    full_time = time.perf_counter() - t0
    assert full_report.collision_free

    session.verify()  # warm: the one-off full scan into the cache
    incremental_time = float("inf")
    for step in range(5):
        updates = {
            (50, 50 + step): (3 * step + 1) % 9,
            (10, 10 + step): (5 * step + 2) % 9,
        }
        t0 = time.perf_counter()
        session = session.edit(updates)
        incremental = session.verify().collisions
        incremental_time = min(incremental_time, time.perf_counter() - t0)
    assert list(incremental) == find_collisions(session.schedule, points,
                                                neighborhood)

    speedup = full_time / incremental_time
    record_scaling("incremental-verification/full", seconds=full_time,
                   sensors=len(points))
    record_scaling("incremental-verification/dirty-region",
                   seconds=incremental_time, speedup=speedup,
                   sensors=len(points), edit_size=2)
    report("Engine — incremental verification",
           f"{len(points)} sensors: full re-verification "
           f"{full_time * 1e3:.1f} ms, dirty-region update "
           f"{incremental_time * 1e3:.3f} ms ({speedup:.0f}x), collision "
           f"lists identical to the full rescan")
    assert speedup >= 10


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_bulk_slot_assignment_speedup(report, record_scaling, benchmark):
    import numpy as np

    points = _window(_BULK_SIDE)
    window = np.asarray(points)

    t0 = time.perf_counter()
    loop_slots = [_SCHEDULE.slot_of(p) for p in points]
    loop_time = time.perf_counter() - t0

    bulk_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        bulk_slots = _SCHEDULE.slots_of(window)
        bulk_time = min(bulk_time, time.perf_counter() - t0)
    benchmark.pedantic(_SCHEDULE.slots_of, args=(window,),
                       rounds=1, iterations=1)

    assert bulk_slots == loop_slots
    speedup = loop_time / bulk_time
    record_scaling("bulk-slot-assignment", seconds=bulk_time,
                   speedup=speedup, sensors=len(points))
    report("Engine — bulk slot assignment",
           f"{len(points)} sensors: per-point loop {loop_time * 1e3:.0f} ms, "
           f"engine {bulk_time * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= 10


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_randmac_simulator_speedup(report, record_scaling, benchmark):
    """Vectorized ALOHA on a 10^4-sensor window vs the scalar path.

    Both paths draw the same per-sensor counter streams, so the metrics
    must be *identical* — on the scalar reference, on the numpy kernels,
    and on the pure-Python fallback — while the vectorized decisions are
    required to be >= 10x faster end to end.
    """
    session = Session.for_prototile(_TILE, window=_window(_RANDMAC_SIDE))
    network = session.network()
    network.adjacency_index()  # freeze the topology outside the timers
    slots = 16

    def run(bulk, config=None):
        runner = session if config is None else session.with_config(config)
        return runner.simulate("aloha", slots, network=network,
                               packet_interval=4, seed=5, p=0.02,
                               bulk_decisions=bulk)

    t0 = time.perf_counter()
    scalar_metrics = run(False)
    scalar_time = time.perf_counter() - t0

    bulk_time = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        bulk_metrics = run(True)
        bulk_time = min(bulk_time, time.perf_counter() - t0)
    benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)

    assert bulk_metrics == scalar_metrics
    fallback_metrics = run(True, EngineConfig(backend="python"))
    assert fallback_metrics == bulk_metrics

    speedup = scalar_time / bulk_time
    record_scaling("randmac-simulator", seconds=bulk_time,
                   speedup=speedup, sensors=_RANDMAC_SIDE ** 2)
    report("Engine — vectorized random-MAC simulator",
           f"{_RANDMAC_SIDE ** 2} sensors x {slots} slots of slotted "
           f"ALOHA: scalar path {scalar_time * 1e3:.0f} ms, engine "
           f"{bulk_time * 1e3:.1f} ms ({speedup:.1f}x), metrics "
           f"identical on numpy / python / scalar paths")
    assert speedup >= 10


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_mac_simulator_step_loop(report, record_scaling):
    """The simulator's slot loop: 10^4 sensors x 256 slots on numpy.

    One run each of aloha, csma and the collision-free schedule, timed
    best of three.  The numpy metrics must equal the pure-Python
    backend's on a 40 x 40 sub-window (the full window is too slow for
    the fallback).
    """
    protocols = (("aloha", {"p": 0.1}), ("csma", {"p": 0.1}),
                 ("schedule", {}))
    slots = 256
    session = Session.for_prototile(_TILE, window=_window(_RANDMAC_SIDE),
                                    config=EngineConfig(backend="numpy"))
    network = session.network()
    network.adjacency_index()  # freeze the topology outside the timers
    seconds = {}
    for name, params in protocols:
        seconds[name] = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            session.simulate(name, slots, network=network, seed=1, **params)
            seconds[name] = min(seconds[name], time.perf_counter() - t0)

    sub_window = Box((0, 0), (39, 39))
    fallback = session.with_config(EngineConfig(backend="python"))
    for name, params in protocols:
        assert session.simulate(name, slots, window=sub_window, seed=1,
                                **params) == \
            fallback.simulate(name, slots, window=sub_window, seed=1,
                              **params)

    record_scaling("mac-simulator/step-loop", seconds=sum(seconds.values()),
                   sensors=_RANDMAC_SIDE ** 2, slots=slots,
                   **{f"{name}_seconds": round(value, 6)
                      for name, value in seconds.items()})
    report("Engine — MAC simulator slot loop",
           f"{_RANDMAC_SIDE ** 2} sensors x {slots} slots on numpy: "
           + ", ".join(f"{name} {value * 1e3:.0f} ms"
                       for name, value in seconds.items())
           + "; metrics identical to the python backend on 40 x 40")


def test_certificate_reverification_speedup(report, record_scaling):
    """Certificate-served congruent windows vs a full scan (ROADMAP item).

    A Theorem 1 schedule certifies once (a fundamental-domain scan, a
    hundred-odd points) and then answers *any* congruent window in O(1).
    The gate: re-verifying a translated 10^5-sensor window through the
    certificate must beat the full scan by >= 50x and return the same
    (empty) collision list.
    """
    side = _BULK_SIDE
    session = Session(_SCHEDULE)

    t0 = time.perf_counter()
    full = session.verify(Box((0, 0), (side - 1, side - 1)),
                          use_cache=False)
    full_time = time.perf_counter() - t0
    assert full.collision_free

    session.verify(Box((0, 0), (side - 1, side - 1)))  # certify + serve
    certificate_time = float("inf")
    for step in range(1, 6):
        translated = Box((7 * step, 11 * step),
                         (7 * step + side - 1, 11 * step + side - 1))
        t0 = time.perf_counter()
        served = session.verify(translated)
        certificate_time = min(certificate_time,
                               time.perf_counter() - t0)
        assert served.source == "certificate"
        assert served.checked_points == 0
        assert served.collisions == full.collisions == ()

    speedup = full_time / certificate_time
    record_scaling("certificate-verification/full-scan",
                   seconds=full_time, sensors=side * side)
    record_scaling("certificate-verification/congruent-window",
                   seconds=certificate_time, speedup=speedup,
                   sensors=side * side)
    report("Engine — certificate verification",
           f"{side * side} sensors: full scan {full_time * 1e3:.0f} ms, "
           f"certificate-served congruent window "
           f"{certificate_time * 1e6:.0f} us ({speedup:.0f}x), verdicts "
           f"identical")
    assert speedup >= 50


def test_streamed_window_bounded_memory(report, record_scaling):
    """A 10^7-point window verified out-of-core under a hard memory cap.

    ``stream_box_collisions`` materializes one axis-0 slab at a time, so
    peak allocation must track the 2x10^5-point chunk, never the 10^7
    window — a generous 256 MiB ceiling that a materialized window (a
    GiB-scale list of tuples) would blow past.
    """
    import tracemalloc

    from repro.core.certify import stream_box_collisions

    side = 3163  # 3163^2 = 10,004,569 points
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        collisions = stream_box_collisions(
            _SCHEDULE, (0, 0), (side - 1, side - 1),
            _SCHEDULE.neighborhood_of, chunk_points=200_000)
        seconds = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert collisions == []
    record_scaling("streamed-verification/out-of-core", seconds=seconds,
                   sensors=side * side, chunk_points=200_000,
                   peak_mib=round(peak / 2**20, 1))
    report("Engine — streamed out-of-core verification",
           f"{side * side} sensors in 200k-point slabs: "
           f"{seconds:.1f} s end to end, {peak / 2**20:.0f} MiB peak "
           f"traced allocation (window itself never materialized)")
    assert peak < 256 * 2**20
    assert seconds <= 20


def _interleaved_min(direct, facade, rounds):
    """Min wall time of two callables, measured alternately.

    Interleaving keeps clock drift and cache-warmth from favoring
    whichever path happens to run second.
    """
    best_direct = best_facade = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        direct()
        best_direct = min(best_direct, time.perf_counter() - t0)
        t0 = time.perf_counter()
        facade()
        best_facade = min(best_facade, time.perf_counter() - t0)
    return best_direct, best_facade


def test_facade_overhead(report, record_scaling):
    """repro.api.Session must be free: <5% over the raw engine calls.

    ``Session.assign`` wraps ``schedule.slots_of`` and ``Session.verify``
    wraps ``find_collisions``; the typed responses and config plumbing
    are allowed to cost microseconds, not a perceptible fraction of a
    10^5-point bulk request.  Interleaved min-of-N timing keeps the
    gate robust against scheduler noise.
    """
    points = _window(_BULK_SIDE)
    session = Session(_SCHEDULE, window=points)
    neighborhood = _SCHEDULE.neighborhood_of

    # Warm both paths (coset table, conflict offsets, engine imports).
    _SCHEDULE.slots_of(points)
    session.assign(points)

    assign_direct, assign_facade = _interleaved_min(
        lambda: _SCHEDULE.slots_of(points),
        lambda: session.assign(points), 9)
    assign_overhead = assign_facade / assign_direct - 1.0

    find_collisions(_SCHEDULE, points, neighborhood)
    session.verify(use_cache=False)
    verify_direct, verify_facade = _interleaved_min(
        lambda: find_collisions(_SCHEDULE, points, neighborhood),
        lambda: session.verify(use_cache=False), 5)
    verify_overhead = verify_facade / verify_direct - 1.0

    record_scaling("facade-overhead/assign", seconds=assign_facade,
                   overhead=round(assign_overhead, 4),
                   sensors=len(points))
    record_scaling("facade-overhead/verify", seconds=verify_facade,
                   overhead=round(verify_overhead, 4),
                   sensors=len(points))
    report("API — facade overhead",
           f"{len(points)} sensors: assign {assign_direct * 1e3:.2f} ms "
           f"direct vs {assign_facade * 1e3:.2f} ms via Session "
           f"({assign_overhead:+.1%}); verify "
           f"{verify_direct * 1e3:.1f} ms vs {verify_facade * 1e3:.1f} ms "
           f"({verify_overhead:+.1%})")
    assert assign_overhead < 0.05
    assert verify_overhead < 0.05
