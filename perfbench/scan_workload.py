"""``bulk-scan``: streamed window verification and bulk slot assignment.

Why: point marshalling, slot lookup and the scan kernel do nearly all
their work here and almost none in ``wire``.  Windows are ``Box``
specs verified with ``stream_chunk``, which bypasses the certificate,
so every point is scanned.  Assigns come half as tuple lists and half
as ``(N, 2)`` int64 arrays of the same points: the two forms use the
same layer differently, so an array-native change that slows tuple
callers shows here.  Runs in this process with one worker.
"""

from __future__ import annotations

import time

import traffic
from common import CallLog, Measurement, own_peak_rss_mib

#: Target points per streamed slab.
STREAM_CHUNK = 1 << 14
#: Side of the small windows checked one-shot against the streamed scan.
AGREEMENT_SIDE = 40


def build(seed: int):
    """The workload's sessions, the timed set-up work."""
    from repro.api import Box, Session
    from repro.core.schedule import conflict_offsets

    sessions = {}
    windows = []
    for name, radius, dimension, lo, hi in traffic.scan_windows(seed):
        key = (radius, dimension)
        if key not in sessions:
            sessions[key] = Session.for_chebyshev(radius, dimension)
        windows.append((name, sessions[key], Box(lo, hi)))
    base = sessions[(1, 2)]
    lo, hi, overrides = traffic.misscheduled(seed, base.num_slots)
    box = Box(lo, hi)
    points = box.points()
    assignment = dict(zip(points, base.assign(points).slots))
    assignment.update(overrides)
    offsets = sorted(conflict_offsets([base.schedule.prototile]))
    wrong = Session.for_mapping(
        assignment, neighborhood_of=base.schedule.neighborhood_of,
        offsets=offsets)
    return windows, (wrong, box, offsets), base


def _reference_checks(windows, misscheduled, base, batches) -> tuple:
    """Untimed one-shot answers the streamed and bulk answers must equal.

    Returns ``(expected misscheduled collisions, problems)``.
    """
    from repro.api import Box
    from repro.core.schedule import find_collisions

    problems = []
    wrong, box, offsets = misscheduled
    expected = tuple(find_collisions(wrong.schedule, box.points(),
                                     wrong.neighborhood_of, offsets))
    if not expected:
        problems.append("the mis-scheduled window has no collisions")
    for name, session, window in windows:
        small = Box(window.lo, tuple(c + AGREEMENT_SIDE - 1
                                     for c in window.lo))
        one_shot = session.verify(small, use_cache=False).collisions
        streamed = session.verify(small, stream_chunk=AGREEMENT_SIDE
                                  ** (len(small.lo) - 1) * 7).collisions
        if one_shot != streamed or one_shot:
            problems.append(f"{name}: streamed and one-shot answers differ "
                            f"or a Theorem 1 window collides")
    sample = batches[0][:2000]
    if list(base.assign(sample).slots) != [base.schedule.slot_of(p)
                                           for p in sample]:
        problems.append("bulk assign disagrees with slot_of")
    return expected, problems


def measure(ctx, seconds: float, tracer=None) -> Measurement:
    import numpy as np

    windows, misscheduled, base = build(ctx.seed)
    batches = traffic.assign_batches(ctx.seed)
    arrays = [np.asarray(batch, dtype=np.int64) for batch in batches]
    expected, problems = _reference_checks(windows, misscheduled, base,
                                           batches)
    wrong, wrong_box, _ = misscheduled
    verifies = windows + [("mis", wrong, wrong_box)]
    # Batches are all one size, so each input form is one kind of call.
    assigns = [("tuples", batch, index)
               for index, batch in enumerate(batches)]
    assigns += [("arrays", array, index)
                for index, array in enumerate(arrays)]
    want_slots = [list(base.assign(batch).slots) for batch in batches]
    log = CallLog()
    failed = attempted = 0
    if tracer is not None:
        tracer.enabled = True
    started = time.perf_counter()
    while not log.cycles or time.perf_counter() - started < seconds:
        for name, session, window in verifies:
            report = log.call(name, session.verify, window,
                              stream_chunk=STREAM_CHUNK)
            attempted += 1
            want = expected if name == "mis" else ()
            if report.collisions != want \
                    or report.window_size != window.volume():
                failed += 1
                problems.append(f"{name}: wrong verification answer")
        for name, points, index in assigns:
            answer = log.call(name, base.assign, points)
            attempted += 1
            if list(answer.slots) != want_slots[index]:
                failed += 1
                problems.append(f"{name}: wrong slots")
        log.end_cycle()
    if tracer is not None:
        tracer.enabled = False
    scan_rate = log.rate({name: window.volume()
                          for name, _, window in verifies})
    assign_rate = log.rate({"tuples": traffic.ASSIGN_BATCH,
                            "arrays": traffic.ASSIGN_BATCH})
    p50, p99 = log.latency_ms()
    rss = own_peak_rss_mib()
    return Measurement(
        e2e={"rate_per_s": scan_rate, "rate2_per_s": assign_rate,
             "p50_ms": p50, "p99_ms": p99, "peak_rss_mib": rss},
        named={"scan.mpts_s": (scan_rate / 1e6, "Mpoint/s"),
               "assign.mpts_s": (assign_rate / 1e6, "Mpoint/s"),
               "scan.peak_rss_mib": (rss, "MiB"),
               "scan.cycle_p50_ms": (p50, "ms"),
               "scan.cycle_p99_ms": (p99, "ms"),
               "scan.cycles": (len(log.cycles), "count"),
               "box.slowdown": (log.slowdown, "ratio")},
        attempted=attempted, failed=failed, problems=problems)
