"""Seeded inputs for every workload, scripted here and nowhere else.

The benchmark owns its traffic: a change to ``repro.service.loadgen``
or to the library's RNG cannot change what a run is measured on.  The
``wire`` op mix mirrors ``loadgen.build_workload`` (mostly small
assigns on tiling sessions, some verifies, a few edits on mapping
sessions) but is drawn from Python's own ``random`` module, one
stream per purpose, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import random

#: The wire session population: half Theorem 1 tiling sessions, half
#: the tiling restricted to a finite window (only those accept edits).
WIRE_SESSIONS = tuple((f"s{index}", "tiling" if index % 2 == 0
                       else "mapping") for index in range(8))
TILING_WINDOW = ((0, 0), (7, 7))
MAPPING_WINDOW = ((0, 0), (9, 9))
#: Assigns carry 4..48 points drawn from [0, 32)^2.
ASSIGN_POINTS = (4, 48)
POINT_RANGE = 32
#: Op mix: the rest of the requests are assigns.
EDIT_SHARE = 0.05
VERIFY_SHARE = 0.15


def stream(seed: int, purpose: str) -> random.Random:
    """An independent generator for one purpose of one seeded run."""
    return random.Random(f"perfbench:{seed}:{purpose}")


class WireScript:
    """An endless, seeded request stream for the ``wire`` workload.

    Each op is ``(op, session_id, payload)`` with the payload in the
    form ``SchedulingService.submit`` takes.
    """

    def __init__(self, seed: int, purpose: str, num_slots: int) -> None:
        self._rng = stream(seed, purpose)
        self._num_slots = num_slots
        self._tiling = [sid for sid, kind in WIRE_SESSIONS
                        if kind == "tiling"]
        self._mapping = [sid for sid, kind in WIRE_SESSIONS
                         if kind == "mapping"]
        (x0, y0), (x1, y1) = MAPPING_WINDOW
        self._edit_points = [(x, y) for x in range(x0, x1 + 1)
                             for y in range(y0, y1 + 1)]

    def next_op(self) -> tuple[str, str, dict]:
        rng = self._rng
        draw = rng.random()
        if draw < EDIT_SHARE:
            point = rng.choice(self._edit_points)
            return ("edit", rng.choice(self._mapping),
                    {"updates": {point: rng.randrange(self._num_slots)}})
        if draw < EDIT_SHARE + VERIFY_SHARE:
            return ("verify", rng.choice(WIRE_SESSIONS)[0],
                    {"window": None, "offsets": None, "use_cache": True,
                     "stream_chunk": None})
        count = rng.randint(*ASSIGN_POINTS)
        points = [(rng.randrange(POINT_RANGE), rng.randrange(POINT_RANGE))
                  for _ in range(count)]
        return ("assign", rng.choice(self._tiling), {"points": points})

    def take(self, count: int) -> list[tuple[str, str, dict]]:
        return [self.next_op() for _ in range(count)]


def arrivals(seed: int, rate: float, count: int) -> list[float]:
    """Send offsets in seconds: ``count`` Poisson arrivals at ``rate``.

    Independent users arrive at random, not on a metronome.  With a
    fixed gap, every request waits out the same share of the gap on a
    transport stall, and the tail splits into a few sharp modes whose
    mix moves the p99 between them from run to run.  The arrivals are
    a Poisson process conditioned on ``count`` arrivals in
    ``count / rate`` seconds (sorted uniform times), so the offered
    rate is exactly ``rate``.
    """
    rng = stream(seed, "arrivals")
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def scan_windows(seed: int) -> list[tuple[str, int, int, tuple, tuple]]:
    """The ``bulk-scan`` verify windows: ``(name, radius, dim, lo, hi)``.

    Three Theorem 1 windows of about 2^16 points each — 2-D Chebyshev radius
    1 and 2, and a 3-D radius-1 box — at seeded positions, so a seed
    moves the windows but never changes how much work they are.
    """
    rng = stream(seed, "scan-windows")

    def corner(dimension: int) -> tuple[int, ...]:
        return tuple(rng.randrange(-10 ** 6, 10 ** 6)
                     for _ in range(dimension))

    windows = []
    for name, radius, side, dimension in (("r1-2d", 1, 256, 2),
                                          ("r2-2d", 2, 256, 2),
                                          ("r1-3d", 1, 40, 3)):
        lo = corner(dimension)
        hi = tuple(c + side - 1 for c in lo)
        windows.append((name, radius, dimension, lo, hi))
    return windows


#: The mis-scheduled window: a 2-D radius-1 tiling over this many rows
#: and columns with ``MISSCHEDULED_EDITS`` slots overwritten.
MISSCHEDULED_SIDE = 100
MISSCHEDULED_EDITS = 24


def misscheduled(seed: int, num_slots: int) -> tuple[tuple, tuple, dict]:
    """``(lo, hi, overrides)``: a seeded window and its wrong slots."""
    rng = stream(seed, "misscheduled")
    lo = (rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(-10 ** 5, 10 ** 5))
    hi = (lo[0] + MISSCHEDULED_SIDE - 1, lo[1] + MISSCHEDULED_SIDE - 1)
    overrides = {}
    while len(overrides) < MISSCHEDULED_EDITS:
        point = (rng.randint(lo[0], hi[0]), rng.randint(lo[1], hi[1]))
        overrides[point] = rng.randrange(num_slots)
    return lo, hi, overrides


#: Points per ``Session.assign`` call and calls per input form.
ASSIGN_BATCH = 16_384
ASSIGN_CALLS = 8


def assign_batches(seed: int) -> list[list[tuple[int, int]]]:
    """Seeded 2-D point batches for the ``bulk-scan`` assign half."""
    rng = stream(seed, "assign")
    span = 10 ** 6
    return [[(rng.randrange(-span, span), rng.randrange(-span, span))
             for _ in range(ASSIGN_BATCH)] for _ in range(ASSIGN_CALLS)]


#: The ``mac-sim`` deployment: a 100 x 100 window of the radius-1 tiling.
MAC_SIDE = 100
MAC_SLOTS = 256
#: Transmit probability of the random-access baselines.
MAC_P = 0.1


def mac_window(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    rng = stream(seed, "mac-window")
    lo = (rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(-10 ** 4, 10 ** 4))
    return lo, (lo[0] + MAC_SIDE - 1, lo[1] + MAC_SIDE - 1)


def mac_seed(seed: int) -> int:
    """The simulator seed of one run."""
    return stream(seed, "mac-seed").randrange(2 ** 31)
