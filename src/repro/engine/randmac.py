"""Bulk decision kernels for random MAC protocols (ALOHA / CSMA).

The deterministic protocols vectorize through slot tables; the random
ones used to fall back to one ``wants_to_send`` call per sensor per slot
against a single shared ``random.Random``, which serialized the whole
path.  These kernels evaluate entire ``(slot, sensor)`` windows of
decisions at once against the counter-based :class:`repro.utils.rng.
StreamRNG`: the value for sensor ``i`` at slot ``t`` is a pure function
of ``(seed, i, t)``, so the numpy kernel, the pure-Python kernel and the
scalar ``wants_to_send`` fallback all see the *same* randomness and
produce bit-identical simulation metrics.

The numpy path reimplements the SplitMix64 arithmetic of ``StreamRNG``
on ``uint64`` arrays (multiplication and addition wrap mod 2^64 exactly
like the masked Python integers); converting the top 53 bits ``k`` to
float64 is exact, so the uniforms agree bit-for-bit with the scalar
implementation.  Bernoulli decisions skip the floats altogether:
``k * 2^-53 < p`` holds exactly when ``k < ceil(p * 2^53)``, an integer
comparison.

Because each cell is a pure function of ``(seed, sensor, slot)``, the
sensor axis shards freely: the ``*_range`` variants evaluate only
sensors ``lo..hi-1``, and the public block functions dispatch large
windows across worker processes (:mod:`repro.engine.parallel`) and
reassemble the columns — the merged matrix is identical to the serial
one for any worker count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from repro.engine.backend import active_backend, numpy_module
from repro.engine.parallel import plan_shards, run_sharded, shard_workers
from repro.utils.rng import (
    _INV_2_53,
    _MASK64,
    _MIX_A,
    _MIX_B,
    _PHI,
    _mix64,
    StreamRNG,
)

__all__ = [
    "uniform_block",
    "uniform_block_range",
    "bernoulli_block",
    "bernoulli_block_range",
    "masked_bernoulli_block",
]

#: Decision cells (sensors x slots) below which a block stays serial
#: even when workers are enabled — process dispatch costs more than the
#: kernel below this size.
_MIN_PARALLEL_CELLS = 1 << 16


def _np_mix64(np, x, scratch):
    """SplitMix64 finalizer on a uint64 array, in place (wraps mod 2^64).

    ``scratch`` is an array of ``x``'s shape that the shifts are written
    to, so no temporaries are allocated.
    """
    for shift, factor in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(x, np.uint64(shift), out=scratch)
        x ^= scratch
        if factor is not None:
            x *= np.uint64(factor)
    return x


# The per-sensor base hashes depend only on (root, lo, hi), not on the
# slot window, so carrier-sensing protocols — dispatched one slot at a
# time — reuse them across every slot of a simulation instead of
# rehashing sensor ids per call, and each shard worker caches the bases
# for its own sensor span.  Cached arrays/tuples are never mutated.
@lru_cache(maxsize=32)
def _np_bases(root: int, lo: int, hi: int):
    np = numpy_module()
    with np.errstate(over="ignore"):
        ids = np.arange(lo, hi, dtype=np.uint64)
        ids *= np.uint64(_PHI)
        ids ^= np.uint64(root)
        return _np_mix64(np, ids, np.empty_like(ids))


@lru_cache(maxsize=32)
def _py_bases(root: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(_mix64(root ^ ((s * _PHI) & _MASK64))
                 for s in range(lo, hi))


def _np_top53_block(np, rng: StreamRNG, lo: int, hi: int,
                    t0: int, t1: int):
    """(t1-t0, hi-lo) uint64 matrix of the draw-0 states' top 53 bits."""
    bases = _np_bases(rng.root, lo, hi)
    with np.errstate(over="ignore"):
        slots = np.arange(t0, t1, dtype=np.uint64) * np.uint64(_PHI)
        states = bases[None, :] ^ slots[:, None]
        scratch = np.empty_like(states)
        _np_mix64(np, _np_mix64(np, states, scratch), scratch)
    states >>= np.uint64(11)
    return states


def _py_top53_block(rng: StreamRNG, lo: int, hi: int,
                    t0: int, t1: int) -> list[list[int]]:
    """Pure-Python counterpart with the same cached per-sensor bases."""
    bases = _py_bases(rng.root, lo, hi)
    rows = []
    for t in range(t0, t1):
        tk = (t * _PHI) & _MASK64
        rows.append([_mix64(_mix64(b ^ tk)) >> 11 for b in bases])
    return rows


def _threshold_53(p: float) -> int:
    """``ceil(p * 2^53)`` clamped to ``[0, 2^53]``: for every 53-bit
    integer ``k``, ``k * 2^-53 < p`` iff ``k < _threshold_53(p)``."""
    if not p > 0:  # also NaN, which no uniform is below
        return 0
    return math.ceil(p * 2.0 ** 53) if p < 1 else 1 << 53


def uniform_block_range(rng: StreamRNG, lo: int, hi: int,
                        t0: int, t1: int):
    """Uniforms for the sensor id range ``lo..hi-1`` over a slot window.

    ``result[t - t0][i - lo] == rng.uniform(i, t)`` exactly, on either
    backend — sensor ids stay *global*, which is what lets shards of the
    sensor axis reproduce the serial matrix column-for-column.
    """
    if active_backend() == "numpy":
        np = numpy_module()
        block = _np_top53_block(np, rng, lo, hi, t0, t1).astype(np.float64)
        block *= _INV_2_53
        return block
    return [[k * _INV_2_53 for k in row]
            for row in _py_top53_block(rng, lo, hi, t0, t1)]


def bernoulli_block_range(rng: StreamRNG, lo: int, hi: int,
                          t0: int, t1: int, p: float):
    """``uniform(i, t) < p`` for the sensor id range ``lo..hi-1``."""
    threshold = _threshold_53(p)
    if active_backend() == "numpy":
        np = numpy_module()
        return _np_top53_block(np, rng, lo, hi, t0, t1) < np.uint64(threshold)
    return [[k < threshold for k in row]
            for row in _py_top53_block(rng, lo, hi, t0, t1)]


# ----------------------------------------------------------------------
# Sharded dispatch: split the sensor axis across worker processes.
# ----------------------------------------------------------------------
def _block_shard(payload, span):
    """One sensor-span shard of a decision block (runs in a worker)."""
    rng, t0, t1, mode, p, muted = payload
    lo, hi = span
    if mode == "uniform":
        return uniform_block_range(rng, lo, hi, t0, t1)
    block = bernoulli_block_range(rng, lo, hi, t0, t1, p)
    if mode == "masked" and t1 > t0:
        if active_backend() == "numpy":
            np = numpy_module()
            block[0] &= ~np.asarray(muted[lo:hi], dtype=bool)
        else:
            block[0] = [(not muted[lo + i]) and d
                        for i, d in enumerate(block[0])]
    return block


def _merge_columns(parts):
    """Reassemble sensor-span shards side by side, on the caller's backend.

    Workers normally answer on the caller's backend, but a ``spawn``
    worker re-resolves ``REPRO_ENGINE`` from its own environment, so the
    merge tolerates either representation per part.
    """
    if active_backend() == "numpy":
        np = numpy_module()
        return np.concatenate([np.asarray(part) for part in parts], axis=1)
    rows = []
    for t in range(len(parts[0])):
        row: list = []
        for part in parts:
            chunk = part[t]
            row.extend(chunk.tolist() if hasattr(chunk, "tolist") else chunk)
        rows.append(row)
    return rows


def _dispatch_block(rng: StreamRNG, num_streams: int, t0: int, t1: int,
                    mode: str, p: float, muted,
                    workers: int | None = None):
    if workers is None:
        workers = shard_workers()
    # Single-slot windows never shard: carrier-sensing protocols request
    # one of these per simulated slot, and paying a process-pool spawn
    # per slot to split a one-row kernel is strictly slower than serial
    # no matter how many sensors the row holds.
    if (workers > 1 and t1 - t0 > 1
            and num_streams * (t1 - t0) >= _MIN_PARALLEL_CELLS):
        spans = plan_shards(num_streams, workers)
        if len(spans) > 1:
            parts = run_sharded(_block_shard, (rng, t0, t1, mode, p, muted),
                                spans, workers)
            return _merge_columns(parts)
    return _block_shard((rng, t0, t1, mode, p, muted), (0, num_streams))


def uniform_block(rng: StreamRNG, num_streams: int, t0: int, t1: int,
                  workers: int | None = None):
    """Uniforms in [0, 1) for sensors ``0..num_streams-1`` over a window.

    ``result[t - t0][i] == rng.uniform(i, t)`` exactly, on either
    backend and for any worker count; numpy returns a
    ``(t1-t0, num_streams)`` float64 array, the fallback nested lists.
    ``workers`` overrides the ambient :func:`~repro.engine.parallel.
    shard_workers` resolution for this call (``None`` keeps it).
    """
    return _dispatch_block(rng, num_streams, t0, t1, "uniform", 0.0, None,
                           workers)


def bernoulli_block(rng: StreamRNG, num_streams: int, t0: int, t1: int,
                    p: float, workers: int | None = None):
    """Boolean decision matrix: ``uniform(i, t) < p`` per sensor and slot."""
    return _dispatch_block(rng, num_streams, t0, t1, "bernoulli", p, None,
                           workers)


def masked_bernoulli_block(rng: StreamRNG, num_streams: int, t0: int,
                           t1: int, p: float, muted: Sequence[bool],
                           workers: int | None = None):
    """:func:`bernoulli_block` with a per-sensor mute (carrier sense).

    Muted sensors decide ``False``; everyone else keeps the draw keyed by
    their own ``(sensor, slot)`` cell, so muting one sensor never shifts
    another's stream.  The mute vector describes the slot before ``t0``,
    so it silences the *first* row only — matching the scalar
    ``decision_block`` contract, where slots after ``t0`` see no carrier
    sense.  (The simulator dispatches carrier-sensing protocols with
    single-slot windows anyway.)
    """
    muted = list(muted) if not hasattr(muted, "__getitem__") else muted
    return _dispatch_block(rng, num_streams, t0, t1, "masked", p, muted,
                           workers)
