"""Vectorized coset reduction: many points -> small ints in one shot.

Every tiling schedule in this library answers ``slot_of(x)`` by reducing
``x`` to the canonical representative of its coset modulo a sublattice
(the tiling's translate set or period) and looking the representative up
in a finite table.  :class:`CosetTable` packages that two-step lookup for
*batches* of points:

* the pure-Python path calls ``sublattice.canonical_representative`` per
  point (exactly what ``slot_of`` does today);
* the numpy path runs the same Hermite-normal-form reduction as
  :meth:`repro.utils.intlin.CosetSpace.canonical`, but column by column
  over an ``(n, d)`` array — ``d`` passes of vectorized floor division
  instead of ``n`` Python loops — then resolves representatives through a
  dense ``index``-sized table of precomputed values.

Both paths return the same values for the same input: a list of Python
ints, or an int64 array when an array goes in on the numpy backend.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.engine.backend import active_backend, numpy_module
from repro.engine.parallel import plan_shards, run_sharded, shard_workers
from repro.utils.vectors import IntVec

__all__ = ["CosetTable", "as_point_batch"]

#: Batch sizes below this stay serial even with workers enabled — the
#: reduction is a handful of array passes, so only very large windows
#: amortize a process pool.
_MIN_PARALLEL_POINTS = 1 << 15


def _lookup_shard(payload, span):
    """Serial lookup of one row span (runs in a worker process)."""
    table, points = payload
    lo, hi = span
    return table._lookup_serial(points[lo:hi])


def as_point_batch(points):
    """Normalize a point collection for a batch kernel.

    Lists and array-likes (e.g. an ``(n, d)`` numpy window) pass through
    untouched; only one-shot iterators are materialized.
    """
    if isinstance(points, list) or hasattr(points, "__array__"):
        return points
    return list(points)

# Coordinate bound for the int64 fast path.  The HNF reduction subtracts
# ``(x[i] // diag[i]) * column[i]``; with |x| < 2**40 and the modest
# diagonals/columns of real tilings every intermediate stays far inside
# int64.  Larger coordinates silently use the exact Python path.
_MAX_COORD = 2 ** 40


class CosetTable:
    """Maps lattice points to small integers through canonical cosets.

    Args:
        sublattice: the reducing sublattice (translate set or period);
            anything exposing ``dimension``, ``index``, ``basis`` and
            ``canonical_representative`` works.
        values: one integer per canonical coset representative — a slot
            number, a prototile index, a cover-entry index...  Must cover
            every coset (tilings guarantee this by construction).
    """

    def __init__(self, sublattice, values: Mapping[IntVec, int]):
        self._sublattice = sublattice
        self._values = dict(values)
        dimension = sublattice.dimension
        basis = sublattice.basis  # HNF columns, lower triangular
        diagonal = [basis[i][i] for i in range(dimension)]
        strides = [1] * dimension
        for i in range(dimension - 2, -1, -1):
            strides[i] = strides[i + 1] * diagonal[i + 1]
        if len(self._values) != sublattice.index:
            raise ValueError(
                f"need one value per coset: got {len(self._values)} values "
                f"for index {sublattice.index}")
        table = [0] * sublattice.index
        for representative, value in self._values.items():
            key = sum(r * s for r, s in zip(representative, strides))
            table[key] = value
        self.dimension = dimension
        self._diagonal = diagonal
        self._strides = strides
        self._basis = basis
        self._table = table
        self._numpy_cache = None

    # ------------------------------------------------------------------
    def value_of(self, point: Sequence[int]) -> int:
        """Scalar lookup (identical to the per-point schedule path)."""
        return self._values[self._sublattice.canonical_representative(point)]

    def lookup(self, points: Sequence[Sequence[int]]) -> Any:
        """Values for a batch of points, dispatching on the backend.

        Accepts a list of integer tuples or a ready-made ``(n, d)``
        integer numpy array.  Returns a list of ints, except that an
        array on the numpy backend gets an int64 array back, so array
        windows stay arrays from slot lookup to the scan kernel.  Falls
        back to the exact Python path for inputs the int64 kernel cannot
        represent.  Very large batches shard across worker processes
        when workers are enabled (:mod:`repro.engine.parallel`); the
        rows partition, so the concatenated shard outputs equal the
        serial result exactly.
        """
        workers = shard_workers()
        if workers > 1 and len(points) >= _MIN_PARALLEL_POINTS:
            spans = plan_shards(len(points), workers)
            if len(spans) > 1:
                parts = run_sharded(_lookup_shard, (self, points), spans,
                                    workers)
                if isinstance(parts[0], list):
                    return [value for part in parts for value in part]
                return numpy_module().concatenate(parts)
        return self._lookup_serial(points)

    def _lookup_serial(self, points: Sequence[Sequence[int]]) -> Any:
        if active_backend() == "numpy":
            np = numpy_module()
            array = np.asarray(points)
            if (array.ndim == 2 and array.shape[1] == self.dimension
                    and array.dtype.kind in "iu"):
                # min/max, not abs: np.abs(-2**63) wraps to a negative.
                if array.size == 0 or (int(array.min()) > -_MAX_COORD
                                       and int(array.max()) < _MAX_COORD):
                    values = self._lookup_numpy(np, array)
                else:
                    # tolist() first: NumPy scalars would wrap in the
                    # exact path's arithmetic.
                    values = np.asarray(self._lookup_python(array.tolist()),
                                        dtype=np.int64)
                return values if array is points else values.tolist()
        if hasattr(points, "tolist"):
            points = points.tolist()
        return self._lookup_python(points)

    def _lookup_python(self, points: Sequence[Sequence[int]]) -> list[int]:
        canonical = self._sublattice.canonical_representative
        values = self._values
        return [values[canonical(p)] for p in points]

    # ------------------------------------------------------------------
    # repro: allow[backend-parity] -- numpy-branch-private constant cache, not a dispatched kernel; the python path reads _basis/_table directly
    def _numpy_constants(self, np):
        if self._numpy_cache is None:
            self._numpy_cache = np.asarray(self._table, dtype=np.int64)
        return self._numpy_cache

    def _lookup_numpy(self, np, array):
        table = self._numpy_constants(np)
        # One contiguous vector per coordinate: strided column passes
        # over the (n, d) array cost several times more.
        coords = [array[:, i].astype(np.int64) for i in range(self.dimension)]
        for i, column in enumerate(self._basis):
            quotient = coords[i] // self._diagonal[i]
            for row in range(i, self.dimension):
                if column[row]:
                    coords[row] -= quotient * column[row]
        keys = coords[0] * self._strides[0]
        for coord, stride in zip(coords[1:], self._strides[1:]):
            keys += coord * stride
        return table[keys]
