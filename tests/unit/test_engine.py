"""Unit tests for the bulk engine and its integration regressions.

Covers the three bugfixes of this change (generator-valued ``offsets``,
empty prototile lists, cached network positions) and the engine contract:
the numpy and pure-Python paths must produce byte-identical collision
lists, slot assignments and simulator metrics.
"""

import random

import pytest

from repro.core.schedule import (
    MappingSchedule,
    conflict_offsets,
    find_collisions,
    verify_collision_free,
)
from repro.core.theorem1 import schedule_from_prototile
from repro.core.theorem2 import schedule_from_multi_tiling
from repro.engine import (
    AdjacencyIndex,
    BoxEncoder,
    CosetTable,
    active_backend,
    numpy_available,
    set_backend,
    use_backend,
)
from repro.lattice.sublattice import diagonal_sublattice
from repro.net.model import Network
from repro.net.protocols import CSMALike, GlobalTDMA, ScheduleMAC, SlottedAloha
from repro.net.simulator import simulate
from repro.tiles.shapes import chebyshev_ball, plus_pentomino, rectangle_tile
from repro.tiling.construct import figure5_mixed_tiling
from repro.utils.vectors import box_points, difference_set

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


# ----------------------------------------------------------------------
# Satellite bugfix regressions
# ----------------------------------------------------------------------
class TestOffsetsMaterialization:
    def _setup(self):
        # Everyone in slot 0 on a line: every adjacent pair collides.
        points = [(i, 0) for i in range(6)]
        schedule = MappingSchedule({p: 0 for p in points})
        tile = rectangle_tile(2, 1)
        return schedule, points, (lambda p: tile.translate(p))

    def test_generator_offsets_not_exhausted(self):
        schedule, points, neighborhood = self._setup()
        explicit = [(1, 0), (-1, 0)]
        from_list = find_collisions(schedule, points, neighborhood, explicit)
        from_gen = find_collisions(schedule, points, neighborhood,
                                   (d for d in explicit))
        from_frozen = find_collisions(schedule, points, neighborhood,
                                      frozenset(explicit))
        assert from_list == from_gen == from_frozen
        assert len(from_list) == 5  # all adjacent pairs, not just the first

    def test_verify_not_fooled_by_generator(self):
        schedule, points, neighborhood = self._setup()
        offsets = (d for d in [(1, 0), (-1, 0)])
        assert not verify_collision_free(schedule, points, neighborhood,
                                         offsets)

    def test_generator_points(self):
        schedule, points, neighborhood = self._setup()
        assert find_collisions(schedule, (p for p in points), neighborhood) \
            == find_collisions(schedule, points, neighborhood)

    def test_difference_set_accepts_generator(self):
        points = [(0, 0), (1, 2)]
        assert difference_set(p for p in points) == difference_set(points)


class TestConflictOffsetsValidation:
    def test_empty_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one prototile"):
            conflict_offsets([])

    def test_generator_input(self):
        tiles = [plus_pentomino(), chebyshev_ball(1)]
        assert conflict_offsets(iter(tiles)) == conflict_offsets(tiles)


class TestNetworkPositionsCache:
    def test_positions_identity(self):
        network = Network.homogeneous(
            box_points((0, 0), (2, 2)), chebyshev_ball(1))
        assert network.positions is network.positions

    def test_positions_sorted(self):
        network = Network.homogeneous(
            [(1, 1), (0, 0), (0, 1)], chebyshev_ball(1))
        assert list(network.positions) == [(0, 0), (0, 1), (1, 1)]


# ----------------------------------------------------------------------
# Engine building blocks
# ----------------------------------------------------------------------
class TestBackend:
    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            set_backend("cuda")

    def test_use_backend_restores(self):
        before = active_backend()
        with use_backend("python"):
            assert active_backend() == "python"
        assert active_backend() == before

    @pytest.mark.skipif(numpy_available(), reason="numpy is installed")
    def test_numpy_request_without_numpy(self):
        with pytest.raises(ValueError):
            set_backend("numpy")


class TestBoxEncoder:
    def test_keys_are_bijective_and_lexicographic(self):
        points = list(box_points((-2, 1), (1, 3)))
        encoder = BoxEncoder(points)
        keys = [encoder.key(p) for p in points]
        assert len(set(keys)) == len(points)
        assert keys == sorted(keys)  # box_points yields lexicographically

    def test_offset_key_matches_shift(self):
        points = list(box_points((0, 0), (4, 4)))
        encoder = BoxEncoder(points)
        delta = (1, 2)
        for p in [(0, 0), (2, 1), (3, 2)]:
            shifted = (p[0] + delta[0], p[1] + delta[1])
            assert encoder.key(p) + encoder.offset_key(delta) \
                == encoder.key(shifted)

    def test_padding_keeps_shifted_keys_injective(self):
        points = [(0, 0), (1, 0)]
        encoder = BoxEncoder(points, pad=(2, 2))
        # With padding, x + delta stays in the (padded) box for |delta|<=2,
        # so shifted keys of distinct points never alias.
        seen = set()
        for p in points:
            for delta in [(-2, 0), (2, 0), (0, -2), (0, 2)]:
                key = encoder.key(p) + encoder.offset_key(delta)
                assert key not in seen
                seen.add(key)


class TestCosetTable:
    def test_matches_canonical_per_point(self):
        sublattice = diagonal_sublattice([3, 2])
        values = {rep: i for i, rep
                  in enumerate(sublattice.coset_representatives())}
        table = CosetTable(sublattice, values)
        points = list(box_points((-7, -7), (7, 7)))
        expected = [values[sublattice.canonical_representative(p)]
                    for p in points]
        for backend in BACKENDS:
            with use_backend(backend):
                assert table.lookup(points) == expected
        assert table.value_of((5, -3)) == \
            values[sublattice.canonical_representative((5, -3))]

    def test_requires_full_cover(self):
        sublattice = diagonal_sublattice([2, 2])
        with pytest.raises(ValueError):
            CosetTable(sublattice, {(0, 0): 0})


class TestAdjacencyIndex:
    def test_matches_network_topology(self):
        network = Network.homogeneous(
            box_points((0, 0), (3, 3)), plus_pentomino())
        index = network.adjacency_index()
        assert index is network.adjacency_index()  # built once
        positions = network.positions
        assert index.positions == positions
        for i, position in enumerate(positions):
            expected = sorted(index.index_of[r]
                              for r in network.receivers_of(position))
            assert list(index.receivers[i]) == expected
        coverers = index.coverers()
        for i, position in enumerate(positions):
            expected = sorted(index.index_of[s]
                              for s in network.senders_covering(position))
            assert sorted(coverers[i]) == expected
        assert index.num_edges == sum(len(r) for r in index.receivers)


# ----------------------------------------------------------------------
# Backend equivalence: collisions, slots, simulator
# ----------------------------------------------------------------------
def _random_window(seed, side=9):
    rng = random.Random(seed)
    points = [p for p in box_points((0, 0), (side, side))
              if rng.random() < 0.7]
    assignment = {p: rng.randrange(4) for p in points}
    return points, MappingSchedule(assignment)


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_collision_lists_identical(self, seed):
        points, schedule = _random_window(seed)
        tile = chebyshev_ball(1)
        neighborhood = lambda p: tile.translate(p)  # noqa: E731
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                results[backend] = find_collisions(schedule, points,
                                                   neighborhood)
        assert results["python"]  # random 4-slot window must collide
        first, *rest = results.values()
        for other in rest:
            assert other == first

    def test_collision_list_is_sorted_canonical(self):
        points, schedule = _random_window(7)
        tile = chebyshev_ball(1)
        collisions = find_collisions(schedule, points,
                                     lambda p: tile.translate(p))
        assert collisions == sorted(collisions)
        assert all(x < y for x, y in collisions)

    def test_heterogeneous_collisions_identical(self):
        multi = figure5_mixed_tiling()
        points = list(box_points((-4, -4), (4, 4)))
        bad = MappingSchedule({p: 0 for p in points})
        results = []
        for backend in BACKENDS:
            with use_backend(backend):
                results.append(find_collisions(bad, points,
                                               multi.neighborhood_of))
        assert results[0]
        assert all(r == results[0] for r in results)

    def test_theorem_schedules_verify_on_both_backends(self):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        points = list(box_points((-5, -5), (5, 5)))
        multi = figure5_mixed_tiling()
        schedule2 = schedule_from_multi_tiling(multi)
        for backend in BACKENDS:
            with use_backend(backend):
                assert verify_collision_free(schedule, points,
                                             schedule.neighborhood_of)
                assert verify_collision_free(schedule2, points,
                                             schedule2.neighborhood_of)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slots_of_matches_slot_of(self, backend):
        points = list(box_points((-6, -6), (6, 6)))
        schedule = schedule_from_prototile(plus_pentomino())
        multi_schedule = schedule_from_multi_tiling(figure5_mixed_tiling())
        with use_backend(backend):
            assert schedule.slots_of(points) == \
                [schedule.slot_of(p) for p in points]
            assert multi_schedule.slots_of(points) == \
                [multi_schedule.slot_of(p) for p in points]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decompose_batch_matches_decompose(self, backend):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        tiling = schedule.tiling
        multi = figure5_mixed_tiling()
        points = list(box_points((-4, -4), (4, 4)))
        with use_backend(backend):
            assert tiling.decompose_batch(points) == \
                [tiling.decompose(p) for p in points]
            assert multi.decompose_batch(points) == \
                [multi.decompose(p) for p in points]
            assert multi.prototile_indices(points) == \
                [multi.prototile_index_of(p) for p in points]

    @pytest.mark.parametrize("protocol_name",
                             ["schedule", "tdma", "aloha", "csma"])
    def test_simulator_metrics_identical(self, protocol_name):
        tile = chebyshev_ball(1)
        points = list(box_points((0, 0), (5, 5)))
        network = Network.homogeneous(points, tile)
        schedule = schedule_from_prototile(tile)

        def make_protocol():
            if protocol_name == "schedule":
                return ScheduleMAC(schedule)
            if protocol_name == "tdma":
                return GlobalTDMA(network.positions)
            if protocol_name == "aloha":
                return SlottedAloha(0.3)
            return CSMALike(0.3)

        results = []
        for backend in BACKENDS:
            with use_backend(backend):
                results.append(simulate(network, make_protocol(), slots=40,
                                        packet_interval=5, seed=11))
        assert all(r == results[0] for r in results)
        assert results[0].packets_created > 0


# ----------------------------------------------------------------------
# Int64 extremes: bulk lookup and scan stay exact at the edge of int64
# ----------------------------------------------------------------------
_INT64_MIN = -2 ** 63


class TestInt64Extremes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bulk_slots_at_int64_min_match_slot_of(self, backend):
        # np.abs(-2**63) wraps to a negative number, which once let such
        # windows past the int64 coordinate guard.
        from repro.api import Session

        points = [(_INT64_MIN, j) for j in range(3)]
        session = Session.for_chebyshev(1, 2)
        with use_backend(backend):
            slots = session.assign(points).slots
        assert list(slots) == [session.schedule.slot_of(p) for p in points]

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_exact_fallback_never_iterates_numpy_scalars(self):
        import numpy as np

        schedule = schedule_from_prototile(chebyshev_ball(1))
        rows = [(_INT64_MIN + 3, 5), (2 ** 62, -7), (-(2 ** 41), 3)]
        with use_backend("numpy"):
            got = schedule.slots_of(np.array(rows, dtype=np.int64))
        assert got == [schedule.slot_of(p) for p in rows]

    @pytest.mark.parametrize("policy", ["degrade", "raise"])
    def test_window_near_int64_min_is_not_a_kernel_failure(self, policy):
        import warnings

        from repro.engine import EngineConfig, EngineDegradedWarning

        points = [(_INT64_MIN + i, j) for i in range(3) for j in range(3)]
        schedule = MappingSchedule({p: 0 for p in points})
        tile = chebyshev_ball(1)
        neighborhood = lambda p: tile.translate(p)  # noqa: E731
        results = {}
        for backend in BACKENDS:
            config = EngineConfig(backend=backend, on_kernel_failure=policy)
            with warnings.catch_warnings():
                warnings.simplefilter("error", EngineDegradedWarning)
                with config.apply():
                    results[backend] = find_collisions(schedule, points,
                                                       neighborhood)
        first, *rest = results.values()
        assert first and all(other == first for other in rest)


# ----------------------------------------------------------------------
# Array windows and the two numpy scan kernels
# ----------------------------------------------------------------------
def _colliding_cases():
    """(schedule, neighborhood_of, offsets) triples whose windows collide.

    Each schedule is verified against a wider interference map than the
    one it was built for, so slots repeat within conflict range.
    """
    narrow = schedule_from_prototile(chebyshev_ball(1))
    plus = schedule_from_prototile(plus_pentomino())
    wide = schedule_from_prototile(chebyshev_ball(2))
    multi = figure5_mixed_tiling()
    mixed = schedule_from_multi_tiling(multi)
    return [
        (narrow, wide.neighborhood_of,
         sorted(conflict_offsets([wide.prototile]))),
        (plus, multi.neighborhood_of,
         sorted(conflict_offsets(multi.prototiles))),
        (mixed, wide.neighborhood_of,
         sorted(conflict_offsets([wide.prototile]))),
        (mixed, mixed.neighborhood_of, None),
    ]


def _shuffled_window_with_duplicates(seed):
    rng = random.Random(seed)
    points = [p for p in box_points((-6, -5), (7, 6)) if rng.random() < 0.8]
    points += rng.sample(points, 15)
    rng.shuffle(points)
    return points


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestArrayWindows:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_array_and_tuple_windows_agree(self, backend):
        import numpy as np

        for seed, (schedule, neighborhood, offsets) in enumerate(
                _colliding_cases()):
            points = _shuffled_window_with_duplicates(seed)
            array = np.array(points, dtype=np.int64)
            with use_backend(backend):
                want = find_collisions(schedule, points, neighborhood,
                                       offsets)
                got = find_collisions(schedule, array, neighborhood, offsets)
            assert got == want
            assert all(type(c) is int for pair in got for p in pair
                       for c in p)
            # only the last case, a Theorem 2 schedule under its own
            # map, is collision-free
            assert bool(got) == (seed < 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mapping_schedule_reads_arrays_as_tuples(self, backend):
        import numpy as np

        points, schedule = _random_window(5)
        tile = chebyshev_ball(1)
        neighborhood = lambda p: tile.translate(p)  # noqa: E731
        with use_backend(backend):
            want = find_collisions(schedule, points, neighborhood)
            got = find_collisions(schedule, np.array(points), neighborhood)
        assert want and got == want

    def test_coset_lookup_keeps_arrays(self):
        import numpy as np

        schedule = schedule_from_prototile(chebyshev_ball(1))
        table = schedule._coset_table()
        points = list(box_points((-5, -5), (5, 5)))
        with use_backend("numpy"):
            got = table.lookup(np.array(points, dtype=np.int64))
            assert got.dtype == np.int64
            assert got.tolist() == table.lookup(points)
            # the schedule-level bulk API keeps its list contract
            assert schedule.slots_of(np.array(points)) == \
                [schedule.slot_of(p) for p in points]

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_and_sorted_kernels_agree(self, monkeypatch, seed):
        import numpy as np

        from repro.engine import collisions

        points = _shuffled_window_with_duplicates(100 + seed)
        cases = _colliding_cases()
        schedule, neighborhood, offsets = cases[seed % len(cases)]
        rng = random.Random(seed)
        bad = MappingSchedule({p: rng.randrange(3) for p in points})
        results = []
        for per_point in (0, 10 ** 9):  # sorted keys, then dense index
            monkeypatch.setattr(collisions, "_DENSE_VOLUME_PER_POINT",
                                per_point)
            with use_backend("numpy"):
                results.append((
                    find_collisions(schedule, np.array(points), neighborhood,
                                    offsets),
                    find_collisions(bad, points, neighborhood, offsets)))
        with use_backend("python"):
            want = (find_collisions(schedule, points, neighborhood, offsets),
                    find_collisions(bad, points, neighborhood, offsets))
        assert want[1]
        assert results[0] == results[1] == want

    def test_two_shape_multitiling_kernels_agree(self, monkeypatch):
        from repro.engine import collisions

        multi = figure5_mixed_tiling()
        points = _shuffled_window_with_duplicates(7)
        bad = MappingSchedule({p: (p[0] + 2 * p[1]) % 5 for p in points})
        results = []
        for per_point in (0, 10 ** 9):
            monkeypatch.setattr(collisions, "_DENSE_VOLUME_PER_POINT",
                                per_point)
            with use_backend("numpy"):
                results.append(find_collisions(bad, points,
                                               multi.neighborhood_of))
        with use_backend("python"):
            want = find_collisions(bad, points, multi.neighborhood_of)
        assert want and results[0] == results[1] == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sparse_window_takes_the_sorted_path(self, backend):
        import tracemalloc
        import warnings

        from repro.engine import EngineDegradedWarning

        points = [(0, 0), (10 ** 9, 0), (10 ** 9, 1)]
        schedule = MappingSchedule({p: 0 for p in points})
        tile = chebyshev_ball(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineDegradedWarning)
            with use_backend(backend):
                tracemalloc.start()
                try:
                    got = find_collisions(schedule, points,
                                          lambda p: tile.translate(p))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert got == [((10 ** 9, 0), (10 ** 9, 1))]
        # a dense table over the ~3*10^9-key box would need GiBs
        assert peak < 2 ** 20
