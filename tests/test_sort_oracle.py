"""The vectorised counting sort and GPMA build against their loop oracles."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import counting_sort_loop, gpma_build_loop
from repro.config import GridConfig, SpeciesConfig
from repro.core.counting_sort import counting_sort_permutation
from repro.core.gpma import GappedPMA
from repro.core.incremental_sort import IncrementalSorter
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_uniform_plasma


def _bins_and_count(max_bins=8, max_size=60):
    return st.integers(min_value=1, max_value=max_bins).flatmap(
        lambda num_bins: st.tuples(
            st.lists(st.integers(min_value=0, max_value=num_bins - 1),
                     max_size=max_size),
            st.just(num_bins)))


class TestCountingSortOracle:
    @settings(max_examples=80, deadline=None)
    @given(_bins_and_count())
    @example(([], 4))                 # empty input
    @example(([0, 0, 0], 1))          # a single bin
    @example(([2] * 9, 5))            # all particles in one bin
    @example(([4, 0, 4, 0, 4], 6))    # empty bins between occupied ones
    def test_matches_loop(self, case):
        cells, num_cells = case
        cells = np.asarray(cells, dtype=np.int64)
        order, counts = counting_sort_permutation(cells, num_cells)
        want_order, want_counts = counting_sort_loop(cells, num_cells)
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(counts, want_counts)
        assert counts.dtype == want_counts.dtype == np.int64


def assert_same_gpma(got: GappedPMA, want: GappedPMA, num_particles: int):
    np.testing.assert_array_equal(got.local_index, want.local_index)
    np.testing.assert_array_equal(got.iteration_order(),
                                  want.iteration_order())
    np.testing.assert_array_equal(got.bin_offsets, want.bin_offsets)
    np.testing.assert_array_equal(got.bin_lengths, want.bin_lengths)
    assert got._empty_slots == want._empty_slots
    assert list(got._empty_slots) == list(want._empty_slots)
    assert got._particle_slot == want._particle_slot
    for particle in range(num_particles):
        assert got.bin_of(particle) == want.bin_of(particle)
    assert got.num_particles == want.num_particles
    assert got.num_empty_slots == want.num_empty_slots
    got.check_invariants()


def pop_order(gpma: GappedPMA, b: int):
    """Slots handed out by successive pops of bin ``b``'s gap stack."""
    stack = list(gpma._empty_slots[b])
    return [stack.pop() for _ in range(len(stack))]


class TestGPMABuildOracle:
    @settings(max_examples=80, deadline=None)
    @given(_bins_and_count(),
           st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
           st.integers(min_value=0, max_value=2))
    @example(([], 4), 0.25, 1)              # empty input
    @example(([0, 0, 0, 0], 1), 0.25, 1)    # a single bin
    @example(([3] * 7, 6), 0.25, 1)         # all particles in one bin
    @example(([5, 0, 5, 2], 8), 0.25, 1)    # empty bins
    @example(([0, 1, 1, 2, 2, 2], 3), 0.0, 0)  # gap_fraction 0, no gaps
    @example(([0, 1, 1, 2, 2, 2], 3), 0.0, 1)  # gap_fraction 0, min gaps
    def test_matches_loop(self, case, gap_fraction, min_gap_slots):
        bins, num_bins = case
        bins = np.asarray(bins, dtype=np.int64)
        gpma = GappedPMA(num_bins, gap_fraction=gap_fraction,
                         min_gap_slots=min_gap_slots)
        gpma.build(bins)
        want = gpma_build_loop(num_bins, gap_fraction, min_gap_slots, bins)
        assert_same_gpma(gpma, want, bins.size)
        for b in range(num_bins):
            popped = pop_order(gpma, b)
            assert popped == pop_order(want, b)
            assert popped == sorted(popped)  # lowest slot first

    def test_rebuild_replaces_previous_contents(self):
        gpma = GappedPMA(4, gap_fraction=0.5)
        gpma.build(np.array([3, 3, 1, 0]))
        gpma.delete(2)
        gpma.insert(2, 0)
        bins = np.array([2, 2, 0, 1, 3])
        gpma.build(bins)
        assert_same_gpma(gpma, gpma_build_loop(4, 0.5, 1, bins), bins.size)
        assert gpma.rebuild_count == 2


class TestGlobalSortTile:
    def test_recorded_bins_are_the_sorted_cell_ids(self):
        config = GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3,
                            tile_size=(4, 4, 4))
        grid = Grid(config)
        species = SpeciesConfig(ppc=(2, 2, 2))
        container = ParticleContainer(config, species)
        load_uniform_plasma(grid, container, species,
                            np.random.default_rng(5))
        tile = container.nonempty_tiles()[0]
        tile.permute(np.random.default_rng(1).permutation(tile.num_particles))
        IncrementalSorter().global_sort_tile(grid, tile)
        cells = tile.local_cell_ids(grid)
        np.testing.assert_array_equal(tile.sorter.assigned_bins, cells)
        want = gpma_build_loop(tile.num_cells, 0.25, 1, cells)
        assert_same_gpma(tile.sorter.gpma, want, tile.num_particles)
