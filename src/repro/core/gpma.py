"""Gapped Packed Memory Array (GPMA) for per-tile particle indices.

The GPMA (§3.5 and §4.3.2 of the paper) keeps the indices of a tile's
particles grouped by cell ("bin") inside one flat array, with deliberate
gaps so that the frequent small updates caused by particles crossing cell
boundaries cost O(1) amortised:

* ``local_index`` — the flat slot array; each slot holds a particle index
  into the tile's SoA arrays or ``INVALID_PARTICLE_ID`` for a gap,
* ``bin_offsets`` — the start slot of every bin's region (length
  ``num_bins + 1``),
* ``bin_lengths`` — valid particles per bin,
* per-bin empty-slot stacks plus aggregate gap statistics, and
* rebuild bookkeeping (``was_rebuilt_this_step``, cumulative rebuild count).

Deleting a particle marks its slot invalid and pushes it onto its bin's
stack (O(1)).  Inserting first pops a gap from the target bin, then tries
to borrow the nearest gap from the following bin by shifting the elements
in between (bounded by the bin capacity), and finally falls back to a local
rebuild of the whole tile structure — exactly the three-level strategy of
§4.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import INVALID_PARTICLE_ID


@dataclass
class GPMAUpdateStats:
    """Work performed by a batch of GPMA updates (fed to the cost model)."""

    deletions: int = 0
    insertions: int = 0
    borrow_shifts: int = 0
    rebuilds: int = 0
    rebuild_elements: int = 0

    def merge(self, other: "GPMAUpdateStats") -> None:
        """Accumulate another batch's work into this one."""
        self.deletions += other.deletions
        self.insertions += other.insertions
        self.borrow_shifts += other.borrow_shifts
        self.rebuilds += other.rebuilds
        self.rebuild_elements += other.rebuild_elements


class GappedPMA:
    """Cell-sorted particle-index array with gaps for O(1) updates."""

    def __init__(self, num_bins: int, gap_fraction: float = 0.25,
                 min_gap_slots: int = 1):
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if not 0.0 <= gap_fraction < 1.0:
            raise ValueError("gap_fraction must lie in [0, 1)")
        self.num_bins = num_bins
        self.gap_fraction = gap_fraction
        self.min_gap_slots = max(int(min_gap_slots), 0)

        self.local_index = np.empty(0, dtype=np.int64)
        self.bin_offsets = np.zeros(num_bins + 1, dtype=np.int64)
        self.bin_lengths = np.zeros(num_bins, dtype=np.int64)
        self._empty_slots: Dict[int, List[int]] = {b: [] for b in range(num_bins)}
        #: bin assignment of every particle index currently stored
        self._particle_bin: Dict[int, int] = {}
        #: slot of every particle index currently stored
        self._particle_slot: Dict[int, int] = {}

        self.num_particles = 0
        self.num_empty_slots = 0
        self.was_rebuilt_this_step = False
        self.rebuild_count = 0
        self.overflow: List[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # construction / rebuild
    # ------------------------------------------------------------------
    def build(self, particle_bins: np.ndarray) -> GPMAUpdateStats:
        """(Re)build the structure from the bin of every particle index.

        ``particle_bins[i]`` is the bin (tile-local cell id) of particle
        ``i``.  Gaps of ``gap_fraction`` of each bin's population (at least
        ``min_gap_slots``) are appended to every bin region.
        """
        particle_bins = np.asarray(particle_bins, dtype=np.int64)
        if particle_bins.size and (
            particle_bins.min() < 0 or particle_bins.max() >= self.num_bins
        ):
            raise ValueError("particle bin out of range")

        counts = np.bincount(particle_bins, minlength=self.num_bins)
        gaps = np.maximum(
            np.ceil(counts * self.gap_fraction).astype(np.int64),
            self.min_gap_slots,
        )
        region_sizes = counts + gaps
        self.bin_offsets = np.zeros(self.num_bins + 1, dtype=np.int64)
        np.cumsum(region_sizes, out=self.bin_offsets[1:])
        capacity = int(self.bin_offsets[-1])

        self.local_index = np.full(capacity, INVALID_PARTICLE_ID, dtype=np.int64)
        self.bin_lengths = counts.astype(np.int64).copy()

        # place particles bin by bin, preserving their index order: the
        # particle of rank r within bin b lands on slot bin_offsets[b] + r
        order = np.argsort(particle_bins, kind="stable")
        sorted_bins = particle_bins[order]
        bin_starts = np.cumsum(counts) - counts
        slots = (self.bin_offsets[sorted_bins]
                 + np.arange(order.size) - bin_starts[sorted_bins])
        self.local_index[slots] = order
        particles = order.tolist()
        self._particle_bin = dict(zip(particles, sorted_bins.tolist()))
        self._particle_slot = dict(zip(particles, slots.tolist()))
        # the remaining slots of each region are gaps, pushed in reverse so
        # that pops hand out the lowest slots first
        gap_starts = (self.bin_offsets[:-1] + counts).tolist()
        self._empty_slots = {
            b: list(range(end - 1, start - 1, -1))
            for b, (start, end) in enumerate(
                zip(gap_starts, self.bin_offsets[1:].tolist()))
        }

        self.num_particles = int(particle_bins.size)
        self.num_empty_slots = capacity - self.num_particles
        self.overflow = []
        self.was_rebuilt_this_step = True
        self.rebuild_count += 1
        return GPMAUpdateStats(rebuilds=1, rebuild_elements=capacity)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total number of slots (valid + gaps)."""
        return int(self.local_index.shape[0])

    @property
    def empty_ratio(self) -> float:
        """Fraction of slots that are gaps."""
        if self.capacity == 0:
            return 0.0
        return self.num_empty_slots / self.capacity

    @property
    def fill_ratio(self) -> float:
        """Fraction of slots that hold particles."""
        return 1.0 - self.empty_ratio

    def bin_of(self, particle: int) -> Optional[int]:
        """Bin currently storing ``particle`` or None if absent."""
        return self._particle_bin.get(int(particle))

    def particles_in_bin(self, b: int) -> np.ndarray:
        """Particle indices stored in bin ``b`` (in slot order)."""
        if not 0 <= b < self.num_bins:
            raise IndexError(f"bin {b} out of range")
        region = self.local_index[self.bin_offsets[b]: self.bin_offsets[b + 1]]
        return region[region != INVALID_PARTICLE_ID]

    def iteration_order(self) -> np.ndarray:
        """All stored particle indices in cell-sorted order."""
        valid = self.local_index != INVALID_PARTICLE_ID
        return self.local_index[valid]

    def bin_population(self) -> np.ndarray:
        """Copy of the valid-particle count per bin."""
        return self.bin_lengths.copy()

    # ------------------------------------------------------------------
    # O(1) updates
    # ------------------------------------------------------------------
    def delete(self, particle: int) -> GPMAUpdateStats:
        """Remove a particle from its bin (O(1))."""
        particle = int(particle)
        if particle not in self._particle_slot:
            raise KeyError(f"particle {particle} is not stored in the GPMA")
        slot = self._particle_slot.pop(particle)
        b = self._particle_bin.pop(particle)
        self.local_index[slot] = INVALID_PARTICLE_ID
        self._empty_slots[b].append(slot)
        self.bin_lengths[b] -= 1
        self.num_particles -= 1
        self.num_empty_slots += 1
        return GPMAUpdateStats(deletions=1)

    def insert(self, particle: int, b: int) -> GPMAUpdateStats:
        """Insert a particle into bin ``b``.

        Strategy (paper §4.3.2): pop a gap of the bin itself, otherwise
        borrow the nearest gap from the next bin by shifting the elements in
        between, otherwise record the particle as overflow (the caller is
        expected to trigger a rebuild).
        """
        particle = int(particle)
        if not 0 <= b < self.num_bins:
            raise IndexError(f"bin {b} out of range")
        if particle in self._particle_slot:
            raise KeyError(f"particle {particle} is already stored")
        stats = GPMAUpdateStats(insertions=1)

        if self._empty_slots[b]:
            slot = self._empty_slots[b].pop()
            self._place(particle, b, slot)
            return stats

        shifts = self._borrow_from_next(particle, b)
        if shifts is not None:
            stats.borrow_shifts += shifts
            return stats

        self.overflow.append((particle, b))
        return stats

    def _place(self, particle: int, b: int, slot: int) -> None:
        self.local_index[slot] = particle
        self._particle_slot[particle] = slot
        self._particle_bin[particle] = b
        self.bin_lengths[b] += 1
        self.num_particles += 1
        self.num_empty_slots -= 1

    def _borrow_from_next(self, particle: int, b: int) -> Optional[int]:
        """Borrow a gap from bin ``b + 1``; returns the shift count or None."""
        nxt = b + 1
        if nxt >= self.num_bins or not self._empty_slots[nxt]:
            return None
        # take the lowest gap of the next bin so the shifted block is minimal
        gap_slot = min(self._empty_slots[nxt])
        self._empty_slots[nxt].remove(gap_slot)

        boundary = int(self.bin_offsets[nxt])
        # shift [boundary, gap_slot) one slot to the right
        shifted = 0
        for slot in range(gap_slot, boundary, -1):
            moved = self.local_index[slot - 1]
            self.local_index[slot] = moved
            if moved != INVALID_PARTICLE_ID:
                self._particle_slot[int(moved)] = slot
            shifted += 1
        # the boundary slot now belongs to bin b
        self.bin_offsets[nxt] += 1
        # gaps of the next bin that sat inside the shifted range move right
        self._empty_slots[nxt] = [
            s + 1 if boundary <= s < gap_slot else s for s in self._empty_slots[nxt]
        ]
        self._place(particle, b, boundary)
        return shifted

    # ------------------------------------------------------------------
    def needs_rebuild(self, empty_ratio_threshold: float = 0.02,
                      overflow_limit: int = 0) -> bool:
        """Whether the structure requires a local rebuild (paper triggers).

        A rebuild is mandatory when overflow particles exist, or optional
        when the gap reserve dropped below ``empty_ratio_threshold``.
        """
        if len(self.overflow) > overflow_limit:
            return True
        return self.empty_ratio < empty_ratio_threshold and self.num_particles > 0

    def reset_step_flags(self) -> None:
        """Clear the per-step rebuild flag (called once per timestep)."""
        self.was_rebuilt_this_step = False

    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping is inconsistent.

        Used by the test suite and by property-based tests; not called on
        the hot path.
        """
        valid = self.local_index != INVALID_PARTICLE_ID
        assert int(valid.sum()) == self.num_particles, "particle count mismatch"
        assert self.capacity - self.num_particles == self.num_empty_slots, \
            "empty-slot count mismatch"
        for b in range(self.num_bins):
            region = self.local_index[self.bin_offsets[b]: self.bin_offsets[b + 1]]
            stored = region[region != INVALID_PARTICLE_ID]
            assert stored.size == self.bin_lengths[b], f"bin {b} length mismatch"
            for particle in stored:
                assert self._particle_bin[int(particle)] == b, \
                    f"particle {particle} bin mismatch"
        for b, stack in self._empty_slots.items():
            for slot in stack:
                assert self.local_index[slot] == INVALID_PARTICLE_ID, \
                    f"slot {slot} on bin {b}'s stack is not empty"
                assert self.bin_offsets[b] <= slot < self.bin_offsets[b + 1], \
                    f"slot {slot} on bin {b}'s stack lies outside its region"
