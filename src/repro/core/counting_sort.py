"""Counting sort used by the global re-sorting step.

``GlobalSortParticlesByCell`` in the paper reorders a rank's particles by
cell index with a counting sort and rebuilds the GPMA structures.  The
helper here produces the permutation (and per-cell counts) for one tile;
:class:`repro.core.incremental_sort.IncrementalSorter` applies it to the
tile's SoA arrays and charges the corresponding work to the ``sort`` phase
of the kernel counters.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def counting_sort_permutation(cell_ids: np.ndarray, num_cells: int
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Stable counting-sort permutation of particles by cell id.

    Parameters
    ----------
    cell_ids:
        Tile-local cell id of every particle.
    num_cells:
        Number of cells in the tile (bins of the sort).

    Returns
    -------
    order:
        Permutation such that ``cell_ids[order]`` is non-decreasing and
        particles within a cell keep their relative order.
    counts:
        Number of particles per cell, length ``num_cells``.
    """
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    if num_cells <= 0:
        raise ValueError("num_cells must be positive")
    if cell_ids.size and (cell_ids.min() < 0 or cell_ids.max() >= num_cells):
        raise ValueError("cell id out of range for counting sort")

    counts = np.bincount(cell_ids, minlength=num_cells)
    # a stable sort keeps the storage order inside each cell, which is
    # exactly the placement order of the counting sort's second pass
    order = np.argsort(cell_ids, kind="stable")
    return order, counts.astype(np.int64)


def counting_sort_work(num_particles: int, num_cells: int) -> dict:
    """Instruction/byte estimate of one counting sort (for the cost model).

    The sort makes two passes over the particle indices (histogram and
    placement), one prefix sum over the cells, and — when the permutation is
    applied to the SoA data — moves every particle record once.
    """
    soa_bytes = float(num_particles) * 8.0 * 8.0  # 7 FP64 fields + id
    return {
        "scalar_ops": 4.0 * num_particles + 2.0 * num_cells,
        "vpu_mem": 2.0 * num_particles / 8.0,
        "bytes_near": 2.0 * num_particles * 8.0,
        "bytes_far": 2.0 * soa_bytes,  # gather old order, scatter new order
    }
