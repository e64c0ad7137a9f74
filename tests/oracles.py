"""Loop-based reference formulations of the vectorised MatrixPIC paths.

The library computes the counting-sort permutation, the GPMA placement,
the per-tile MPU contributions and the rhocell accumulation in bulk
array passes.  The functions here are the earlier per-particle and
per-pair formulations of the same arithmetic, kept only as oracles: the
tests assert that the library reproduces them bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import INVALID_PARTICLE_ID
from repro.core.gpma import GappedPMA
from repro.core.mpu_deposit import pair_within_runs
from repro.core.rhocell import RhocellBuffer
from repro.pic.deposition.base import TileDepositionData
from repro.pic.stencil import cell_block_ids, scatter_flat


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------
def counting_sort_loop(cell_ids: np.ndarray, num_cells: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Counting sort placing one particle at a time in storage order."""
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    counts = np.bincount(cell_ids, minlength=num_cells)
    starts = np.zeros(num_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    order = np.empty(cell_ids.size, dtype=np.int64)
    cursor = starts[:-1].copy()
    for i, cell in enumerate(cell_ids):
        order[cursor[cell]] = i
        cursor[cell] += 1
    return order, counts.astype(np.int64)


def gpma_build_loop(num_bins: int, gap_fraction: float, min_gap_slots: int,
                    particle_bins: np.ndarray) -> GappedPMA:
    """A GPMA filled by placing one particle and one gap stack at a time."""
    gpma = GappedPMA(num_bins, gap_fraction=gap_fraction,
                     min_gap_slots=min_gap_slots)
    particle_bins = np.asarray(particle_bins, dtype=np.int64)
    counts = np.bincount(particle_bins, minlength=num_bins)
    gaps = np.maximum(np.ceil(counts * gap_fraction).astype(np.int64),
                      gpma.min_gap_slots)
    gpma.bin_offsets = np.zeros(num_bins + 1, dtype=np.int64)
    np.cumsum(counts + gaps, out=gpma.bin_offsets[1:])
    capacity = int(gpma.bin_offsets[-1])
    gpma.local_index = np.full(capacity, INVALID_PARTICLE_ID, dtype=np.int64)
    gpma.bin_lengths = counts.astype(np.int64).copy()
    gpma._particle_bin = {}
    gpma._particle_slot = {}

    order = np.argsort(particle_bins, kind="stable")
    fill_cursor = gpma.bin_offsets[:-1].copy()
    for particle in order:
        b = int(particle_bins[particle])
        slot = int(fill_cursor[b])
        gpma.local_index[slot] = particle
        gpma._particle_bin[int(particle)] = b
        gpma._particle_slot[int(particle)] = slot
        fill_cursor[b] += 1
    gpma._empty_slots = {}
    for b in range(num_bins):
        start = int(fill_cursor[b])
        end = int(gpma.bin_offsets[b + 1])
        gpma._empty_slots[b] = list(range(end - 1, start - 1, -1))

    gpma.num_particles = int(particle_bins.size)
    gpma.num_empty_slots = capacity - gpma.num_particles
    gpma.was_rebuilt_this_step = True
    gpma.rebuild_count = 1
    return gpma


# ---------------------------------------------------------------------------
# MPU contributions and rhocell accumulation
# ---------------------------------------------------------------------------
def _reorder_cic_block(block: np.ndarray) -> np.ndarray:
    """Reorder a (m, 2, 4) outer-product block to the (i, j, k) layout."""
    m = block.shape[0]
    reordered = np.empty((m, 2, 2, 2))
    reordered[:, :, 0, 0] = block[:, :, 0]
    reordered[:, :, 1, 0] = block[:, :, 1]
    reordered[:, :, 0, 1] = block[:, :, 2]
    reordered[:, :, 1, 1] = block[:, :, 3]
    return reordered.reshape(m, 8)


def tile_contributions_cic_pairs(data: TileDepositionData,
                                 order_idx: np.ndarray):
    """Particle-major ``(n, 8)`` CIC contributions from one 4x8 MOPA per pair."""
    cells = data.local_cell_ids[order_idx]
    first, second, valid2, _, num_runs = pair_within_runs(cells)
    n = order_idx.shape[0]
    npairs = first.shape[0]
    wx = data.wx[order_idx]
    wy = data.wy[order_idx]
    wz = data.wz[order_idx]
    b_particle = np.einsum("pk,pj->pkj", wz, wy).reshape(n, 4)

    results = []
    stats = {"mopa": float(npairs), "tile_flushes": float(num_runs),
             "runs": float(num_runs)}
    for wq_all in (data.wqx[order_idx], data.wqy[order_idx],
                   data.wqz[order_idx]):
        a_ops = np.zeros((npairs, 4))
        b_ops = np.zeros((npairs, 8))
        a_ops[:, 0:2] = wq_all[first, None] * wx[first]
        b_ops[:, 0:4] = b_particle[first]
        sec = second[valid2]
        a_ops[valid2, 2:4] = wq_all[sec, None] * wx[sec]
        b_ops[valid2, 4:8] = b_particle[sec]
        tiles = np.einsum("pi,pj->pij", a_ops, b_ops)
        per_particle = np.zeros((n, 8))
        per_particle[first] = _reorder_cic_block(tiles[:, 0:2, 0:4])
        per_particle[sec] = _reorder_cic_block(tiles[:, 2:4, 4:8][valid2])
        results.append(per_particle)
    return results[0], results[1], results[2], stats


def tile_contributions_qsp_pairs(data: TileDepositionData,
                                 order_idx: np.ndarray):
    """Particle-major ``(n, 64)`` QSP contributions from one 8x8 MOPA per pair."""
    cells = data.local_cell_ids[order_idx]
    first, second, valid2, _, num_runs = pair_within_runs(cells)
    n = order_idx.shape[0]
    npairs = first.shape[0]
    wx = data.wx[order_idx]
    wy = data.wy[order_idx]
    wz = data.wz[order_idx]

    results = []
    stats = {
        "mopa": float(npairs),
        "tile_flushes": float(npairs + num_runs),
        "runs": float(num_runs),
        "vpu_sz_fma": float(n * 64) / 8.0,
    }
    for wq_all in (data.wqx[order_idx], data.wqy[order_idx],
                   data.wqz[order_idx]):
        sxy_first = np.einsum("pi,pj->pij", wq_all[first, None] * wx[first],
                              wy[first])
        per_particle = np.zeros((n, 64))
        per_particle[first] = np.einsum(
            "pij,pk->pijk", sxy_first, wz[first]).reshape(npairs, 64)
        sec = second[valid2]
        if sec.size:
            sxy_sec = np.einsum("pi,pj->pij", wq_all[sec, None] * wx[sec],
                                wy[sec])
            per_particle[sec] = np.einsum(
                "pij,pk->pijk", sxy_sec, wz[sec]).reshape(sec.size, 64)
        results.append(per_particle)
    return results[0], results[1], results[2], stats


def accumulate_particle_major(buffer: RhocellBuffer, cell_ids: np.ndarray,
                              contrib_x: np.ndarray, contrib_y: np.ndarray,
                              contrib_z: np.ndarray) -> None:
    """Rhocell accumulation of ``(n, nodes)`` contributions, particle-major."""
    block_ids = cell_block_ids(np.asarray(cell_ids, dtype=np.int64),
                               buffer.nodes_per_cell)
    scatter_flat(block_ids, contrib_x, buffer.jx)
    scatter_flat(block_ids, contrib_y, buffer.jy)
    scatter_flat(block_ids, contrib_z, buffer.jz)
