"""Outer-product formulation of current deposition (paper §4.2.1).

The key idea of Matrix-PIC is that the ``S^3`` nodal contributions of a
particle factor into products of 1-D shape factors, which is exactly the
structure of a vector outer product:

* **CIC (order 1).**  For two particles ``p1, p2`` of the same cell the
  operands are ``A = [w_p1 s_x0, w_p1 s_x1, w_p2 s_x0, w_p2 s_x1]`` (one
  current component at a time) and
  ``B = [s_y0 s_z0, s_y1 s_z0, s_y0 s_z1, s_y1 s_z1`` for ``p1`` followed by
  the same four terms for ``p2]``.  The 4x8 outer product ``A (x) B`` then
  contains ``p1``'s eight nodal contributions in its upper-left 2x4 block
  and ``p2``'s in the lower-right 2x4 block; the cross blocks are ignored.
  Because the valid blocks of every pair occupy the same tile positions,
  the MPU tile register can stay resident and accumulate all pairs of a
  cell before being read out once — 16 useful values per MOPA instruction,
  25 % of the 8x8 tile.

* **QSP (order 3).**  The operands are ``A = [w_p1 s_x0..3, w_p2 s_x0..3]``
  and ``B = [s_y0..3(p1), s_y0..3(p2)]``; the 8x8 outer product holds each
  particle's 4x4 block of ``w s_x s_y`` products (50 % of the tile).  The
  remaining multiplication by the four ``s_z`` factors and the accumulation
  into the 64-entry rhocell is VPU work, so the tile is read back per pair.

Two families of functions are provided: *per-cell* routines that drive a
:class:`~repro.hardware.mpu.MatrixUnit` exactly as Algorithm 2 describes
(used by the unit tests and by the examples that illustrate the mapping),
and *per-tile batched* routines that compute the identical products for
every particle of a tile in one node-major ``(S^3, n)`` pass while charging
the instruction counts of the pairing (used by the deposition kernel,
where a Python loop over every pair would only measure interpreter
overhead).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.hardware.mpu import MatrixUnit
from repro.pic.deposition.base import TileDepositionData


# ---------------------------------------------------------------------------
# pairing of cell-sorted particles
# ---------------------------------------------------------------------------
def pair_within_runs(cell_sequence: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Pair consecutive particles that share a cell in the processing order.

    Parameters
    ----------
    cell_sequence:
        The cell id of each particle in the order the kernel processes them
        (GPMA order when sorted, storage order otherwise).

    Returns
    -------
    first, second:
        Indices (into the processing order) of each pair's two particles;
        ``second`` is ``-1`` for the unpaired tail of an odd-length run.
    pair_valid2:
        Boolean mask, True where the pair has a second particle.
    pair_cell:
        Cell id of each pair.
    num_runs:
        Number of maximal runs of equal consecutive cells.  For a perfectly
        sorted sequence this equals the number of occupied cells; for an
        unsorted sequence it approaches the particle count, which is what
        makes the no-sort configurations pay for extra tile flushes.
    """
    cell_sequence = np.asarray(cell_sequence, dtype=np.int64)
    n = cell_sequence.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=bool), empty, 0

    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = cell_sequence[1:] != cell_sequence[:-1]
    run_id = np.cumsum(change) - 1
    num_runs = int(run_id[-1]) + 1
    run_start = np.nonzero(change)[0]
    pos_in_run = np.arange(n) - run_start[run_id]

    first = np.nonzero(pos_in_run % 2 == 0)[0]
    second = first + 1
    valid2 = (second < n)
    valid2[valid2] &= run_id[second[valid2]] == run_id[first[valid2]]
    second = np.where(valid2, second, -1)
    pair_cell = cell_sequence[first]
    return first, second, valid2, pair_cell, num_runs


# ---------------------------------------------------------------------------
# operand construction
# ---------------------------------------------------------------------------
def build_cic_operands(wx: np.ndarray, wy: np.ndarray, wz: np.ndarray,
                       wq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CIC MPU operands for a *pair* of particles and one current component.

    ``wx``/``wy``/``wz`` have shape ``(2, 2)`` (two particles, two 1-D shape
    factors each) and ``wq`` shape ``(2,)``.  Unused second-particle slots
    can simply be passed as zeros.  Returns ``A`` of length 4 and ``B`` of
    length 8.
    """
    wx = np.asarray(wx, dtype=np.float64).reshape(2, 2)
    wy = np.asarray(wy, dtype=np.float64).reshape(2, 2)
    wz = np.asarray(wz, dtype=np.float64).reshape(2, 2)
    wq = np.asarray(wq, dtype=np.float64).reshape(2)

    a = np.concatenate([wq[0] * wx[0], wq[1] * wx[1]])
    # b packs s_y,j * s_z,k with k varying slowest, matching the row-major
    # flattening of the rhocell (j fastest within a z-plane)
    b1 = np.concatenate([wy[0] * wz[0, 0], wy[0] * wz[0, 1]])
    b2 = np.concatenate([wy[1] * wz[1, 0], wy[1] * wz[1, 1]])
    return a, np.concatenate([b1, b2])


def build_qsp_operands(wx: np.ndarray, wy: np.ndarray, wq: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """QSP MPU operands for a pair of particles and one current component.

    ``wx``/``wy`` have shape ``(2, 4)`` and ``wq`` shape ``(2,)``.  Returns
    ``A`` and ``B`` both of length 8.
    """
    wx = np.asarray(wx, dtype=np.float64).reshape(2, 4)
    wy = np.asarray(wy, dtype=np.float64).reshape(2, 4)
    wq = np.asarray(wq, dtype=np.float64).reshape(2)
    a = np.concatenate([wq[0] * wx[0], wq[1] * wx[1]])
    b = np.concatenate([wy[0], wy[1]])
    return a, b


# ---------------------------------------------------------------------------
# per-cell reference paths (Algorithm 2, driven through the MatrixUnit)
# ---------------------------------------------------------------------------
def deposit_cell_cic_mpu(mpu: MatrixUnit, wx: np.ndarray, wy: np.ndarray,
                         wz: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Nodal CIC contributions of one cell's particles via MOPA instructions.

    ``wx, wy, wz`` have shape ``(n, 2)`` and ``wq`` shape ``(n,)`` for the
    ``n`` particles of the cell and one current component.  Returns the 8
    accumulated rhocell entries of the cell, ordered ``(i, j, k)`` row-major
    (x slowest).
    """
    wx = np.atleast_2d(np.asarray(wx, dtype=np.float64))
    wy = np.atleast_2d(np.asarray(wy, dtype=np.float64))
    wz = np.atleast_2d(np.asarray(wz, dtype=np.float64))
    wq = np.atleast_1d(np.asarray(wq, dtype=np.float64))
    n = wx.shape[0]

    mpu.zero_tile()
    for start in range(0, n, 2):
        pair = slice(start, min(start + 2, n))
        pwx = np.zeros((2, 2))
        pwy = np.zeros((2, 2))
        pwz = np.zeros((2, 2))
        pwq = np.zeros(2)
        count = pair.stop - pair.start
        pwx[:count] = wx[pair]
        pwy[:count] = wy[pair]
        pwz[:count] = wz[pair]
        pwq[:count] = wq[pair]
        a, b = build_cic_operands(pwx, pwy, pwz, pwq)
        mpu.mopa(a, b)

    tile = mpu.read_tile(4, 8)
    # p1 contributions: rows 0-1 x cols 0-3; p2: rows 2-3 x cols 4-7.  Both
    # blocks are (s_x_i) x (s_y_j s_z_k) with j fastest, k next; summing the
    # two blocks yields the cell's accumulated values.
    block = tile[0:2, 0:4] + tile[2:4, 4:8]
    # reorder (i, [j + 2k]) -> flat (i, j, k) row-major
    contrib = np.empty(8)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                contrib[(i * 2 + j) * 2 + k] = block[i, j + 2 * k]
    return contrib


def deposit_cell_qsp_mpu(mpu: MatrixUnit, wx: np.ndarray, wy: np.ndarray,
                         wz: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Nodal QSP contributions of one cell's particles via MOPA instructions.

    Shapes: ``wx, wy, wz`` are ``(n, 4)``, ``wq`` is ``(n,)``.  Returns the
    64 accumulated rhocell entries of the cell, ``(i, j, k)`` row-major.
    """
    wx = np.atleast_2d(np.asarray(wx, dtype=np.float64))
    wy = np.atleast_2d(np.asarray(wy, dtype=np.float64))
    wz = np.atleast_2d(np.asarray(wz, dtype=np.float64))
    wq = np.atleast_1d(np.asarray(wq, dtype=np.float64))
    n = wx.shape[0]

    contrib = np.zeros(64)
    for start in range(0, n, 2):
        pair = slice(start, min(start + 2, n))
        count = pair.stop - pair.start
        pwx = np.zeros((2, 4))
        pwy = np.zeros((2, 4))
        pwz = np.zeros((2, 4))
        pwq = np.zeros(2)
        pwx[:count] = wx[pair]
        pwy[:count] = wy[pair]
        pwz[:count] = wz[pair]
        pwq[:count] = wq[pair]

        mpu.zero_tile()
        a, b = build_qsp_operands(pwx, pwy, pwq)
        mpu.mopa(a, b)
        tile = mpu.read_tile(8, 8)
        # per-particle 4x4 blocks of w * s_x_i * s_y_j
        for p in range(count):
            block = tile[4 * p: 4 * p + 4, 4 * p: 4 * p + 4]
            # VPU stage: multiply by the particle's four s_z factors and
            # accumulate into the 64-entry layout (i, j, k) row-major
            contrib += np.einsum("ij,k->ijk", block, pwz[p]).reshape(64)
    return contrib


# ---------------------------------------------------------------------------
# per-tile batched paths (identical arithmetic, vectorised)
# ---------------------------------------------------------------------------
# An exact-zero product may come out as -0.0; the rhocell sums start at
# +0.0, which absorbs the sign, so the accumulated currents do not see it.
def _node_major_factors(data: TileDepositionData, order_idx: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x/y/z shape factors as ``(S, n)`` arrays in processing order."""
    sx, sy, sz = (np.ascontiguousarray(w[order_idx].T)
                  for w in (data.wx, data.wy, data.wz))
    return sx, sy, sz


def tile_contributions_cic(data: TileDepositionData, order_idx: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Per-particle CIC nodal contributions of a tile, node-major.

    ``order_idx`` is the processing order (e.g. the GPMA iteration order).
    Returns three ``(8, n)`` arrays — one per current component, row
    ``(i * 2 + j) * 2 + k`` holding node ``(i, j, k)`` and columns in
    processing order — plus a dictionary of MPU work statistics
    (``mopa`` instructions per component, ``tile_flushes``, ``runs``).

    Every entry is the value the pair's 4x8 MOPA places in the particle's
    valid block: the A operand ``wq s_x_i`` times the B operand
    ``s_y_j s_z_k``, so pairing only decides the instruction counts.
    """
    first, _, _, _, num_runs = pair_within_runs(data.local_cell_ids[order_idx])
    n = order_idx.shape[0]
    sx, sy, sz = _node_major_factors(data, order_idx)
    # B operand per particle: s_y_j * s_z_k, shape (j, k, n)
    syz = sy[:, None, :] * sz[None, :, :]

    results = []
    for wq in (data.wqx[order_idx], data.wqy[order_idx], data.wqz[order_idx]):
        a = wq * sx                                     # A operand, (i, n)
        results.append((a[:, None, None, :] * syz[None]).reshape(8, n))

    # work statistics are reported *per current component*; the hybrid
    # kernel multiplies by three when charging the counters
    stats = {"mopa": float(first.shape[0]), "tile_flushes": float(num_runs),
             "runs": float(num_runs)}
    return results[0], results[1], results[2], stats


def tile_contributions_qsp(data: TileDepositionData, order_idx: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Per-particle QSP nodal contributions of a tile, node-major.

    Returns three ``(64, n)`` arrays (row ``(i * 4 + j) * 4 + k`` holds
    node ``(i, j, k)``, columns in processing order) plus MPU/VPU work
    statistics (``mopa``, ``tile_flushes``, ``vpu_sz_fma`` — the Stage-2
    VPU multiply-accumulate by the s_z factors).

    Every entry is ``((wq s_x_i) s_y_j) s_z_k``: the particle's 4x4 block
    of the pair's 8x8 MOPA, then the VPU multiply by its s_z factor.
    """
    first, _, _, _, num_runs = pair_within_runs(data.local_cell_ids[order_idx])
    n = order_idx.shape[0]
    npairs = first.shape[0]
    sx, sy, sz = _node_major_factors(data, order_idx)

    results = []
    for wq in (data.wqx[order_idx], data.wqy[order_idx], data.wqz[order_idx]):
        a = wq * sx                                     # A operand, (i, n)
        sxy = a[:, None, :] * sy[None, :, :]            # MOPA block, (i, j, n)
        results.append((sxy[:, :, None, :] * sz[None, None]).reshape(64, n))

    # per-component work statistics (the hybrid kernel multiplies by three)
    stats = {
        "mopa": float(npairs),
        # the tile cannot stay resident across pairs for QSP (the s_z
        # multiply differs per particle), so it is read back per pair
        "tile_flushes": float(npairs + num_runs),
        "runs": float(num_runs),
        "vpu_sz_fma": float(n * 64) / 8.0,
    }
    return results[0], results[1], results[2], stats
