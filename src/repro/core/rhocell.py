"""Per-cell rhocell accumulators used by the MPU deposition pipeline.

The rhocell layout (Equation 4 of the paper) stores, for every cell of a
tile and every current component, the ``S^3`` nodal contributions of the
cell's particles contiguously — 8 entries per cell for CIC, 64 for QSP —
so that the deposition never touches the global grid until the final
O(N_cells) reduction (Equation 5).

:class:`RhocellBuffer` owns the three component arrays for one tile and
wraps the reduction; the accumulation itself is performed by the MPU
kernel (:mod:`repro.core.mpu_deposit`) or, for the VPU baselines, by
:func:`repro.pic.deposition.rhocell.accumulate_rhocells`.
"""

from __future__ import annotations

import numpy as np

from repro.pic.deposition.rhocell import reduce_rhocells_to_grid
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.shapes import shape_support
from repro.pic.stencil import scatter_flat


class RhocellBuffer:
    """The (num_cells, S^3) accumulators of one tile, one per component."""

    def __init__(self, num_cells: int, order: int):
        if order == 2:
            raise ValueError("the rhocell layout supports orders 1 and 3 only")
        if num_cells <= 0:
            raise ValueError("num_cells must be positive")
        self.order = order
        self.num_cells = num_cells
        self.nodes_per_cell = shape_support(order) ** 3
        shape = (num_cells, self.nodes_per_cell)
        self.jx = np.zeros(shape)
        self.jy = np.zeros(shape)
        self.jz = np.zeros(shape)

    # ------------------------------------------------------------------
    def zero(self) -> None:
        """Clear the accumulators (called once per tile per step)."""
        self.jx.fill(0.0)
        self.jy.fill(0.0)
        self.jz.fill(0.0)

    def accumulate(self, cell_ids: np.ndarray, contrib_x: np.ndarray,
                   contrib_y: np.ndarray, contrib_z: np.ndarray) -> None:
        """Scatter-add per-particle nodal contributions into their cells.

        ``contrib_*`` are node-major, shape ``(nodes_per_cell, n)``: column
        ``p`` holds the contributions of the particle in cell
        ``cell_ids[p]``.  Each component is one flat scatter pass over
        node-major block ids, so every ``(cell, node)`` entry still sums
        its particles in column order.
        """
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        nodes = self.nodes_per_cell
        if contrib_x.shape != (nodes, cell_ids.shape[0]):
            raise ValueError(
                f"contribution shape {contrib_x.shape} does not match "
                f"({nodes}, {cell_ids.shape[0]})"
            )
        block_ids = (np.arange(nodes, dtype=np.int64)[:, None]
                     + cell_ids[None, :] * nodes)
        scatter_flat(block_ids, np.asarray(contrib_x), self.jx)
        scatter_flat(block_ids, np.asarray(contrib_y), self.jy)
        scatter_flat(block_ids, np.asarray(contrib_z), self.jz)

    def accumulate_cell(self, cell: int, contrib_x: np.ndarray,
                        contrib_y: np.ndarray, contrib_z: np.ndarray) -> None:
        """Add one cell's flattened nodal contributions (Equation 6)."""
        if not 0 <= cell < self.num_cells:
            raise IndexError(f"cell {cell} out of range")
        self.jx[cell] += np.asarray(contrib_x).reshape(self.nodes_per_cell)
        self.jy[cell] += np.asarray(contrib_y).reshape(self.nodes_per_cell)
        self.jz[cell] += np.asarray(contrib_z).reshape(self.nodes_per_cell)

    def reduce_to_grid(self, grid: Grid, tile: ParticleTile) -> None:
        """Equation-5 reduction of the buffers into the global grid."""
        reduce_rhocells_to_grid(grid, tile, self.order, self.jx, self.jy, self.jz)

    def occupied_cells(self) -> np.ndarray:
        """Indices of cells that received any contribution."""
        occupied = (np.abs(self.jx).sum(axis=1)
                    + np.abs(self.jy).sum(axis=1)
                    + np.abs(self.jz).sum(axis=1)) > 0.0
        return np.nonzero(occupied)[0]
