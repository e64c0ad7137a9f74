"""Node-major MPU contributions and rhocell sums against the per-pair oracle.

The per-tile contributions are computed for every particle at once in
``(S^3, n)`` layout and accumulated with one scatter pass per component.
These tests pin that reformulation against the per-pair outer-product
formulation and the particle-major accumulation kept in :mod:`oracles`:
the contributions hold the same values, and the rhocell buffers are
bitwise equal (compared through ``.view(np.int64)``, so signed zeros
count).  The node-major products keep the sign of an exact zero, which
the per-pair einsum dropped; a scatter sum starts from +0.0 and so never
returns -0.0, which is why the buffers agree bit for bit regardless.
"""

import numpy as np
import pytest

from oracles import (
    accumulate_particle_major,
    tile_contributions_cic_pairs,
    tile_contributions_qsp_pairs,
)
from repro.config import SHAPE_ORDER_CIC, SHAPE_ORDER_QSP, GridConfig
from repro.core.mpu_deposit import tile_contributions_cic, tile_contributions_qsp
from repro.core.rhocell import RhocellBuffer
from repro.pic.deposition.base import prepare_tile_data
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile

_CONTRIBUTIONS = {
    SHAPE_ORDER_CIC: (tile_contributions_cic, tile_contributions_cic_pairs),
    SHAPE_ORDER_QSP: (tile_contributions_qsp, tile_contributions_qsp_pairs),
}


def odd_run_tile(seed: int):
    """A 4^3-cell tile whose occupied cells hold 1, 3 or 5 particles.

    Cell size is 1, so a particle placed on an integer coordinate sits
    exactly on a node and gets an exactly-zero shape factor; about half
    the momenta are negative, which turns those products into -0.0.
    """
    config = GridConfig(n_cell=(4, 4, 4), hi=(4.0,) * 3, tile_size=(4, 4, 4))
    grid = Grid(config)
    rng = np.random.default_rng(seed)
    cells = rng.choice(64, size=20, replace=False)
    counts = rng.choice([1, 3, 5], size=cells.size)
    cell_of = np.repeat(cells, counts)
    n = cell_of.size
    frac = rng.uniform(0.0, 1.0, (n, 3))
    frac[rng.random((n, 3)) < 0.3] = 0.0          # on a node
    position = np.stack([cell_of // 16, (cell_of // 4) % 4, cell_of % 4],
                        axis=1) + frac
    momentum = rng.normal(0.0, 3.0e6, (n, 3))
    momentum[rng.random((n, 3)) < 0.1] = 0.0
    tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
    tile.append(x=position[:, 0], y=position[:, 1], z=position[:, 2],
                ux=momentum[:, 0], uy=momentum[:, 1], uz=momentum[:, 2],
                w=rng.uniform(0.5, 2.0, n))
    return grid, tile


def orderings(data, seed: int):
    cells = data.local_cell_ids
    n = cells.size
    return {
        "storage": np.arange(n, dtype=np.int64),
        "sorted": np.argsort(cells, kind="stable").astype(np.int64),
        "scrambled": np.random.default_rng(seed).permutation(n),
    }


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("order", [SHAPE_ORDER_CIC, SHAPE_ORDER_QSP])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contributions_and_rhocells_match_per_pair_oracle(order, seed):
    grid, tile = odd_run_tile(seed)
    data = prepare_tile_data(grid, tile, -1.602e-19, order)
    assert np.any(data.wqx < 0.0)
    compute, oracle = _CONTRIBUTIONS[order]
    signed_zero = False
    for name, order_idx in orderings(data, seed).items():
        *got, got_stats = compute(data, order_idx)
        *want, want_stats = oracle(data, order_idx)
        assert got_stats == want_stats, name
        for component, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.T.shape, name
            # equal values; the per-pair einsum turned -0.0 into +0.0, so
            # only exact zeros may differ in their sign bit
            nonzero = w.T != 0.0
            np.testing.assert_array_equal(g, w.T,
                                          err_msg=f"{name} {component}")
            np.testing.assert_array_equal(bits(g)[nonzero],
                                          bits(w.T)[nonzero])
            signed_zero |= bool(np.any(np.signbit(g) & (g == 0.0)))

        cells = data.local_cell_ids[order_idx]
        buffer = RhocellBuffer(tile.num_cells, order)
        buffer.accumulate(cells, *got)
        reference = RhocellBuffer(tile.num_cells, order)
        accumulate_particle_major(reference, cells, *want)
        for g, w in ((buffer.jx, reference.jx), (buffer.jy, reference.jy),
                     (buffer.jz, reference.jz)):
            np.testing.assert_array_equal(bits(g), bits(w), err_msg=name)
    assert signed_zero


def test_odd_run_tile_has_odd_runs():
    grid, tile = odd_run_tile(0)
    data = prepare_tile_data(grid, tile, 1.0, SHAPE_ORDER_QSP)
    counts = np.bincount(data.local_cell_ids, minlength=tile.num_cells)
    assert np.all(counts[counts > 0] % 2 == 1)

