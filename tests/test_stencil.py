"""Property and regression suite for the flat-index stencil engine.

The engine (:mod:`repro.pic.stencil`) replaces every ``np.add.at`` stencil
loop with single-pass ``np.bincount`` accumulation.  These tests pin it
against an ``np.add.at`` oracle (the historical triple-loop formulation)
over random positions — including periodic-wrap indices, clamped open
boundaries, far out-of-domain fallback positions and empty batches — and
assert that the executor backends remain bitwise identical through the
new path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import BackendConfig, kernel_registry, use_backend
from repro.config import GridConfig
from repro.exec import (
    ProcessShardExecutor,
    SerialExecutor,
    ThreadTileExecutor,
)
from repro.core.rhocell import RhocellBuffer
from repro.hardware.vpu import VectorUnit
from repro.pic.deposition.reference import (
    deposit_reference,
    deposit_rho_reference,
)
from repro.pic.grid import ScratchGridPool, scratch_grids
from repro.pic.shapes import shape_factors, shape_support
from repro.pic.stencil import (
    StencilOperator,
    cell_block_ids,
    flat_node_ids,
    scatter_flat,
    wrap_axis_indices,
)

from helpers import make_plasma


# ----------------------------------------------------------------------
# the np.add.at oracle (the historical formulation, kept only here)
# ----------------------------------------------------------------------
def oracle_scatter(shape, periodic, xi, yi, zi, order, amplitude):
    """Triple-loop np.add.at scatter — the reference the engine replaced."""
    out = np.zeros(shape)
    bx, wx = shape_factors(xi, order)
    by, wy = shape_factors(yi, order)
    bz, wz = shape_factors(zi, order)
    support = shape_support(order)
    for i in range(support):
        gx = wrap_axis_indices(bx + i, shape[0], periodic[0])
        for j in range(support):
            gy = wrap_axis_indices(by + j, shape[1], periodic[1])
            wij = wx[:, i] * wy[:, j]
            for k in range(support):
                gz = wrap_axis_indices(bz + k, shape[2], periodic[2])
                # product association matches the historical kernel
                # (w = wij * wz, then amplitude * w), so single-contribution
                # nodes are bitwise identical to the engine
                np.add.at(out, (gx, gy, gz), amplitude * (wij * wz[:, k]))
    return out


def oracle_gather(shape, periodic, field, xi, yi, zi, order):
    """Triple-loop gather — the adjoint oracle."""
    bx, wx = shape_factors(xi, order)
    by, wy = shape_factors(yi, order)
    bz, wz = shape_factors(zi, order)
    support = shape_support(order)
    result = np.zeros(xi.shape[0])
    for i in range(support):
        gx = wrap_axis_indices(bx + i, shape[0], periodic[0])
        for j in range(support):
            gy = wrap_axis_indices(by + j, shape[1], periodic[1])
            wij = wx[:, i] * wy[:, j]
            for k in range(support):
                gz = wrap_axis_indices(bz + k, shape[2], periodic[2])
                result += wij * wz[:, k] * field[gx, gy, gz]
    return result


def _random_batch(rng, shape, n, out_of_domain=False):
    """Grid-normalised positions; optionally far outside the domain."""
    lo, hi = (-1.5 * max(shape), 2.5 * max(shape)) if out_of_domain \
        else (0.0, 1.0)
    xi = rng.uniform(lo, hi if out_of_domain else shape[0], n)
    yi = rng.uniform(lo, hi if out_of_domain else shape[1], n)
    zi = rng.uniform(lo, hi if out_of_domain else shape[2], n)
    amplitude = rng.normal(0.0, 1.0, n)
    return xi, yi, zi, amplitude


_shapes = st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7))
_periodics = st.tuples(st.booleans(), st.booleans(), st.booleans())


class TestScatterProperty:
    @settings(max_examples=40, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 120),
           seed=st.integers(0, 2**31), out_of_domain=st.booleans())
    def test_matches_addat_oracle(self, shape, periodic, order, n, seed,
                                  out_of_domain):
        """Element-wise equality with the oracle within ulp-scale bounds,
        over periodic wraps, clamped boundaries, out-of-domain fallback
        positions and empty batches."""
        rng = np.random.default_rng(seed)
        xi, yi, zi, amplitude = _random_batch(rng, shape, n, out_of_domain)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        op = StencilOperator.for_box(shape, periodic, xi, yi, zi, order)
        op.scatter(amplitude, out)
        # ulp-scale bound per node: reassociating a node's sum errs by at
        # most ~K*eps relative to its positive-mass bound (the same sum
        # with |amplitude|), which stays meaningful under cancellation
        bound = oracle_scatter(shape, periodic, xi, yi, zi, order,
                               np.abs(amplitude))
        tol = 64 * np.finfo(float).eps * (bound + bound.max())
        np.testing.assert_array_less(np.abs(out - expected), tol + 1e-300)
        # conservation: the engine deposits exactly the oracle's total mass
        # (each particle's weights sum to 1 along every axis)
        np.testing.assert_allclose(out.sum(), amplitude.sum(), rtol=1e-12,
                                   atol=1e-12 * (np.abs(amplitude).sum() or 1))

    @settings(max_examples=40, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 120),
           seed=st.integers(0, 2**31))
    def test_gather_matches_oracle(self, shape, periodic, order, n, seed):
        rng = np.random.default_rng(seed)
        xi, yi, zi, _ = _random_batch(rng, shape, n)
        field = rng.normal(0.0, 1.0, shape)
        expected = oracle_gather(shape, periodic, field, xi, yi, zi, order)
        got = StencilOperator.for_box(shape, periodic, xi, yi, zi,
                                      order).gather(field)
        bound = oracle_gather(shape, periodic, np.abs(field), xi, yi, zi,
                              order)
        tol = 64 * np.finfo(float).eps * (bound + (bound.max() if n else 0.0))
        np.testing.assert_array_less(np.abs(got - expected), tol + 1e-300)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [(True, True, True),
                                          (False, False, False)])
    def test_single_interior_particle_is_exact(self, order, periodic):
        """With one interior particle every node receives exactly one
        contribution, so the summation order is unchanged and the engine
        must equal the oracle bitwise."""
        shape = (8, 8, 8)
        xi = np.array([3.37]); yi = np.array([4.81]); zi = np.array([2.06])
        amplitude = np.array([0.731])
        expected = oracle_scatter(shape, periodic, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        StencilOperator.for_box(shape, periodic, xi, yi, zi,
                                order).scatter(amplitude, out)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("order", [1, 3])
    def test_periodic_wrap_at_domain_edge(self, order):
        """A particle whose stencil straddles the upper corner wraps."""
        shape = (4, 4, 4)
        xi = np.array([3.75]); yi = np.array([3.75]); zi = np.array([3.75])
        amplitude = np.array([1.0])
        expected = oracle_scatter(shape, (True,) * 3, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        StencilOperator.for_box(shape, (True,) * 3, xi, yi, zi,
                                order).scatter(amplitude, out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        assert out[0].sum() > 0.0  # weight really crossed the boundary

    def test_clamped_boundary_accumulates_on_edge_plane(self):
        """On an open axis the out-of-range stencil nodes clamp to the
        boundary plane instead of wrapping."""
        shape = (4, 4, 4)
        xi = np.array([0.05]); yi = np.array([2.0]); zi = np.array([2.0])
        amplitude = np.array([1.0])
        periodic = (False, True, True)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, 3, amplitude)
        out = np.zeros(shape)
        StencilOperator.for_box(shape, periodic, xi, yi, zi, 3).scatter(
            amplitude, out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        assert out[-1].sum() == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("periodic", [(True, True, True),
                                          (False, True, False)])
    def test_axis_shorter_than_support_wraps_exactly(self, periodic):
        """Regression: a periodic axis shorter than the stencil support
        must wrap overhanging segments by as many periods as needed —
        the box decomposition emits one segment per period crossed."""
        rng = np.random.default_rng(1)
        shape = (2, 3, 2)
        n = 60
        xi = rng.uniform(-1.2, shape[0] + 1.2, n)
        yi = rng.uniform(-1.2, shape[1] + 1.2, n)
        zi = rng.uniform(-1.2, shape[2] + 1.2, n)
        amplitude = rng.normal(size=n)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, 3, amplitude)
        op = StencilOperator.for_box(shape, periodic, xi, yi, zi, 3)
        assert op.box_dims is not None  # the fast path must handle this
        out = np.zeros(shape)
        op.scatter(amplitude, out)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        field = rng.normal(size=shape)
        np.testing.assert_allclose(
            op.gather(field),
            oracle_gather(shape, periodic, field, xi, yi, zi, 3),
            rtol=1e-12, atol=1e-12)

    def test_empty_batch_is_noop(self):
        out = np.zeros((4, 4, 4))
        op = StencilOperator.for_box((4, 4, 4), (True,) * 3, np.empty(0),
                                     np.empty(0), np.empty(0), 1)
        op.scatter(np.empty(0), out)
        assert not out.any()
        assert op.gather(out).shape == (0,)

    def test_gather_many_shares_one_stencil(self):
        rng = np.random.default_rng(7)
        shape = (6, 6, 6)
        xi, yi, zi, _ = _random_batch(rng, shape, 50)
        fields = [rng.normal(size=shape) for _ in range(6)]
        op = StencilOperator.for_box(shape, (True,) * 3, xi, yi, zi, 3)
        got = op.gather_many(fields)
        assert len(got) == 6
        for field, values in zip(fields, got):
            expected = oracle_gather(shape, (True,) * 3, field, xi, yi, zi, 3)
            np.testing.assert_allclose(values, expected, rtol=1e-13,
                                       atol=1e-13)


class TestFlatIds:
    def test_flat_ids_match_padded_fast_path(self):
        """The reference wrapped-space ids and the padded fast path must
        address the same nodes (checked through a scatter of ones)."""
        rng = np.random.default_rng(11)
        shape = (5, 6, 7)
        for periodic in [(True,) * 3, (False, True, False)]:
            xi, yi, zi, _ = _random_batch(rng, shape, 80)
            bx, _ = shape_factors(xi, 3)
            by, _ = shape_factors(yi, 3)
            bz, _ = shape_factors(zi, 3)
            ids = flat_node_ids(shape, periodic, bx, by, bz, 4)
            ref = np.zeros(shape)
            scatter_flat(ids, np.ones_like(ids, dtype=float), ref)
            out = np.zeros(shape)
            op = StencilOperator.from_bases(shape, periodic, bx, by, bz, 4)
            assert op.box_dims is not None  # fast path engaged
            op.scatter_values(np.ones(op.flat_ids.shape), out)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_out_of_range_bases_fall_back(self):
        op = StencilOperator.from_bases((4, 4, 4), (True,) * 3,
                                        np.array([97]), np.array([0]),
                                        np.array([0]), 2)
        assert op.box_dims is None  # exact wrapped-space fallback
        out = np.zeros((4, 4, 4))
        op.scatter_values(np.ones((1, 8)), out)
        assert out.sum() == pytest.approx(8.0)

    def test_cell_block_ids_layout(self):
        ids = cell_block_ids(np.array([2, 0]), 4)
        assert ids.tolist() == [[8, 9, 10, 11], [0, 1, 2, 3]]


class TestConsumers:
    def test_rhocell_buffer_accumulate_matches_addat(self):
        rng = np.random.default_rng(3)
        n, cells, nodes = 40, 6, 8
        cell_ids = rng.integers(0, cells, n)
        cx = rng.normal(size=(n, nodes))
        cy = rng.normal(size=(n, nodes))
        cz = rng.normal(size=(n, nodes))
        buf = RhocellBuffer(cells, order=1)
        buf.accumulate(cell_ids, cx.T, cy.T, cz.T)  # node-major input
        for got, contrib in ((buf.jx, cx), (buf.jy, cy), (buf.jz, cz)):
            expected = np.zeros((cells, nodes))
            np.add.at(expected, cell_ids, contrib)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    def test_vpu_scatter_add_matches_addat(self):
        vpu = VectorUnit()
        target = np.zeros(16)
        indices = np.array([3, 3, 3, 9, 0])
        values = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        vpu.scatter_add(target, indices, values)
        expected = np.zeros(16)
        np.add.at(expected, indices, values)
        np.testing.assert_allclose(target, expected)

    def test_vpu_scatter_add_broadcasts_scalar(self):
        vpu = VectorUnit()
        target = np.zeros(8)
        vpu.scatter_add(target, np.array([1, 1, 5]), 2.0)
        assert target[1] == pytest.approx(4.0)
        assert target[5] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# kernel-tier parity (repro.backend): every *available* registered tier
# must reproduce the oracle — the fused tier bitwise.  In a no-numba
# environment only the oracle tier is available and these parametrize
# down to it; the CI [jit] leg runs them with the fused tier too.
# ----------------------------------------------------------------------
AVAILABLE_TIERS = kernel_registry.available_tier_names()


class TestKernelTierParity:
    @pytest.mark.parametrize("tier", AVAILABLE_TIERS)
    @settings(max_examples=25, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 90),
           seed=st.integers(0, 2**31), out_of_domain=st.booleans())
    def test_scatter_matches_addat_oracle_on_tier(self, tier, shape, periodic,
                                                  order, n, seed,
                                                  out_of_domain):
        """Every registered tier passes the np.add.at property pin, over
        periodic wraps, clamped boundaries, far out-of-domain fallback
        positions and empty batches."""
        rng = np.random.default_rng(seed)
        xi, yi, zi, amplitude = _random_batch(rng, shape, n, out_of_domain)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        with use_backend(BackendConfig(kernel_tier=tier)):
            op = StencilOperator.for_box(shape, periodic, xi, yi, zi, order)
            op.scatter(amplitude, out)
        bound = oracle_scatter(shape, periodic, xi, yi, zi, order,
                               np.abs(amplitude))
        tol = 64 * np.finfo(float).eps * (bound + bound.max())
        np.testing.assert_array_less(np.abs(out - expected), tol + 1e-300)

    @pytest.mark.parametrize("tier", AVAILABLE_TIERS)
    @settings(max_examples=25, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 90),
           seed=st.integers(0, 2**31))
    def test_tier_bitwise_identical_to_oracle_tier(self, tier, shape,
                                                   periodic, order, n, seed):
        """Cross-tier *bitwise* pin: scatter, rho-style amplitude scatter
        and gather on any available tier equal the oracle tier exactly."""
        rng = np.random.default_rng(seed)
        xi, yi, zi, amplitude = _random_batch(rng, shape, n)
        field = rng.normal(0.0, 1.0, shape)
        results = {}
        for name in ("oracle", tier):
            with use_backend(BackendConfig(kernel_tier=name)):
                op = StencilOperator.for_box(shape, periodic, xi, yi, zi,
                                             order)
                out = np.zeros(shape)
                op.scatter(amplitude, out)
                results[name] = (op.flat_ids.copy(), op.weights.copy(),
                                 out, op.gather(field))
        for ref, got in zip(results["oracle"], results[tier]):
            assert np.array_equal(ref, got)


# ----------------------------------------------------------------------
# executor parity through the new path
# ----------------------------------------------------------------------
class TestExecutorBitwiseParity:
    @pytest.mark.parametrize("order", [1, 3])
    def test_backends_bitwise_identical(self, order):
        """serial/threads/process backends produce bitwise-identical
        currents and charge through the flat-index scatter, including on
        a clamped (non-periodic) domain."""
        config = GridConfig(
            n_cell=(8, 8, 8), hi=(8.0e-6,) * 3, tile_size=(4, 4, 4),
            field_boundary=("pec", "periodic", "periodic"),
            particle_boundary=("absorbing", "periodic", "periodic"),
        )
        results = {}
        for name, executor in (("serial", SerialExecutor(3)),
                               ("threads", ThreadTileExecutor(3)),
                               ("processes", ProcessShardExecutor(3))):
            grid, container = make_plasma(config, ppc=(2, 2, 2), seed=5)
            with executor:
                deposit_reference(grid, container, order, executor=executor)
                deposit_rho_reference(grid, container, order,
                                      executor=executor)
            results[name] = (grid.jx.copy(), grid.jy.copy(), grid.jz.copy(),
                             grid.rho.copy())
        for name in ("threads", "processes"):
            for ref, got in zip(results["serial"], results[name]):
                assert np.array_equal(ref, got), name

    def test_sharded_matches_inline_through_stencil(self):
        grid_inline, container = make_plasma(
            GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3,
                       tile_size=(4, 4, 4)), ppc=(2, 2, 2), seed=9)
        deposit_reference(grid_inline, container, 3)

        grid_sharded, container = make_plasma(
            GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3,
                       tile_size=(4, 4, 4)), ppc=(2, 2, 2), seed=9)
        with SerialExecutor(1) as executor:
            deposit_reference(grid_sharded, container, 3, executor=executor)
        assert np.array_equal(grid_inline.jx, grid_sharded.jx)


# ----------------------------------------------------------------------
# scratch grid pool
# ----------------------------------------------------------------------
class TestScratchGridPool:
    def test_acquire_release_reuses_instance(self):
        pool = ScratchGridPool()
        config = GridConfig(n_cell=(4, 4, 4))
        grid = pool.acquire(config)
        grid.jx[...] = 7.0
        grid.rho[...] = 3.0
        pool.release(grid)
        again = pool.acquire(config)
        assert again is grid
        # re-leased grids are indistinguishable from a fresh Grid for
        # deposition purposes: zeroed current and charge accumulators
        assert not again.jx.any() and not again.rho.any()

    def test_distinct_geometries_do_not_mix(self):
        pool = ScratchGridPool()
        a = pool.acquire(GridConfig(n_cell=(4, 4, 4)))
        pool.release(a)
        b = pool.acquire(GridConfig(n_cell=(8, 4, 4)))
        assert b is not a
        assert b.shape == (8, 4, 4)

    def test_sharded_deposit_returns_grids_to_global_pool(self):
        scratch_grids.clear()
        config = GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3,
                            tile_size=(4, 4, 4))
        grid, container = make_plasma(config, ppc=(1, 1, 1), seed=2)
        with SerialExecutor(3) as executor:
            deposit_reference(grid, container, 1, executor=executor)
        leased = scratch_grids.acquire(config)
        try:
            # the shard scratch grids were recycled, not leaked: the pool
            # serves one of them back instead of allocating from scratch
            assert leased.shape == grid.shape
            assert not leased.jx.any()
        finally:
            scratch_grids.release(leased)
