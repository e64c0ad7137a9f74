"""Per-layer probes, installed around the public entry points of each layer.

Nothing here edits the program: every number is taken by wrapping a
call the benchmark can reach from outside ``src/``.

* ``repro.pipeline`` — pre/post-stage hooks time every stage; a stage's
  self time is its wall time minus the union of the probed calls that
  ran inside it (on any thread).
* ``repro.backend`` — a kernel tier registered with
  :func:`~repro.backend.register_kernel_tier` wraps the callables of the
  tier the untraced run resolved and keeps its ``numerics`` tag, so the
  results stay bitwise identical.
* ``repro.core`` — the MatrixPIC strategy's sorter, kernel and
  ``run_step`` are wrapped on the instance; the returned
  :class:`~repro.core.incremental_sort.StepSortStats` and
  :class:`~repro.hardware.counters.KernelCounters` are accumulated.
* ``repro.exec`` — the executor's ``run`` and each shard task are timed.
* ``repro.domain`` / ``repro.pic`` — the existing telemetry counters
  ``domain.halo_exchanges`` and ``particles.migrated``.
* ``repro.hardware`` — modelled LX2 seconds from ``CostModel.timing`` of
  the accumulated deposition counters (modelled, never measured).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.api import Session
from repro.backend import KERNEL_NAMES, ActiveKernels, KernelTier
from repro.core.framework import MatrixPICDeposition
from repro.exec import TileTask
from repro.hardware.counters import KernelCounters

#: name of the wrapping kernel tier (lowest priority: ``auto`` never picks it)
TIMED_TIER = "perfbench-timed"

#: every stage of the global and domain stage sets, in report order
STAGES = ("gather_push", "migrate", "moving_window", "deposit", "laser",
          "solve", "boundary", "halo_exchange", "sync_frame")

#: existing telemetry counters read as per-layer counts
TELEMETRY_COUNTERS = ("domain.halo_exchanges", "particles.migrated",
                      "exec.pool_rebuilds")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered


class LayerProbe:
    """Collects calls and seconds per probed layer entry point."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.stage_s: Dict[str, float] = defaultdict(float)
        self.stage_self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.counters = KernelCounters()
        self._inside: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    def _record(self, key: str, start: float, stop: float) -> None:
        with self._lock:
            self.calls[key] += 1
            self.seconds[key] += stop - start
            self._inside.append((start, stop))

    def timed(self, key: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded under ``key``."""
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(key, start, time.perf_counter())
        return call

    # ------------------------------------------------------------------
    def kernel_tier(self, kernels: ActiveKernels) -> KernelTier:
        """A tier wrapping ``kernels`` with the same numerics tag."""
        wrapped = {}
        for name in KERNEL_NAMES:
            fn = getattr(kernels, name)
            wrapped[name] = (None if fn is None
                             else self.timed(f"backend.{name}", fn))
        return KernelTier(name=TIMED_TIER, numerics=kernels.numerics,
                          priority=-1, kernels=wrapped)

    def attach(self, session: Session) -> None:
        """Install the stage hooks and the strategy/executor wrappers."""
        pipeline = session.pipeline
        pipeline.add_pre_hook(self._before_stage)
        pipeline.add_post_hook(self._after_stage)
        simulation = session.simulation
        executor = simulation.executor
        executor.run = self._timed_executor_run(executor.run)
        strategy = simulation.deposition
        if isinstance(strategy, MatrixPICDeposition):
            sorter = strategy.sorter
            sorter.incremental_update_tile = self._sort_stats(
                self.timed("core.sort", sorter.incremental_update_tile))
            sorter.global_sort_tile = self.timed(
                "core.resort", sorter.global_sort_tile)
            strategy.kernel.deposit_tile = self.timed(
                "core.kernel", strategy.kernel.deposit_tile)
            if strategy.fallback_kernel is not None:
                strategy.fallback_kernel.deposit_tile = self.timed(
                    "core.kernel", strategy.fallback_kernel.deposit_tile)
            strategy.run_step = self._counted_run_step(strategy.run_step)

    def _before_stage(self, stage, ctx) -> None:
        self._inside.clear()

    def _after_stage(self, stage, ctx, seconds: float) -> None:
        with self._lock:
            children = _union_length(self._inside)
            self._inside.clear()
        self.stage_s[stage.name] += seconds
        self.stage_self_s[stage.name] += max(seconds - children, 0.0)

    def _sort_stats(self, update: Callable) -> Callable:
        def call(*args, **kwargs):
            stats = update(*args, **kwargs)
            with self._lock:
                self.counts["core.sort.moved"] += stats.moved_particles
                self.counts["core.sort.rebuilds"] += stats.local_rebuilds
                self.counts["core.gpma.total_slots"] += stats.total_slots
                self.counts["core.gpma.empty_slots"] += stats.empty_slots
            return stats
        return call

    def _counted_run_step(self, run_step: Callable) -> Callable:
        def call(*args, **kwargs):
            counters = run_step(*args, **kwargs)
            if counters is not None:
                self.counters.merge(counters)
            return counters
        return call

    def _timed_executor_run(self, run: Callable) -> Callable:
        def call(tasks):
            durations: List[float] = []
            timed_tasks = [TileTask(self._timed_task, (task, durations))
                           for task in tasks]
            start = time.perf_counter()
            try:
                return run(timed_tasks)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counts["exec.run_s"] += elapsed
                    self.counts["exec.shard_batches"] += 1
                    self.counts["exec.shard_tasks"] += len(tasks)
                    if durations:
                        self.counts["exec.task_s_max"] += max(durations)
                        self.counts["exec.task_s_mean"] += (
                            sum(durations) / len(durations))
        return call

    @staticmethod
    def _timed_task(task: TileTask, durations: List[float]):
        start = time.perf_counter()
        try:
            return task()
        finally:
            durations.append(time.perf_counter() - start)

