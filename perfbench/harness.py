"""Phases of one benchmark run: set-up, timed steps, probes and checks.

Imported by ``perfbench/run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from perfbench import checks, probes
from perfbench.workloads import WORKLOADS
from repro.backend import KERNEL_NAMES, register_kernel_tier

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUP_REPS = 5
#: steps after each build before timing starts (lazy sorter set-up,
#: first-touch allocation)
WARMUP_STEPS = 2
#: the timed loop runs at least this many steps, whatever ``--seconds``
MIN_TIMED_STEPS = 100
#: steps after the timed loop whose deposits are compared with the
#: reference (one check over all of them)
REFERENCE_CHECK_STEPS = 8
#: steps of the decomposed-versus-single-domain prefix comparison
TWIN_PREFIX_STEPS = 10


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    """Content hash of the Python sources (identifies non-git checkouts)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint(session) -> Dict[str, object]:
    """Cores, kernel tier, library versions and code identity of a run."""
    selection = session.simulation.backend_selection
    return {
        "cores": sorted(os.sched_getaffinity(0)),
        "kernel_tier": selection.kernel_tier,
        "numerics": selection.kernels.numerics,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(ROOT),
        "src_sha256": _source_sha256(ROOT / "src"),
    }


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def set_up(workload, seed: int, **session_kwargs):
    """Build and warm up one session.

    Returns the session, its set-up seconds and the particle count it
    loaded.
    """
    start = time.perf_counter()
    session = workload.build(seed, **session_kwargs)
    loaded = session.num_particles
    for _ in range(WARMUP_STEPS):
        session.step()
    return session, time.perf_counter() - start, loaded


def timed_steps(session, *, seconds: float = 0.0, min_steps: int = 0,
                steps: Optional[int] = None):
    """Step until ``seconds`` passed and ``min_steps`` ran, or exactly
    ``steps`` times; returns the seconds and particle pushes per step."""
    gc.collect()
    step_s = []
    pushes = []
    start = time.perf_counter()
    while True:
        if steps is not None:
            if len(step_s) == steps:
                break
        elif (len(step_s) >= min_steps
              and time.perf_counter() - start >= seconds):
            break
        particles = session.num_particles
        begin = time.perf_counter()
        session.step()
        step_s.append(time.perf_counter() - begin)
        pushes.append(particles)
    return step_s, pushes


def check_outputs(workload, session, log, loaded: int) -> None:
    """Output checks on a session whose timed steps are done."""
    if workload.checks_reference:
        check = checks.ReferenceDepositCheck()
        session.pipeline.add_post_hook(check)
        for _ in range(REFERENCE_CHECK_STEPS):
            session.step()
        session.pipeline.remove_hook(check)
        check.record(log)
    if workload.conserves_particles:
        log.record("particles_conserved", session.num_particles == loaded,
                   f"{loaded} loaded, {session.num_particles} now")
    bad = checks.nonfinite_arrays(checks.state_arrays(session))
    log.record("state_finite", not bad, ", ".join(bad))


def check_twin(workload, seed: int, log) -> None:
    """The decomposed run equals the single-domain run over a prefix."""
    states = []
    for build in (workload.build, workload.twin):
        with build(seed) as session:
            for _ in range(TWIN_PREFIX_STEPS):
                session.step()
            states.append(checks.state_arrays(session))
    diff = checks.first_difference(*states)
    log.record(f"domains_bitwise@step{TWIN_PREFIX_STEPS}", diff is None,
               diff or "")


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------

def end_to_end(workload, seed: int, seconds: float, log):
    """``--trace 0``: set-ups, timed steps and checks, unprobed."""
    setup_s = []
    for rep in range(SETUP_REPS):
        if rep:
            session.shutdown()
            del session
            gc.collect()
        session, elapsed, loaded = set_up(workload, seed)
        setup_s.append(elapsed)
    fingerprint = host_fingerprint(session)
    step_s, pushes = timed_steps(session, seconds=seconds,
                                 min_steps=MIN_TIMED_STEPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outputs(workload, session, log, loaded)
    session.shutdown()
    if workload.twin is not None:
        check_twin(workload, seed, log)
    p90 = statistics.quantiles(step_s, n=10, method="inclusive")[-1]
    rates = [n / s for n, s in zip(pushes, step_s)]
    metrics = {
        "pushes_per_s_p10": (
            statistics.quantiles(rates, n=10, method="inclusive")[0], "1/s"),
        "step_s_p90": (p90, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "checks_passed_frac": (
            (log.attempted - log.failed) / log.attempted, "frac"),
    }
    detail = {"timed_steps": len(step_s),
              "steps_beyond_p90": sum(1 for s in step_s if s > p90),
              "step_s_p50": statistics.median(step_s),
              "pushes_per_s_mean": sum(pushes) / sum(step_s),
              "setup_s_reps": setup_s}
    return metrics, fingerprint, detail


def per_layer(workload, seed: int, seconds: float, log):
    """``--trace 1``: an unprobed and a probed run of equal length."""
    session, _, loaded = set_up(workload, seed)
    fingerprint = host_fingerprint(session)
    plain_s, plain_pushes = timed_steps(session, seconds=seconds / 2.0,
                                        min_steps=1)
    plain_state = checks.state_arrays(session)
    check_outputs(workload, session, log, loaded)
    kernels = session.simulation.backend_selection.kernels
    session.shutdown()
    del session
    gc.collect()

    probe = probes.LayerProbe()
    register_kernel_tier(probe.kernel_tier(kernels), replace=True)
    session, _, _ = set_up(workload, seed, backend=probes.TIMED_TIER,
                           observe=True)
    probe.attach(session)
    strategy = session.simulation.deposition
    global_sorts = getattr(strategy, "global_sorts_performed", 0)
    fallback_tiles = getattr(strategy, "fallback_tiles", 0)
    counters = session.telemetry.metrics
    counted = {name: counters.get(name) for name in probes.TELEMETRY_COUNTERS}
    traced_s, traced_pushes = timed_steps(session, steps=len(plain_s))
    counted = {name: counters.get(name) - value
               for name, value in counted.items()}
    diff = checks.first_difference(plain_state, checks.state_arrays(session))
    log.record("tracing_neutral", diff is None, diff or "")
    global_sorts = getattr(strategy, "global_sorts_performed", 0) \
        - global_sorts
    fallback_tiles = getattr(strategy, "fallback_tiles", 0) - fallback_tiles
    cost_model = getattr(strategy, "cost_model", None)
    session.shutdown()
    if workload.twin is not None:
        check_twin(workload, seed, log)

    steps = len(traced_s)
    step_total = sum(traced_s)
    metrics: Dict[str, tuple] = {}
    for stage in probes.STAGES:
        metrics[f"pipeline.{stage}.s"] = (
            probe.stage_s[stage] / steps, "s")
        metrics[f"pipeline.{stage}.self_s"] = (
            probe.stage_self_s[stage] / steps, "s")
    metrics["pipeline.step.s"] = (step_total / steps, "s")
    metrics["pipeline.other.s"] = (
        (step_total - sum(probe.stage_s[s] for s in probes.STAGES)) / steps,
        "s")
    for name in KERNEL_NAMES:
        metrics[f"backend.{name}.calls"] = (
            probe.calls[f"backend.{name}"] / steps, "count")
        metrics[f"backend.{name}.s"] = (
            probe.seconds[f"backend.{name}"] / steps, "s")
    counts = probe.counts
    slots = counts["core.gpma.total_slots"]
    metrics.update({
        "core.sort.s": (probe.seconds["core.sort"] / steps, "s"),
        "core.sort.tile_resorts": (probe.calls["core.resort"] / steps,
                                   "count"),
        "core.sort.resort_s": (probe.seconds["core.resort"] / steps, "s"),
        "core.sort.moved": (counts["core.sort.moved"] / steps, "count"),
        "core.sort.rebuilds": (counts["core.sort.rebuilds"] / steps,
                               "count"),
        "core.gpma.empty_slot_frac": (
            counts["core.gpma.empty_slots"] / slots if slots else 0.0,
            "frac"),
        "core.kernel.s": (probe.seconds["core.kernel"] / steps, "s"),
        "core.policy.global_sorts": (float(global_sorts), "count"),
        "core.fallback_tiles": (float(fallback_tiles), "count"),
        "exec.run.s": (counts["exec.run_s"] / steps, "s"),
        "exec.task_s_max_over_mean": (
            counts["exec.task_s_max"] / counts["exec.task_s_mean"]
            if counts["exec.task_s_mean"] else 0.0, "ratio"),
        "exec.shard_batches": (counts["exec.shard_batches"] / steps,
                               "count"),
        "exec.shard_tasks": (counts["exec.shard_tasks"] / steps, "count"),
        "exec.pool_rebuilds": (counted["exec.pool_rebuilds"], "count"),
        "domain.halo_exchanges": (counted["domain.halo_exchanges"] / steps,
                                  "count"),
        "particles.migrated": (counted["particles.migrated"] / steps,
                               "count"),
    })
    timing = (cost_model.timing(probe.counters) if cost_model is not None
              else None)
    metrics.update({
        "model.lx2_deposit_s": (
            (timing.total - timing.sort) / steps if timing else 0.0, "s"),
        "model.lx2_sort_s": (timing.sort / steps if timing else 0.0, "s"),
        "hw.mpu_mopa": (probe.counters.combined().mpu_mopa / steps,
                        "count"),
        "bench.trace_overhead_frac": (
            1.0 - (sum(traced_pushes) / step_total)
            / (sum(plain_pushes) / sum(plain_s)), "frac"),
    })
    detail = {"timed_steps": steps, "loaded_particles": loaded}
    return metrics, fingerprint, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print the detail line and the result line."""
    workload = WORKLOADS.get(workload_name)
    if workload is None:
        print(f"perfbench: unknown workload {workload_name!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    log = checks.CheckLog()
    mode = per_layer if trace else end_to_end
    metrics, fingerprint, detail = mode(workload, seed, seconds, log)
    detail.update(workload=workload.name, seed=seed, trace=int(trace),
                  fingerprint=fingerprint, checks=log.results)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
