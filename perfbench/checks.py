"""Output checks computed inside the run, with no golden data.

Every check compares the program with itself or with its own numerical
reference, so a check passes or fails the same way on any host:

* the current right after ``deposit`` against a fresh
  :func:`~repro.pic.deposition.reference.deposit_reference` of the same
  particles (relative residual below :data:`RELATIVE_TOLERANCE`, the
  criterion of the deposition-equivalence tests);
* the particle count of a periodic run is exactly conserved;
* a domain-decomposed run is bitwise equal to the single-domain run with
  the same executor;
* a traced run is bitwise equal to the untraced run;
* every field, current and particle array is finite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import Session
from repro.pic.deposition.reference import deposit_reference
from repro.pic.diagnostics import current_residual
from repro.pic.grid import Grid, apply_grid_geometry, grid_geometry

#: ``max|J - J_ref| / max|J_ref|`` above which a deposit is wrong
RELATIVE_TOLERANCE = 1e-12


class CheckLog:
    """Pass/fail record of every check a run attempted."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def record(self, name: str, passed: bool, detail: str = "") -> bool:
        self.results.append((name, bool(passed), detail))
        return bool(passed)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, passed, _ in self.results if not passed)


def reference_residual(grid: Grid, containers, order: int) -> Optional[float]:
    """Relative residual of ``grid``'s current against a fresh reference
    deposit of ``containers``; ``None`` when the reference current is 0."""
    reference = apply_grid_geometry(Grid(grid.config), grid_geometry(grid))
    for container in containers:
        deposit_reference(reference, container, order)
    scale = max(float(np.max(np.abs(a), initial=0.0))
                for a in (reference.jx, reference.jy, reference.jz))
    if scale == 0.0:
        return None
    return current_residual(grid, reference) / scale


class ReferenceDepositCheck:
    """Post-stage hook comparing every ``deposit`` with the reference.

    Install with ``session.pipeline.add_post_hook``, step, then
    :meth:`record` one check over all the steps seen: it fails when any
    step's residual reaches :data:`RELATIVE_TOLERANCE`.  Steps whose
    reference current is identically zero are skipped.
    """

    def __init__(self) -> None:
        #: (step index, relative residual) of every checked deposit
        self.residuals: List[Tuple[int, float]] = []

    def __call__(self, stage, ctx, seconds: float) -> None:
        if stage.name != "deposit":
            return
        residual = reference_residual(ctx.grid, ctx.containers,
                                      ctx.config.shape_order)
        if residual is not None:
            self.residuals.append((ctx.step_index, residual))

    def record(self, log: CheckLog) -> bool:
        bad = [(step, r) for step, r in self.residuals
               if not r < RELATIVE_TOLERANCE]
        worst = max((r for _, r in self.residuals), default=0.0)
        return log.record(
            "reference_deposit",
            bool(self.residuals) and not bad,
            f"{len(bad)} of {len(self.residuals)} steps at or above "
            f"{RELATIVE_TOLERANCE:g}, worst {worst:.3e}; "
            + ", ".join(f"step {step}: {r:.3e}" for step, r in self.residuals))


def state_arrays(session: Session) -> Dict[str, np.ndarray]:
    """Copies of every field, current and particle array of a session.

    On the decomposed path the slabs are the arrays of record, so the
    fields are assembled into a scratch grid first.
    """
    simulation = session.simulation
    grid = simulation.grid
    if simulation.domain is not None:
        grid = simulation.domain.assemble(
            apply_grid_geometry(Grid(grid.config), grid_geometry(grid)))
    state = {f"grid.{name}": array.copy()
             for name, array in grid.field_arrays().items()}
    for index, container in enumerate(session.containers):
        arrays = [tile.soa() for tile in container.nonempty_tiles()]
        for name in ("x", "y", "z", "ux", "uy", "uz", "w", "ids"):
            state[f"species{index}.{name}"] = (
                np.concatenate([soa[name] for soa in arrays])
                if arrays else np.empty(0))
    return state


def first_difference(a: Dict[str, np.ndarray],
                     b: Dict[str, np.ndarray]) -> Optional[str]:
    """Name of the first array that is not bitwise equal, else ``None``."""
    if a.keys() != b.keys():
        return "array set"
    for name in a:
        x, y = a[name], b[name]
        if (x.shape != y.shape or x.dtype != y.dtype
                or x.tobytes() != y.tobytes()):
            return name
    return None


def nonfinite_arrays(state: Dict[str, np.ndarray]) -> List[str]:
    """Names of the arrays holding a NaN or an infinity."""
    return [name for name, array in state.items()
            if array.dtype.kind == "f" and not np.isfinite(array).all()]
