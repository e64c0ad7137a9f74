"""Tests of the benchmark's own output checks.

Run from the repository root (a few seconds)::

    python3 perfbench/selftest.py

A check that cannot fail proves nothing, so each one is shown to flag a
deliberately broken output and to pass an exact one.  Exits non-zero
when any case misbehaves.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.baselines.configs import make_strategy  # noqa: E402

#: relative size of the perturbation the reference check must catch
PERTURBATION = 1e-9


def _reference_check(perturb: bool) -> bool:
    """Outcome of the reference-deposit check on two uniform-cic steps
    deposited by the exact ``Baseline`` kernel, optionally perturbed."""

    def perturb_current(stage, ctx, seconds):
        if stage.name == "deposit":
            jx = ctx.grid.jx
            jx.flat[jx.size // 2] += PERTURBATION * np.max(np.abs(jx))

    log = checks.CheckLog()
    check = checks.ReferenceDepositCheck()
    with WORKLOADS["uniform-cic"].build(
            1, deposition=make_strategy("Baseline")) as session:
        if perturb:
            session.pipeline.add_post_hook(perturb_current)
        session.pipeline.add_post_hook(check)
        for _ in range(2):
            session.step()
    return check.record(log)


def _bitwise_check_flags_one_ulp() -> bool:
    a = {"grid.jx": np.linspace(0.0, 1.0, 7)}
    b = {"grid.jx": a["grid.jx"].copy()}
    b["grid.jx"][3] = np.nextafter(b["grid.jx"][3], 2.0)
    return (checks.first_difference(a, dict(a)) is None
            and checks.first_difference(a, b) == "grid.jx")


def _finite_check_flags_nan() -> bool:
    state = {"grid.ex": np.zeros(4), "species0.ids": np.arange(4)}
    clean = not checks.nonfinite_arrays(state)
    state["grid.ex"][1] = np.nan
    return clean and checks.nonfinite_arrays(state) == ["grid.ex"]


def main() -> int:
    cases = {
        "exact Baseline deposit passes the reference check":
            lambda: _reference_check(perturb=False),
        "perturbed current fails the reference check":
            lambda: not _reference_check(perturb=True),
        "bitwise comparison flags a one-ulp change":
            _bitwise_check_flags_one_ulp,
        "finite check flags a NaN": _finite_check_flags_nan,
    }
    failed = 0
    for name, case in cases.items():
        ok = case()
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
