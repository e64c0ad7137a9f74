"""Step-loop benchmark: one command, PIC workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload uniform-cic --seed 1 --seconds 20 --trace 0

Each run builds one :class:`repro.api.Session` of the named workload from
the sources under ``src/`` and steps it back to back (a closed loop, one
process, at most two threads).

``--trace 0`` reports the end-to-end metrics of an unprobed run:

* ``pushes_per_s_p10`` — particle pushes per wall second that 90% of the
  timed steps reach (the 10th percentile of the per-step push rate);
* ``step_s_p90`` — 90th-percentile wall seconds per step;
* ``setup_s`` — build, plasma load, strategy construction and warm-up,
  up to the first timed step; the median of several set-ups;
* ``peak_rss_mb`` — peak resident memory up to the end of the timed
  steps;
* ``checks_passed_frac`` — output checks passed over checks attempted.

The timed steps last ``--seconds`` and at least 100 steps, so at least
ten samples lie beyond the 90th percentile.  Step times on a shared
host are bimodal (interference episodes of tens of seconds slow every
step by up to 1.6x), which makes the median step and the mean push rate
of a run flip between the two modes from run to run; both are printed
on the detail line but not used as metrics.  The tail-side statistics
above stay within about 10% across runs.

``--trace 1`` runs the same workload unprobed for half of ``--seconds``,
then again with per-layer probes (:mod:`perfbench.probes`) for the same
number of steps, and reports the per-layer metrics; the probed run must
end bitwise equal to the unprobed one.

Both modes run the output checks of :mod:`perfbench.checks` after the
timed steps.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` (output checks) and
``metrics``; the line before it records the host fingerprint and the
per-check detail.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.harness import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
