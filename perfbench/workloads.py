"""The benchmark workloads, each a :class:`repro.api.Session` factory.

Every workload is a closed loop: one session stepped back to back from
this process, on at most two threads.  The seed of the run is the only
input; it seeds the plasma load (and the storage scramble of the QSP
run), so the same seed always yields the same particles.

Why these (the four in ``BENCHMARK.json``):

* ``uniform-cic`` is the plain single-thread baseline; its time is the
  :mod:`repro.backend` kernels and it bypasses ``repro.core``,
  ``repro.exec`` and ``repro.domain`` (the prediction for a change to
  those layers is "no change" here).
* ``uniform-cic-domains`` is the same problem on a (2,1,1) split with
  two threads, the only workload that runs halo exchange, seam reduction
  and the threaded executor.  Its throughput over ``uniform-cic``'s is
  the measured fixed-size scaling.
* ``uniform-qsp-matrixpic`` is the paper's third-order headline: the MPU
  kernel of ``repro.core`` dominates, and thermal motion is slow, so the
  GPMA sorter mostly reads.
* ``lwfa-reference`` runs laser, moving window and absorbing walls, so
  particles migrate and are injected every step; it is the only workload
  that runs the ``moving_window`` and ``laser`` stages.  It deposits with
  the default ``ReferenceDeposition``.

``lwfa-matrixpic`` is the same LWFA problem deposited by MatrixPIC
(FullOpt), where the GPMA sorter writes.  It is runnable but not in
``BENCHMARK.json``, because the program fails its ``reference_deposit``
check: after ``MovingWindowStage`` shifts ``grid.lo`` (it runs after
``MigrateStage``), particles one cell outside their tile are clipped into
the tile's edge cell, and the current at the 16-cell tile seams is wrong
(relative residual 0.1-0.5 from about step 11 on).  It belongs in the
benchmark once that defect is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.config import ExecutionConfig
from repro.workloads import LWFAWorkload, UniformPlasmaWorkload

#: the uniform CIC problem: 32x16x16 cells, 8^3 tiles, 27 ppc (221,184)
_CIC_GRID = dict(n_cell=(32, 16, 16), tile_size=(8, 8, 8), ppc=27,
                 shape_order=1)
_THREADS_X2 = ExecutionConfig(backend="threads", num_shards=2)

#: ``build(seed, **session_kwargs) -> Session``; the keyword arguments go
#: to :meth:`Session.from_workload` (``backend=``, ``observe=``)
SessionFactory = Callable[..., Session]


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload and the checks that apply to it."""

    name: str
    build: SessionFactory
    #: the deposit is compared with a fresh reference deposit
    checks_reference: bool = False
    #: the particle count must stay exactly constant (periodic walls)
    conserves_particles: bool = False
    #: a differently decomposed run that must agree bitwise
    twin: Optional[SessionFactory] = None


def _uniform_cic(seed: int, **session_kwargs) -> Session:
    return Session.from_workload(
        UniformPlasmaWorkload(seed=seed, **_CIC_GRID), **session_kwargs)


def _uniform_cic_domains(seed: int, **session_kwargs) -> Session:
    return Session.from_workload(
        UniformPlasmaWorkload(seed=seed, domains=(2, 1, 1),
                              execution=_THREADS_X2, **_CIC_GRID),
        **session_kwargs)


def _uniform_cic_threads(seed: int, **session_kwargs) -> Session:
    return Session.from_workload(
        UniformPlasmaWorkload(seed=seed, execution=_THREADS_X2, **_CIC_GRID),
        **session_kwargs)


def _uniform_qsp_matrixpic(seed: int, **session_kwargs) -> Session:
    workload = UniformPlasmaWorkload(n_cell=(16, 16, 16), tile_size=(8, 8, 8),
                                     ppc=8, shape_order=3, seed=seed)
    session = Session.from_workload(
        workload, deposition=make_strategy("MatrixPIC (FullOpt)"),
        **session_kwargs)
    workload.scramble_particles(session.simulation)
    return session


def _lwfa(seed: int) -> LWFAWorkload:
    return LWFAWorkload(n_cell=(8, 8, 64), tile_size=(8, 8, 16), ppc=8,
                        seed=seed)


def _lwfa_reference(seed: int, **session_kwargs) -> Session:
    return Session.from_workload(_lwfa(seed), **session_kwargs)


def _lwfa_matrixpic(seed: int, **session_kwargs) -> Session:
    return Session.from_workload(
        _lwfa(seed), deposition=make_strategy("MatrixPIC (FullOpt)"),
        **session_kwargs)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="uniform-cic",
        build=_uniform_cic,
        conserves_particles=True,
    ),
    Workload(
        name="uniform-cic-domains",
        build=_uniform_cic_domains,
        conserves_particles=True,
        twin=_uniform_cic_threads,
    ),
    Workload(
        name="uniform-qsp-matrixpic",
        build=_uniform_qsp_matrixpic,
        checks_reference=True,
        conserves_particles=True,
    ),
    Workload(
        name="lwfa-reference",
        build=_lwfa_reference,
        checks_reference=True,
    ),
    Workload(
        name="lwfa-matrixpic",
        build=_lwfa_matrixpic,
        checks_reference=True,
    ),
)}
