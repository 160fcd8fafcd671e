"""Process-parallel execution layer (zero new dependencies).

Public surface:

* :func:`~repro.parallel.seeds.spawn_seeds` — deterministic per-task
  seeds via ``numpy.random.SeedSequence.spawn`` keyed by task index;
* :class:`~repro.parallel.runner.ParallelRunner` — serial path or a
  pool of long-lived workers, with per-task timeouts, crash isolation
  and ``repro.obs`` merge;
* :mod:`~repro.parallel.shm` — shared-memory instance publication
  (:func:`~repro.parallel.shm.publish_state` /
  :func:`~repro.parallel.shm.attach_state`);
* :func:`~repro.parallel.restarts.run_sra_restarts` — the one best-of-K
  SRA runner, fanned out over the worker pool with the instance in
  shared memory (what ``SRAConfig.restarts`` / CLI ``--restarts`` and
  the scenario matrix's ``portfolio`` axis drive);
* :func:`~repro.parallel.driver.run_experiments` /
  :func:`~repro.parallel.driver.save_tables` — parallel E1–E20
  experiment driver (what ``repro.cli experiment --all --workers N``
  drives).

See docs/ARCHITECTURE.md, "Parallel execution", for the seed-spawning
contract, worker crash semantics, the shm ownership/lifetime contract
and the obs merge rules.
"""

from repro.parallel.driver import (
    ExperimentResult,
    registry_order,
    run_experiments,
    save_tables,
)
from repro.parallel.restarts import RestartReport, run_sra_restarts
from repro.parallel.runner import ParallelRunner, TaskResult, TaskSpec
from repro.parallel.seeds import spawn_seed, spawn_seeds
from repro.parallel.shm import SharedState, attach_state, publish_state

__all__ = [
    "ExperimentResult",
    "ParallelRunner",
    "RestartReport",
    "SharedState",
    "TaskResult",
    "TaskSpec",
    "attach_state",
    "publish_state",
    "registry_order",
    "run_experiments",
    "run_sra_restarts",
    "save_tables",
    "spawn_seed",
    "spawn_seeds",
]
