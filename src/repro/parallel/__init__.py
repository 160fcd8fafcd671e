"""Process-parallel execution layer (zero new dependencies).

Public surface:

* :func:`~repro.parallel.seeds.spawn_seeds` — deterministic per-task
  seeds via ``numpy.random.SeedSequence.spawn`` keyed by task index;
* :class:`~repro.parallel.runner.ParallelRunner` — serial path or a
  pool of long-lived workers, with per-task timeouts, crash isolation
  and ``repro.obs`` merge;
* :func:`~repro.parallel.restarts.run_sra_restarts` — the one best-of-K
  SRA runner, fanned out over the worker pool with the instance handed
  to each worker once, through the pool initializer (what
  ``SRAConfig.restarts`` / CLI ``--restarts`` and the scenario matrix's
  ``portfolio`` axis drive);
* :func:`~repro.parallel.driver.run_experiments` /
  :func:`~repro.parallel.driver.save_tables` — parallel driver for
  every registered experiment (what ``repro.cli experiment --all
  --workers N`` drives).

See docs/ARCHITECTURE.md, "Parallel execution", for the seed-spawning
contract, worker crash semantics, the instance hand-off and the obs
merge rules.
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

__all__ = [
    "ExperimentResult",
    "ParallelRunner",
    "RestartReport",
    "TaskResult",
    "TaskSpec",
    "registry_order",
    "run_experiments",
    "run_sra_restarts",
    "save_tables",
    "spawn_seed",
    "spawn_seeds",
]
