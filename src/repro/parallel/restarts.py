"""Parallel SRA restarts over a worker pool.

This is the library's one best-of-K runner: ``SRA(SRAConfig(restarts=K,
n_workers=N))`` calls it.  LNS restarts share nothing, so K restarts
scale across processes trivially — the companion resource-equivalence-
classes argument (see PAPERS.md) for treating local search as
embarrassingly restartable.  Restart ``k`` runs the configured SRA with
seed ``spawn_seeds(master_seed, K)[k]``, so the restart set is a pure
function of the master seed: the same K restarts run with 1, 2 or 8
workers produce bitwise-identical per-restart results, and the winner
is selected by a deterministic rule over the task-ordered results
(feasibility first, then peak utilization, then move count).

The multi-worker fan-out runs on the :class:`ParallelRunner` pool, and
the instance travels once per worker, through the pool initializer: a
worker inherits the state at ``fork`` (nothing is pickled), or unpickles
it once at start under ``spawn``/``forkserver``.  A restart task then
pickles only its config, not tens of thousands of machine/shard
dataclasses.  Long-lived workers plus that hand-off are what turned the
pool from a slowdown (0.70x at 2 workers on m50, when each task pickled
the state) into a speedup on instances large enough to amortize the
worker spawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro._validation import check_int, check_positive
from repro.parallel.runner import ParallelRunner, TaskResult, TaskSpec
from repro.parallel.seeds import spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sra imports us)
    from repro.algorithms.base import RebalanceResult
    from repro.algorithms.sra_config import SRAConfig
    from repro.cluster import ClusterState, ExchangeLedger

__all__ = ["RestartReport", "run_sra_restarts"]


@dataclass
class RestartReport:
    """Outcome of a restart fan-out.

    ``best`` carries a copy of the winning restart's result with
    ``iterations`` re-totalled across every successful restart (the work
    actually spent); the winner's own row in ``results`` keeps its
    per-restart iteration count.  ``results`` keeps every per-restart
    row, failures included, in restart order.
    """

    best: "RebalanceResult"
    results: list[TaskResult]
    seeds: tuple[int, ...]

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)


# Worker-process global, installed once per worker by ``_init_worker``
# (the pool initializer).  Tasks consult it instead of carrying the
# state through pickled task args.
_WORKER_STATE: ClusterState | None = None


def _init_worker(state: "ClusterState") -> None:
    """Pool initializer: keep the worker's copy of the instance."""
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_one(
    config: "SRAConfig", state: "ClusterState", ledger: "ExchangeLedger | None"
) -> "RebalanceResult":
    """One restart."""
    from repro.algorithms.sra import SRA

    return SRA(config).rebalance(state, ledger)


def _run_one_shared(config: "SRAConfig", ledger: "ExchangeLedger | None") -> "RebalanceResult":
    """One restart over the state the worker received at start."""
    state = _WORKER_STATE
    if state is None:
        raise RuntimeError("restart task ran in a worker without _init_worker")
    return _run_one(config, state, ledger)


def run_sra_restarts(
    state: "ClusterState",
    ledger: "ExchangeLedger | None" = None,
    *,
    config: "SRAConfig",
    restarts: int,
    n_workers: int = 1,
    timeout_s: float | None = None,
) -> RestartReport:
    """Run *restarts* SRA searches; return the best result.

    Each restart gets its spawned seed and ``restarts=1, n_workers=1``
    (so a restart never recursively fans out).  With ``n_workers > 1``
    the fan-out runs on a worker pool that receives *state* once per
    worker; results stay bitwise-identical to the serial path.  Raises
    ``RuntimeError`` when every restart failed.
    """
    if check_int("restarts", restarts) < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    check_positive("n_workers", check_int("n_workers", n_workers))
    seeds = spawn_seeds(config.alns.seed, restarts)
    configs = [replace(config, seed=seed, restarts=1, n_workers=1) for seed in seeds]
    if n_workers == 1:
        runner = ParallelRunner(1, timeout_s=timeout_s)
        fn, args = _run_one, (state, ledger)
    else:
        runner = ParallelRunner(
            n_workers, timeout_s=timeout_s, initializer=_init_worker, initargs=(state,)
        )
        fn, args = _run_one_shared, (ledger,)
    specs = [
        TaskSpec(fn=fn, args=(cfg, *args), name=f"sra.restart[{k}]", seed=seed)
        for k, (cfg, seed) in enumerate(zip(configs, seeds, strict=True))
    ]
    with runner:
        results = runner.run(specs)
    return _select(results, seeds, restarts)


def _select(
    results: list[TaskResult], seeds: tuple[int, ...], restarts: int
) -> RestartReport:
    """Deterministic winner selection + iteration re-totalling."""
    succeeded = [r for r in results if r.ok]
    if not succeeded:
        errors = "; ".join(f"{r.name}: {r.error}" for r in results)
        raise RuntimeError(f"all {restarts} SRA restarts failed ({errors})")
    best_row = min(succeeded, key=_selection_key)
    # A *copy* of the winning result carries the fan-out-wide iteration
    # total; mutating best_row.value in place would corrupt the winner's
    # own row in ``results`` (it used to, see tests/test_parallel_pool.py).
    best: "RebalanceResult" = replace(
        best_row.value, iterations=sum(r.value.iterations for r in succeeded)
    )
    return RestartReport(best=best, results=results, seeds=seeds)


def _selection_key(row: TaskResult) -> tuple[bool, float, int]:
    result: "RebalanceResult" = row.value
    return (not result.feasible, result.peak_after, result.num_moves)
