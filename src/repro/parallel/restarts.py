"""Parallel SRA restarts: shared-memory pool, blind or cooperative.

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

The multi-worker fan-out runs on the :class:`ParallelRunner` pool over
**shared-memory state**: the parent publishes the instance once via
:func:`repro.parallel.shm.publish_state` and each worker attaches at
spawn, so a restart task pickles only its config — not tens of
thousands of machine/shard dataclasses.  This is what turned the pool
from a slowdown (BENCH_alns.json historically recorded 0.70x at 2
workers on m50) into a speedup on instances large enough to amortize
the worker spawn.

``cooperative=True`` upgrades blind best-of-K to a portfolio: restarts
periodically publish/adopt incumbents through a shared best-solution
slot (:class:`repro.parallel.shm.IncumbentSlot`), in the spirit of
token-based portfolio load balancing (Comte, PAPERS.md).  Cooperative
results depend on worker *timing* and are therefore not reproducible
across runs or worker counts — exchange events are recorded via
``repro.obs`` (``alns.exchange.*``) for auditing.  The serial
cooperative portfolio (``n_workers=1``) runs restarts sequentially
against an in-process slot and *is* deterministic: restart ``k`` warm
starts from the best of restarts ``0..k-1``.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.parallel.runner import ParallelRunner, TaskResult, TaskSpec
from repro.parallel.seeds import spawn_seeds
from repro.parallel.shm import (
    AttachedState,
    IncumbentExchange,
    IncumbentHandle,
    IncumbentSlot,
    StateHandle,
    attach_incumbent,
    attach_state,
    local_incumbent_exchange,
    publish_state,
)

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


# Worker-process globals, installed once per worker by ``_init_worker``
# (the pool initializer).  Tasks consult them instead of carrying
# the state / exchange through pickled task args.
_WORKER_STATE: AttachedState | None = None
_WORKER_EXCHANGE: IncumbentExchange | None = None


def _init_worker(
    state_handle: StateHandle,
    slot_handle: IncumbentHandle | None,
    lock: Any,
    period: int,
) -> None:
    """Pool initializer: attach shared segments once.

    Runs in the worker process at spawn.  The lock arrives through
    ``Process`` creation (``multiprocessing`` primitives cannot cross
    task pipes).  Attach-only: the parent owns both segments' unlink.
    """
    global _WORKER_STATE, _WORKER_EXCHANGE
    _WORKER_STATE = attach_state(state_handle)
    _WORKER_EXCHANGE = (
        attach_incumbent(slot_handle, lock, period) if slot_handle is not None else None
    )


def _run_one(
    config: "SRAConfig",
    state: "ClusterState",
    ledger: "ExchangeLedger | None",
    exchange: IncumbentExchange | None = None,
) -> "RebalanceResult":
    """One restart; a cooperative restart gets its own exchange client."""
    from repro.algorithms.sra import SRA

    client = None if exchange is None else exchange.clone()
    return SRA(config, exchange=client).rebalance(state, ledger)


def _run_one_shared(config: "SRAConfig", ledger: "ExchangeLedger | None") -> "RebalanceResult":
    """One restart over the worker's attached shared-memory state."""
    attached = _WORKER_STATE
    if attached is None:
        raise RuntimeError("shared-state task ran in a worker without _init_worker")
    return _run_one(config, attached.state, ledger, _WORKER_EXCHANGE)


def run_sra_restarts(
    state: "ClusterState",
    ledger: "ExchangeLedger | None" = None,
    *,
    config: "SRAConfig",
    restarts: int,
    n_workers: int = 1,
    timeout_s: float | None = None,
    cooperative: bool = False,
    exchange_period: int = 50,
) -> RestartReport:
    """Run *restarts* SRA searches; return the best result.

    Each restart gets its spawned seed and ``restarts=1, n_workers=1,
    cooperative=False`` (so a restart never recursively fans out).
    With ``n_workers > 1`` the fan-out runs on a worker pool that reads
    *state* from shared memory; blind-mode results stay
    bitwise-identical to the serial path.  ``cooperative`` switches
    blind best-of-K to portfolio search with incumbent exchange every
    *exchange_period* iterations (see module docstring for the
    determinism caveat).  Raises ``RuntimeError`` when every restart
    failed.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    seeds = spawn_seeds(config.alns.seed, restarts)
    configs = [
        replace(config, seed=seed, restarts=1, n_workers=1, cooperative=False)
        for seed in seeds
    ]
    with ExitStack() as owned:
        if n_workers == 1:
            exchange = (
                local_incumbent_exchange(state.num_shards, state.num_machines, exchange_period)
                if cooperative
                else None
            )
            runner = ParallelRunner(1, timeout_s=timeout_s)
            fn, args = _run_one, (state, ledger, exchange)
        else:
            # The parent owns both segments: the stack closes and unlinks
            # them after the runner has shut its workers down.
            shared = owned.enter_context(publish_state(state))
            slot = (
                owned.enter_context(IncumbentSlot(state.num_shards, state.num_machines))
                if cooperative
                else None
            )
            runner = ParallelRunner(
                n_workers,
                timeout_s=timeout_s,
                initializer=_init_worker,
                initargs=(
                    shared.handle,
                    None if slot is None else slot.handle,
                    None if slot is None else slot.lock,
                    exchange_period,
                ),
            )
            fn, args = _run_one_shared, (ledger,)
        specs = [
            TaskSpec(fn=fn, args=(cfg, *args), name=f"sra.restart[{k}]", seed=seed)
            for k, (cfg, seed) in enumerate(zip(configs, seeds, strict=True))
        ]
        results = owned.enter_context(runner).run(specs)
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
