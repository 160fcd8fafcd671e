"""SRA — the Shard Reassignment Algorithm (the paper's contribution).

SRA couples the ALNS engine with the exchange semantics:

1. the working cluster already contains the borrowed machines (vacant);
2. the objective carries the vacancy-return constraint as a penalty, so
   the search is pulled toward states with ``R`` empty machines;
3. a candidate may only become the incumbent best if (a) it satisfies
   hard capacity, (b) the exchange ledger can be settled on it, and
   (c) a transient-feasible migration schedule exists (staging through
   spare machines allowed) — the *feasibility coupling*;
4. the returned plan includes the staged migration schedule and the
   ledger settlement, so a result is an executable artifact, not just a
   target assignment.

Ablation switches (experiment E10) expose each design decision.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.cluster import ClusterState, ExchangeLedger
from repro.algorithms.baselines import LocalSearchRebalancer
from repro.migration import PlanResult, StagingPlanner, diff_moves
from repro.algorithms.base import RebalanceResult, Rebalancer, finalize_result
from repro.algorithms.budget import MigrationBudget
from repro.algorithms.destroy import (
    DEFAULT_DESTROY_OPS,
    BudgetLocalityBias,
    DestroyOperator,
    random_removal,
    shaw_removal,
    worst_machine_removal,
)
from repro.algorithms.lns import AlnsEngine
from repro.algorithms.objective import Objective
from repro.algorithms.repair import DEFAULT_REPAIR_OPS
from repro.algorithms.sra_config import SRAConfig

__all__ = ["SRA", "SRAConfig", "MigrationBudget"]


class SRA(Rebalancer):
    """Large-neighborhood-search shard reassignment with resource exchange.

    Usage::

        grown, ledger = ExchangeLedger.borrow(state, exchange_machines)
        result = SRA(SRAConfig(seed=1)).rebalance(grown, ledger)

    Without a ledger SRA degenerates to a plain LNS rebalancer over the
    given machines (useful as the no-exchange ablation).
    """

    name = "sra"

    def __init__(self, config: SRAConfig | None = None) -> None:
        self.config = config or SRAConfig()

    # ------------------------------------------------------------------ API
    def rebalance(
        self,
        state: ClusterState,
        ledger: ExchangeLedger | None = None,
        *,
        warm_start: "np.ndarray | None" = None,
    ) -> RebalanceResult:
        """Solve one episode.

        ``warm_start`` seeds the search from an explicit assignment (the
        serving placement of a continuous controller, a previous round's
        incumbent, ...) instead of ``state.assignment``.  The *objective
        reference* stays ``state.assignment`` regardless: move penalties,
        the migration plan, and any ``migration_budget`` are measured
        against the placement the cluster is actually serving from, so a
        warm-started round still returns an executable delta.  Passing
        ``warm_start=state.assignment`` (or ``None``) is bitwise-identical
        to the historical cold solve — the warm-start contract pinned by
        the parity tests.
        """
        cfg = self.config
        if cfg.restarts > 1:
            if warm_start is not None:
                raise ValueError(
                    "warm_start requires restarts == 1: the restart fan-out "
                    "seeds each restart from the published instance state"
                )
            # Best-of-K independent restarts, fanned across the worker
            # pool sized by n_workers (see repro.parallel).
            from repro.parallel import run_sra_restarts

            report = run_sra_restarts(
                state,
                ledger,
                config=cfg,
                restarts=cfg.restarts,
                n_workers=cfg.n_workers,
            )
            return report.best
        started = time.perf_counter()  # repro: allow-wall-clock (runtime reporting)
        required = ledger.required_returns if ledger is not None else 0

        objective = Objective(
            state.assignment,
            state.sizes,
            required_returns=required,
            weights=cfg.weights,
        )
        planner = StagingPlanner()
        budget = cfg.migration_budget
        if budget is not None and not budget.bounded:
            budget = None
        reference = state.assignment_view()
        sizes = state.sizes

        def within_budget(candidate: ClusterState) -> bool:
            assert budget is not None
            moved = candidate.assignment_view() != reference
            return budget.admits(
                int(np.count_nonzero(moved)), float(sizes[moved].sum())
            )

        # The plan of the last candidate the filter passed, keyed by its
        # assignment: finalize_result reuses it when that candidate is
        # the returned target.
        vetted: tuple[np.ndarray, PlanResult] | None = None

        def best_filter(candidate: ClusterState) -> bool:
            nonlocal vetted
            if budget is not None and not within_budget(candidate):
                return False
            if not cfg.feasibility_coupling:
                return objective.is_feasible(candidate)
            if not objective.is_feasible(candidate):
                return False
            if ledger is not None and not ledger.is_satisfiable(candidate):
                return False
            assignment = candidate.assignment
            plan = planner.plan(state, assignment, moves=diff_moves(state, assignment))
            if not plan.feasible:
                return False
            # The authoritative byte cap: what the executor would actually
            # transfer, staging hops included.
            if (
                budget is not None
                and budget.max_bytes is not None
                and plan.schedule.total_bytes() > budget.max_bytes
            ):
                return False
            vetted = (assignment, plan)
            return True

        work = state.copy()
        if warm_start is not None:
            warm = np.asarray(warm_start, dtype=np.int64)
            if warm.shape != (state.num_shards,):
                raise ValueError(
                    f"warm_start must have shape ({state.num_shards},), "
                    f"got {warm.shape}"
                )
            work.apply_assignment(warm)
        _block_designees(work, ledger, required)

        engine = AlnsEngine(
            cfg.alns, self._destroy_ops(budget, reference, sizes), DEFAULT_REPAIR_OPS
        )
        initial_valid = objective.is_feasible(work) and (
            ledger is None or ledger.is_satisfiable(work)
        )
        tracer = obs.current().tracer
        with tracer.span(
            "sra.search", required_returns=required, seed=cfg.alns.seed
        ):
            outcome = engine.run(
                work,
                objective,
                best_filter=best_filter,
                initial_is_valid_best=initial_valid,
            )

        target = (
            outcome.best_assignment
            if outcome.best_assignment is not None
            else state.assignment
        )
        if outcome.best_assignment is not None and cfg.polish:
            with tracer.span("sra.polish", steps=cfg.polish_steps) as polish_span:
                polished = self._polish(state, outcome.best_assignment, ledger, required)
                kept = objective(polished) < outcome.best_objective - 1e-12 and (
                    best_filter(polished)
                )
                polish_span.set("kept", kept)
                if kept:
                    target = polished.assignment
        result = finalize_result(
            self.name,
            state,
            target,
            ledger=ledger,
            planner=planner,
            plan=(
                vetted[1]
                if vetted is not None and np.array_equal(vetted[0], target)
                else None
            ),
            started_at=started,
            iterations=outcome.iterations,
            history=outcome.history,
        )
        if outcome.best_assignment is None:
            # Nothing valid was found (e.g. impossible vacancy contract);
            # report the no-op but flag infeasibility of the contract.
            result.feasible = False
        return result

    # ------------------------------------------------------------- internal
    def _polish(
        self,
        state: ClusterState,
        best: "np.ndarray",
        ledger: ExchangeLedger | None,
        required: int,
    ) -> ClusterState:
        """Steepest-descent move/swap polish of the incumbent.

        Designated-return machines (any ``required`` vacant machines of
        the incumbent, borrowed ones first) are blocked so the descent
        cannot spend them.
        """
        polished = state.copy()
        polished.apply_assignment(best)
        _block_designees(polished, ledger, required)
        ls = LocalSearchRebalancer(seed=self.config.alns.seed)
        ls.improve_in_place(
            polished,
            np.random.default_rng(self.config.alns.seed),
            max_steps=self.config.polish_steps,
        )
        return polished

    def _destroy_ops(
        self,
        budget: MigrationBudget | None = None,
        reference: "np.ndarray | None" = None,
        sizes: "np.ndarray | None" = None,
    ) -> tuple[DestroyOperator, ...]:
        if self.config.use_vacancy_removal:
            ops: tuple[DestroyOperator, ...] = DEFAULT_DESTROY_OPS
        else:
            # Ablation: no vacancy-minting and no designee swapping.
            ops = (random_removal, worst_machine_removal, shaw_removal)
        if budget is None or reference is None or sizes is None:
            return ops
        # Bounded episode: every operator explores within budget (see
        # BudgetLocalityBias).  The portfolio shape — and hence the
        # roulette RNG stream — is unchanged; only removal targets shift
        # once the working state reaches the budget boundary.
        return tuple(
            BudgetLocalityBias(op, reference, sizes, budget) for op in ops
        )


def _block_designees(
    work: ClusterState, ledger: ExchangeLedger | None, required: int
) -> None:
    """Block *required* vacant machines of *work* as designated returns.

    Blocked machines are kept empty, so every state the search or the
    polish visits satisfies the exchange contract structurally; the
    exchange_swap_removal operator searches over which machines those
    are.  Borrowed machines are preferred, then the lowest ids.  A start
    with fewer than *required* vacancies (a continuous release round:
    borrow nothing, owe R) is drained first.  The polish starts from an
    incumbent the best filter passed, which already has R vacancies.
    """
    if required <= 0:
        return
    vacant = list(work.vacant_machines())
    if len(vacant) < required:
        _drain_machines(work, required - len(vacant))
        vacant = list(work.vacant_machines())
    preferred = [m for m in (ledger.borrowed_ids if ledger else ()) if m in vacant]
    chosen = set(preferred)
    rest = [m for m in vacant if m not in chosen]
    for mid in (preferred + rest)[:required]:
        work.block_machine(int(mid))


def _drain_machines(work: ClusterState, count: int) -> None:
    """Vacate the *count* least-utilized open machines of *work* in place.

    Support for continuous release rounds: when the ledger owes more
    returns than there are vacant machines, the designee-blocking prelude
    has nothing to block and ``exchange_swap_removal`` (which only swaps
    an *existing* designee) can never establish the contract.  This
    drains the cheapest occupied machines greedily — each shard, largest
    first, to the open machine with the most summed headroom — producing
    a valid (not necessarily feasible) start the search then repacks.
    Fully deterministic: ties resolve to the lowest machine id.
    """
    blocked = work.blocked_mask | work.offline_mask
    counts = work.shard_counts()
    occupied = np.flatnonzero(~blocked & (counts > 0))
    if occupied.size <= count:
        # Impossible contract (no machine would be left to host the
        # drained shards): leave the state untouched — the search then
        # reports the episode infeasible, the historical behaviour.
        return
    util = (work.loads[occupied] / work.capacity[occupied]).sum(axis=1)
    victims = occupied[np.argsort(util, kind="stable")[:count]]
    # Destinations: open machines that are neither a victim nor already
    # vacant (existing vacancies are the other designees — keep them so).
    banned = blocked.copy()
    banned[victims] = True
    banned[counts == 0] = True
    for victim in victims:
        members = work.machine_shards(int(victim))
        members = members[np.argsort(-work.demand[members].sum(axis=1), kind="stable")]
        for shard in members:
            head = work.headroom().sum(axis=1)
            head[banned] = -np.inf
            work.move(int(shard), int(np.argmax(head)))
