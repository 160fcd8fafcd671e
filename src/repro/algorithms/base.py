"""Rebalancer interface and result container.

Every algorithm — SRA and all baselines — implements
:class:`Rebalancer.rebalance` and returns a :class:`RebalanceResult`, so
the experiment harness treats them uniformly.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster import ClusterState, ExchangeLedger, ExchangeSettlement, ExchangeViolation
from repro.migration import PlanResult, StagingPlanner

__all__ = ["RebalanceResult", "Rebalancer", "finalize_result"]


@dataclass
class RebalanceResult:
    """Outcome of one rebalancing episode.

    Attributes
    ----------
    algorithm:
        Name of the producing algorithm.
    target_assignment:
        Proposed final assignment.
    feasible:
        Hard feasibility: capacity respected, vacancy contract satisfiable
        and a transient-feasible migration schedule exists.
    peak_before / peak_after:
        Cluster peak utilization before and after.
    plan:
        The migration plan (None when the algorithm proposes no change).
    settlement:
        Exchange settlement (None when no ledger was involved or the
        contract could not be satisfied).
    runtime_seconds:
        Wall-clock time of the algorithm itself (planning included).
    iterations:
        Search iterations performed (0 for constructive baselines).
    history:
        Objective trace (per accepted iteration), for convergence plots.
    """

    algorithm: str
    target_assignment: np.ndarray
    feasible: bool
    peak_before: float
    peak_after: float
    plan: PlanResult | None = None
    settlement: ExchangeSettlement | None = None
    runtime_seconds: float = 0.0
    iterations: int = 0
    history: list[float] = field(default_factory=list)

    @property
    def num_moves(self) -> int:
        """Logical shard moves (staging hops not double counted)."""
        if self.plan is None:
            return 0
        return len({mv.shard_id for mv in self.plan.schedule.all_moves()})

    @property
    def improvement(self) -> float:
        """Absolute reduction of peak utilization."""
        return self.peak_before - self.peak_after


class Rebalancer(ABC):
    """Interface of every rebalancing algorithm."""

    #: Human-readable algorithm name (used in tables).
    name: str = "rebalancer"

    @abstractmethod
    def rebalance(
        self, state: ClusterState, ledger: ExchangeLedger | None = None
    ) -> RebalanceResult:
        """Compute a rebalancing for *state*.

        *state* is never mutated.  *ledger* carries the exchange contract
        (borrowed machines are already part of *state* in that case).
        """


def finalize_result(
    algorithm: str,
    state: ClusterState,
    target: np.ndarray,
    *,
    ledger: ExchangeLedger | None,
    planner: StagingPlanner,
    started_at: float,
    iterations: int = 0,
    history: list[float] | None = None,
    plan: PlanResult | None = None,
) -> RebalanceResult:
    """Shared epilogue: plan the migration, settle the ledger, time it.

    Used by every concrete rebalancer so feasibility is judged by one code
    path.  *plan*, when given, is ``planner.plan(state, target)`` made
    earlier (SRA's best filter plans every incumbent it accepts) and is
    used instead of planning the same target again.
    """
    tracer = obs.current().tracer
    final = state.copy()
    final.apply_assignment(target)
    with tracer.span("migration.plan", algorithm=algorithm) as plan_span:
        plan_span.set("reused", plan is not None)
        if plan is None:
            plan = planner.plan(state, target)
        plan_span.set("feasible", plan.feasible)
        plan_span.set("direct_feasible", plan.direct_feasible)
        plan_span.set("staged_shards", len(plan.staged_shards))
        plan_span.set("waves", plan.schedule.num_waves)
        plan_span.set("moves", plan.schedule.num_moves)

    settlement = None
    contract_ok = True
    if ledger is not None:
        with tracer.span("exchange.settle") as settle_span:
            try:
                settlement = ledger.settle(final)
                settle_span.set("returned", len(settlement.returned_ids))
                settle_span.set(
                    "exchanged", len(settlement.retained_borrowed_ids)
                )
            except ExchangeViolation as exc:
                contract_ok = False
                settle_span.set("violation", str(exc))

    feasible = (
        bool(final.is_within_capacity())
        and plan.feasible
        and contract_ok
        and final.is_fully_assigned()
    )
    return RebalanceResult(
        algorithm=algorithm,
        target_assignment=np.asarray(target, dtype=np.int64).copy(),
        feasible=feasible,
        peak_before=state.peak_utilization(),
        peak_after=final.peak_utilization(),
        plan=plan,
        settlement=settlement,
        # repro: allow-wall-clock (runtime_seconds reporting)
        runtime_seconds=time.perf_counter() - started_at,
        iterations=iterations,
        history=history or [],
    )
