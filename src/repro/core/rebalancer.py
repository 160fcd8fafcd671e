"""The public facade: borrow, rebalance, plan, settle — in one call.

:class:`ResourceExchangeRebalancer` is the API a downstream user touches:

    >>> from repro import ResourceExchangeRebalancer
    >>> from repro.workloads import generate_zipf
    >>> state = generate_zipf(seed=1)
    >>> report = ResourceExchangeRebalancer(exchange_machines=2).run(state)
    >>> print(report.format_table())          # doctest: +SKIP

It owns the full episode: augment the cluster with borrowed machines,
run the configured algorithm (SRA by default), plan the transient-safe
migration, settle the vacancy-return contract, and package metrics.
"""

from __future__ import annotations

from typing import get_args

from repro import obs
from repro._validation import check_in, check_int, check_non_negative
from repro.algorithms import Rebalancer, SRA, SRAConfig
from repro.cluster import ClusterState, ExchangeLedger
from repro.cluster.exchange import ReturnPolicy
from repro.core.report import RebalanceReport
from repro.metrics import imbalance_report, summarize_plan
from repro.migration import BandwidthModel
from repro.obs.metrics import UTILIZATION_EDGES
from repro.workloads import make_exchange_machines

__all__ = ["ResourceExchangeRebalancer"]


class ResourceExchangeRebalancer:
    """One-call rebalancing with resource exchange.

    Parameters
    ----------
    algorithm:
        A :class:`Rebalancer` instance; defaults to SRA with default
        configuration.
    exchange_machines:
        ``B`` — vacant machines to borrow (sized at the fleet's mean
        capacity; pass ``exchange_capacity_scale`` to change).
    required_returns:
        ``R`` — vacant machines owed back; defaults to ``B``.
    return_policy:
        ``"count"`` (default) or ``"capacity"`` — see
        :class:`repro.cluster.ExchangeLedger`.
    exchange_capacity_scale:
        Borrowed machine capacity relative to the fleet mean.
    bandwidth:
        Network model for makespan reporting.
    """

    def __init__(
        self,
        algorithm: Rebalancer | None = None,
        *,
        exchange_machines: int = 0,
        required_returns: int | None = None,
        return_policy: ReturnPolicy = "count",
        exchange_capacity_scale: float = 1.0,
        bandwidth: BandwidthModel | None = None,
    ) -> None:
        check_non_negative("exchange_machines", check_int("exchange_machines", exchange_machines))
        if required_returns is not None:
            check_non_negative("required_returns", check_int("required_returns", required_returns))
        check_in("return_policy", return_policy, get_args(ReturnPolicy))
        self.algorithm = algorithm or SRA(SRAConfig())
        self.exchange_machines = exchange_machines
        self.required_returns = (
            exchange_machines if required_returns is None else required_returns
        )
        self.return_policy = return_policy
        self.exchange_capacity_scale = exchange_capacity_scale
        self.bandwidth = bandwidth or BandwidthModel()

    def run(self, state: ClusterState) -> RebalanceReport:
        """Execute one full rebalancing episode on *state* (not mutated).

        When an observability bundle is active (``repro.obs``), the
        episode is traced phase by phase — borrow, search (algorithm
        internals included), evaluate — and the returned report carries
        the trace records and the metrics snapshot as attachments.
        """
        o = obs.current()
        with o.tracer.span(
            "episode",
            algorithm=self.algorithm.name,
            machines=state.num_machines,
            shards=state.num_shards,
            exchange_machines=self.exchange_machines,
            required_returns=self.required_returns,
        ) as episode:
            with o.tracer.span("exchange.borrow", requested=self.exchange_machines):
                loaners = make_exchange_machines(
                    state,
                    self.exchange_machines,
                    capacity_scale=self.exchange_capacity_scale,
                )
                grown, ledger = ExchangeLedger.borrow(
                    state,
                    loaners,
                    required_returns=self.required_returns,
                    policy=self.return_policy,
                )
            with o.tracer.span("search", algorithm=self.algorithm.name):
                result = self.algorithm.rebalance(grown, ledger)

            with o.tracer.span("evaluate"):
                final = grown.copy()
                final.apply_assignment(result.target_assignment)
                before = imbalance_report(grown)
                after = imbalance_report(final)
                migration = summarize_plan(
                    result.plan, grown.num_machines, self.bandwidth
                )
            exchanged = (
                len(result.settlement.retained_borrowed_ids)
                if result.settlement is not None
                else 0
            )
            returned = (
                len(result.settlement.returned_ids)
                if result.settlement is not None
                else 0
            )
            episode.set("feasible", result.feasible)
            episode.set("peak_before", before.peak_utilization)
            episode.set("peak_after", after.peak_utilization)

        if o.metrics.enabled:
            m = o.metrics
            m.counter("episode.runs").inc()
            m.counter("episode.moves").inc(migration.num_moves)
            m.counter("episode.bytes_moved").inc(migration.total_bytes)
            m.gauge("episode.peak_before").set(before.peak_utilization)
            m.gauge("episode.peak_after").set(after.peak_utilization)
            m.gauge("episode.makespan_seconds").set(migration.makespan_seconds)
            m.histogram("episode.machine_utilization", UTILIZATION_EDGES).observe_many(
                final.machine_peak_utilization().tolist()
            )
        return RebalanceReport(
            result=result,
            before=before,
            after=after,
            migration=migration,
            borrowed=len(loaners),
            returned=returned,
            exchanged=exchanged,
            trace=o.tracer.records() if o.tracer.enabled else None,
            metrics=o.metrics.to_dict() if o.metrics.enabled else None,
        )
