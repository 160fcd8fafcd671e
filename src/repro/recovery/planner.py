"""Machine-failure recovery.

When a machine dies, its shards are **orphaned**: their serving copies
are gone and must be rebuilt elsewhere (from replica siblings when the
index is replicated, from cold storage otherwise).  Recovery has the
same structure as rebalancing — place load under capacity, anti-affinity
and transient constraints — but with two twists:

* orphaned shards have no migration source, so their placement costs a
  *rebuild* (bytes pulled from a surviving sibling or backup), not a
  two-ended move;
* the cluster just lost a machine's capacity, so tight clusters may have
  no feasible recovery at all — which is exactly where borrowed exchange
  machines act as spare capacity (experiment E12).

:func:`fail_machine` degrades a state in place-compatible fashion
(orphans unassigned, machine blocked so nothing returns to it);
:class:`RecoveryPlanner` places the orphans and optionally rebalances
the result with SRA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.algorithms import RebalanceResult, SRA, SRAConfig
from repro.algorithms.repair import greedy_best_fit
from repro.cluster import ClusterState, ExchangeLedger

__all__ = ["fail_machine", "RecoveryResult", "RecoveryPlanner"]


def fail_machine(state: ClusterState, machine_id: int) -> tuple[ClusterState, list[int]]:
    """Return a degraded copy of *state* with *machine_id* failed.

    The machine's shards become unassigned (orphaned) and the machine is
    blocked so no algorithm places anything back on it.  The input state
    is not mutated.
    """
    if not 0 <= machine_id < state.num_machines:
        raise ValueError(f"unknown machine {machine_id}")
    degraded = state.copy()
    orphans = [int(j) for j in degraded.machine_shards(machine_id)]
    for j in orphans:
        degraded.unassign(j)
    degraded.set_offline(machine_id)
    return degraded, orphans


@dataclass
class RecoveryResult:
    """Outcome of a recovery episode.

    Attributes
    ----------
    feasible:
        All orphans placed within capacity, without replica conflicts.
    assignment:
        Final assignment (orphans placed; possibly rebalanced).
    peak_after:
        Peak utilization of the recovered cluster (failed machine's
        zero load excluded — it is out of service).
    rebuild_bytes:
        Bytes that must be copied to rebuild the orphaned shards.
    rebuild_sources:
        ``{shard: source_machine}`` — the surviving sibling to copy
        from, or -1 when no sibling exists (cold-storage rebuild).
    rebalance:
        The follow-up SRA result when rebalancing was requested.
    """

    feasible: bool
    assignment: np.ndarray
    peak_after: float
    rebuild_bytes: float
    rebuild_sources: dict[int, int]
    rebalance: RebalanceResult | None = None


class RecoveryPlanner:
    """Place orphaned shards, then optionally rebalance.

    Parameters
    ----------
    rebalance_after:
        When True, run SRA on the recovered cluster (an episode on its
        own, honouring any exchange ledger).
    sra_config:
        Configuration of the follow-up SRA.
    """

    def __init__(
        self,
        *,
        rebalance_after: bool = False,
        sra_config: SRAConfig | None = None,
    ) -> None:
        self.rebalance_after = rebalance_after
        self.sra_config = sra_config or SRAConfig()

    def recover(
        self,
        degraded: ClusterState,
        orphans: list[int],
        ledger: ExchangeLedger | None = None,
    ) -> RecoveryResult:
        """Recover *degraded* (as produced by :func:`fail_machine`).

        Orphans are placed by greedy best-fit insertion (capacity,
        anti-affinity and blocked machines respected); rebuild sources
        are surviving replica siblings where available.  The placement
        draws no random numbers, and the rebalance after it is seeded
        by ``sra_config.alns.seed``, so recovery plans are reproducible
        under user-controlled seeding.
        """
        tracer = obs.current().tracer
        with tracer.span(
            "recovery.recover", orphans=len(orphans), seed=self.sra_config.alns.seed
        ) as recovery_span:
            work = degraded.copy()
            missing = [j for j in orphans if work.machine_of(j) < 0]
            rng = np.random.default_rng(self.sra_config.alns.seed)
            with tracer.span("recovery.place", missing=len(missing)):
                greedy_best_fit(work, rng, missing)

            # Peak over in-service machines only.
            peaks = work.machine_peak_utilization()
            in_service = ~work.offline_mask
            peak = float(peaks[in_service].max()) if np.any(in_service) else 0.0

            feasible = (
                work.is_fully_assigned()
                and work.is_within_capacity()
                and not work.has_replica_conflicts()
            )

            sources: dict[int, int] = {}
            rebuild = 0.0
            for j in orphans:
                rebuild += float(work.sizes[j])
                peer_hosts = work.replica_peer_machines(j)
                # Exclude the shard's own new machine as a "source".
                peer_hosts = peer_hosts[peer_hosts != work.machine_of(j)]
                sources[j] = int(peer_hosts[0]) if peer_hosts.size else -1

            rebalance = None
            if self.rebalance_after and feasible:
                with tracer.span("recovery.rebalance"):
                    rebalance = SRA(self.sra_config).rebalance(work, ledger)
                if rebalance.feasible:
                    work.apply_assignment(rebalance.target_assignment)
                    peaks = work.machine_peak_utilization()
                    peak = float(peaks[in_service].max())

            recovery_span.set("feasible", feasible)
            recovery_span.set("peak_after", peak)
            recovery_span.set("rebuild_bytes", rebuild)
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.counter("recovery.episodes").inc()
            metrics.counter("recovery.rebuild_bytes").inc(rebuild)
            metrics.gauge("recovery.peak_after").set(peak)

        return RecoveryResult(
            feasible=feasible,
            assignment=work.assignment,
            peak_after=peak,
            rebuild_bytes=rebuild,
            rebuild_sources=sources,
            rebalance=rebalance,
        )
