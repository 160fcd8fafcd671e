"""E15 — serving latency through the migration window (extension).

The move penalty λ of the objective exists because migrating is not
free: during the window, transferring machines serve slower.  This
experiment runs SRA at two λ settings (balance-greedy vs move-frugal)
on the same engine-derived cluster and reports serving latency around
the migration plus the window length.

Claims: queries arriving during the migration window see a worse tail
than those outside it; the final placement is much better in steady
state; a larger λ gives fewer moves, shortens the window and softens the
window's tail at a small cost in final balance.

Rows per variant:

* ``mode="steady"`` — steady-state serving without a migration,
  ``before`` on the initial placement and ``after`` on the final one;
* ``mode="timeline"`` — one continuous run on the event runtime with the
  migration kicked off a quarter of the way in: per-wave latency rows
  (queries arriving while that wave's transfers are in flight) plus
  pooled ``window`` / ``outside`` rows.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import AlnsConfig, ObjectiveWeights, SRA, SRAConfig
from repro.cluster import ClusterState, ExchangeLedger, Machine
from repro.engine import CorpusConfig, ShardedIndex, generate_corpus, generate_queries
from repro.experiments.e8_latency import _biased_feasible_placement
from repro.experiments.harness import register
from repro.migration import BandwidthModel
from repro.simulate import (
    ServingConfig,
    WorkProfile,
    simulate_migration_timeline,
    simulate_serving,
)
from repro.workloads import make_exchange_machines

_QPS = 60.0
_PPCS = 2e5


@register("e15")
def run(fast: bool = True, *, placement_seed: int = 7) -> list[dict]:
    num_docs = 4000 if fast else 20000
    num_shards = 24 if fast else 48
    num_machines = 6 if fast else 12
    iterations = 500 if fast else 2000

    cfg = CorpusConfig(num_docs=num_docs, vocab_size=4000, seed=3)
    docs = generate_corpus(cfg)
    index = ShardedIndex.build(docs, num_shards)
    queries = generate_queries(cfg, 150 if fast else 500)
    profile = WorkProfile.measure(index, queries)
    shards = index.to_cluster_shards(
        queries, queries_per_second=_QPS, postings_per_cpu_second=_PPCS
    )
    demand = np.stack([s.demand for s in shards])
    capacity = demand.sum(axis=0) / (num_machines * 0.75)
    machines = Machine.homogeneous(
        num_machines, {n: float(c) for n, c in zip(shards[0].schema.names, capacity, strict=True)}
    )
    rng = np.random.default_rng(placement_seed)
    weights = rng.dirichlet(np.full(num_machines, 1.5))
    assign = _biased_feasible_placement(demand, capacity, weights, rng)
    state = ClusterState(machines, shards, assign)

    serving = ServingConfig(
        arrival_rate=_QPS,
        duration=40.0 if fast else 120.0,
        postings_per_cpu_second=_PPCS,
        seed=11,
    )
    # Engine shard sizes are index bytes; the bandwidth model is bytes/s.
    # A deliberately slow replication NIC (so the window is non-trivial
    # relative to byte volume) — production would throttle similarly.
    net = BandwidthModel(bandwidth=5e5)

    rows = []
    for label, penalty in (("balance-greedy λ=0.002", 0.002), ("move-frugal λ=0.30", 0.30)):
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        sra = SRA(
            SRAConfig(
                alns=AlnsConfig(iterations=iterations, seed=1),
                weights=ObjectiveWeights(move_penalty=penalty),
            )
        )
        result = sra.rebalance(grown, ledger)
        final = grown.copy()
        final.apply_assignment(result.target_assignment)
        makespan = net.cost(result.plan.schedule, grown.num_machines).makespan_seconds
        for phase, placement in (("before", grown), ("after", final)):
            rep = simulate_serving(placement, profile, list(range(num_shards)), serving)
            rows.append(
                {
                    "variant": label,
                    "mode": "steady",
                    "phase": phase,
                    "p50_ms": 1e3 * rep.latency.p50,
                    "p95_ms": 1e3 * rep.latency.p95,
                    "p99_ms": 1e3 * rep.latency.p99,
                    "mean_ms": 1e3 * rep.latency.mean,
                    "peak_busy": rep.peak_busy_fraction,
                    "moves": result.num_moves,
                    "window_s": makespan,
                }
            )
        timeline = simulate_migration_timeline(
            grown,
            result.target_assignment,
            result.plan,
            profile,
            serving,
            bandwidth=net,
            transfer_overhead=0.3,
            migration_start=0.25 * serving.duration,
            shard_to_engine_shard=list(range(num_shards)),
        )
        for phase_row in timeline.rows():
            rows.append(
                {
                    "variant": label,
                    "mode": "timeline",
                    **phase_row,
                    "moves": result.num_moves,
                    "window_s": timeline.migration_end - timeline.migration_start,
                }
            )
    return rows
