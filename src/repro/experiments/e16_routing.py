"""E16 — replica routing policies (extension).

With a 2×-replicated index placed by SRA (anti-affinity enforced), the
broker still chooses which replica serves each query.  This experiment
measures tail latency under the three routing policies, on the measured
engine work profile, plus a 1×-replication control at equal capacity.

Claims: least-loaded ≤ round-robin ≤ random in p99; 2× replication with
load-aware routing beats 1× at equal capacity (scheduling freedom).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import AlnsConfig, SRA, SRAConfig
from repro.cluster import ClusterState, Machine, Shard
from repro.engine import CorpusConfig, ShardedIndex, generate_corpus, generate_queries
from repro.experiments.harness import register
from repro.simulate import ServingConfig, WorkProfile, simulate_serving

_QPS = 55.0
_PPCS = 2e5


@register("e16")
def run(fast: bool = True, *, placement_seed: int = 41) -> list[dict]:
    num_docs = 3000 if fast else 15000
    num_logical = 16 if fast else 32
    num_machines = 6 if fast else 12
    iterations = 400 if fast else 1500

    cfg = CorpusConfig(num_docs=num_docs, vocab_size=3000, seed=21)
    docs = generate_corpus(cfg)
    index = ShardedIndex.build(docs, num_logical)
    queries = generate_queries(cfg, 120 if fast else 400)
    profile = WorkProfile.measure(index, queries)
    logical_shards = index.to_cluster_shards(
        queries, queries_per_second=_QPS, postings_per_cpu_second=_PPCS
    )
    logical_demand = np.stack([s.demand for s in logical_shards])
    capacity = logical_demand.sum(axis=0) / (num_machines * 0.7)
    machines = Machine.homogeneous(
        num_machines,
        {n: float(c) for n, c in zip(logical_shards[0].schema.names, capacity, strict=True)},
    )
    serving = ServingConfig(
        arrival_rate=_QPS,
        duration=40.0 if fast else 120.0,
        postings_per_cpu_second=_PPCS,
        seed=31,
    )

    rows = []
    for k in (1, 2):
        state, logical_of = _replicated_cluster(
            machines, logical_demand, k, placement_seed
        )
        balanced = _rebalance(state, iterations)
        for policy in ("random", "round_robin", "least_loaded"):
            report = simulate_serving(
                balanced, profile, logical_of, serving, policy=policy
            )
            rows.append(
                {
                    "replication": k,
                    "policy": policy,
                    "peak_util": balanced.peak_utilization(),
                    "p50_ms": 1e3 * report.latency.p50,
                    "p95_ms": 1e3 * report.latency.p95,
                    "p99_ms": 1e3 * report.latency.p99,
                    "peak_busy": report.peak_busy_fraction,
                }
            )
    return rows


def _replicated_cluster(machines, logical_demand, k, placement_seed):
    shards = []
    logical_of = []
    n_logical = logical_demand.shape[0]
    for g in range(n_logical):
        for _ in range(k):
            shards.append(
                Shard(
                    id=len(shards),
                    demand=logical_demand[g] / k,
                    replica_of=g if k > 1 else -1,
                )
            )
            logical_of.append(g)
    rng = np.random.default_rng(placement_seed)
    m = len(machines)
    assign = []
    for _g in range(n_logical):
        hosts = rng.choice(m, size=k, replace=False)
        assign.extend(int(h) for h in hosts)
    state = ClusterState(list(machines), shards, assign)
    return state, logical_of


def _rebalance(state, iterations):
    result = SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=1))).rebalance(
        state
    )
    out = state.copy()
    out.apply_assignment(result.target_assignment)
    return out
