"""E17 — a shared pool serving multiple clusters (extension).

One pool of spare machines serves several clusters in sequence, each
episode lending B=2 and settling.  The audit trail shows the paper's
exchange at fleet scope: the pool's machine *count* is invariant while
its *composition* turns over (drained in-service machines replace lent
ones), and every cluster improves.
"""

from __future__ import annotations

from repro.algorithms import AlnsConfig, SRA, SRAConfig
from repro.experiments.common import scenario_instance
from repro.experiments.harness import register
from repro.pool import MachinePool, exchange_episode
from repro.workloads import make_exchange_machines


@register("e17")
def run(fast: bool = True) -> list[dict]:
    num_clusters = 4 if fast else 8
    iterations = 500 if fast else 2000
    seed0 = 0

    template = scenario_instance(
        "zipf-popularity",
        {"num_machines": 16, "shards_per_machine": 6},
        seed=seed0,
    )
    pool = MachinePool(make_exchange_machines(template, 4))
    rows = []
    for c in range(num_clusters):
        state = scenario_instance(
            "zipf-popularity",
            {
                "num_machines": 16,
                "shards_per_machine": 6,
                "target_utilization": 0.85,
                "placement_skew": 0.5,
                "max_shard_fraction": 0.35,
            },
            seed=seed0 + c,
        )
        exchange_episode(
            state,
            SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=1))),
            pool.lend(2),
            pool=pool,
            label=f"cluster-{c}",
        )
        ep = pool.history[-1]
        rows.append(
            {
                "episode": c,
                "cluster": ep.label,
                "lent": ep.lent,
                "returned": ep.returned,
                "exchanged": ep.exchanged,
                "feasible": ep.feasible,
                "peak_before": ep.peak_before,
                "peak_after": ep.peak_after,
                "pool_size_after": ep.pool_size_after,
            }
        )
    return rows
