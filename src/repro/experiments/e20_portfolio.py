"""E20 — seed portfolio vs one long run (extension).

At an equal total iteration budget, is it better to run one long LNS or
K independent short runs and keep the best?  The hope is that
independent seeds escape different local basins on rugged tight
instances, and the restarts parallelize perfectly — the classic
argument for best-of-K, which ``SRAConfig(restarts=K)`` runs.
"""

from __future__ import annotations

from repro.algorithms import SRA, AlnsConfig, SRAConfig
from repro.cluster import ExchangeLedger
from repro.experiments.harness import register
from repro.workloads import make_exchange_machines, tight_suite


@register("e20")
def run(fast: bool = True) -> list[dict]:
    seeds = (0, 1) if fast else (0, 1, 2, 3)
    total_budget = 1200 if fast else 4800
    portfolios = (1, 2, 4)
    rows = []
    for name, state in tight_suite(seeds=seeds):
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
        for k in portfolios:
            per_run = total_budget // k
            cfg = SRAConfig(alns=AlnsConfig(iterations=per_run, seed=100), restarts=k)
            result = SRA(cfg).rebalance(grown, ledger)
            rows.append(
                {
                    "instance": name,
                    "portfolio_K": k,
                    "iters_per_run": per_run,
                    "total_iters": result.iterations,
                    "peak_after": result.peak_after,
                    "feasible": result.feasible,
                    "runtime_s": result.runtime_seconds,
                }
            )
    return rows
