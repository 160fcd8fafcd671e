"""Rebalancing algorithms: SRA (the paper's contribution) and baselines."""

from repro.algorithms.base import RebalanceResult, Rebalancer, finalize_result
from repro.algorithms.baselines import (
    GreedyRebalancer,
    LocalSearchRebalancer,
    NoopRebalancer,
    RandomRestartRebalancer,
)
from repro.algorithms.budget import MigrationBudget
from repro.algorithms.destroy import (
    DEFAULT_DESTROY_OPS,
    BudgetLocalityBias,
    exchange_swap_removal,
    random_removal,
    shaw_removal,
    vacancy_removal,
    worst_machine_removal,
)
from repro.algorithms.lns import AlnsConfig, AlnsEngine, AlnsOutcome
from repro.algorithms.objective import Objective, ObjectiveWeights
from repro.algorithms.repair import DEFAULT_REPAIR_OPS, greedy_best_fit
from repro.algorithms.sra import SRA
from repro.algorithms.sra_config import SRAConfig

__all__ = [
    "Rebalancer",
    "RebalanceResult",
    "finalize_result",
    "NoopRebalancer",
    "GreedyRebalancer",
    "LocalSearchRebalancer",
    "RandomRestartRebalancer",
    "Objective",
    "ObjectiveWeights",
    "AlnsConfig",
    "AlnsEngine",
    "AlnsOutcome",
    "SRA",
    "SRAConfig",
    "MigrationBudget",
    "BudgetLocalityBias",
    "random_removal",
    "worst_machine_removal",
    "shaw_removal",
    "vacancy_removal",
    "exchange_swap_removal",
    "DEFAULT_DESTROY_OPS",
    "greedy_best_fit",
    "DEFAULT_REPAIR_OPS",
]
