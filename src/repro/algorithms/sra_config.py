"""SRA configuration (separate module to avoid import cycles)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro._validation import check_int, check_positive
from repro.algorithms.budget import MigrationBudget
from repro.algorithms.lns import AlnsConfig
from repro.algorithms.objective import ObjectiveWeights

__all__ = ["SRAConfig", "MigrationBudget"]


@dataclass(frozen=True)
class SRAConfig:
    """Knobs of SRA.

    Attributes
    ----------
    alns:
        Hyper-parameters of the underlying ALNS engine.
    weights:
        Search-objective weights (move penalty, vacancy penalty, ...).
    feasibility_coupling:
        When True (default, the paper's design) a candidate may only
        become the incumbent best if a transient-feasible migration
        schedule exists and the exchange contract is satisfiable.
        When False only capacity feasibility is checked during the
        search, and schedulability is evaluated post-hoc — ablation
        E10 measures how often that fails.
    use_vacancy_removal:
        Whether the vacancy-minting destroy operator participates
        (ablation E10).
    polish:
        Whether to finish with a steepest-descent move/swap polish of the
        incumbent (standard ALNS practice; ablation E10).  The polish
        respects blocked machines and is only kept when the polished
        state still passes the feasibility coupling.
    polish_steps:
        Step budget of the polish phase (>= 1; ``polish=False`` turns
        the phase off).
    restarts:
        Independent search restarts (best-of-K).  When > 1 the search is
        fanned out by ``repro.parallel.run_sra_restarts``: restart ``k``
        runs with seed ``spawn_seeds(alns.seed, K)[k]`` and the best
        feasible result wins.  The restart set is a pure function of the
        master seed, so results are identical for any worker count.
    seed:
        Convenience override for ``alns.seed``.
    n_workers:
        Worker processes the restart fan-out is scheduled onto (CLI
        ``--workers``; 1 = serial).  The ALNS loop itself is sequential,
        so this only matters when ``restarts > 1``.
    migration_budget:
        Per-round churn allowance for incremental (continuous) episodes:
        caps the shards moved and/or bytes migrated relative to the
        episode's reference assignment (``state.assignment`` at
        ``rebalance`` entry — *not* the warm start).  ``None`` (default)
        and an all-``None`` budget leave the search unbounded and the
        solve path bitwise-identical to previous releases.  When
        bounded, the best filter rejects over-budget candidates and the
        destroy portfolio becomes locality-biased at the budget
        boundary (see ``repro.algorithms.budget``).
    """

    alns: AlnsConfig = field(default_factory=AlnsConfig)
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    feasibility_coupling: bool = True
    use_vacancy_removal: bool = True
    polish: bool = True
    polish_steps: int = 3000
    restarts: int = 1
    seed: int | None = None
    n_workers: int = 1
    migration_budget: MigrationBudget | None = None

    def __post_init__(self) -> None:
        check_positive("polish_steps", check_int("polish_steps", self.polish_steps))
        if check_int("restarts", self.restarts) < 1:
            raise ValueError("restarts must be >= 1")
        check_positive("n_workers", check_int("n_workers", self.n_workers))
        if self.seed is not None:
            object.__setattr__(self, "alns", replace(self.alns, seed=self.seed))
