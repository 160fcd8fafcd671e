"""Per-round migration budgets for incremental rebalancing.

A cold SRA episode may rewrite the whole placement; a *continuous*
controller must not — each round is allowed a bounded amount of churn so
serving capacity is never saturated by index transfers.
:class:`MigrationBudget` declares that allowance.  It is enforced in two
places:

* the SRA best filter rejects any candidate whose placement delta from
  the episode's reference assignment exceeds the budget (and, under
  feasibility coupling, whose *scheduled* transfer volume — staging hops
  included — exceeds ``max_bytes``);
* the destroy portfolio is wrapped in a locality bias (see
  :class:`repro.algorithms.destroy.BudgetLocalityBias`) so that once the
  working state sits at the budget boundary, removal is redirected to
  already-moved shards — re-inserting a moved shard can only keep or
  shrink the move set, so the search walks the boundary instead of
  burning iterations on candidates the filter must veto.

Lives in its own module so both ``sra_config`` and ``destroy`` can
import it without a cycle (``sra_config`` → ``lns`` → ``destroy``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._validation import check_int, check_non_negative

__all__ = ["MigrationBudget"]


@dataclass(frozen=True)
class MigrationBudget:
    """Per-round migration allowance.

    Attributes
    ----------
    max_moves:
        Cap on the number of shards whose machine may differ from the
        episode's reference assignment (``None`` = unbounded).
    max_bytes:
        Cap on the migrated volume.  Inside the search this is screened
        against the summed index sizes of the moved shards; when the
        feasibility coupling computes a staged plan, the *scheduled*
        bytes (staging hops included, ``Schedule.total_bytes()``) are
        held to the same cap, so the budget bounds what the executor
        will actually transfer.  ``None`` = unbounded.

    A budget with both fields ``None`` is the explicit "unbounded"
    marker used by the warm-start parity tests; :attr:`bounded` is
    False for it and SRA treats it exactly like ``migration_budget=None``.
    """

    max_moves: int | None = None
    max_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.max_moves is not None and check_int("max_moves", self.max_moves) < 0:
            raise ValueError(f"max_moves must be >= 0, got {self.max_moves}")
        if self.max_bytes is not None:
            check_non_negative("max_bytes", self.max_bytes)

    @property
    def bounded(self) -> bool:
        """True when at least one dimension is actually capped."""
        return self.max_moves is not None or self.max_bytes is not None

    def admits(self, moves: int, byte_volume: float) -> bool:
        """Whether a placement delta of *moves* shards / *byte_volume*
        bytes is within budget."""
        if self.max_moves is not None and moves > self.max_moves:
            return False
        if self.max_bytes is not None and byte_volume > self.max_bytes:
            return False
        return True

    def exhausted(self, moves: int, byte_volume: float) -> bool:
        """Whether the delta sits at (or beyond) the budget boundary —
        the point where the locality bias stops exploratory removal."""
        if self.max_moves is not None and moves >= self.max_moves:
            return True
        if self.max_bytes is not None and byte_volume >= self.max_bytes:
            return True
        return False
