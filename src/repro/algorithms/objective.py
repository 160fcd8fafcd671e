"""The search objective.

The IP model's objective (peak utilization + move cost) is exact but flat:
many assignments share the same peak, giving local search no gradient.
The search objective therefore adds a small smoothing term (mean squared
per-machine peak utilization) and penalty terms that let the LNS walk
through mildly infeasible states while being pushed firmly back:

``value = peak
        + _SMOOTH_WEIGHT    · mean_i(peak_util_i²)
        + move_penalty      · moved_bytes / total_bytes
        + _OVERLOAD_PENALTY · Σ_i,k relu(load−cap)/cap
        + _VACANCY_PENALTY  · max(0, R − #vacant)
        + _REPLICA_PENALTY  · #replica-conflicts``

Only ``move_penalty`` is the caller's (:class:`ObjectiveWeights`); the
other weights are module constants.  The peak term dominates; the
smoothing term only orders states with equal peaks, and the penalties
are large enough that no feasible state is ever beaten by an infeasible
one in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_int, check_non_negative
from repro.cluster import ClusterState

__all__ = ["ObjectiveWeights", "Objective"]

_SMOOTH_WEIGHT = 0.05
_OVERLOAD_PENALTY = 10.0
_VACANCY_PENALTY = 2.0
#: Penalty per (machine, logical shard) replica-anti-affinity violation;
#: replicas of one logical shard must not colocate.
_REPLICA_PENALTY = 5.0


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the search objective a caller sets (see module
    docstring)."""

    move_penalty: float = 0.002

    def __post_init__(self) -> None:
        check_non_negative("move_penalty", self.move_penalty)


class Objective:
    """Callable objective bound to an episode's initial assignment.

    Parameters
    ----------
    initial_assignment:
        ``a0`` — used for the moved-bytes term.
    sizes:
        Per-shard migration bytes.
    required_returns:
        ``R`` — vacant machines owed at the end.
    weights:
        The caller's term weights (the move penalty).

    The instance is immutable and cheap to call: it reads the state's
    incremental caches rather than rescanning the ``(m, d)`` load matrix.
    """

    def __init__(
        self,
        initial_assignment: np.ndarray,
        sizes: np.ndarray,
        *,
        required_returns: int = 0,
        weights: ObjectiveWeights | None = None,
    ) -> None:
        self.a0 = np.asarray(initial_assignment, dtype=np.int64).copy()
        self.sizes = np.asarray(sizes, dtype=np.float64)
        if self.a0.shape != self.sizes.shape:
            raise ValueError("initial_assignment and sizes must have equal length")
        self.required_returns = check_non_negative(
            "required_returns", check_int("required_returns", required_returns)
        )
        self.weights = weights or ObjectiveWeights()
        self._total_bytes = float(self.sizes.sum()) or 1.0

    # ------------------------------------------------------------------ API
    def __call__(self, state: ClusterState) -> float:
        """Objective value of *state* (lower is better)."""
        return self.components(state)["value"]

    def components(self, state: ClusterState) -> dict[str, float]:
        """All objective terms, for reporting and tests.

        Peak, smoothing, vacancy and replica terms read the state's
        incremental caches (see the "Delta evaluation contract" in
        docs/ARCHITECTURE.md), so an evaluation after ``k`` moves costs
        O(k·d + m + n) instead of a full O(m·d) pass.  The cached values
        are bitwise those of a from-scratch recompute; the test oracle
        ``tests/oracles/objective.py`` pins this.
        """
        # The max over the per-machine peak cache, whose dirty rows are
        # refreshed first.
        peak = state.peak_utilization()
        machine_peak = state.machine_peak_utilization()
        smooth = float(np.mean(machine_peak**2))

        assign = state.assignment_view()
        moved = float(self.sizes[assign != self.a0].sum()) / self._total_bytes

        # Zero-overload is the common case; detect it from the peak the
        # state already maintains.  peak <= 1.0 means every fl(util)
        # <= 1.0, so the full relu-sum is exactly 0.0; peak > 1.0 means
        # some entry exceeds 1.0 and the sum is computed in full.  (A
        # load marginally above capacity whose fl(util) rounds to 1.0
        # contributes relu = 0.0 either way, so this gate is bitwise
        # equivalent to comparing loads against capacity.)
        if peak > 1.0:
            util = state.loads / state.capacity  # capacities are > 0
            overload = float(np.maximum(util - 1.0, 0.0).sum())
        else:
            overload = 0.0

        shortfall = max(0, self.required_returns - state.num_vacant_in_service)
        conflicts = state.replica_conflict_count if state.replica_groups else 0

        value = (
            peak
            + _SMOOTH_WEIGHT * smooth
            + self.weights.move_penalty * moved
            + _OVERLOAD_PENALTY * overload
            + _VACANCY_PENALTY * shortfall
            + _REPLICA_PENALTY * conflicts
        )
        return {
            "value": value,
            "peak": peak,
            "smooth": smooth,
            "moved_fraction": moved,
            "overload": overload,
            "vacancy_shortfall": float(shortfall),
            "replica_conflicts": float(conflicts),
        }

    def is_feasible(self, state: ClusterState, *, atol: float = 1e-9) -> bool:
        """Hard feasibility: within capacity, fully assigned, R vacancies."""
        if not state.is_fully_assigned():
            return False
        if not state.is_within_capacity(atol=atol):
            return False
        if state.replica_groups and state.has_replica_conflicts():
            return False
        return state.num_vacant_in_service >= self.required_returns
