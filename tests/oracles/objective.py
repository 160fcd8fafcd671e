"""Test oracle: the search objective recomputed from scratch.

:meth:`repro.algorithms.Objective.components` reads the state's
incremental caches (per-machine peak cache, vacancy and
replica-conflict counters).  :func:`reference_components` derives every
term from the load matrix and the assignment alone, with the same IEEE
operations in the same order, so the two must agree bitwise on any
state.  :class:`ReferenceObjective` scores with the oracle (the
copy-engine parity runs on it, so the reference loop never reads a
cache) and :class:`CheckedObjective` asserts every evaluation of the
cached objective against it.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.objective import (
    _OVERLOAD_PENALTY,
    _REPLICA_PENALTY,
    _SMOOTH_WEIGHT,
    _VACANCY_PENALTY,
    Objective,
)
from repro.cluster import ClusterState


def _vacant_in_service(state: ClusterState) -> int:
    assign = state.assignment_view()
    counts = np.bincount(assign[assign >= 0], minlength=state.num_machines)
    return int(np.count_nonzero((counts == 0) & ~state.offline_mask))


def _replica_conflicts(state: ClusterState) -> int:
    assign = state.assignment_view()
    conflicts = 0
    for members in state.replica_groups.values():
        hosts = assign[members]
        _, counts = np.unique(hosts[hosts >= 0], return_counts=True)
        conflicts += int(np.count_nonzero(counts > 1))
    return conflicts


def reference_components(objective: Objective, state: ClusterState) -> dict[str, float]:
    """Every term of ``objective.components(state)``, without the caches."""
    util = state.loads / state.capacity  # capacities are > 0
    machine_peak = util.max(axis=1)
    peak = float(machine_peak.max())
    smooth = float(np.mean(machine_peak**2))

    assign = state.assignment_view()
    moved = float(objective.sizes[assign != objective.a0].sum()) / objective._total_bytes

    overload = float(np.maximum(util - 1.0, 0.0).sum())

    shortfall = max(0, objective.required_returns - _vacant_in_service(state))
    conflicts = _replica_conflicts(state) if state.replica_groups else 0

    value = (
        peak
        + _SMOOTH_WEIGHT * smooth
        + objective.weights.move_penalty * moved
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


class ReferenceObjective(Objective):
    """:class:`Objective` whose every evaluation is the from-scratch oracle."""

    def components(self, state: ClusterState) -> dict[str, float]:
        return reference_components(self, state)


class CheckedObjective(Objective):
    """:class:`Objective` that asserts each evaluation against the oracle.

    Raises ``AssertionError`` on the first term that differs bitwise, so
    a clean engine run under it is the assertion.  Slow; for tests and
    for validating custom operators.
    """

    def components(self, state: ClusterState) -> dict[str, float]:
        got = super().components(state)
        want = reference_components(self, state)
        for key, value in got.items():
            if value != want[key]:
                raise AssertionError(
                    f"cached objective diverged from the oracle on {key!r}: "
                    f"cached={value!r} reference={want[key]!r}"
                )
        return got
