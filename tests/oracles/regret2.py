"""Test oracle: regret-2 with a full re-partition after every insertion.

:func:`repro.algorithms.repair.regret2_insertion` ranks the pending
shards from per-row top-``T`` candidate lists.  :func:`regret2_exact` is
the reference it must match: every step re-partitions the full score
row of every active shard, so its regrets need no soundness argument.
Both share the score kernel, so the placements must be bitwise equal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.repair import _ScoreKernel
from repro.cluster import ClusterState


def regret2_exact(state: ClusterState, removed: Sequence[int]) -> None:
    """Regret-2 with re-ranking after every insertion.

    Regrets are recomputed each step with one partition over the active
    rows of the maintained score matrix.
    """
    kern = _ScoreKernel(state, removed)
    scores = kern.scores
    demand_mass = kern.demand.sum(axis=1)
    active = np.arange(kern.q)
    for _ in range(kern.q):
        if kern.m == 1:
            reg = np.full(active.size, np.inf)
        else:
            part = np.partition(scores[active], 1, axis=1)
            reg = part[:, 1] - part[:, 0]
        # Tie-break regret by demand so big shards go early.
        key = reg + 1e-9 * demand_mass[active]
        row = int(active[np.argmax(key)])
        machine = kern.best_machine(row)
        group = kern.insert(row, machine)
        active = active[active != row]
        if active.size == 0:
            break
        kern.refresh_column(machine)
        if group >= 0:
            for sibling in kern.group_rows.get(group, ()):
                if sibling != row:
                    kern.strike(sibling, machine)


def regret2_oracle(
    state: ClusterState, rng: np.random.Generator, removed: Sequence[int]
) -> None:
    """:func:`regret2_exact` with the repair-operator signature."""
    if removed:
        regret2_exact(state, list(removed))
