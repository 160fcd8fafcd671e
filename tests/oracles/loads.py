"""Test oracle: the load matrix summed from scratch with ``np.add.at``.

``ClusterState`` rebuilds its loads (in the constructor,
``apply_assignment``, growing and settling) and recomputes them in
``validate()`` with one ``np.bincount`` per resource dimension.
:func:`added_loads` is the reference it must match: ``np.add.at`` over
the placed shards' demand rows.  Both add in shard order starting from
0.0, so the two agree bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import UNASSIGNED


def added_loads(assignment: np.ndarray, demand: np.ndarray, m: int) -> np.ndarray:
    """(m, d) per-machine load of *assignment*, by ``np.add.at``."""
    assign = np.asarray(assignment, dtype=np.int64)
    loads = np.zeros((m, demand.shape[1]))
    placed = assign != UNASSIGNED
    np.add.at(loads, assign[placed], demand[placed])
    return loads
