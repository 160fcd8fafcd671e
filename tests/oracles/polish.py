"""Test oracle: the per-destination polish move scan.

:meth:`repro.algorithms.baselines.LocalSearchRebalancer._try_move`
scores every fitting destination of a sampled shard in one vector pass.
:class:`OracleLocalSearch` is the reference it must match: the same
descent, whose move step copies the m-length peak vector per
destination and scores it in full.  The swap step is shared.  One seed
gives one step sequence.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.baselines import LocalSearchRebalancer
from repro.cluster import ClusterState


class OracleLocalSearch(LocalSearchRebalancer):
    """``LocalSearchRebalancer`` with the copy-per-destination move scan."""

    def _try_move(self, work: ClusterState, rng: np.random.Generator) -> bool:
        machine_peak = work.machine_peak_utilization()
        current = self._score(machine_peak)
        hottest = int(np.argmax(machine_peak))
        members = work.machine_shards(hottest)
        if members.size == 0:
            return False
        sample = members
        if sample.size > self.neighborhood_sample:
            sample = rng.choice(members, size=self.neighborhood_sample, replace=False)
        headroom = work.capacity - work.loads
        for j in sample:
            extra = work.demand[j]
            fits = np.all(headroom >= extra - 1e-12, axis=1)
            fits[hottest] = False
            fits[work.blocked_mask] = False
            peers = work.replica_peer_machines(int(j))
            if peers.size:
                fits[peers] = False
            for i in np.flatnonzero(fits):
                new_peak = machine_peak.copy()
                new_peak[hottest] = (
                    (work.loads[hottest] - extra) / work.capacity[hottest]
                ).max()
                new_peak[i] = ((work.loads[i] + extra) / work.capacity[i]).max()
                if self._score(new_peak) < current:
                    work.move(int(j), int(i))
                    return True
        return False
