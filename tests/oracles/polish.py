"""Test oracle: the per-destination move scan and per-pair swap scan.

:class:`repro.algorithms.baselines.LocalSearchRebalancer` scores the
fitting destinations of a sampled shard (``_try_move``) in one vector
pass per block of machine ids, and every pair of a hot and a cool
machine's sampled shards (``_try_swap``) in one vector pass, reading
each machine's shards, the peaks, the headroom and the open mask from
a kernel local to the descent (``_PolishKernel``) that refreshes only
the machines a step touched.  :class:`OracleLocalSearch` is the
reference they must match: the same descent, whose move step reads the
state afresh and copies the m-length peak vector per destination and
whose swap step checks and scores one pair at a time, both scored in
full.  The random draws happen at the same points, so one seed gives
one step sequence.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.baselines import LocalSearchRebalancer
from repro.cluster import ClusterState


def score(machine_peak: np.ndarray) -> tuple[float, float]:
    """The descent's objective, compared lexicographically: the cluster
    peak, then the sum of squared machine peaks."""
    return float(machine_peak.max()), float(np.sum(machine_peak**2))


class OracleLocalSearch(LocalSearchRebalancer):
    """``LocalSearchRebalancer`` with the copy-per-candidate scans.  The
    scans read ``ClusterState.machine_shards`` and the state's peaks and
    move through the state itself, so they take and ignore the descent's
    kernel (which then goes stale: the ``history`` the descent appends
    from it is only meaningful for ``LocalSearchRebalancer``)."""

    def _try_move(self, work: ClusterState, rng: np.random.Generator, hosts: object) -> bool:
        machine_peak = work.machine_peak_utilization()
        current = score(machine_peak)
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
                if score(new_peak) < current:
                    work.move(int(j), int(i))
                    return True
        return False

    def _try_swap(self, work: ClusterState, rng: np.random.Generator, hosts: object) -> bool:
        machine_peak = work.machine_peak_utilization()
        current = score(machine_peak)
        hottest = int(np.argmax(machine_peak))
        hot_members = work.machine_shards(hottest)
        if hot_members.size == 0:
            return False
        coolest_order = np.argsort(machine_peak)
        for i in coolest_order[: min(8, work.num_machines)]:
            i = int(i)
            if i == hottest:
                continue
            cool_members = work.machine_shards(i)
            if cool_members.size == 0:
                continue
            hs = hot_members
            cs = cool_members
            if hs.size > self.neighborhood_sample:
                hs = rng.choice(hs, size=self.neighborhood_sample, replace=False)
            if cs.size > self.neighborhood_sample:
                cs = rng.choice(cs, size=self.neighborhood_sample, replace=False)
            for j1 in hs:
                for j2 in cs:
                    if self._swap_if_better(
                        work, int(j1), hottest, int(j2), i, machine_peak, current
                    ):
                        return True
        return False

    def _swap_if_better(
        self,
        work: ClusterState,
        j1: int,
        m1: int,
        j2: int,
        m2: int,
        machine_peak: np.ndarray,
        current: tuple[float, float],
    ) -> bool:
        d1, d2 = work.demand[j1], work.demand[j2]
        # Replica anti-affinity after the swap: j1 lands on m2, j2 on m1.
        peers1 = work.replica_peers(j1)
        if peers1.size and np.any(
            (work.assignment_view()[peers1] == m2) & (peers1 != j2)
        ):
            return False
        peers2 = work.replica_peers(j2)
        if peers2.size and np.any(
            (work.assignment_view()[peers2] == m1) & (peers2 != j1)
        ):
            return False
        load1 = work.loads[m1] - d1 + d2
        load2 = work.loads[m2] - d2 + d1
        if np.any(load1 > work.capacity[m1] + 1e-12) or np.any(
            load2 > work.capacity[m2] + 1e-12
        ):
            return False
        # Executability: one order must work. Order A (j1 first): m2 must
        # hold its load + in-flight j1; then j2 leaves, j1 lands. Order B
        # symmetric.
        order_a = np.all(work.loads[m2] + d1 <= work.capacity[m2] + 1e-12)
        order_b = np.all(work.loads[m1] + d2 <= work.capacity[m1] + 1e-12)
        if not (order_a or order_b):
            return False
        new_peak = machine_peak.copy()
        new_peak[m1] = (load1 / work.capacity[m1]).max()
        new_peak[m2] = (load2 / work.capacity[m2]).max()
        if score(new_peak) < current:
            work.move(j1, m2)
            work.move(j2, m1)
            return True
        return False
