"""Query arrival process: trace- or Poisson-driven fan-out serving.

A :class:`QueryArrivalProcess` replays a prepared arrival schedule
(arrival times plus sampled profile rows) against a
:class:`~repro.runtime.machines.ServingFleet`.  Each arrival fans one
task per cluster shard out to the machine *currently hosting* that shard
— the shard→machine array is shared with the migration executor, so a
shard starts serving from its destination the instant its copy lands,
rather than being window-averaged.

With a replicated index each query needs **one replica of each logical
shard**, and the broker's choice of replica is a second, fast-acting
load-balancing mechanism on top of placement.  Given a
:class:`ReplicaRouter`, the process sends one task per logical shard
instead and lets the router pick the replica:

* ``random``       — uniform random replica;
* ``round_robin``  — per-logical-shard rotation;
* ``least_loaded`` — join-the-shortest-queue on the hosting machine's
  current backlog (what load-aware brokers approximate with health
  probes).

The router reads the same live shard→machine array, so it follows
replicas as migration waves move them.

Arrival generation (RNG semantics) stays with the caller: the
``simulate_serving`` facade draws arrivals exactly as the legacy DES did,
and the CLI/experiments hand in diurnal traces from
:mod:`repro.simulate.traces`.
"""

from __future__ import annotations

from typing import List, Literal, Sequence, Tuple, get_args

import numpy as np

from repro._validation import check_in
from repro.runtime.kernel import Runtime
from repro.runtime.machines import FCFSMachine, QueryRecord, ServingFleet

__all__ = ["RoutingPolicy", "ReplicaRouter", "QueryArrivalProcess"]

RoutingPolicy = Literal["random", "round_robin", "least_loaded"]


class ReplicaRouter:
    """Chooses which replica of a logical shard serves a query's task.

    ``random`` draws from *rng* — one ``rng.choice`` per consultation —
    so the router shares the caller's stream and the draw order is part
    of the reproducibility contract.  ``least_loaded`` takes the replica
    whose current host frees up first (the lowest cluster shard id on
    ties).
    """

    def __init__(self, policy: RoutingPolicy, rng: np.random.Generator) -> None:
        check_in("policy", policy, get_args(RoutingPolicy))
        self.policy = policy
        self._rng = rng
        self._turns: dict[int, int] = {}

    def choose(
        self,
        logical: int,
        replicas: np.ndarray,
        location: np.ndarray,
        machines: Sequence[FCFSMachine],
    ) -> int:
        """The cluster shard, one of *replicas*, that serves *logical*'s task."""
        if self.policy == "random":
            return int(self._rng.choice(replicas))
        if self.policy == "round_robin":
            turn = self._turns.get(logical, 0)
            self._turns[logical] = turn + 1
            return int(replicas[turn % replicas.size])
        free_at = np.array([machines[m].free_at for m in location[replicas]])
        return int(replicas[int(np.argmin(free_at))])


class QueryArrivalProcess:
    """Feeds measured-profile queries into the fleet, one arrival event each.

    Parameters
    ----------
    fleet:
        The serving machines.
    location:
        (num_cluster_shards,) shard → machine array.  Read at every
        arrival; the migration executor mutates it as waves complete.
    work:
        (num_queries, num_engine_shards) measured work matrix.
    mapping:
        (num_cluster_shards,) cluster shard → engine shard column map.
    arrival_times:
        Sorted arrival times in seconds.
    query_rows:
        (num_arrivals,) row of ``work`` each arrival replays.
    router:
        Without one, every cluster shard serves its engine shard's work
        (cluster-shard order).  With one, the cluster shards mapped to
        an engine shard are its replicas: each query sends one task per
        engine shard with positive work, in ascending engine-shard
        order, and the router picks the replica whenever there is more
        than one.
    """

    def __init__(
        self,
        fleet: ServingFleet,
        location: np.ndarray,
        work: np.ndarray,
        mapping: np.ndarray,
        arrival_times: np.ndarray,
        query_rows: np.ndarray,
        *,
        router: ReplicaRouter | None = None,
    ) -> None:
        if arrival_times.shape != query_rows.shape:
            raise ValueError("arrival_times and query_rows must be parallel arrays")
        if location.shape[0] != mapping.shape[0]:
            raise ValueError("location and mapping must cover the same cluster shards")
        self.fleet = fleet
        self.location = location
        self.arrival_times = arrival_times
        self._work = work
        self._mapping = mapping
        self._rows = query_rows
        self._num_shards = int(mapping.shape[0])
        self._router = router
        self._replicas: List[Tuple[int, np.ndarray]] = (
            []
            if router is None
            else [(int(g), np.flatnonzero(mapping == g)) for g in np.unique(mapping)]
        )
        self._next = 0
        self.records: List[QueryRecord] = []

    def start(self, rt: Runtime) -> None:
        if self.arrival_times.size:
            rt.at(float(self.arrival_times[0]), self._on_arrival)

    def _on_arrival(self, rt: Runtime) -> None:
        i = self._next
        t = self.arrival_times[i]
        record = QueryRecord(t)
        row = self._work[self._rows[i]]
        location = self.location
        machines = self.fleet.machines
        router = self._router
        if router is None:
            mapping = self._mapping
            for j in range(self._num_shards):
                w = row[mapping[j]]
                if w <= 0:
                    continue
                machines[location[j]].enqueue(t, w, record)
        else:
            for g, replicas in self._replicas:
                w = row[g]
                if w <= 0:
                    continue
                j = (
                    replicas[0]
                    if replicas.size == 1
                    else router.choose(g, replicas, location, machines)
                )
                machines[location[j]].enqueue(t, w, record)
        self.records.append(record)
        self._next = i + 1
        if self._next < self.arrival_times.size:
            rt.at(float(self.arrival_times[self._next]), self._on_arrival)

    # ---------------------------------------------------------------- results
    def latencies(self) -> np.ndarray:
        """Per-query latencies in arrival order (flush the fleet first)."""
        return np.array(
            [r.finish_max - r.arrival for r in self.records], dtype=np.float64
        )

    @property
    def queries_completed(self) -> int:
        return len(self.records)
