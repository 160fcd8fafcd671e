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

from typing import List, Literal, Tuple, get_args

import numpy as np

from repro._validation import check_in
from repro.runtime.kernel import Runtime
from repro.runtime.machines import FanOut, ServingFleet

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
        free_at: np.ndarray,
    ) -> int:
        """The cluster shard, one of *replicas*, that serves *logical*'s task.

        *free_at* is the fleet's per-machine ``free_at`` array.
        """
        if self.policy == "random":
            return int(self._rng.choice(replicas))
        if self.policy == "round_robin":
            turn = self._turns.get(logical, 0)
            self._turns[logical] = turn + 1
            return int(replicas[turn % replicas.size])
        return int(replicas[int(np.argmin(free_at[location[replicas]]))])


class QueryArrivalProcess:
    """Feeds measured-profile queries into the fleet, one arrival event each.

    Parameters
    ----------
    fleet:
        The serving machines.
    location:
        (num_cluster_shards,) shard → machine array.  Read at every
        arrival; the migration executor (or any other process) mutates
        it in place as waves complete.
    work:
        (num_queries, num_engine_shards) measured work matrix: finite
        and non-negative.
    mapping:
        (num_cluster_shards,) cluster shard → engine shard column map.
    arrival_times:
        Sorted, finite, non-negative arrival times in seconds.
    query_rows:
        (num_arrivals,) row of ``work`` each arrival replays.
    router:
        Without one, every cluster shard serves its engine shard's work
        (cluster-shard order).  With one, the cluster shards mapped to
        an engine shard are its replicas: each query sends one task per
        engine shard with positive work, in ascending engine-shard
        order, and the router picks the replica whenever there is more
        than one.

    Each arrival submits its fan-out to the fleet as one
    :class:`~repro.runtime.machines.FanOut`.  Without a router the
    layout depends only on ``location``, so it is rebuilt only when the
    placement changes.  With one, the layout is built per arrival from
    the chosen replicas.  Under ``least_loaded`` the tasks chosen so far
    are submitted before a choice that compares a machine they use, so
    the router reads a ``free_at`` that includes them.
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
        work = _real_array("work", work, 2)
        if not np.all(np.isfinite(work)) or np.any(work < 0):
            raise ValueError("work must be finite and non-negative")
        location = _index_array("location", location, len(fleet), "machines")
        mapping = _index_array("mapping", mapping, work.shape[1], "work columns")
        if location.shape != mapping.shape:
            raise ValueError("location and mapping must cover the same cluster shards")
        times = _real_array("arrival_times", arrival_times, 1)
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise ValueError("arrival_times must be finite and non-negative")
        if np.any(times[1:] < times[:-1]):
            raise ValueError("arrival_times must be sorted")
        query_rows = _index_array("query_rows", query_rows, work.shape[0], "work rows")
        if query_rows.shape != times.shape:
            raise ValueError("arrival_times and query_rows must be parallel arrays")
        self.fleet = fleet
        self.location = location
        self.arrival_times = times
        self._work = work
        self._mapping = mapping
        self._rows = query_rows
        self._router = router
        self._replicas: List[Tuple[int, np.ndarray]] = (
            []
            if router is None
            else [(int(g), np.flatnonzero(mapping == g)) for g in np.unique(mapping)]
        )
        self._placed: np.ndarray | None = None
        self._fanout: FanOut | None = None
        self._queries = np.empty(times.size, dtype=np.int64)
        self._next = 0

    def start(self, rt: Runtime) -> None:
        if self.arrival_times.size:
            rt.at(float(self.arrival_times[0]), self._on_arrival)

    def _on_arrival(self, rt: Runtime) -> None:
        i = self._next
        t = self.arrival_times[i]
        query = self.fleet.new_query(t)
        self._queries[i] = query
        row = self._work[self._rows[i]]
        if self._router is None:
            self.fleet.submit(t, query, self._layout(), row)
        else:
            self._route(t, query, row)
        self._next = i + 1
        if self._next < self.arrival_times.size:
            rt.at(float(self.arrival_times[self._next]), self._on_arrival)

    def _layout(self) -> FanOut:
        """The fan-out of the current placement, rebuilt when it changed."""
        if self._fanout is None or not np.array_equal(self.location, self._placed):
            self._placed = self.location.copy()
            self._fanout = FanOut(self._placed, self._mapping)
        return self._fanout

    def _route(self, t: float, query: int, row: np.ndarray) -> None:
        """One task per engine shard with positive work, replica by the router."""
        router = self._router
        assert router is not None
        fleet = self.fleet
        location = self.location
        hosts: List[int] = []
        columns: List[int] = []
        for g, replicas in self._replicas:
            if row[g] <= 0:
                continue
            if replicas.size == 1:
                j = int(replicas[0])
            else:
                if router.policy == "least_loaded" and not set(hosts).isdisjoint(
                    location[replicas].tolist()
                ):
                    # The router must see this arrival's earlier tasks on
                    # the machines it compares.
                    fleet.submit(t, query, FanOut(hosts, columns), row)
                    hosts, columns = [], []
                j = router.choose(g, replicas, location, fleet.free_at)
            hosts.append(int(location[j]))
            columns.append(g)
        if hosts:
            fleet.submit(t, query, FanOut(hosts, columns), row)

    # ---------------------------------------------------------------- results
    def latencies(self) -> np.ndarray:
        """Per-query latencies in arrival order (flush the fleet first)."""
        n = self._next
        return self.fleet.finish_times(self._queries[:n]) - self.arrival_times[:n]

    @property
    def queries_completed(self) -> int:
        return self._next


def _real_array(name: str, values: np.ndarray, ndim: int) -> np.ndarray:
    """*values* as a float64 array of *ndim* dimensions (integers are widened)."""
    arr = np.asarray(values)
    if arr.ndim != ndim or not (
        np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.integer)
    ):
        raise ValueError(f"{name} must be a {ndim}-D real array, got {arr.dtype} {arr.shape}")
    return arr.astype(np.float64, copy=False)


def _index_array(name: str, values: np.ndarray, bound: int, what: str) -> np.ndarray:
    """*values* as a 1-D integer array with every entry in ``[0, bound)``."""
    arr = np.asarray(values)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must be a 1-D integer array, got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ValueError(f"{name} entries must lie in [0, {bound}) ({bound} {what})")
    return arr
