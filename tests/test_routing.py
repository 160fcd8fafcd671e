"""Tests for replica-aware query routing in the simulator.

``_reference_routed_serving`` below is the earlier hand-written routed
serving loop, kept as an oracle: it keeps its own ``free_at`` and
``busy_time`` arrays and reads a frozen placement.  Routing now runs as
a :class:`~repro.runtime.serving.ReplicaRouter` on the event runtime's
arrival process; the parity property pins that ``simulate_serving(...,
policy=...)`` reproduces the oracle bitwise, RNG draw order included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._validation import check_in
from repro.cluster import ClusterState, Machine, Shard
from repro.runtime import (
    FanOut,
    QueryArrivalProcess,
    ReplicaRouter,
    Runtime,
    ServingFleet,
)
from repro.simulate import (
    ServingConfig,
    ServingReport,
    WorkProfile,
    simulate_serving,
    summarize,
)
from repro.simulate.des import _effective_speeds, _empty_summary

POLICIES = ["random", "round_robin", "least_loaded"]


# ---------------------------------------------------------------------------
# Reference implementation (the hand-written routed serving loop).
# ---------------------------------------------------------------------------

def _reference_routed_serving(state, profile, logical_of, config=None, *, policy="least_loaded"):
    cfg = config or ServingConfig()
    check_in("policy", policy, ("random", "round_robin", "least_loaded"))
    logical = np.asarray(logical_of, dtype=np.int64)
    if logical.shape != (state.num_shards,):
        raise ValueError("logical_of must map every cluster shard")
    if np.any((logical < 0) | (logical >= profile.num_shards)):
        raise ValueError("logical_of references unknown logical shards")
    if not state.is_fully_assigned():
        raise ValueError("simulation requires a fully assigned state")

    # Replica sets per logical shard.
    groups = {int(g): np.flatnonzero(logical == g) for g in np.unique(logical)}
    covered = sorted(groups)

    speed = _effective_speeds(state, cfg)

    rng = np.random.default_rng(cfg.seed)
    num_arrivals = rng.poisson(cfg.arrival_rate * cfg.duration)
    arrival_times = np.sort(rng.uniform(0.0, cfg.duration, size=num_arrivals))
    query_rows = rng.integers(0, profile.num_queries, size=num_arrivals)

    assign = state.assignment_view()
    free_at = np.zeros(state.num_machines)
    busy_time = np.zeros(state.num_machines)
    rr_counter = {g: 0 for g in covered}

    latencies = np.empty(num_arrivals)
    for qi in range(num_arrivals):
        t = arrival_times[qi]
        row = profile.work[query_rows[qi]]
        finish_max = t
        for g in covered:
            w = row[g]
            if w <= 0:
                continue
            replicas = groups[g]
            if replicas.size == 1 or policy == "random":
                j = int(replicas[0]) if replicas.size == 1 else int(rng.choice(replicas))
            elif policy == "round_robin":
                j = int(replicas[rr_counter[g] % replicas.size])
                rr_counter[g] += 1
            else:  # least_loaded: shortest backlog on the hosting machine
                hosts = assign[replicas]
                j = int(replicas[int(np.argmin(free_at[hosts]))])
            m = assign[j]
            start = max(t, free_at[m])
            service = w / speed[m]
            free_at[m] = start + service
            busy_time[m] += service
            if free_at[m] > finish_max:
                finish_max = free_at[m]
        latencies[qi] = finish_max - t

    window = cfg.duration
    if arrival_times.size:
        window = max(window, float(arrival_times[-1]))
    fraction = busy_time / window
    for mid, frac in cfg.background_load.items():
        fraction[mid] += frac
    return ServingReport(
        latency=summarize(latencies) if num_arrivals else _empty_summary(),
        machine_busy_fraction=fraction,
        queries_completed=int(num_arrivals),
    )


def replicated_cluster(k=2, logical=4, machines=4, cap=4.0):
    """`logical` logical shards, k replicas each, spread over machines."""
    fleet = Machine.homogeneous(machines, {"cpu": cap, "ram": 100.0, "disk": 100.0})
    shards = []
    logical_of = []
    for g in range(logical):
        for _r in range(k):
            shards.append(
                Shard(
                    id=len(shards),
                    demand=np.array([1.0 / k, 1.0, 1.0]),
                    replica_of=g if k > 1 else -1,
                )
            )
            logical_of.append(g)
    assign = [(i * 2654435761 % machines) for i in range(len(shards))]
    # Ensure anti-affinity by round-robin per group instead.
    assign = []
    for g in range(logical):
        for r in range(k):
            assign.append((g + r * (machines // max(k, 1)) + r) % machines)
    state = ClusterState(fleet, shards, assign)
    return state, logical_of


class TestRoutedServing:
    def test_single_replica_matches_plain_simulator(self):
        state, logical_of = replicated_cluster(k=1)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=20.0, duration=15.0, seed=3)
        plain = simulate_serving(state, profile, logical_of, cfg)
        routed = simulate_serving(
            state, profile, logical_of, cfg, policy="least_loaded"
        )
        assert routed.latency == plain.latency

    @pytest.mark.parametrize("policy", ["random", "round_robin", "least_loaded"])
    def test_policies_run_and_complete(self, policy):
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=20.0, duration=10.0, seed=4)
        report = simulate_serving(state, profile, logical_of, cfg, policy=policy)
        assert report.queries_completed > 0
        assert report.latency.p99 > 0

    def test_least_loaded_beats_random_under_skew(self):
        # One machine is half-speed (background load): a load-aware router
        # shifts work to the fast replicas.
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(
            arrival_rate=25.0, duration=30.0, seed=5, background_load={0: 0.6}
        )
        rnd = simulate_serving(state, profile, logical_of, cfg, policy="random")
        ll = simulate_serving(state, profile, logical_of, cfg, policy="least_loaded")
        assert ll.latency.p99 < rnd.latency.p99

    def test_replication_reduces_tail_vs_single_copy(self):
        # Same capacity, same per-query work: k=2 with least-loaded routing
        # should beat k=1 (scheduling freedom).
        single, logical_single = replicated_cluster(k=1)
        double, logical_double = replicated_cluster(k=2)
        profile = WorkProfile(np.full((6, 4), 2500.0))
        cfg = ServingConfig(arrival_rate=25.0, duration=30.0, seed=6)
        one = simulate_serving(
            single, profile, logical_single, cfg, policy="least_loaded"
        )
        two = simulate_serving(
            double, profile, logical_double, cfg, policy="least_loaded"
        )
        assert two.latency.p99 <= one.latency.p99 + 1e-9

    def test_round_robin_is_deterministic(self):
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=15.0, duration=10.0, seed=7)
        a = simulate_serving(state, profile, logical_of, cfg, policy="round_robin")
        b = simulate_serving(state, profile, logical_of, cfg, policy="round_robin")
        assert a.latency == b.latency

    def test_validation(self):
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        with pytest.raises(ValueError, match="policy"):
            simulate_serving(
                state, profile, logical_of, policy="psychic"  # type: ignore[arg-type]
            )
        with pytest.raises(ValueError, match="every cluster shard"):
            simulate_serving(state, profile, logical_of[:-1], policy="least_loaded")
        with pytest.raises(ValueError, match="unknown engine shards"):
            simulate_serving(
                state, profile, [99] * state.num_shards, policy="least_loaded"
            )

    def test_background_load_revalidated_at_use_time(self):
        # ServingConfig validates background_load at construction, but the
        # dict stays mutable: a fraction pushed to 1.0 afterwards must be
        # rejected exactly as simulate_serving rejects it, not turned into
        # a zero-speed machine with infinite latencies.
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=10.0, duration=5.0, seed=8)
        cfg.background_load[0] = 1.0
        with pytest.raises(ValueError, match="background_load"):
            simulate_serving(state, profile, logical_of, cfg)
        with pytest.raises(ValueError, match="background_load"):
            simulate_serving(state, profile, logical_of, cfg, policy="least_loaded")


# ---------------------------------------------------------------------------
# Parity with the reference loop.
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_logical=st.integers(min_value=1, max_value=6),
    machines=st.integers(min_value=2, max_value=5),
    rate=st.sampled_from([5.0, 30.0, 80.0]),
    bg=st.booleans(),
    policy=st.sampled_from(POLICIES),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_routed_serving_matches_reference(
    seed, num_logical, machines, rate, bg, policy
):
    rng = np.random.default_rng(seed)
    # k in {1, 2, 3} replicas per logical shard, listed in shuffled order
    # and placed at random (replicas may share a machine).
    logical_of = np.repeat(
        np.arange(num_logical), rng.integers(1, 4, size=num_logical)
    )
    rng.shuffle(logical_of)
    fleet = Machine.homogeneous(machines, {"cpu": 4.0, "ram": 100.0, "disk": 100.0})
    shards = Shard.uniform(logical_of.size, {"cpu": 0.1, "ram": 1.0, "disk": 1.0})
    state = ClusterState(fleet, shards, rng.integers(0, machines, size=logical_of.size))
    work = rng.uniform(0.0, 5e5, size=(9, num_logical))
    # Exact zeros exercise the skip path (no task, no draw, no turn).
    profile = WorkProfile(np.where(rng.random(work.shape) < 0.2, 0.0, work))
    cfg = ServingConfig(
        arrival_rate=rate,
        duration=3.0,
        seed=seed,
        background_load={int(rng.integers(machines)): 0.4} if bg else {},
    )
    ref = _reference_routed_serving(state, profile, logical_of, cfg, policy=policy)
    report = simulate_serving(state, profile, logical_of, cfg, policy=policy)
    assert report.latency == ref.latency
    assert report.machine_busy_fraction.tobytes() == ref.machine_busy_fraction.tobytes()
    assert report.queries_completed == ref.queries_completed


# ---------------------------------------------------------------------------
# The router reads the live placement.
# ---------------------------------------------------------------------------

class _Relocate:
    """At time ``at``, snapshots the fleet's busy time, moves every cluster
    shard to ``hosts`` and parks a long task on ``hosts[0]``."""

    def __init__(self, fleet, location, hosts, at):
        self.fleet = fleet
        self.location = location
        self.hosts = hosts
        self.at = at
        self.busy_at_move = None

    def start(self, rt):
        rt.at(self.at, self._fire)

    def _fire(self, rt):
        self.busy_at_move = self.fleet.busy_time()
        self.location[:] = self.hosts
        query = self.fleet.new_query(rt.now)
        self.fleet.submit(rt.now, query, FanOut([self.hosts[0]], [0]), np.array([100.0]))


def test_least_loaded_router_follows_relocated_replicas():
    # One logical shard with replicas A (machine 0) and B (machine 1);
    # least-loaded alternates between them.  At t=5 another process
    # moves A to machine 2, which it keeps busy, and B to idle machine 3.
    # A router reading the live placement sends every later task to B on
    # machine 3; one reading the old placement would still see A's old
    # host as the freer one and send them to the busy machine 2.
    fleet = ServingFleet(np.ones(4))
    location = np.array([0, 1])
    times = np.arange(20) * 0.5 + 0.25
    arrivals = QueryArrivalProcess(
        fleet,
        location,
        np.full((1, 1), 0.4),
        np.zeros(2, dtype=np.int64),
        times,
        np.zeros(times.size, dtype=np.int64),
        router=ReplicaRouter("least_loaded", np.random.default_rng(0)),
    )
    mover = _Relocate(fleet, location, [2, 3], at=5.0)
    rt = Runtime()
    rt.add(arrivals)
    rt.add(mover)
    rt.run()
    fleet.flush()

    busy = fleet.busy_time()
    before = mover.busy_at_move
    assert before[0] == before[1] == pytest.approx(0.4 * 5)
    assert before[2] == before[3] == 0
    np.testing.assert_array_equal(busy[:2], before[:2])
    assert busy[2] == 100.0
    assert busy[3] == pytest.approx(0.4 * int(np.count_nonzero(times > 5.0)))
    assert arrivals.queries_completed == times.size
