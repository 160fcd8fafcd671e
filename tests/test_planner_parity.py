"""Parity of the resumable staging planner against a two-loop reference.

``reference_plan`` below is the earlier two-loop planner, kept as an
oracle: a direct wave schedule and, when that deadlocks, a second copy
of the wave loop (``_reference_stage``) that replays every wave from the
start, staging one stranded shard through spare headroom at each
deadlock.  The properties run it at the planner's hop limit,
``MAX_HOPS_PER_SHARD``.  ``StagingPlanner`` packs once and resumes the
same packer after each staging hop; these properties pin that every plan
it returns is bitwise-identical to the reference: waves, stranded moves,
transient peak, staged shards and ``direct_feasible``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, ExchangeLedger
from repro.migration import Move, MoveTable, Schedule, StagingPlanner, WaveScheduler, diff_moves
from repro.migration.scheduler import WavePacker
from repro.migration.staging import MAX_HOPS_PER_SHARD
from repro.workloads import (
    ReplicatedConfig,
    SyntheticConfig,
    generate,
    generate_replicated,
    make_exchange_machines,
)

ATOL = 1e-9


# ---------------------------------------------------------------------------
# Reference implementation (direct schedule + replaying staging loop).
# ---------------------------------------------------------------------------

def _schedule(waves: list[list[Move]], stranded: list[Move], peak: float) -> Schedule:
    """The schedule of *waves* and *stranded*, as rows of one table."""
    table = MoveTable.of([mv for wave in waves for mv in wave] + stranded)
    bounds = np.cumsum([0] + [len(wave) for wave in waves]).tolist()
    rows = np.arange(len(table))
    return Schedule(
        table,
        [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:], strict=True)],
        rows[bounds[-1]:],
        peak,
    )


def _replica_blocked(state, location, shard_id, dst):
    peers = state.replica_peers(shard_id)
    return bool(peers.size and np.any(location[peers] == dst))


def _reference_schedule(state: ClusterState, moves: list[Move]) -> Schedule:
    loads = state.loads.copy()
    capacity = state.capacity
    demand = state.demand
    location = state.assignment.copy()
    pending = list(moves)
    pending.sort(key=lambda mv: -mv.bytes)
    waves: list[list[Move]] = []
    stranded: list[Move] = []
    peak = float(np.max(loads / capacity)) if loads.size else 0.0
    has_replicas = bool(state.replica_groups)
    while pending:
        wave: list[Move] = []
        in_flight = np.zeros_like(loads)
        started: set[int] = set()
        for mv in pending:
            if mv.shard_id in started:
                continue
            if location[mv.shard_id] != mv.src:
                continue
            if has_replicas and _replica_blocked(state, location, mv.shard_id, mv.dst):
                continue
            extra = demand[mv.shard_id]
            if np.all(loads[mv.dst] + in_flight[mv.dst] + extra <= capacity[mv.dst] + ATOL):
                in_flight[mv.dst] += extra
                wave.append(mv)
                started.add(mv.shard_id)
        if not wave:
            stranded = pending
            break
        peak = max(peak, float(np.max((loads + in_flight) / capacity)))
        for mv in wave:
            loads[mv.src] -= demand[mv.shard_id]
            loads[mv.dst] += demand[mv.shard_id]
            location[mv.shard_id] = mv.dst
        waves.append(wave)
        done = {id(mv) for mv in wave}
        pending = [mv for mv in pending if id(mv) not in done]
    return _schedule(waves, stranded, peak)


def _reference_staging_host(mv, loads, capacity, extra, exchange_mask, blocked, sibling_hosts):
    headroom = capacity - loads
    fits = np.all(headroom >= extra - 1e-12, axis=1)
    fits[mv.src] = False
    fits[mv.dst] = False
    fits[blocked] = False
    if sibling_hosts.size:
        valid = sibling_hosts[(sibling_hosts >= 0) & (sibling_hosts < fits.size)]
        fits[valid] = False
    candidates = np.flatnonzero(fits)
    if candidates.size == 0:
        return None
    slack = headroom[candidates].min(axis=1)
    order = np.lexsort((-slack, ~exchange_mask[candidates]))
    return int(candidates[order[0]])


def _reference_stage(state, moves, max_hops):
    loads = state.loads.copy()
    capacity = state.capacity
    demand = state.demand
    location = state.assignment.copy()
    hops_used: dict[int, int] = {}
    staged_shards: set[int] = set()
    waves: list[list[Move]] = []
    peak = float(np.max(loads / capacity))
    pending: list[Move] = sorted(moves, key=lambda mv: -mv.bytes)
    guard = 0
    while pending:
        guard += 1
        if guard > 4 * len(moves) + 16:
            return None, staged_shards
        progressed = False
        wave: list[Move] = []
        in_flight = np.zeros_like(loads)
        started: set[int] = set()
        for mv in pending:
            if mv.shard_id in started or location[mv.shard_id] != mv.src:
                continue
            if _replica_blocked(state, location, mv.shard_id, mv.dst):
                continue
            extra = demand[mv.shard_id]
            if np.all(loads[mv.dst] + in_flight[mv.dst] + extra <= capacity[mv.dst] + ATOL):
                in_flight[mv.dst] += extra
                wave.append(mv)
                started.add(mv.shard_id)
        if wave:
            peak = max(peak, float(np.max((loads + in_flight) / capacity)))
            for mv in wave:
                loads[mv.src] -= demand[mv.shard_id]
                loads[mv.dst] += demand[mv.shard_id]
                location[mv.shard_id] = mv.dst
            done = {id(mv) for mv in wave}
            pending = [mv for mv in pending if id(mv) not in done]
            waves.append(wave)
            continue
        for k, mv in enumerate(pending):
            if location[mv.shard_id] != mv.src:
                continue
            if hops_used.get(mv.shard_id, 0) >= max_hops:
                continue
            host = _reference_staging_host(
                mv, loads, capacity, demand[mv.shard_id], state.exchange_mask,
                state.offline_mask, location[state.replica_peers(mv.shard_id)],
            )
            if host is None:
                continue
            hop1 = Move(shard_id=mv.shard_id, src=mv.src, dst=host, bytes=mv.bytes, hop_of=mv.src)
            hop2 = Move(shard_id=mv.shard_id, src=host, dst=mv.dst, bytes=mv.bytes, hop_of=mv.src)
            pending[k : k + 1] = [hop1, hop2]
            hops_used[mv.shard_id] = hops_used.get(mv.shard_id, 0) + 1
            staged_shards.add(mv.shard_id)
            progressed = True
            break
        if not progressed:
            return None, staged_shards
    return _schedule(waves, [], peak), staged_shards


def reference_plan(state, target, max_hops):
    """(schedule, staged_shards, direct_feasible) of the two-loop planner."""
    moves = diff_moves(state, target)
    direct = _reference_schedule(state, moves)
    if direct.feasible:
        return direct, (), True
    staged, shards = _reference_stage(state, moves, max_hops)
    if staged is None:
        return direct, (), False
    return staged, tuple(sorted(shards)), False


# ---------------------------------------------------------------------------
# Comparison and instance builders.
# ---------------------------------------------------------------------------

def _moves(moves):
    return [(mv.shard_id, mv.src, mv.dst, mv.bytes, mv.hop_of) for mv in moves]


def assert_plan_matches_reference(state, target):
    plan = StagingPlanner().plan(state, target)
    ref, ref_staged, ref_direct = reference_plan(state, target, MAX_HOPS_PER_SHARD)
    got = plan.schedule
    assert [_moves(w) for w in got.waves] == [_moves(w) for w in ref.waves]
    assert _moves(got.stranded) == _moves(ref.stranded)
    assert got.peak_transient_utilization == ref.peak_transient_utilization
    assert plan.staged_shards == ref_staged
    assert plan.direct_feasible == ref_direct
    return plan


def _with_exchange(state, borrowed):
    if borrowed == 0:
        return state
    grown, _ = ExchangeLedger.borrow(state, make_exchange_machines(state, borrowed))
    return grown


def _capacity_feasible_target(state, rng, moves=10):
    """Random target reachable by first-fit single moves (as in the safety property)."""
    target = state.assignment
    trial = state.copy()
    for j in rng.permutation(state.num_shards)[:moves]:
        for i in rng.permutation(state.num_machines):
            if i != trial.machine_of(int(j)) and trial.fits(int(j), int(i)):
                trial.move(int(j), int(i))
                target[j] = i
                break
    return target


def _permuted_target(state, rng, kind):
    """Shuffle which shard goes where, or relabel whole machines.

    A shard shuffle is usually capacity-infeasible (plans strand); a
    machine relabelling keeps every load but turns the fleet into cycles
    of full machines, the deadlocks staging exists to break.
    """
    if kind == "shards":
        return state.assignment[rng.permutation(state.num_shards)]
    return rng.permutation(state.num_machines)[state.assignment]


permutations = st.sampled_from(["shards", "machines"])


@given(
    seed=st.integers(0, 10_000),
    borrowed=st.integers(0, 2),
    kind=permutations,
)
@settings(max_examples=60, deadline=None)
def test_parity_tight_permuted_targets(seed, borrowed, kind):
    """Tight instances with permuted targets: mostly staged or infeasible."""
    rng = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(
            num_machines=6,
            shards_per_machine=5,
            target_utilization=0.9,
            placement_skew=0.6,
            seed=seed,
        )
    )
    target = _permuted_target(state, rng, kind)
    assert_plan_matches_reference(_with_exchange(state, borrowed), target)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_parity_capacity_feasible_targets(seed):
    rng = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(
            num_machines=6,
            shards_per_machine=5,
            target_utilization=0.7,
            placement_skew=0.4,
            seed=seed,
        )
    )
    target = _capacity_feasible_target(state, rng)
    assert_plan_matches_reference(state, target)


@given(
    seed=st.integers(0, 10_000),
    borrowed=st.integers(0, 2),
    kind=permutations,
)
@settings(max_examples=40, deadline=None)
def test_parity_replicated_instances(seed, borrowed, kind):
    """Replicated instances cover the sibling anti-affinity checks."""
    rng = np.random.default_rng(seed)
    state = generate_replicated(
        ReplicatedConfig(
            base=SyntheticConfig(
                num_machines=8,
                shards_per_machine=3,
                target_utilization=0.8,
                placement_skew=0.5,
                seed=seed,
            ),
            replication_factor=2,
        )
    )
    target = _permuted_target(state, rng, kind)
    assert_plan_matches_reference(_with_exchange(state, borrowed), target)


@given(seed=st.integers(0, 10_000), extra=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_scheduler_parity_with_repeated_shards(seed, extra):
    """Caller-built move lists may start one shard twice; only the first
    move that fits starts, as in the reference loop."""
    rng = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(
            num_machines=6,
            shards_per_machine=4,
            target_utilization=0.8,
            placement_skew=0.5,
            seed=seed,
        )
    )
    moves = list(diff_moves(state, _permuted_target(state, rng, "shards")))
    for j in rng.choice(state.num_shards, size=extra, replace=False):
        src = state.machine_of(int(j))
        dst = int((src + 1 + rng.integers(state.num_machines - 1)) % state.num_machines)
        moves.insert(int(rng.integers(len(moves) + 1)), Move(int(j), src, dst, float(state.sizes[j])))
    got = WaveScheduler().schedule(state, moves)
    ref = _reference_schedule(state, moves)
    assert [_moves(w) for w in got.waves] == [_moves(w) for w in ref.waves]
    assert _moves(got.stranded) == _moves(ref.stranded)
    assert got.peak_transient_utilization == ref.peak_transient_utilization


@given(
    seed=st.integers(0, 10_000),
    borrowed=st.integers(0, 2),
    kind=permutations,
)
@settings(max_examples=25, deadline=None)
def test_parity_wide_waves(seed, borrowed, kind):
    """Fleets of 40 machines: waves start dozens of moves, several per
    destination, so the packer decides them round by round."""
    rng = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(
            num_machines=40,
            shards_per_machine=6,
            target_utilization=0.55,
            placement_skew=0.3,
            seed=seed,
        )
    )
    target = _permuted_target(state, rng, kind)
    assert_plan_matches_reference(_with_exchange(state, borrowed), target)


@given(seed=st.integers(0, 10_000), share=st.floats(0.1, 1.0))
@settings(max_examples=60, deadline=None)
def test_wave_by_rank_equals_in_order(seed, share):
    """The two wave kernels agree on every set of ready moves."""
    rng = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(
            num_machines=12,
            shards_per_machine=6,
            target_utilization=0.7,
            placement_skew=0.5,
            seed=seed,
        )
    )
    target = _permuted_target(state, rng, "shards")
    packer = WavePacker(state, diff_moves(state, target))
    ready = np.flatnonzero(rng.random(packer.pending.size) < share)
    started, in_flight = packer._wave_by_rank(ready)
    ref_started, ref_in_flight = packer._wave_in_order(ready)
    np.testing.assert_array_equal(started, ref_started)
    assert np.array_equal(in_flight, ref_in_flight)
