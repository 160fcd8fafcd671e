"""Bitwise parity of the polish move and swap scans against their oracle (hypothesis).

``LocalSearchRebalancer._try_move`` scores the fitting destinations of
a sampled shard in one vector pass per block, and ``_try_swap`` all sampled pairs of
the hottest and one cool machine, both reading a kernel local to the
descent (``_PolishKernel``: host lists, peaks, headroom and open mask,
refreshed only at the machines a step touched); ``tests/oracles/polish.py``
keeps the copy-per-destination move scan and the per-pair swap scan,
which read the state afresh.  On every
generated instance both descents take the same steps: the assignment
after each step and the step count are identical.  The instances force
the cases the vector passes handle separately: two machines tied at the
current peak, a shard with no demand in the hottest machine's
bottleneck dimension, replica groups, blocked machines, heterogeneous
capacities, swaps between sampled shard sets, a replica sibling on the
cool machine, and (in one fixed case) m >= 1000, where ``np.sum`` sums
in pairwise blocks.

The move scan visits destinations in two blocks, machine ids below
``_MOVE_BLOCK`` and then the rest.  Fixed fleets of ``_MOVE_BLOCK + 200``
machines pin the cases that only a second block shows: the first
improving destination (and a replica sibling to skip) past the first
block, a tie at the current max in the first block ahead of a strict
improvement in the second, and a step where no shard moves, so every
block is scanned before the swap pass runs.

After every move and swap scan of descents that take both kinds of step,
the kernel's peaks, headroom, open mask and host lists equal the
state's bitwise, and each ``history`` entry equals the state's peak.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.baselines import _MOVE_BLOCK, LocalSearchRebalancer
from repro.cluster import ClusterState, Machine, Shard
from tests.oracles.polish import OracleLocalSearch


def build_instance(seed, m, *, hetero, replicas, blocked, tie):
    """An imbalanced fleet of *m* machines, about four shards each.

    With *tie*, machines 0 and 1 carry identical shard sets and
    capacities, sized so both sit at the fleet's peak, bottlenecked on
    dimension 0; each holds a shard with zero dimension-0 demand.  With
    *blocked*, the last two machines are left vacant and blocked.  With
    *replicas*, consecutive random shards pair up as replicas of one
    logical shard, on distinct machines.
    """
    rng = np.random.default_rng(seed)
    caps = rng.choice([60.0, 100.0, 140.0], size=(m, 3)) if hetero else np.full((m, 3), 100.0)
    num_open = m - 2 if blocked and m > 4 else m
    pool = np.arange(2 if tie else 0, num_open)
    demands, hosts, groups = [], [], []
    pair = [[9.0, 4.0, 3.0], [8.0, 2.0, 5.0], [0.0, 6.0, 4.0]]
    if tie:
        for machine in (0, 1):
            demands.extend(np.array(pair))
            hosts.extend([machine] * len(pair))
            groups.extend([-1] * len(pair))
    # Skewed placement: low machine ids receive more shards.
    weights = 1.0 / (1.0 + np.arange(pool.size))
    for k in range(4 * m):
        d = rng.uniform(0.0, 12.0, size=3)
        zero = rng.random(3) < 0.15
        zero[rng.integers(3)] = False  # a shard demands something
        d[zero] = 0.0
        host = int(rng.choice(pool, p=weights / weights.sum()))
        if replicas and k % 2 == 1 and pool.size > 1 and host == hosts[-1]:
            host = int(pool[(np.searchsorted(pool, host) + 1) % pool.size])
        demands.append(d)
        hosts.append(host)
        groups.append(k // 2 if replicas else -1)
    if tie:
        loads = np.zeros((m, 3))
        np.add.at(loads, np.asarray(hosts), np.asarray(demands))
        rest = (loads[2:] / caps[2:]).max(initial=0.0) or 0.5
        caps[0] = caps[1] = loads[0] / (rest * np.array([1.1, 0.5, 0.5]))
    shards = [
        Shard(id=j, demand=np.asarray(d, dtype=float), replica_of=g)
        for j, (d, g) in enumerate(zip(demands, groups))
    ]
    machines = [Machine(id=i, capacity=caps[i]) for i in range(m)]
    state = ClusterState(machines, shards, hosts)
    if blocked and m > 4:
        state.block_machine(m - 1)
        state.block_machine(m - 2)
    return state


def step_sequence(cls, state, seed, max_steps, sample=8):
    """Assignments and ``polish.step`` kinds after each step of *cls*'s
    descent, then its step count and final assignment in one call."""
    work = state.copy()
    rng = np.random.default_rng(seed)
    ls = cls(seed=seed, neighborhood_sample=sample)
    trail = []
    with obs.observed() as o:
        while len(trail) < max_steps and ls.improve_in_place(work, rng, max_steps=1):
            trail.append(work.assignment)
    kinds = [r["attrs"]["kind"] for r in o.tracer.records() if r["name"] == "polish.step"]
    whole = state.copy()
    steps = cls(seed=seed, neighborhood_sample=sample).improve_in_place(
        whole, np.random.default_rng(seed), max_steps=max_steps
    )
    return trail, kinds, steps, whole.assignment


def assert_same_steps(state, seed, max_steps=60, sample=8):
    """Both descents take the same steps; returns the kinds taken."""
    got, kinds, got_steps, got_final = step_sequence(
        LocalSearchRebalancer, state, seed, max_steps, sample
    )
    ref, ref_kinds, ref_steps, ref_final = step_sequence(
        OracleLocalSearch, state, seed, max_steps, sample
    )
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)
    assert kinds == ref_kinds and len(kinds) == len(got)
    assert got_steps == ref_steps == len(ref)
    np.testing.assert_array_equal(got_final, ref_final)
    return kinds


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(3, 24),
    hetero=st.booleans(),
    replicas=st.booleans(),
    blocked=st.booleans(),
    tie=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_polish_steps_match_oracle(seed, m, hetero, replicas, blocked, tie):
    state = build_instance(seed, m, hetero=hetero, replicas=replicas, blocked=blocked, tie=tie)
    assert_same_steps(state, seed)


def test_tie_instance_takes_tie_broken_steps():
    """The tie fixture really ties: both peak machines share the max."""
    state = build_instance(3, 6, hetero=False, replicas=False, blocked=False, tie=True)
    peaks = state.machine_peak_utilization()
    assert peaks[0] == peaks[1] == peaks.max()
    assert_same_steps(state, 3)


def test_polish_steps_match_oracle_at_scale():
    """m >= 1000: the sums of squared peaks run over pairwise-summed blocks."""
    state = build_instance(11, 1030, hetero=True, replicas=False, blocked=True, tie=True)
    assert_same_steps(state, 11, max_steps=12)


@pytest.mark.parametrize("seed,m,sample", [(1, 6, 2), (2, 8, 2), (0, 8, 3)])
def test_swaps_between_sampled_shard_sets(seed, m, sample):
    """``neighborhood_sample`` below both machines' shard counts: the
    swap scan runs over ``rng.choice`` draws of both sides, and the
    descent takes such swaps."""
    state = build_instance(seed, m, hetero=True, replicas=False, blocked=False, tie=False)
    kinds = assert_same_steps(state, seed, sample=sample)
    trail, _, _, _ = step_sequence(LocalSearchRebalancer, state, seed, 60, sample)
    sampled_swaps = 0
    for before, after, kind in zip([state.assignment] + trail, trail, kinds):
        if kind == "swap":
            counts = np.bincount(before, minlength=m)
            pair = before[np.flatnonzero(before != after)]
            sampled_swaps += bool(np.all(counts[pair] > sample))
    assert sampled_swaps >= 2


def first_step(demand, hosts, groups=None):
    """A three-machine fleet of capacity 100 per dimension; the descent's
    kinds against the oracle and the assignment after its first step."""
    groups = groups or [-1] * len(demand)
    shards = [
        Shard(id=j, demand=np.full(3, d), replica_of=g)
        for j, (d, g) in enumerate(zip(demand, groups))
    ]
    state = ClusterState(Machine.homogeneous(3, 100.0), shards, hosts)
    kinds = assert_same_steps(state, 0)
    LocalSearchRebalancer(seed=0).improve_in_place(state, np.random.default_rng(0), max_steps=1)
    assert not state.has_replica_conflicts()
    return kinds, state.assignment


def test_swap_pairs_with_a_sibling_on_the_cool_machine():
    """Shard 0 on the hot machine 0 has a replica sibling, shard 4, on the
    cool machine 1, and no move improves.  Swapping shard 0 with shards 2
    or 3 would co-locate the siblings; swapping it with shard 4 itself
    does not, and is the first improving pair."""
    kinds, after = first_step(
        [45.0, 45.0, 30.0, 10.0, 10.0, 52.0], [0, 0, 1, 1, 1, 2], [0, -1, -1, -1, 0, -1]
    )
    assert kinds[0] == "swap"
    np.testing.assert_array_equal(after, [1, 0, 1, 1, 0, 2])


def test_swap_needs_an_executable_order():
    """Swapping shards 0 (50) and 2 (45) is the first pair that would
    improve, but neither machine can hold the other's shard in flight;
    the descent swaps shards 1 and 3 instead."""
    kinds, after = first_step([50.0, 40.0, 45.0, 10.0, 56.0], [0, 0, 1, 1, 2])
    assert kinds[0] == "swap"
    np.testing.assert_array_equal(after, [0, 1, 1, 0, 2])


def test_tie_broken_swaps_match_oracle_at_scale():
    """m = 1030: two machines tie at the peak and no move can keep it, so
    every improving step is a swap scored by the sum of squared peaks
    over pairwise-summed blocks."""
    rng = np.random.default_rng(5)
    m = 1030
    demands, hosts = [np.full(3, 45.0)] * 4, [0, 0, 1, 1]
    for i in range(2, m):
        # Loads above 45 block every move of a 45-shard at the 90% peak;
        # loads up to 55 still hold one in flight (swap order A).
        load = rng.uniform(46.0, 55.0, size=3)
        first = rng.uniform(15.0, 30.0, size=3)
        demands.extend([first, load - first])
        hosts.extend([i, i])
    shards = [Shard(id=j, demand=d) for j, d in enumerate(demands)]
    state = ClusterState(Machine.homogeneous(m, 100.0), shards, hosts)
    kinds = assert_same_steps(state, 5, max_steps=6)
    assert kinds and set(kinds) == {"swap"}


def test_swap_below_a_tied_peak_must_lower_the_sum_of_squares():
    """Machines 0 and 1 tie at the 0.9 peak.  Swapping a shard of machine
    0 with one of machine 2 brings both below 0.9 (0.86 and 0.89), but
    machine 1 keeps the max at 0.9 and the sum of squared peaks rises,
    so no step improves.  Scoring the swap without the other machines'
    peak would take it."""
    demand = [[45.0, 5.0, 0.0]] * 4 + [[41.0, 0.0, 0.0], [5.0, 84.0, 0.0]]
    shards = [Shard(id=j, demand=np.array(d)) for j, d in enumerate(demand)]
    state = ClusterState(Machine.homogeneous(3, 100.0), shards, [0, 0, 1, 1, 2, 2])
    assert assert_same_steps(state, 0) == []


def block_fleet(loads, hot=(30.0, 60.0), capacity=None, groups=None):
    """Machine 0 holds the *hot* shards; machine ``i >= 1`` holds one
    shard of ``loads[i - 1]`` (a pair of shards where *loads* gives a
    pair), every dimension alike, capacity 100 unless *capacity* maps a
    machine id to another.  *groups* maps shard ids to replica groups."""
    demand, hosts = list(hot), [0] * len(hot)
    for i, load in enumerate(loads, start=1):
        parts = load if isinstance(load, tuple) else (load,)
        demand.extend(parts)
        hosts.extend([i] * len(parts))
    groups = groups or {}
    shards = [
        Shard(id=j, demand=np.full(3, d), replica_of=groups.get(j, -1))
        for j, d in enumerate(demand)
    ]
    capacity = capacity or {}
    machines = [
        Machine(id=i, capacity=np.full(3, capacity.get(i, 100.0))) for i in range(len(loads) + 1)
    ]
    return ClusterState(machines, shards, hosts)


def first_move(state):
    """The shard and destination of the descent's first step."""
    work = state.copy()
    LocalSearchRebalancer(seed=0, neighborhood_sample=8).improve_in_place(
        work, np.random.default_rng(0), max_steps=1
    )
    moved = np.flatnonzero(work.assignment_view() != state.assignment_view())
    return [(int(j), int(work.machine_of(int(j)))) for j in moved]


@pytest.mark.parametrize(
    "sibling,target", [(_MOVE_BLOCK + 50, _MOVE_BLOCK + 60), (_MOVE_BLOCK - 1, _MOVE_BLOCK)]
)
def test_first_improving_destination_past_the_first_block(sibling, target):
    """Every machine before *target* is too full for the 30-shard,
    except *sibling*, which holds its replica sibling.  The first
    improving destination is *target*, in the second block (at its
    first machine in the second case)."""
    m = _MOVE_BLOCK + 200
    loads = [10.0 if i in (sibling, target) else 80.0 for i in range(1, m)]
    # Shard ids: 0, 1 on machine 0; machine i's shard is i + 1.
    state = block_fleet(loads, groups={0: 0, sibling + 1: 0})
    assert first_move(state) == [(0, target)]
    assert_same_steps(state, 0, max_steps=20)


def test_tie_in_first_block_is_scored_before_a_later_strict_improvement():
    """Moving the 30-shard to machine 100 (capacity 200, load 150) raises
    it exactly to the current max, 0.9, and lowers the sum of squared
    peaks: a tie-broken improvement in the first block.  Machine
    ``_MOVE_BLOCK + 60`` would lower the max, but comes later."""
    m = _MOVE_BLOCK + 200
    tie, strict = 100, _MOVE_BLOCK + 60
    loads = [150.0 if i == tie else 10.0 if i == strict else 80.0 for i in range(1, m)]
    state = block_fleet(loads, capacity={tie: 200.0})
    assert 180.0 / 200.0 == state.peak_utilization() == 0.9
    assert first_move(state) == [(0, tie)]
    assert_same_steps(state, 0, max_steps=20)


def test_no_shard_moves_so_every_block_is_scanned_then_swaps():
    """Every other machine holds 50.5-55 in two shards: the 40-shard of
    the hot machine fits everywhere but would push its destination past
    0.9, and the 50-shard fits nowhere.  Both blocks are scanned for
    each sampled shard, nothing moves, and the step is a swap."""
    rng = np.random.default_rng(7)
    loads = []
    for _ in range(_MOVE_BLOCK + 200):
        load = rng.uniform(50.5, 55.0)
        first = rng.uniform(15.0, 30.0)
        loads.append((first, load - first))
    state = block_fleet(loads, hot=(50.0, 40.0))
    kinds = assert_same_steps(state, 7, max_steps=6)
    assert kinds and kinds[0] == "swap"


class CheckedLocalSearch(LocalSearchRebalancer):
    """``LocalSearchRebalancer`` that checks the descent's kernel against
    the state after every move and swap scan, and records the state's
    peak after every step taken."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.kinds, self.peaks = [], []

    def _try_move(self, work, rng, kern):
        return self._checked("move", super()._try_move(work, rng, kern), work, kern)

    def _try_swap(self, work, rng, kern):
        return self._checked("swap", super()._try_swap(work, rng, kern), work, kern)

    def _checked(self, kind, took, work, kern):
        assert kern.peak.tobytes() == work.machine_peak_utilization().tobytes()
        head_t = work.capacity_by_dim() - work.loads_by_dim()
        assert kern.head_t.tobytes() == head_t.tobytes()
        np.testing.assert_array_equal(kern.open, ~work.blocked_mask)
        for i in range(work.num_machines):
            assert kern.members(i) == work.machine_shards(i).tolist()
        if took:
            self.kinds.append(kind)
            self.peaks.append(work.peak_utilization())
        return took


def checked_descent(state, seed, sample, max_steps=200):
    """Run the checked descent; its ``history`` must equal the state's
    peak after each step.  Returns the kinds of the steps taken."""
    ls = CheckedLocalSearch(seed=seed, neighborhood_sample=sample)
    work = state.copy()
    history = [work.peak_utilization()]
    rng = np.random.default_rng(seed)
    steps = ls.improve_in_place(work, rng, history=history, max_steps=max_steps)
    assert steps == len(ls.kinds) == len(history) - 1
    assert np.array(history[1:]).tobytes() == np.array(ls.peaks).tobytes()
    return ls.kinds


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(5, 16),
    hetero=st.booleans(),
    replicas=st.booleans(),
    blocked=st.booleans(),
    tie=st.booleans(),
    sample=st.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_state_after_every_step(seed, m, hetero, replicas, blocked, tie, sample):
    """The kernel's peaks, headroom, open mask and host lists equal the
    state's bitwise after every move and swap, and so does ``history``."""
    state = build_instance(seed, m, hetero=hetero, replicas=replicas, blocked=blocked, tie=tie)
    checked_descent(state, seed, sample)


@pytest.mark.parametrize(
    "seed,flags", [(0, (True, True, True, True)), (1, (True, False, True, False))]
)
def test_kernel_matches_state_through_moves_and_swaps(seed, flags):
    """Fixed fleets whose descents take both kinds of step."""
    hetero, replicas, blocked, tie = flags
    state = build_instance(seed, 12, hetero=hetero, replicas=replicas, blocked=blocked, tie=tie)
    kinds = checked_descent(state, seed, 2)
    assert kinds.count("move") > 10 and kinds.count("swap") >= 3
