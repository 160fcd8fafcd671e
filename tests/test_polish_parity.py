"""Bitwise parity of the polish move scan against its oracle (hypothesis).

``LocalSearchRebalancer._try_move`` scores all fitting destinations of a
sampled shard in one vector pass; ``tests/oracles/polish.py`` keeps the
copy-per-destination scan.  On every generated instance both descents
take the same steps: the assignment after each step and the step count
are identical.  The instances force the cases the vector pass handles
separately: two machines tied at the current peak, a shard with no
demand in the hottest machine's bottleneck dimension, replica groups,
blocked machines, heterogeneous capacities, and (in one fixed case)
m >= 1000, where ``np.sum`` sums in pairwise blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.baselines import LocalSearchRebalancer
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


def step_sequence(cls, state, seed, max_steps):
    """Assignments after each step of *cls*'s descent, then its step count."""
    work = state.copy()
    rng = np.random.default_rng(seed)
    ls = cls(seed=seed, neighborhood_sample=8)
    trail = []
    while len(trail) < max_steps and ls.improve_in_place(work, rng, max_steps=1):
        trail.append(work.assignment)
    whole = state.copy()
    steps = cls(seed=seed, neighborhood_sample=8).improve_in_place(
        whole, np.random.default_rng(seed), max_steps=max_steps
    )
    return trail, steps, whole.assignment


def assert_same_steps(state, seed, max_steps=60):
    got, got_steps, got_final = step_sequence(LocalSearchRebalancer, state, seed, max_steps)
    ref, ref_steps, ref_final = step_sequence(OracleLocalSearch, state, seed, max_steps)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)
    assert got_steps == ref_steps == len(ref)
    np.testing.assert_array_equal(got_final, ref_final)


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
