"""Tests for the baseline rebalancers."""

import numpy as np
import pytest

from repro.algorithms import (
    GreedyRebalancer,
    LocalSearchRebalancer,
    NoopRebalancer,
    RandomRestartRebalancer,
)
from repro.cluster import ClusterState, Machine, Shard
from repro.workloads import SyntheticConfig, generate


def imbalanced_state():
    machines = Machine.homogeneous(4, 10.0)
    shards = Shard.uniform(8, 1.0)
    return ClusterState(machines, shards, [0] * 8)  # all on machine 0


class TestNoop:
    def test_proposes_no_change(self):
        state = imbalanced_state()
        result = NoopRebalancer().rebalance(state)
        np.testing.assert_array_equal(result.target_assignment, state.assignment)
        assert result.num_moves == 0
        assert result.peak_before == result.peak_after
        assert result.feasible  # initial state is within capacity

    def test_input_not_mutated(self):
        state = imbalanced_state()
        before = state.assignment
        NoopRebalancer().rebalance(state)
        np.testing.assert_array_equal(state.assignment, before)


class TestGreedy:
    def test_balances_trivial_case(self):
        result = GreedyRebalancer().rebalance(imbalanced_state())
        assert result.feasible
        assert result.peak_after <= 0.2 + 1e-9  # 2 shards per machine
        assert result.improvement > 0

    def test_respects_move_budget(self):
        result = GreedyRebalancer(max_moves=2).rebalance(imbalanced_state())
        assert result.num_moves <= 2

    def test_stops_when_balanced(self):
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(2, 1.0)
        state = ClusterState(machines, shards, [0, 1])
        result = GreedyRebalancer().rebalance(state)
        assert result.num_moves == 0

    def test_plan_is_transient_feasible(self):
        state = generate(SyntheticConfig(num_machines=10, shards_per_machine=6, seed=2))
        result = GreedyRebalancer().rebalance(state)
        assert result.plan is not None and result.plan.feasible


class TestLocalSearch:
    def test_improves_generated_instance(self):
        state = generate(
            SyntheticConfig(num_machines=12, shards_per_machine=8, seed=4, placement_skew=0.6)
        )
        result = LocalSearchRebalancer(seed=1).rebalance(state)
        assert result.feasible
        assert result.peak_after <= result.peak_before + 1e-9

    def test_beats_greedy_or_ties(self):
        state = generate(
            SyntheticConfig(num_machines=12, shards_per_machine=8, seed=4, placement_skew=0.6)
        )
        greedy = GreedyRebalancer().rebalance(state)
        ls = LocalSearchRebalancer(seed=1).rebalance(state)
        assert ls.peak_after <= greedy.peak_after + 0.02

    def test_history_is_monotone_nonincreasing(self):
        state = imbalanced_state()
        result = LocalSearchRebalancer(seed=0).rebalance(state)
        hist = np.array(result.history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_swap_improves_when_no_single_move_does(self):
        # m0: 4+4 = 8 (peak 0.8), m1: 3+2 = 5.  Every single move raises
        # the peak (4 -> m1 gives 0.9), but swapping 4 <-> 2 yields 6/7
        # (peak 0.7) and is executable (m1 can hold the in-flight copy).
        machines = Machine.homogeneous(2, 10.0)
        shards = [
            Shard(id=0, demand=np.full(3, 4.0)),
            Shard(id=1, demand=np.full(3, 4.0)),
            Shard(id=2, demand=np.full(3, 3.0)),
            Shard(id=3, demand=np.full(3, 2.0)),
        ]
        state = ClusterState(machines, shards, [0, 0, 1, 1])
        result = LocalSearchRebalancer(seed=0).rebalance(state)
        assert result.peak_after == pytest.approx(0.7)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="max_steps"):
            LocalSearchRebalancer(max_steps=0)
        with pytest.raises(ValueError, match="neighborhood_sample"):
            LocalSearchRebalancer(neighborhood_sample=0)

    @pytest.mark.parametrize("value", [2.5, "3", None])
    def test_non_integer_params_rejected(self, value):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            LocalSearchRebalancer(max_steps=value)
        with pytest.raises(ValueError, match="neighborhood_sample must be an integer"):
            LocalSearchRebalancer(neighborhood_sample=value)

    @pytest.mark.parametrize("value", [2.5, "3"])
    def test_non_integer_step_budget_rejected(self, value):
        work = imbalanced_state()
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            LocalSearchRebalancer().improve_in_place(
                work, np.random.default_rng(0), max_steps=value
            )

    @pytest.mark.parametrize("value", [0, -5])
    def test_non_positive_step_budget_rejected(self, value):
        # The constructor rejects max_steps <= 0; the per-call budget
        # must too, not silently run zero steps.
        work = imbalanced_state()
        with pytest.raises(ValueError, match="max_steps must be > 0"):
            LocalSearchRebalancer().improve_in_place(
                work, np.random.default_rng(0), max_steps=value
            )

    def test_numpy_integer_params_accepted(self):
        ls = LocalSearchRebalancer(max_steps=np.int64(3), neighborhood_sample=np.int32(4))
        assert (ls.max_steps, ls.neighborhood_sample) == (3, 4)
        assert type(ls.max_steps) is int


class TestRandomRestart:
    def test_never_worse_than_initial(self):
        state = generate(SyntheticConfig(num_machines=8, shards_per_machine=6, seed=6))
        result = RandomRestartRebalancer(restarts=4, seed=0).rebalance(state)
        assert result.peak_after <= result.peak_before + 1e-9

    def test_deterministic_per_seed(self):
        state = generate(SyntheticConfig(num_machines=8, shards_per_machine=6, seed=6))
        a = RandomRestartRebalancer(restarts=4, seed=0).rebalance(state)
        b = RandomRestartRebalancer(restarts=4, seed=0).rebalance(state)
        np.testing.assert_array_equal(a.target_assignment, b.target_assignment)

    def test_invalid_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            RandomRestartRebalancer(restarts=0)


class TestResultMetadata:
    def test_runtime_recorded(self):
        result = GreedyRebalancer().rebalance(imbalanced_state())
        assert result.runtime_seconds >= 0

    def test_num_moves_counts_logical_moves(self):
        state = imbalanced_state()
        result = GreedyRebalancer().rebalance(state)
        changed = int(np.sum(result.target_assignment != state.assignment))
        assert result.num_moves == changed
