"""Tests for the search objective."""

import numpy as np
import pytest

from repro.algorithms import Objective, ObjectiveWeights
from repro.algorithms.objective import _SMOOTH_WEIGHT
from repro.cluster import ClusterState, Machine, Shard


def state_with(assign, cap=10.0, dem=2.0, m=3, n=3):
    machines = Machine.homogeneous(m, cap)
    shards = Shard.uniform(n, dem)
    return ClusterState(machines, shards, assign)


class TestWeights:
    def test_defaults_valid(self):
        ObjectiveWeights()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"move_penalty": -1.0},
            {"move_penalty": -1e-12},
            {"move_penalty": float("-inf")},
        ],
    )
    def test_negative_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObjectiveWeights(**kwargs)


class TestObjective:
    def test_peak_dominates(self):
        state = state_with([0, 1, 2])
        obj = Objective(state.assignment, state.sizes)
        comps = obj.components(state)
        assert comps["peak"] == pytest.approx(0.2)
        assert comps["value"] == pytest.approx(
            0.2 + _SMOOTH_WEIGHT * comps["smooth"], abs=1e-9
        )

    def test_moved_fraction(self):
        state = state_with([0, 1, 2])
        obj = Objective(state.assignment, state.sizes, weights=ObjectiveWeights(move_penalty=1.0))
        moved = state.copy()
        moved.move(0, 1)
        comps = obj.components(moved)
        assert comps["moved_fraction"] == pytest.approx(1.0 / 3.0)

    def test_overload_penalized(self):
        state = state_with([0, 0, 0], cap=5.0, dem=2.0)  # 6/5 on machine 0
        obj = Objective(state.assignment, state.sizes)
        comps = obj.components(state)
        assert comps["overload"] > 0
        assert comps["value"] > 1.0  # dominated by the penalty

    def test_vacancy_shortfall(self):
        state = state_with([0, 1, 2])
        obj = Objective(state.assignment, state.sizes, required_returns=1)
        assert obj.components(state)["vacancy_shortfall"] == 1.0
        packed = state.copy()
        packed.move(2, 0)
        assert obj.components(packed)["vacancy_shortfall"] == 0.0

    def test_vacancy_satisfied_beats_shortfall(self):
        state = state_with([0, 1, 2])
        obj = Objective(state.assignment, state.sizes, required_returns=1)
        packed = state.copy()
        packed.move(2, 0)  # worse peak but satisfies vacancy
        assert obj(packed) < obj(state)

    def test_is_feasible(self):
        state = state_with([0, 1, 2])
        obj0 = Objective(state.assignment, state.sizes)
        assert obj0.is_feasible(state)
        obj1 = Objective(state.assignment, state.sizes, required_returns=1)
        assert not obj1.is_feasible(state)
        packed = state.copy()
        packed.move(2, 0)
        assert obj1.is_feasible(packed)

    def test_is_feasible_rejects_unassigned(self):
        state = state_with([0, 1, 2])
        obj = Objective(state.assignment, state.sizes)
        partial = state.copy()
        partial.unassign(0)
        assert not obj.is_feasible(partial)

    def test_is_feasible_rejects_overload(self):
        state = state_with([0, 0, 0], cap=5.0, dem=2.0)
        obj = Objective(state.assignment, state.sizes)
        assert not obj.is_feasible(state)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Objective(np.zeros(3, dtype=np.int64), np.zeros(2))

    @pytest.mark.parametrize("value", [1.5, "1", -1])
    def test_invalid_required_returns_rejected(self, value):
        with pytest.raises(ValueError, match="required_returns"):
            Objective(np.zeros(3, dtype=np.int64), np.ones(3), required_returns=value)

    def test_numpy_integer_required_returns_accepted(self):
        obj = Objective(np.zeros(3, dtype=np.int64), np.ones(3), required_returns=np.int64(2))
        assert obj.required_returns == 2 and type(obj.required_returns) is int

    def test_lower_peak_is_better(self):
        state = state_with([0, 0, 1])
        obj = Objective(state.assignment, state.sizes, weights=ObjectiveWeights(move_penalty=0.0))
        balanced = state.copy()
        balanced.move(1, 2)
        assert obj(balanced) < obj(state)
