"""Tests for the pure-Python branch-and-bound oracle.

The decisive check: on every instance both exact backends (HiGHS MILP
and this B&B) report the same optimal objective — two independent
implementations agreeing on the model's meaning.
"""

import numpy as np
import pytest

from repro.cluster import ClusterState, Machine, Shard
from repro.model import MilpSolver, ModelConfig
from repro.workloads import SyntheticConfig, generate
from tests.oracles.branch_and_bound import BranchAndBoundSolver


def solve_both(state, config):
    bb = BranchAndBoundSolver(config, time_limit=60.0).solve(state)
    hg = MilpSolver(config).solve(state)
    return bb, hg


class TestBranchAndBound:
    def test_balances_two_machines(self):
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(4, 1.0)
        state = ClusterState(machines, shards, [0, 0, 0, 0])
        result = BranchAndBoundSolver(ModelConfig(move_penalty=0.0)).solve(state)
        assert result.status == "optimal"
        assert result.peak_utilization == pytest.approx(0.2, abs=1e-6)

    def test_agrees_with_highs_on_tiny_instances(self):
        for seed in (0, 1):
            state = generate(
                SyntheticConfig(
                    num_machines=3,
                    shards_per_machine=2,
                    seed=seed,
                    target_utilization=0.6,
                )
            )
            cfg = ModelConfig(move_penalty=0.001)
            bb, hg = solve_both(state, cfg)
            assert bb.status == "optimal" and hg.status == "optimal"
            assert bb.objective == pytest.approx(hg.objective, abs=1e-6)

    def test_vacancy_constraint(self):
        machines = Machine.homogeneous(3, 10.0)
        shards = Shard.uniform(4, 1.0)
        state = ClusterState(machines, shards, [0, 1, 2, 0])
        cfg = ModelConfig(required_returns=1, move_penalty=0.0)
        bb, hg = solve_both(state, cfg)
        assert bb.status == "optimal"
        assert bb.peak_utilization == pytest.approx(hg.peak_utilization, abs=1e-6)
        assert len(bb.vacant_machines) >= 1

    def test_infeasible_detected(self):
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(4, 4.0)
        state = ClusterState(machines, shards, [0, 0, 1, 1])
        result = BranchAndBoundSolver(
            ModelConfig(required_returns=1, move_penalty=0.0)
        ).solve(state)
        assert result.status == "infeasible"
        assert not result.ok

    def test_anti_affinity_respected(self):
        machines = Machine.homogeneous(2, 10.0)
        shards = [
            Shard(id=0, demand=np.full(3, 4.0), replica_of=0),
            Shard(id=1, demand=np.full(3, 4.0), replica_of=0),
            Shard(id=2, demand=np.full(3, 1.0)),
        ]
        state = ClusterState(machines, shards, [0, 1, 0])
        result = BranchAndBoundSolver(ModelConfig(move_penalty=0.0)).solve(state)
        assert result.ok
        final = state.copy()
        final.apply_assignment(result.assignment)
        assert not final.has_replica_conflicts()

    def test_timeout_reports_honestly(self):
        state = generate(
            SyntheticConfig(num_machines=5, shards_per_machine=4, seed=2)
        )
        result = BranchAndBoundSolver(
            ModelConfig(move_penalty=0.0), time_limit=0.2
        ).solve(state)
        assert result.status in ("timeout", "optimal", "failed")
        if result.status == "timeout":
            assert result.assignment is not None  # incumbent still usable

    def test_validation(self):
        with pytest.raises(ValueError, match="time_limit"):
            BranchAndBoundSolver(time_limit=0.0)
        with pytest.raises(ValueError, match="node_limit"):
            BranchAndBoundSolver(node_limit=0)
