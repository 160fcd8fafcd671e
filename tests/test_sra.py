"""Tests for the ALNS engine and SRA end-to-end behaviour.

These are the core claims of the reproduction: SRA balances clusters,
honours the exchange contract (returns R vacant machines, possibly
different from the borrowed ones), produces transient-feasible plans,
and beats direct baselines on tight instances.
"""

import numpy as np
import pytest

from repro.algorithms import (
    AlnsConfig,
    AlnsEngine,
    GreedyRebalancer,
    LocalSearchRebalancer,
    Objective,
    SRA,
    SRAConfig,
    DEFAULT_DESTROY_OPS,
    DEFAULT_REPAIR_OPS,
)
from repro.cluster import ClusterState, ExchangeLedger, Machine, Shard
from repro.workloads import SyntheticConfig, generate, make_exchange_machines


def quick_cfg(iterations=400, seed=0, **kwargs):
    return SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed, **kwargs))


class TestAlnsConfig:
    def test_defaults_valid(self):
        AlnsConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"iterations": -5},
            {"start_temperature_ratio": 0.0},
            {"start_temperature_ratio": -0.01},
            {"start_temperature_ratio": float("nan")},
            {"reaction": 1.5},
            {"reaction": -0.1},
            {"iterations": 60.5},
            {"reaction": float("nan")},
            {"iterations": 2.0},
            {"iterations": "60"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlnsConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = AlnsConfig(iterations=np.int64(60))
        assert cfg.iterations == 60


class TestSRAConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"polish_steps": "3000"},
            {"restarts": None},
            {"polish_steps": 0},
            {"polish_steps": -5},
            {"polish_steps": 2.5},
            {"restarts": 0},
            {"restarts": 2.5},
            {"restarts": 2.0},
            {"n_workers": 2.0},
            {"n_workers": 0},
            {"n_workers": 1.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SRAConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SRAConfig(polish_steps=np.int64(5), restarts=np.int64(2), n_workers=np.int32(2))
        assert cfg.polish_steps == 5


class TestAlnsEngine:
    def test_requires_operators(self):
        with pytest.raises(ValueError, match="at least one"):
            AlnsEngine(AlnsConfig(), [], DEFAULT_REPAIR_OPS)

    def test_improves_imbalanced_cluster(self):
        machines = Machine.homogeneous(4, 10.0)
        shards = Shard.uniform(8, 1.0)
        state = ClusterState(machines, shards, [0] * 8)
        obj = Objective(state.assignment, state.sizes)
        engine = AlnsEngine(AlnsConfig(iterations=300, seed=1), DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS)
        outcome = engine.run(state, obj)
        assert outcome.best_assignment is not None
        best = state.copy()
        best.apply_assignment(outcome.best_assignment)
        assert best.peak_utilization() <= 0.3

    def test_history_starts_at_initial(self):
        state = generate(SyntheticConfig(num_machines=6, shards_per_machine=5, seed=0))
        obj = Objective(state.assignment, state.sizes)
        engine = AlnsEngine(AlnsConfig(iterations=50, seed=1), DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS)
        outcome = engine.run(state, obj)
        assert outcome.history[0] == pytest.approx(obj(state))
        assert len(outcome.history) == outcome.iterations + 1

    def test_best_filter_veto(self):
        state = generate(SyntheticConfig(num_machines=6, shards_per_machine=5, seed=0))
        obj = Objective(state.assignment, state.sizes)
        engine = AlnsEngine(AlnsConfig(iterations=100, seed=1), DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS)
        outcome = engine.run(state, obj, best_filter=lambda s: False, initial_is_valid_best=False)
        assert outcome.best_assignment is None
        assert outcome.rejected_by_filter > 0

    def test_deterministic_per_seed(self):
        state = generate(SyntheticConfig(num_machines=6, shards_per_machine=5, seed=0))
        obj = Objective(state.assignment, state.sizes)
        engine = AlnsEngine(AlnsConfig(iterations=120, seed=7), DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS)
        a = engine.run(state, obj)
        b = engine.run(state, obj)
        np.testing.assert_array_equal(a.best_assignment, b.best_assignment)
        assert a.best_objective == b.best_objective

    def test_operator_weights_reported(self):
        state = generate(SyntheticConfig(num_machines=6, shards_per_machine=5, seed=0))
        obj = Objective(state.assignment, state.sizes)
        engine = AlnsEngine(AlnsConfig(iterations=150, seed=1), DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS)
        outcome = engine.run(state, obj)
        assert any(k.startswith("destroy:") for k in outcome.operator_weights)
        assert any(k.startswith("repair:") for k in outcome.operator_weights)
        assert all(w > 0 for w in outcome.operator_weights.values())


class TestSRA:
    def test_balances_without_exchange(self):
        state = generate(
            SyntheticConfig(num_machines=10, shards_per_machine=8, seed=3, placement_skew=0.6)
        )
        result = SRA(quick_cfg()).rebalance(state)
        assert result.feasible
        assert result.peak_after < result.peak_before

    def test_final_state_within_capacity(self):
        state = generate(SyntheticConfig(num_machines=10, shards_per_machine=8, seed=3))
        result = SRA(quick_cfg()).rebalance(state)
        final = state.copy()
        final.apply_assignment(result.target_assignment)
        assert final.is_within_capacity()

    def test_exchange_contract_settled(self):
        state = generate(
            SyntheticConfig(num_machines=10, shards_per_machine=8, seed=5, target_utilization=0.8)
        )
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
        result = SRA(quick_cfg(iterations=600)).rebalance(grown, ledger)
        assert result.feasible
        assert result.settlement is not None
        assert len(result.settlement.returned_ids) == 2
        # Final state: returned machines are vacant.
        final = grown.copy()
        final.apply_assignment(result.target_assignment)
        for mid in result.settlement.returned_ids:
            assert final.shard_counts()[mid] == 0

    def test_exchange_improves_tight_instance(self):
        state = generate(
            SyntheticConfig(
                num_machines=16,
                shards_per_machine=10,
                seed=7,
                target_utilization=0.85,
                placement_skew=0.5,
            )
        )
        no_exch = SRA(quick_cfg(iterations=500)).rebalance(state)
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 3))
        with_exch = SRA(quick_cfg(iterations=500)).rebalance(grown, ledger)
        assert with_exch.feasible
        # Exchange machines must not hurt, and ordinarily help.
        assert with_exch.peak_after <= no_exch.peak_after + 0.02

    def test_plan_is_executable(self):
        state = generate(SyntheticConfig(num_machines=10, shards_per_machine=8, seed=9))
        result = SRA(quick_cfg()).rebalance(state)
        assert result.plan is not None
        assert result.plan.feasible
        # Execute the waves and confirm we land on the target.
        sim = state.copy()
        for wave in result.plan.schedule.waves:
            inflight = np.zeros_like(sim.loads)
            for mv in wave:
                inflight[mv.dst] += sim.demand[mv.shard_id]
            assert np.all(sim.loads + inflight <= sim.capacity + 1e-9)
            for mv in wave:
                sim.move(mv.shard_id, mv.dst)
        np.testing.assert_array_equal(sim.assignment, result.target_assignment)

    def test_impossible_contract_reported_infeasible(self):
        # Demand too high for any machine to be vacated.
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(4, 4.0)  # 16 total; one machine can hold 2 max
        state = ClusterState(machines, shards, [0, 0, 1, 1])
        grown, ledger = ExchangeLedger.borrow(state, [], required_returns=2)
        result = SRA(quick_cfg(iterations=100)).rebalance(grown, ledger)
        assert not result.feasible

    def test_beats_baselines_on_tight_skewed_instance(self):
        state = generate(
            SyntheticConfig(
                num_machines=20,
                shards_per_machine=10,
                seed=11,
                target_utilization=0.85,
                placement_skew=0.6,
            )
        )
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
        sra = SRA(quick_cfg(iterations=800)).rebalance(grown, ledger)
        greedy = GreedyRebalancer().rebalance(state)
        ls = LocalSearchRebalancer(seed=1).rebalance(state)
        assert sra.feasible
        assert sra.peak_after <= min(greedy.peak_after, ls.peak_after) + 1e-6

    def test_deterministic_per_seed(self):
        state = generate(SyntheticConfig(num_machines=8, shards_per_machine=6, seed=1))
        a = SRA(quick_cfg(seed=5)).rebalance(state)
        b = SRA(quick_cfg(seed=5)).rebalance(state)
        np.testing.assert_array_equal(a.target_assignment, b.target_assignment)

    def test_ablation_flags(self):
        state = generate(SyntheticConfig(num_machines=8, shards_per_machine=6, seed=1))
        no_vac = SRA(SRAConfig(alns=AlnsConfig(iterations=100), use_vacancy_removal=False))
        no_couple = SRA(SRAConfig(alns=AlnsConfig(iterations=100), feasibility_coupling=False))
        assert no_vac.rebalance(state).feasible
        assert no_couple.rebalance(state).feasible

    def test_seed_override(self):
        cfg = SRAConfig(seed=42)
        assert cfg.alns.seed == 42
