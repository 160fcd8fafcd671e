"""SRA plans each incumbent once.

The best filter diffs a candidate once and hands the move table to
``StagingPlanner.plan``; ``finalize_result`` reuses the plan of the
accepted target instead of planning it again.  These tests count the
calls and pin the reused plan bitwise to a fresh plan of the target.
"""

import pytest

import repro.algorithms.sra as sra_module
import repro.migration.staging as staging_module
from repro.algorithms import AlnsConfig, MigrationBudget, SRA, SRAConfig
from repro.cluster import ExchangeLedger
from repro.migration import StagingPlanner
from repro.workloads import SyntheticConfig, generate, make_exchange_machines


@pytest.fixture
def calls(monkeypatch):
    """Counts of diff_moves and plan calls, and of plans made in finalize."""
    counts = {"diff": 0, "plan": 0, "vetoed": 0, "finalize_plans": 0, "finalize": 0}

    def counted_diff(original):
        def diff(*args, **kwargs):
            counts["diff"] += 1
            return original(*args, **kwargs)

        return diff

    monkeypatch.setattr(sra_module, "diff_moves", counted_diff(sra_module.diff_moves))
    monkeypatch.setattr(
        staging_module, "diff_moves", counted_diff(staging_module.diff_moves)
    )
    plan = StagingPlanner.plan

    def counted_plan(self, *args, **kwargs):
        counts["plan"] += 1
        result = plan(self, *args, **kwargs)
        counts["vetoed"] += not result.feasible
        return result

    monkeypatch.setattr(StagingPlanner, "plan", counted_plan)
    finalize = sra_module.finalize_result

    def counted_finalize(*args, **kwargs):
        before = counts["plan"]
        result = finalize(*args, **kwargs)
        counts["finalize"] += 1
        counts["finalize_plans"] += counts["plan"] - before
        return result

    monkeypatch.setattr(sra_module, "finalize_result", counted_finalize)
    return counts


def _moves(moves):
    return [(mv.shard_id, mv.src, mv.dst, mv.bytes, mv.hop_of) for mv in moves]


def assert_fresh_plan(state, result):
    fresh = StagingPlanner().plan(state, result.target_assignment)
    got = result.plan
    assert [_moves(w) for w in got.schedule.waves] == [_moves(w) for w in fresh.schedule.waves]
    assert _moves(got.schedule.stranded) == _moves(fresh.schedule.stranded)
    assert (
        got.schedule.peak_transient_utilization
        == fresh.schedule.peak_transient_utilization
    )
    assert got.staged_shards == fresh.staged_shards
    assert got.direct_feasible == fresh.direct_feasible
    assert got.schedule.total_bytes() == fresh.schedule.total_bytes()


def solve(state, ledger=None, **config):
    cfg = SRAConfig(alns=AlnsConfig(iterations=60, seed=3), **config)
    return SRA(cfg).rebalance(state, ledger)


def test_borrowed_episode_plans_each_incumbent_once(calls):
    base = generate(
        SyntheticConfig(
            num_machines=10, shards_per_machine=5, target_utilization=0.85,
            placement_skew=0.7, seed=4,
        )
    )
    state, ledger = ExchangeLedger.borrow(base, make_exchange_machines(base, 2))
    result = solve(state, ledger)
    assert result.feasible and result.plan.schedule.num_moves > 0
    assert calls["plan"] > 0
    assert calls["diff"] == calls["plan"]
    assert calls["finalize"] == 1 and calls["finalize_plans"] == 0
    assert_fresh_plan(state, result)


def test_vetoed_plans_are_not_reused(calls):
    """A tight fleet without borrowed machines: most plans are infeasible."""
    state = generate(
        SyntheticConfig(
            num_machines=8, shards_per_machine=5, target_utilization=0.92,
            placement_skew=0.7, seed=1,
        )
    )
    result = solve(state)
    assert calls["vetoed"] > 0
    assert calls["diff"] == calls["plan"]
    assert calls["finalize_plans"] == 0
    assert result.plan.feasible
    assert_fresh_plan(state, result)


def test_byte_cap_reads_the_table_backed_plan(calls):
    base = generate(
        SyntheticConfig(
            num_machines=10, shards_per_machine=5, target_utilization=0.85,
            placement_skew=0.7, seed=4,
        )
    )
    state, ledger = ExchangeLedger.borrow(base, make_exchange_machines(base, 2))
    unbounded = solve(state, ledger)
    cap = 0.5 * unbounded.plan.schedule.total_bytes()
    result = solve(state, ledger, migration_budget=MigrationBudget(max_bytes=cap))
    assert result.plan.schedule.total_bytes() <= cap
    assert calls["diff"] == calls["plan"]
    assert calls["finalize_plans"] == 0
    assert_fresh_plan(state, result)


def test_unplanned_target_is_planned_in_finalize(calls):
    """Without feasibility coupling the filter plans nothing; finalize plans."""
    state = generate(SyntheticConfig(num_machines=8, shards_per_machine=5, seed=2))
    result = solve(state, feasibility_coupling=False)
    assert calls["plan"] == calls["finalize_plans"] == 1
    assert calls["diff"] == 1
    assert_fresh_plan(state, result)
