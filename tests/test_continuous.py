"""Continuous rebalancing: warm starts, migration budgets, drift
detection, cooldown hysteresis, and exchange-pool sizing.

The load-bearing contracts of the incremental controller stack:

* ``SRA.rebalance(..., warm_start=state.assignment)`` is bitwise the
  cold solve (the equivalence gate for every legacy call site);
* warm-starting from a previous incumbent can only match or improve the
  cold objective on the same instance and seed;
* a declared ``MigrationBudget`` is never exceeded — audited against
  the returned assignment delta *and* the scheduled plan's bytes;
* release rounds (owe returns, borrow nothing) work from a fully
  occupied fleet;
* the pool-sizing policy borrows under pressure, holds through the
  hysteresis window, and releases when quiet.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AlnsConfig,
    BudgetLocalityBias,
    MigrationBudget,
    NoopRebalancer,
    SRA,
    SRAConfig,
    greedy_best_fit,
    random_removal,
    shaw_removal,
    vacancy_removal,
    worst_machine_removal,
)
from repro.algorithms.objective import Objective
from repro.cluster import ExchangeLedger
from repro.online import PopularityDrift
from repro.pool import MachinePool, PoolSizingPolicy
from repro.runtime import (
    ClusterHandle,
    DriftDetectorConfig,
    DriftProcess,
    EwmaDriftDetector,
    IncrementalRebalanceController,
    RebalanceController,
    Runtime,
    ServingFleet,
)
from repro.scenarios import ScenarioSpec, generate_instance
from repro.workloads import SyntheticConfig, generate, make_exchange_machines


def hot_state(seed=0, machines=8, spm=5, skew=0.6):
    return generate(
        SyntheticConfig(
            num_machines=machines,
            shards_per_machine=spm,
            placement_skew=skew,
            demand_dist="zipf",
            seed=seed,
        )
    )


def quick_sra(iterations=200, seed=1, **kwargs):
    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed), **kwargs))


# --------------------------------------------------------------------------
# MigrationBudget


class TestMigrationBudget:
    def test_unbounded_by_default(self):
        b = MigrationBudget()
        assert not b.bounded
        assert b.admits(10**9, 1e18)

    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationBudget(max_moves=-1)
        for max_bytes in (-0.5, -1, float("nan")):
            with pytest.raises(ValueError, match="max_bytes"):
                MigrationBudget(max_bytes=max_bytes)
        assert MigrationBudget(max_bytes=float("inf")).admits(0, 1e300)

    def test_admits_and_exhausted(self):
        b = MigrationBudget(max_moves=3, max_bytes=10.0)
        assert b.admits(3, 10.0)
        assert not b.admits(4, 0.0)
        assert not b.admits(0, 10.5)
        assert not b.exhausted(2, 5.0)
        assert b.exhausted(3, 0.0)
        assert b.exhausted(0, 10.0)


# --------------------------------------------------------------------------
# Warm-start contract


class TestWarmStart:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 7))
    def test_warm_from_serving_placement_is_bitwise_cold(self, seed):
        state = hot_state(seed=seed)
        cold = quick_sra().rebalance(state)
        warm = quick_sra().rebalance(state, warm_start=state.assignment)
        np.testing.assert_array_equal(cold.target_assignment, warm.target_assignment)
        assert cold.feasible == warm.feasible

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 5))
    def test_warm_from_cold_best_never_worse(self, seed):
        state = hot_state(seed=seed)
        cold = quick_sra().rebalance(state)
        rewarmed = quick_sra().rebalance(state, warm_start=cold.target_assignment)
        obj = Objective(state.assignment, state.sizes)
        w = state.copy()
        w.apply_assignment(rewarmed.target_assignment)
        c = state.copy()
        c.apply_assignment(cold.target_assignment)
        assert obj(w) <= obj(c) + 1e-12

    def test_warm_start_shape_checked(self):
        state = hot_state()
        with pytest.raises(ValueError, match="shape"):
            quick_sra().rebalance(state, warm_start=np.zeros(3, dtype=np.int64))

    def test_warm_start_rejected_with_restarts(self):
        state = hot_state()
        sra = SRA(SRAConfig(alns=AlnsConfig(iterations=50, seed=1), restarts=2))
        with pytest.raises(ValueError, match="restarts"):
            sra.rebalance(state, warm_start=state.assignment)


# --------------------------------------------------------------------------
# Budget enforcement


class TestBudgetedRounds:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 3), max_moves=st.sampled_from([2, 5, 9]))
    def test_moves_never_exceed_budget(self, seed, max_moves):
        state = hot_state(seed=seed)
        result = quick_sra(
            migration_budget=MigrationBudget(max_moves=max_moves)
        ).rebalance(state)
        moved = int(np.count_nonzero(result.target_assignment != state.assignment))
        assert moved <= max_moves
        if result.feasible and result.plan is not None:
            final = state.copy()
            final.apply_assignment(result.target_assignment)
            assert final.validate() is None or True  # validate() raises on error

    def test_zero_move_budget_is_noop(self):
        state = hot_state()
        result = quick_sra(
            migration_budget=MigrationBudget(max_moves=0)
        ).rebalance(state)
        np.testing.assert_array_equal(result.target_assignment, state.assignment)

    def test_byte_budget_caps_scheduled_plan(self):
        state = hot_state()
        cap = float(np.sort(state.sizes)[:4].sum())
        result = quick_sra(
            migration_budget=MigrationBudget(max_bytes=cap)
        ).rebalance(state)
        if result.feasible and result.plan is not None:
            assert result.plan.schedule.total_bytes() <= cap + 1e-9
        moves, drift_bytes = state.assignment_drift(result.target_assignment)
        assert drift_bytes <= cap + 1e-9

    def test_unbounded_budget_matches_budgetless_solve(self):
        state = hot_state()
        plain = quick_sra().rebalance(state)
        nulled = quick_sra(migration_budget=MigrationBudget()).rebalance(state)
        np.testing.assert_array_equal(
            plain.target_assignment, nulled.target_assignment
        )


class TestBudgetLocalityBias:
    def test_passthrough_under_budget(self):
        state = hot_state()
        reference = state.assignment_view().copy()
        bias = BudgetLocalityBias(
            random_removal, reference, state.sizes, MigrationBudget(max_moves=5)
        )
        biased, direct = state.copy(), state.copy()
        assert bias(biased, np.random.default_rng(3), 4) == random_removal(
            direct, np.random.default_rng(3), 4
        )

    def test_at_cap_removes_only_moved_shards(self):
        state = hot_state()
        reference = state.assignment_view().copy()
        work = state.copy()
        # Move three shards somewhere else to sit exactly at the cap.
        moved_ids = [0, 1, 2]
        for sid in moved_ids:
            src = int(work.assignment_view()[sid])
            work.move(sid, (src + 1) % work.num_machines)
        bias = BudgetLocalityBias(
            random_removal, reference, state.sizes, MigrationBudget(max_moves=3)
        )
        removed = bias(work, np.random.default_rng(0), 2)
        assert set(removed) <= set(moved_ids)
        assert all(work.assignment_view()[sid] == -1 for sid in removed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 50),
        max_moves=st.integers(0, 6),
        premoved=st.integers(0, 6),
        op=st.sampled_from(
            [random_removal, worst_machine_removal, shaw_removal, vacancy_removal]
        ),
        quantity=st.integers(1, 15),
    )
    def test_greedy_repair_stays_within_move_cap(
        self, seed, max_moves, premoved, op, quantity
    ):
        """From a state within budget, rounds of a quantity-respecting
        operator under the bias and greedy repair never leave more than
        ``max_moves`` shards off the reference."""
        state = hot_state(seed=seed)
        reference = state.assignment_view().copy()
        for sid in range(min(premoved, max_moves)):
            state.move(sid, (int(reference[sid]) + 1) % state.num_machines)
        bias = BudgetLocalityBias(
            op, reference, state.sizes, MigrationBudget(max_moves=max_moves)
        )
        rng = np.random.default_rng(seed)
        for _ in range(5):
            greedy_best_fit(state, rng, bias(state, rng, quantity))
            assert state.is_fully_assigned()
            assert np.count_nonzero(state.assignment_view() != reference) <= max_moves


# --------------------------------------------------------------------------
# Release rounds from a fully occupied fleet


class TestReleaseRounds:
    def test_drain_establishes_return_contract(self):
        state = generate(
            SyntheticConfig(
                num_machines=8,
                shards_per_machine=4,
                target_utilization=0.45,
                seed=2,
            )
        )
        assert state.vacant_machines().size == 0
        grown, ledger = ExchangeLedger.borrow(state, [], required_returns=1)
        result = quick_sra(iterations=400).rebalance(grown, ledger)
        assert result.feasible
        final = grown.copy()
        final.apply_assignment(result.target_assignment)
        assert ledger.select_returns(final).size == 1

    def test_undrainable_contract_reported_infeasible(self):
        from repro.cluster import ClusterState, Machine, Shard

        state = ClusterState(
            Machine.homogeneous(2, 10.0), Shard.uniform(4, 1.0), [0, 0, 1, 1]
        )
        grown, ledger = ExchangeLedger.borrow(state, [], required_returns=2)
        result = quick_sra(iterations=10).rebalance(grown, ledger)
        assert not result.feasible


# --------------------------------------------------------------------------
# Drift detector


class TestEwmaDriftDetector:
    def test_warmup_blocks_first_checks(self):
        det = EwmaDriftDetector(DriftDetectorConfig(warmup_checks=3))
        det.observe(0.0, np.array([2.0]))
        assert not det.should_trigger()
        det.observe(1.0, np.array([2.0]))
        assert not det.should_trigger()
        det.observe(2.0, np.array([2.0]))
        assert det.should_trigger()

    def test_hot_peak_triggers(self):
        det = EwmaDriftDetector(DriftDetectorConfig(hot_threshold=0.9, ewma_alpha=1.0))
        det.observe(0.0, np.array([0.95, 0.5]))
        det.observe(1.0, np.array([0.95, 0.5]))
        assert det.ewma_peak == pytest.approx(0.95)
        assert det.should_trigger()

    def test_flat_low_does_not_trigger(self):
        det = EwmaDriftDetector(DriftDetectorConfig(hot_threshold=0.9))
        for t in range(6):
            det.observe(float(t), np.array([0.5, 0.4]))
        assert det.slope == pytest.approx(0.0, abs=1e-12)
        assert not det.should_trigger()

    def test_rising_slope_triggers_before_hot(self):
        det = EwmaDriftDetector(
            DriftDetectorConfig(
                hot_threshold=0.95, slope_threshold=0.005, ewma_alpha=1.0
            )
        )
        for t, p in enumerate([0.5, 0.55, 0.6, 0.65, 0.7]):
            det.observe(float(t), np.array([p]))
        assert det.ewma_peak < 0.95
        assert det.slope > 0.005
        assert det.should_trigger()

    def test_fleet_resize_resets_smoothing(self):
        det = EwmaDriftDetector(DriftDetectorConfig(ewma_alpha=0.1))
        det.observe(0.0, np.array([1.0, 1.0]))
        det.observe(1.0, np.array([0.2, 0.2, 0.2]))
        assert det.ewma_peak == pytest.approx(0.2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftDetectorConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            DriftDetectorConfig(slope_window=1)
        with pytest.raises(ValueError):
            DriftDetectorConfig(warmup_checks=0)


# --------------------------------------------------------------------------
# Pool sizing policy


class TestPoolSizingPolicy:
    def test_band_validation(self):
        with pytest.raises(ValueError):
            PoolSizingPolicy(borrow_above=0.7, release_below=0.8)

    def test_borrow_scales_with_overload(self):
        p = PoolSizingPolicy(borrow_above=0.9, overload_gain=20.0, max_borrow_per_round=4)
        d = p.decide(peak=0.95, on_loan=0, available=10, rounds_held=0)
        assert d.borrow == 1 and d.reason == "overload"
        d = p.decide(peak=1.04, on_loan=0, available=10, rounds_held=0)
        assert d.borrow == 3
        d = p.decide(peak=2.0, on_loan=0, available=2, rounds_held=0)
        assert d.borrow == 2  # capped by availability

    def test_hold_then_release(self):
        p = PoolSizingPolicy(
            borrow_above=0.9, release_below=0.8, min_hold_rounds=2, max_release_per_round=1
        )
        held = p.decide(peak=0.5, on_loan=2, available=0, rounds_held=1)
        assert held.release == 0
        released = p.decide(peak=0.5, on_loan=2, available=0, rounds_held=2)
        assert released.release == 1 and released.reason == "release"

    def test_quiet_band_is_idle_or_hold(self):
        p = PoolSizingPolicy(borrow_above=0.9, release_below=0.8)
        assert p.decide(peak=0.85, on_loan=0, available=5, rounds_held=9).borrow == 0
        assert p.decide(peak=0.85, on_loan=1, available=5, rounds_held=9).release == 0


# --------------------------------------------------------------------------
# Controller behaviour on the event runtime


def _drift_instance(seed=0, **overrides):
    params = {"target_utilization": 0.68, **overrides}
    return generate_instance(ScenarioSpec("demand-drift", params, seed=seed))


def _simulated_controller(state, handle, *, cls=RebalanceController, **kwargs):
    cpu = state.schema.index("cpu")
    fleet = ServingFleet(state.capacity[:, cpu] * 2e5)
    location = state.assignment_view().copy()
    return cls(
        handle,
        quick_sra(iterations=120),
        execution="simulated",
        fleet=fleet,
        location=location,
        **kwargs,
    )


def _pool_sized_run(state, **kwargs):
    """A drifting cluster whose incremental controller sizes a 4-machine
    pool loan, checked every 15 s for 480 s (not yet run)."""
    handle = ClusterHandle(state)
    pool = MachinePool(
        make_exchange_machines(state, 4),
        sizing=PoolSizingPolicy(borrow_above=0.85, release_below=0.75),
    )
    rt = Runtime()
    rt.add(
        DriftProcess(
            handle,
            PopularityDrift(drift=0.3, target_utilization=0.75, seed=9),
            epochs=8,
            epoch_length=60.0,
        )
    )
    ctrl = IncrementalRebalanceController(
        handle,
        quick_sra(iterations=200),
        detector_config=DriftDetectorConfig(hot_threshold=0.85),
        pool=pool,
        execution="instant",
        check_interval=15.0,
        horizon=480.0,
        **kwargs,
    )
    rt.add(ctrl)
    return rt, handle, ctrl, pool


class TestCooldown:
    def test_cooldown_spaces_episodes(self):
        state = _drift_instance()
        handle = ClusterHandle(state)
        rt = Runtime()
        rt.add(
            DriftProcess(
                handle,
                PopularityDrift(drift=0.4, target_utilization=0.8, seed=5),
                epochs=6,
                epoch_length=10.0,
            )
        )
        ctrl = RebalanceController(
            handle,
            quick_sra(iterations=100),
            policy="always",
            execution="instant",
            check_interval=1.0,
            horizon=60.0,
            cooldown=10.0,
        )
        rt.add(ctrl)
        rt.run()
        completed = [
            e["completed_at"] for e in ctrl.episodes if e["completed_at"] is not None
        ]
        assert len(completed) >= 2
        gaps = np.diff(np.array(completed))
        assert (gaps >= 10.0 - 1e-9).all()

    def test_zero_cooldown_preserves_legacy_density(self):
        state = _drift_instance()
        handle = ClusterHandle(state)
        rt = Runtime()
        ctrl = RebalanceController(
            handle,
            quick_sra(iterations=50),
            policy="always",
            execution="instant",
            check_interval=1.0,
            horizon=5.0,
        )
        rt.add(ctrl)
        rt.run()
        assert len(ctrl.episodes) == 5  # every check fires


class TestIncrementalController:
    def test_budget_respected_every_round(self):
        state = _drift_instance()
        handle = ClusterHandle(state)
        rt = Runtime()
        rt.add(
            DriftProcess(
                handle,
                PopularityDrift(drift=0.1, target_utilization=0.68, seed=7),
                epochs=4,
                epoch_length=30.0,
            )
        )
        ctrl = _simulated_controller(
            state,
            handle,
            cls=IncrementalRebalanceController,
            detector_config=DriftDetectorConfig(hot_threshold=0.78),
            check_interval=10.0,
            horizon=120.0,
            cooldown=10.0,
        )
        ctrl.rebalancer = quick_sra(
            iterations=120, migration_budget=MigrationBudget(max_moves=6)
        )
        rt.add(ctrl)
        rt.run()
        assert ctrl.episodes, "detector never fired on a hot drifting cluster"
        assert any(e["feasible"] for e in ctrl.episodes), (
            "no episode fit the 6-move budget"
        )
        assert all(e["moves"] <= 6 for e in ctrl.episodes)

    @pytest.mark.parametrize("seed", range(2, 9))
    def test_budgeted_episodes_feasible_at_every_seed(self, seed):
        """The scenario above at SRA seeds 2-8 (seed 1 is the test
        above): each seed fits at least one episode into the 6-move
        budget and none exceeds it."""
        state = _drift_instance()
        handle = ClusterHandle(state)
        rt = Runtime()
        rt.add(
            DriftProcess(
                handle,
                PopularityDrift(drift=0.1, target_utilization=0.68, seed=7),
                epochs=4,
                epoch_length=30.0,
            )
        )
        ctrl = _simulated_controller(
            state,
            handle,
            cls=IncrementalRebalanceController,
            detector_config=DriftDetectorConfig(hot_threshold=0.78),
            check_interval=10.0,
            horizon=120.0,
            cooldown=10.0,
        )
        ctrl.rebalancer = quick_sra(
            iterations=120, seed=seed, migration_budget=MigrationBudget(max_moves=6)
        )
        rt.add(ctrl)
        rt.run()
        assert any(e["feasible"] for e in ctrl.episodes)
        assert all(e["moves"] <= 6 for e in ctrl.episodes)

    def test_runs_are_deterministic(self):
        def one_run():
            state = _drift_instance()
            handle = ClusterHandle(state)
            rt = Runtime()
            rt.add(
                DriftProcess(
                    handle,
                    PopularityDrift(drift=0.1, target_utilization=0.68, seed=7),
                    epochs=3,
                    epoch_length=30.0,
                )
            )
            ctrl = _simulated_controller(
                state,
                handle,
                cls=IncrementalRebalanceController,
                detector_config=DriftDetectorConfig(hot_threshold=0.78),
                check_interval=10.0,
                horizon=90.0,
            )
            rt.add(ctrl)
            rt.run()
            return ctrl.episodes

        assert one_run() == one_run()

    def test_in_flight_guard_blocks_refire(self):
        state = _drift_instance()
        handle = ClusterHandle(state)
        ctrl = _simulated_controller(
            state,
            handle,
            cls=IncrementalRebalanceController,
            detector_config=DriftDetectorConfig(
                hot_threshold=0.01, warmup_checks=1
            ),
        )
        rt = Runtime()
        rt.add(ctrl)
        outcome = ctrl.maybe_rebalance(rt)
        if outcome.in_flight:
            second = ctrl.maybe_rebalance(rt)
            assert not second.attempted

    def test_pool_borrow_hold_release_cycle(self):
        state = _drift_instance()
        rt, handle, ctrl, pool = _pool_sized_run(state)
        rt.run()
        borrowed = sum(ep.lent for ep in pool.history if ep.feasible)
        released = sum(ep.returned for ep in pool.history if ep.feasible)
        assert borrowed > 0, "pool was never tapped under drift pressure"
        assert released > 0, "loan was never released on a quiet cluster"
        assert pool.on_loan == borrowed - released
        assert pool.size + pool.on_loan == 4
        assert handle.state.num_machines == state.num_machines + pool.on_loan

    def test_pool_ticks_every_control_check(self):
        # Cooldown suppresses most checks; the loan still ages and is
        # still charged in machine_rounds on every one of them.
        rt, handle, ctrl, pool = _pool_sized_run(_drift_instance(), cooldown=45.0)
        loans = []
        check = ctrl.maybe_rebalance

        def counted(rt):
            loans.append(pool.on_loan)
            return check(rt)

        ctrl.maybe_rebalance = counted
        rt.run()
        assert len(loans) == 32
        assert len(ctrl.episodes) < len(loans), "cooldown never suppressed a check"
        assert sum(loans) > 0
        assert pool.machine_rounds == sum(loans)

    def test_infeasible_round_hands_loan_back(self):
        class Infeasible(NoopRebalancer):
            def rebalance(self, state, ledger=None):
                return replace(super().rebalance(state, ledger), feasible=False)

        state = _drift_instance(hotspot_shift=0.5)
        handle = ClusterHandle(state)
        pool = MachinePool(
            make_exchange_machines(state, 4),
            sizing=PoolSizingPolicy(borrow_above=0.5, release_below=0.4),
        )
        caps_before = pool.total_capacity()
        ctrl = IncrementalRebalanceController(
            handle, Infeasible(), pool=pool, execution="instant"
        )
        outcome = ctrl.maybe_rebalance(Runtime())
        assert outcome.attempted and not outcome.feasible
        assert pool.size == 4 and pool.on_loan == 0
        np.testing.assert_array_equal(pool.total_capacity(), caps_before)
        assert handle.state is state
        assert len(pool.history) == 1
        row = pool.history[0]
        assert not row.feasible and row.lent == row.returned > 0

    def test_pool_requires_instant_execution(self):
        state = _drift_instance()
        handle = ClusterHandle(state)
        with pytest.raises(ValueError, match="instant"):
            _simulated_controller(
                state,
                handle,
                cls=IncrementalRebalanceController,
                pool=MachinePool(make_exchange_machines(state, 2)),
            )


# --------------------------------------------------------------------------
# demand-drift scenario family


class TestDemandDriftScenario:
    def test_deterministic_per_seed(self):
        a = _drift_instance(seed=3)
        b = _drift_instance(seed=3)
        np.testing.assert_array_equal(a.demand, b.demand)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        c = _drift_instance(seed=4)
        assert not np.array_equal(a.demand, c.demand)

    def test_hotspot_shift_heats_the_peak(self):
        mild = _drift_instance(seed=0, hotspot_shift=0.0)
        hot = _drift_instance(seed=0, hotspot_shift=0.5)
        assert hot.peak_utilization() > mild.peak_utilization()

    def test_flash_crowd_concentrates_demand(self):
        calm = _drift_instance(seed=0, flash_multiplier=1.0)
        flash = _drift_instance(seed=0, flash_multiplier=20.0, flash_fraction=0.05)
        # Total demand is re-waterfilled to the same target, so a flash
        # crowd shows up as concentration: a hotter peak machine.
        assert flash.peak_utilization() > calm.peak_utilization()


class TestAssignmentDrift:
    def test_counts_moves_and_bytes(self):
        state = hot_state()
        ref = state.assignment_view().copy()
        moves, volume = state.assignment_drift(ref)
        assert moves == 0 and volume == 0.0
        work = state.copy()
        src = int(work.assignment_view()[0])
        work.move(0, (src + 1) % work.num_machines)
        moves, volume = work.assignment_drift(ref)
        assert moves == 1
        assert volume == pytest.approx(float(state.sizes[0]))

    def test_shape_checked(self):
        state = hot_state()
        with pytest.raises(ValueError, match="shape"):
            state.assignment_drift(np.zeros(2, dtype=np.int64))
