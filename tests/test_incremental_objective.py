"""IncrementalObjective must agree with Objective bitwise.

The delta-evaluated engine only works because the cache-backed evaluator
produces the exact float the from-scratch evaluator produces — same IEEE
operations in the same order.  These tests compare every term with
``==`` (not approx) across feasible, overloaded, vacancy-short and
replica-conflicted states, and pin that the delta-evaluated engine walks
the same trajectory as the copy-based reference loop
(``tests/oracles/copy_engine.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.algorithms.lns import AlnsConfig, AlnsEngine
from repro.algorithms.objective import IncrementalObjective, Objective
from repro.algorithms.repair import DEFAULT_REPAIR_OPS
from repro.workloads.replicated import ReplicatedConfig, generate_replicated
from repro.workloads.synthetic import SyntheticConfig, generate
from tests.oracles.copy_engine import run_copy_engine


def synthetic_state(seed=0, m=8, spm=5, util=0.8):
    return generate(
        SyntheticConfig(
            num_machines=m,
            shards_per_machine=spm,
            target_utilization=util,
            seed=seed,
        )
    )


def replicated_state(seed=2):
    return generate_replicated(
        ReplicatedConfig(
            base=SyntheticConfig(num_machines=8, shards_per_machine=4, seed=seed),
            replication_factor=2,
        )
    )


def assert_components_bitwise(state, *, required_returns=0):
    base = Objective(state.assignment, state.sizes, required_returns=required_returns)
    inc = IncrementalObjective(base)
    got = inc.components(state)
    want = base.components(state)
    for key in want:
        assert got[key] == want[key], (key, got[key], want[key])
    assert inc(state) == base(state)
    assert inc.is_feasible(state) == base.is_feasible(state)


class TestBitwiseAgreement:
    def test_initial_state(self):
        assert_components_bitwise(synthetic_state())

    def test_after_moves(self):
        state = synthetic_state(seed=3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(state.num_machines)))
        assert_components_bitwise(state)

    def test_overloaded_state(self):
        state = synthetic_state(seed=1)
        # Pile everything on machine 0: overload term becomes non-zero.
        for j in range(state.num_shards):
            state.move(j, 0)
        base = Objective(state.assignment, state.sizes)
        assert base.components(state)["overload"] > 0.0
        assert_components_bitwise(state)

    def test_vacancy_shortfall(self):
        state = synthetic_state(seed=2)
        assert_components_bitwise(state, required_returns=3)

    def test_replica_conflicts(self):
        state = replicated_state()
        # Force colocated replicas so the conflict term is exercised.
        groups = state.replica_groups
        first = next(iter(groups.values()))
        target = int(state.machine_of(int(first[0])))
        for j in first[1:]:
            state.move(int(j), target)
        base = Objective(state.assignment, state.sizes)
        assert base.components(state)["replica_conflicts"] > 0.0
        assert_components_bitwise(state)

    def test_inside_transaction(self):
        state = synthetic_state(seed=5)
        state.begin()
        rng = np.random.default_rng(1)
        for _ in range(10):
            state.move(int(rng.integers(state.num_shards)), int(rng.integers(state.num_machines)))
        assert_components_bitwise(state)
        state.rollback()
        assert_components_bitwise(state)

    @given(seed=st.integers(0, 40), moves=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_random_states_agree(self, seed, moves):
        state = synthetic_state(seed=seed % 7)
        rng = np.random.default_rng(seed)
        for _ in range(moves):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(state.num_machines)))
        assert_components_bitwise(state, required_returns=seed % 3)

    def test_cross_check_flag_passes_on_consistent_state(self):
        state = synthetic_state()
        base = Objective(state.assignment, state.sizes)
        inc = IncrementalObjective(base, cross_check=True)
        state.begin()
        state.move(0, (state.machine_of(0) + 1) % state.num_machines)
        inc(state)  # would raise AssertionError on any divergence
        state.rollback()
        inc(state)


class TestDeltaEngineTrajectory:
    @pytest.mark.parametrize("replicated", [False, True])
    def test_delta_engine_matches_legacy(self, replicated):
        state = replicated_state(seed=3) if replicated else synthetic_state(seed=4, m=10, spm=6)
        cfg = AlnsConfig(iterations=120, seed=1)
        base = Objective(state.assignment, state.sizes)
        d = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS).run(
            state.copy(), IncrementalObjective(base)
        )
        leg = run_copy_engine(cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS, state, base)
        assert repr(d.best_objective) == repr(leg.best_objective)
        assert d.accepted == leg.accepted
        assert d.history == leg.history
        assert np.array_equal(d.best_assignment, leg.best_assignment)

    def test_delta_engine_with_cross_check(self):
        state = synthetic_state(seed=6)
        base = Objective(state.assignment, state.sizes)
        engine = AlnsEngine(
            AlnsConfig(iterations=60, seed=2),
            DEFAULT_DESTROY_OPS,
            DEFAULT_REPAIR_OPS,
        )
        # cross_check recomputes every evaluation from scratch and raises
        # on any divergence, so a clean run is the assertion.
        out = engine.run(state.copy(), IncrementalObjective(base, cross_check=True))
        assert out.iterations == 60

    def test_collect_history_flag(self):
        state = synthetic_state(seed=7)
        base = Objective(state.assignment, state.sizes)
        for collect, expected_len in ((True, 81), (False, 1)):
            engine = AlnsEngine(
                AlnsConfig(iterations=80, seed=1, collect_history=collect),
                DEFAULT_DESTROY_OPS,
                DEFAULT_REPAIR_OPS,
            )
            out = engine.run(state.copy(), IncrementalObjective(base))
            assert len(out.history) == expected_len
            assert out.best_objective < np.inf
