"""Tests for the synthetic instance generators."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioSpec, generate_instance
from repro.workloads import (
    SyntheticConfig,
    generate,
    generate_uniform,
    generate_zipf,
    make_exchange_machines,
)
from repro.workloads.synthetic import _demands, _repair_feasibility, _skewed_placement
from tests.oracles.feasibility import repair_feasibility as repair_feasibility_oracle


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SyntheticConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_machines": 0},
            {"shards_per_machine": 0},
            {"target_utilization": 0.0},
            {"zipf_alpha": 0.0},
            {"dim_correlation": 1.5},
            {"placement_skew": -0.1},
            {"machine_capacity": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)

    def test_num_shards(self):
        assert SyntheticConfig(num_machines=5, shards_per_machine=3).num_shards == 15


class TestGenerate:
    def test_shapes(self):
        state = generate(SyntheticConfig(num_machines=10, shards_per_machine=4, seed=1))
        assert state.num_machines == 10
        assert state.num_shards == 40
        assert state.is_fully_assigned()

    def test_determinism(self):
        cfg = SyntheticConfig(seed=42)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_allclose(a.demand, b.demand)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_different_seeds_differ(self):
        a = generate(SyntheticConfig(seed=0))
        b = generate(SyntheticConfig(seed=1))
        assert not np.allclose(a.demand, b.demand)

    def test_target_utilization_hit(self):
        for util in (0.5, 0.75):
            state = generate(SyntheticConfig(target_utilization=util, seed=3))
            # Clipping of oversized shards can shave a little off the total.
            np.testing.assert_allclose(state.mean_utilization(), util, rtol=0.05)

    def test_feasible_start_respects_capacity(self):
        state = generate(SyntheticConfig(target_utilization=0.85, placement_skew=0.8, seed=5))
        assert state.is_within_capacity()

    def test_infeasible_start_allowed_when_requested(self):
        state = generate(
            SyntheticConfig(
                target_utilization=0.9, placement_skew=0.95, feasible_start=False, seed=5
            )
        )
        # With extreme skew some machine overflows (that is the point).
        assert len(state.overloaded_machines()) > 0

    def test_too_tight_instance_names_the_knob(self):
        """A homogeneous fleet too full even for balanced placement: the
        error names ``target_utilization`` and chains the drain's error."""
        cfg = SyntheticConfig(num_machines=6, shards_per_machine=4, target_utilization=0.98)
        with pytest.raises(ValueError, match="target_utilization=0.98") as info:
            generate(cfg)
        assert "feasible_start=False" in str(info.value)
        assert "too tight" in str(info.value.__cause__)

    def test_balanced_start_with_zero_skew(self):
        state = generate(SyntheticConfig(placement_skew=0.0, seed=7))
        peak = state.machine_peak_utilization()
        assert peak.max() - peak.min() < 0.25  # LPT start is roughly even

    def test_skewed_start_is_imbalanced(self):
        balanced = generate(SyntheticConfig(placement_skew=0.0, seed=7))
        skewed = generate(SyntheticConfig(placement_skew=0.7, seed=7))
        assert skewed.machine_peak_utilization().std() > balanced.machine_peak_utilization().std()

    def test_zipf_demands_are_heavy_tailed(self):
        state = generate_zipf(seed=11, num_machines=20, shards_per_machine=10)
        mags = state.demand.sum(axis=1)
        # Top 10% of shards should hold a large share of total demand.
        top = np.sort(mags)[-len(mags) // 10 :].sum()
        assert top / mags.sum() > 0.3

    def test_uniform_demands_are_not(self):
        state = generate_uniform(seed=11, num_machines=20, shards_per_machine=10)
        mags = state.demand.sum(axis=1)
        top = np.sort(mags)[-len(mags) // 10 :].sum()
        assert top / mags.sum() < 0.25

    def test_no_shard_exceeds_machine(self):
        state = generate_zipf(seed=13, target_utilization=0.9)
        assert np.all(state.demand <= 0.95 * state.capacity.max(axis=0) + 1e-9)


class TestExchangeMachines:
    def test_count_and_flags(self):
        state = generate(SyntheticConfig(seed=0))
        ms = make_exchange_machines(state, 3)
        assert len(ms) == 3
        assert all(m.exchange for m in ms)

    def test_capacity_matches_fleet_mean(self):
        state = generate(SyntheticConfig(seed=0))
        ms = make_exchange_machines(state, 1)
        np.testing.assert_allclose(ms[0].capacity, state.capacity.mean(axis=0))

    def test_capacity_scale(self):
        state = generate(SyntheticConfig(seed=0))
        ms = make_exchange_machines(state, 1, capacity_scale=2.0)
        np.testing.assert_allclose(ms[0].capacity, 2.0 * state.capacity.mean(axis=0))

    def test_negative_count_rejected(self):
        state = generate(SyntheticConfig(seed=0))
        with pytest.raises(ValueError, match="count"):
            make_exchange_machines(state, -1)


@given(
    util=st.floats(min_value=0.3, max_value=0.85),
    skew=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_property_generated_instances_are_valid(util, skew, seed):
    """Any config in the supported envelope yields a fully assigned,
    capacity-feasible instance whose loads match its assignment."""
    cfg = SyntheticConfig(
        num_machines=8,
        shards_per_machine=6,
        target_utilization=util,
        placement_skew=skew,
        seed=seed,
    )
    state = generate(cfg)
    assert state.is_fully_assigned()
    assert state.is_within_capacity()
    # loads consistent with assignment
    recomputed = np.zeros_like(state.loads)
    np.add.at(recomputed, state.assignment, state.demand)
    np.testing.assert_allclose(state.loads, recomputed, atol=1e-9)


#: Capacity factors of the heterogeneous fleet, indexed by (machine +
#: dimension) mod 3: every machine is small in one dimension and large
#: in another.
_HETERO_FACTORS = np.array([0.6, 1.0, 1.4])


def _drain_inputs(m, spm, util, skew, dist, seed, hetero):
    """The generator's pre-drain assignment, demands and a capacity matrix."""
    cfg = SyntheticConfig(
        num_machines=m,
        shards_per_machine=spm,
        target_utilization=util,
        placement_skew=skew,
        demand_dist=dist,
        seed=seed,
    )
    rng = np.random.default_rng(cfg.seed)
    demands = _demands(cfg, rng)
    assign = _skewed_placement(cfg, demands, rng)
    capacity = np.full((m, demands.shape[1]), cfg.machine_capacity)
    if hetero:
        idx = (np.arange(m)[:, None] + np.arange(demands.shape[1])[None, :]) % 3
        capacity = capacity * _HETERO_FACTORS[idx]
    return assign, demands, capacity


@given(
    m=st.integers(min_value=2, max_value=150),
    spm=st.integers(min_value=2, max_value=10),
    util=st.floats(min_value=0.4, max_value=0.92),
    skew=st.floats(min_value=0.3, max_value=0.95),
    dist=st.sampled_from(["uniform", "zipf"]),
    seed=st.integers(min_value=0, max_value=10_000),
    hetero=st.booleans(),
)
@settings(max_examples=40, deadline=None)
# Homogeneous fleets whose drain gets stuck and falls back to LPT.
@example(m=25, spm=5, util=0.92, skew=0.5, dist="uniform", seed=180, hetero=False)
@example(m=14, spm=4, util=0.9, skew=0.3, dist="zipf", seed=325, hetero=False)
# Heterogeneous fleets: an LPT fallback, and one too tight even for LPT.
@example(m=31, spm=3, util=0.6, skew=0.5, dist="uniform", seed=125, hetero=True)
@example(m=11, spm=4, util=0.8, skew=0.5, dist="uniform", seed=980, hetero=True)
def test_property_drain_bitwise_equals_full_rescan_oracle(m, spm, util, skew, dist, seed, hetero):
    """The incremental drain returns the full-rescan oracle's assignment
    bit for bit, or raises the same error."""
    # A shard may demand at most 30% of a machine, so ``util`` must fit.
    assume(util <= 0.3 * spm)
    assign, demands, capacity = _drain_inputs(m, spm, util, skew, dist, seed, hetero)
    try:
        expected = repair_feasibility_oracle(assign, demands, capacity)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _repair_feasibility(assign, demands, capacity)
        return
    got = _repair_feasibility(assign, demands, capacity)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_drain_leaves_overloads_within_tolerance():
    """A machine over capacity by less than 1e-9 counts as within it."""
    demands = np.array([[0.6], [0.4 + 5e-10], [0.3]])
    capacity = np.ones((2, 1))
    assign = np.array([0, 0, 1])
    expected = repair_feasibility_oracle(assign, demands, capacity)
    np.testing.assert_array_equal(expected, assign)
    np.testing.assert_array_equal(_repair_feasibility(assign, demands, capacity), expected)


def test_drain_target_must_fit_even_when_another_peaks_lower():
    """Machine 1 would end at a lower peak (1 + 2e-12) than machine 2
    (1 + 5e-10 on its small second dimension), but it misses the 1e-12
    fit tolerance, so the shard goes to machine 2."""
    demands = np.array(
        [
            [0.6, 1e-3],  # on the overloaded machine 0; moves
            [0.5, 0.0],  # stays on machine 0
            [0.4 + 2e-12, 0.0],  # fills machine 1 to just below the move
            [0.0, 0.5e-12],  # fills machine 2's small dimension
        ]
    )
    capacity = np.array([[1.0, 1.0], [1.0, 1.0], [10.0, 1e-3]])
    assign = np.array([0, 0, 1, 2])
    expected = repair_feasibility_oracle(assign, demands, capacity)
    np.testing.assert_array_equal(expected, [2, 0, 1, 2])
    np.testing.assert_array_equal(_repair_feasibility(assign, demands, capacity), expected)


def _instance_digest(state):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(state.assignment, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(state.demand, dtype=np.float64).tobytes())
    return h.hexdigest()


def _zipf_spec(m):
    # The spec ``perfbench.workloads.scaling_spec(m, 6)`` builds.
    return ScenarioSpec(
        "zipf-popularity",
        {
            "num_machines": m,
            "shards_per_machine": 6,
            "target_utilization": 0.8,
            "placement_skew": 0.5,
        },
        seed=0,
    )


@pytest.mark.parametrize(
    "spec, digest",
    [
        (_zipf_spec(1000), "4cd97348070455a65442496e98bd87b56255db9244f34133a1cd872bcc38d155"),
        (_zipf_spec(2000), "ab4e7b7efdf8ff1538a623f5abff44043ca6959726e3d636dcb9e4001c15f38d"),
        (
            ScenarioSpec("multi-tenant", {"num_machines": 6, "tenants": 2, "shards_per_tenant": 8}),
            "add9881190b478a38ff044f6ed61d649abc110f2cb4b993950d041d19bd8a01c",
        ),
    ],
    ids=["zipf-m1000", "zipf-m2000", "multi-tenant-tiny"],
)
def test_instance_bytes_are_pinned(spec, digest):
    """sha256 of the assignment and demand bytes, recorded before the
    drain became incremental: instances, spec hashes and every input
    downstream of them stay the same."""
    assert _instance_digest(generate_instance(spec)) == digest
