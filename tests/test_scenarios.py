"""Tests for the scenario registry (repro.scenarios)."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import snapshot
from repro.scenarios import (
    ALGORITHMS,
    ParamSpec,
    ScenarioSpec,
    SCENARIOS,
    cell_id,
    generate_instance,
    get_family,
    list_families,
    register_scenario,
    resolve,
    resolve_params,
    run_cell,
    run_matrix,
    smoke_specs,
    spec_hash,
)
from repro.parallel import save_tables

REQUIRED_FAMILIES = {
    "zipf-popularity",
    "correlated-demand",
    "capacity-headroom",
    "heterogeneous-generations",
    "multi-tenant",
    "failure-storm",
    "replicated-shards",
}

#: Small override sets per family, so property tests run fast.
TINY = {
    "zipf-popularity": {"num_machines": 6, "shards_per_machine": 3},
    "correlated-demand": {"num_machines": 6, "shards_per_machine": 3},
    "capacity-headroom": {"num_machines": 6, "shards_per_machine": 3},
    "heterogeneous-generations": {"num_machines": 12, "shards_per_machine": 6},
    "multi-tenant": {"num_machines": 6, "tenants": 2, "shards_per_tenant": 8},
    "failure-storm": {"num_machines": 8, "shards_per_machine": 3, "waves": 1},
    "replicated-shards": {"num_machines": 8, "shards_per_machine": 4},
}


def snap(state) -> str:
    return json.dumps(snapshot.to_dict(state), sort_keys=True)


class TestRegistry:
    def test_all_required_families_registered(self):
        assert REQUIRED_FAMILIES <= set(SCENARIOS)

    def test_list_families_sorted_with_schemas(self):
        families = list_families()
        names = [f.name for f in families]
        assert names == sorted(names)
        for fam in families:
            assert fam.summary
            assert len(fam.params) > 0
            for p in fam.params:
                assert p.doc, f"{fam.name}.{p.name} lacks a doc string"

    def test_unknown_scenario_lists_alternatives(self):
        with pytest.raises(ValueError, match="zipf-popularity"):
            get_family("no-such-scenario")

    def test_unknown_param_lists_declared(self):
        fam = get_family("zipf-popularity")
        with pytest.raises(ValueError, match="num_machines"):
            resolve_params(fam, {"bogus_knob": 3})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(
                "zipf-popularity", "dup", (ParamSpec("x", "int", 1),)
            )(lambda params, seed: None)

    def test_defaults_resolve_completely(self):
        for fam in list_families():
            resolved = resolve_params(fam, {})
            assert set(resolved) == {p.name for p in fam.params}


class TestParamCoercion:
    def test_string_values_coerced(self):
        fam = get_family("zipf-popularity")
        resolved = resolve_params(
            fam, {"num_machines": "12", "zipf_alpha": "1.5"}
        )
        assert resolved["num_machines"] == 12
        assert resolved["zipf_alpha"] == 1.5

    def test_out_of_range_rejected_with_param_name(self):
        fam = get_family("zipf-popularity")
        with pytest.raises(ValueError, match="target_utilization"):
            resolve_params(fam, {"target_utilization": 7.5})

    def test_bad_choice_rejected(self):
        fam = get_family("correlated-demand")
        with pytest.raises(ValueError, match="demand_dist"):
            resolve_params(fam, {"demand_dist": "lognormal"})

    def test_bool_param_accepts_strings(self):
        fam = get_family("failure-storm")
        assert resolve_params(fam, {"reassign_orphans": "false"})[
            "reassign_orphans"
        ] is False
        assert resolve_params(fam, {"reassign_orphans": "true"})[
            "reassign_orphans"
        ] is True

    @given(
        util=st.one_of(
            st.floats(max_value=0.049, allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.981, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_out_of_range_always_rejected(self, util):
        fam = get_family("zipf-popularity")
        with pytest.raises(ValueError, match="target_utilization"):
            resolve_params(fam, {"target_utilization": util})


class TestSpecHash:
    def test_stable_across_param_orderings(self):
        a = ScenarioSpec(
            "zipf-popularity",
            {"num_machines": 6, "shards_per_machine": 3, "zipf_alpha": 1.4},
            seed=7,
        )
        b = ScenarioSpec(
            "zipf-popularity",
            {"zipf_alpha": 1.4, "shards_per_machine": 3, "num_machines": 6},
            seed=7,
        )
        assert resolve(a)[2] == resolve(b)[2]

    def test_explicit_default_and_omitted_default_hash_equal(self):
        # The hash covers *resolved* params, so writing out a default is
        # the same spec as omitting it.
        base = ScenarioSpec("zipf-popularity", {"num_machines": 6}, seed=0)
        spelled = ScenarioSpec(
            "zipf-popularity", {"num_machines": 6, "zipf_alpha": 1.1}, seed=0
        )
        assert resolve(base)[2] == resolve(spelled)[2]

    def test_hash_varies_with_seed_params_and_scenario(self):
        digests = {
            resolve(ScenarioSpec("zipf-popularity", {}, seed=0))[2],
            resolve(ScenarioSpec("zipf-popularity", {}, seed=1))[2],
            resolve(ScenarioSpec("zipf-popularity", {"num_machines": 9}, seed=0))[2],
            resolve(ScenarioSpec("correlated-demand", {}, seed=0))[2],
        }
        assert len(digests) == 4

    def test_spec_hash_is_short_hex(self):
        digest = spec_hash("zipf-popularity", {"num_machines": 6}, 0)
        assert len(digest) == 12
        int(digest, 16)

    def test_roundtrip_through_dict(self):
        spec = ScenarioSpec("failure-storm", {"waves": 2}, seed=3)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert resolve(spec)[2] == resolve(again)[2]


class TestGeneration:
    @pytest.mark.parametrize("name", sorted(REQUIRED_FAMILIES))
    def test_instances_validate(self, name):
        state = generate_instance(ScenarioSpec(name, TINY[name], seed=0))
        state.validate()
        assert state.num_shards > 0

    @given(
        name=st.sampled_from(sorted(REQUIRED_FAMILIES)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    # Top-heavy fleets: 30% of the smallest machine cannot reach the target.
    @example(name="heterogeneous-generations", seed=132)
    @example(name="heterogeneous-generations", seed=206)
    def test_deterministic_per_seed(self, name, seed):
        spec = ScenarioSpec(name, TINY[name], seed=seed)
        first = generate_instance(spec)
        first.validate()
        assert snap(first) == snap(generate_instance(spec))

    @given(
        name=st.sampled_from(sorted(REQUIRED_FAMILIES)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    @example(name="heterogeneous-generations", seed=132)
    @example(name="heterogeneous-generations", seed=206)
    def test_varies_with_seed(self, name, seed):
        a = generate_instance(ScenarioSpec(name, TINY[name], seed=seed))
        b = generate_instance(ScenarioSpec(name, TINY[name], seed=seed + 1))
        assert snap(a) != snap(b)

    def test_failure_storm_has_offline_machines(self):
        state = generate_instance(
            ScenarioSpec("failure-storm", TINY["failure-storm"], seed=0)
        )
        assert int(state.offline_mask.sum()) >= 1
        # Orphans were reabsorbed by default: everything is assigned.
        assert np.all(state.assignment >= 0)

    def test_failure_storm_unassigned_orphans(self):
        state = generate_instance(
            ScenarioSpec(
                "failure-storm",
                {**TINY["failure-storm"], "reassign_orphans": False},
                seed=0,
            )
        )
        assert np.any(state.assignment < 0)

    def test_replicated_shards_have_groups(self):
        state = generate_instance(
            ScenarioSpec("replicated-shards", TINY["replicated-shards"], seed=0)
        )
        assert len(state.replica_groups) > 0
        assert not state.has_replica_conflicts()

    def test_heterogeneous_tiers_ladder(self):
        state = generate_instance(
            ScenarioSpec(
                "heterogeneous-generations",
                {**TINY["heterogeneous-generations"], "tiers": 4},
                seed=0,
            )
        )
        assert {m.cls for m in state.machines} <= {"gen1", "gen2", "gen3", "gen4"}


class TestSuitesUseSpecs:
    def test_suite_specs_match_materialized_suite(self):
        from repro.workloads import suites

        specs = suites.suite_specs("tight")
        built = suites.tight_suite()
        assert [n for n, _ in specs] == [n for n, _ in built]
        for (_, spec), (_, state) in zip(specs, built):
            assert snap(generate_instance(spec)) == snap(state)

    def test_unknown_suite_rejected(self):
        from repro.workloads import suites

        with pytest.raises(ValueError, match="datacenter"):
            suites.suite_specs("nope")


class TestMatrix:
    def test_run_cell_rows_deterministic_and_clock_free(self):
        spec = ScenarioSpec("zipf-popularity", TINY["zipf-popularity"], seed=0)
        rows = run_cell(spec.to_dict(), "greedy", 10)
        again = run_cell(spec.to_dict(), "greedy", 10)
        assert json.dumps(rows, sort_keys=True) == json.dumps(again, sort_keys=True)
        for key in rows[0]:
            assert "time" not in key and "duration" not in key

    def test_run_cell_unknown_algorithm(self):
        spec = ScenarioSpec("zipf-popularity", TINY["zipf-popularity"], seed=0)
        with pytest.raises(ValueError, match="greedy"):
            run_cell(spec.to_dict(), "annealing", 10)

    def test_matrix_cross_product_and_artifacts(self, tmp_path):
        specs = [
            ScenarioSpec("zipf-popularity", TINY["zipf-popularity"], seed=0),
            ScenarioSpec("failure-storm", TINY["failure-storm"], seed=0),
        ]
        cells = run_matrix(specs, ["greedy", "noop"], iterations=10)
        assert [c.key for c in cells] == [
            cell_id(s, a) for s in specs for a in ("greedy", "noop")
        ]
        assert all(c.ok for c in cells)
        out = save_tables(cells, tmp_path / "mat", title="matrix cell")
        index = json.loads((out / "index.json").read_text())
        assert set(index) == {c.key for c in cells}
        for cell in cells:
            assert (out / f"{cell.key}.json").exists()
            assert (out / f"{cell.key}.txt").exists()
            assert index[cell.key]["spec_hash"] == cell.spec_hash

    def test_matrix_rejects_unknown_algorithm_before_running(self):
        specs = [ScenarioSpec("zipf-popularity", TINY["zipf-popularity"], seed=0)]
        with pytest.raises(ValueError, match="available"):
            run_matrix(specs, ["greedy", "annealing"], iterations=10)

    def test_smoke_specs_resolve(self):
        specs = smoke_specs()
        assert len(specs) >= 3
        assert len({s.scenario for s in specs}) >= 3
        for spec in specs:
            resolve(spec)

    def test_algorithm_axis_covers_sra_and_baselines(self):
        assert {"sra", "portfolio", "greedy", "local-search", "noop"} <= set(
            ALGORITHMS
        )

    def test_baselines_respect_offline_machines(self):
        spec = ScenarioSpec("failure-storm", TINY["failure-storm"], seed=0)
        for algo in ("sra", "greedy", "local-search", "noop"):
            rows = run_cell(spec.to_dict(), algo, 10)
            assert rows[0]["offline_machines"] >= 1, algo
