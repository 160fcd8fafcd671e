"""Parametric scenario registry (see docs/ARCHITECTURE.md, "Scenario
registry").

Every scenario is a registered generator family ``(ScenarioSpec) ->
ClusterState`` with a typed parameter schema, deterministic under
``numpy.random.SeedSequence`` seeding, and content-addressed by the hash
of its canonicalized spec.  The registry is the enumeration surface for
instances: ``repro scenarios list`` prints it, the experiment suites
look specs up in it, and :func:`run_matrix` sweeps scenario × algorithm
grids through the parallel driver.
"""

from repro.scenarios import families  # noqa: F401  (imported for registration)
from repro.scenarios.matrix import (
    ALGORITHMS,
    MatrixCell,
    cell_id,
    run_cell,
    run_matrix,
    smoke_specs,
)
from repro.scenarios.registry import (
    SCENARIOS,
    ScenarioFamily,
    generate_instance,
    get_family,
    list_families,
    register_scenario,
    resolve,
    resolve_params,
)
from repro.scenarios.spec import ParamSpec, ScenarioSpec, canonical_params, spec_hash

__all__ = [
    "ParamSpec",
    "ScenarioSpec",
    "canonical_params",
    "spec_hash",
    "ScenarioFamily",
    "SCENARIOS",
    "register_scenario",
    "get_family",
    "list_families",
    "resolve",
    "resolve_params",
    "generate_instance",
    "ALGORITHMS",
    "MatrixCell",
    "cell_id",
    "run_cell",
    "run_matrix",
    "smoke_specs",
]
