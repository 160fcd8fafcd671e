"""Scenario × algorithm matrix runner.

``run_matrix`` crosses a list of :class:`ScenarioSpec` with a list of
algorithm names and runs every cell — generate the instance, run the
algorithm, summarize — on the :class:`repro.parallel.ParallelRunner`
(crash isolation, per-cell timeouts, obs merge, deterministic ordering
for any worker count).

Cell rows are **deterministic by construction**: they carry only values
derived from the instance and the algorithm's proposal (peaks, moves,
feasibility, spec hash), never wall-clock readings — wall-clock lives in
the ``index.json`` manifest's ``duration_s``, which is the one field a
rerun may legitimately change.  That is what lets CI rerun a cell and
require bitwise-identical rows (the determinism gate in ci.yml).

A :class:`MatrixCell` is an experiment result keyed by cell id
(``<scenario>-<spec_hash>__<algorithm>``), so the experiment driver's
``repro.parallel.save_tables`` writes the matrix too: one
``<cell>.json`` + ``<cell>.txt`` row table per cell plus an
``index.json`` manifest, the artifact layout CI uploads for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.parallel.driver import ExperimentResult
from repro.parallel.runner import ParallelRunner, TaskSpec
from repro.scenarios.registry import generate_instance, resolve
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ALGORITHMS",
    "MatrixCell",
    "cell_id",
    "run_matrix",
    "run_cell",
    "smoke_specs",
]


def _make_sra(seed: int, iterations: int):
    from repro.algorithms import SRA, AlnsConfig, SRAConfig

    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed)))


def _make_portfolio(seed: int, iterations: int):
    from repro.algorithms import SRA, AlnsConfig, SRAConfig

    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed), restarts=2))


def _make_greedy(seed: int, iterations: int):
    from repro.algorithms import GreedyRebalancer

    return GreedyRebalancer()


def _make_local_search(seed: int, iterations: int):
    from repro.algorithms import LocalSearchRebalancer

    return LocalSearchRebalancer(seed=seed)


def _make_noop(seed: int, iterations: int):
    from repro.algorithms import NoopRebalancer

    return NoopRebalancer()


#: Algorithm axis: name -> factory(seed, iterations) -> Rebalancer.
ALGORITHMS: dict[str, Callable[[int, int], Any]] = {
    "sra": _make_sra,
    "portfolio": _make_portfolio,
    "greedy": _make_greedy,
    "local-search": _make_local_search,
    "noop": _make_noop,
}


@dataclass
class MatrixCell(ExperimentResult):
    """One (scenario spec, algorithm) cell's outcome; ``key`` is its
    :func:`cell_id`."""

    scenario: str
    algorithm: str
    spec: ScenarioSpec
    spec_hash: str

    def index_entry(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            **super().index_entry(),
        }


def cell_id(spec: ScenarioSpec, algorithm: str) -> str:
    """Stable artifact key: ``<scenario>-<spec_hash>__<algorithm>``."""
    _, _, digest = resolve(spec)
    return f"{spec.scenario}-{digest}__{algorithm}"


def run_cell(
    spec_doc: Mapping[str, Any], algorithm: str, iterations: int
) -> list[dict[str, Any]]:
    """Run one matrix cell; module-level so the pool can pickle it.

    Returns the cell's deterministic row table (no wall-clock fields).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    spec = ScenarioSpec.from_dict(spec_doc)
    _, resolved, digest = resolve(spec)
    state = generate_instance(spec)
    rebalancer = ALGORITHMS[algorithm](spec.seed, iterations)
    result = rebalancer.rebalance(state)
    return [
        {
            "scenario": spec.scenario,
            "spec_hash": digest,
            "seed": int(spec.seed),
            "algorithm": algorithm,
            "machines": state.num_machines,
            "shards": state.num_shards,
            "offline_machines": int(state.offline_mask.sum()),
            "peak_before": float(result.peak_before),
            "peak_after": float(result.peak_after),
            "moves": int(result.num_moves),
            "feasible": bool(result.feasible),
            "iterations": int(result.iterations),
        }
    ]


def run_matrix(
    specs: Sequence[ScenarioSpec],
    algorithms: Sequence[str],
    *,
    iterations: int = 400,
    n_workers: int = 1,
    timeout_s: float | None = None,
) -> list[MatrixCell]:
    """Run the full scenario × algorithm cross product.

    Cells come back in ``(spec order) × (algorithm order)`` regardless
    of worker count or completion order; a crashed or timed-out cell
    yields ``ok=False`` with an empty row table and does not abort the
    rest of the matrix.
    """
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(
            f"unknown algorithm(s) {unknown!r}; available: {sorted(ALGORITHMS)}"
        )
    cells: list[tuple[ScenarioSpec, str, str]] = []
    for spec in specs:
        resolve(spec)  # fail fast on bad specs, before any worker spawns
        for algorithm in algorithms:
            cells.append((spec, algorithm, cell_id(spec, algorithm)))
    tasks = [
        TaskSpec(
            fn=run_cell,
            args=(spec.to_dict(), algorithm, iterations),
            name=f"matrix:{key}",
        )
        for spec, algorithm, key in cells
    ]
    with ParallelRunner(n_workers, timeout_s=timeout_s) as runner:
        results = runner.run(tasks)
    out: list[MatrixCell] = []
    for (spec, algorithm, key), res in zip(cells, results, strict=True):
        _, _, digest = resolve(spec)
        out.append(
            MatrixCell(
                key=key,
                scenario=spec.scenario,
                algorithm=algorithm,
                spec=spec,
                spec_hash=digest,
                rows=list(res.value) if res.ok else [],
                ok=res.ok,
                error=res.error,
                duration_s=res.duration_s,
            )
        )
    return out


def smoke_specs(seed: int = 0) -> list[ScenarioSpec]:
    """The small spec set the CI scenario-matrix smoke job sweeps.

    Four families at deliberately tiny scale, so the whole matrix
    (4 scenarios × 2 algorithms by default) finishes in well under a
    minute while still exercising heterogeneous fleets, failure storms
    and multi-tenant pools end to end.
    """
    return [
        ScenarioSpec(
            "zipf-popularity",
            {"num_machines": 10, "shards_per_machine": 5, "placement_skew": 0.6},
            seed=seed,
        ),
        ScenarioSpec(
            "heterogeneous-generations",
            {"num_machines": 12, "shards_per_machine": 6, "drift": 0.4},
            seed=seed,
        ),
        ScenarioSpec(
            "multi-tenant",
            {"num_machines": 10, "tenants": 3, "shards_per_tenant": 15},
            seed=seed,
        ),
        ScenarioSpec(
            "failure-storm",
            {"num_machines": 12, "shards_per_machine": 4, "waves": 1},
            seed=seed,
        ),
    ]
