"""Parallel experiment driver: run every registered experiment on a worker pool.

``run_experiments`` fans the ``repro.experiments.REGISTRY`` modules
across a :class:`~repro.parallel.runner.ParallelRunner` and aggregates
their row tables in registry order.  Each experiment is internally
deterministic (fixed seeds), so the only columns that vary between a
serial and a parallel run are wall-clock measurements
(``runtime_s``-style fields); everything else is identical — the
property the CI experiment-smoke job relies on.

``save_tables`` writes the aggregated tables as both aligned text and
JSON (plus an ``index.json`` manifest), which is what the CI smoke job
uploads as a build artifact.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.parallel.runner import ParallelRunner, TaskSpec

__all__ = ["ExperimentResult", "registry_order", "run_experiments", "save_tables"]


@dataclass
class ExperimentResult:
    """One experiment's aggregated outcome."""

    key: str
    rows: list[dict[str, Any]]
    ok: bool
    error: str | None
    duration_s: float

    def index_entry(self) -> dict[str, Any]:
        """This result's entry in the ``index.json`` manifest."""
        return {
            "ok": self.ok,
            "rows": len(self.rows),
            "duration_s": self.duration_s,
            "error": self.error,
        }


def _experiment_task(key: str, fast: bool) -> list[dict[str, Any]]:
    # Imported in the worker so a fresh process builds its own registry.
    from repro.experiments import REGISTRY

    return REGISTRY[key](fast=fast)


def registry_order(key: str) -> tuple[int, str]:
    """Sort key putting experiment ids in numeric order (e2 before e10).

    Plain lexicographic sorting interleaves them (e1, e10, e11, …, e2),
    which is wrong everywhere experiments are listed — use this key for
    any user-facing enumeration of the registry.
    """
    match = re.fullmatch(r"e(\d+)", key)
    return (int(match.group(1)) if match else 10**9, key)


def run_experiments(
    keys: Sequence[str] | None = None,
    *,
    fast: bool = True,
    n_workers: int = 1,
    timeout_s: float | None = None,
) -> list[ExperimentResult]:
    """Run experiments (default: the whole registry) and aggregate rows.

    Results come back in registry order (e1, e2, …, e20) regardless of
    worker count or completion order.  A crashed or timed-out experiment
    yields an ``ok=False`` entry with an empty row table; it does not
    abort the other experiments.
    """
    from repro.experiments import REGISTRY

    selected = sorted(REGISTRY, key=registry_order) if keys is None else list(keys)
    unknown = [k for k in selected if k not in REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown experiments {unknown!r}; "
            f"available: {sorted(REGISTRY, key=registry_order)}"
        )
    specs = [
        TaskSpec(fn=_experiment_task, args=(key, fast), name=f"experiment:{key}")
        for key in selected
    ]
    with ParallelRunner(n_workers, timeout_s=timeout_s) as runner:
        results = runner.run(specs)
    return [
        ExperimentResult(
            key=key,
            rows=list(row.value) if row.ok else [],
            ok=row.ok,
            error=row.error,
            duration_s=row.duration_s,
        )
        for key, row in zip(selected, results, strict=True)
    ]


def save_tables(
    results: Sequence[ExperimentResult], out_dir: str | Path, *, title: str = "experiment"
) -> Path:
    """Write one ``<key>.json`` + ``<key>.txt`` row table per result and an
    ``index.json`` manifest of their :meth:`ExperimentResult.index_entry`.

    The ``.txt`` tables are headed ``<title> <key>``.  The scenario matrix
    writes its cells through this too (see ``repro.scenarios.matrix``).
    """
    from repro.experiments import format_table

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        (out / f"{res.key}.json").write_text(
            json.dumps(res.rows, indent=2, default=str) + "\n", encoding="utf-8"
        )
        (out / f"{res.key}.txt").write_text(
            format_table(res.rows, title=f"{title} {res.key}") + "\n",
            encoding="utf-8",
        )
    index = {res.key: res.index_entry() for res in results}
    (out / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out
