#!/usr/bin/env python
"""Microbenchmarks for the repair-operator scoring kernel.

Times the primitives behind greedy/regret-2 repairs (score-matrix build,
single-column refresh, per-step partition) and each repair operator
end-to-end at two instance sizes.  These are the numbers to watch when
touching src/repro/algorithms/repair.py — see the implementation notes
in that module's docstring for why the kernel avoids axis-1 reductions.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from repro.algorithms import destroy as destroy_ops  # noqa: E402
from repro.algorithms import repair as repair_ops  # noqa: E402
from repro.workloads import scaling_suite  # noqa: E402


def bench(label: str, func, n: int = 200) -> None:
    func()
    t0 = time.perf_counter()
    for _ in range(n):
        func()
    per = (time.perf_counter() - t0) / n
    unit, scale = ("us", 1e6) if per < 1e-3 else ("ms", 1e3)
    print(f"{label:46s} {per * scale:9.2f} {unit}")


def main() -> None:
    for m, spm in ((50, 6), (400, 6)):
        ((name, state),) = list(scaling_suite(sizes=((m, spm),)))
        print(f"--- {name} ---")
        rng = np.random.default_rng(0)
        work = state.copy()
        removed = destroy_ops.random_removal(work, rng, 100)

        kern = repair_ops._ScoreKernel(work, removed)
        bench("score-matrix build (q x m)", lambda: repair_ops._ScoreKernel(work, removed))
        bench("column refresh (one machine)", lambda: kern.refresh_column(3))
        bench("best_machine (argmin of row)", lambda: kern.best_machine(0))
        top = np.partition(kern.scores, repair_ops._TOP_T - 1, axis=1)[:, : repair_ops._TOP_T]
        bench(
            "per-step regret partition (q x T lists)",
            lambda: np.partition(top, 1, axis=1),
        )

        for op in (repair_ops.greedy_best_fit, repair_ops.regret2_insertion):

            def e2e(op=op):
                trial = state.copy()
                batch = destroy_ops.random_removal(trial, rng, 100)
                op(trial, rng, batch)

            bench(f"{op.__name__} end-to-end (destroy 100)", e2e, n=30)
        print()


if __name__ == "__main__":
    main()
