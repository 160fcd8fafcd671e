#!/usr/bin/env python
"""Microbenchmarks for ClusterState mutation + transaction primitives.

Times the operations the delta-evaluated ALNS loop leans on: single
mutations inside/outside a transaction, ``with state.transaction():``
blocks (the path the engine runs) in both journal modes (forced by
moving ``_SNAPSHOT_ELEMENT_LIMIT``, the size crossover ``begin()``
reads), vectorized bulk unassignment, and the lazy peak-cache refresh.
Run directly; prints one line per primitive.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

import repro.cluster.state as state_module  # noqa: E402
from repro.workloads import scaling_suite  # noqa: E402

#: ``_SNAPSHOT_ELEMENT_LIMIT`` values forcing each transaction mode.
MODE_LIMITS = {"snapshot": 2**62, "journal": -1}


@contextmanager
def forced_mode(mode: str):
    """Transactions opened in the block use *mode* whatever the size."""
    default = state_module._SNAPSHOT_ELEMENT_LIMIT
    state_module._SNAPSHOT_ELEMENT_LIMIT = MODE_LIMITS[mode]
    try:
        yield
    finally:
        state_module._SNAPSHOT_ELEMENT_LIMIT = default


def bench(label: str, func, n: int = 2000) -> None:
    func()  # warm-up
    t0 = time.perf_counter()
    for _ in range(n):
        func()
    per = (time.perf_counter() - t0) / n
    print(f"{label:46s} {per * 1e6:9.2f} us")


def main() -> None:
    for m, spm in ((50, 6), (400, 6)):
        ((name, state),) = list(scaling_suite(sizes=((m, spm),)))
        print(f"--- {name} ---")
        rng = np.random.default_rng(0)
        shard = int(rng.integers(state.num_shards))
        machines = [i for i in range(state.num_machines)][:2]

        def move_roundtrip():
            state.move(shard, machines[0])
            state.move(shard, machines[1])

        bench("move x2 (no transaction)", move_roundtrip)

        def txn_noop():
            with state.transaction():
                pass

        def txn_moves():
            with state.transaction():
                state.move(shard, machines[0])
                state.move(shard, machines[1])

        for label, func in (
            ("transaction, rolled back", txn_noop),
            ("transaction+2 moves, rolled back", txn_moves),
        ):
            for mode in MODE_LIMITS:
                with forced_mode(mode):
                    bench(f"{label} ({mode})", func)

        batch = rng.choice(
            np.flatnonzero(state.assignment_view() >= 0),
            size=min(100, state.num_shards),
            replace=False,
        )

        def bulk_unassign():
            with state.transaction():
                state.unassign_many([int(j) for j in batch])

        bench("transaction+unassign_many(100)", bulk_unassign, n=500)

        def peak_refresh():
            with state.transaction():
                state.move(shard, machines[0])
                state.machine_peak_utilization_view()

        bench("move+peak-cache refresh (in txn)", peak_refresh)

        bench("copy() whole state", state.copy, n=500)
        print()


if __name__ == "__main__":
    main()
