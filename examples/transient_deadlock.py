#!/usr/bin/env python3
"""The transient-constraint deadlock, in miniature.

Two machines, each 60% full with a single big shard, must swap shards —
but during a shard move its resources are held on BOTH machines, so
neither move can ever start: a capacity deadlock.  The moves the wave
scheduler strands are the witness of it.  One vacant exchange machine
breaks it by hosting one shard in transit.

This is the smallest instance of the phenomenon the paper's "resource
exchange" exists to solve; experiment E7 measures it at cluster scale.

Run:  python examples/transient_deadlock.py
"""

import numpy as np

from repro.cluster import ClusterState, Machine, Shard
from repro.migration import StagingPlanner, WaveScheduler, diff_moves


def show_plan(title: str, state: ClusterState, target: np.ndarray) -> None:
    print(f"--- {title}")
    moves = diff_moves(state, target)
    direct = WaveScheduler().schedule(state, moves)
    print(f"direct scheduling: {'feasible' if direct.feasible else 'DEADLOCK'}"
          f" ({len(direct.stranded)} moves stranded)")
    for mv in direct.stranded:
        print(f"  stranded: shard {mv.shard_id}: m{mv.src}->m{mv.dst}")
    plan = StagingPlanner().plan(state, target)
    if plan.feasible:
        print(f"staged plan: feasible with {plan.num_hops} staging hop(s), "
              f"{plan.schedule.num_waves} wave(s):")
        for w, wave in enumerate(plan.schedule.waves):
            steps = ", ".join(
                f"shard {mv.shard_id}: m{mv.src}->m{mv.dst}"
                + (" (staging)" if mv.is_staged_hop else "")
                for mv in wave
            )
            print(f"  wave {w}: {steps}")
    else:
        print("staged plan: INFEASIBLE — no machine has headroom to stage through")
    print()


def main() -> None:
    shards = Shard.uniform(2, 6.0)  # two shards, demand 6 of 10
    target = np.array([1, 0])  # swap them

    # Without a spare machine: deadlock, unfixable.
    state = ClusterState(Machine.homogeneous(2, 10.0), shards, [0, 1])
    show_plan("two machines, no spare", state, target)

    # With one vacant exchange machine: the swap becomes a 3-step dance.
    machines = Machine.homogeneous(2, 10.0) + [
        Machine(id=2, capacity=np.full(3, 10.0), exchange=True)
    ]
    state2 = ClusterState(machines, shards, [0, 1])
    show_plan("two machines + one vacant exchange machine", state2, target)


if __name__ == "__main__":
    main()
