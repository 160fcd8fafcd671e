"""Migration cost model: bytes, time and makespan.

A simple, defensible network model: every machine has one NIC of
``bandwidth`` bytes/second, full duplex.  Moves in the same wave run
concurrently but share the NICs of their endpoints, so a wave lasts as
long as its busiest NIC:

``wave_time = max_machine( bytes_out/bw , bytes_in/bw )``

and the makespan is the sum of wave times.  The model deliberately
ignores cross-wave pipelining (waves are barriers) — conservative, and
consistent with how index copies are actually sequenced (a shard copy
must be complete and verified before the source is dropped).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive
from repro.migration.moves import Move
from repro.migration.scheduler import Schedule

__all__ = ["BandwidthModel", "MigrationCost"]


@dataclass(frozen=True)
class MigrationCost:
    """Summary of a schedule's cost under a bandwidth model."""

    total_bytes: float
    num_moves: int
    num_waves: int
    num_staging_hops: int
    makespan_seconds: float
    wave_seconds: tuple[float, ...]


@dataclass(frozen=True)
class BandwidthModel:
    """Per-machine NIC bandwidth in bytes/second (full duplex)."""

    bandwidth: float = 1.25e9  # 10 GbE

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)

    def machine_wave_seconds(self, wave: Iterable[Move], num_machines: int) -> np.ndarray:
        """(m,) seconds each machine's NIC is busy during one wave.

        Full duplex: a machine sending and receiving concurrently is busy
        for the *larger* of the two transfer times, not their sum.  The
        wave's duration is the fleet maximum of these (the wave is a
        barrier on its busiest NIC), so per-machine busy seconds never
        exceed the wave duration — the accounting ``cost`` and the
        wave executor's NIC derating
        (:class:`repro.runtime.migration.MigrationExecutor`) share.
        """
        out_bytes = np.zeros(num_machines)
        in_bytes = np.zeros(num_machines)
        for mv in wave:
            out_bytes[mv.src] += mv.bytes
            in_bytes[mv.dst] += mv.bytes
        return np.asarray(np.maximum(out_bytes, in_bytes) / self.bandwidth)

    def wave_duration(self, wave: Iterable[Move], num_machines: int) -> float:
        """Duration of one wave: busiest NIC's transfer time."""
        return float(
            self.machine_wave_seconds(wave, num_machines).max(initial=0.0)
        )

    def cost(self, schedule: Schedule, num_machines: int) -> MigrationCost:
        """Full cost summary for *schedule*."""
        wave_secs = tuple(
            self.wave_duration(wave, num_machines) for wave in schedule.waves
        )
        hops = sum(1 for mv in schedule.all_moves() if mv.is_staged_hop)
        return MigrationCost(
            total_bytes=schedule.total_bytes(),
            num_moves=schedule.num_moves,
            num_waves=schedule.num_waves,
            num_staging_hops=hops,
            makespan_seconds=float(sum(wave_secs)),
            wave_seconds=wave_secs,
        )
