"""Shared exchange-machine pool: lend, run one exchange episode, settle."""

from repro.pool.manager import (
    MachinePool,
    PoolDecision,
    PoolEpisode,
    PoolSizingPolicy,
    exchange_episode,
)

__all__ = [
    "MachinePool",
    "PoolDecision",
    "PoolEpisode",
    "PoolSizingPolicy",
    "exchange_episode",
]
