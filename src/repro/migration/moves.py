"""Move primitives: the difference between two assignments.

A :class:`Move` relocates one shard from its current machine to a target
machine.  While a move is *in flight* the shard's resources are held on
both machines — the transient resource constraint that motivates the
whole paper.

The planner works on a :class:`MoveTable`, the same moves as parallel
arrays; :func:`diff_moves` returns one, and it reads as a sequence of
:class:`Move` objects, which are built only when indexed.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.cluster import ClusterState

__all__ = ["Move", "MoveTable", "diff_moves"]


@dataclass(frozen=True)
class Move:
    """Relocate ``shard_id`` from ``src`` to ``dst``.

    ``bytes`` is the data volume to copy (drives the makespan model).
    ``hop_of`` is -1 for direct moves; staged (multi-hop) moves record the
    shard's original source so reports can group hops per logical move.
    """

    shard_id: int
    src: int
    dst: int
    bytes: float
    hop_of: int = -1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"move of shard {self.shard_id} has src == dst == {self.src}")
        if self.bytes < 0:
            raise ValueError(f"move bytes must be >= 0, got {self.bytes}")

    @property
    def is_staged_hop(self) -> bool:
        return self.hop_of >= 0


@dataclass(frozen=True, eq=False)
class MoveTable(Sequence[Move]):
    """Moves as parallel arrays: row ``k`` is one :class:`Move`.

    ``shard``, ``src``, ``dst`` and ``hop_of`` are int64, ``bytes`` is
    float64, all of one length.  Indexing a row builds its ``Move``;
    equality with any sequence of moves compares them move by move.
    """

    shard: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    bytes: np.ndarray
    hop_of: np.ndarray

    @classmethod
    def of(cls, moves: Sequence[Move]) -> MoveTable:
        """*moves* as a table (a table is returned as is)."""
        if isinstance(moves, MoveTable):
            return moves
        return cls(
            shard=np.array([mv.shard_id for mv in moves], dtype=np.int64),
            src=np.array([mv.src for mv in moves], dtype=np.int64),
            dst=np.array([mv.dst for mv in moves], dtype=np.int64),
            bytes=np.array([mv.bytes for mv in moves], dtype=np.float64),
            hop_of=np.array([mv.hop_of for mv in moves], dtype=np.int64),
        )

    def with_hops(self, row: int, host: int) -> MoveTable:
        """This table plus two rows routing row *row*'s shard via *host*.

        The new rows are ``src -> host`` and ``host -> dst``, both with
        ``hop_of = src``; they are appended, so every existing row keeps
        its index.
        """
        shard, src, dst = int(self.shard[row]), int(self.src[row]), int(self.dst[row])
        size = self.bytes[row]
        return MoveTable(
            shard=np.append(self.shard, [shard, shard]),
            src=np.append(self.src, [src, host]),
            dst=np.append(self.dst, [host, dst]),
            bytes=np.append(self.bytes, [size, size]),
            hop_of=np.append(self.hop_of, [src, src]),
        )

    def moves(self, rows: np.ndarray) -> list[Move]:
        """The :class:`Move` objects of *rows*, in order."""
        return [
            Move(shard_id=j, src=s, dst=t, bytes=b, hop_of=h)
            for j, s, t, b, h in zip(
                self.shard[rows].tolist(),
                self.src[rows].tolist(),
                self.dst[rows].tolist(),
                self.bytes[rows].tolist(),
                self.hop_of[rows].tolist(),
                strict=True,
            )
        ]

    def total_bytes(self, rows: np.ndarray) -> float:
        """Bytes of *rows*, summed left to right as ``sum`` over moves does."""
        return float(sum(self.bytes[rows].tolist()))

    def __len__(self) -> int:
        return int(self.shard.size)

    @overload
    def __getitem__(self, index: int) -> Move: ...

    @overload
    def __getitem__(self, index: slice) -> list[Move]: ...

    def __getitem__(self, index: int | slice) -> Move | list[Move]:
        if isinstance(index, slice):
            return self.moves(np.arange(len(self))[index])
        return self.moves(np.arange(len(self))[[index]])[0]

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves(np.arange(len(self))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def diff_moves(
    state: ClusterState,
    target_assignment: np.ndarray,
) -> MoveTable:
    """Moves turning *state*'s current assignment into *target_assignment*.

    One row per shard whose machine changes, in ascending shard order;
    shards already in place generate no move.  The state must be fully
    assigned; the target must reference valid machines.
    """
    if not state.is_fully_assigned():
        raise ValueError("diff requires a fully assigned state")
    target = np.asarray(target_assignment, dtype=np.int64)
    if target.shape != (state.num_shards,):
        raise ValueError(
            f"target must have shape ({state.num_shards},), got {target.shape}"
        )
    if np.any((target < 0) | (target >= state.num_machines)):
        raise ValueError("target references unknown machines")
    current = state.assignment_view()
    changed = np.flatnonzero(current != target)
    return MoveTable(
        shard=changed,
        src=current[changed],
        dst=target[changed],
        bytes=state.sizes[changed],
        hop_of=np.full(changed.size, -1, dtype=np.int64),
    )
