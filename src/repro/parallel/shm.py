"""Shared-memory instance publication for the restart pool.

:func:`publish_state` copies a :class:`~repro.cluster.ClusterState`'s
structure-of-arrays matrices (capacity, demand, sizes, assignment,
blocked/offline/exchange masks, replica table) into **one**
``multiprocessing.shared_memory`` segment and returns a
:class:`SharedState` owner plus a small picklable :class:`StateHandle`.
Workers call :func:`attach_state` once, at pool start, and reconstruct a
fully equivalent ``ClusterState`` whose immutable matrices are zero-copy
views into the segment (``ClusterState.attach``); only the per-worker
*mutable* arrays (assignment, loads, caches) are private.  This replaces
re-pickling the whole instance — tens of thousands of
``Machine``/``Shard`` dataclasses — for every restart task (see
docs/ARCHITECTURE.md, "Parallel execution").

Ownership / lifetime contract
-----------------------------

The **parent** that called :func:`publish_state` owns the segment: it
must call ``close()`` and ``unlink()`` (:class:`SharedState` is a
context manager doing exactly that) — on normal exit *and* on error
paths.  Workers are attach-only: they
``close()`` their mapping at process exit and never unlink.  Attaching
explicitly unregisters the segment from the worker's
``resource_tracker`` so Python < 3.13 does not unlink (or warn about)
a segment the worker never owned.  A crashed or timeout-killed worker
therefore cannot leak the segment: the name lives exactly as long as
the parent's ``unlink()`` is pending, which ``run_sra_restarts``
guarantees with ``finally``.  ``ClusterState.detach()`` converts an
attached state to private buffers for the rare case where a state must
outlive its segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from types import TracebackType
from typing import Mapping

import numpy as np

from repro.cluster import ClusterState
from repro.cluster.machine import Machine
from repro.cluster.resources import ResourceSchema
from repro.cluster.shard import Shard

__all__ = [
    "ArraySpec",
    "StateHandle",
    "SharedState",
    "AttachedState",
    "publish_state",
    "attach_state",
]


def _untrack(shm: SharedMemory) -> None:
    """Unregister *shm* from this process's resource tracker.

    On Python < 3.13 ``SharedMemory(name=...)`` registers even pure
    attachments, so a worker exiting would unlink (and warn about) a
    segment the parent still owns.  Attach-side code calls this right
    after opening; the parent keeps sole unlink responsibility.
    """
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:
        pass


# ---------------------------------------------------------------- instance
@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside a shared segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class StateHandle:
    """Picklable descriptor of a published cluster instance.

    Small by construction: segment name, array layout, the resource
    schema and the per-machine hardware-class labels.  Everything bulky
    lives in the segment itself.
    """

    segment: str
    nbytes: int
    arrays: Mapping[str, ArraySpec]
    schema: ResourceSchema
    machine_cls: tuple[str, ...]


def _layout(arrays: Mapping[str, np.ndarray]) -> tuple[dict[str, ArraySpec], int]:
    """8-byte-aligned packing of *arrays* into one segment."""
    specs: dict[str, ArraySpec] = {}
    offset = 0
    for name, arr in arrays.items():
        offset = (offset + 7) & ~7
        specs[name] = ArraySpec(offset=offset, shape=arr.shape, dtype=arr.dtype.str)
        offset += arr.nbytes
    return specs, max(offset, 1)


def _views(
    specs: Mapping[str, ArraySpec], buf: memoryview
) -> dict[str, np.ndarray]:
    return {
        name: np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset
        )
        for name, spec in specs.items()
    }


class SharedState:
    """Owner side of a published instance (see module docstring).

    Context-manager exit closes **and unlinks** the segment — the owner
    is the only party allowed to unlink.
    """

    def __init__(self, handle: StateHandle, shm: SharedMemory) -> None:
        self.handle = handle
        self._shm: SharedMemory | None = shm

    def close(self) -> None:
        """Unmap the owner's view (idempotent)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment name; safe to call once, after close()."""
        try:
            SharedMemory(name=self.handle.segment).unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedState":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
        self.unlink()


def publish_state(state: ClusterState) -> SharedState:
    """Copy *state*'s arrays into a fresh shared segment.

    The published image is a snapshot: later mutations of *state* are
    not reflected.  Only the public array surface is read, so any
    ``ClusterState`` (including one produced by ``with_extra_machines``
    after an exchange borrow) can be published.
    """
    arrays: dict[str, np.ndarray] = {
        "capacity": np.ascontiguousarray(state.capacity),
        "demand": np.ascontiguousarray(state.demand),
        "sizes": np.ascontiguousarray(state.sizes),
        "assignment": state.assignment,
        "blocked": np.ascontiguousarray(state.blocked_mask),
        "offline": np.ascontiguousarray(state.offline_mask),
        "exchange": np.ascontiguousarray(state.exchange_mask),
        "replica_of": np.array([sh.replica_of for sh in state.shards], dtype=np.int64),
    }
    specs, nbytes = _layout(arrays)
    shm = SharedMemory(create=True, size=nbytes)
    views = _views(specs, shm.buf)
    for name, arr in arrays.items():
        views[name][...] = arr
    del views  # drop buffer exports so close() cannot raise BufferError
    handle = StateHandle(
        segment=shm.name,
        nbytes=nbytes,
        arrays=specs,
        schema=state.schema,
        machine_cls=tuple(mach.cls for mach in state.machines),
    )
    return SharedState(handle, shm)


class AttachedState:
    """Worker side of a published instance: the reconstructed state plus
    the mapping keeping its buffers alive.

    Hold on to this object for as long as the state (or any copy's
    shared description arrays) is in use; ``close()`` unmaps.  Workers
    normally never close — process exit unmaps, and the parent unlinks.
    """

    def __init__(self, state: ClusterState, shm: SharedMemory) -> None:
        self.state = state
        self._shm = shm

    def close(self) -> None:
        """Unmap.  Only safe once every view into the segment is dead;
        call ``state.detach()`` first if the state must survive."""
        self._shm.close()


def attach_state(handle: StateHandle) -> AttachedState:
    """Reconstruct the published state from *handle* (zero-copy matrices).

    The returned state is fully equivalent to the published one —
    bitwise-identical arrays, equal machine/shard descriptions — so a
    search run on it walks the exact trajectory it would walk on the
    pickled original (pinned by a hypothesis property in
    ``tests/test_parallel_pool.py``).
    """
    shm = SharedMemory(name=handle.segment)
    _untrack(shm)
    views = _views(handle.arrays, shm.buf)
    for name in ("capacity", "demand", "sizes"):
        views[name].flags.writeable = False
    schema = handle.schema
    capacity = views["capacity"]
    exchange = views["exchange"]
    machines = [
        Machine(
            id=i,
            capacity=capacity[i],
            schema=schema,
            cls=handle.machine_cls[i],
            exchange=bool(exchange[i]),
        )
        for i in range(capacity.shape[0])
    ]
    demand = views["demand"]
    sizes = views["sizes"]
    replica_of = views["replica_of"]
    shards = [
        Shard(
            id=j,
            demand=demand[j],
            schema=schema,
            size_bytes=float(sizes[j]),
            replica_of=int(replica_of[j]),
        )
        for j in range(demand.shape[0])
    ]
    state = ClusterState.attach(
        machines,
        shards,
        capacity=capacity,
        demand=demand,
        sizes=sizes,
        assignment=views["assignment"],
        blocked=views["blocked"],
        offline=views["offline"],
    )
    return AttachedState(state, shm)
