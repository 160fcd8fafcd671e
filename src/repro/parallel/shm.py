"""Shared-memory instance publication and the cooperative incumbent slot.

Two facilities back the restart pool (see
docs/ARCHITECTURE.md, "Parallel execution"):

* **Instance publication** — :func:`publish_state` copies a
  :class:`~repro.cluster.ClusterState`'s structure-of-arrays matrices
  (capacity, demand, sizes, assignment, blocked/offline/exchange masks,
  replica table) into **one** ``multiprocessing.shared_memory`` segment
  and returns a :class:`SharedState` owner plus a small picklable
  :class:`StateHandle`.  Workers call :func:`attach_state` once, at pool
  start, and reconstruct a fully equivalent ``ClusterState`` whose
  immutable matrices are zero-copy views into the segment
  (``ClusterState.attach``); only the per-worker *mutable* arrays
  (assignment, loads, caches) are private.  This replaces re-pickling
  the whole instance — tens of thousands of ``Machine``/``Shard``
  dataclasses — for every restart task.

* **Incumbent exchange** — :class:`IncumbentSlot` is a single shared
  best-solution slot (objective + assignment + blocked mask + version
  counter) guarded by a ``multiprocessing`` lock.  Cooperative restarts
  poll it every ``period`` ALNS iterations through an
  :class:`IncumbentExchange` client: publish the own best when it beats
  the slot, adopt the slot when it beats the own best.  The publisher
  only ever stores filtered incumbents, so adoption is sound without
  re-running the best filter (all restarts share one episode, hence one
  filter).

Ownership / lifetime contract
-----------------------------

The **parent** that called :func:`publish_state` /
``IncumbentSlot(...)`` owns the segments: it must call ``close()`` and
``unlink()`` (both objects are context managers doing exactly that) —
on normal exit *and* on error paths.  Workers are attach-only: they
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

import multiprocessing as mp
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from types import TracebackType
from typing import Any, Mapping, Protocol

import numpy as np

from repro.cluster import ClusterState
from repro.cluster.machine import Machine
from repro.cluster.resources import ResourceSchema
from repro.cluster.shard import Shard

__all__ = [
    "ArraySpec",
    "LockLike",
    "StateHandle",
    "SharedState",
    "AttachedState",
    "publish_state",
    "attach_state",
    "IncumbentHandle",
    "IncumbentSlot",
    "IncumbentExchange",
    "attach_incumbent",
    "local_incumbent_exchange",
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


# --------------------------------------------------------------- incumbent
@dataclass(frozen=True)
class IncumbentHandle:
    """Picklable descriptor of an incumbent slot segment."""

    segment: str
    num_shards: int
    num_machines: int


class _SlotView:
    """Numpy views over an incumbent slot buffer.

    Layout: ``version`` int64 at 0, ``objective`` float64 at 8,
    ``assign`` int64[n] at 16, ``blocked`` bool[m] after it.
    ``version == 0`` means empty.  Keeps a reference to the backing
    mapping (when any) so the buffer outlives the view.
    """

    def __init__(self, buf: Any, n: int, m: int, shm: SharedMemory | None = None) -> None:
        self._shm = shm
        self.version = np.ndarray((1,), dtype=np.int64, buffer=buf, offset=0)
        self.objective = np.ndarray((1,), dtype=np.float64, buffer=buf, offset=8)
        self.assign = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=16)
        self.blocked = np.ndarray((m,), dtype=np.bool_, buffer=buf, offset=16 + 8 * n)

    @staticmethod
    def nbytes(n: int, m: int) -> int:
        return 16 + 8 * n + m


class LockLike(Protocol):
    """Structural protocol shared by ``multiprocessing.Lock`` and
    :class:`_NullLock`: context-manager entry/exit plus explicit
    acquire/release.  Everything in this module that takes a lock is
    typed against this protocol, so the serial no-op path and the real
    multiprocessing path go through the same interface — no
    special-casing in strict mypy or in the REP006 lock-discipline
    check."""

    def acquire(self, block: bool = True, timeout: float | None = None) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None: ...


class _NullLock:
    """No-op :class:`LockLike` for single-process (serial cooperative)
    exchange: a second holder is impossible, so acquisition always
    succeeds immediately."""

    def acquire(self, block: bool = True, timeout: float | None = None) -> bool:
        return True

    def release(self) -> None:
        return None

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()


class IncumbentSlot:
    """Owner side of the shared best-solution slot.

    Create in the parent, pass ``handle`` + ``lock`` to workers at
    spawn time (locks cannot travel over task pipes), unlink in the
    parent when the fan-out is done.
    """

    def __init__(
        self,
        num_shards: int,
        num_machines: int,
        *,
        ctx: Any = None,
    ) -> None:
        self._shm = SharedMemory(
            create=True, size=_SlotView.nbytes(num_shards, num_machines)
        )
        self._shm.buf[: _SlotView.nbytes(num_shards, num_machines)] = bytes(
            _SlotView.nbytes(num_shards, num_machines)
        )
        self.lock: LockLike = (ctx or mp.get_context()).Lock()
        self.handle = IncumbentHandle(
            segment=self._shm.name,
            num_shards=num_shards,
            num_machines=num_machines,
        )

    def snapshot(self) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """(version, objective, assignment, blocked) or None while empty.

        Copies out under the lock; safe to call while workers run.
        """
        view = _SlotView(self._shm.buf, self.handle.num_shards, self.handle.num_machines)
        with self.lock:
            version = int(view.version[0])
            if version == 0:
                return None
            return (
                version,
                float(view.objective[0]),
                view.assign.copy(),
                view.blocked.copy(),
            )

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a live snapshot view
            pass

    def unlink(self) -> None:
        try:
            SharedMemory(name=self.handle.segment).unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "IncumbentSlot":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
        self.unlink()


class IncumbentExchange:
    """Publish/adopt client over an incumbent slot (see module docstring).

    The ALNS engine polls this every :attr:`period` iterations:
    :meth:`offer` stores the caller's best when it strictly beats the
    slot; :meth:`take` returns a copy of the slot's incumbent when it
    strictly beats the caller's best (and is not the caller's own last
    publication).  Objectives compare with a 1e-12 margin so float noise
    cannot ping-pong an incumbent between workers.
    """

    def __init__(self, view: _SlotView, lock: LockLike, period: int = 50) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self._view = view
        self._lock: LockLike = lock
        self.period = int(period)
        self._seen_version = 0

    def clone(self) -> "IncumbentExchange":
        """Fresh client over the same slot.

        The seen-version cursor is per *search*: a new restart must be
        able to adopt the slot's current incumbent even though the
        previous restart in this process already saw (or wrote) that
        version.  Give every search its own clone.
        """
        return IncumbentExchange(self._view, self._lock, self.period)

    def offer(
        self, objective: float, assignment: np.ndarray, blocked: np.ndarray
    ) -> bool:
        """Store (objective, assignment, blocked) if strictly better."""
        view = self._view
        with self._lock:
            version = int(view.version[0])
            if version != 0 and not (objective < float(view.objective[0]) - 1e-12):
                return False
            view.objective[0] = objective
            view.assign[...] = assignment
            view.blocked[...] = blocked
            self._seen_version = version + 1
            view.version[0] = version + 1
            return True

    def take(self, objective: float) -> tuple[float, np.ndarray, np.ndarray] | None:
        """Copy out a strictly better foreign incumbent, or None.

        The lock-free version pre-check makes the steady state (nothing
        new) one int64 read; torn reads are harmless because the slot is
        re-read under the lock.
        """
        view = self._view
        if int(view.version[0]) == self._seen_version:
            return None
        with self._lock:
            self._seen_version = int(view.version[0])
            if self._seen_version == 0:
                return None
            stored = float(view.objective[0])
            if not (stored < objective - 1e-12):
                return None
            return stored, view.assign.copy(), view.blocked.copy()


def attach_incumbent(
    handle: IncumbentHandle, lock: LockLike, period: int = 50
) -> IncumbentExchange:
    """Worker-side client over the slot *handle* (attach-only; the
    parent unlinks)."""
    shm = SharedMemory(name=handle.segment)
    _untrack(shm)
    view = _SlotView(shm.buf, handle.num_shards, handle.num_machines, shm=shm)
    return IncumbentExchange(view, lock, period)


def local_incumbent_exchange(
    num_shards: int, num_machines: int, period: int = 50
) -> IncumbentExchange:
    """In-process exchange (plain buffer, no lock) for the serial path:
    sequential cooperative restarts adopt the best of earlier ones."""
    buf = bytearray(_SlotView.nbytes(num_shards, num_machines))
    return IncumbentExchange(
        _SlotView(memoryview(buf), num_shards, num_machines), _NullLock(), period
    )
