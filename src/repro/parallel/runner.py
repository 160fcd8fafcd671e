"""Process-parallel task runner with crash isolation and obs merge.

:class:`ParallelRunner` executes a list of :class:`TaskSpec` on up to
``n_workers`` worker processes and returns one :class:`TaskResult` per
task **in task order**, regardless of completion order.  Three
properties distinguish it from a bare ``ProcessPoolExecutor``:

* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) yields a recorded failure row for its task; the run
  continues and every other task still completes;
* **per-task timeouts** — a task exceeding ``timeout_s`` is terminated
  and recorded as timed out instead of hanging the run;
* **observability merge** — when the parent has an active ``repro.obs``
  bundle, each task runs under a fresh tracer + registry and ships
  its records back; the parent re-parents every task trace under a
  ``parallel.task`` span and folds task metrics into its registry, in
  task order, so merged artifacts are deterministic.

With ``n_workers > 1`` the runner spawns long-lived workers on demand,
at most ``n_workers`` and never more than there are tasks waiting for
an idle one, and feeds tasks through per-worker duplex pipes.  The
workers serve every later :meth:`ParallelRunner.run` call and live
until :meth:`ParallelRunner.close` (the runner is a context manager).
An optional ``initializer(*initargs)`` runs once per worker at spawn —
this is how ``run_sra_restarts`` hands each worker the instance once,
so tasks stop re-pickling ``ClusterState``.  A dead or overrunning
worker is detected via pipe EOF / wall clock, its task recorded as
failed/timed out, and a replacement spawned while tasks remain.

``n_workers=1`` is the serial path: tasks run in-process (no
``multiprocessing`` at all) under the ambient obs bundle, which is
bitwise-identical to what the same tasks produce on a pool — the
determinism contract tested by ``tests/test_parallel.py``.  The serial
path records the same failure rows as workers do: *any*
``BaseException`` raised by a task (including ``SystemExit`` and
``KeyboardInterrupt``) becomes a failed :class:`TaskResult` rather
than aborting the run, matching the pool's exception contract.

Task functions must be module-level callables and their arguments and
results picklable (everything in this library is: states carry plain
NumPy arrays and frozen dataclasses).
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from types import TracebackType
from typing import Any, Callable, Mapping, Sequence

from repro import obs
from repro._validation import check_int, check_positive

__all__ = ["TaskSpec", "TaskResult", "ParallelRunner"]


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: a picklable callable plus its arguments."""

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Label used in failure rows, spans and progress lines.
    name: str = ""
    #: The task's spawned seed, recorded on the result for provenance
    #: (the runner does not interpret it; see ``repro.parallel.seeds``).
    seed: int | None = None


@dataclass
class TaskResult:
    """Outcome of one task, failure rows included."""

    index: int
    name: str
    ok: bool
    value: Any = None
    error: str | None = None
    duration_s: float = 0.0
    seed: int | None = None
    timed_out: bool = False


@dataclass
class _Slot:
    """Parent-side bookkeeping for one finished task (pre-merge)."""

    ok: bool
    value: Any = None
    error: str | None = None
    duration_s: float = 0.0
    timed_out: bool = False
    trace: list[dict[str, Any]] = field(default_factory=list)
    metrics: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class _Running:
    """Parent-side bookkeeping for one in-flight task."""

    index: int
    started: float


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    process: Any
    conn: Any
    current: _Running | None = None


def _format_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def _execute_task(spec: TaskSpec, capture_obs: bool) -> dict[str, Any]:
    """Run one task under a fresh obs bundle; return its payload dict.

    The payload is a plain dict so the parent can interpret it even when
    the task's exception types are not importable there.  The previous
    ambient bundle is restored afterwards, so a worker does not leak one
    task's tracer into the next.
    """
    bundle = (
        obs.Obs(obs.Tracer(), obs.MetricsRegistry()) if capture_obs else obs.NULL_OBS
    )
    previous = obs.activate(bundle)
    started = time.perf_counter()
    try:
        value = spec.fn(*spec.args, **dict(spec.kwargs))
        payload: dict[str, Any] = {"ok": True, "value": value, "error": None}
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        payload = {"ok": False, "value": None, "error": _format_error(exc)}
    finally:
        obs.deactivate(previous)
    payload["duration_s"] = time.perf_counter() - started
    if capture_obs:
        payload["trace"] = bundle.tracer.records()
        payload["metrics"] = bundle.metrics.to_dict()
    return payload


def _send_payload(conn: Any, payload: dict[str, Any]) -> None:
    """Ship *payload* to the parent; degrade unpicklable results to a
    failure row instead of vanishing."""
    try:
        conn.send(payload)
    except Exception as exc:  # unpicklable result: report, don't vanish
        conn.send(
            {
                "ok": False,
                "value": None,
                "error": f"task result not picklable: {_format_error(exc)}",
                "duration_s": payload.get("duration_s", 0.0),
            }
        )


def _worker_main(
    conn: Any,
    initializer: Callable[..., None] | None,
    initargs: tuple[Any, ...],
) -> None:
    """Worker loop: init once, then serve tasks until EOF.

    Each message is ``(spec, capture_obs)``; ``None`` (or pipe
    EOF) shuts the worker down.  An initializer failure kills the worker
    — the parent observes EOF, records the assigned task as crashed and
    respawns, so a broken initializer fails tasks rather than hanging
    the run.
    """
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        spec, capture_obs = msg
        _send_payload(conn, _execute_task(spec, capture_obs))
    conn.close()


def _shutdown(workers: list[_Worker]) -> None:
    """Stop and reap *workers*, emptying the list in place."""
    stopping = list(workers)
    workers.clear()
    for worker in stopping:
        if worker.process.is_alive():
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
    for worker in stopping:
        worker.process.join(1.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.conn.close()


class ParallelRunner:
    """Bounded-concurrency process runner (see module docstring).

    Parameters
    ----------
    n_workers:
        Maximum concurrent worker processes.  ``1`` (the default) runs
        every task serially in-process — exactly today's single-core
        path, with no multiprocessing machinery involved.
    timeout_s:
        Optional per-task wall-clock limit.  Only enforced on the pool
        path (``n_workers > 1``); the serial path cannot preempt a
        running task.
    initializer / initargs:
        Optional per-worker setup hook, run once in each worker process
        at spawn (and once in-process for the serial path).  Arguments
        travel through ``Process`` creation, so ``multiprocessing``
        primitives (locks) are allowed here even though they cannot
        cross task pipes.
    """

    def __init__(
        self,
        n_workers: int = 1,
        *,
        timeout_s: float | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
    ) -> None:
        self.n_workers = check_int("n_workers", n_workers)
        check_positive("n_workers", self.n_workers)
        if timeout_s is not None:
            check_positive("timeout_s", timeout_s)
        self.timeout_s = timeout_s
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._inline_initialized = False
        self._workers: list[_Worker] = []
        # Workers block on their pipe until told to stop, and forked
        # siblings keep each other's pipe ends open, so a runner dropped
        # without close() must still stop them, or the interpreter's
        # exit-time join of child processes would hang.
        weakref.finalize(self, _shutdown, self._workers)

    # ------------------------------------------------------------------ API
    def run(self, tasks: Sequence[TaskSpec]) -> list[TaskResult]:
        """Execute *tasks*; return one result per task, in task order."""
        specs = list(tasks)
        if not specs:
            return []
        if self.n_workers == 1:
            if self._initializer is not None and not self._inline_initialized:
                self._initializer(*self._initargs)
                self._inline_initialized = True
            return [self._run_inline(i, spec) for i, spec in enumerate(specs)]
        return self._merge(specs, self._run_pool(specs))

    def close(self) -> None:
        """Shut down the pool's workers (idempotent)."""
        _shutdown(self._workers)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # --------------------------------------------------------- serial path
    def _run_inline(self, index: int, spec: TaskSpec) -> TaskResult:
        tracer = obs.current().tracer
        started = time.perf_counter()
        with tracer.span(
            "parallel.task", index=index, task=spec.name, seed=spec.seed
        ) as span:
            try:
                value = spec.fn(*spec.args, **dict(spec.kwargs))
                ok, error = True, None
            except BaseException as exc:  # noqa: BLE001 - same contract as pool
                # A worker records SystemExit/KeyboardInterrupt as a
                # failure row; the serial path must do the same, or a
                # task's behaviour would depend on n_workers.
                value, ok, error = None, False, _format_error(exc)
            duration = time.perf_counter() - started
            span.set("ok", ok)
            span.set("duration_s", duration)
        return TaskResult(
            index=index,
            name=spec.name,
            ok=ok,
            value=value,
            error=error,
            duration_s=duration,
            seed=spec.seed,
        )

    # ------------------------------------------------------------ pool path
    @staticmethod
    def _slot_from_payload(payload: Mapping[str, Any]) -> _Slot:
        return _Slot(
            ok=bool(payload["ok"]),
            value=payload.get("value"),
            error=payload.get("error"),
            duration_s=float(payload.get("duration_s", 0.0)),
            trace=list(payload.get("trace", [])),
            metrics=payload.get("metrics", {}),
        )

    @staticmethod
    def _kill(process: Any) -> None:
        process.terminate()
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join()

    def _spawn_worker(self) -> None:
        parent_conn, child_conn = mp.Pipe(duplex=True)
        process = mp.Process(
            target=_worker_main,
            args=(child_conn, self._initializer, self._initargs),
        )
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process=process, conn=parent_conn))

    def _drop(self, worker: _Worker) -> None:
        """Remove a dead/overrunning worker from the pool."""
        if worker in self._workers:
            self._workers.remove(worker)
        self._kill(worker.process)
        worker.conn.close()

    def _crashed(self, worker: _Worker, started: float) -> _Slot:
        """Reap a worker that died without reporting; return its failure row."""
        worker.process.join(1.0)  # EOF can beat the exit status; wait for it
        self._drop(worker)
        return _Slot(
            ok=False,
            error=f"worker crashed before reporting (exitcode {worker.process.exitcode})",
            duration_s=time.perf_counter() - started,
        )

    def _run_pool(self, specs: list[TaskSpec]) -> list[_Slot]:
        """Feed *specs* to the long-lived worker pool.

        A worker is spawned only while more tasks are pending than there
        are idle workers.  Every spawned worker handles at least one task
        outcome (success, crash row, or timeout row) before being
        replaced, so the run terminates even when workers die on arrival
        (for example when the initializer itself raises).
        """
        capture = obs.current().enabled
        slots: list[_Slot | None] = [None] * len(specs)
        pending: deque[tuple[int, TaskSpec]] = deque(enumerate(specs))
        while pending or any(w.current is not None for w in self._workers):
            idle = sum(1 for w in self._workers if w.current is None)
            while len(pending) > idle and len(self._workers) < self.n_workers:
                self._spawn_worker()
                idle += 1
            for worker in list(self._workers):
                if not pending:
                    break
                if worker.current is not None:
                    continue
                index, spec = pending.popleft()
                try:
                    worker.conn.send((spec, capture))
                except (BrokenPipeError, OSError):
                    # The worker died while idle; its replacement (if
                    # tasks remain) is spawned on the next loop pass.
                    slots[index] = self._crashed(worker, time.perf_counter())
                    continue
                worker.current = _Running(index, time.perf_counter())
            busy = {w.conn: w for w in self._workers if w.current is not None}
            if not busy:
                continue
            tick = 0.05 if self.timeout_s is not None else None
            ready = wait(list(busy.keys()), timeout=tick)
            for conn in ready:
                worker = busy[conn]
                run = worker.current
                assert run is not None
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    slots[run.index] = self._crashed(worker, run.started)
                    continue
                slots[run.index] = self._slot_from_payload(payload)
                worker.current = None
            if self.timeout_s is not None:
                now = time.perf_counter()
                for worker in list(self._workers):
                    run = worker.current
                    if run is not None and now - run.started >= self.timeout_s:
                        slots[run.index] = _Slot(
                            ok=False,
                            error=f"timed out after {self.timeout_s:g}s",
                            duration_s=now - run.started,
                            timed_out=True,
                        )
                        self._drop(worker)
        return [
            slot if slot is not None else _Slot(ok=False, error="not run")
            for slot in slots
        ]

    # ---------------------------------------------------------------- merge
    def _merge(self, specs: list[TaskSpec], slots: list[_Slot]) -> list[TaskResult]:
        """Fold worker obs payloads into the parent bundle, in task order."""
        bundle = obs.current()
        results: list[TaskResult] = []
        for index, (spec, slot) in enumerate(zip(specs, slots, strict=True)):
            with bundle.tracer.span(
                "parallel.task", index=index, task=spec.name, seed=spec.seed
            ) as span:
                span.set("ok", slot.ok)
                span.set("duration_s", slot.duration_s)
                if slot.timed_out:
                    span.set("timed_out", True)
                if slot.trace:
                    bundle.tracer.ingest(slot.trace)
            if slot.metrics:
                bundle.metrics.merge_dict(slot.metrics)
            results.append(
                TaskResult(
                    index=index,
                    name=spec.name,
                    ok=slot.ok,
                    value=slot.value,
                    error=slot.error,
                    duration_s=slot.duration_s,
                    seed=spec.seed,
                    timed_out=slot.timed_out,
                )
            )
        return results
