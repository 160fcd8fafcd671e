"""Correctness sweep for the restart worker pool.

Covers the winner-aliasing regression, the serial/pool exception
contract, worker reuse/crash/timeout semantics, the instance hand-off
(the state reaches workers through the pool initializer, never through
task arguments, and no worker process outlives its runner on any exit
path), and the hypothesis-pinned property that pool results stay
bitwise-identical to serial.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.algorithms import AlnsConfig, SRAConfig
from repro.cluster import ClusterState
from repro.parallel import ParallelRunner, TaskSpec, run_sra_restarts
from repro.parallel import restarts as restarts_mod
from repro.workloads import SyntheticConfig, generate


# ----------------------------------------------------------------- task fns
# Module-level so they stay picklable under any multiprocessing start
# method.

def _square(x):
    return x * x


def _pid(_=None):
    return os.getpid()


def _hard_exit():
    os._exit(7)


def _sleep_forever():
    time.sleep(60)


def _sys_exit():
    sys.exit(3)


def _keyboard_interrupt():
    raise KeyboardInterrupt


def _unpicklable():
    return lambda: None


def _observed_work(n):
    bundle = obs.current()
    bundle.metrics.counter("work.items").inc(n)
    return n


_INIT_SENTINEL = None


def _remember(value):
    global _INIT_SENTINEL
    _INIT_SENTINEL = value


def _recall():
    return _INIT_SENTINEL


def _crashy_init():
    os._exit(9)


def _small_state(seed=3):
    return generate(
        SyntheticConfig(
            num_machines=12,
            shards_per_machine=6,
            target_utilization=0.85,
            placement_skew=0.5,
            max_shard_fraction=0.35,
            seed=seed,
        )
    )


def _worker_state_is_frozen():
    state = restarts_mod._WORKER_STATE
    return state is not None and not state.capacity.flags.writeable


# --------------------------------------------------------------- satellites
class TestWinnerAliasing:
    """run_sra_restarts must not mutate the winning row in place."""

    def test_winner_row_keeps_its_own_iteration_count(self):
        state = _small_state()
        config = SRAConfig(alns=AlnsConfig(iterations=40, seed=5))
        report = run_sra_restarts(state, config=config, restarts=3, n_workers=1)
        succeeded = [r for r in report.results if r.ok]
        total = sum(r.value.iterations for r in succeeded)
        assert report.best.iterations == total
        # Every per-restart row reports its *own* work, and the report's
        # best is a copy, not an alias of a row.
        for row in succeeded:
            assert row.value.iterations <= 40
            assert row.value is not report.best
        assert {r.value.iterations for r in succeeded} != {total}


class TestExceptionContract:
    """Serial and pool paths record the same failure rows — including
    for BaseException subclasses like SystemExit/KeyboardInterrupt."""

    @pytest.mark.parametrize(
        "fn,needle",
        [(_sys_exit, "SystemExit"), (_keyboard_interrupt, "KeyboardInterrupt")],
    )
    def test_base_exceptions_recorded_on_both_paths(self, fn, needle):
        specs = [TaskSpec(fn=fn, name="boom"),
                 TaskSpec(fn=_square, args=(2,), name="ok")]
        for workers in (1, 2):
            rows = ParallelRunner(workers).run(specs)
            assert not rows[0].ok and needle in rows[0].error
            assert rows[1].ok and rows[1].value == 4

    def test_persistent_pool_matches_too(self):
        with ParallelRunner(2) as runner:
            rows = runner.run([TaskSpec(fn=_sys_exit, name="boom"),
                               TaskSpec(fn=_square, args=(2,), name="ok")])
        assert not rows[0].ok and "SystemExit" in rows[0].error
        assert rows[1].ok and rows[1].value == 4


# ---------------------------------------------------------- persistent pool
class TestPersistentPool:
    def test_workers_are_reused_across_runs(self):
        specs = [TaskSpec(fn=_pid, args=(i,)) for i in range(6)]
        with ParallelRunner(2) as runner:
            first = {r.value for r in runner.run(specs)}
            second = {r.value for r in runner.run(specs)}
        assert len(first) <= 2
        assert first == second  # same processes served both batches
        assert os.getpid() not in first

    def test_results_in_task_order(self):
        specs = [TaskSpec(fn=_square, args=(i,)) for i in range(7)]
        with ParallelRunner(3) as runner:
            rows = runner.run(specs)
        assert [r.value for r in rows] == [i * i for i in range(7)]
        assert [r.index for r in rows] == list(range(7))

    def test_crash_is_isolated_and_pool_recovers(self):
        specs = [TaskSpec(fn=_hard_exit, name="die"),
                 TaskSpec(fn=_square, args=(3,), name="ok"),
                 TaskSpec(fn=_square, args=(4,), name="ok2")]
        with ParallelRunner(2) as runner:
            rows = runner.run(specs)
            # The pool must still work after burying a worker.
            again = runner.run([TaskSpec(fn=_square, args=(5,))])
        assert not rows[0].ok and "crashed" in rows[0].error
        assert rows[1].ok and rows[1].value == 9
        assert rows[2].ok and rows[2].value == 16
        assert again[0].ok and again[0].value == 25

    def test_timeout_kills_and_run_completes(self):
        t0 = time.perf_counter()
        with ParallelRunner(2, timeout_s=0.5) as runner:
            rows = runner.run([TaskSpec(fn=_sleep_forever, name="slow"),
                               TaskSpec(fn=_square, args=(4,), name="ok")])
        assert time.perf_counter() - t0 < 30
        assert rows[0].timed_out and not rows[0].ok
        assert rows[1].ok and rows[1].value == 16

    def test_initializer_runs_once_per_worker(self):
        with ParallelRunner(2, initializer=_remember, initargs=(41,)) as runner:
            rows = runner.run([TaskSpec(fn=_recall) for _ in range(4)])
        assert [r.value for r in rows] == [41] * 4

    def test_crashy_initializer_fails_tasks_not_hangs(self):
        with ParallelRunner(2, initializer=_crashy_init) as runner:
            rows = runner.run([TaskSpec(fn=_square, args=(1,)) for _ in range(3)])
        assert all(not r.ok for r in rows)
        assert all("crashed" in r.error for r in rows)

    def test_unpicklable_result_reported(self):
        with ParallelRunner(2) as runner:
            rows = runner.run([TaskSpec(fn=_unpicklable, name="bad")])
        assert not rows[0].ok and "picklable" in rows[0].error

    def test_spawns_no_more_workers_than_tasks(self):
        with ParallelRunner(4) as runner:
            runner.run([TaskSpec(fn=_square, args=(2,))])
            assert len(runner._workers) == 1
            # Idle workers take the next batch before any new one spawns.
            rows = runner.run([TaskSpec(fn=_pid, args=(i,)) for i in range(3)])
            assert len(runner._workers) == 3
            assert len({r.value for r in rows}) <= 3
            runner.run([TaskSpec(fn=_square, args=(i,)) for i in range(9)])
            assert len(runner._workers) == 4
        assert runner._workers == []

    def test_restart_fan_out_spawns_one_worker_per_restart(self, monkeypatch):
        spawned = []
        spawn = ParallelRunner._spawn_worker

        def counting_spawn(runner):
            spawned.append(runner)
            spawn(runner)

        monkeypatch.setattr(ParallelRunner, "_spawn_worker", counting_spawn)
        config = SRAConfig(alns=AlnsConfig(iterations=10, seed=2))
        run_sra_restarts(_small_state(), config=config, restarts=2, n_workers=4)
        assert len(spawned) == 2

    def test_unclosed_runner_does_not_block_exit(self):
        # Idle workers wait on their pipes; a runner that is never closed
        # must still stop them, or interpreter exit would join forever.
        script = (
            "import operator\n"
            "from repro.parallel import ParallelRunner, TaskSpec\n"
            "runner = ParallelRunner(2)\n"
            "runner.run([TaskSpec(fn=operator.add, args=(1, 2))] * 3)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert done.returncode == 0

    def test_close_is_idempotent(self):
        runner = ParallelRunner(2)
        runner.run([TaskSpec(fn=_square, args=(2,))])
        runner.close()
        runner.close()

    def test_obs_merge_identical_to_serial(self):
        specs = [TaskSpec(fn=_observed_work, args=(n,)) for n in (1, 5, 50)]
        with obs.observed() as serial_bundle:
            ParallelRunner(1).run(specs)
        with obs.observed() as pool_bundle:
            with ParallelRunner(2) as runner:
                runner.run(specs)
        assert (
            serial_bundle.metrics.to_dict()["counters"]["work.items"]
            == pool_bundle.metrics.to_dict()["counters"]["work.items"]
            == 56.0
        )


# ---------------------------------------------------------- instance hand-off
class TestSharedStateLifecycle:
    """The state reaches workers once, through the pool initializer, and
    no worker process outlives its runner on any exit path."""

    def test_pooled_task_args_hold_no_state(self, monkeypatch):
        # The property the instance hand-off exists for: a restart task
        # pickles its config, not the cluster state.
        captured = []
        run = ParallelRunner.run

        def capturing_run(runner, specs):
            captured.append((runner, list(specs)))
            return run(runner, specs)

        monkeypatch.setattr(ParallelRunner, "run", capturing_run)
        state = _small_state()
        config = SRAConfig(alns=AlnsConfig(iterations=10, seed=2))
        run_sra_restarts(state, config=config, restarts=2, n_workers=2)
        [(runner, specs)] = captured
        assert runner._initargs == (state,)
        for spec in specs:
            values = [*spec.args, *spec.kwargs.values()]
            assert not any(isinstance(v, ClusterState) for v in values)

    def test_shared_matrices_are_read_only(self):
        with ParallelRunner(
            2, initializer=restarts_mod._init_worker, initargs=(_small_state(),)
        ) as runner:
            rows = runner.run([TaskSpec(fn=_worker_state_is_frozen) for _ in range(2)])
        assert [r.value for r in rows] == [True, True]

    def test_no_leak_on_normal_exit(self):
        before = set(mp.active_children())
        state = _small_state()
        config = SRAConfig(alns=AlnsConfig(iterations=20, seed=2))
        run_sra_restarts(state, config=config, restarts=2, n_workers=2)
        assert set(mp.active_children()) <= before

    def test_no_leak_when_worker_crashes(self):
        before = set(mp.active_children())
        with ParallelRunner(
            2, initializer=restarts_mod._init_worker, initargs=(_small_state(),)
        ) as runner:
            rows = runner.run([TaskSpec(fn=_hard_exit, name="die"),
                               TaskSpec(fn=_worker_state_is_frozen, name="ok")])
        assert not rows[0].ok and "crashed" in rows[0].error
        assert rows[1].ok and rows[1].value is True
        assert set(mp.active_children()) <= before

    def test_no_leak_when_tasks_time_out(self):
        before = set(mp.active_children())
        state = _small_state()
        config = SRAConfig(alns=AlnsConfig(iterations=5_000_000, seed=2))
        with pytest.raises(RuntimeError, match="restarts failed"):
            run_sra_restarts(
                state, config=config, restarts=2, n_workers=2, timeout_s=0.4
            )
        assert set(mp.active_children()) <= before

    def test_pickled_hand_off_matches_serial(self):
        # Under fork the workers inherit the state; spawn pickles it once
        # per worker, so this case exercises ClusterState's pickle.
        script = (
            "import multiprocessing\n"
            "import numpy as np\n"
            "from repro.algorithms import AlnsConfig, SRAConfig\n"
            "from repro.parallel import run_sra_restarts\n"
            "from repro.workloads import scaling_suite\n"
            "multiprocessing.set_start_method('spawn')\n"
            "state = scaling_suite(sizes=((20, 6),), seed=4)[0][1]\n"
            "config = SRAConfig(alns=AlnsConfig(iterations=15, seed=3))\n"
            "runs = [run_sra_restarts(state, config=config, restarts=3, n_workers=w)\n"
            "        for w in (1, 2)]\n"
            "for a, b in zip(*(r.results for r in runs), strict=True):\n"
            "    assert a.ok and b.ok, (a.error, b.error)\n"
            "    assert np.array_equal(a.value.target_assignment, b.value.target_assignment)\n"
            "print('identical')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "identical"


# ------------------------------------------------------- bitwise determinism
class TestBlindBitwiseIdentity:
    """Blind pool results (state handed over by the initializer) stay
    bitwise-identical to serial."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_pool_matches_serial(self, seed):
        state = _small_state(seed % 7)
        config = SRAConfig(alns=AlnsConfig(iterations=15, seed=seed))
        serial = run_sra_restarts(state, config=config, restarts=2, n_workers=1)
        pool = run_sra_restarts(state, config=config, restarts=2, n_workers=2)
        assert pool.best.peak_after == serial.best.peak_after
        assert pool.best.iterations == serial.best.iterations
        np.testing.assert_array_equal(
            pool.best.target_assignment, serial.best.target_assignment
        )
        for a, b in zip(serial.results, pool.results, strict=True):
            assert a.ok and b.ok
            assert a.value.peak_after == b.value.peak_after
            np.testing.assert_array_equal(
                a.value.target_assignment, b.value.target_assignment
            )
