"""Tests for the process-parallel execution layer (repro.parallel).

The load-bearing property is the determinism contract: seeds, best
objectives and merged artifacts are identical for any worker count.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import AlnsConfig, SRA, SRAConfig
from repro.parallel import (
    ParallelRunner,
    TaskSpec,
    run_experiments,
    run_sra_restarts,
    save_tables,
    spawn_seed,
    spawn_seeds,
)
from repro.cluster import ExchangeLedger
from repro.workloads import SyntheticConfig, generate, make_exchange_machines, scaling_suite


# ----------------------------------------------------------------- task fns
# Module-level so they stay picklable under any multiprocessing start
# method.

def _square(x):
    return x * x


def _raise_value_error():
    raise ValueError("kaput")


def _hard_exit():
    os._exit(7)


def _sleep_forever():
    time.sleep(60)


def _unpicklable():
    return lambda: None


def _observed_work(n):
    bundle = obs.current()
    bundle.metrics.counter("work.items").inc(n)
    bundle.metrics.histogram("work.size", (1, 10, 100)).observe(n)
    with bundle.tracer.span("work.unit", n=n):
        bundle.tracer.event("work.tick", n=n)
    return n


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


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(42, 4) == spawn_seeds(42, 4)

    def test_distinct_across_indices_and_masters(self):
        seeds = spawn_seeds(0, 16)
        assert len(set(seeds)) == 16
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)

    def test_spawn_seed_matches_batch(self):
        assert spawn_seed(7, 2) == spawn_seeds(7, 5)[2]

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            spawn_seeds(0, -1)
        with pytest.raises(ValueError, match="index"):
            spawn_seed(0, -1)

    @settings(max_examples=25, deadline=None)
    @given(master=st.integers(0, 2**32 - 1), n=st.integers(0, 12), k=st.integers(0, 12))
    def test_prefix_stability(self, master, n, k):
        """Growing the restart budget never changes already-planned seeds."""
        lo, hi = sorted((n, k))
        assert spawn_seeds(master, hi)[:lo] == spawn_seeds(master, lo)

    @settings(max_examples=25, deadline=None)
    @given(master=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_seeds_are_json_safe_ints(self, master, n):
        for seed in spawn_seeds(master, n):
            assert isinstance(seed, int)
            assert 0 <= seed < 2**63


class TestParallelRunner:
    def test_serial_equals_pool(self):
        specs = [TaskSpec(fn=_square, args=(i,), name=f"sq{i}") for i in range(6)]
        serial = ParallelRunner(1).run(specs)
        pool = ParallelRunner(3).run(specs)
        assert [r.value for r in serial] == [r.value for r in pool]
        assert [r.index for r in pool] == list(range(6))
        assert all(r.ok for r in pool)

    def test_empty(self):
        assert ParallelRunner(2).run([]) == []

    def test_exception_is_a_failure_row(self):
        for workers in (1, 2):
            rows = ParallelRunner(workers).run(
                [TaskSpec(fn=_raise_value_error, name="boom"),
                 TaskSpec(fn=_square, args=(2,), name="ok")]
            )
            assert not rows[0].ok and "kaput" in rows[0].error
            assert rows[1].ok and rows[1].value == 4

    def test_worker_crash_is_isolated(self):
        rows = ParallelRunner(2).run(
            [TaskSpec(fn=_hard_exit, name="die"),
             TaskSpec(fn=_square, args=(3,), name="ok")]
        )
        assert not rows[0].ok and "exitcode 7" in rows[0].error
        assert rows[1].ok and rows[1].value == 9

    def test_timeout_terminates_the_task(self):
        t0 = time.perf_counter()
        rows = ParallelRunner(2, timeout_s=0.5).run(
            [TaskSpec(fn=_sleep_forever, name="slow"),
             TaskSpec(fn=_square, args=(4,), name="ok")]
        )
        assert time.perf_counter() - t0 < 30
        assert rows[0].timed_out and not rows[0].ok
        assert rows[1].ok and rows[1].value == 16

    def test_unpicklable_result_reported(self):
        rows = ParallelRunner(2).run([TaskSpec(fn=_unpicklable, name="bad")])
        assert not rows[0].ok
        assert "picklable" in rows[0].error

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            ParallelRunner(0)
        with pytest.raises(ValueError, match="timeout_s"):
            ParallelRunner(2, timeout_s=0.0)


class TestObsMerge:
    def merged(self, workers):
        specs = [TaskSpec(fn=_observed_work, args=(n,), name=f"w{n}")
                 for n in (1, 5, 50)]
        with obs.observed() as bundle:
            ParallelRunner(workers).run(specs)
        return bundle

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metrics_identical_serial_and_pool(self, workers):
        bundle = self.merged(workers)
        doc = bundle.metrics.to_dict()
        assert doc["counters"]["work.items"] == 56.0
        hist = doc["histograms"]["work.size"]
        assert hist["count"] == 3
        assert hist["counts"] == [1, 1, 1, 0]
        assert hist["min"] == 1 and hist["max"] == 50

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_shape_identical_serial_and_pool(self, workers):
        records = self.merged(workers).tracer.records()
        spans = [r for r in records if r.get("kind") == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["parallel.task"]) == 3
        assert len(by_name["work.unit"]) == 3
        # Every worker span hangs off a parallel.task span.
        task_ids = {s["id"] for s in by_name["parallel.task"]}
        assert {s["parent"] for s in by_name["work.unit"]} <= task_ids
        events = [r for r in records if r.get("kind") == "event"]
        assert sum(1 for e in events if e["name"] == "work.tick") == 3

    def test_no_obs_no_capture(self):
        rows = ParallelRunner(2).run([TaskSpec(fn=_observed_work, args=(1,))])
        assert rows[0].ok
        assert obs.current() is obs.NULL_OBS


class TestRestartDeterminism:
    """Identical objectives and seeds for any worker count."""

    @pytest.mark.parametrize(
        "make_state, config",
        [
            (_small_state, SRAConfig(alns=AlnsConfig(iterations=60, seed=10))),
            # Fleet size: m400 blind best-of-3 through the worker pool.
            # polish=False keeps the check about the fan-out.
            (
                lambda: scaling_suite(sizes=((400, 6),))[0][1],
                SRAConfig(alns=AlnsConfig(iterations=60, seed=1), polish=False),
            ),
        ],
        ids=["m12", "m400"],
    )
    def test_workers_1_2_4_identical(self, make_state, config):
        state = make_state()
        reports = {
            w: run_sra_restarts(state, config=config, restarts=3, n_workers=w)
            for w in (1, 2, 4)
        }
        ref = reports[1]
        assert ref.seeds == spawn_seeds(config.alns.seed, 3)
        for w in (2, 4):
            assert reports[w].seeds == ref.seeds
            assert reports[w].best.peak_after == ref.best.peak_after
            assert reports[w].best.iterations == ref.best.iterations
            np.testing.assert_array_equal(
                reports[w].best.target_assignment, ref.best.target_assignment
            )

    def test_per_restart_results_recorded(self):
        state = _small_state()
        config = SRAConfig(alns=AlnsConfig(iterations=40, seed=5))
        report = run_sra_restarts(state, config=config, restarts=2, n_workers=2)
        assert [r.seed for r in report.results] == list(report.seeds)
        assert all(r.ok for r in report.results)
        assert report.num_failed == 0

    def test_sra_config_wiring(self):
        state = _small_state()
        config = SRAConfig(alns=AlnsConfig(iterations=40, seed=5), restarts=2)
        via_sra = SRA(config).rebalance(state)
        direct = run_sra_restarts(
            state, config=SRAConfig(alns=AlnsConfig(iterations=40, seed=5)),
            restarts=2,
        )
        assert via_sra.peak_after == direct.best.peak_after
        assert via_sra.iterations == direct.best.iterations

    def test_n_workers_reaches_restart_fanout(self, monkeypatch):
        import repro.parallel

        seen = {}

        def fake_restarts(state, ledger, **kwargs):
            seen.update(kwargs)
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(repro.parallel, "run_sra_restarts", fake_restarts)
        with pytest.raises(RuntimeError, match="stop after"):
            SRA(SRAConfig(restarts=2, n_workers=4)).rebalance(_small_state())
        assert seen["n_workers"] == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            SRAConfig(restarts=0)
        with pytest.raises(ValueError, match="n_workers"):
            SRAConfig(n_workers=0)
        with pytest.raises(ValueError, match="restarts"):
            run_sra_restarts(_small_state(), config=SRAConfig(), restarts=0)


class TestBestOfK:
    """``SRA(SRAConfig(restarts=K))`` is the library's best-of-K search."""

    @staticmethod
    def config(iterations=150, **kwargs):
        return SRAConfig(alns=AlnsConfig(iterations=iterations, seed=10), **kwargs)

    def test_best_no_worse_than_any_restart(self):
        report = run_sra_restarts(_small_state(), config=self.config(), restarts=4)
        assert report.best.feasible
        for row in report.results:
            assert row.ok
            assert report.best.peak_after <= row.value.peak_after

    def test_iterations_totalled(self):
        result = SRA(self.config(100, restarts=3)).rebalance(_small_state())
        assert result.iterations == 300

    def test_parallel_matches_sequential(self):
        state = _small_state()
        seq = SRA(self.config(restarts=2)).rebalance(state)
        par = SRA(self.config(restarts=2, n_workers=2)).rebalance(state)
        np.testing.assert_array_equal(seq.target_assignment, par.target_assignment)
        assert seq.peak_after == par.peak_after

    def test_with_exchange_ledger(self):
        state = _small_state()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        result = SRA(self.config(restarts=2)).rebalance(grown, ledger)
        assert result.feasible
        assert result.settlement is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            self.config(restarts=0)
        with pytest.raises(ValueError, match="n_workers"):
            self.config(n_workers=0)


class TestExperimentDriver:
    def test_rows_identical_across_worker_counts(self):
        # Three experiments on two workers: one worker runs two of them.
        keys = ["e1", "e7", "e16"]
        serial = run_experiments(keys, n_workers=1)
        pool = run_experiments(keys, n_workers=2)
        assert [r.key for r in serial] == [r.key for r in pool] == keys
        for a, b in zip(serial, pool, strict=True):
            assert a.ok and b.ok
            assert a.rows == b.rows

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiments"):
            run_experiments(["e99"])

    def test_save_tables(self, tmp_path):
        results = run_experiments(["e1"], n_workers=1)
        out = save_tables(results, tmp_path / "tables")
        assert (out / "e1.txt").exists()
        assert (out / "e1.json").exists()
        import json

        index = json.loads((out / "index.json").read_text())
        assert index["e1"]["ok"] and index["e1"]["rows"] > 0
