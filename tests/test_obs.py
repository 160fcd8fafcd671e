"""Tests for repro.obs: tracer, metrics registry, ambient context.

The key end-to-end contract — instrumentation must not perturb results —
is pinned by a hypothesis property: a full facade episode produces a
bitwise-identical report whether observability is active or not.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import AlnsConfig, SRA, SRAConfig
from repro.algorithms.baselines import LocalSearchRebalancer
from repro.cluster import ClusterState, Machine, Shard
from repro.core import ResourceExchangeRebalancer
from repro.obs import (
    Histogram,
    LATENCY_EDGES_S,
    MetricsRegistry,
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    Obs,
    Tracer,
    UTILIZATION_EDGES,
    iter_spans,
    read_jsonl,
)
from repro.workloads import SyntheticConfig, generate


class FakeClock:
    """Deterministic monotonic clock for span timing assertions."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestTracerSpans:
    def test_nesting_parent_ids_and_depth(self):
        tr = Tracer(clock=FakeClock())
        assert tr.depth == 0 and tr.current_span is None
        with tr.span("outer") as outer:
            assert tr.depth == 1 and tr.current_span is outer
            with tr.span("inner") as inner:
                assert tr.depth == 2 and tr.current_span is inner
                assert inner.parent_id == outer.span_id
            assert tr.depth == 1
        assert tr.depth == 0
        spans = {s["name"]: s for s in iter_spans(tr.records())}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        # Children close before parents, so completion order is inner-first.
        assert [s["name"] for s in iter_spans(tr.records())] == ["inner", "outer"]

    def test_span_timing_attrs_and_counters(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("work", size=7) as sp:
            sp.set("feasible", True)
            sp.add("moves", 2)
            sp.add("moves", 3)
        (rec,) = iter_spans(tr.records())
        assert rec["t1"] > rec["t0"]
        assert rec["attrs"] == {"size": 7, "feasible": True}
        assert rec["counters"] == {"moves": 5.0}

    def test_event_attaches_to_innermost_span(self):
        tr = Tracer(clock=FakeClock())
        tr.event("orphan")
        with tr.span("outer"):
            with tr.span("inner") as inner:
                tr.event("hit", it=3)
                inner_id = inner.span_id
        events = [r for r in tr.records() if r["kind"] == "event"]
        assert events[0]["span"] is None
        assert events[1]["span"] == inner_id
        assert events[1]["attrs"] == {"it": 3}

    def test_add_outside_span_goes_to_root_counters(self):
        tr = Tracer()
        tr.add("loose", 2.0)
        tr.add("loose")
        assert tr.root_counters == {"loose": 3.0}
        assert tr.records()[-1] == {"kind": "counters", "counters": {"loose": 3.0}}

    def test_exception_recorded_and_not_swallowed(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("bad")
        (rec,) = iter_spans(tr.records())
        assert "RuntimeError" in rec["attrs"]["error"]

    def test_misnested_exit_unwinds_to_span(self):
        tr = Tracer()
        outer = tr.span("outer")
        inner = tr.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Closing the outer span unwinds the abandoned inner one too.
        outer.__exit__(None, None, None)
        assert tr.depth == 0

    def test_jsonl_round_trip(self, tmp_path):
        tr = Tracer(clock=FakeClock())
        with tr.span("episode", machines=np.int64(20)):
            tr.event("iter", objective=np.float64(0.5))
        tr.add("root", 1.0)
        path = tmp_path / "trace.jsonl"
        tr.export_jsonl(path)
        loaded = read_jsonl(path)
        # numpy scalars serialize as plain JSON numbers.
        assert loaded == json.loads(json.dumps(loaded))
        assert [r["kind"] for r in loaded] == ["event", "span", "counters"]
        (span,) = iter_spans(loaded)
        assert span["attrs"] == {"machines": 20}


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x", a=1) as sp:
            sp.set("k", 1)
            sp.add("c")
            assert NULL_TRACER.depth == 0
            assert NULL_TRACER.current_span is None
        NULL_TRACER.event("x")
        NULL_TRACER.add("x")
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.root_counters == {}

    def test_shared_null_span(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_export_refused(self, tmp_path):
        with pytest.raises(RuntimeError, match="NULL_TRACER"):
            NULL_TRACER.export_jsonl(tmp_path / "t.jsonl")


class TestHistogram:
    def test_bucket_rule_edges_inclusive_upper(self):
        h = Histogram("h", (1.0, 2.0, 3.0))
        # bucket i holds edges[i-1] < v <= edges[i]; last bucket overflows.
        assert h.bucket_of(0.5) == 0
        assert h.bucket_of(1.0) == 0
        assert h.bucket_of(1.5) == 1
        assert h.bucket_of(2.0) == 1
        assert h.bucket_of(3.0) == 2
        assert h.bucket_of(3.5) == 3  # overflow
        h.observe_many([0.5, 1.0, 2.0, 99.0])
        assert h.counts == [2, 1, 0, 1]
        assert h.count == 4
        assert h.min == 0.5 and h.max == 99.0
        assert h.mean == pytest.approx((0.5 + 1.0 + 2.0 + 99.0) / 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one edge"):
            Histogram("h", ())
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", (1.0, 1.0, 2.0))

    def test_standard_edge_sets_valid(self):
        for edges in (LATENCY_EDGES_S, UTILIZATION_EDGES):
            assert all(a < b for a, b in zip(edges, edges[1:], strict=False))

    def test_empty_to_dict(self):
        d = Histogram("h", (1.0,)).to_dict()
        assert d["count"] == 0 and d["min"] is None and d["max"] is None
        assert d["counts"] == [0, 0]


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", (1.0, 2.0)) is reg.histogram("h", (1.0, 2.0))

    def test_histogram_edge_conflict(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError, match="different edges"):
            reg.histogram("h", (1.0, 3.0))

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_starts_unset(self):
        g = MetricsRegistry().gauge("g")
        assert g.value is None
        g.set(3)
        assert g.value == 3.0

    def test_export_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("runs").inc(2)
        reg.gauge("peak").set(0.9)
        reg.histogram("lat", (0.1, 1.0)).observe(0.5)
        path = tmp_path / "metrics.json"
        reg.export_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == reg.to_dict()
        assert loaded["counters"] == {"runs": 2.0}
        assert loaded["gauges"] == {"peak": 0.9}
        assert loaded["histograms"]["lat"]["counts"] == [0, 1, 0]

    def test_null_registry_inert_and_refuses_export(self, tmp_path):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("c").inc()
        NULL_REGISTRY.gauge("g").set(1.0)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        with pytest.raises(RuntimeError, match="NULL_REGISTRY"):
            NULL_REGISTRY.export_json(tmp_path / "m.json")


class TestAmbientContext:
    def test_default_is_null(self):
        assert obs.current() is NULL_OBS
        assert NULL_OBS.enabled is False

    def test_activate_deactivate_restores(self):
        bundle = Obs(Tracer(), MetricsRegistry())
        previous = obs.activate(bundle)
        try:
            assert obs.current() is bundle
            assert bundle.enabled is True
        finally:
            obs.deactivate(previous)
        assert obs.current() is previous

    def test_observed_nests_and_restores(self):
        with obs.observed() as outer:
            assert obs.current() is outer
            with obs.observed() as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is NULL_OBS

    def test_observed_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.observed():
                raise RuntimeError("bad")
        assert obs.current() is NULL_OBS


def _episode(seed, util, exchange, observe):
    state = generate(
        SyntheticConfig(
            num_machines=8,
            shards_per_machine=5,
            target_utilization=util,
            placement_skew=0.5,
            max_shard_fraction=0.35,
            seed=seed,
        )
    )
    rebalancer = ResourceExchangeRebalancer(
        SRA(SRAConfig(alns=AlnsConfig(iterations=80, seed=seed))),
        exchange_machines=exchange,
    )
    if observe:
        with obs.observed():
            return rebalancer.run(state)
    return rebalancer.run(state)


@given(
    seed=st.integers(min_value=0, max_value=200),
    util=st.sampled_from([0.6, 0.8]),
    exchange=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_instrumentation_does_not_perturb_results(seed, util, exchange):
    """Tracer-on and tracer-off episodes are bitwise identical."""
    off = _episode(seed, util, exchange, observe=False)
    on = _episode(seed, util, exchange, observe=True)
    assert repr(off.result.peak_after) == repr(on.result.peak_after)
    assert repr(off.after.peak_utilization) == repr(on.after.peak_utilization)
    assert off.result.history == on.result.history
    np.testing.assert_array_equal(
        off.result.target_assignment, on.result.target_assignment
    )
    assert off.migration.num_moves == on.migration.num_moves
    assert off.feasible == on.feasible
    # Only the observed run carries artifacts.
    assert off.trace is None and off.metrics is None
    assert on.trace is not None and on.metrics is not None
    span_names = {r["name"] for r in on.trace if r.get("kind") == "span"}
    assert {"episode", "search", "evaluate"} <= span_names
    assert on.metrics["counters"]["episode.runs"] == 1.0


def test_polish_with_swaps_is_identical_with_tracer_on_and_off():
    """A polish that swaps: one ``polish.step`` event per step, kinds
    included, and the same steps, history and placement as untraced."""
    rng = np.random.default_rng(5)
    m = 12
    demands, hosts = [np.full(3, 45.0)] * 4, [0, 0, 1, 1]
    for i in range(2, m):
        # Machines 0 and 1 tie at the 90% peak; every other machine is
        # too full to take a 45-shard by a move, but can swap one in.
        load = rng.uniform(46.0, 55.0, size=3)
        first = rng.uniform(15.0, 30.0, size=3)
        demands.extend([first, load - first])
        hosts.extend([i, i])
    state = ClusterState(
        Machine.homogeneous(m, 100.0),
        [Shard(id=j, demand=d) for j, d in enumerate(demands)],
        hosts,
    )
    ls = LocalSearchRebalancer(seed=5)
    off, off_history = state.copy(), []
    off_steps = ls.improve_in_place(off, np.random.default_rng(5), history=off_history)
    on, on_history = state.copy(), []
    with obs.observed() as o:
        on_steps = ls.improve_in_place(on, np.random.default_rng(5), history=on_history)
    assert on_steps == off_steps > 0
    assert on_history == off_history
    np.testing.assert_array_equal(on.assignment, off.assignment)
    steps = [r["attrs"] for r in o.tracer.records() if r["name"] == "polish.step"]
    assert [s["step"] for s in steps] == list(range(1, on_steps + 1))
    assert steps[0]["kind"] == "swap"
    assert {s["kind"] for s in steps} <= {"move", "swap"}


def test_report_artifact_savers(tmp_path):
    report_off = _episode(3, 0.8, 0, observe=False)
    with pytest.raises(ValueError, match="trace"):
        report_off.save_trace_jsonl(tmp_path / "t.jsonl")
    with pytest.raises(ValueError, match="metrics"):
        report_off.save_metrics_json(tmp_path / "m.json")
    report_on = _episode(3, 0.8, 0, observe=True)
    report_on.save_trace_jsonl(tmp_path / "t.jsonl")
    report_on.save_metrics_json(tmp_path / "m.json")
    assert read_jsonl(tmp_path / "t.jsonl") == report_on.trace
    assert json.loads((tmp_path / "m.json").read_text()) == report_on.metrics


def test_alns_run_span_records_progress_when_an_operator_raises():
    """The alns.run span keeps the counters reached before an operator raised."""
    from repro.algorithms.destroy import random_removal
    from repro.algorithms.lns import AlnsEngine
    from repro.algorithms.repair import DEFAULT_REPAIR_OPS

    state = generate(SyntheticConfig(num_machines=6, shards_per_machine=4, seed=0))
    calls = 0

    def flaky_removal(state, rng, q):
        nonlocal calls
        calls += 1
        if calls == 4:
            raise RuntimeError("operator failed")
        return random_removal(state, rng, q)

    engine = AlnsEngine(AlnsConfig(iterations=10, seed=0), [flaky_removal], DEFAULT_REPAIR_OPS)
    with obs.observed() as o:
        with pytest.raises(RuntimeError, match="operator failed"):
            # A flat objective accepts every candidate.
            engine.run(state, lambda candidate: 1.0)
    (span,) = [
        r for r in o.tracer.records() if r.get("kind") == "span" and r["name"] == "alns.run"
    ]
    assert span["attrs"]["iterations_run"] == 4
    assert span["attrs"]["accepted"] == 3
    assert span["attrs"]["rejected_by_filter"] == 0
