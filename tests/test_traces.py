"""Tests for non-homogeneous arrival traces and their use in the DES."""

import numpy as np
import pytest

from repro.cluster import ClusterState, Machine, Shard
from repro.simulate import (
    ServingConfig,
    WorkProfile,
    diurnal_rate,
    nonhomogeneous_arrivals,
    simulate_serving,
)


class TestDiurnalRate:
    def test_peak_and_trough(self):
        rate = diurnal_rate(10.0, peak_ratio=3.0, period=100.0, peak_at=0.5)
        assert rate(50.0) == pytest.approx(30.0)  # peak
        assert rate(0.0) == pytest.approx(10.0)  # trough
        assert rate.max_rate == pytest.approx(30.0)

    def test_periodicity(self):
        rate = diurnal_rate(5.0, period=10.0)
        assert rate(3.0) == pytest.approx(rate(13.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_rate(0.0)
        with pytest.raises(ValueError, match="peak_ratio"):
            diurnal_rate(1.0, peak_ratio=0.5)


class TestThinning:
    def test_rate_shape_recovered(self):
        rate = diurnal_rate(50.0, peak_ratio=4.0, period=100.0, peak_at=0.5)
        times = nonhomogeneous_arrivals(rate, 100.0, seed=1)
        peak_window = np.sum((times > 40) & (times < 60))
        trough_window = np.sum(times < 20) + np.sum(times > 80)
        assert peak_window > trough_window  # more arrivals around the peak

    def test_total_count_matches_integral(self):
        rate = diurnal_rate(100.0, peak_ratio=2.0, period=50.0)
        times = nonhomogeneous_arrivals(rate, 50.0, seed=2)
        # integral of rate over one period = base*(1+(ratio-1)/2)*T = 7500
        assert times.size == pytest.approx(7500, rel=0.1)

    def test_sorted_and_in_range(self):
        rate = diurnal_rate(20.0, period=30.0)
        times = nonhomogeneous_arrivals(rate, 30.0, seed=3)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0 and times.max() < 30.0

    def test_deterministic(self):
        rate = diurnal_rate(20.0, period=30.0)
        a = nonhomogeneous_arrivals(rate, 30.0, seed=4)
        b = nonhomogeneous_arrivals(rate, 30.0, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_envelope_violation_detected(self):
        times_fn = lambda t: 100.0  # noqa: E731
        with pytest.raises(ValueError, match="exceeds max_rate"):
            nonhomogeneous_arrivals(times_fn, 10.0, max_rate=10.0, seed=0)

    def test_max_rate_required(self):
        with pytest.raises(ValueError, match="max_rate is required"):
            nonhomogeneous_arrivals(lambda t: 1.0, 10.0)


class TestDesWithTrace:
    def _state(self):
        machines = Machine.homogeneous(2, {"cpu": 4.0, "ram": 10.0, "disk": 10.0})
        shards = Shard.uniform(2, {"cpu": 1.0, "ram": 1.0, "disk": 1.0})
        return ClusterState(machines, shards, [0, 1])

    def test_explicit_arrivals_used(self):
        state = self._state()
        profile = WorkProfile(np.full((2, 2), 1000.0))
        times = np.array([1.0, 2.0, 3.0])
        report = simulate_serving(
            state, profile, config=ServingConfig(duration=10.0), arrival_times=times
        )
        assert report.queries_completed == 3

    def test_capture_raw(self):
        state = self._state()
        profile = WorkProfile(np.full((2, 2), 1000.0))
        report = simulate_serving(
            state,
            profile,
            config=ServingConfig(arrival_rate=10.0, duration=10.0, seed=1),
            capture_raw=True,
        )
        assert report.raw_arrivals is not None
        assert report.raw_latencies is not None
        assert report.raw_arrivals.shape == report.raw_latencies.shape
        assert report.latency.mean == pytest.approx(report.raw_latencies.mean())

    def test_negative_arrivals_rejected(self):
        state = self._state()
        profile = WorkProfile(np.full((2, 2), 1000.0))
        with pytest.raises(ValueError, match="non-negative"):
            simulate_serving(state, profile, arrival_times=np.array([-1.0]))

    @pytest.mark.parametrize(
        "times", [[0.5, np.nan, 1.0], [0.5, np.inf], [-np.inf, 1.0]]
    )
    def test_non_finite_arrivals_rejected(self, times):
        # A NaN or infinite arrival used to be accepted and turn every
        # latency percentile into NaN.
        state = self._state()
        profile = WorkProfile(np.full((2, 2), 1000.0))
        with pytest.raises(ValueError, match="finite"):
            simulate_serving(state, profile, arrival_times=np.array(times))

    def test_peak_hour_has_worse_latency(self):
        state = self._state()
        profile = WorkProfile(np.full((2, 2), 4000.0))
        rate = diurnal_rate(30.0, peak_ratio=4.0, period=60.0, peak_at=0.5)
        times = nonhomogeneous_arrivals(rate, 60.0, seed=5)
        report = simulate_serving(
            state,
            profile,
            config=ServingConfig(duration=60.0, postings_per_cpu_second=1e5, seed=5),
            arrival_times=times,
            capture_raw=True,
        )
        peak_mask = (report.raw_arrivals > 20) & (report.raw_arrivals < 40)
        off_mask = ~peak_mask
        assert report.raw_latencies[peak_mask].mean() > report.raw_latencies[off_mask].mean()
