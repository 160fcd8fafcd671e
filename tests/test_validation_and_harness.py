"""Tests for the shared validation helpers and the experiment harness."""

import numpy as np
import pytest

from repro._validation import (
    as_demand_array,
    check_fraction,
    check_in,
    check_non_negative,
    check_positive,
)
from repro.algorithms import MigrationBudget, ObjectiveWeights, SRA, SRAConfig
from repro.algorithms.baselines import RandomRestartRebalancer
from repro.cluster import Shard
from repro.core import ResourceExchangeRebalancer
from repro.experiments import REGISTRY
from repro.experiments.harness import format_table, is_full_run, register
from repro.online import OnlineSimulator, PopularityDrift
from repro.parallel import ParallelRunner, run_sra_restarts
from repro.runtime import ClusterHandle, DriftDetectorConfig, DriftProcess, RebalanceController
from repro.workloads import SyntheticConfig, generate


class TestValidationHelpers:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative("x", -1)

    def test_check_non_negative_rejects_nan_and_accepts_inf(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            check_non_negative("x", float("nan"))
        assert check_non_negative("x", float("inf")) == float("inf")

    def test_nan_weight_and_size_rejected(self):
        with pytest.raises(ValueError, match="move_penalty must be >= 0"):
            ObjectiveWeights(move_penalty=float("nan"))
        with pytest.raises(ValueError, match="size_bytes must be >= 0"):
            Shard(id=0, demand=[1.0, 1.0, 1.0], size_bytes=float("nan"))

    def test_check_fraction(self):
        assert check_fraction("x", 0.5) == 0.5
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                check_fraction("x", bad)

    def test_check_in(self):
        assert check_in("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError, match="one of"):
            check_in("mode", "c", ("a", "b"))

    def test_as_demand_array_scalar(self):
        np.testing.assert_allclose(as_demand_array("d", 2.0), [2.0])

    def test_as_demand_array_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="1-D"):
            as_demand_array("d", np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            as_demand_array("d", [np.inf])
        with pytest.raises(ValueError, match="non-negative"):
            as_demand_array("d", [-1.0])
        with pytest.raises(ValueError, match="dimensions"):
            as_demand_array("d", [1.0, 2.0], dims=3)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "values, array_message, shard_message",
    [
        ([1.0, _NAN, 2.0], "demand must be finite, got array([ 1., nan,  2.])", None),
        ([1.0, _INF, 2.0], "demand must be finite, got array([ 1., inf,  2.])", None),
        ([1.0, -_INF, 2.0], "demand must be finite, got array([  1., -inf,   2.])", None),
        ([1.0, -0.5, 2.0], "demand must be non-negative, got array([ 1. , -0.5,  2. ])", None),
        # Non-finite wins over negative and over a wrong length.
        ([-1.0, _NAN], "demand must be finite, got array([-1., nan])", None),
        ([[1.0, 2.0, 3.0]], "demand must be 1-D, got shape (1, 3)", None),
        ([1.0, 2.0], "demand must have 3 dimensions, got 2", None),
        ([0.0, 0.0, 0.0], None, "shard demand must be non-zero, got [0. 0. 0.]"),
        ([0.0, 2.0, 0.0], None, None),
    ],
    ids=["nan", "pos-inf", "neg-inf", "negative", "negative-and-nan", "2-d",
         "wrong-length", "all-zero", "partly-zero"],
)
def test_demand_validation_messages(values, array_message, shard_message):
    """``as_demand_array`` and ``Shard`` reject each bad demand with the
    message of the first failing check, in the order 1-D, finite,
    non-negative, length; ``Shard`` adds the non-zero check."""
    if array_message is None:
        np.testing.assert_array_equal(as_demand_array("demand", values, 3), values)
    else:
        with pytest.raises(ValueError) as excinfo:
            as_demand_array("demand", values, 3)
        assert str(excinfo.value) == array_message
    message = shard_message or array_message
    if message is None:
        np.testing.assert_array_equal(Shard(id=0, demand=values).demand, values)
        return
    with pytest.raises(ValueError) as excinfo:
        Shard(id=0, demand=values)
    assert str(excinfo.value) == message


def _tiny_state():
    return generate(SyntheticConfig(num_machines=4, shards_per_machine=3, seed=0))


class TestIntegerCounts:
    """Counts are integers at every entry point, rejected when fractional."""

    @pytest.mark.parametrize(
        "name,build",
        [
            ("exchange_machines", lambda: ResourceExchangeRebalancer(exchange_machines=2.5)),
            ("required_returns", lambda: ResourceExchangeRebalancer(
                exchange_machines=2, required_returns=2.5)),
            ("restarts", lambda: RandomRestartRebalancer(restarts=2.5)),
            ("epochs", lambda: DriftProcess(
                ClusterHandle(_tiny_state()), PopularityDrift(), epochs=2.5)),
            ("epochs", lambda: OnlineSimulator(SRA(), PopularityDrift()).run(_tiny_state(), 2.5)),
            ("exchange_budget", lambda: RebalanceController(
                ClusterHandle(_tiny_state()), SRA(), exchange_budget=1.5)),
            ("exchange_budget", lambda: OnlineSimulator(
                SRA(), PopularityDrift(), exchange_budget=1.5)),
            ("slope_window", lambda: DriftDetectorConfig(slope_window=2.5)),
            ("warmup_checks", lambda: DriftDetectorConfig(warmup_checks=1.5)),
            ("max_moves", lambda: MigrationBudget(max_moves=2.5)),
            ("n_workers", lambda: ParallelRunner(1.5)),
            ("restarts", lambda: run_sra_restarts(
                _tiny_state(), config=SRAConfig(), restarts=2.0)),
            ("n_workers", lambda: run_sra_restarts(
                _tiny_state(), config=SRAConfig(), restarts=2, n_workers=1.5)),
        ],
        ids=[
            "episode-exchange_machines",
            "episode-required_returns",
            "random_restart-restarts",
            "drift_process-epochs",
            "online_run-epochs",
            "controller-exchange_budget",
            "online-exchange_budget",
            "detector-slope_window",
            "detector-warmup_checks",
            "budget-max_moves",
            "runner-n_workers",
            "sra_restarts-restarts",
            "sra_restarts-n_workers",
        ],
    )
    def test_fractional_count_rejected(self, name, build):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build()

    def test_integer_counts_still_accepted(self):
        assert ResourceExchangeRebalancer(exchange_machines=np.int64(2)).required_returns == 2
        assert RandomRestartRebalancer(restarts=np.int64(3)).restarts == 3
        assert MigrationBudget(max_moves=4).max_moves == 4
        assert DriftDetectorConfig(slope_window=3, warmup_checks=1).slope_window == 3
        with pytest.raises(ValueError, match="exchange_machines must be >= 0"):
            ResourceExchangeRebalancer(exchange_machines=-1)


class TestControllerTimes:
    """Controller check times are validated at construction, naming the
    argument, instead of failing later at ``Runtime.add`` or silently
    stopping the periodic checks."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"check_interval": 1.0, "horizon": float("nan")}, "horizon must be finite"),
            ({"check_interval": 1.0, "horizon": float("inf")}, "horizon must be finite"),
            ({"check_interval": 1.0, "horizon": 0.0}, "horizon must be finite and > 0"),
            ({"check_interval": float("inf"), "horizon": 10.0}, "check_interval must be finite"),
            ({"trigger_at": -1.0}, "trigger_at must be finite and >= 0"),
            ({"trigger_at": float("nan")}, "trigger_at must be finite"),
        ],
        ids=[
            "horizon-nan",
            "horizon-inf",
            "horizon-zero",
            "check_interval-inf",
            "trigger_at-negative",
            "trigger_at-nan",
        ],
    )
    def test_bad_time_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RebalanceController(ClusterHandle(_tiny_state()), SRA(), **kwargs)

    def test_valid_times_accepted(self):
        ctrl = RebalanceController(
            ClusterHandle(_tiny_state()), SRA(),
            check_interval=1.0, horizon=5.0, trigger_at=0.0,
        )
        assert (ctrl.check_interval, ctrl.horizon, ctrl.trigger_at) == (1.0, 5.0, 0.0)


class TestHarness:
    def test_format_table_alignment_and_types(self):
        rows = [
            {"name": "a", "value": 0.123456, "count": 3, "ok": True},
            {"name": "bb", "value": 1e7, "count": 10, "ok": False},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "yes" in text and "no" in text
        assert "1e+07" in text  # large numbers go scientific

    def test_format_table_union_of_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_is_full_run_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not is_full_run()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert is_full_run()
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not is_full_run()

    def test_register_decorator(self):
        @register("zz-test")
        def run(fast=True):
            return [{"x": 1}]

        try:
            assert REGISTRY["zz-test"]() == [{"x": 1}]
        finally:
            del REGISTRY["zz-test"]

    def test_all_experiments_registered(self):
        # E14 is retired; a lost or stray registration
        # fails here.
        expected = {f"e{i}" for i in range(1, 22)} - {"e14"}
        assert set(REGISTRY) == expected
