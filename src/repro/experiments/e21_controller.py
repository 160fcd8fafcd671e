"""E21 — continuous rebalancing under demand drift (ISSUE 9's "E19", extension).

Study A (drift controllers, simulated execution): demand-drift scenarios
evolved by :class:`PopularityDrift` on the event runtime, four
controllers compared — ``never`` / ``threshold`` / ``always``
(full-solve episodes) and ``incremental`` (EWMA drift detector gating
move-budgeted SRA rounds with cooldown).  Reported per
run: the time integral of peak utilization over the horizon (the
balance actually delivered *while serving*, lower is better) and the
total bytes migrated (the price paid).  Claim: the incremental
controller matches or beats the threshold policy's utilization integral
at a strictly lower byte cost — many small budgeted rounds track drift more
cheaply than few full solves.

Study B (exchange-pool sizing, instant execution): the incremental
controller draws loaner machines from a finite
:class:`~repro.pool.MachinePool` under its
:class:`~repro.pool.PoolSizingPolicy` (borrow on overload,
hold, release when quiet) versus the fixed borrow-per-episode baseline.
Reported: ``machine_rounds`` — the standing loan integrated over control
rounds — against the balance held.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.algorithms import SRA, AlnsConfig, MigrationBudget, SRAConfig
from repro.experiments.common import scenario_instance
from repro.experiments.harness import register
from repro.migration import BandwidthModel
from repro.online import PopularityDrift
from repro.pool import MachinePool, PoolSizingPolicy
from repro.runtime import (
    ClusterHandle,
    DriftDetectorConfig,
    DriftProcess,
    IncrementalRebalanceController,
    RebalanceController,
    Runtime,
    ServingFleet,
)
from repro.workloads import make_exchange_machines

#: Drift scenario variants of Study A: (label, demand-drift params).
SCENARIOS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("hotspot-shift", {"hotspot_shift": 0.35, "target_utilization": 0.68}),
    (
        "flash-crowd",
        {
            "hotspot_shift": 0.1,
            "flash_multiplier": 8.0,
            "flash_fraction": 0.05,
            "target_utilization": 0.68,
        },
    ),
)

_EPOCH_LENGTH = 60.0
_CHECK_INTERVAL = 15.0
_SAMPLE_INTERVAL = 5.0
_THRESHOLD = 0.9
_DRIFT = 0.1
_DRIFT_TARGET = 0.68
_HOT_THRESHOLD = 0.78


class _PeakSampler:
    """Runtime process sampling the cluster peak on a fixed grid."""

    def __init__(self, handle: ClusterHandle, *, interval: float, horizon: float) -> None:
        self.handle = handle
        self.interval = interval
        self.horizon = horizon
        self.samples: List[Tuple[float, float]] = []

    def start(self, rt: Runtime) -> None:
        rt.at(rt.now, self._tick)

    def _tick(self, rt: Runtime) -> None:
        self.samples.append((rt.now, self.handle.state.peak_utilization()))
        nxt = rt.now + self.interval
        if nxt <= self.horizon:
            rt.at(nxt, self._tick)


def _util_integral(samples: List[Tuple[float, float]], horizon: float) -> float:
    """Left-Riemann integral of the sampled peak over [0, horizon]."""
    total = 0.0
    for (t0, p0), (t1, _p1) in zip(samples, samples[1:]):
        total += p0 * (t1 - t0)
    if samples and horizon > samples[-1][0]:
        total += samples[-1][1] * (horizon - samples[-1][0])
    return total


def _run_drift_controller(
    scenario_params: Mapping[str, Any],
    controller: str,
    *,
    seed: int,
    epochs: int,
    iterations: int,
    budget_moves: int,
) -> Dict[str, Any]:
    state = scenario_instance("demand-drift", dict(scenario_params), seed=seed)
    handle = ClusterHandle(state)
    cpu = state.schema.index("cpu")
    fleet = ServingFleet(state.capacity[:, cpu] * 2e5)
    location = state.assignment_view().copy()
    horizon = epochs * _EPOCH_LENGTH

    rt = Runtime()
    rt.add(
        DriftProcess(
            handle,
            PopularityDrift(
                drift=_DRIFT, target_utilization=_DRIFT_TARGET, seed=100 + seed
            ),
            epochs=epochs,
            epoch_length=_EPOCH_LENGTH,
        )
    )
    common: Dict[str, Any] = dict(
        execution="simulated",
        fleet=fleet,
        location=location,
        bandwidth=BandwidthModel(bandwidth=2e8),
        check_interval=_CHECK_INTERVAL,
        horizon=horizon,
    )
    if controller == "incremental":
        ctrl: RebalanceController = IncrementalRebalanceController(
            handle,
            SRA(
                SRAConfig(
                    alns=AlnsConfig(iterations=iterations, seed=1),
                    migration_budget=MigrationBudget(max_moves=budget_moves),
                )
            ),
            detector_config=DriftDetectorConfig(
                hot_threshold=_HOT_THRESHOLD, slope_threshold=0.002
            ),
            cooldown=_CHECK_INTERVAL,
            **common,
        )
    else:
        ctrl = RebalanceController(
            handle,
            SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=1))),
            policy=controller,
            threshold=_THRESHOLD,
            **common,
        )
    sampler = _PeakSampler(handle, interval=_SAMPLE_INTERVAL, horizon=horizon)
    rt.add(ctrl)
    rt.add(sampler)
    rt.run()

    total_bytes = 0.0
    for episode in ctrl.episodes:
        total_bytes += float(episode["bytes_moved"])
    return {
        "study": "A",
        "controller": controller,
        "seed": seed,
        "util_integral": _util_integral(sampler.samples, horizon),
        "mean_peak": _util_integral(sampler.samples, horizon) / horizon,
        "total_bytes": total_bytes,
        "episodes": len(ctrl.episodes),
        "feasible_episodes": sum(1 for e in ctrl.episodes if e["feasible"]),
        "total_moves": sum(int(e["moves"]) for e in ctrl.episodes),
        "final_peak": handle.state.peak_utilization(),
    }


def _run_pool_policy(
    policy: str, *, seed: int, epochs: int, iterations: int, pool_size: int
) -> Dict[str, Any]:
    state = scenario_instance("demand-drift", {}, seed=seed)
    handle = ClusterHandle(state)
    horizon = epochs * _EPOCH_LENGTH

    rt = Runtime()
    rt.add(
        DriftProcess(
            handle,
            PopularityDrift(drift=0.3, target_utilization=0.75, seed=100 + seed),
            epochs=epochs,
            epoch_length=_EPOCH_LENGTH,
        )
    )
    pool: MachinePool | None = None
    if policy == "pool-sized":
        pool = MachinePool(
            make_exchange_machines(state, pool_size),
            sizing=PoolSizingPolicy(
                borrow_above=0.85, release_below=0.72, min_hold_rounds=4
            ),
        )
        ctrl: RebalanceController = IncrementalRebalanceController(
            handle,
            SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=1))),
            detector_config=DriftDetectorConfig(
                hot_threshold=0.85, slope_threshold=0.002
            ),
            pool=pool,
            execution="instant",
            check_interval=_CHECK_INTERVAL,
            horizon=horizon,
        )
    else:  # fixed-budget: borrow 2, return 2, every firing episode
        ctrl = RebalanceController(
            handle,
            SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=1))),
            policy="threshold",
            threshold=_THRESHOLD,
            exchange_budget=2,
            execution="instant",
            check_interval=_CHECK_INTERVAL,
            horizon=horizon,
        )
    sampler = _PeakSampler(handle, interval=_SAMPLE_INTERVAL, horizon=horizon)
    rt.add(ctrl)
    rt.add(sampler)
    rt.run()

    feasible = sum(1 for e in ctrl.episodes if e["feasible"])
    if pool is not None:
        machine_rounds = pool.machine_rounds
        machines_borrowed = sum(ep.lent for ep in pool.history if ep.feasible)
        on_loan_end = pool.on_loan
    else:
        # A fixed-budget loan spans exactly its episode's control round.
        machine_rounds = 2 * feasible
        machines_borrowed = 2 * feasible
        on_loan_end = 0
    return {
        "study": "B",
        "policy": policy,
        "seed": seed,
        "util_integral": _util_integral(sampler.samples, horizon),
        "mean_peak": _util_integral(sampler.samples, horizon) / horizon,
        "episodes": len(ctrl.episodes),
        "feasible_episodes": feasible,
        "machine_rounds": machine_rounds,
        "machines_borrowed": machines_borrowed,
        "on_loan_end": on_loan_end,
        "fleet_end": handle.state.num_machines,
        "final_peak": handle.state.peak_utilization(),
    }


@register("e21")
def run(fast: bool = True) -> list[dict]:
    epochs = 8 if fast else 12
    iterations = 200 if fast else 500
    seeds = (0,) if fast else (0, 1)
    rows: list[dict] = []
    for seed in seeds:
        for label, params in SCENARIOS:
            for controller in ("never", "threshold", "always", "incremental"):
                row = _run_drift_controller(
                    params,
                    controller,
                    seed=seed,
                    epochs=epochs,
                    iterations=iterations,
                    budget_moves=16,
                )
                rows.append({"scenario": label, **row})
        for policy in ("fixed-budget", "pool-sized"):
            rows.append(
                _run_pool_policy(
                    policy,
                    seed=seed,
                    epochs=epochs,
                    iterations=iterations,
                    pool_size=4,
                )
            )
    return rows
