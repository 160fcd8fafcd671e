"""Multi-epoch online rebalancing.

Production clusters are not rebalanced once: the workload drifts, the
operator rebalances, the workload drifts again.  The quantity that
matters over time is the *trajectory* — peak utilization per epoch and
the cumulative bytes migrated to keep it down.

:class:`OnlineSimulator` runs that loop for any rebalancing **policy**:

* ``"always"``   — rebalance every epoch;
* ``"threshold"``— rebalance only when the drifted peak exceeds
  ``threshold`` (the operationally sensible policy: tolerate mild
  imbalance, act on hotspots);
* ``"never"``    — the do-nothing control.

Exchange machines are borrowed at the start of each rebalancing episode
and returned at its end, exactly as the paper's operational model
prescribes (the pool lends machines per maintenance window, not
permanently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro._validation import check_int, check_non_negative, check_positive
from repro.algorithms import Rebalancer
from repro.cluster import ClusterState
from repro.online.drift import PopularityDrift
from repro.runtime.kernel import Runtime
from repro.runtime.processes import ClusterHandle, DriftProcess, RebalanceController

__all__ = ["EpochReport", "OnlineSimulator"]

Policy = Literal["always", "threshold", "never"]


@dataclass(frozen=True)
class EpochReport:
    """One epoch of the online loop."""

    epoch: int
    peak_before: float
    peak_after: float
    rebalanced: bool
    feasible: bool
    moves: int
    bytes_moved: float
    cumulative_bytes: float


@dataclass
class OnlineSimulator:
    """Drift → (maybe) rebalance → repeat.

    Attributes
    ----------
    rebalancer:
        The algorithm invoked on rebalancing epochs.
    drift:
        Workload drift model stepped once per epoch.
    policy, threshold:
        When to rebalance (see module docstring).
    exchange_budget:
        Machines borrowed for each rebalancing episode (returned after).
    """

    rebalancer: Rebalancer
    drift: PopularityDrift
    policy: Policy = "always"
    threshold: float = 0.95
    exchange_budget: int = 0

    def __post_init__(self) -> None:
        if self.policy not in ("always", "threshold", "never"):
            raise ValueError(f"unknown policy {self.policy!r}")
        check_positive("threshold", self.threshold)
        check_non_negative("exchange_budget", check_int("exchange_budget", self.exchange_budget))

    def run(self, state: ClusterState, epochs: int) -> list[EpochReport]:
        """Simulate *epochs* drift/rebalance cycles starting from *state*.

        Facade over :mod:`repro.runtime`: drift and rebalancing run as
        processes on an event-heap runtime (one epoch per simulated
        second), with the controller in ``"instant"`` execution mode —
        the settle-at-the-decision-instant semantics this class has
        always had, so trajectories are identical to the historical
        epoch loop (``tests/test_runtime.py`` pins this).  Wire a
        :class:`~repro.runtime.processes.RebalanceController` with
        ``execution="simulated"`` directly for wave-resolved episodes.
        """
        check_positive("epochs", check_int("epochs", epochs))
        handle = ClusterHandle(state)
        controller = RebalanceController(
            handle,
            self.rebalancer,
            policy=self.policy,
            threshold=self.threshold,
            exchange_budget=self.exchange_budget,
            execution="instant",
        )
        drift_proc = DriftProcess(handle, self.drift, epochs=epochs)
        cumulative = 0.0
        reports: list[EpochReport] = []

        def on_epoch(rt: Runtime, epoch: int) -> None:
            nonlocal cumulative
            peak_before = handle.state.peak_utilization()
            outcome = controller.maybe_rebalance(rt)
            cumulative += outcome.bytes_moved
            reports.append(
                EpochReport(
                    epoch=epoch,
                    peak_before=peak_before,
                    peak_after=handle.state.peak_utilization(),
                    rebalanced=outcome.attempted and outcome.feasible,
                    feasible=outcome.feasible,
                    moves=outcome.moves,
                    bytes_moved=outcome.bytes_moved,
                    cumulative_bytes=cumulative,
                )
            )

        drift_proc.subscribe(on_epoch)
        runtime = Runtime()
        runtime.add(drift_proc)
        runtime.add(controller)
        runtime.run()
        return reports

