"""Continuous rebalancing: drift detection + incremental episodes.

:class:`RebalanceController` (``repro.runtime.processes``) gates
episodes on the *instantaneous* peak — always / threshold / never.
This module grows that into a closed control loop:

:class:`EwmaDriftDetector`
    Smooths the per-machine peak utilizations with an EWMA and tracks
    the *trend* of the smoothed fleet peak (least-squares slope over a
    sliding window of observations).  A trigger fires when the smoothed
    peak is hot **or** rising fast — catching demand drift while it is
    still building, before the instantaneous threshold would.

:class:`IncrementalRebalanceController`
    A :class:`RebalanceController` whose policy is the detector and
    whose episodes are *incremental*: the SRA solve starts from the live
    serving placement and is bounded by the rebalancer's
    ``migration_budget``, so each round trims the hotspot with a capped
    amount of churn while serving continues (simulated execution runs
    the wave schedule on the shared clock).  With ``execution="instant"``
    it can additionally draw loaners from a :class:`~repro.pool.MachinePool`
    whose :class:`~repro.pool.PoolSizingPolicy` decides how many vacant
    machines to borrow/return per round, with hold-time hysteresis,
    replacing the fixed borrow-everything episode.  Each instant round is
    one :func:`~repro.pool.exchange_episode`.

Every check publishes ``controller.ewma_peak`` / ``controller.slope``
gauges and (tracer on) a ``controller.observe`` event, so the detector
state is auditable from the obs stream it feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import obs
from repro._validation import check_fraction, check_int, check_positive
from repro.pool import MachinePool
from repro.runtime.kernel import Runtime
from repro.runtime.processes import ClusterHandle, EpisodeOutcome, RebalanceController

__all__ = [
    "DriftDetectorConfig",
    "EwmaDriftDetector",
    "IncrementalRebalanceController",
]


@dataclass(frozen=True)
class DriftDetectorConfig:
    """Knobs of :class:`EwmaDriftDetector`.

    Attributes
    ----------
    ewma_alpha:
        Smoothing factor of the per-machine utilization EWMA
        (1 = no smoothing, track the raw signal).
    hot_threshold:
        Smoothed fleet peak above which the detector fires regardless
        of trend.
    slope_threshold:
        Minimum rise of the smoothed peak per simulated second that
        counts as "drifting hot" (the early trigger).
    slope_window:
        Observations the trend is fit over (least squares).
    warmup_checks:
        Observations required before the detector may fire at all —
        one sample is not a trend.
    """

    ewma_alpha: float = 0.3
    hot_threshold: float = 0.9
    slope_threshold: float = 0.002
    slope_window: int = 5
    warmup_checks: int = 2

    def __post_init__(self) -> None:
        check_fraction("ewma_alpha", self.ewma_alpha)
        if self.ewma_alpha == 0.0:
            raise ValueError("ewma_alpha must be > 0 (0 would never observe)")
        check_positive("hot_threshold", self.hot_threshold)
        check_positive("slope_threshold", self.slope_threshold)
        if check_int("slope_window", self.slope_window) < 2:
            raise ValueError(f"slope_window must be >= 2, got {self.slope_window}")
        if check_int("warmup_checks", self.warmup_checks) < 1:
            raise ValueError(f"warmup_checks must be >= 1, got {self.warmup_checks}")


class EwmaDriftDetector:
    """EWMA-smoothed hotspot/drift detector over per-machine peaks.

    Feed it ``(now, machine_peak_utilizations)`` at every control check
    via :meth:`observe`; ask :meth:`should_trigger` afterwards.  The
    smoothed state resets automatically when the fleet size changes
    (instant pool borrowing grows/shrinks the machine vector).
    """

    def __init__(self, config: DriftDetectorConfig | None = None) -> None:
        self.config = config or DriftDetectorConfig()
        self._ewma: Optional[np.ndarray] = None
        self._trail: List[Tuple[float, float]] = []
        self._checks = 0

    # ------------------------------------------------------------ observation
    def observe(self, now: float, machine_peaks: np.ndarray) -> None:
        """Fold one sample of per-machine peak utilizations into the EWMA."""
        peaks = np.asarray(machine_peaks, dtype=np.float64)
        alpha = self.config.ewma_alpha
        if self._ewma is None or self._ewma.shape != peaks.shape:
            self._ewma = peaks.copy()
        else:
            self._ewma = alpha * peaks + (1.0 - alpha) * self._ewma
        self._trail.append((float(now), float(self._ewma.max())))
        if len(self._trail) > self.config.slope_window:
            del self._trail[0]
        self._checks += 1

    # ----------------------------------------------------------------- state
    @property
    def ewma_peak(self) -> float:
        """Smoothed fleet peak (0 before the first observation)."""
        return 0.0 if self._ewma is None else float(self._ewma.max())

    @property
    def slope(self) -> float:
        """Least-squares rise of the smoothed peak per simulated second."""
        if len(self._trail) < 2:
            return 0.0
        t = np.array([p[0] for p in self._trail])
        y = np.array([p[1] for p in self._trail])
        t = t - t.mean()
        var = float((t * t).sum())
        if var == 0.0:
            return 0.0
        return float((t * (y - y.mean())).sum() / var)

    def should_trigger(self) -> bool:
        """Hot now, or drifting hot — after the warmup."""
        if self._checks < self.config.warmup_checks:
            return False
        cfg = self.config
        return self.ewma_peak > cfg.hot_threshold or self.slope > cfg.slope_threshold


class IncrementalRebalanceController(RebalanceController):
    """Detector-gated, budget-bounded rebalancing rounds.

    A drop-in :class:`RebalanceController` with ``policy="incremental"``:

    * the trigger verdict comes from an :class:`EwmaDriftDetector` fed
      at every check (the always/threshold verdicts are replaced);
    * episodes solve from the live serving placement, which equals the
      assignment whenever the controller is idle, so any
      :class:`~repro.algorithms.Rebalancer` works.  Bound the per-round
      churn by configuring an SRA with a ``migration_budget``;
    * with ``execution="instant"`` and a ``pool``, episode borrowing is
      sized by the pool's :class:`~repro.pool.PoolSizingPolicy`: loans
      persist across rounds (``required_returns=0``) and are released —
      possibly as drained in-service machines — once the pressure
      subsides.  The pool ticks its hold clock once per control check,
      before the in-flight and cooldown guards.

    The in-flight guard and ``cooldown`` hysteresis of the base class
    apply unchanged, so incremental rounds cannot thrash either.
    """

    def __init__(
        self,
        handle: ClusterHandle,
        rebalancer: Any,
        *,
        detector: Optional[EwmaDriftDetector] = None,
        detector_config: Optional[DriftDetectorConfig] = None,
        pool: Optional[MachinePool] = None,
        **kwargs: Any,
    ) -> None:
        if detector is not None and detector_config is not None:
            raise ValueError("pass detector or detector_config, not both")
        # The base class validates everything else; the policy gate is
        # replaced by the detector below.
        super().__init__(handle, rebalancer, policy="always", **kwargs)
        self.policy = "incremental"
        self.detector = detector or EwmaDriftDetector(detector_config)
        if pool is not None and self.execution != "instant":
            raise ValueError(
                "pool sizing requires instant execution: the serving fleet "
                "cannot grow mid-run under simulated execution"
            )
        self.pool = pool

    # ----------------------------------------------------------------- policy
    def maybe_rebalance(self, rt: Runtime) -> EpisodeOutcome:
        """Observe the detector, tick the pool, publish, then gate as usual."""
        self.detector.observe(
            rt.now, self.handle.state.machine_peak_utilization()
        )
        if self.pool is not None:
            self.pool.tick()
        o = obs.current()
        o.metrics.gauge("controller.ewma_peak").set(self.detector.ewma_peak)
        o.metrics.gauge("controller.slope").set(self.detector.slope)
        if o.tracer.enabled:
            o.tracer.event(
                "controller.observe",
                time=rt.now,
                ewma_peak=self.detector.ewma_peak,
                slope=self.detector.slope,
                in_flight=self._in_flight,
            )
        return super().maybe_rebalance(rt)

    def _policy_fires(self, peak: float) -> bool:
        if self.detector.should_trigger():
            return True
        # The pool policy is a second trigger: a round must also run
        # when the loan should grow (overload) or shrink (release) —
        # releases in particular happen when the detector is quiet.
        if self.pool is None:
            return False
        decision = self.pool.decide(peak)
        return decision.borrow > 0 or decision.release > 0
