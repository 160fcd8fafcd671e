"""Baseline rebalancers.

These are the comparison points of experiment E3/E5:

* :class:`NoopRebalancer` — the "before" row.
* :class:`GreedyRebalancer` — classic drain-the-hottest-machine greedy.
* :class:`LocalSearchRebalancer` — move/swap steepest local search, the
  stand-in for the state-of-the-art method the paper compares against
  (see DESIGN.md §1.4 for the justification).
* :class:`RandomRestartRebalancer` — randomized-rounding control.

All baselines are *transient-safe*: they only take steps that are
directly executable in the current cluster (the destination can hold the
in-flight copy).  This is what an operator without exchange machines must
do, and it is precisely the handicap resource exchange removes.  They
also never target blocked or offline machines, so they run unchanged on
degraded fleets (e.g. the ``failure-storm`` scenario family).
"""

from __future__ import annotations

import bisect
import time

import numpy as np

from repro import obs
from repro._validation import check_int, check_positive
from repro.cluster import ClusterState, ExchangeLedger
from repro.migration import StagingPlanner
from repro.algorithms.base import RebalanceResult, Rebalancer, finalize_result

__all__ = [
    "NoopRebalancer",
    "GreedyRebalancer",
    "LocalSearchRebalancer",
    "RandomRestartRebalancer",
]

#: Tied destinations whose sums of squared peaks are computed per block.
_TIE_BLOCK = 64

#: Destinations in the first block of the polish move scan (machine ids
#: below this); the rest are scanned only when no destination in it
#: improves.
_MOVE_BLOCK = 512


class NoopRebalancer(Rebalancer):
    """Propose no change (the 'before' measurement)."""

    name = "noop"

    def rebalance(
        self, state: ClusterState, ledger: ExchangeLedger | None = None
    ) -> RebalanceResult:
        started = time.perf_counter()  # repro: allow-wall-clock (runtime reporting)
        return finalize_result(
            self.name,
            state,
            state.assignment,
            ledger=ledger,
            planner=StagingPlanner(),
            started_at=started,
        )


class GreedyRebalancer(Rebalancer):
    """Drain the hottest machine while it improves the peak.

    Each step moves the largest shard of the peak machine to the machine
    that minimizes the resulting peak utilization, provided the move is
    directly executable (destination headroom covers the in-flight copy)
    and strictly improves the cluster peak.  Terminates when no such move
    exists.
    """

    name = "greedy"

    def __init__(self, *, max_moves: int | None = None) -> None:
        self.max_moves = max_moves

    def rebalance(
        self, state: ClusterState, ledger: ExchangeLedger | None = None
    ) -> RebalanceResult:
        started = time.perf_counter()  # repro: allow-wall-clock (runtime reporting)
        work = state.copy()
        budget = self.max_moves if self.max_moves is not None else 4 * state.num_shards
        for _ in range(budget):
            if not self._improve_once(work):
                break
        return finalize_result(
            self.name,
            state,
            work.assignment,
            ledger=ledger,
            planner=StagingPlanner(),
            started_at=started,
        )

    @staticmethod
    def _improve_once(work: ClusterState) -> bool:
        machine_peak = work.machine_peak_utilization()
        hottest = int(np.argmax(machine_peak))
        peak = machine_peak[hottest]
        members = work.machine_shards(hottest)
        if members.size == 0:
            return False
        headroom = work.capacity - work.loads
        # Try the machine's shards from largest demand down.
        for j in members[np.argsort(-work.demand[members].sum(axis=1))]:
            extra = work.demand[j]
            fits = np.all(headroom >= extra - 1e-12, axis=1)
            fits[hottest] = False
            fits[work.blocked_mask] = False
            peers = work.replica_peer_machines(int(j))
            if peers.size:
                fits[peers] = False
            candidates = np.flatnonzero(fits)
            if candidates.size == 0:
                continue
            # Peak of each candidate after receiving the shard.
            cand_peak = (
                (work.loads[candidates] + extra) / work.capacity[candidates]
            ).max(axis=1)
            best = int(candidates[np.argmin(cand_peak)])
            # Global peak after the move must strictly improve.
            others = np.delete(machine_peak, hottest)
            src_after = float(
                ((work.loads[hottest] - extra) / work.capacity[hottest]).max()
            )
            new_peak = max(
                float(cand_peak.min()),
                src_after,
                float(others.max(initial=0.0)) if others.size else 0.0,
            )
            if new_peak < peak - 1e-12:
                work.move(int(j), best)
                return True
        return False


class LocalSearchRebalancer(Rebalancer):
    """Steepest-descent local search over single moves and pair swaps.

    Every accepted step is directly executable:

    * a **move** requires the destination to hold the in-flight copy;
    * a **swap** requires an execution order (one shard parks on its
      destination first) in which both hops are individually executable.

    Search runs first-improvement passes over a randomized neighbourhood
    ordering until a pass yields no improvement or the step budget is
    exhausted.  The objective is cluster peak utilization, tie-broken by
    the sum of squared machine peaks (same landscape SRA uses).
    """

    name = "local-search"

    def __init__(
        self,
        *,
        max_steps: int = 10_000,
        seed: int = 0,
        neighborhood_sample: int = 64,
    ) -> None:
        self.max_steps = check_positive("max_steps", check_int("max_steps", max_steps))
        self.seed = seed
        self.neighborhood_sample = check_positive(
            "neighborhood_sample", check_int("neighborhood_sample", neighborhood_sample)
        )

    # ------------------------------------------------------------------ API
    def rebalance(
        self, state: ClusterState, ledger: ExchangeLedger | None = None
    ) -> RebalanceResult:
        started = time.perf_counter()  # repro: allow-wall-clock (runtime reporting)
        rng = np.random.default_rng(self.seed)
        work = state.copy()
        history = [work.peak_utilization()]
        steps = self.improve_in_place(work, rng, history=history)
        return finalize_result(
            self.name,
            state,
            work.assignment,
            ledger=ledger,
            planner=StagingPlanner(),
            started_at=started,
            iterations=steps,
            history=history,
        )

    def improve_in_place(
        self,
        work: ClusterState,
        rng: np.random.Generator,
        *,
        history: list[float] | None = None,
        max_steps: int | None = None,
    ) -> int:
        """Run the move/swap descent on *work* in place; returns step count.

        Blocked machines are never chosen as targets, so the descent is
        also usable as SRA's polish phase without breaking the
        designated-return contract.  With tracing on, each step emits a
        ``polish.step`` event whose ``kind`` is ``move`` or ``swap``.
        """
        budget = (
            self.max_steps
            if max_steps is None
            else check_positive("max_steps", check_int("max_steps", max_steps))
        )
        tracer = obs.current().tracer
        trace_on = tracer.enabled
        kern = _PolishKernel(work)
        steps = 0
        while steps < budget:
            if self._try_move(work, rng, kern):
                kind = "move"
            elif self._try_swap(work, rng, kern):
                kind = "swap"
            else:
                break
            steps += 1
            if history is not None:
                history.append(float(kern.peak.max()))
            if trace_on:
                tracer.event("polish.step", step=steps, kind=kind)
        return steps

    # ------------------------------------------------------------- internal
    def _try_move(
        self, work: ClusterState, rng: np.random.Generator, kern: _PolishKernel
    ) -> bool:
        peaks = kern.peak
        hottest = int(peaks.argmax())
        members = kern.members(hottest)
        if not members:
            return False
        sample = members
        if len(sample) > self.neighborhood_sample:
            sample = rng.choice(
                np.array(members), size=self.neighborhood_sample, replace=False
            ).tolist()
        cur_max = float(peaks[hottest])
        # After a move off the hottest machine, the new max is the largest
        # of the source's new peak, the destination's new peak and every
        # other machine's peak.  The destination's old peak is no larger
        # than its new one (demands are non-negative), so "every other
        # machine" may include it: one max over all but the hottest.
        rest = kern.rest_max(hottest)
        # Scored over the (d, m) mirrors: one contiguous row per dimension.
        loads_t, cap_t, head_t = kern.loads_t, kern.cap_t, kern.head_t
        src_load, src_cap = loads_t[:, hottest], cap_t[:, hottest]
        m = work.num_machines
        # Destinations are scanned in machine-id order, a first block and
        # then the rest: the first improving one usually lies early.
        spans = ((0, _MOVE_BLOCK), (_MOVE_BLOCK, m)) if m > _MOVE_BLOCK else ((0, m),)
        for j in sample:
            extra = work.demand[j]
            need = (extra - 1e-12)[:, None]
            src_peak = ((src_load - extra) / src_cap).max()
            floor = max(rest, src_peak)
            peers = work.replica_peer_machines(j)
            for lo, hi in spans:
                fits = kern.open[lo:hi] & (head_t[:, lo:hi] >= need).all(axis=0)
                if lo <= hottest < hi:
                    fits[hottest - lo] = False
                if peers.size:
                    fits[peers[(peers >= lo) & (peers < hi)] - lo] = False
                grown = ((loads_t[:, lo:hi] + extra[:, None]) / cap_t[:, lo:hi]).max(axis=0)
                # A destination whose new peak exceeds the current max
                # cannot improve.  If the first one left lowers the max,
                # it is the first improving destination; if it ties the
                # max, the sums of squares decide among the ties.
                cands = fits & (grown <= cur_max)
                c = int(cands.argmax())
                if not cands[c]:
                    continue
                if max(floor, grown[c]) < cur_max:
                    dst = lo + c
                else:
                    dests = np.flatnonzero(cands)
                    dst_peak = grown[dests]
                    dests += lo
                    at = _first_improving(
                        peaks,
                        cur_max,
                        np.maximum(floor, dst_peak),
                        ((hottest, src_peak), (dests, dst_peak)),
                    )
                    if at < 0:
                        continue
                    dst = int(dests[at])
                kern.move(work, j, dst)
                return True
        return False

    def _try_swap(
        self, work: ClusterState, rng: np.random.Generator, kern: _PolishKernel
    ) -> bool:
        peaks = kern.peak
        hottest = int(peaks.argmax())
        hot_members = np.array(kern.members(hottest), dtype=np.int64)
        if hot_members.size == 0:
            return False
        cur_max = float(peaks[hottest])
        coolest_order = np.argsort(peaks)
        # The machines of the three largest peaks: the largest peak of
        # every machine but the hottest and the cool one is among them.
        top = coolest_order[::-1][:3].tolist()
        for i in coolest_order[: min(8, work.num_machines)]:
            i = int(i)
            if i == hottest:
                continue
            cool_members = np.array(kern.members(i), dtype=np.int64)
            if cool_members.size == 0:
                continue
            hs = hot_members
            cs = cool_members
            if hs.size > self.neighborhood_sample:
                hs = rng.choice(hs, size=self.neighborhood_sample, replace=False)
            if cs.size > self.neighborhood_sample:
                cs = rng.choice(cs, size=self.neighborhood_sample, replace=False)
            rest = next((peaks[k] for k in top if k != hottest and k != i), -np.inf)
            pair = _first_improving_swap(work, peaks, rest, cur_max, hottest, i, hs, cs)
            if pair >= 0:
                a, b = divmod(pair, cs.size)
                kern.swap(work, int(hs[a]), int(cs[b]))
                return True
        return False


class _PolishKernel:
    """What one descent reads, kept in step with the state move by move.

    It holds each machine's shard ids in ascending order (one stable
    argsort of the assignment orders the shards by machine; a machine's
    list is read from it on first use), the per-machine peak utilization
    ``peak``, the (d, m) headroom ``head_t`` and the ``open`` mask of
    machines that accept shards.  :meth:`move` and :meth:`swap` go
    through ``ClusterState.move`` and then refresh only the two machines
    they touched, with the state's own expressions, so every value stays
    bitwise equal to ``machine_peak_utilization()`` and
    ``capacity_by_dim() - loads_by_dim()``.  A step then reads the
    hottest machine's shards, the peaks and the headroom without a pass
    over all n shards and without copying an m-length or (d, m) array.
    """

    def __init__(self, work: ClusterState) -> None:
        counts = work.shard_counts()
        order = np.argsort(work.assignment_view(), kind="stable")
        # Unassigned shards (-1) sort first.
        self._order = order[order.size - int(counts.sum()) :]
        self._starts = [0, *np.cumsum(counts).tolist()]
        self._lists: dict[int, list[int]] = {}
        # The state's live (d, m) views: ``ClusterState.move`` updates them.
        self.loads_t, self.cap_t = work.loads_by_dim(), work.capacity_by_dim()
        self.peak = work.machine_peak_utilization().copy()
        self.head_t = self.cap_t - self.loads_t
        self.open = ~work.blocked_mask

    def members(self, machine: int) -> list[int]:
        """Shard ids on *machine*, ascending.  Do not mutate."""
        got = self._lists.get(machine)
        if got is None:
            got = self._order[self._starts[machine] : self._starts[machine + 1]].tolist()
            self._lists[machine] = got
        return got

    def rest_max(self, machine: int) -> float:
        """The largest peak of every machine but *machine* (``-inf`` if
        there is none), read without a copy of the peak vector."""
        peaks = self.peak
        own = peaks[machine]
        peaks[machine] = -np.inf
        rest = peaks.max()
        peaks[machine] = own
        return rest

    def move(self, work: ClusterState, shard: int, dst: int) -> None:
        """``work.move(shard, dst)``, with both machines refreshed."""
        self._refresh(self._shift(work, shard, dst), dst)

    def swap(self, work: ClusterState, a: int, b: int) -> None:
        """Exchange the machines of shards *a* and *b*: *a* moves first."""
        src = self._shift(work, a, work.machine_of(b))
        self._refresh(src, self._shift(work, b, src))

    def _shift(self, work: ClusterState, shard: int, dst: int) -> int:
        src = work.move(shard, dst)
        self.members(src).remove(shard)
        bisect.insort(self.members(dst), shard)
        return src

    def _refresh(self, i: int, k: int) -> None:
        for col in (i, k):
            load, cap = self.loads_t[:, col], self.cap_t[:, col]
            self.peak[col] = (load / cap).max()
            self.head_t[:, col] = cap - load


def _first_improving(
    machine_peak: np.ndarray,
    cur_max: float,
    new_max: np.ndarray,
    edits: tuple[tuple[int | np.ndarray, float | np.ndarray], ...],
) -> int:
    """Index of the first candidate step that improves the score, or -1.

    Candidate ``c`` sets, for each ``(cols, peaks)`` in *edits*, the peak
    of machine ``cols[c]`` to ``peaks[c]`` (a scalar stands for the same
    machine or peak in every candidate); ``new_max[c]`` is the resulting
    max.  A candidate improves when its ``new_max`` is below the current
    max *cur_max*, or ties it with a smaller sum of squared peaks (the
    objective order of :class:`LocalSearchRebalancer`).  The sums, the current
    one included, are computed only for ties ahead of the first strict
    improvement, as ``np.sum`` over each tied candidate's full peak
    vector (rows of one block, which sum exactly as the 1-D vector does).
    """
    strict = np.flatnonzero(new_max < cur_max)
    stop = int(strict[0]) if strict.size else new_max.size
    ties = np.flatnonzero(new_max[:stop] == cur_max)
    if ties.size:
        cur_sq = float(np.sum(machine_peak**2))
    for at in range(0, ties.size, _TIE_BLOCK):
        chunk = ties[at : at + _TIE_BLOCK]
        block = np.tile(machine_peak, (chunk.size, 1))
        rows = np.arange(chunk.size)
        for cols, peaks in edits:
            at_cols = cols[chunk] if isinstance(cols, np.ndarray) else cols
            block[rows, at_cols] = peaks[chunk] if isinstance(peaks, np.ndarray) else peaks
        better = np.flatnonzero(np.sum(block**2, axis=1) < cur_sq)
        if better.size:
            return int(chunk[better[0]])
    return stop if strict.size else -1


def _first_improving_swap(
    work: ClusterState,
    machine_peak: np.ndarray,
    rest: float,
    cur_max: float,
    m1: int,
    m2: int,
    hs: np.ndarray,
    cs: np.ndarray,
) -> int:
    """First improving swap of a shard of *hs* (on *m1*) with one of *cs*
    (on *m2*), as the flat index ``a * cs.size + b`` of the pair
    ``(hs[a], cs[b])`` in row-major order, or -1.

    All pairs are scored in one pass.  A pair is admissible when, after
    the swap, no replica sibling shares a machine with either shard and
    both machines are within capacity, and when one execution order
    works: order A parks ``hs[a]`` on *m2* first (*m2* holds its load
    plus the in-flight copy), order B parks ``cs[b]`` on *m1* first.
    The new max is ``max(rest, p1, p2)``, *rest* being the largest peak
    of every machine but the two.
    """
    loads, cap = work.loads, work.capacity
    d1, d2 = work.demand[hs], work.demand[cs]  # (a, d), (b, d)
    lim1, lim2 = cap[m1] + 1e-12, cap[m2] + 1e-12
    load1 = (loads[m1] - d1)[:, None, :] + d2  # (a, b, d)
    load2 = (loads[m2] - d2) + d1[:, None, :]
    order_a = np.all(loads[m2] + d1 <= lim2, axis=1)  # (a,)
    order_b = np.all(loads[m1] + d2 <= lim1, axis=1)  # (b,)
    ok = order_a[:, None] | order_b
    ok &= ~np.any(load1 > lim1, axis=2)
    ok &= ~np.any(load2 > lim2, axis=2)
    if work.replica_groups:
        ok &= ~_swap_conflicts(work, m1, m2, hs, cs)
    cand = np.flatnonzero(ok)
    if cand.size == 0:
        return -1
    p1 = np.max(load1 / cap[m1], axis=2).ravel()[cand]
    p2 = np.max(load2 / cap[m2], axis=2).ravel()[cand]
    new_max = np.maximum(np.maximum(rest, p1), p2)
    c = _first_improving(machine_peak, cur_max, new_max, ((m1, p1), (m2, p2)))
    return int(cand[c]) if c >= 0 else -1


def _swap_conflicts(
    work: ClusterState, m1: int, m2: int, hs: np.ndarray, cs: np.ndarray
) -> np.ndarray:
    """(a, b) mask of swaps that would co-locate replica siblings: a
    sibling of ``hs[a]`` other than ``cs[b]`` sits on *m2*, or a sibling
    of ``cs[b]`` other than ``hs[a]`` sits on *m1*."""
    assign = work.assignment_view()
    shards = work.shards

    def siblings_on(members: np.ndarray, machine: int) -> tuple[np.ndarray, np.ndarray]:
        group = np.array([shards[int(j)].replica_of for j in members], dtype=np.int64)
        count = np.array(
            [np.count_nonzero(assign[work.replica_peers(int(j))] == machine) for j in members],
            dtype=np.int64,
        )
        return group, count

    g1, n1 = siblings_on(hs, m2)
    g2, n2 = siblings_on(cs, m1)
    paired = (g1[:, None] == g2) & (g1[:, None] >= 0)
    return (n1[:, None] > paired) | (n2 > paired)


class RandomRestartRebalancer(Rebalancer):
    """Randomized control: k random greedy reconstructions, keep the best.

    Shards are shuffled and re-placed best-fit (minimizing post-insert
    peak) from scratch; the best of ``restarts`` attempts is proposed.
    Ignores move costs entirely, so it bounds what *any* amount of
    migration could achieve with a naive constructor.
    """

    name = "random-restart"

    def __init__(self, *, restarts: int = 8, seed: int = 0) -> None:
        self.restarts = check_int("restarts", restarts)
        check_positive("restarts", self.restarts)
        self.seed = seed

    def rebalance(
        self, state: ClusterState, ledger: ExchangeLedger | None = None
    ) -> RebalanceResult:
        started = time.perf_counter()  # repro: allow-wall-clock (runtime reporting)
        rng = np.random.default_rng(self.seed)
        best_assign = state.assignment
        best_peak = state.peak_utilization()
        for _ in range(self.restarts):
            assign = self._construct(state, rng)
            if assign is None:
                continue
            trial = state.copy()
            trial.apply_assignment(assign)
            peak = trial.peak_utilization()
            if peak < best_peak:
                best_peak = peak
                best_assign = assign
        return finalize_result(
            self.name,
            state,
            best_assign,
            ledger=ledger,
            planner=StagingPlanner(),
            started_at=started,
            iterations=self.restarts,
        )

    @staticmethod
    def _construct(state: ClusterState, rng: np.random.Generator) -> np.ndarray | None:
        loads = np.zeros_like(state.loads)
        assign = np.empty(state.num_shards, dtype=np.int64)
        blocked = state.blocked_mask
        if blocked.all():
            return None
        for j in rng.permutation(state.num_shards):
            extra = state.demand[j]
            peak_after = ((loads + extra) / state.capacity).max(axis=1)
            peak_after[blocked] = np.inf
            i = int(np.argmin(peak_after))
            if np.any(loads[i] + extra > state.capacity[i] + 1e-12):
                return None  # cannot place within capacity
            assign[j] = i
            loads[i] += extra
        return assign
