"""Repair operators for the LNS.

A repair operator reinserts the shards a destroy operator removed.  Both
operators share the placement scoring: inserting shard *j* on machine *i*
is scored by the machine's peak utilization after insertion, with a large
penalty when the insertion overflows capacity (so overflow is used only
when nothing fits, and the objective's overload penalty then drives the
search away from it).  Blocked machines (SRA's designated-return
machines) score ``inf`` and are never chosen, as are machines hosting a
replica sibling of the shard being scored.

* :func:`greedy_best_fit` — insert largest-demand first, each on its
  best-scoring machine.
* :func:`regret2_insertion` — classic regret-2: repeatedly insert the
  shard whose best option beats its second-best by the most (the shard
  that will suffer most if postponed).

Implementation notes (this is the hottest code in the library — see the
"Delta evaluation contract" section of docs/ARCHITECTURE.md):

* The score kernel works in *scaled utilization space* on the state's
  (d, m) structure-of-arrays mirrors (:meth:`ClusterState.loads_by_dim`
  and friends): it keeps ``util[k] = loads_t[k] * inv_cap[k]`` per
  dimension and scores an insertion as ``demand * inv_cap + util``, so
  the inner loop is a handful of contiguous row-wise fused ops with no
  divisions.  Overflow is detected in the same scaled space against
  pre-scaled thresholds; when thresholds are uniform across dimensions
  (homogeneous machines — the common fleet case) a one-comparison fast
  path detects overflow from the final max-score directly.
* Greedy needs no score matrix at all: it walks shards largest-first
  and scores one row on demand against the current utilization.  That
  is bitwise what the maintained-matrix variant computed, because every
  touched machine's column would have been refreshed from the same
  utilization rows before the row was read.
* Regret-2 keeps a (removed × machines) score matrix *current*: an
  insertion changes exactly one machine, so exactly one column is
  refreshed per step.  Build-time and column-refresh arithmetic use the
  *same* elementwise expressions, so the maintained matrix is bitwise
  what a from-scratch rebuild would produce.  Because insertions only
  ever add load, refreshed columns are monotone non-decreasing over a
  repair batch (``inf`` strike marks are re-applied from an explicit
  per-machine ledger).  The refresh works on a (d, q) copy of the batch
  demand and reduces over its rows, so a column is q contiguous
  elements per dimension.
* Regret-2 refreshes live rows only: once half the rows it holds are
  inserted it drops them (:meth:`_ScoreKernel.keep_rows`), keeping the
  rest in order so every first-index tie-break is unchanged.
* Regret-2 re-ranks the pending shards after every insertion from dense
  per-row top-``_TOP_T`` candidate lists, re-listing a row from the
  full matrix only when its list can no longer prove it holds the row's
  two smallest scores.  Column monotonicity makes the lists sound, so
  the placements are **bitwise** those of a full re-partition of every
  active row (the oracle ``tests/oracles/regret2.py``), at every
  machine count.
* Greedy and regret-2 match the copy-based reference engine
  (``tests/oracles/copy_engine.py``) bitwise, pinned by the fixed-seed
  engine tests and the parity properties in tests/test_kernel_parity.py.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.cluster import ClusterState

__all__ = [
    "RepairOperator",
    "greedy_best_fit",
    "regret2_insertion",
    "DEFAULT_REPAIR_OPS",
]

#: Score penalty for a placement that overflows capacity.
_OVERFLOW_PENALTY = 1e3

#: Per-row candidate-list width of regret-2.  Two would suffice for
#: correctness; the slack keeps lists valid across many insertions
#: before a row needs re-listing (well-balanced fleets have densely
#: packed scores, so narrow lists thrash).
_TOP_T = 32


class RepairOperator(Protocol):
    """Signature of a repair operator."""

    __name__: str

    def __call__(
        self,
        state: ClusterState,
        rng: np.random.Generator,
        removed: Sequence[int],
    ) -> None: ...


class _ScoreKernel:
    """Shared scoring machinery for one repair batch.

    Holds the removed shards and their demands, per-dimension scaled
    utilization rows (``util[k] = loads_t[k] * inv_cap[k]``, synced with
    the state by :meth:`refresh_machine`), pre-scaled overflow
    thresholds, and — when ``build`` — the score matrix.
    ``scores[r, i]`` is the peak utilization of machine ``i`` after
    inserting removed shard ``r`` there (+ overflow penalty, inf when
    blocked or replica-anti-affine).  ``build=False`` skips the matrix
    and its scratch buffers for callers that score rows on demand.
    """

    def __init__(
        self, state: ClusterState, removed: Sequence[int] | np.ndarray, *, build: bool = True
    ) -> None:
        self.state = state
        self.shards = np.asarray(removed, dtype=np.int64)
        self.demand = state.demand[self.shards]  # (q, d)
        q, d = self.demand.shape
        m = state.num_machines
        self.q = q
        self.m = m
        self.d = d
        self.inv_cap = state.inv_capacity_by_dim()  # (d, m), shared
        cap_t = state.capacity_by_dim()
        # Overflow thresholds in scaled space: load + demand > cap + tol
        # becomes (load + demand)·inv > (cap + tol)·inv since inv > 0.
        self.thr = (cap_t + 1e-12) * self.inv_cap  # (d, m)
        # Homogeneous machines give one threshold per machine across all
        # dimensions; then overflow(r, i) == max-score(r, i) > thr_row[i]
        # (float max is exact), a one-pass detection.
        self.thr_row = np.ascontiguousarray(self.thr[0])  # (m,)
        self.thr_uniform = bool((self.thr == self.thr_row).all())
        self._loads_t = state.loads_by_dim()  # live (d, m) mirror
        self.util = self._loads_t * self.inv_cap  # (d, m), private
        # Largest per-dimension demand in the batch: a monotone bound
        # proving "no removed shard overflows machine i in dimension k"
        # with one comparison per machine instead of one per (shard,
        # machine) pair.
        self.demand_max = self.demand.max(axis=0)  # (d,)
        self.dmax_inv = self.demand_max[:, None] * self.inv_cap  # (d, m)
        self.blocked_idx = np.flatnonzero(state.blocked_mask)
        self.group_rows: dict[int, list[int]] = {}
        if state.replica_groups:
            for row, j in enumerate(self.shards.tolist()):
                g = state.shards[j].replica_of
                if g >= 0:
                    self.group_rows.setdefault(g, []).append(row)
        if build:
            #: Per-machine ledger of rows whose entry is pinned at inf
            #: (replica anti-affinity at build time, strikes afterwards);
            #: :meth:`refresh_column` re-applies it after recomputing.
            self._struck: dict[int, list[int]] = {}
            self.scores = self._build_matrix()
            self._column_layout()
        else:
            self._rwork = np.empty((d, m))  # row_scores scratch
            self._rbuf = np.empty(m)

    def _build_matrix(self) -> np.ndarray:
        state = self.state
        q, m, d = self.q, self.m, self.d
        scores = np.empty((q, m))
        work = np.empty((q, m))
        if self.thr_uniform:
            np.multiply(self.demand[:, 0, None], self.inv_cap[0], out=scores)
            scores += self.util[0]
            for k in range(1, d):
                np.multiply(self.demand[:, k, None], self.inv_cap[k], out=work)
                work += self.util[k]
                np.maximum(scores, work, out=scores)
            over = scores > self.thr_row
            np.add(scores, _OVERFLOW_PENALTY, out=scores, where=over)
        else:
            overflow = np.zeros((q, m), dtype=bool)
            over_k = np.empty((q, m), dtype=bool)
            for k in range(d):
                np.multiply(self.demand[:, k, None], self.inv_cap[k], out=work)
                np.add(work, self.util[k], out=work)
                # fl() is monotone, so work[r, i] <= fl(util[k, i] +
                # demand_max[k]·inv_cap[k, i]) for every row r: when that
                # bound clears the threshold everywhere, nothing overflows.
                if np.any(self.util[k] + self.dmax_inv[k] > self.thr[k]):
                    np.greater(work, self.thr[k], out=over_k)
                    np.logical_or(overflow, over_k, out=overflow)
                if k == 0:
                    np.copyto(scores, work)
                else:
                    np.maximum(scores, work, out=scores)
            np.add(scores, _OVERFLOW_PENALTY, out=scores, where=overflow)
        if self.blocked_idx.size:
            scores[:, self.blocked_idx] = np.inf
        if self.group_rows:
            for row in range(q):
                hosts = state.replica_peer_machines(int(self.shards[row]))
                if hosts.size:
                    scores[row, hosts] = np.inf
                    for i in hosts.tolist():
                        self._struck.setdefault(i, []).append(row)
        return scores

    def _column_layout(self) -> None:
        """(d, q) demand copy and scratch for :meth:`column_scores`, so a
        column reduces over contiguous rows of length q."""
        self._demand_t = np.ascontiguousarray(self.demand.T)
        self._cwork = np.empty((self.d, self.q))
        self._cbuf = np.empty(self.q)

    def keep_rows(self, live: np.ndarray) -> None:
        """Drop the rows where the (q,) mask *live* is False.

        The kept rows keep their order, so first-index ``argmin`` /
        ``argmax`` tie-breaks over them are unchanged.  The score matrix,
        the demand copies, the shard ids, the strike ledger and
        ``group_rows`` are renumbered.
        """
        renumber = (np.cumsum(live) - 1).tolist()
        alive = live.tolist()
        self.shards = self.shards[live]
        self.demand = self.demand[live]
        self.scores = self.scores[live]
        self.q = self.shards.size
        self._column_layout()
        self._struck = {
            i: kept
            for i, rows in self._struck.items()
            if (kept := [renumber[r] for r in rows if alive[r]])
        }
        self.group_rows = {
            g: kept
            for g, rows in self.group_rows.items()
            if (kept := [renumber[r] for r in rows if alive[r]])
        }

    def refresh_machine(self, machine: int) -> None:
        """Sync the scaled-utilization column after an insertion (same
        elementwise expression as the build, so the sync is bitwise)."""
        self.util[:, machine] = self._loads_t[:, machine] * self.inv_cap[:, machine]

    def column_scores(self, machine: int) -> np.ndarray:
        """(q,) current scores of every removed shard on *machine* (no
        inf marks — callers overlay blocked/struck state).  Returns a
        reused scratch buffer; copy before the next kernel call."""
        util_m = self.util[:, machine, None]  # (d, 1)
        inv_m = self.inv_cap[:, machine, None]
        work = self._cwork  # (d, q), matches build bitwise
        np.multiply(self._demand_t, inv_m, out=work)
        work += util_m
        col: np.ndarray = np.maximum.reduce(work, axis=0, out=self._cbuf)
        if self.thr_uniform:
            over = col > self.thr_row[machine]
            np.add(col, _OVERFLOW_PENALTY, out=col, where=over)
        else:
            thr_m = self.thr[:, machine, None]
            if np.any(util_m + self.dmax_inv[:, machine, None] > thr_m):
                over = (work > thr_m).any(axis=0)
                np.add(col, _OVERFLOW_PENALTY, out=col, where=over)
        return col

    def refresh_column(self, machine: int) -> None:
        """Recompute the score matrix column of *machine*, re-applying
        its inf strike marks.  (Blocked columns are never refreshed:
        placements never choose a blocked machine.)"""
        col = self.column_scores(machine)
        struck = self._struck.get(machine)
        if struck is not None:
            col[struck] = np.inf
        self.scores[:, machine] = col

    def strike(self, row: int, machine: int) -> None:
        """Pin ``scores[row, machine]`` at inf for the rest of the batch
        (a replica sibling of *row* now lives on *machine*)."""
        self.scores[row, machine] = np.inf
        self._struck.setdefault(machine, []).append(row)

    def row_scores(self, row: int) -> np.ndarray:
        """(m,) current scores of removed shard *row* on every machine,
        with blocked / replica-peer machines at inf — bitwise the row the
        maintained matrix would hold.  Returns a reused scratch buffer."""
        work = self._rwork  # (d, m)
        np.multiply(self.demand[row, :, None], self.inv_cap, out=work)
        work += self.util
        out: np.ndarray = work.max(axis=0, out=self._rbuf)
        if self.thr_uniform:
            over = out > self.thr_row
        else:
            over = (work > self.thr).any(axis=0)
        np.add(out, _OVERFLOW_PENALTY, out=out, where=over)
        if self.blocked_idx.size:
            out[self.blocked_idx] = np.inf
        if self.group_rows:
            hosts = self.state.replica_peer_machines(int(self.shards[row]))
            if hosts.size:
                out[hosts] = np.inf
        return out

    def fallback_machine(self, row: int) -> int:
        """Least-loaded open machine — used when every machine is blocked
        or anti-affine (replication factor near the machine count); the
        objective's replica penalty then drives repair next round."""
        state = self.state
        peak = ((state.loads + self.demand[row]) / state.capacity).max(axis=1)
        peak[state.blocked_mask] = np.inf
        return int(np.argmin(peak))

    def best_machine(self, row: int) -> int:
        """First-index argmin over the row's current scores."""
        row_scores = self.scores[row]
        choice = int(row_scores.argmin())
        if np.isfinite(row_scores[choice]):
            return choice
        return self.fallback_machine(row)

    def insert(self, row: int, machine: int) -> int:
        """Assign row's shard to *machine* and refresh caches.  Returns
        the shard's replica group (-1 when unreplicated) so callers can
        strike siblings."""
        shard_id = int(self.shards[row])
        self.state.assign_shard(shard_id, machine)
        self.refresh_machine(machine)
        if self.group_rows:
            return self.state.shards[shard_id].replica_of
        return -1


def greedy_best_fit(
    state: ClusterState, rng: np.random.Generator, removed: Sequence[int]
) -> None:
    """Insert removed shards, largest demand first, on best-scoring machines.

    Scores one row on demand per shard — no (removed × machines) matrix.
    Placements match the matrix formulation bitwise: the utilization rows
    are synced after every insertion, and ``replica_peer_machines`` at
    read time equals the build-time inf marks plus the strikes a
    maintained matrix would have accumulated.
    """
    if not removed:
        return
    shards = np.asarray(removed, dtype=np.int64)
    order = shards[np.argsort(-state.demand[shards].sum(axis=1), kind="stable")]
    kern = _ScoreKernel(state, order, build=False)
    for row in range(kern.q):
        row_scores = kern.row_scores(row)
        choice = int(row_scores.argmin())
        if row_scores[choice] != np.inf:
            machine = choice
        else:
            machine = kern.fallback_machine(row)
        kern.insert(row, machine)


def regret2_insertion(
    state: ClusterState, rng: np.random.Generator, removed: Sequence[int]
) -> None:
    """Regret-2 insertion: place the shard with the largest regret first.

    Each row keeps a dense top-``T`` candidate list (``top_idx``,
    ``top_val``, ``T = min(_TOP_T, m)``) and its rescan-time threshold
    ``tau``.  Soundness: every column is monotone non-decreasing over
    the batch (insertions only add load; ``inf`` marks stick), so a
    machine outside a row's list, which scored at least ``tau``, never
    drops below ``tau``.  List values are kept exactly current, so while
    a row's second-smallest listed value is ``<= tau`` its two listed
    minima are the row's two minima and its regret is exact.  Active
    rows that lose that proof are re-listed from the full score row.

    Each step refreshes the one changed column into every list that
    holds it, takes the two smallest values of all lists with one
    partition, and recomputes the selection key (regret + demand
    tie-break) of the active rows; inserted rows sit at ``-inf`` until
    half the rows held are inserted, when they are dropped.  A
    first-index ``argmax`` then picks the row that the full
    re-partition of every active row would pick, so placements are
    bitwise those of the exact reference (``tests/oracles/regret2.py``).
    """
    if not removed:
        return
    kern = _ScoreKernel(state, list(removed))
    scores = kern.scores
    tie = 1e-9 * kern.demand.sum(axis=1)
    q, m = kern.q, kern.m
    T = min(_TOP_T, m)
    top_idx = np.ascontiguousarray(np.argpartition(scores, T - 1, axis=1)[:, :T])
    top_val = np.take_along_axis(scores, top_idx, axis=1)
    # tau = inf marks a row that is never re-listed: its list spans the
    # whole row (always exact), or the row is inserted (never read again).
    tau = top_val.max(axis=1) if T < m else np.full(q, np.inf)
    active = np.ones(q, dtype=bool)
    key = np.full(q, np.inf)  # m == 1: every regret is inf
    hit = np.empty((q, T), dtype=bool)
    pair = np.empty((q, T))
    for remaining in range(q, 0, -1):
        if m > 1:
            np.copyto(pair, top_val)
            pair.partition(1, axis=1)
            bad = (pair[:, 1] > tau).nonzero()[0]
            if bad.size:
                sub = scores[bad]
                idx = np.argpartition(sub, T - 1, axis=1)[:, :T]
                val = np.take_along_axis(sub, idx, axis=1)
                top_idx[bad] = idx
                top_val[bad] = val
                tau[bad] = val.max(axis=1)
                pair[bad] = np.partition(val, 1, axis=1)
            np.subtract(pair[:, 1], pair[:, 0], out=key, where=active)
            np.add(key, tie, out=key, where=active)
        row = int(key.argmax())
        machine = kern.best_machine(row)
        group = kern.insert(row, machine)
        active[row] = False
        key[row] = -np.inf
        tau[row] = np.inf
        if remaining == 1:
            break
        if 2 * (remaining - 1) <= kern.q:
            # Half the rows held are inserted: drop them (order kept).
            kern.keep_rows(active)
            scores = kern.scores
            top_idx, top_val = top_idx[active], top_val[active]
            tau, key, tie = tau[active], key[active], tie[active]
            hit, pair = hit[active], pair[active]
            active = active[active]
        kern.refresh_column(machine)
        if group >= 0:
            for sibling in kern.group_rows.get(group, ()):
                if active[sibling]:
                    kern.strike(sibling, machine)
        np.equal(top_idx, machine, out=hit)
        np.copyto(top_val, scores[:, machine, None], where=hit)


#: Default operator portfolio of SRA.
DEFAULT_REPAIR_OPS: tuple[RepairOperator, ...] = (greedy_best_fit, regret2_insertion)
