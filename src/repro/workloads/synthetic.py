"""Synthetic instance generators.

Two families, matching the synthetic suite of the paper's evaluation:

``uniform``
    Shard demands drawn i.i.d. uniform within a band — the easy case,
    where imbalance comes only from placement randomness.
``zipf``
    Shard demands follow a Zipf-like power law — the realistic case for
    search shards, whose query popularity (hence CPU demand) is heavy
    tailed.  A few hot shards dominate machine load, which is what makes
    rebalancing both necessary and hard.

Both generators expose a ``target_utilization`` knob (the *tightness* of
the instance: total demand / total capacity) and a ``placement_skew`` knob
controlling how imbalanced the *initial* assignment is.  The initial
assignment is the input a rebalancer receives, so generators produce
placements that are feasible (within capacity) by default but uneven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro._validation import check_fraction, check_positive
from repro.cluster import DEFAULT_SCHEMA, ClusterState, Machine, ResourceSchema, Shard

__all__ = [
    "SyntheticConfig",
    "generate",
    "generate_uniform",
    "generate_zipf",
    "make_exchange_machines",
    "waterfill_scale",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic instance.

    Attributes
    ----------
    num_machines, shards_per_machine:
        Fleet shape; ``num_shards = num_machines * shards_per_machine``.
    target_utilization:
        Total demand / total capacity, per dimension (the tightness knob).
    demand_dist:
        ``"uniform"`` or ``"zipf"`` (see module docstring).
    zipf_alpha:
        Power-law exponent for ``"zipf"`` demands (larger = more skew).
    dim_correlation:
        In [0, 1]: 1 makes a shard's dimensions perfectly proportional,
        0 draws each dimension independently.  Search shards are strongly
        but not perfectly correlated (hot shards cost CPU *and* RAM).
    placement_skew:
        In [0, 1): 0 places shards round-robin by load (balanced start),
        values near 1 concentrate shards on few machines (imbalanced
        start).  Implemented as a Dirichlet-weighted random placement.
    feasible_start:
        When True (default), the initial placement is repaired to respect
        capacities (first-fit by headroom); when False the raw skewed
        placement is kept even if machines overflow.
    seed:
        RNG seed; equal configs generate identical instances.
    """

    num_machines: int = 20
    shards_per_machine: int = 8
    target_utilization: float = 0.75
    demand_dist: Literal["uniform", "zipf"] = "zipf"
    zipf_alpha: float = 1.1
    dim_correlation: float = 0.8
    placement_skew: float = 0.5
    feasible_start: bool = True
    schema: ResourceSchema = DEFAULT_SCHEMA
    seed: int = 0
    machine_capacity: float = 100.0
    #: Largest share of one machine's capacity a single shard may demand.
    #: Search shards are sized well below a machine (else they could not be
    #: placed at all); 0.3 keeps even tight instances packable.
    max_shard_fraction: float = 0.3

    def __post_init__(self) -> None:
        check_positive("num_machines", self.num_machines)
        check_positive("shards_per_machine", self.shards_per_machine)
        check_positive("target_utilization", self.target_utilization)
        check_positive("zipf_alpha", self.zipf_alpha)
        check_fraction("dim_correlation", self.dim_correlation)
        check_fraction("placement_skew", self.placement_skew)
        check_positive("machine_capacity", self.machine_capacity)
        check_fraction("max_shard_fraction", self.max_shard_fraction)

    @property
    def num_shards(self) -> int:
        return self.num_machines * self.shards_per_machine


def _raw_magnitudes(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-shard scalar demand magnitudes before scaling, shape (n,)."""
    n = cfg.num_shards
    if cfg.demand_dist == "uniform":
        return rng.uniform(0.5, 1.5, size=n)
    if cfg.demand_dist == "zipf":
        # Zipf over ranks: magnitude of rank k is k^-alpha; shuffle ranks.
        ranks = np.arange(1, n + 1, dtype=np.float64)
        mags = ranks ** (-cfg.zipf_alpha)
        rng.shuffle(mags)
        # Avoid shards so tiny they are numerically irrelevant.
        return np.maximum(mags, mags.max() * 1e-3)
    raise ValueError(f"unknown demand_dist {cfg.demand_dist!r}")


def waterfill_scale(values: np.ndarray, total: float, cap: float, *, iters: int = 50) -> np.ndarray:
    """Scale non-negative *values* so they sum to *total* while no element
    exceeds *cap* — the clipped mass is redistributed over the rest.

    Solves ``f_j = min(s * v_j, cap)`` with ``sum f = total`` by fixed-point
    iteration on ``s``.  Raises when even all-at-cap cannot reach *total*.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("values must be non-negative")
    if total > cap * values.size + 1e-9:
        raise ValueError(
            f"cannot reach total={total} with {values.size} values capped at {cap}"
        )
    if values.sum() <= 0:
        raise ValueError("values must have positive sum")
    s = total / values.sum()
    for _ in range(iters):
        scaled = np.minimum(s * values, cap)
        clipped = scaled >= cap - 1e-12
        residual = total - cap * clipped.sum()
        free_mass = values[~clipped].sum()
        if free_mass <= 0:
            break
        new_s = residual / free_mass
        if abs(new_s - s) <= 1e-12 * max(1.0, s):
            s = new_s
            break
        s = new_s
    return np.minimum(s * values, cap)


def _demands(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """(n, d) demand matrix scaled to the target utilization, with every
    shard capped at ``max_shard_fraction`` of one machine."""
    mags = _raw_magnitudes(cfg, rng)
    d = cfg.schema.dims
    # Mix a shared magnitude with per-dimension noise.
    noise = rng.uniform(0.5, 1.5, size=(cfg.num_shards, d))
    rho = cfg.dim_correlation
    per_dim = mags[:, None] * (rho + (1.0 - rho) * noise)
    total_capacity = cfg.num_machines * cfg.machine_capacity
    cap = cfg.max_shard_fraction * cfg.machine_capacity
    demands = np.empty_like(per_dim)
    for k in range(d):
        demands[:, k] = waterfill_scale(
            per_dim[:, k], cfg.target_utilization * total_capacity, cap
        )
    return demands


def _skewed_placement(
    cfg: SyntheticConfig, demands: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Initial assignment: Dirichlet-weighted random placement.

    ``placement_skew`` -> Dirichlet concentration: low concentration gives
    very uneven machine weights, concentrating load.
    """
    m = cfg.num_machines
    if cfg.placement_skew == 0.0:
        capacity = np.full((m, demands.shape[1]), cfg.machine_capacity)
        return _lpt_placement(demands, capacity)
    concentration = max(1e-3, 10.0 * (1.0 - cfg.placement_skew))
    weights = rng.dirichlet(np.full(m, concentration))
    return rng.choice(m, size=cfg.num_shards, p=weights)


def _peak_after(loads_t: np.ndarray, cap_t: np.ndarray, dem: np.ndarray) -> np.ndarray:
    """Per-machine peak utilization after adding *dem*, shape (m,).

    *loads_t* and *cap_t* are (d, m) column layouts, so each dimension is
    one contiguous pass: the elementwise ``(loads + dem) / capacity`` and
    its max over d, without a strided reduction.
    """
    peak = (loads_t[0] + dem[0]) / cap_t[0]
    for k in range(1, dem.shape[0]):
        np.maximum(peak, (loads_t[k] + dem[k]) / cap_t[k], out=peak)
    return peak


def _lpt_placement(demands: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Longest-processing-time greedy minimizing post-insert peak utilization."""
    n = demands.shape[0]
    cap_t = np.ascontiguousarray(capacity.T)
    loads_t = np.zeros_like(cap_t)
    assign = np.empty(n, dtype=np.int64)
    for j in np.argsort(-demands.sum(axis=1)):
        i = int(np.argmin(_peak_after(loads_t, cap_t, demands[j])))
        assign[j] = i
        loads_t[:, i] += demands[j]
    return assign


def _repair_feasibility(
    assign: np.ndarray, demands: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Drain overloaded machines one move at a time.

    Repeatedly takes the most-overloaded machine and moves its largest
    relocatable shard to the machine where the resulting peak utilization
    is lowest.  Every move strictly reduces the total overload mass (the
    target always stays within capacity), so the loop terminates.  If a
    machine gets stuck with no relocatable shard, falls back to a fully
    balanced LPT placement — preserving feasibility over placement skew.

    Loads and headroom live in a (d, m) column layout next to ``worst``,
    each machine's peak load/capacity ratio when it is overloaded and
    ``-inf`` when it is not.  A move refreshes these for its two machines
    only, with the elementwise arithmetic of a full rescan, so the
    first-index ``argmax`` over ``worst`` and ``argmin`` over the masked
    post-insert peaks pick the same machines as indexing into ascending
    lists of the overloaded and fitting machines.
    """
    assign = assign.copy()
    loads = np.zeros_like(capacity)
    np.add.at(loads, assign, demands)
    cap_t = np.ascontiguousarray(capacity.T)
    loads_t = np.ascontiguousarray(loads.T)
    headroom_t = cap_t - loads_t
    limit_t = cap_t + 1e-9
    worst = np.where(
        np.any(loads_t > limit_t, axis=0), (loads_t / cap_t).max(axis=0), -np.inf
    )
    size = demands.sum(axis=1)

    for _ in range(4 * demands.shape[0]):
        i = int(np.argmax(worst))
        if worst[i] == -np.inf:
            return assign
        members = np.flatnonzero(assign == i)
        moved = False
        for j in members[np.argsort(-size[members])]:
            dem = demands[j]
            # Machine i never fits: it is over capacity by more than 1e-9.
            fit = headroom_t[0] >= dem[0] - 1e-12
            for k in range(1, dem.shape[0]):
                fit &= headroom_t[k] >= dem[k] - 1e-12
            if not fit.any():
                continue
            target = int(np.argmin(np.where(fit, _peak_after(loads_t, cap_t, dem), np.inf)))
            loads_t[:, i] -= dem
            loads_t[:, target] += dem
            for c in (i, target):
                load = loads_t[:, c]
                headroom_t[:, c] = cap_t[:, c] - load
                over = (load > limit_t[:, c]).any()
                worst[c] = (load / cap_t[:, c]).max() if over else -np.inf
            assign[j] = target
            moved = True
            break
        if not moved:
            break
    # Stuck (or out of iterations): balanced fallback.
    assign = _lpt_placement(demands, capacity)
    loads = np.zeros_like(capacity)
    np.add.at(loads, assign, demands)
    if np.any(loads > capacity + 1e-9):
        raise ValueError("instance too tight even for balanced placement")
    return assign


def generate(cfg: SyntheticConfig) -> ClusterState:
    """Generate a synthetic instance according to *cfg*.

    The returned state is fully assigned; when ``cfg.feasible_start`` the
    placement respects machine capacities (instances too tight to repair
    raise ``ValueError`` — lower ``target_utilization``).
    """
    rng = np.random.default_rng(cfg.seed)
    machines = Machine.homogeneous(
        cfg.num_machines, cfg.machine_capacity, schema=cfg.schema, cls="synthetic"
    )
    demands = _demands(cfg, rng)
    shards = [Shard(id=j, demand=demands[j], schema=cfg.schema) for j in range(cfg.num_shards)]
    assign = _skewed_placement(cfg, demands, rng)
    capacity = np.stack([mach.capacity for mach in machines])
    if cfg.feasible_start:
        too_tight = (
            "could not build a capacity-feasible initial placement at "
            f"target_utilization={cfg.target_utilization}; lower it or "
            "set feasible_start=False"
        )
        try:
            assign = _repair_feasibility(assign, demands, capacity)
        except ValueError as exc:
            raise ValueError(too_tight) from exc
        loads = np.zeros_like(capacity)
        np.add.at(loads, assign, demands)
        if np.any(loads > capacity + 1e-9):
            raise ValueError(too_tight)
    return ClusterState(machines, shards, assign)


def generate_uniform(**kwargs) -> ClusterState:
    """Shortcut for :func:`generate` with ``demand_dist='uniform'``."""
    return generate(SyntheticConfig(demand_dist="uniform", **kwargs))


def generate_zipf(**kwargs) -> ClusterState:
    """Shortcut for :func:`generate` with ``demand_dist='zipf'``."""
    return generate(SyntheticConfig(demand_dist="zipf", **kwargs))


def make_exchange_machines(
    state: ClusterState, count: int, *, capacity_scale: float = 1.0
) -> list[Machine]:
    """Build *count* vacant exchange machines sized like the fleet average.

    The average is the mean capacity over every machine of *state*,
    offline ones included.  ``capacity_scale`` lets experiments lend
    bigger or smaller machines than that average.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    mean_cap = state.capacity.mean(axis=0) * capacity_scale
    return [
        Machine(id=k, capacity=mean_cap.copy(), schema=state.schema, cls="exchange", exchange=True)
        for k in range(count)
    ]
