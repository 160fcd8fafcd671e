"""Generic adaptive large neighborhood search (ALNS) engine.

Ropke & Pisinger-style ALNS: at each iteration a (destroy, repair) pair
is drawn by roulette wheel over adaptive weights, applied to the
incumbent inside a ``ClusterState`` transaction, and the candidate is
accepted (commit) or rejected (bitwise rollback) by a simulated-annealing
criterion.  Operator weights are refreshed every ``_SEGMENT_LENGTH``
iterations from the scores the operators earned (new global best >
improvement > accepted).  The copy-based loop this replaced is kept as
a test oracle (``tests/oracles/copy_engine.py``); the parity tests pin
the two to one trajectory per seed.

The engine is algorithm-agnostic: SRA supplies the operators, objective
and the *best filter* (the hook that enforces migration schedulability
and the exchange contract before a candidate may become the incumbent
best — the feasibility coupling of DESIGN.md §1.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro._validation import check_fraction, check_int, check_positive
from repro.cluster import ClusterState
from repro.algorithms.destroy import DestroyOperator
from repro.algorithms.repair import RepairOperator

__all__ = ["AlnsConfig", "AlnsOutcome", "AlnsEngine"]

#: Bounds of the per-iteration removal quantity, as a fraction of the
#: shard count (the quantity is drawn uniformly in between, >= 1).
_REMOVAL_FRACTION_MIN = 0.05
_REMOVAL_FRACTION_MAX = 0.25
#: Absolute cap on the removal quantity.  On large instances a 25%
#: removal is a near-rebuild: slow and unlikely to be accepted; the cap
#: keeps per-iteration cost bounded so big clusters get many iterations
#: instead of few huge ones.
_REMOVAL_CAP = 100
#: Geometric cooling factor of the SA temperature per iteration.
_COOLING = 0.996
#: Iterations per adaptive-weight segment.
_SEGMENT_LENGTH = 100
#: Operator scores for finding a new global best / improving the current
#: / being accepted.
_SCORE_BEST = 12.0
_SCORE_IMPROVE = 4.0
_SCORE_ACCEPT = 1.0


@dataclass(frozen=True)
class AlnsConfig:
    """ALNS hyper-parameters.

    Attributes
    ----------
    iterations:
        Destroy/repair rounds.
    start_temperature_ratio:
        SA start temperature as a fraction of the initial objective — a
        candidate this much worse is accepted with probability ``e⁻¹``.
    reaction:
        Weight update smoothing in [0, 1] (1 = replace, 0 = frozen).
    seed:
        RNG seed.
    """

    iterations: int = 2500
    start_temperature_ratio: float = 0.01
    reaction: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("iterations", check_int("iterations", self.iterations))
        check_positive("start_temperature_ratio", self.start_temperature_ratio)
        check_fraction("reaction", self.reaction)


@dataclass
class AlnsOutcome:
    """What a search run produced.

    ``best_assignment`` is None when no candidate ever passed the best
    filter (e.g. the vacancy contract was unsatisfiable).
    """

    best_assignment: np.ndarray | None
    best_objective: float
    iterations: int
    history: list[float]
    operator_weights: dict[str, float]
    accepted: int
    rejected_by_filter: int


class AlnsEngine:
    """Reusable ALNS driver (see module docstring)."""

    def __init__(
        self,
        config: AlnsConfig,
        destroy_ops: Sequence[DestroyOperator],
        repair_ops: Sequence[RepairOperator],
    ) -> None:
        if not destroy_ops or not repair_ops:
            raise ValueError("need at least one destroy and one repair operator")
        self.config = config
        self.destroy_ops = list(destroy_ops)
        self.repair_ops = list(repair_ops)

    def run(
        self,
        state: ClusterState,
        objective: Callable[[ClusterState], float],
        *,
        best_filter: Callable[[ClusterState], bool] | None = None,
        initial_is_valid_best: bool = True,
    ) -> AlnsOutcome:
        """Search from *state* (not mutated).

        Parameters
        ----------
        objective:
            Callable scoring a state (lower better).  Penalty terms may
            make transiently infeasible states comparable.
        best_filter:
            Called when a candidate would become the new global best;
            returning False vetoes it (it may still be accepted as the
            *current* state, preserving search mobility).
        initial_is_valid_best:
            Whether the starting assignment is an acceptable answer
            (False when e.g. the vacancy contract is not yet satisfied).
        """
        cfg = self.config
        tracer = obs.current().tracer
        metrics = obs.current().metrics
        trace_on = tracer.enabled
        rng = np.random.default_rng(cfg.seed)
        current = state.copy()
        cur_obj = float(objective(current))

        best_assignment: np.ndarray | None = None
        best_obj = math.inf
        if initial_is_valid_best and (best_filter is None or best_filter(current)):
            best_assignment = current.assignment
            best_obj = cur_obj

        n = state.num_shards
        q_min = max(1, min(int(_REMOVAL_FRACTION_MIN * n), _REMOVAL_CAP))
        q_max = max(q_min, min(int(_REMOVAL_FRACTION_MAX * n), _REMOVAL_CAP))

        d_weights = np.ones(len(self.destroy_ops))
        r_weights = np.ones(len(self.repair_ops))
        d_scores = np.zeros_like(d_weights)
        r_scores = np.zeros_like(r_weights)
        d_uses = np.zeros_like(d_weights)
        r_uses = np.zeros_like(r_weights)

        temperature = max(cur_obj, 1e-6) * cfg.start_temperature_ratio
        history: list[float] = [cur_obj]
        accepted = 0
        vetoed = 0
        it = 0

        # RNG consumption is identical with tracing on or off (the
        # trajectory bitwise-identity contract of docs/ARCHITECTURE.md).
        # The finally records the counters reached even when an operator,
        # the objective or the best filter raises.
        with tracer.span(
            "alns.run",
            iterations=cfg.iterations,
            seed=cfg.seed,
            initial_objective=cur_obj,
        ) as run_span:
            try:
                for it in range(1, cfg.iterations + 1):
                    di = _roulette(rng, d_weights)
                    ri = _roulette(rng, r_weights)
                    d_uses[di] += 1
                    r_uses[ri] += 1

                    q = int(rng.integers(q_min, q_max + 1))
                    # Mutate the incumbent in a transaction, not a throwaway
                    # copy: commit() keeps an accepted candidate, and any
                    # other exit — a rejection, or an exception from an
                    # operator, the objective or the best filter — rolls
                    # it back bitwise.
                    with current.transaction():
                        removed = self.destroy_ops[di](current, rng, q)
                        self.repair_ops[ri](current, rng, removed)
                        cand_obj = float(objective(current))

                        score = 0.0
                        new_best = False
                        was_vetoed = False
                        if cand_obj < best_obj - 1e-12:
                            if best_filter is None or best_filter(current):
                                best_assignment = current.assignment
                                best_obj = cand_obj
                                score = _SCORE_BEST
                                new_best = True
                            else:
                                vetoed += 1
                                was_vetoed = True
                        if score == 0.0 and cand_obj < cur_obj - 1e-12:
                            score = _SCORE_IMPROVE

                        accept = cand_obj <= cur_obj or rng.random() < math.exp(
                            -(cand_obj - cur_obj) / max(temperature, 1e-12)
                        )
                        if accept:
                            current.commit()
                            cur_obj = cand_obj
                            accepted += 1
                            if score == 0.0:
                                score = _SCORE_ACCEPT
                    d_scores[di] += score
                    r_scores[ri] += score

                    if trace_on:
                        tracer.event(
                            "alns.iter",
                            it=it,
                            destroy=self.destroy_ops[di].__name__,
                            repair=self.repair_ops[ri].__name__,
                            q=q,
                            objective=cand_obj,
                            current=cur_obj,
                            accepted=accept,
                            new_best=new_best,
                            vetoed=was_vetoed,
                        )

                    temperature *= _COOLING
                    history.append(cur_obj)

                    if it % _SEGMENT_LENGTH == 0:
                        d_weights = _update_weights(d_weights, d_scores, d_uses, cfg.reaction)
                        r_weights = _update_weights(r_weights, r_scores, r_uses, cfg.reaction)
                        d_scores[:] = 0
                        r_scores[:] = 0
                        d_uses[:] = 0
                        r_uses[:] = 0
                        if trace_on:
                            tracer.event(
                                "alns.weights",
                                it=it,
                                destroy={
                                    op.__name__: float(w)
                                    for op, w in zip(self.destroy_ops, d_weights, strict=True)
                                },
                                repair={
                                    op.__name__: float(w)
                                    for op, w in zip(self.repair_ops, r_weights, strict=True)
                                },
                            )
            finally:
                run_span.set("iterations_run", it)
                run_span.set("accepted", accepted)
                run_span.set("rejected_by_filter", vetoed)
                if math.isfinite(best_obj):
                    run_span.set("best_objective", best_obj)

        metrics.counter("alns.iterations").inc(it)
        metrics.counter("alns.accepted").inc(accepted)
        metrics.counter("alns.rejected_by_filter").inc(vetoed)
        if math.isfinite(best_obj):
            metrics.gauge("alns.best_objective").set(best_obj)

        weights = {
            f"destroy:{op.__name__}": float(w)
            for op, w in zip(self.destroy_ops, d_weights, strict=True)
        }
        weights.update(
            {
                f"repair:{op.__name__}": float(w)
                for op, w in zip(self.repair_ops, r_weights, strict=True)
            }
        )
        return AlnsOutcome(
            best_assignment=best_assignment,
            best_objective=best_obj,
            iterations=it,
            history=history,
            operator_weights=weights,
            accepted=accepted,
            rejected_by_filter=vetoed,
        )


def _roulette(rng: np.random.Generator, weights: np.ndarray) -> int:
    # Draw one uniform and walk the cumulative mass in Python — the
    # portfolios have a handful of operators, so this beats the generic
    # ``rng.choice(p=...)`` machinery by an order of magnitude while
    # staying deterministic per seed (one ``random()`` call per draw).
    r = rng.random() * weights.sum()
    acc = 0.0
    for i, w in enumerate(weights.tolist()):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def _update_weights(
    weights: np.ndarray, scores: np.ndarray, uses: np.ndarray, reaction: float
) -> np.ndarray:
    observed = np.divide(scores, np.maximum(uses, 1.0))
    new = (1.0 - reaction) * weights + reaction * observed
    floored: np.ndarray = np.maximum(new, 0.05)  # keep every operator alive
    return floored
