"""Test oracle: the copy-based ALNS loop.

:class:`repro.algorithms.AlnsEngine` mutates its incumbent inside a
``ClusterState`` transaction and rolls rejected candidates back.  This
loop is the reference it must match: every iteration destroys and
repairs a fresh copy of the incumbent and keeps or drops the copy.  The
roulette, the removal-quantity draw, the acceptance test and the weight
update run in the engine's order, so one seed gives one trajectory.
There is no best filter, tracing or exchange channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.lns import (
    _COOLING,
    _REMOVAL_CAP,
    _REMOVAL_FRACTION_MAX,
    _REMOVAL_FRACTION_MIN,
    _SCORE_ACCEPT,
    _SCORE_BEST,
    _SCORE_IMPROVE,
    _SEGMENT_LENGTH,
    AlnsConfig,
    _roulette,
    _update_weights,
)


@dataclass
class CopyOutcome:
    """The trajectory fields the parity tests compare."""

    best_assignment: np.ndarray
    best_objective: float
    accepted: int
    history: list[float]


def run_copy_engine(config: AlnsConfig, destroy_ops, repair_ops, state, objective) -> CopyOutcome:
    """Search from *state* (not mutated) with the copy-based loop."""
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    current = state.copy()
    cur_obj = float(objective(current))
    best_assignment, best_obj = current.assignment, cur_obj
    n = state.num_shards
    q_min = max(1, min(int(_REMOVAL_FRACTION_MIN * n), _REMOVAL_CAP))
    q_max = max(q_min, min(int(_REMOVAL_FRACTION_MAX * n), _REMOVAL_CAP))
    d_weights, r_weights = np.ones(len(destroy_ops)), np.ones(len(repair_ops))
    d_scores, r_scores = np.zeros_like(d_weights), np.zeros_like(r_weights)
    d_uses, r_uses = np.zeros_like(d_weights), np.zeros_like(r_weights)
    temperature = max(cur_obj, 1e-6) * cfg.start_temperature_ratio
    history = [cur_obj]
    accepted = 0
    for it in range(1, cfg.iterations + 1):
        di = _roulette(rng, d_weights)
        ri = _roulette(rng, r_weights)
        d_uses[di] += 1
        r_uses[ri] += 1
        q = int(rng.integers(q_min, q_max + 1))
        candidate = current.copy()
        removed = destroy_ops[di](candidate, rng, q)
        repair_ops[ri](candidate, rng, removed)
        cand_obj = float(objective(candidate))

        score = 0.0
        if cand_obj < best_obj - 1e-12:
            best_assignment, best_obj, score = candidate.assignment, cand_obj, _SCORE_BEST
        if score == 0.0 and cand_obj < cur_obj - 1e-12:
            score = _SCORE_IMPROVE
        if cand_obj <= cur_obj or rng.random() < math.exp(
            -(cand_obj - cur_obj) / max(temperature, 1e-12)
        ):
            current, cur_obj = candidate, cand_obj
            accepted += 1
            if score == 0.0:
                score = _SCORE_ACCEPT
        d_scores[di] += score
        r_scores[ri] += score

        temperature *= _COOLING
        history.append(cur_obj)
        if it % _SEGMENT_LENGTH == 0:
            d_weights = _update_weights(d_weights, d_scores, d_uses, cfg.reaction)
            r_weights = _update_weights(r_weights, r_scores, r_uses, cfg.reaction)
            for arr in (d_scores, r_scores, d_uses, r_uses):
                arr[:] = 0
    return CopyOutcome(best_assignment, best_obj, accepted, history)
