"""Test oracle: a self-contained branch-and-bound solver for the
reassignment IP.

``scipy.optimize.milp`` (HiGHS, :class:`repro.model.MilpSolver`) is the
library's exact backend; this module provides an independent,
pure-Python branch-and-bound over the same
:class:`~repro.model.formulation.BuiltModel` matrices:

* LP relaxations via ``scipy.optimize.linprog`` (HiGHS-LP) give node
  bounds;
* branching is most-fractional-binary, exploring the rounded value
  first (depth-first, so an incumbent appears early);
* every LP solution is also rounded into a candidate assignment and
  repaired to feasibility when possible, tightening the incumbent.

It is an executable specification of the model: tests/test_branch_and_bound.py
cross-checks it against HiGHS on small instances — two independent
solvers agreeing is strong evidence the matrices mean what DESIGN.md
says they mean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro._validation import check_positive
from repro.cluster import ClusterState
from repro.model.formulation import BuiltModel, ModelConfig, build_model
from repro.model.solver import MilpResult

__all__ = ["BranchAndBoundSolver"]


@dataclass
class _Node:
    lower: np.ndarray
    upper: np.ndarray
    depth: int


class BranchAndBoundSolver:
    """Exact solver via LP-based branch and bound (see module docstring).

    Parameters
    ----------
    config:
        Model knobs (same as :class:`~repro.model.solver.MilpSolver`).
    time_limit:
        Wall-clock budget in seconds.
    node_limit:
        Maximum branch-and-bound nodes to expand.
    integrality_tol:
        Values within this of an integer count as integral.
    """

    def __init__(
        self,
        config: ModelConfig | None = None,
        *,
        time_limit: float = 30.0,
        node_limit: int = 20_000,
        integrality_tol: float = 1e-6,
    ) -> None:
        check_positive("time_limit", time_limit)
        check_positive("node_limit", node_limit)
        self.config = config or ModelConfig()
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.tol = integrality_tol

    # ------------------------------------------------------------------ API
    def solve(self, state: ClusterState) -> MilpResult:
        """Solve the reassignment IP for *state* by branch and bound."""
        model = build_model(state, self.config)
        binaries = np.flatnonzero(model.integrality > 0)

        best_obj = np.inf
        best_x: np.ndarray | None = None
        started = time.perf_counter()  # repro: allow-wall-clock (solver time limit)
        nodes_expanded = 0
        proven = True

        stack = [_Node(model.lower.copy(), model.upper.copy(), 0)]
        while stack:
            # repro: allow-wall-clock (real-time solver budget)
            if time.perf_counter() - started > self.time_limit:
                proven = False
                break
            if nodes_expanded >= self.node_limit:
                proven = False
                break
            node = stack.pop()
            nodes_expanded += 1
            res = self._solve_lp(model, node)
            if res is None:  # infeasible subproblem
                continue
            bound, x = res
            if bound >= best_obj - 1e-9:
                continue  # cannot improve the incumbent

            frac_idx = self._most_fractional(x, binaries)
            if frac_idx is None:
                # Integral LP optimum: new incumbent.
                best_obj = bound
                best_x = x
                continue

            # Rounding heuristic: an early incumbent sharpens pruning.
            cand = self._round_candidate(model, x, node)
            if cand is not None:
                cand_obj = float(model.c @ cand)
                if cand_obj < best_obj - 1e-12:
                    best_obj = cand_obj
                    best_x = cand

            frac = x[frac_idx] - np.floor(x[frac_idx])
            first = 1.0 if frac >= 0.5 else 0.0
            for value in (1.0 - first, first):  # LIFO: `first` explored first
                lo = node.lower.copy()
                hi = node.upper.copy()
                lo[frac_idx] = value
                hi[frac_idx] = value
                stack.append(_Node(lo, hi, node.depth + 1))

        if best_x is None:
            return MilpResult(
                status="infeasible" if proven else "failed",
                assignment=None,
                objective=np.inf,
                peak_utilization=np.inf,
                vacant_machines=(),
            )
        assignment = model.extract_assignment(best_x)
        y = best_x[model.num_shards * model.num_machines : model.z_index]
        return MilpResult(
            status="optimal" if proven else "timeout",
            assignment=assignment,
            objective=float(best_obj) + model.objective_offset,
            peak_utilization=float(best_x[model.z_index]),
            vacant_machines=tuple(int(i) for i in np.flatnonzero(y > 0.5)),
        )

    # ------------------------------------------------------------- internal
    def _solve_lp(self, model: BuiltModel, node: _Node):
        res = optimize.linprog(
            c=model.c,
            A_ub=model.A_ub,
            b_ub=model.b_ub,
            A_eq=model.A_eq,
            b_eq=model.b_eq,
            bounds=np.stack([node.lower, node.upper], axis=1),
            method="highs",
        )
        if not res.success:
            return None
        return float(res.fun), np.asarray(res.x)

    def _most_fractional(self, x: np.ndarray, binaries: np.ndarray):
        vals = x[binaries]
        frac = np.abs(vals - np.round(vals))
        idx = int(np.argmax(frac))
        if frac[idx] <= self.tol:
            return None
        return int(binaries[idx])

    def _round_candidate(
        self, model: BuiltModel, x: np.ndarray, node: _Node
    ) -> np.ndarray | None:
        """Round the LP point to a full solution; None when infeasible.

        Each shard goes to its largest-x machine allowed by the node's
        bounds; y and z are derived; the result is checked against the
        model's constraints directly.
        """
        n, m = model.num_shards, model.num_machines
        xs = x[: n * m].reshape(n, m).copy()
        # Respect node fixings.
        lo = node.lower[: n * m].reshape(n, m)
        hi = node.upper[: n * m].reshape(n, m)
        xs = np.clip(xs, lo, hi)
        xs[hi <= 0] = -np.inf  # forbidden placements
        choice = np.argmax(xs, axis=1)

        cand = np.zeros(model.num_variables)
        cand[np.arange(n) * m + choice] = 1.0
        counts = np.bincount(choice, minlength=m)
        y = (counts == 0).astype(float)
        # y must also respect node bounds.
        y = np.clip(y, node.lower[n * m : n * m + m], node.upper[n * m : n * m + m])
        cand[n * m : n * m + m] = y

        # Derive z as the smallest feasible value, then verify constraints.
        cand[model.z_index] = 0.0
        lhs = model.A_ub @ cand
        # Rows with a z coefficient: lhs + coef*z <= b  ->  z >= (lhs-b)/(-coef)
        z_col = model.A_ub[:, model.z_index].toarray().ravel()
        need = z_col < 0
        z_req = 0.0
        if np.any(need):
            z_req = float(
                np.max((lhs[need] - model.b_ub[need]) / (-z_col[need]), initial=0.0)
            )
        if z_req > 1.0 + 1e-9:
            return None  # violates hard capacity somewhere
        cand[model.z_index] = min(max(z_req, 0.0), 1.0)

        lhs = model.A_ub @ cand
        if np.any(lhs > model.b_ub + 1e-7):
            return None
        eq = model.A_eq @ cand
        if np.any(np.abs(eq - model.b_eq) > 1e-7):
            return None
        return cand
