"""repro.analysis — AST invariant linter.

Zero-dependency static analysis for the invariants this reproduction's
credibility rests on (docs/ARCHITECTURE.md, "Static analysis &
invariants"):

* a rule engine (:class:`Rule`, :func:`register`, :func:`lint_paths`)
  walking stdlib ASTs in one pass: every rule may check one module at a
  time and the whole project at once, and a line-scoped
  ``# repro: allow-<rule>`` comment is the only way to silence a
  finding;
* the project substrate the cross-module checks run on — symbol table
  and call graph (:mod:`repro.analysis.callgraph`);
* the rule pack REP001–REP005 (:mod:`repro.analysis.rules`), one rule
  per invariant: seeded RNG construction (through helper calls too),
  wall-clock discipline, ClusterState mutation discipline (through
  mirror aliases too, and transactions only through
  ``with state.transaction()``), span context-manager usage, unordered
  float folds.

Entry points: ``repro lint`` and ``python -m repro.analysis``.
"""

from repro.analysis import rules  # noqa: F401  (registers the rule pack)
from repro.analysis.callgraph import CallGraph, Project
from repro.analysis.cli import main
from repro.analysis.context import ModuleContext
from repro.analysis.engine import (
    Rule,
    all_rules,
    get_rule,
    lint_paths,
    lint_project,
    register,
)
from repro.analysis.findings import Finding

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "Project",
    "CallGraph",
    "register",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_project",
    "main",
]
