"""``repro lint`` / ``python -m repro.analysis`` — the lint front end.

Runs the registered rule pack REP001–REP005 over the target paths
(default: ``src/repro``) in one pass and prints every finding; any
finding makes the exit code 1.  A line-scoped
``# repro: allow-<slug>`` comment is the only way to silence one.

``--rules`` restricts the pack; ``--format json`` emits a
machine-readable report (``{"findings": [...]}``).  ``--callgraph
{dot,json}`` prints the resolved call graph instead of linting, and
``--explain REPnnn`` prints one rule's contract, rationale and
suppression example straight from its docstring.  A target path that
does not exist, an empty ``--rules`` selection or an unknown rule id
exits 2.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import rules as _rules  # noqa: F401  (registers the pack)
from repro.analysis.callgraph import Project
from repro.analysis.engine import all_rules, get_rule, lint_paths, load_contexts

__all__ = ["add_arguments", "run", "main", "find_root"]


def find_root(start: Path) -> Path:
    """Nearest ancestor of *start* holding a pyproject.toml (else *start*)."""
    start = start.resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro under the root)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root for relative paths "
        "(default: auto-detected via pyproject.toml)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="report format",
    )
    parser.add_argument(
        "--callgraph",
        choices=("dot", "json"),
        default=None,
        metavar="FMT",
        help="print the resolved call graph of the target (dot|json) "
        "instead of linting",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="REPnnn",
        help="print one rule's contract, rationale and suppression "
        "example, then exit",
    )


def explain(rule_ref: str) -> int:
    """Print one rule's docstring (contract / rationale / suppression)."""
    try:
        rule = get_rule(rule_ref.strip())
    except KeyError:
        known = ", ".join(r.rule_id for r in all_rules())
        print(f"lint: unknown rule {rule_ref!r} (known: {known})", file=sys.stderr)
        return 2
    doc = inspect.getdoc(type(rule)) or rule.description
    print(f"{rule.rule_id} ({rule.slug})")
    print("=" * (len(rule.rule_id) + len(rule.slug) + 3))
    print(doc)
    return 0


def run(args: argparse.Namespace) -> int:
    if args.explain is not None:
        return explain(args.explain)
    root = find_root(Path(args.root) if args.root else Path.cwd())
    paths = (
        [Path(p) for p in args.paths]
        if args.paths
        else [root / "src" / "repro"]
    )
    for path in paths:
        if not path.exists():
            print(f"lint: no such path: {path}", file=sys.stderr)
            return 2
    if args.callgraph:
        contexts, errors = load_contexts(paths, root)
        for finding in errors:
            print(finding.format(), file=sys.stderr)
        graph = Project(contexts.values()).graph
        if args.callgraph == "dot":
            print(graph.to_dot(), end="")
        else:
            print(json.dumps(graph.to_json(), indent=2))
        return 0
    selected = all_rules()
    if args.rules is not None:
        wanted = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        if not wanted:
            print(f"lint: --rules {args.rules!r} selects no rule", file=sys.stderr)
            return 2
        selected = tuple(r for r in selected if r.rule_id in wanted)
        unknown = wanted - {r.rule_id for r in selected}
        if unknown:
            print(f"lint: unknown rules {sorted(unknown)}", file=sys.stderr)
            return 2

    findings = lint_paths(paths, root, rules=selected)
    if args.output_format == "json":
        print(json.dumps({"findings": [f.to_dict() for f in findings]}, indent=2))
        return 1 if findings else 0

    for f in findings:
        print(f.format())
    if findings:
        print(
            f"lint: {len(findings)} finding(s) — run "
            f"`repro lint --explain {min(f.rule_id for f in findings)}` for "
            "the contract behind each rule"
        )
        return 1
    print(f"lint: ok ({len(selected)} rule(s))")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST invariant linter for determinism, RNG and "
        "transaction discipline (rules REP001-REP005)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
