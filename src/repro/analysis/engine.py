"""Rule registry and the lint driver.

A rule is a subclass of :class:`Rule` registered with :func:`register`.
It has two hooks: :meth:`Rule.check` sees one
:class:`~repro.analysis.context.ModuleContext` at a time, and
:meth:`Rule.check_project` sees a
:class:`~repro.analysis.callgraph.Project` — every module at once, plus
the symbol table and call graph built from them.  One driver
(:func:`lint_paths` over files, :func:`lint_project` over in-memory
sources) runs both hooks of every selected rule, drops findings covered
by inline ``# repro: allow-<rule>`` suppressions, and returns the
survivors in deterministic (file, line, rule) order.

The engine is deliberately zero-dependency (stdlib ``ast`` only): the
invariants it checks — seeded determinism, simulated-time discipline,
transactional state mutation — are exactly the ones that must hold in
minimal environments where ruff/mypy may not be installed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.callgraph import Project
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_project",
    "load_contexts",
]


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`rule_id` (``REPnnn``), :attr:`slug` (the
    suppression token), :attr:`description`, and implement either hook
    or both: :meth:`check` yields findings for one module,
    :meth:`check_project` yields findings over the whole project (call
    graph included).  :meth:`applies_to` scopes the rule by
    repo-relative path — the modules :meth:`check` visits and the files
    project findings may land in; the default is all of ``src/repro``.
    """

    rule_id: str = ""
    slug: str = ""
    description: str = ""

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/")

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())

    def finding(self, mod: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            file=mod.rel,
            line=getattr(node, "lineno", 0),
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of *cls* to the registry."""
    rule = cls()
    if not rule.rule_id or not rule.slug:
        raise ValueError(f"{cls.__name__} must define rule_id and slug")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Registered rules in rule-id order."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id.upper()]


def _iter_py_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            yield path


def load_contexts(
    paths: Sequence[Path], root: Path
) -> tuple[dict[str, ModuleContext], list[Finding]]:
    """Parse every ``.py`` file under *paths* into a ModuleContext keyed
    by repo-relative path; unparseable files become REP000 findings."""
    contexts: dict[str, ModuleContext] = {}
    errors: list[Finding] = []
    for path in _iter_py_files(paths):
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            contexts[rel] = ModuleContext(path, rel, source)
        except SyntaxError as exc:  # pragma: no cover - repo parses today
            errors.append(
                Finding(rel, exc.lineno or 0, "REP000", f"syntax error: {exc.msg}")
            )
    return contexts, errors


def _lint(
    contexts: Mapping[str, ModuleContext], rules: Iterable[Rule] | None
) -> list[Finding]:
    """Run both hooks of every rule over *contexts*; drop findings out of
    the rule's scope or covered by a suppression."""
    project = Project(contexts.values())
    out: list[Finding] = []
    for rule in rules if rules is not None else all_rules():
        found = [
            finding
            for rel, mod in contexts.items()
            if rule.applies_to(rel)
            for finding in rule.check(mod)
        ]
        found.extend(
            finding
            for finding in rule.check_project(project)
            if rule.applies_to(finding.file)
        )
        for finding in found:
            mod = contexts.get(finding.file)
            if mod is None or not mod.is_suppressed(
                finding.line, rule.rule_id, rule.slug
            ):
                out.append(finding)
    return sorted(out)


def lint_project(
    sources: Mapping[str, str],
    *,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint an in-memory project ``{rel: source}`` — the unit the
    fixture tests drive (a single-module fixture is a one-entry map)."""
    return _lint(
        {rel: ModuleContext(Path(rel), rel, sources[rel]) for rel in sorted(sources)},
        rules,
    )


def lint_paths(
    paths: Sequence[Path],
    root: Path,
    *,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under *paths* as one project; findings
    are repo-relative to *root* and sorted (file, line, rule)."""
    contexts, errors = load_contexts(paths, root)
    return sorted(errors + _lint(contexts, rules))
