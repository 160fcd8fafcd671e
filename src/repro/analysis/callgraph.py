"""Cross-module symbol table and call graph for ``src/repro``.

:class:`Project` indexes every module the linter sees — functions,
classes, methods, module-level function aliases — and resolves each
``ast.Call`` to a callee where static resolution is honest:

* **imports** — through :class:`~repro.analysis.context.ModuleContext`'s
  alias table (``from repro.x import helper`` / ``import repro.x as y``),
  so a call in ``repro.a`` binds to the definition in ``repro.x``;
* **methods via class-attribute lookup** — ``self.m()`` and ``cls.m()``
  bind through the enclosing class (and its resolvable bases);
  ``obj.m()`` binds when ``obj``'s class is locally inferable (annotated
  parameter, ``obj = ClassName(...)`` constructor assignment, or a
  ``self.attr`` whose class attribute was assigned one of those), with a
  guarded unique-name fallback for otherwise-unresolvable receivers;
* **first-order function values** — ``g = helper; g(...)`` binds through
  a per-function alias pass, and ``ClassName(...)`` binds to
  ``ClassName.__init__`` so constructor keyword arguments participate in
  interprocedural taint (REP001's laundered-seed check).

Soundness limits (a *static* call graph of a dynamic language is always
a bargain; docs/ARCHITECTURE.md spells the terms out): higher-order
calls through containers or callbacks, monkey-patching, and
``getattr``-style dynamic dispatch produce **no** edge — rules built on
the graph are therefore best-effort detectors, not verifiers.  The
unique-method fallback refuses ubiquitous method names (``copy``,
``run``, ``close``…) so numpy/stdlib receivers cannot generate junk
edges that would poison the cross-module rules.

Everything is built from modules **sorted by repo-relative path**, so
the graph — and every finding derived from it — is byte-identical
regardless of filesystem enumeration order (pinned by a hypothesis
property in ``tests/test_callgraph.py``).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.context import ModuleContext

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "CallSite",
    "CallGraph",
    "Project",
    "module_name",
]

#: Method names too common across numpy/stdlib objects for the
#: unique-name fallback to be trustworthy.
_FALLBACK_DENYLIST = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "extend", "get",
        "index", "items", "join", "keys", "max", "mean", "min", "open",
        "pop", "read", "remove", "run", "sort", "split", "spawn", "sum",
        "update", "values", "write",
    }
)


def module_name(rel: str) -> str:
    """Dotted module name of a repo-relative path.

    ``src/repro/algorithms/lns.py`` → ``repro.algorithms.lns``;
    ``src/repro/cluster/__init__.py`` → ``repro.cluster``.  Paths not
    under ``src/`` keep their stem-derived name, which is enough for
    fixture projects in tests.
    """
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module_rel: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    #: Qualname of the defining class, or None for plain functions.
    cls: str | None = None
    #: Positional parameter names in order (including ``self``).
    params: tuple[str, ...] = ()
    #: Every keyword-addressable parameter name.
    kw_params: frozenset[str] = frozenset()


@dataclass
class ClassInfo:
    """One class definition plus what the rules need from it."""

    qualname: str
    module_rel: str
    node: ast.ClassDef
    #: Resolved (dotted) base-class names, unresolved text otherwise.
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr> = <expr>`` assignments anywhere in the class body,
    #: in source order — the flow-insensitive attribute value table the
    #: taint rules and receiver typing read.
    attr_values: dict[str, list[ast.expr]] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge."""

    caller: str  #: qualname of the calling function, or ``<rel>::<module>``
    callee: str  #: qualname of the resolved callee
    module_rel: str
    node: ast.Call
    lineno: int
    #: Callee parameter name -> argument expression, for the arguments
    #: that map statically (no ``*args`` spill, no ``**kwargs``).
    args: Mapping[str, ast.expr] = field(default_factory=dict)


class CallGraph:
    """The resolved call sites plus caller/callee indexes."""

    def __init__(self, sites: Iterable[CallSite]) -> None:
        self.sites: tuple[CallSite, ...] = tuple(sites)
        self._by_callee: dict[str, list[CallSite]] = {}
        self._by_caller: dict[str, list[CallSite]] = {}
        for site in self.sites:
            self._by_callee.setdefault(site.callee, []).append(site)
            self._by_caller.setdefault(site.caller, []).append(site)

    def callers_of(self, qualname: str) -> tuple[CallSite, ...]:
        return tuple(self._by_callee.get(qualname, ()))

    def callees_of(self, qualname: str) -> tuple[CallSite, ...]:
        return tuple(self._by_caller.get(qualname, ()))

    def to_json(self) -> dict[str, object]:
        """Deterministic JSON document (sorted nodes and edges)."""
        edges = sorted(
            {
                (s.caller, s.callee, s.module_rel, s.lineno)
                for s in self.sites
            }
        )
        nodes = sorted({s.caller for s in self.sites} | {s.callee for s in self.sites})
        return {
            "version": 1,
            "nodes": nodes,
            "edges": [
                {"caller": c, "callee": e, "file": f, "line": ln}
                for c, e, f, ln in edges
            ],
        }

    def to_dot(self) -> str:
        """Graphviz rendering (deduplicated caller->callee edges)."""
        lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
        for caller, callee in sorted({(s.caller, s.callee) for s in self.sites}):
            lines.append(f'  "{caller}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


class Project:
    """Cross-module analysis context (see module docstring)."""

    def __init__(self, contexts: Iterable[ModuleContext]) -> None:
        #: rel -> context, in sorted-rel order (determinism anchor).
        self.modules: dict[str, ModuleContext] = {
            mod.rel: mod for mod in sorted(contexts, key=lambda m: m.rel)
        }
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Module-level ``name = function`` aliases: dotted alias -> qualname.
        self._value_aliases: dict[str, str] = {}
        #: method name -> qualnames of classes defining it (fallback index).
        self._method_index: dict[str, list[str]] = {}
        self._env_cache: dict[str, dict[str, str]] = {}
        #: (class, attr) frames currently being typed (cycle guard).
        self._typing_stack: set[tuple[str, str]] = set()
        #: Re-export table: ``repro.simulate.nonhomogeneous_arrivals`` ->
        #: ``repro.simulate.traces.nonhomogeneous_arrivals`` (built from
        #: every module's import aliases, so package ``__init__``
        #: re-exports resolve to the defining module).
        self._export_aliases: dict[str, str] = {}
        for mod in self.modules.values():
            self._index_module(mod)
        self._resolve_value_aliases()
        self.graph = CallGraph(self._build_sites())

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from ``{rel: source}`` (the fixture-test door)."""
        from pathlib import Path

        return cls(
            ModuleContext(Path(rel), rel, text) for rel, text in sources.items()
        )

    # ------------------------------------------------------------- indexing
    def _index_module(self, mod: ModuleContext) -> None:
        modname = module_name(mod.rel)
        for local, origin in mod.aliases.items():
            if "." in origin:
                self._export_aliases[f"{modname}.{local}"] = origin
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, stmt, f"{modname}.{stmt.name}", None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, stmt, f"{modname}.{stmt.name}")
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        origin = mod.resolve(stmt.value)
                        if origin is not None:
                            self._value_aliases[f"{modname}.{target.id}"] = (
                                origin
                                if "." in origin
                                else f"{modname}.{origin}"
                            )

    def _index_function(
        self,
        mod: ModuleContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        cls: str | None,
    ) -> None:
        args = node.args
        params = tuple(a.arg for a in (*args.posonlyargs, *args.args))
        kw_params = frozenset(params) | {a.arg for a in args.kwonlyargs}
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module_rel=mod.rel,
            node=node,
            lineno=node.lineno,
            cls=cls,
            params=params,
            kw_params=kw_params,
        )
        # Nested defs are indexed (callable by bare name from the
        # enclosing function) but not exported as module attributes.
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, stmt, f"{qualname}.{stmt.name}", cls)

    def _index_class(self, mod: ModuleContext, node: ast.ClassDef, qualname: str) -> None:
        bases: list[str] = []
        for base in node.bases:
            resolved = mod.resolve(base)
            if resolved is not None:
                bases.append(
                    resolved
                    if "." in resolved
                    else f"{module_name(mod.rel)}.{resolved}"
                )
        info = ClassInfo(
            qualname=qualname, module_rel=mod.rel, node=node, bases=tuple(bases)
        )
        self.classes[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = f"{qualname}.{stmt.name}"
                self._index_function(mod, stmt, method_qualname, qualname)
                info.methods[stmt.name] = self.functions[method_qualname]
                self._method_index.setdefault(stmt.name, []).append(qualname)
        # self.<attr> = <expr> anywhere in the class body.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_values.setdefault(target.attr, []).append(sub.value)
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                target2 = sub.target
                if (
                    isinstance(target2, ast.Attribute)
                    and isinstance(target2.value, ast.Name)
                    and target2.value.id == "self"
                ):
                    info.attr_values.setdefault(target2.attr, []).append(sub.value)

    def _resolve_value_aliases(self) -> None:
        # Chase alias chains (a = b; b = f) to a known function, bounded.
        for alias, origin in list(self._value_aliases.items()):
            seen = 0
            while origin not in self.functions and origin in self._value_aliases:
                origin = self._value_aliases[origin]
                seen += 1
                if seen > 8:
                    break
            if origin in self.functions:
                self._value_aliases[alias] = origin
            else:
                del self._value_aliases[alias]

    # ------------------------------------------------------------ resolution
    def lookup_method(self, cls_qualname: str, name: str) -> FunctionInfo | None:
        """Method *name* on *cls_qualname* or its resolvable bases (MRO-ish
        depth-first, cycle-guarded)."""
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    def class_of_expr(
        self,
        mod: ModuleContext,
        expr: ast.expr,
        env: Mapping[str, str],
        cls: str | None,
    ) -> str | None:
        """Best-effort class of *expr* (see module docstring for limits)."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and cls is not None:
                return cls
            if expr.id in env:
                return env[expr.id]
            resolved = mod.resolve(expr)
            if resolved is not None and self._as_class(mod, resolved) is not None:
                return self._as_class(mod, resolved)
            return None
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and cls is not None
            ):
                # Cycle guard: self.a = self.b.make() chains can recurse
                # through attr_values indefinitely; one (cls, attr) frame
                # at a time is enough for every honest case.
                key = (cls, expr.attr)
                if key in self._typing_stack:
                    return None
                info = self.classes.get(cls)
                if info is not None:
                    self._typing_stack.add(key)
                    try:
                        for value in info.attr_values.get(expr.attr, ()):
                            inferred = self.class_of_expr(mod, value, {}, cls)
                            if inferred is not None:
                                return inferred
                    finally:
                        self._typing_stack.discard(key)
                return None
            resolved = mod.resolve(expr)
            if resolved is not None:
                return self._as_class(mod, resolved)
            return None
        if isinstance(expr, ast.Call):
            callee = self.resolve_callee(mod, expr, {}, cls)
            if callee is not None and callee.endswith(".__init__"):
                return callee[: -len(".__init__")]
            # Constructor of a class without __init__.
            ctor = self._constructor_class(mod, expr)
            if ctor is not None:
                return ctor
        return None

    def _canonical(self, dotted: str) -> str:
        """Chase re-export aliases to the defining module, bounded."""
        for _ in range(8):
            if dotted in self.functions or dotted in self.classes:
                return dotted
            target = self._export_aliases.get(dotted)
            if target is None:
                return dotted
            dotted = target
        return dotted

    def _as_class(self, mod: ModuleContext, dotted: str) -> str | None:
        dotted = self._canonical(dotted)
        if dotted in self.classes:
            return dotted
        local = self._canonical(f"{module_name(mod.rel)}.{dotted}")
        return local if local in self.classes else None

    def _constructor_class(self, mod: ModuleContext, call: ast.Call) -> str | None:
        resolved = mod.resolve(call.func)
        if resolved is None:
            return None
        return self._as_class(mod, resolved)

    def resolve_callee(
        self,
        mod: ModuleContext,
        call: ast.Call,
        env: Mapping[str, str],
        cls: str | None,
        caller: str | None = None,
        local_fn_aliases: Mapping[str, str] | None = None,
    ) -> str | None:
        """Qualname of *call*'s callee, or None when resolution would be
        a guess the rules cannot afford."""
        func = call.func
        modname = module_name(mod.rel)

        if isinstance(func, ast.Name):
            if local_fn_aliases and func.id in local_fn_aliases:
                return local_fn_aliases[func.id]
            if caller is not None and f"{caller}.{func.id}" in self.functions:
                return f"{caller}.{func.id}"  # nested def
            resolved = mod.resolve(func)
            if resolved is None:
                return None
            for raw in (resolved, f"{modname}.{resolved}"):
                candidate = self._canonical(raw)
                if candidate in self.functions:
                    return candidate
                if candidate in self._value_aliases:
                    return self._value_aliases[candidate]
                as_cls = candidate if candidate in self.classes else None
                if as_cls is not None:
                    init = self.lookup_method(as_cls, "__init__")
                    return init.qualname if init is not None else f"{as_cls}.__init__"
            return None

        if isinstance(func, ast.Attribute):
            resolved = mod.resolve(func)
            if resolved is not None:
                for raw in (resolved, f"{modname}.{resolved}"):
                    candidate = self._canonical(raw)
                    if candidate in self.functions:
                        return candidate
                    if candidate in self._value_aliases:
                        return self._value_aliases[candidate]
                    # ClassName.m(...) — unbound method call.
                    head, _, attr = candidate.rpartition(".")
                    as_cls = self._canonical(head)
                    if as_cls in self.classes:
                        method = self.lookup_method(as_cls, attr)
                        if method is not None:
                            return method.qualname
            receiver = self.class_of_expr(mod, func.value, env, cls)
            if receiver is not None:
                method = self.lookup_method(receiver, func.attr)
                if method is not None:
                    return method.qualname
                return None
            # Guarded unique-name fallback (class-attribute lookup).
            if func.attr not in _FALLBACK_DENYLIST:
                owners = self._method_index.get(func.attr, [])
                if len(owners) == 1:
                    return self.classes[owners[0]].methods[func.attr].qualname
            return None
        return None

    # ------------------------------------------------------------ call sites
    def _local_env(
        self, mod: ModuleContext, info: FunctionInfo
    ) -> tuple[dict[str, str], dict[str, str]]:
        """(variable -> class, variable -> function qualname) for one
        function body: annotated params, constructor assignments and
        first-order function aliases, flow-insensitively."""
        env: dict[str, str] = {}
        fn_aliases: dict[str, str] = {}
        args = info.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is not None:
                ann = arg.annotation
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    try:
                        ann = ast.parse(ann.value, mode="eval").body
                    except SyntaxError:
                        continue
                resolved = mod.resolve(ann) if isinstance(ann, (ast.Name, ast.Attribute)) else None
                if resolved is not None:
                    as_cls = self._as_class(mod, resolved)
                    if as_cls is not None:
                        env[arg.arg] = as_cls
        for sub in ast.walk(info.node):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(sub.value, ast.Call):
                ctor = self._constructor_class(mod, sub.value)
                if ctor is not None:
                    env[target.id] = ctor
            elif isinstance(sub.value, ast.Name):
                resolved = mod.resolve(sub.value)
                if resolved is not None:
                    modname = module_name(mod.rel)
                    for candidate in (resolved, f"{modname}.{resolved}"):
                        if candidate in self.functions:
                            fn_aliases[target.id] = candidate
                            break
        return env, fn_aliases

    def _map_args(
        self, info: FunctionInfo, call: ast.Call, bound: bool
    ) -> dict[str, ast.expr]:
        """Callee param name -> argument expression (static subset)."""
        mapping: dict[str, ast.expr] = {}
        params = info.params[1:] if bound and info.params else info.params
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(params):
                mapping[params[i]] = arg
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in info.kw_params:
                mapping[kw.arg] = kw.value
        return mapping

    def _build_sites(self) -> list[CallSite]:
        sites: list[CallSite] = []
        for mod in self.modules.values():
            # Map: every node inside a function body -> owning function,
            # innermost wins (set in indexing order, nested defs last).
            owner: dict[int, str] = {}
            for qualname, info in self.functions.items():
                if info.module_rel != mod.rel:
                    continue
                for sub in ast.walk(info.node):
                    owner[id(sub)] = qualname
            # Re-assert innermost ownership for nested defs: walk again
            # in qualname-length order so deeper functions overwrite.
            for qualname in sorted(
                (q for q, i in self.functions.items() if i.module_rel == mod.rel),
                key=lambda q: q.count("."),
            ):
                info = self.functions[qualname]
                for sub in ast.walk(info.node):
                    owner[id(sub)] = qualname

            env_cache: dict[str, tuple[dict[str, str], dict[str, str]]] = {}
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                caller = owner.get(id(node), f"{mod.rel}::<module>")
                caller_info = self.functions.get(caller)
                if caller_info is not None:
                    if caller not in env_cache:
                        env_cache[caller] = self._local_env(mod, caller_info)
                    env, fn_aliases = env_cache[caller]
                    cls = caller_info.cls
                else:
                    env, fn_aliases = {}, {}
                    cls = None
                callee = self.resolve_callee(
                    mod, node, env, cls, caller=caller, local_fn_aliases=fn_aliases
                )
                if callee is None:
                    continue
                callee_info = self.functions.get(callee)
                if callee_info is None:
                    continue
                bound = callee_info.cls is not None and self._is_bound_call(
                    mod, node, callee_info, env, cls
                )
                sites.append(
                    CallSite(
                        caller=caller,
                        callee=callee,
                        module_rel=mod.rel,
                        node=node,
                        lineno=node.lineno,
                        args=self._map_args(callee_info, node, bound),
                    )
                )
        return sites

    def _is_bound_call(
        self,
        mod: ModuleContext,
        call: ast.Call,
        callee: FunctionInfo,
        env: Mapping[str, str],
        cls: str | None,
    ) -> bool:
        """True when the receiver is an instance (skip ``self`` in the
        arg map), False for ``ClassName.m(obj, ...)`` unbound calls and
        constructor calls (``__init__`` gets self skipped too)."""
        if callee.node.name == "__init__" and not isinstance(call.func, ast.Attribute):
            return True  # ClassName(...) — self is implicit
        func = call.func
        if not isinstance(func, ast.Attribute):
            return True
        resolved = mod.resolve(func)
        if resolved is not None:
            head = resolved.rpartition(".")[0]
            if self._as_class(mod, head) is not None:
                return False  # explicit ClassName.m(instance, ...)
        return True
    # ------------------------------------------------------------------ misc

    def context_of(self, rel: str) -> ModuleContext | None:
        return self.modules.get(rel)

    def env_of(self, info: FunctionInfo) -> Mapping[str, str]:
        """Flow-insensitive ``variable -> class qualname`` map of one
        function body (the receiver-typing environment rules reuse).
        Cached — rule fixpoints query it repeatedly."""
        cached = self._env_cache.get(info.qualname)
        if cached is None:
            mod = self.modules[info.module_rel]
            cached = self._local_env(mod, info)[0]
            self._env_cache[info.qualname] = cached
        return cached
