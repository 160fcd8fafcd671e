"""The shipped rule pack: REP001–REP005, one rule per invariant.

Each rule encodes an invariant of this reproduction that no
off-the-shelf linter knows about (docs/ARCHITECTURE.md, "Static
analysis & invariants", explains the why behind each).  A rule checks
its invariant with whichever hooks it needs: the per-module AST
(:meth:`~repro.analysis.engine.Rule.check`) or the cross-module call
graph (:meth:`~repro.analysis.engine.Rule.check_project`):

* **REP001** ``rng-seed`` — RNG construction with a literal or missing
  seed, directly (``default_rng(42)``) or laundered through helper
  calls (``make_rng(42)`` where ``make_rng`` forwards to
  ``default_rng``).  Bitwise-reproducible trajectories require every
  stream to derive from a configured seed (or ``SeedSequence.spawn``).
* **REP002** ``wall-clock`` — wall-clock reads (``time.*``,
  ``datetime.now``…) or stdlib ``random`` in simulation/algorithm code,
  where simulated time (``repro.runtime.SimClock``) or an injected
  clock must be used.  ``parallel/``, ``obs/`` and the experiment
  drivers legitimately measure real time and are out of scope; the few
  runtime-*reporting* sites inside scope carry inline allows.
* **REP003** ``state-mutation`` — writes to ``ClusterState``'s private
  caches or into the copy ``assignment`` returns outside
  ``cluster/state.py``, and calls to its private methods there,
  ``begin()`` included.  Such writes desynchronize the
  delta-evaluation caches from the arrays; transactions are opened
  with ``with state.transaction()``, whose ``finally`` closes the frame
  on every path.  The public array accessors are read-only, so a write
  through them raises at run time and needs no rule.
* **REP004** ``span-context`` — ``Tracer.span(...)`` used other than as
  a ``with`` context manager.  A manually entered span leaks on any
  exception path and corrupts the trace tree.
* **REP005** ``unordered-fold`` — float accumulation over ``set`` /
  ``frozenset`` iteration in ``algorithms/`` / ``metrics/``.  Float
  addition is not associative, so set iteration order changes results
  between runs/processes even with identical seeds.

Every rule documents its Contract / Rationale / Suppression sections in
its class docstring — ``repro lint --explain REPnnn`` prints them.
"""

from __future__ import annotations

import ast
from typing import Iterator, TypeGuard

from repro.analysis.callgraph import CallSite, FunctionInfo, Project
from repro.analysis.context import ModuleContext
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding

__all__ = [
    "RngSeedRule",
    "WallClockRule",
    "StateMutationRule",
    "SpanContextRule",
    "UnorderedFoldRule",
]


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

_DYNAMIC_NODES = (
    ast.Name,
    ast.Attribute,
    ast.Call,
    ast.Subscript,
    ast.Starred,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _is_static(node: ast.AST) -> bool:
    """True when *node* is a compile-time constant expression (no names,
    calls or subscripts anywhere inside it)."""
    return not any(isinstance(sub, _DYNAMIC_NODES) for sub in ast.walk(node))


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _assign_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


# --------------------------------------------------------------------------
# REP001 — seeded RNG construction
# --------------------------------------------------------------------------

def _seed_argument(call: ast.Call, keyword: str) -> ast.AST | None:
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _rng_constructor(mod: ModuleContext, call: ast.Call) -> tuple[str, str] | None:
    """``(name, seed keyword)`` when *call* constructs a numpy stream."""
    target = mod.resolve(call.func)
    if target is None:
        return None
    for name, keyword in (("default_rng", "seed"), ("SeedSequence", "entropy")):
        if target == name or target.endswith("." + name):
            return name, keyword
    return None


#: Experiment drivers are the configuration origin: a published default
#: seed there *is* the reproducibility contract, so seeds they pass to
#: helpers are not laundering.
_CONFIG_ORIGIN = "src/repro/experiments/"


@register
class RngSeedRule(Rule):
    """RNG constructed with a literal or missing seed, directly or
    through helper calls.

    Contract:
        Every ``numpy.random.default_rng(...)`` / ``SeedSequence(...)``
        call receives a *dynamic* seed expression — a config value, a
        parameter, or a ``SeedSequence.spawn`` child.  Literal seeds,
        missing seeds, and the legacy ``numpy.random.seed`` /
        ``RandomState`` APIs are all violations.  Seeds are followed
        across calls: a compile-time-constant argument to a helper
        parameter that reaches a constructor's seed slot, through any
        number of hops (``make_rng(42)`` where ``make_rng`` forwards to
        ``default_rng``), is flagged at the call, and a literal default
        on such a parameter is flagged at the ``def``.  Passing an
        explicit ``None`` to a helper is not flagged — it is the
        documented "use the configured default" signal.

    Rationale:
        Bitwise-reproducible trajectories require every stream to derive
        from the one configured seed.  A literal shadows that seed
        silently: the run "works" but replays a fixed realization no
        matter what the config says (a recovery bug of exactly this
        class once shipped: ``default_rng(0)`` shadowing the configured
        seed).  It resurfaces trivially as ``make_rng(0)`` once a
        wrapper exists; call-site matching cannot see through the
        wrapper, a conduit analysis over the call graph can.

    Suppression:
        ``# repro: allow-rng-seed`` on the offending line (or alone on
        the line above), with a comment saying why this stream must not
        follow the configured seed — e.g. a deliberately adversarial
        fixture generator.

    Experiment drivers (``src/repro/experiments/``) are out of scope of
    the laundered-seed check: they are the configuration origin, where a
    published default seed *is* the reproducibility contract (same
    scoping rationale as REP002's wall-clock carve-out).
    """

    rule_id = "REP001"
    slug = "rng-seed"
    description = (
        "RNG constructed with a literal or missing seed, directly or "
        "through helper calls; seeds must flow from config or "
        "SeedSequence.spawn"
    )

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            constructor = _rng_constructor(mod, node)
            if constructor is not None:
                yield from self._check_seeded(mod, node, *constructor)
                continue
            target = mod.resolve(node.func)
            if target is None:
                continue
            if target in ("numpy.random.seed", "numpy.random.RandomState") or (
                target.endswith("random.RandomState")
            ):
                yield self.finding(
                    mod,
                    node,
                    f"legacy numpy RNG API ({target.rsplit('.', 1)[-1]}) — "
                    "construct a Generator via default_rng(configured_seed)",
                )

    def _check_seeded(
        self, mod: ModuleContext, node: ast.Call, name: str, keyword: str
    ) -> Iterator[Finding]:
        seed = _seed_argument(node, keyword)
        if seed is None or (
            isinstance(seed, ast.Constant) and seed.value is None
        ):
            yield self.finding(
                mod,
                node,
                f"{name}() without a seed is nondeterministic — thread the "
                "configured seed through",
            )
        elif _is_static(seed):
            yield self.finding(
                mod,
                node,
                f"{name}({ast.unparse(seed)}) hard-codes its seed — seeds "
                "must flow from config or SeedSequence.spawn",
            )

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Literal seeds laundered through helper calls (≥ 1 hop; the
        direct constructor call is :meth:`check`'s finding)."""
        conduits = self._conduit_params(project)
        if not conduits:
            return
        # Findings: call sites passing a static literal into a conduit.
        for site in project.graph.sites:
            mod = project.modules[site.module_rel]
            if mod.rel.startswith(_CONFIG_ORIGIN):
                continue
            for param, arg in site.args.items():
                if (site.callee, param) not in conduits:
                    continue
                if isinstance(arg, ast.Constant) and arg.value is None:
                    continue
                if _is_static(arg):
                    helper = site.callee.rsplit(".", 1)[-1]
                    yield self.finding(
                        mod,
                        site.node,
                        f"literal seed {ast.unparse(arg)} laundered "
                        f"through {helper}({param}=...) into an RNG "
                        "constructor — thread the configured seed instead",
                    )
        # Findings: conduit params with static non-None defaults.
        for (qualname, param), _ in sorted(conduits.items()):
            info = project.functions.get(qualname)
            if info is None or info.module_rel.startswith(_CONFIG_ORIGIN):
                continue
            default = self._default_of(info, param)
            if default is None:
                continue
            if isinstance(default, ast.Constant) and default.value is None:
                continue
            if _is_static(default):
                yield self.finding(
                    project.modules[info.module_rel],
                    info.node,
                    f"parameter {param}={ast.unparse(default)} defaults a "
                    "seed that reaches an RNG constructor — default to "
                    "None and thread the configured seed",
                )

    @staticmethod
    def _default_of(info: FunctionInfo, param: str) -> ast.expr | None:
        args = info.node.args
        positional = [*args.posonlyargs, *args.args]
        defaults = args.defaults
        offset = len(positional) - len(defaults)
        for i, arg in enumerate(positional):
            if arg.arg == param and i >= offset:
                return defaults[i - offset]
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == param and default is not None:
                return default
        return None

    def _conduit_params(self, project: Project) -> dict[tuple[str, str], int]:
        """Backward fixpoint: ``(qualname, param) -> hop count`` for
        params whose value flows into an RNG constructor's seed slot,
        directly (hop 1) or through a conduit of a callee (hop n+1)."""
        sites_by_node = {id(site.node): site for site in project.graph.sites}
        conduits: dict[tuple[str, str], int] = {}
        changed = True
        while changed:
            changed = False
            for info in project.functions.values():
                mod = project.modules[info.module_rel]
                params = set(info.kw_params)
                if not params:
                    continue
                aliases = self._param_aliases(info, params)
                for call in (
                    sub
                    for sub in ast.walk(info.node)
                    if isinstance(sub, ast.Call)
                ):
                    hop = self._call_consumes(
                        mod, call, aliases, conduits, sites_by_node
                    )
                    if hop is None:
                        continue
                    param, depth = hop
                    key = (info.qualname, param)
                    if key not in conduits or conduits[key] > depth:
                        conduits[key] = depth
                        changed = True
        return conduits

    @staticmethod
    def _param_aliases(
        info: FunctionInfo, params: set[str]
    ) -> dict[str, str]:
        """name -> param it copies, flow-insensitively (x = seed)."""
        aliases = {p: p for p in params}
        changed = True
        while changed:
            changed = False
            for sub in ast.walk(info.node):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in aliases
                    and sub.targets[0].id not in aliases
                ):
                    aliases[sub.targets[0].id] = aliases[sub.value.id]
                    changed = True
        return aliases

    @staticmethod
    def _call_consumes(
        mod: ModuleContext,
        call: ast.Call,
        aliases: dict[str, str],
        conduits: dict[tuple[str, str], int],
        sites_by_node: dict[int, CallSite],
    ) -> tuple[str, int] | None:
        """(param, hops) when *call* feeds a caller param into a seed
        slot: an RNG constructor directly, or a callee's conduit."""
        constructor = _rng_constructor(mod, call)
        if constructor is not None:
            seed = _seed_argument(call, constructor[1])
            if isinstance(seed, ast.Name) and seed.id in aliases:
                return (aliases[seed.id], 1)
            return None
        site = sites_by_node.get(id(call))
        if site is None:
            return None
        for param, arg in site.args.items():
            depth = conduits.get((site.callee, param))
            if depth is None:
                continue
            if isinstance(arg, ast.Name) and arg.id in aliases:
                return (aliases[arg.id], depth + 1)
        return None


# --------------------------------------------------------------------------
# REP002 — wall-clock discipline
# --------------------------------------------------------------------------

#: Call targets that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Modules where real time is the measured quantity, not a bug.
_WALL_CLOCK_ALLOWED_PREFIXES = (
    "src/repro/experiments/",
    "src/repro/parallel/",
    "src/repro/obs/",
    "src/repro/analysis/",
)
_WALL_CLOCK_ALLOWED_FILES = frozenset(
    {"src/repro/cli.py", "src/repro/__main__.py"}
)


@register
class WallClockRule(Rule):
    """Wall-clock read (or stdlib ``random``) in simulation/algorithm code.

    Contract:
        Inside ``src/repro/`` — excluding ``experiments/``,
        ``parallel/``, ``obs/``, ``analysis/`` and the CLI entry points,
        where real time is the measured quantity — no call to
        ``time.*`` clock readers or ``datetime`` "now" constructors, and
        no import of stdlib ``random``.

    Rationale:
        Simulated components must take time from
        ``repro.runtime.SimClock`` (or an injected clock) so traces are
        deterministic and replayable; a wall-clock read makes results
        depend on host speed.  Stdlib ``random`` is a second, unseeded
        RNG source next to the numpy Generator threaded from config.

    Suppression:
        ``# repro: allow-wall-clock`` on the line, reserved for genuine
        runtime *reporting* sites inside scope (progress timestamps in
        logs) — never for anything that feeds back into results.
    """

    rule_id = "REP002"
    slug = "wall-clock"
    description = (
        "wall-clock read (or stdlib random) in simulation/algorithm code; "
        "use repro.runtime.SimClock or an injected clock"
    )

    def applies_to(self, rel: str) -> bool:
        if not rel.startswith("src/repro/"):
            return False
        if rel in _WALL_CLOCK_ALLOWED_FILES:
            return False
        return not rel.startswith(_WALL_CLOCK_ALLOWED_PREFIXES)

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                target = mod.resolve(node.func)
                if target in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        mod,
                        node,
                        f"{target}() reads the wall clock inside simulation/"
                        "algorithm code — use simulated time "
                        "(repro.runtime.SimClock) or an injected clock",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            mod,
                            node,
                            "stdlib random is a second, unseeded RNG source — "
                            "use the numpy Generator threaded from config",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield self.finding(
                        mod,
                        node,
                        "stdlib random is a second, unseeded RNG source — "
                        "use the numpy Generator threaded from config",
                    )


# --------------------------------------------------------------------------
# REP003 — ClusterState mutation discipline
# --------------------------------------------------------------------------

#: ClusterState's private arrays, masks and caches (cluster/state.py is
#: the one writer).
_STATE_PRIVATE_ATTRS = frozenset(
    {
        "_assign",
        "_loads_t",
        "_counts",
        "_peak",
        "_peak_dirty",
        "_peak_any_dirty",
        "_num_unassigned",
        "_num_vacant",
        "_replica_hosts",
        "_replica_conflicts",
        "_norm_demand",
        "_blocked",
        "_offline",
    }
)
#: ClusterState methods callable only inside cluster/state.py: the cache
#: maintenance methods, and ``begin``.  ``begin`` stays public as the
#: primitive under ``transaction()``, but a bare ``begin()`` can leak its
#: frame on an exception path; ``with state.transaction()`` cannot.
_STATE_PRIVATE_METHODS = frozenset(
    {
        "begin",
        "_rebuild_caches",
        "_refreshed_peaks",
        "_host_enter",
        "_host_leave",
    }
)


def _is_private_cache(expr: ast.AST) -> TypeGuard[ast.Attribute]:
    """``<state>._loads_t`` and friends.  A foreign write goes through a
    state reference (``state._loads_t = ...``); a bare-self attribute is
    another class's own field that happens to share the name."""
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr in _STATE_PRIVATE_ATTRS
        and not _is_self(expr.value)
    )


@register
class StateMutationRule(Rule):
    """Mutation of ``ClusterState`` internals outside
    ``cluster/state.py``, and transactions opened other than with
    ``with state.transaction()``.

    Contract:
        Outside ``src/repro/cluster/state.py``, no attribute or
        subscript write to the private arrays and caches (``_loads_t``,
        ``_counts``, ``_peak``, …), no call to the private
        maintenance methods or to ``begin()``, and no subscript store
        through ``assignment``, which returns a copy.  Open
        transactions with ``with state.transaction():`` and keep the
        candidate with ``state.commit()`` in the body.  Each offending
        write or call is one finding.

        The public array accessors (``loads``, ``capacity``,
        ``blocked_mask``, ``assignment_view()``, ``loads_by_dim()``, …)
        are not this rule's business: they return read-only arrays, so
        a write through one, or through any alias of one, raises
        ``ValueError`` at run time.

    Rationale:
        Every legal mutation flows through the transactional API
        (``transaction`` / ``move`` / ``assign_shard`` / ``commit``) so
        the delta-evaluation caches stay coherent with the arrays they
        summarize.  A direct write bypasses them: incremental
        objectives drift from the arrays (a write to ``_offline`` leaves
        the vacant-machine count stale), and a frame opened before the
        write can roll it back or keep it by accident.  A
        write into ``assignment`` raises nothing and is silently lost.
        A bare ``begin()`` leaks its frame on any path that misses
        ``commit()`` and ``rollback()``, and a later rollback then
        rewinds through someone else's accepted moves;
        ``transaction()`` rolls back in a ``finally``, so the frame
        closes on every path by construction.

    Suppression:
        ``# repro: allow-state-mutation`` on the line.  Legitimate only
        in code that provably owns a private copy (e.g. a frame restored
        from a snapshot) — say so in an adjacent comment.
    """

    rule_id = "REP003"
    slug = "state-mutation"
    description = (
        "mutation of ClusterState private caches, a write into the "
        "assignment copy, or a bare begin() outside cluster/state.py; use "
        "the transactional API (with state.transaction(), "
        "move/assign_shard/commit)"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/") and rel != "src/repro/cluster/state.py"

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _assign_targets(node):
                    yield from self._check_target(mod, target)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STATE_PRIVATE_METHODS
                    and not _is_self(func.value)
                ):
                    yield self.finding(
                        mod,
                        node,
                        "bare begin() outside cluster/state.py can leak its "
                        "transaction — open transactions with "
                        "`with state.transaction()`"
                        if func.attr == "begin"
                        else f"call to ClusterState-private {func.attr}() "
                        "outside cluster/state.py bypasses the transactional API",
                    )

    def _check_target(self, mod: ModuleContext, target: ast.AST) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_target(mod, elt)
            return
        if _is_private_cache(target):
            yield self.finding(
                mod,
                target,
                f"write to ClusterState private state .{target.attr} outside "
                "cluster/state.py desynchronizes its caches",
            )
            return
        if not isinstance(target, ast.Subscript):
            return
        value = target.value
        if _is_private_cache(value):
            yield self.finding(
                mod,
                target,
                f"subscript write into ClusterState private state "
                f".{value.attr} outside cluster/state.py desynchronizes "
                "its caches",
            )
        elif (
            isinstance(value, ast.Attribute)
            and value.attr == "assignment"
            and not _is_self(value.value)
        ):
            yield self.finding(
                mod,
                target,
                "subscript write through .assignment mutates a copy (the "
                "write is silently lost) — use "
                "move()/assign_shard()/apply_assignment()",
            )


# --------------------------------------------------------------------------
# REP004 — span context managers
# --------------------------------------------------------------------------

@register
class SpanContextRule(Rule):
    """``Tracer.span(...)`` used other than as a ``with`` context manager.

    Contract:
        Every call whose attribute name is ``span`` appears as the
        context expression of a ``with`` item; assigning the span object
        and entering it manually is a violation.

    Rationale:
        A manually entered span leaks on any exception path between
        ``__enter__`` and the matching exit, which corrupts the trace
        tree for every later span in the same tracer — the damage shows
        up far from the bug.

    Suppression:
        ``# repro: allow-span-context`` on the line, for the rare
        framework-level site that stores a span across an async boundary
        and provably closes it in a ``finally``.
    """

    rule_id = "REP004"
    slug = "span-context"
    description = (
        "Tracer.span(...) used other than as a context manager; a manually "
        "entered span leaks on exception paths"
    )

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
            ):
                parent = mod.parent(node)
                if isinstance(parent, ast.withitem) and parent.context_expr is node:
                    continue
                yield self.finding(
                    mod,
                    node,
                    "use `with tracer.span(...) as sp:` — a span entered "
                    "manually leaks on exceptions and corrupts the trace tree",
                )


# --------------------------------------------------------------------------
# REP005 — ordered float folds
# --------------------------------------------------------------------------

_SUM_CALLS = frozenset({"sum", "math.fsum", "numpy.sum"})


def _is_unordered(mod: ModuleContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = mod.resolve(node.func)
        return target in ("set", "frozenset")
    return False


@register
class UnorderedFoldRule(Rule):
    """Float accumulation over ``set`` / ``frozenset`` iteration.

    Contract:
        In ``src/repro/algorithms/`` and ``src/repro/metrics/``, no
        ``for``-loop accumulation (``+=`` in the body) over a set
        expression, and no ``sum()`` / ``math.fsum()`` / ``numpy.sum()``
        over a set or a comprehension drawing from one.

    Rationale:
        Float addition is not associative, and set iteration order
        varies with hash seeding and insertion history — so the same
        inputs with the same seeds can fold to different totals between
        runs or processes.  Iterate ``sorted(...)`` to pin the order.

    Suppression:
        ``# repro: allow-unordered-fold`` on the line, when the
        accumulator is order-insensitive (integer counts, max/min) and
        a comment says so.
    """

    rule_id = "REP005"
    slug = "unordered-fold"
    description = (
        "float accumulation over set iteration; float addition is not "
        "associative, so unordered folds are run-to-run nondeterministic"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(("src/repro/algorithms/", "src/repro/metrics/"))

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.For) and _is_unordered(mod, node.iter):
                if any(
                    isinstance(sub, ast.AugAssign)
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                ):
                    yield self.finding(
                        mod,
                        node,
                        "accumulation over set iteration is order-"
                        "nondeterministic — iterate sorted(...) instead",
                    )
            elif isinstance(node, ast.Call):
                target = mod.resolve(node.func)
                if target not in _SUM_CALLS or not node.args:
                    continue
                arg = node.args[0]
                if _is_unordered(mod, arg):
                    yield self.finding(
                        mod,
                        node,
                        f"{target}() over a set is order-nondeterministic — "
                        "sum sorted(...) instead",
                    )
                elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and any(
                    _is_unordered(mod, gen.iter) for gen in arg.generators
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"{target}() over set iteration is order-"
                        "nondeterministic — iterate sorted(...) instead",
                    )
