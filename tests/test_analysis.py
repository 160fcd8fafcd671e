"""Tests for the repro.analysis invariant linter and the strict typing tier.

Each rule gets fixture-driven positives *and* negatives (the negatives
are what keep the linter honest — a rule that fires on the blessed
idiom would be suppressed into uselessness within a week), plus the
suppression grammar, the CLI front end and a self-check that the
repository at HEAD lints clean.
"""

import json
import tomllib
from pathlib import Path

from repro.analysis import (
    Finding,
    all_rules,
    get_rule,
    lint_paths,
    lint_project,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.context import ModuleContext

REPO_ROOT = Path(__file__).resolve().parents[1]

ALGO = "src/repro/simulate/fixture.py"
ALGORITHMS = "src/repro/algorithms/txn_fixture.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, rel=ALGO, rules=None):
    return lint_project({rel: source}, rules=rules)


class TestRegistry:
    def test_pack_is_registered(self):
        assert [r.rule_id for r in all_rules()] == [
            "REP001", "REP002", "REP003", "REP004", "REP005",
        ]

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("rep002").slug == "wall-clock"

    def test_every_rule_has_slug_and_description(self):
        for rule in all_rules():
            assert rule.slug and rule.description


class TestFinding:
    def test_format_and_roundtrip(self):
        f = Finding(file="src/x.py", line=3, rule_id="REP001", message="m")
        assert f.format() == "src/x.py:3: REP001 m"
        assert Finding.from_dict(f.to_dict()) == f

    def test_sorts_by_file_line_rule(self):
        a = Finding("a.py", 9, "REP002", "m")
        b = Finding("b.py", 1, "REP001", "m")
        assert sorted([b, a]) == [a, b]


class TestRep001RngSeed:
    def test_literal_seed_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rule_ids(lint(src)) == ["REP001"]

    def test_missing_seed_flagged(self):
        src = "from numpy.random import default_rng\nrng = default_rng()\n"
        findings = lint(src)
        assert rule_ids(findings) == ["REP001"]
        assert "without a seed" in findings[0].message

    def test_none_seed_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rule_ids(lint(src)) == ["REP001"]

    def test_configured_seed_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(cfg.seed)\n"
        assert lint(src) == []

    def test_derived_seed_expression_clean(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng((cfg.seed + 104729) if seed is None else seed)\n"
        )
        assert lint(src) == []

    def test_seed_sequence_literal_entropy_flagged(self):
        src = "import numpy as np\nss = np.random.SeedSequence(42)\n"
        assert rule_ids(lint(src)) == ["REP001"]

    def test_seed_sequence_configured_entropy_clean(self):
        src = "import numpy as np\nss = np.random.SeedSequence(entropy=cfg.seed)\n"
        assert lint(src) == []

    def test_legacy_numpy_rng_always_flagged(self):
        src = "import numpy as np\nnp.random.seed(0)\nr = np.random.RandomState(cfg.seed)\n"
        assert rule_ids(lint(src)) == ["REP001", "REP001"]

    def test_alias_import_resolved(self):
        src = "import numpy.random as nr\nrng = nr.default_rng(13)\n"
        assert rule_ids(lint(src)) == ["REP001"]


class TestRep002WallClock:
    def test_time_time_flagged_in_scope(self):
        src = "import time\nt = time.time()\n"
        assert rule_ids(lint(src)) == ["REP002"]

    def test_from_import_alias_resolved(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert rule_ids(lint(src)) == ["REP002"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nnow = datetime.datetime.now()\n"
        assert rule_ids(lint(src)) == ["REP002"]

    def test_stdlib_random_import_flagged(self):
        assert rule_ids(lint("import random\n")) == ["REP002"]
        assert rule_ids(lint("from random import choice\n")) == ["REP002"]

    def test_out_of_scope_modules_exempt(self):
        src = "import time\nt = time.time()\n"
        for rel in (
            "src/repro/parallel/runner.py",
            "src/repro/obs/tracer.py",
            "src/repro/experiments/e8_latency.py",
            "src/repro/analysis/engine.py",
            "src/repro/cli.py",
            "tools/bench.py",
        ):
            assert lint(src, rel=rel) == []

    def test_injected_clock_call_clean(self):
        # Calling an injected clock attribute is the blessed pattern.
        src = "t = self._clock()\n"
        assert lint(src) == []


class TestRep003StateMutation:
    def test_private_attr_rebind_flagged(self):
        src = "state._loads_t = fresh\n"
        assert rule_ids(lint(src)) == ["REP003"]

    def test_private_attr_subscript_write_flagged(self):
        src = "state._loads_t[0] = 1.0\n"
        assert rule_ids(lint(src)) == ["REP003"]

    def test_private_attr_augassign_flagged(self):
        src = "state._num_unassigned += 1\n"
        assert rule_ids(lint(src)) == ["REP003"]

    def test_assignment_copy_write_gets_copy_message(self):
        findings = lint("state.assignment[j] = m\n")
        assert rule_ids(findings) == ["REP003"]
        assert "silently lost" in findings[0].message

    def test_private_method_call_flagged(self):
        src = "state._rebuild_caches()\n"
        assert rule_ids(lint(src)) == ["REP003"]

    def test_self_writes_clean(self):
        # An object's own arrays (e.g. the migration executor's loads)
        # are its own business; only foreign ClusterState writes count.
        src = "self.loads[machine] -= d\nself._rebuild_caches()\n"
        assert lint(src) == []

    def test_state_py_itself_exempt(self):
        src = "state._loads_t[0] = 1.0\n"
        assert lint(src, rel="src/repro/cluster/state.py") == []

    def test_transactional_api_clean(self):
        src = "state.move(j, m)\nstate.assign_shard(j, m)\nstate.commit()\n"
        assert lint(src) == []

    def test_bare_begin_in_algorithms_flagged(self):
        src = (
            "def risky(state):\n"
            "    state.begin()\n"
            "    state.move(0, 1)\n"
            "    state.commit()\n"
        )
        findings = lint(src, rel=ALGORITHMS)
        assert rule_ids(findings) == ["REP003"]
        assert findings[0].line == 2
        assert "with state.transaction()" in findings[0].message

    def test_transaction_block_clean(self):
        src = (
            "def safe(state, accept):\n"
            "    with state.transaction():\n"
            "        state.move(0, 1)\n"
            "        if accept:\n"
            "            state.commit()\n"
        )
        assert lint(src, rel=ALGORITHMS) == []

    def test_self_begin_in_state_py_clean(self):
        src = (
            "class ClusterState:\n"
            "    def transaction(self):\n"
            "        self.begin()\n"
        )
        assert lint(src, rel="src/repro/cluster/state.py") == []

    def test_bare_begin_suppressed_on_its_line(self):
        src = (
            "def handoff(state):\n"
            "    state.begin()  # repro: allow-state-mutation (caller commits)\n"
        )
        assert lint(src, rel=ALGORITHMS) == []

    def test_mask_writes_flagged(self):
        # A write to _offline leaves the vacant-machine count stale.
        src = (
            "def f(state):\n"
            "    state._offline[0] = True\n"
            "    state._blocked[1] = True\n"
        )
        findings = lint(src, rel=ALGORITHMS)
        assert rule_ids(findings) == ["REP003", "REP003"]
        assert [f.line for f in findings] == [2, 3]

    def test_private_mirror_write_reported_once(self):
        # A subscript store into a private cache is one offending
        # write, so one finding.
        src = "def f(state):\n    state._counts[0] = 1\n"
        findings = lint(src)
        assert rule_ids(findings) == ["REP003"]
        assert findings[0].line == 2


class TestRep004SpanContext:
    def test_manual_enter_flagged(self):
        src = 'sp = tracer.span("x")\nsp.__enter__()\n'
        assert rule_ids(lint(src)) == ["REP004"]

    def test_with_statement_clean(self):
        src = 'with tracer.span("x") as sp:\n    sp.set("k", 1)\n'
        assert lint(src) == []

    def test_with_statement_multiple_items_clean(self):
        src = 'with tracer.span("a") as a, tracer.span("b"):\n    pass\n'
        assert lint(src) == []

    def test_span_as_call_argument_flagged(self):
        src = 'record(tracer.span("x"))\n'
        assert rule_ids(lint(src)) == ["REP004"]


class TestRep005UnorderedFold:
    REL = "src/repro/algorithms/fixture.py"

    def test_augassign_over_set_literal_flagged(self):
        src = "total = 0.0\nfor x in {1.0, 2.0}:\n    total += x\n"
        assert rule_ids(lint(src, rel=self.REL)) == ["REP005"]

    def test_augassign_over_set_call_flagged(self):
        src = "t = 0.0\nfor x in set(values):\n    t += x\n"
        assert rule_ids(lint(src, rel=self.REL)) == ["REP005"]

    def test_sum_over_set_comprehension_flagged(self):
        src = "t = sum({f(x) for x in xs})\n"
        assert rule_ids(lint(src, rel=self.REL)) == ["REP005"]

    def test_sum_generator_over_set_flagged(self):
        src = "t = sum(v for v in set(vals))\n"
        assert rule_ids(lint(src, rel=self.REL)) == ["REP005"]

    def test_sorted_iteration_clean(self):
        src = "t = 0.0\nfor x in sorted(set(values)):\n    t += x\nu = sum(sorted(s))\n"
        assert lint(src, rel=self.REL) == []

    def test_list_iteration_clean(self):
        src = "t = 0.0\nfor x in values:\n    t += x\n"
        assert lint(src, rel=self.REL) == []

    def test_out_of_scope_clean(self):
        src = "t = 0.0\nfor x in {1.0, 2.0}:\n    t += x\n"
        assert lint(src, rel="src/repro/cluster/state.py") == []


RNG_HELPERS = """\
from numpy.random import default_rng

def make_rng(seed=None):
    return default_rng(seed)

def make_stream(seed=None):
    return make_rng(seed)
"""


class TestRep008SeedProvenance:
    """REP001's laundered-seed check needs the call graph: the per-module
    check sees ``default_rng(42)``, only conduit analysis over the
    helpers sees ``make_stream(42)``."""

    def test_two_hop_cross_module_laundering_flagged(self):
        driver = (
            "from repro.utils.rngs import make_stream\n"
            "\n"
            "def build():\n"
            "    return make_stream(42)\n"
        )
        findings = lint_project({
            "src/repro/utils/rngs.py": RNG_HELPERS,
            "src/repro/utils/driver.py": driver,
        })
        assert rule_ids(findings) == ["REP001"]
        assert findings[0].file == "src/repro/utils/driver.py"
        assert findings[0].line == 4
        assert "laundered" in findings[0].message

    def test_old_per_module_engine_cannot_see_it(self):
        driver = (
            "from repro.utils.rngs import make_stream\n"
            "\n"
            "def build():\n"
            "    return make_stream(42)\n"
        )
        assert lint_project({"src/repro/utils/driver.py": driver}) == []

    def test_conduit_literal_default_flagged_at_def(self):
        src = (
            "from numpy.random import default_rng\n"
            "\n"
            "def make_rng(seed=1234):\n"
            "    return default_rng(seed)\n"
        )
        findings = lint_project({"src/repro/utils/rngs.py": src})
        assert rule_ids(findings) == ["REP001"]
        assert findings[0].line == 3
        assert "defaults a seed" in findings[0].message

    def test_configured_seed_and_explicit_none_clean(self):
        driver = (
            "from repro.utils.rngs import make_stream\n"
            "\n"
            "def build(cfg):\n"
            "    a = make_stream(cfg.seed)\n"
            "    b = make_stream(None)\n"
            "    return a, b\n"
        )
        assert lint_project({
            "src/repro/utils/rngs.py": RNG_HELPERS,
            "src/repro/utils/driver.py": driver,
        }) == []

    def test_experiment_drivers_out_of_scope(self):
        # Experiments are the configuration origin: a published default
        # seed there *is* the reproducibility contract.
        driver = (
            "from repro.utils.rngs import make_stream\n"
            "\n"
            "def run():\n"
            "    return make_stream(7)\n"
        )
        assert lint_project({
            "src/repro/utils/rngs.py": RNG_HELPERS,
            "src/repro/experiments/e99_demo.py": driver,
        }) == []


class TestRep009SoaMirror:
    """REP003 does not follow the SoA mirror views through aliases: the
    views are read-only, so a write through one raises at run time
    (``tests/test_cluster_state.py::TestReadOnlyAccessors``).
    These writes into parameters and derived arrays stay clean."""

    def test_old_per_module_engine_cannot_see_it(self):
        helper = "def clobber(lt):\n    lt[0] = 0.0\n"
        assert lint_project({"src/repro/algorithms/helper.py": helper}) == []

    def test_derived_array_is_fresh_and_writable(self):
        src = (
            "def derive(state, inv):\n"
            "    util = state.loads_by_dim() * inv\n"
            "    util[0] = 1.0\n"
            "    return util\n"
        )
        assert lint_project({"src/repro/algorithms/x.py": src}) == []

    def test_state_py_itself_exempt(self):
        src = (
            "def rebuild(state):\n"
            "    lt = state.loads_by_dim()\n"
            "    lt[0] = 1.0\n"
        )
        assert lint_project({"src/repro/cluster/state.py": src}) == []


class TestSuppressions:
    def test_same_line_slug(self):
        src = "import time\nt = time.time()  # repro: allow-wall-clock (reporting)\n"
        assert lint(src) == []

    def test_same_line_rule_id(self):
        src = "import time\nt = time.time()  # repro: allow-rep002\n"
        assert lint(src) == []

    def test_preceding_comment_line_covers_next(self):
        src = (
            "import time\n"
            "# repro: allow-wall-clock (real-time budget)\n"
            "t = time.time()\n"
        )
        assert lint(src) == []

    def test_allow_all(self):
        src = "import time\nt = time.time()  # repro: allow-all\n"
        assert lint(src) == []

    def test_wrong_token_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro: allow-rng-seed\n"
        assert rule_ids(lint(src)) == ["REP002"]

    def test_suppression_is_line_scoped(self):
        src = (
            "import time\n"
            "a = time.time()  # repro: allow-wall-clock\n"
            "b = time.time()\n"
        )
        findings = lint(src)
        assert rule_ids(findings) == ["REP002"]
        assert findings[0].line == 3

    def test_non_comment_line_does_not_bless_next(self):
        src = (
            "import time\n"
            "a = time.time()  # repro: allow-wall-clock\n"
            "b = time.time()\n"
        )
        # Line 2's trailing comment must not cover line 3.
        assert [f.line for f in lint(src)] == [3]


class TestModuleContext:
    def test_alias_resolution(self):
        mod = ModuleContext(
            Path("x.py"), "x.py",
            "import numpy.random as nr\nfrom time import perf_counter as pc\n",
        )
        assert mod.aliases["nr"] == "numpy.random"
        assert mod.aliases["pc"] == "time.perf_counter"

    def test_resolve_none_for_non_chain(self):
        mod = ModuleContext(Path("x.py"), "x.py", "f()[0]()\n")
        import ast as _ast

        call = next(
            n for n in _ast.walk(mod.tree)
            if isinstance(n, _ast.Call) and isinstance(n.func, _ast.Subscript)
        )
        assert mod.resolve(call.func) is None


class TestLintPaths:
    def test_walk_and_relative_paths(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "simulate"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nt = time.time()\n")
        (pkg / "good.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path / "src"], tmp_path)
        assert rule_ids(findings) == ["REP002"]
        assert findings[0].file == "src/repro/simulate/bad.py"

    def test_syntax_error_becomes_rep000(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def broken(:\n")
        findings = lint_paths([tmp_path / "src"], tmp_path)
        assert rule_ids(findings) == ["REP000"]


def make_repo(tmp_path, source="import time\nt = time.time()\n"):
    """A minimal lintable repo: pyproject marker + one in-scope module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    pkg = tmp_path / "src" / "repro" / "simulate"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text(source)
    return target


class TestLintCli:
    def test_violation_exits_nonzero(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out and "1 finding(s)" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path), "src/repor"]) == 2
        assert "lint: no such path: src/repor" in capsys.readouterr().err

    def test_rules_filter(self, tmp_path):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path), "--rules", "REP001"]) == 0
        assert lint_main(["--root", str(tmp_path), "--rules", "rep002"]) == 1

    def test_unknown_rule_exits_2(self, tmp_path):
        make_repo(tmp_path)
        for rules in ("REP999", ",", ""):
            assert lint_main(["--root", str(tmp_path), "--rules", rules]) == 2

    def test_json_format(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["findings"]
        assert doc["findings"] and doc["findings"][0]["rule"] == "REP002"

    def test_explain_prints_contract(self, capsys):
        assert lint_main(["--explain", "REP003"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REP003 (state-mutation)")
        assert "with state.transaction()" in out
        for section in ("Contract", "Rationale", "Suppression"):
            assert section in out

    def test_explain_covers_every_registered_rule(self, capsys):
        for rule in all_rules():
            assert lint_main(["--explain", rule.rule_id]) == 0
            out = capsys.readouterr().out
            assert "Suppression" in out, rule.rule_id

    def test_explain_unknown_rule_exits_2(self, capsys):
        for ref in ("REP999", "REP008", "REP007", ""):
            assert lint_main(["--explain", ref]) == 2
            err = capsys.readouterr().err
            assert "REP001" in err  # lists the known pack

    def test_failure_message_points_at_explain(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path)]) == 1
        assert "--explain REP002" in capsys.readouterr().out

    def test_callgraph_dot(self, tmp_path, capsys):
        make_repo(tmp_path, "def g():\n    return 1\n\ndef f():\n    return g()\n")
        assert lint_main(["--root", str(tmp_path), "--callgraph", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"repro.simulate.mod.f" -> "repro.simulate.mod.g"' in out

    def test_callgraph_json(self, tmp_path, capsys):
        make_repo(tmp_path, "def g():\n    return 1\n\ndef f():\n    return g()\n")
        assert lint_main(["--root", str(tmp_path), "--callgraph", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert "repro.simulate.mod.f" in doc["nodes"]
        assert any(
            e["caller"].endswith(".f") and e["callee"].endswith(".g")
            for e in doc["edges"]
        )

    def test_repo_at_head_lints_clean(self, capsys):
        """Self-check: the repository satisfies its own invariants, with
        no finding at all — there is no grandfathered debt."""
        assert lint_main(["--root", str(REPO_ROOT)]) == 0
        assert capsys.readouterr().out == "lint: ok (5 rule(s))\n"


#: The strict mypy tier: every flag of ``strict = true`` that a
#: per-module override accepts (mypy rejects ``strict`` itself there).
STRICT_FLAGS = (
    "disallow_untyped_defs",
    "disallow_incomplete_defs",
    "disallow_untyped_decorators",
    "check_untyped_defs",
    "warn_return_any",
    "no_implicit_reexport",
)

#: Modules promoted to the strict tier; a promotion is never undone.
STRICT_MODULES = (
    "repro.algorithms.budget",
    "repro.algorithms.destroy",
    "repro.algorithms.lns",
    "repro.algorithms.objective",
    "repro.algorithms.sra",
    "repro.algorithms.sra_config",
    "repro.analysis",
    "repro.metrics",
    "repro.migration",
    "repro.obs",
    "repro.parallel",
    "repro.runtime",
)


class TestStrictTyping:
    def test_strict_modules_set_every_flag(self):
        """pyproject.toml keeps every strict flag on for every promoted
        module (``mypy src/repro`` exiting 0 in CI then proves them
        error-free)."""
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            overrides = tomllib.load(fh)["tool"]["mypy"]["overrides"]
        flags: dict[str, set[str]] = {}
        for block in overrides:
            patterns = block["module"]
            for pattern in [patterns] if isinstance(patterns, str) else patterns:
                module = pattern.removesuffix(".*")
                flags.setdefault(module, set()).update(
                    flag for flag in STRICT_FLAGS if block.get(flag) is True
                )
        for module in STRICT_MODULES:
            assert flags.get(module) == set(STRICT_FLAGS), module
