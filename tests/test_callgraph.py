"""Tests for the cross-module symbol table / call graph under the
interprocedural rule pack.

The call-graph tests drive :meth:`Project.from_sources` with small
multi-module fixtures and pin down each resolution mechanism — import
aliases, package re-exports, constructor-to-``__init__``, receiver
typing (annotations, local construction, ``self`` attributes), bound
methods and the denylist-gated unique-name fallback.  A hypothesis
property pins full determinism across file orderings: the graph a rule
sees must not depend on filesystem enumeration order.
"""

import ast
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.callgraph import Project, module_name


def project(**sources):
    """Build a Project from ``module_path=source`` kwargs (dots for /)."""
    return Project.from_sources(
        {k.replace("__", "/") + ".py": v for k, v in sources.items()}
    )


def edges(proj):
    return sorted({(s.caller, s.callee) for s in proj.graph.sites})


class TestModuleName:
    def test_strips_src_prefix_and_extension(self):
        assert module_name("src/repro/cluster/state.py") == "repro.cluster.state"

    def test_init_is_the_package(self):
        assert module_name("src/repro/simulate/__init__.py") == "repro.simulate"


class TestResolution:
    def test_same_module_call(self):
        proj = project(src__repro__a="def g():\n    return 1\n\ndef f():\n    return g()\n")
        assert ("repro.a.f", "repro.a.g") in edges(proj)

    def test_module_level_caller_pseudo_name(self):
        proj = project(src__repro__a="def g():\n    return 1\n\nX = g()\n")
        assert ("src/repro/a.py::<module>", "repro.a.g") in edges(proj)

    def test_cross_module_from_import(self):
        proj = project(
            src__repro__util="def helper(x):\n    return x\n",
            src__repro__main=(
                "from repro.util import helper\n\ndef f():\n    return helper(1)\n"
            ),
        )
        assert ("repro.main.f", "repro.util.helper") in edges(proj)

    def test_import_module_attribute_call(self):
        proj = project(
            src__repro__util="def helper(x):\n    return x\n",
            src__repro__main=(
                "import repro.util as u\n\ndef f():\n    return u.helper(1)\n"
            ),
        )
        assert ("repro.main.f", "repro.util.helper") in edges(proj)

    def test_package_reexport_resolves_to_defining_module(self):
        proj = Project.from_sources({
            "src/repro/sim/traces.py": "def arrivals(rate):\n    return rate\n",
            "src/repro/sim/__init__.py": "from repro.sim.traces import arrivals\n",
            "src/repro/main.py": (
                "from repro.sim import arrivals\n\ndef f():\n    return arrivals(3)\n"
            ),
        })
        assert ("repro.main.f", "repro.sim.traces.arrivals") in edges(proj)

    def test_constructor_resolves_to_init(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def __init__(self, x):\n"
                "        self.x = x\n"
                "\n"
                "def make():\n"
                "    return Box(1)\n"
            ),
        )
        assert ("repro.a.make", "repro.a.Box.__init__") in edges(proj)

    def test_method_call_via_local_construction(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def refresh_row(self):\n"
                "        return 1\n"
                "\n"
                "def use():\n"
                "    b = Box()\n"
                "    return b.refresh_row()\n"
            ),
        )
        assert ("repro.a.use", "repro.a.Box.refresh_row") in edges(proj)

    def test_unique_method_fallback_for_untyped_receiver(self):
        proj = project(
            src__repro__a="def use(x):\n    return x.wrapped()\n",
            src__repro__b=(
                "class Other:\n"
                "    def wrapped(self):\n"
                "        return 2\n"
            ),
        )
        # `x` is untyped, but exactly one in-project class defines a
        # (non-ubiquitous) `wrapped` method — the fallback resolves it.
        assert ("repro.a.use", "repro.b.Other.wrapped") in edges(proj)

    def test_typed_receiver_without_method_stays_unresolved(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def get(self):\n"
                "        return 1\n"
                "\n"
                "def use():\n"
                "    b = Box()\n"
                "    return b.wrapped()\n"
            ),
            src__repro__b=(
                "class Other:\n"
                "    def wrapped(self):\n"
                "        return 2\n"
            ),
        )
        # The receiver is *known* to be a Box; Box has no `wrapped`, so
        # falling back to Other.wrapped would be unsound — stay silent.
        assert edges(proj) == []

    def test_method_call_via_annotation(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def get_value(self):\n"
                "        return 1\n"
                "\n"
                "def use(b: Box):\n"
                "    return b.get_value()\n"
            ),
        )
        assert ("repro.a.use", "repro.a.Box.get_value") in edges(proj)

    def test_self_method_call(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def inner(self):\n"
                "        return 1\n"
                "\n"
                "    def outer(self):\n"
                "        return self.inner()\n"
            ),
        )
        assert ("repro.a.Box.outer", "repro.a.Box.inner") in edges(proj)

    def test_self_attr_receiver_typed_from_init(self):
        proj = project(
            src__repro__a=(
                "class Engine:\n"
                "    def step_once(self):\n"
                "        return 1\n"
                "\n"
                "class Driver:\n"
                "    def __init__(self):\n"
                "        self._eng = Engine()\n"
                "\n"
                "    def run_all(self):\n"
                "        return self._eng.step_once()\n"
            ),
        )
        assert ("repro.a.Driver.run_all", "repro.a.Engine.step_once") in edges(proj)

    def test_denylist_blocks_common_name_fallback(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def copy(self):\n"
                "        return Box()\n"
                "\n"
                "def use(x):\n"
                "    return x.copy()\n"
            ),
        )
        # `copy` is ubiquitous (ndarray, dict, ...): an untyped receiver
        # must NOT resolve to Box.copy just because the name is unique
        # in-project.
        assert ("repro.a.use", "repro.a.Box.copy") not in edges(proj)

    def test_bound_method_args_skip_self(self):
        proj = project(
            src__repro__a=(
                "class Box:\n"
                "    def put(self, key, value):\n"
                "        return key, value\n"
                "\n"
                "def use(b: Box):\n"
                "    return b.put(1, value=2)\n"
            ),
        )
        site = next(s for s in proj.graph.sites if s.callee.endswith("Box.put"))
        assert set(site.args) == {"key", "value"}
        assert isinstance(site.args["key"], ast.Constant)

    def test_callers_and_callees_indexes(self):
        proj = project(
            src__repro__a="def g():\n    return 1\n\ndef f():\n    return g()\n"
        )
        assert [s.caller for s in proj.graph.callers_of("repro.a.g")] == ["repro.a.f"]
        assert [s.callee for s in proj.graph.callees_of("repro.a.f")] == ["repro.a.g"]


DET_SOURCES = {
    "src/repro/pkg/__init__.py": "from repro.pkg.core import run_core\n",
    "src/repro/pkg/core.py": (
        "class Engine:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "\n"
        "    def step_once(self):\n"
        "        return self.n\n"
        "\n"
        "def run_core(n):\n"
        "    eng = Engine(n)\n"
        "    return eng.step_once()\n"
    ),
    "src/repro/pkg/drive.py": (
        "from repro.pkg import run_core\n"
        "\n"
        "def main():\n"
        "    return run_core(3)\n"
    ),
    "src/repro/other.py": (
        "import repro.pkg.core as core\n"
        "\n"
        "def indirect():\n"
        "    return core.run_core(5)\n"
    ),
}


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(sorted(DET_SOURCES)))
    def test_graph_is_independent_of_file_ordering(self, order):
        baseline = Project.from_sources(DET_SOURCES).graph.to_json()
        permuted = Project.from_sources(
            {rel: DET_SOURCES[rel] for rel in order}
        ).graph.to_json()
        assert permuted == baseline

    def test_to_json_is_json_serialisable_and_sorted(self):
        doc = Project.from_sources(DET_SOURCES).graph.to_json()
        json.dumps(doc)  # no sets / AST nodes leaking through
        assert doc["nodes"] == sorted(doc["nodes"])

    def test_to_dot_lists_every_deduped_edge(self):
        proj = Project.from_sources(DET_SOURCES)
        dot = proj.graph.to_dot()
        assert dot.startswith("digraph")
        for caller, callee in edges(proj):
            assert f'"{caller}" -> "{callee}";' in dot
