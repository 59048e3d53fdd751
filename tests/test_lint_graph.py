"""Summary extraction and call graph — adversarial shapes.

The shapes here are the ones that break naive resolvers: import cycles,
``from x import *``, decorated and re-exported builders, function-level
imports.  The final class pins the graph on the real repository: build
never crashes, every ``@tree_builder`` entry point resolves to a node,
and calls into the TreeState engine resolve across modules.
"""

from __future__ import annotations

from pathlib import Path

from tests.lint_utils import write_tree
from repro.lint.driver import build_project

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def project_for(tmp_path, files):
    project, parse_errors = build_project([write_tree(tmp_path, files)])
    assert parse_errors == []
    return project


class TestSummaryExtraction:
    def test_functions_methods_and_nested_defs(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/mod.py": (
                "class C:\n"
                "    def m(self):\n"
                "        def inner():\n"
                "            pass\n"
                "        inner()\n"
                "def top():\n"
                "    pass\n"
            ),
        })
        summary = project.module_summary("repro.mod")
        quals = {fn.qualname for fn in summary.functions}
        assert quals == {"C.m", "C.m.<locals>.inner", "top"}
        inner = next(f for f in summary.functions if f.nested)
        assert inner.parent_class is None

    def test_call_sites_record_await_and_args(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/mod.py": (
                "async def f(rng, my_rng):\n"
                "    await g(rng)\n"
                "    h(my_rng, seed=1)\n"
            ),
        })
        summary = project.module_summary("repro.mod")
        fn = summary.functions[0]
        by_chain = {c.chain: c for c in fn.calls}
        assert by_chain["g"].awaited and not by_chain["h"].awaited
        assert by_chain["g"].args[0].rng
        assert by_chain["h"].args[0].rng
        assert by_chain["h"].args[1].keyword == "seed"

    def test_augassign_orders_read_before_value_before_write(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/mod.py": (
                "class C:\n"
                "    async def m(self):\n"
                "        self.x += await g()\n"
            ),
        })
        summary = project.module_summary("repro.mod")
        fn = next(f for f in summary.functions if f.name == "m")
        kinds = [(e.kind, e.detail) for e in fn.events]
        read = kinds.index(("read", "x"))
        awaited = kinds.index(("await", ""))
        write = kinds.index(("write", "x"))
        assert read < awaited < write


class TestImportResolution:
    def test_cycles_do_not_crash_and_both_edges_exist(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/a.py": "from repro.b import f\ndef g():\n    f()\n",
            "repro/b.py": "def f():\n    pass\n\ndef h():\n    from repro.a import g\n    g()\n",
        })
        graph = project.call_graph()
        assert "repro.b:f" in graph.edges["repro.a:g"]
        assert "repro.a:g" in graph.edges["repro.b:h"]

    def test_lazy_function_level_imports_are_edges(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/backend.py": (
                "def load():\n"
                "    from repro.impl import make\n"
                "    return make()\n"
            ),
            "repro/impl.py": "def make():\n    pass\n",
        })
        graph = project.call_graph()
        assert "repro.impl:make" in graph.edges["repro.backend:load"]


class TestCallGraph:
    def test_recursive_cycle_resolves_without_hanging(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/a.py": (
                "def f(n):\n"
                "    return g(n)\n"
                "def g(n):\n"
                "    return f(n - 1) if n else 0\n"
            ),
        })
        graph = project.call_graph()
        assert "repro.a:g" in graph.edges["repro.a:f"]
        assert "repro.a:f" in graph.edges["repro.a:g"]

    def test_star_import_resolves_callee(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/lib.py": "def helper():\n    pass\n",
            "repro/use.py": "from repro.lib import *\n\ndef run():\n    helper()\n",
        })
        graph = project.call_graph()
        assert "repro.lib:helper" in graph.edges["repro.use:run"]

    def test_alias_and_reexport_resolution(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/impl.py": "def build_x(network):\n    pass\n",
            "repro/pkg/__init__.py": "from repro.impl import build_x\n",
            "repro/use.py": (
                "from repro.impl import build_x as bx\n"
                "def run(network):\n"
                "    bx(network)\n"
            ),
        })
        graph = project.call_graph()
        assert "repro.impl:build_x" in graph.edges["repro.use:run"]

    def test_decorated_builder_registers_in_builders_map(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/b.py": (
                "from repro.engine.registry import tree_builder\n"
                "@tree_builder('fancy')\n"
                "def build_fancy(network, *, depth=2):\n"
                "    pass\n"
            ),
        })
        graph = project.call_graph()
        assert graph.builders == {"fancy": "repro.b:build_fancy"}

    def test_self_method_resolution_through_bases(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/mod.py": (
                "class Base:\n"
                "    def helper(self):\n"
                "        pass\n"
                "class Child(Base):\n"
                "    def run(self):\n"
                "        self.helper()\n"
            ),
        })
        graph = project.call_graph()
        assert "repro.mod:Base.helper" in graph.edges["repro.mod:Child.run"]

    def test_nested_def_shadows_module_function(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/mod.py": (
                "def helper():\n"
                "    pass\n"
                "def outer():\n"
                "    def helper():\n"
                "        pass\n"
                "    helper()\n"
            ),
        })
        graph = project.call_graph()
        assert graph.edges["repro.mod:outer"] == {
            "repro.mod:outer.<locals>.helper"
        }

    def test_class_call_resolves_to_init(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/mod.py": (
                "class Thing:\n"
                "    def __init__(self, n):\n"
                "        self.n = n\n"
                "def make():\n"
                "    return Thing(3)\n"
            ),
        })
        graph = project.call_graph()
        assert "repro.mod:Thing.__init__" in graph.edges["repro.mod:make"]


class TestRealRepository:
    """The acceptance pins: the whole-program layer holds on src/ itself."""

    def project(self):
        project, parse_errors = build_project([SRC])
        assert parse_errors == []
        return project

    def test_graph_builds_without_crashing_and_is_nontrivial(self):
        project = self.project()
        graph = project.call_graph()
        assert len(graph.nodes) > 500
        assert sum(len(t) for t in graph.edges.values()) > 400

    def test_all_tree_builder_entry_points_resolve(self):
        project = self.project()
        graph = project.call_graph()
        registered = set(project.tree_builder_registrations())
        assert registered, "no @tree_builder registrations found in src/"
        assert set(graph.builders) == registered
        for name, node_id in graph.builders.items():
            assert node_id in graph.nodes, (name, node_id)
            fn = graph.nodes[node_id].summary
            assert fn.pos_params and fn.pos_params[0] == "network", name

    def test_treestate_calls_resolve_cross_module(self):
        # The delay-bounded baseline thaws its seed tree and freezes the
        # single-node case through the engine module; both calls must
        # resolve across the module boundary.
        project = self.project()
        graph = project.call_graph()
        callees = graph.edges[
            "repro.baselines.delay_bounded:build_delay_bounded_tree"
        ]
        assert "repro.engine.treestate:TreeState.from_tree" in callees
        assert "repro.engine.treestate:freeze_parents" in callees
