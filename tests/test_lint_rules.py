"""Per-rule good/bad fixture tests for the repro linter.

Every rule gets at least one synthetic source that must trigger it and one
that must stay clean; fixtures are written into a ``src/repro/...`` shaped
temp tree so module-scoped rules (hot-path packages, exempt modules) see
realistic dotted names.
"""

from __future__ import annotations

import types

import pytest

from repro.engine import registry as registry_module
from repro.engine.registry import tree_builder

from tests.lint_utils import lint_sources, rule_ids
from tests.test_engine_registry import unregistered_entry_points


class TestREP101RngDiscipline:
    def test_stdlib_random_import_flagged(self, tmp_path):
        findings = lint_sources(
            tmp_path, {"repro/algo.py": "import random\nx = random.random()\n"}
        )
        assert "REP101" in rule_ids(findings)

    def test_from_random_import_flagged(self, tmp_path):
        findings = lint_sources(
            tmp_path, {"repro/algo.py": "from random import shuffle\n"}
        )
        assert "REP101" in rule_ids(findings)

    def test_np_random_call_flagged(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng(3)\n"
        findings = lint_sources(tmp_path, {"repro/algo.py": source})
        assert rule_ids(findings) == ["REP101"]
        assert "np.random.default_rng" in findings[0].message

    def test_legacy_np_random_draw_flagged(self, tmp_path):
        source = "import numpy\nx = numpy.random.uniform(0, 1)\n"
        findings = lint_sources(tmp_path, {"repro/algo.py": source})
        assert rule_ids(findings) == ["REP101"]

    def test_from_numpy_random_import_flagged(self, tmp_path):
        source = "from numpy.random import default_rng\n"
        findings = lint_sources(tmp_path, {"repro/algo.py": source})
        assert rule_ids(findings) == ["REP101"]

    def test_type_references_allowed(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from numpy.random import Generator, SeedSequence\n"
            "def f(rng: np.random.Generator) -> None:\n"
            "    seq = np.random.SeedSequence(1)\n"
            "    assert isinstance(rng, Generator)\n"
            "    assert seq.spawn(1)\n"
        )
        assert lint_sources(tmp_path, {"repro/algo.py": source}) == []

    def test_generator_method_named_random_allowed(self, tmp_path):
        source = "def f(rng):\n    return rng.random() < 0.5\n"
        assert lint_sources(tmp_path, {"repro/algo.py": source}) == []

    def test_utils_rng_module_exempt(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint_sources(tmp_path, {"repro/utils/rng.py": source}) == []


class TestREP102ObsGuard:
    def test_unguarded_registry_flagged(self, tmp_path):
        source = (
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.registry.counter('x').inc()\n"
        )
        findings = lint_sources(tmp_path, {"repro/core/algo.py": source})
        assert rule_ids(findings) == ["REP102"]

    def test_unguarded_tracer_flagged(self, tmp_path):
        source = "from repro.obs import OBS\ndef f():\n    OBS.tracer.event('x')\n"
        findings = lint_sources(tmp_path, {"repro/engine/algo.py": source})
        assert rule_ids(findings) == ["REP102"]

    def test_guarded_use_allowed(self, tmp_path):
        source = (
            "from repro.obs import OBS\n"
            "def f(moves):\n"
            "    if OBS.enabled and moves:\n"
            "        reg = OBS.registry\n"
            "        reg.counter('x').inc()\n"
            "        OBS.tracer.event('x')\n"
        )
        assert lint_sources(tmp_path, {"repro/core/algo.py": source}) == []

    def test_alias_guard_allowed(self, tmp_path):
        source = (
            "from repro.obs import OBS\n"
            "def f():\n"
            "    enabled = OBS.enabled\n"
            "    if enabled:\n"
            "        OBS.registry.counter('x').inc()\n"
        )
        assert lint_sources(tmp_path, {"repro/baselines/algo.py": source}) == []

    def test_is_enabled_guard_allowed(self, tmp_path):
        source = (
            "from repro.obs import OBS, is_enabled\n"
            "def f():\n"
            "    if is_enabled():\n"
            "        OBS.tracer.event('x')\n"
        )
        assert lint_sources(tmp_path, {"repro/core/algo.py": source}) == []

    def test_else_branch_not_guarded(self, tmp_path):
        source = (
            "from repro.obs import OBS\n"
            "def f():\n"
            "    if OBS.enabled:\n"
            "        pass\n"
            "    else:\n"
            "        OBS.registry.counter('x').inc()\n"
        )
        findings = lint_sources(tmp_path, {"repro/core/algo.py": source})
        assert rule_ids(findings) == ["REP102"]

    def test_cold_packages_not_checked(self, tmp_path):
        source = "from repro.obs import OBS\nOBS.registry.counter('x').inc()\n"
        assert lint_sources(tmp_path, {"repro/analysis/algo.py": source}) == []

    def test_experiments_package_is_hot(self, tmp_path):
        # repro.experiments joined HOT_PACKAGES alongside the portfolio
        # work: experiment drivers loop over many builds per trial.
        source = "from repro.obs import OBS\nOBS.registry.counter('x').inc()\n"
        findings = lint_sources(tmp_path, {"repro/experiments/algo.py": source})
        assert rule_ids(findings) == ["REP102"]

    def test_portfolio_packages_are_hot(self, tmp_path):
        from repro.lint.rules.obs import HOT_PACKAGES

        assert {"repro.engine", "repro.baselines", "repro.experiments"} <= set(
            HOT_PACKAGES
        )


class TestREP104BuilderContract:
    """REP104's fixtures, run against the checks that replaced the rule.

    ``register_builder`` rejects a bad signature (``TypeError``) or a
    duplicate name (``ValueError``) at registration, and
    ``tests/test_engine_registry.py`` walks ``repro.core`` and
    ``repro.baselines`` for public ``build_*`` functions the stock
    registration module does not import.
    """

    @staticmethod
    def fancy_module(source):
        module = types.ModuleType("repro.baselines.fancy")
        exec(source, module.__dict__)
        return module

    def test_unregistered_entry_point_flagged(self):
        module = self.fancy_module("def build_fancy_tree(network):\n    return None\n")
        assert unregistered_entry_points([module], types.SimpleNamespace()) == [
            "repro.baselines.fancy.build_fancy_tree"
        ]

    def test_registered_entry_point_allowed(self):
        module = self.fancy_module(
            "def build_fancy_tree(network, *, knob=1):\n    return None\n"
        )
        registered = types.SimpleNamespace(build_fancy_tree=module.build_fancy_tree)
        assert unregistered_entry_points([module], registered) == []

    def test_private_helpers_not_required(self):
        module = self.fancy_module("def _build_scratch_tree(network):\n    return None\n")
        assert unregistered_entry_points([module], types.SimpleNamespace()) == []

    def test_bad_first_parameter_flagged(self):
        def _build_x(graph, *, knob=1):
            return None

        with pytest.raises(TypeError, match="'network'"):
            tree_builder("_rep104_x")(_build_x)
        assert "_rep104_x" not in registry_module._REGISTRY

    def test_extra_positional_flagged(self):
        def _build_x(network, depth):
            return None

        def _build_y(network, *extra):
            return None

        for fn in (_build_x, _build_y):
            with pytest.raises(TypeError, match="keyword-only"):
                tree_builder("_rep104_x")(fn)
        assert "_rep104_x" not in registry_module._REGISTRY

    def test_duplicate_names_flagged_at_both_sites(self):
        def _a(network):
            return None

        def _b(network):
            return None

        tree_builder("_rep104_dup")(_a)
        try:
            with pytest.raises(ValueError, match="already registered"):
                tree_builder("_rep104_dup")(_b)
            assert registry_module._REGISTRY["_rep104_dup"].fn is _a
        finally:
            registry_module._REGISTRY.pop("_rep104_dup", None)
