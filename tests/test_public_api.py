"""Meta-tests: the public API surface is importable and consistent."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.distributed",
    "repro.engine",
    "repro.experiments",
    "repro.network",
    "repro.prufer",
    "repro.simulation",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    """Every name in __all__ is an actual attribute."""
    module = importlib.import_module(package)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), f"duplicates in {package}.__all__"


def test_every_submodule_imports():
    """No module in the tree has import-time errors."""
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if not hasattr(pkg, "__path__"):
            continue
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{pkg_name}.{info.name}")


def _all_modules():
    """Every module under ``repro`` except the ``__main__`` script entry points."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    return [
        importlib.import_module(name)
        for name in names
        if name.rpartition(".")[2] != "__main__"
    ]


def test_every_module_all_is_unique_and_resolves():
    problems = []
    for module in _all_modules():
        names = getattr(module, "__all__", None)
        if names is None:
            problems.append(f"{module.__name__} has no __all__")
            continue
        if len(names) != len(set(names)):
            problems.append(f"duplicates in {module.__name__}.__all__")
        problems += [
            f"{module.__name__}.__all__ lists missing {name!r}"
            for name in names
            if not hasattr(module, name)
        ]
    assert problems == []


def test_every_repro_from_import_resolves():
    """``from repro.x import name`` at any level names an attribute or submodule."""
    problems = []
    checked = 0
    for module in _all_modules():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            relative_name = "." * node.level + (node.module or "")
            target = importlib.util.resolve_name(relative_name, module.__package__)
            if target != "repro" and not target.startswith("repro."):
                continue
            source = importlib.import_module(target)
            for alias in node.names:
                if alias.name == "*":
                    continue
                checked += 1
                if hasattr(source, alias.name):
                    continue
                try:
                    importlib.import_module(f"{target}.{alias.name}")
                except ImportError:
                    problems.append(
                        f"{module.__name__}:{node.lineno}: "
                        f"'from {target} import {alias.name}' does not resolve"
                    )
    assert checked > 0
    assert problems == []


def test_every_public_callable_has_docstring():
    """Every public item exported at the top level is documented."""
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(p.isdigit() for p in parts[:2])
