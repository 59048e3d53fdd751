"""Builder registry: names, knobs, BuildResult shape, CLI listing."""

import importlib
import inspect
import pkgutil

import pytest

import repro.baselines
import repro.core
import repro.engine.builders

from repro.core.tree import AggregationTree
from repro.engine import (
    BuildResult,
    UnknownBuilderError,
    available_builders,
    build_tree,
    get_builder,
    tree_builder,
)
from repro.engine import registry as registry_module
from repro.engine.registry import RegisteredBuilder, register_builder
from repro.network.dfl import dfl_network
from repro.network.topology import random_graph

pytestmark = pytest.mark.usefixtures("retired_engine_setting")

#: Every builder the issue requires to be resolvable by canonical name.
REQUIRED_NAMES = (
    "ira",
    "exact",
    "local_search",
    "aaml",
    "rasmalai",
    "mst",
    "spt",
    "random_tree",
    "delay_bounded",
)


def test_required_builders_registered():
    names = available_builders()
    for required in REQUIRED_NAMES:
        assert required in names
    assert names == tuple(sorted(names))


@pytest.mark.parametrize("name", REQUIRED_NAMES)
def test_builders_satisfy_protocol(name):
    builder = get_builder(name)
    assert isinstance(builder, RegisteredBuilder)
    assert builder.name == name
    assert builder.summary  # docstring one-liner
    assert isinstance(builder.knobs, dict)
    described = builder.describe()
    assert described.startswith(f"{name} — ")
    for knob in builder.knobs:
        assert knob in described


def test_unknown_builder_error_lists_names():
    with pytest.raises(UnknownBuilderError) as err:
        get_builder("no_such_builder")
    message = err.value.args[0]
    assert "no_such_builder" in message
    for name in ("ira", "mst", "aaml"):
        assert name in message


def test_build_tree_returns_build_result():
    net = random_graph(14, 0.6, seed=30)
    result = build_tree("mst", net)
    assert isinstance(result, BuildResult)
    assert result.builder == "mst"
    assert isinstance(result.tree, AggregationTree)
    assert result.cost == pytest.approx(result.tree.cost())
    assert result.reliability == pytest.approx(result.tree.reliability())
    assert result.lifetime == pytest.approx(result.tree.lifetime())
    assert result.elapsed_s >= 0.0
    assert result.params == {}


def test_build_tree_records_params_and_meta():
    net = dfl_network()
    aaml = build_tree("aaml", net)
    assert aaml.meta["iterations"] >= 0
    result = build_tree("ira", net, lc=aaml.lifetime / 2.0)
    assert result.params == {"lc": aaml.lifetime / 2.0}
    assert result.meta["lifetime_satisfied"] is True
    assert result.tree.lifetime() >= aaml.lifetime / 2.0 * (1 - 1e-9)


@pytest.mark.parametrize("name", ["mst", "spt", "aaml", "bfs"])
def test_knobless_builds_are_deterministic(name):
    net = random_graph(12, 0.7, seed=31)
    a = build_tree(name, net)
    b = build_tree(name, net)
    assert a.tree.parents == b.tree.parents


def test_seeded_builders_reproduce():
    net = random_graph(15, 0.6, seed=32)
    for name in ("random_tree", "rasmalai"):
        a = build_tree(name, net, seed=5)
        b = build_tree(name, net, seed=5)
        assert a.tree.parents == b.tree.parents


def test_registry_rejects_duplicate_names():
    @tree_builder("_test_dup", knobs={})
    def _dup_one(network):
        """Throwaway registration used only by this test."""
        raise NotImplementedError

    try:
        with pytest.raises(ValueError):

            @tree_builder("_test_dup", knobs={})
            def _dup_two(network):
                """Second registration under the same name must fail."""
                raise NotImplementedError

    finally:
        registry_module._REGISTRY.pop("_test_dup", None)


#: The settable knobs of every stock builder: only knobs some caller sets.
STOCK_KNOBS = {
    "aaml": [],
    "bfs": [],
    "clmt": [],
    "convergecast": [],
    "delay_bounded": ["max_depth"],
    "dlmt": [],
    "exact": ["lc"],
    "ira": ["lc"],
    "local_search": ["lc"],
    "min_energy": [],
    "mst": [],
    "portfolio": ["budget_s", "lc", "members", "n_jobs", "seed"],
    "random_tree": ["seed"],
    "rasmalai": ["seed"],
    "spt": [],
}


def _keyword_only(fn):
    return sorted(
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    )


def test_every_stock_builder_declares_exactly_its_keyword_parameters():
    assert {name: sorted(get_builder(name).knobs) for name in available_builders()} == (
        STOCK_KNOBS
    )
    for name in available_builders():
        builder = get_builder(name)
        assert sorted(builder.knobs) == _keyword_only(builder.fn), name


def _undeclared_knob(network, *, depth=4):
    """Fixture builder whose knob list misses its ``depth`` parameter."""
    raise NotImplementedError


def _phantom_knob(network):
    """Fixture builder declaring a knob it does not take."""
    raise NotImplementedError


def _open_knobs(network, **config):
    """Fixture builder taking any keyword at all."""
    raise NotImplementedError


@pytest.mark.parametrize(
    "fn,knobs",
    [(_undeclared_knob, {}), (_phantom_knob, {"depth": "d"}), (_open_knobs, {"config": "c"})],
)
def test_register_refuses_knobs_that_differ_from_the_signature(fn, knobs):
    with pytest.raises(TypeError, match="keyword-only"):
        register_builder(
            RegisteredBuilder(name="_test_knobs", fn=fn, summary="x", knobs=knobs)
        )
    assert "_test_knobs" not in registry_module._REGISTRY


@pytest.mark.parametrize("shape", ["triple", "build_result", "parents"])
def test_build_accepts_only_a_tree_or_a_tree_meta_pair(shape):
    net = random_graph(8, 0.7, seed=33)
    tree = build_tree("mst", net).tree
    out = {
        "triple": (tree, {}, None),
        "build_result": BuildResult(builder="x", tree=tree),
        "parents": dict(tree.parents),
    }[shape]
    builder = RegisteredBuilder(
        name="_test_shape", fn=lambda network: out, summary="x", knobs={}
    )
    with pytest.raises(TypeError, match=r"\(tree, meta\) pair"):
        builder.build(net)
    pair = RegisteredBuilder(
        name="_test_pair", fn=lambda network: (tree, {"k": 1}), summary="x", knobs={}
    )
    assert pair.build(net).meta == {"k": 1}


def unregistered_entry_points(modules, registered):
    """Public ``build_*`` functions defined in *modules* but not in *registered*.

    A function counts as registered when *registered* (the stock
    registration module) holds that same object under its name.
    """
    return sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if name.startswith("build_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and getattr(registered, name, None) is not obj
    )


def test_every_public_build_function_is_registered():
    modules = [
        importlib.import_module(info.name)
        for package in (repro.core, repro.baselines)
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
    ]
    assert len(modules) > 10
    assert unregistered_entry_points(modules, repro.engine.builders) == []


def test_cli_builders_subcommand_lists_everything(capsys):
    from repro.cli import main

    assert main(["builders"]) == 0
    out = capsys.readouterr().out
    for name in REQUIRED_NAMES:
        assert name in out
    assert "lc" in out  # knob help lines are printed


def test_parallel_build_matches_serial():
    from functools import partial

    from repro.experiments.parallel import parallel_map

    results = parallel_map(
        partial(_registry_test_build, "mst", {}), 4, n_jobs=2
    )
    assert [r.builder for r in results] == ["mst"] * 4
    serial = parallel_map(partial(_registry_test_build, "mst", {}), 4)
    assert [r.tree.parents for r in results] == [r.tree.parents for r in serial]
    with pytest.raises(UnknownBuilderError):
        parallel_map(partial(_registry_test_build, "bogus", {}), 2, n_jobs=2)


def _registry_test_build(name, config, index):
    """Module-level trial so parallel_map's work items can pickle."""
    return build_tree(name, random_graph(10, 0.8, seed=1000 + index), **config)
