"""The benchmark's own tests, at reduced size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.engine import build_tree  # noqa: E402
from repro.network import random_graph  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench.certify import (  # noqa: E402
    CertificationError,
    certify,
    check_pins,
    check_reported,
    input_digest,
    tree_digest,
)
from perfbench.ira_workload import IraWorkload  # noqa: E402
from perfbench.outcome import Outcome, Phase  # noqa: E402
from perfbench.serve_workload import ServeWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "ira-tight": IraWorkload(
        name="ira-tight",
        n_nodes=10,
        link_probability=0.5,
        energy_range=(1500.0, 5000.0),
        lc_rule="aaml",
        pool_size=4,
    ),
    "ira-loose": IraWorkload(
        name="ira-loose",
        n_nodes=10,
        link_probability=0.6,
        energy_range=None,
        lc_rule="half-bfs",
        pool_size=4,
    ),
    "serve-mixed": ServeWorkload(n_nodes=14, preregistered=2, register_every_s=0.3),
}


def test_workloads_match_the_spec():
    assert sorted(SMALL) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(bench._workloads()) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = bench.run(SMALL[name], seed=3, seconds=1.2, trace=trace, pins=None)
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"], capsys.readouterr().err
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = capsys.readouterr().out
    for metric, unit in expected.items():
        assert metric in printed and unit in printed
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)


@pytest.fixture
def small_tree():
    net = random_graph(12, 0.5, seed=7)
    lc = 0.5 * build_tree("bfs", net).lifetime
    parents = build_tree("mst", net).tree.parents
    return net, lc, parents


def test_valid_tree_certifies(small_tree):
    net, lc, parents = small_tree
    cert = certify(net, parents)
    built = build_tree("mst", net)
    check_reported(
        cert,
        {"cost": built.cost, "reliability": built.reliability, "lifetime": built.lifetime},
    )


def _non_edge(net, v):
    return next(u for u in range(net.n) if u != v and not net.has_edge(u, v))


@pytest.mark.parametrize("corruption", ["cycle", "missing", "non-edge", "lifetime", "metric"])
def test_corrupted_tree_fails_certification(small_tree, corruption):
    net, lc, parents = small_tree
    bad = dict(parents)
    leaf = next(v for v in sorted(bad) if v not in bad.values())
    if corruption == "cycle":
        v, p = next((v, p) for v, p in bad.items() if p != net.sink)
        bad[p] = v  # v -> p -> v
        with pytest.raises(CertificationError):
            certify(net, bad)
    elif corruption == "missing":
        del bad[leaf]
        with pytest.raises(CertificationError):
            certify(net, bad)
    elif corruption == "non-edge":
        bad[leaf] = _non_edge(net, leaf)
        with pytest.raises(CertificationError):
            certify(net, bad)
    elif corruption == "lifetime":
        lifetime = certify(net, bad).lifetime
        with pytest.raises(CertificationError):
            certify(net, bad, lc=lifetime * 1.01)
    else:
        cert = certify(net, bad)
        reported = {"cost": cert.cost * 1.001, "reliability": cert.reliability, "lifetime": cert.lifetime}
        with pytest.raises(CertificationError):
            check_reported(cert, reported)


def test_corrupted_ira_report_fails_certification():
    workload = SMALL["ira-tight"]
    inputs, _, warm = workload._setup(seed=3)
    net, lc = inputs[0]
    result = build_tree("ira", net, lc=lc)
    honest = {"cost": result.cost, "reliability": result.reliability, "lifetime": result.lifetime}
    phase = Phase(outputs=[(0, (result.tree.parents, honest))])
    failures, _ = workload._verify(inputs, [phase], warm, pins=None)
    assert failures == []
    for name in honest:
        lying = {**honest, name: honest[name] * 1.001}
        phase = Phase(outputs=[(0, (result.tree.parents, lying))])
        failures, _ = workload._verify(inputs, [phase], warm, pins=None)
        assert len(failures) == 1 and f"reported {name}" in failures[0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_span_that_stops_catching_calls_fails_the_run(name):
    workload = SMALL[name]
    required = bench.SERVE_SPANS if name == "serve-mixed" else bench.LP_SPANS
    calls = {span: 5 for span in required}
    outcome = Outcome(setup_s=[0.1], gen_s_per_input=0.1, span_calls=calls, attributed_frac=1.0)
    assert bench.wiring_failures(workload, outcome) == []
    for span in required:
        outcome.span_calls = {**calls, span: 0}
        assert bench.wiring_failures(workload, outcome)


def test_serve_fails_on_lp_work():
    outcome = Outcome(
        setup_s=[0.1],
        gen_s_per_input=0.1,
        span_calls={**{span: 5 for span in bench.SERVE_SPANS}, "separation": 1},
    )
    (failure,) = bench.wiring_failures(SMALL["serve-mixed"], outcome)
    assert "separation" in failure


def test_ira_fails_when_layers_leave_time_unexplained():
    outcome = Outcome(
        setup_s=[0.1],
        gen_s_per_input=0.1,
        span_calls={span: 5 for span in bench.LP_SPANS},
        attributed_frac=0.5,
    )
    (failure,) = bench.wiring_failures(SMALL["ira-loose"], outcome)
    assert "explain" in failure


@pytest.mark.parametrize("name", ["ira-tight", "ira-loose", "serve-mixed"])
def test_traced_run_reproduces_the_predicted_split(name, capsys):
    """At the real workload sizes, on a short run."""
    workload = bench._workloads()[name]
    result = bench.run(workload, seed=5, seconds=4.0, trace=True, pins=bench.load_pins(name))
    assert result["correct"], capsys.readouterr().err
    values = {metric: v["value"] for metric, v in result["metrics"].items()}
    split = bench.predicted_split(name, values)
    assert split and all(holds for _, holds in split), split
    if name == "serve-mixed":
        assert values["trace.attributed_frac"] < 1.0


def test_changed_tree_fails_the_reference_check(small_tree):
    net, lc, parents = small_tree
    key = input_digest("mst", net, {})
    pins = {key: tree_digest(parents, certify(net, parents))}
    assert check_pins({key: pins[key]}, pins) == []
    # Re-hang one node under another neighbour: a valid spanning tree, but
    # not the pinned one.
    for v in sorted(parents):
        for u in net.neighbors(v):
            changed = {**parents, v: u}
            if u == parents[v]:
                continue
            try:
                cert = certify(net, changed)
            except CertificationError:
                continue  # u lies in v's subtree
            assert check_pins({key: tree_digest(changed, cert)}, pins)
            assert check_pins({"unpinned-input": pins[key]}, pins)
            return
    pytest.fail("no alternative spanning tree found")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_default_canaries_are_pinned(name):
    workload = bench._workloads()[name]
    pins = bench.load_pins(name)
    keys = [input_digest(b, net, params) for b, net, params in workload.canary_specs()]
    assert keys and all(key in pins for key in keys)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ira-tight", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
