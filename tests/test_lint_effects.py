"""Effect inference: direct effects, fixpoint propagation, witnesses.

Fixture tests pin the propagation rule (``blocks`` stops at async
callees) and that an rng capture stays a property of the capturing
function.  The
real-repository tests exercise the fixpoint on ``src/`` itself.
"""

from __future__ import annotations

from pathlib import Path

from tests.lint_utils import write_tree
from repro.lint.driver import build_project
from repro.lint.effects import BLOCKS, is_blocking_chain

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def effects_for(tmp_path, files):
    project, parse_errors = build_project([write_tree(tmp_path, files)])
    assert parse_errors == []
    return project.effect_analysis()


class TestDirectEffects:
    def test_blocking_primitives(self, tmp_path):
        analysis = effects_for(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "def f():\n"
                "    time.sleep(1)\n"
                "def g(path):\n"
                "    return path.read_text()\n"
                "def h():\n"
                "    pass\n"
            ),
        })
        assert analysis.has_effect("repro.mod:f", BLOCKS)
        assert analysis.has_effect("repro.mod:g", BLOCKS)
        assert not analysis.has_effect("repro.mod:h", BLOCKS)

    def test_is_blocking_chain_requires_receiver_for_tails(self):
        assert is_blocking_chain("time.sleep", "time.sleep")
        assert is_blocking_chain("path.read_text", "path.read_text")
        assert is_blocking_chain("subprocess.run", "subprocess.run")
        # A bare name matching a tail is not blocking: `connect()` could be
        # anything, only `sock.connect()` is the socket primitive.
        assert not is_blocking_chain("connect", "connect")


class TestPropagation:
    def test_blocks_propagates_through_sync_chain(self, tmp_path):
        analysis = effects_for(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "def leaf():\n"
                "    time.sleep(1)\n"
                "def mid():\n"
                "    leaf()\n"
                "def top():\n"
                "    mid()\n"
            ),
        })
        assert analysis.has_effect("repro.mod:top", BLOCKS)
        witness = analysis.witness("repro.mod:top", BLOCKS)
        assert "mid()" in witness and "time.sleep" in witness

    def test_blocks_does_not_propagate_from_async_callee(self, tmp_path):
        # An async callee's own blocking problem is *its* REP108 finding;
        # callers that await it do not inherit "blocks".
        analysis = effects_for(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "async def bad():\n"
                "    time.sleep(1)\n"
                "async def caller():\n"
                "    await bad()\n"
            ),
        })
        assert analysis.has_effect("repro.mod:bad", BLOCKS)
        assert not analysis.has_effect("repro.mod:caller", BLOCKS)

    def test_unpicklable_capture_never_propagates(self, tmp_path):
        analysis = effects_for(tmp_path, {
            "repro/mod.py": (
                "def worker(rng):\n"
                "    def task():\n"
                "        return rng.random()\n"
                "    return task\n"
                "def outer(rng):\n"
                "    worker(rng)\n"
            ),
        })
        nodes = analysis.graph.nodes
        assert nodes["repro.mod:worker.<locals>.task"].summary.rng_capture
        assert not nodes["repro.mod:worker"].summary.rng_capture
        assert not nodes["repro.mod:outer"].summary.rng_capture


class TestRealRepository:
    """Fixpoint over src/ itself — not just fixtures."""

    def analysis(self):
        project, parse_errors = build_project([SRC])
        assert parse_errors == []
        return project.effect_analysis()

    def test_fixpoint_converges_on_full_repo(self):
        analysis = self.analysis()
        assert analysis.iterations < 10_000
        assert analysis.effects  # something was inferred

    def test_sync_tcp_client_blocks(self):
        # The obs top client opens a raw socket — a sync context, so no
        # REP108, but the effect itself must be inferred.
        analysis = self.analysis()
        assert analysis.has_effect("repro.obs.top:ServeClient.__init__", BLOCKS)

    def test_async_server_loop_does_not_block(self):
        # TreeServer's batch loop is the hot async path; if "blocks" ever
        # appears here the REP108 self-check would fire.
        analysis = self.analysis()
        node = "repro.serve.server:TreeServer._batch_loop"
        assert node in analysis.graph.nodes
        assert not analysis.has_effect(node, BLOCKS)
