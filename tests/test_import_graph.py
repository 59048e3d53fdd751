"""What importing the package loads: no LP solver until one is used.

``scipy.optimize`` costs ~49 MB and ~0.5 s to import.  Only the IRA LP
(:mod:`repro.core.lp`) and the exact MILP (:mod:`repro.core.exact`) use
it, so they import it on their first solve; ``import repro`` and a server
that builds no ``ira`` or ``exact`` tree never load it.  A server's first
LP build loads it in a thread, not on the event loop.  Checked in fresh
interpreters, since this one has long since imported it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    import repro.core.exact
    import repro.core.lp
    import repro.serve
    import repro.serve.tcp

    assert "scipy.optimize" not in sys.modules, "an import loaded the LP solver"

    from tests.test_builder_pins import _load_pins, build_pinned

    pins = _load_pins()
    for builder in ("ira", "exact"):
        assert build_pinned(builder, 16, 1) == pins[f"{builder}/n16/s1"], builder
    assert "scipy.optimize" in sys.modules
    print("ok")
    """
)


def test_no_lp_solver_until_the_first_solve():
    done = _run(SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


SERVE_SCRIPT = textwrap.dedent(
    """
    import asyncio
    import logging
    import sys

    from repro.engine import build_tree
    from repro.network import random_graph
    from repro.serve import BuildRequest, TreeServer

    stalls = []


    class Stalls(logging.Handler):
        def emit(self, record):
            message = record.getMessage()
            if message.startswith("Executing ") and " took " in message:
                stalls.append(message)


    logging.getLogger("asyncio").addHandler(Stalls())
    net = random_graph(10, 0.6, seed=12)
    lc = 0.5 * build_tree("bfs", net).lifetime


    async def main():
        asyncio.get_running_loop().slow_callback_duration = 0.25
        async with TreeServer() as server:
            await server.submit(BuildRequest("ira", network=net, params={"lc": lc}))


    assert "scipy.optimize" not in sys.modules
    asyncio.run(main(), debug=True)
    assert "scipy.optimize" in sys.modules
    assert not stalls, stalls
    print("ok")
    """
)


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_first_served_lp_build_loads_the_solver_off_the_event_loop():
    done = _run(SERVE_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
