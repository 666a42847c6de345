"""The process image: heavy optional modules load only where they run.

Every engine and serving process (a forked ``ProcCluster`` worker
inherits its parent's image) would otherwise carry ``networkx`` (the NoC
topologies), ``scipy.linalg`` (the tuned backend's BLAS ``?ger``) and
``asyncio`` (``AsyncFrontend``) without calling into them.  Each check
runs in a fresh interpreter, since this test process has long imported
all three.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEAVY = ("networkx", "scipy", "asyncio")


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_reference_engine_and_server_load_no_heavy_module():
    out = run_fresh(f"""
        import sys
        import numpy as np
        import repro, repro.core.engine, repro.serve, repro.obs
        from repro.core import HiMAConfig
        from repro.core.engine import TiledEngine
        from repro.serve import SessionServer

        config = HiMAConfig(
            memory_size=32, word_size=16, num_reads=2, num_tiles=4,
            hidden_size=32, two_stage_sort=False, backend="reference",
        )
        engine = TiledEngine(config, rng=0)
        engine.step(np.zeros(16), engine.initial_state())
        server = SessionServer(TiledEngine(config, rng=0), max_wait_ticks=0)
        request = server.submit(server.open_session(), np.zeros(16))
        server.run_tick()
        assert request.done
        print(sorted(m for m in {HEAVY!r} if m in sys.modules))
    """)
    assert out == "[]"


def test_tuned_engine_resolves_ger_when_scipy_is_importable():
    scipy_present = importlib.util.find_spec("scipy") is not None
    out = run_fresh("""
        import numpy as np
        from repro.core import HiMAConfig
        from repro.core.engine import TiledEngine

        engine = TiledEngine(HiMAConfig(
            memory_size=128, word_size=16, num_reads=2, num_tiles=4,
            hidden_size=32, backend="tuned", dtype="float64",
        ), rng=0)
        linkage = engine.initial_state(batch_size=2).linkage
        print(engine.backend._ger(linkage) is not None)
    """)
    assert out == str(scipy_present)


def test_topologies_and_the_async_frontend_still_import():
    out = run_fresh("""
        import sys
        from repro.noc import build_topology
        from repro.serve import AsyncFrontend
        from repro.serve import *  # noqa: F401,F403

        topology = build_topology("hima", 16)
        print(topology.num_pts, AsyncFrontend.__name__,
              "networkx" in sys.modules, "asyncio" in sys.modules)
    """)
    assert out == "16 AsyncFrontend True True"

