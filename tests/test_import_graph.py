"""The import graph: heavy modules load only where they run, and the
package layers import only downward.

Every engine and serving process (a forked ``ProcCluster`` worker
inherits its parent's image) would otherwise carry ``networkx`` (the NoC
topologies), ``scipy.linalg`` (the tuned backend's BLAS ``?ger``) and
``asyncio`` (``AsyncFrontend``) without calling into them.  Each of
those checks runs in a fresh interpreter, since this test process has
long imported all three.

The layering checks read the import statements of the source files
(function-local imports included) without importing anything: the
serving layer reaches the DNC state through :mod:`repro.dnc.state`, not
through the oracle, and :mod:`repro.dnc` imports nothing from
:mod:`repro.core` (which imports the oracle, so such an edge would be a
cycle).
"""

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "repro"
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



def imported_modules(path: Path):
    """Every module an ``import`` statement in ``path`` names, with each
    ``from X import y`` also yielding ``X.y`` (``y`` may be a module)."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def imports_of(subpackage: str, target: str):
    """``(file, module)`` for each import under ``subpackage`` of
    ``target`` or one of its submodules."""
    return sorted(
        (str(path.relative_to(SRC)), module)
        for path in (PACKAGE / subpackage).rglob("*.py")
        for module in imported_modules(path)
        if module == target or module.startswith(target + ".")
    )


def test_layering_scan_sees_the_imports_it_forbids():
    # The scan itself: the engine does import the oracle, and through a
    # ``from repro.dnc import numpy_ref`` form too.
    assert ("repro/core/engine.py", "repro.dnc.numpy_ref") in imports_of(
        "core", "repro.dnc.numpy_ref"
    )


def test_serving_layer_does_not_import_the_oracle():
    assert imports_of("serve", "repro.dnc.numpy_ref") == []


def test_dnc_package_imports_nothing_from_core():
    assert imports_of("dnc", "repro.core") == []
