"""The object-engine import path stays free of numpy.

numpy takes about 0.1 s to import, half the set-up of a typical
object-engine run; only the flat engine (``repro.scale``) needs it.
This pins that the packages an object-engine run goes through, and the
run itself, never load it: an import of numpy (or of ``repro.scale``)
landing in ``repro.sim`` or ``repro.scenario`` would fail here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro, repro.scenario, repro.experiments, repro.validate, repro.live.session
from repro.scenario.library import get_scenario
get_scenario("initial_holders").build().run()
loaded = sorted(name for name in sys.modules
                if name == "numpy" or name.startswith(("numpy.", "repro.scale")))
print(",".join(loaded))
"""


def test_object_engine_run_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == ""


CLI_PROGRAM = """
import contextlib, io, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["list"]) == 0
heavy = sorted(name for name in sys.modules
               if name in ("numpy", "asyncio") or name.startswith("repro.live"))
print(",".join(heavy))
"""


def test_cli_list_loads_neither_numpy_nor_the_live_stack():
    """Each ``rrmp`` handler imports its own subsystem, so ``rrmp list``
    pays for none of numpy, asyncio or the live runtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CLI_PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == ""
