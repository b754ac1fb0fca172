"""Each name has one import path: the module that defines it.

Package ``__init__`` files hold their docstring and nothing else, so
importing one module loads only what that module imports, and no
import cycle can hide behind a package's re-exports.  Two kinds of
package-level name stay: ``repro.__version__``, which ``pyproject.toml``
reads, and the seven names ``benchmarks/ledger/`` imports through a
package (nothing else may use those paths).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: package -> {name: defining module} for the ledger's package imports.
LEDGER_REEXPORTS = {
    "repro.scenario": {"build_scenario": "repro.scenario.materialize",
                       "get_scenario": "repro.scenario.library",
                       "scenario_names": "repro.scenario.library"},
    "repro.runner": {"Runner": "repro.runner.runner",
                     "SerialBackend": "repro.runner.backends",
                     "using_runner": "repro.runner.runner"},
    "repro.experiments": {"EXPERIMENTS": "repro.experiments.registry"},
}


def _package_of(init: Path) -> str:
    return ".".join(init.parent.relative_to(SRC).parts)


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


def _is_module(module: str) -> bool:
    path = SRC.joinpath(*module.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


INITS = sorted(SRC.joinpath("repro").rglob("__init__.py"))


@pytest.mark.parametrize("init", INITS, ids=lambda path: _package_of(path))
def test_a_package_init_is_its_docstring(init):
    package = _package_of(init)
    body = ast.parse(init.read_text()).body
    assert body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant), (
        f"{package} has no docstring")
    reexported = {}
    for node in body[1:]:
        if (package == "repro" and isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["__version__"]):
            continue
        assert isinstance(node, ast.ImportFrom) and node.level == 0, (
            f"{package}/__init__.py line {node.lineno}: only the docstring may stay")
        for alias in node.names:
            assert alias.asname is None, f"{package}: {alias.name} is renamed"
            reexported[alias.name] = node.module
    assert reexported == LEDGER_REEXPORTS.get(package, {})


def _source_files():
    for base in ("src", "tests", "examples"):
        yield from sorted((ROOT / base).rglob("*.py"))


def test_nothing_imports_a_name_through_a_package():
    """``from repro.<package> import X`` only ever names a submodule X."""
    offences = []
    for path in _source_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                    and node.module.split(".")[0] == "repro" and _is_package(node.module)):
                continue
            for alias in node.names:
                if not _is_module(f"{node.module}.{alias.name}"):
                    offences.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                    f"from {node.module} import {alias.name}")
    assert offences == []


def test_importing_the_engine_loads_only_the_engine():
    program = ("import sys, repro.sim.engine; "
               "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip().split(",") == [
        "repro", "repro.sim", "repro.sim.engine", "repro.sim.events"]
