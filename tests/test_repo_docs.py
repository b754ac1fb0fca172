"""Repository-level facts: docs name real files, the version has one source."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPO_PATH = re.compile(r"\b(?:benchmarks|tests|src|examples)/[\w./-]+\.(?:py|json|md|yml)\b")


@pytest.mark.parametrize("doc", [
    ".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
])
def test_operational_docs_name_only_files_that_exist(doc):
    named = set(REPO_PATH.findall((ROOT / doc).read_text(encoding="utf-8")))
    assert named, f"{doc} names no repository file; is the pattern still right?"
    # Generated outputs (ledger.json, traces) exist only after a run.
    stale = sorted(path for path in named
                   if "/results/" not in path and not (ROOT / path).exists())
    assert not stale, f"{doc} names files that do not exist: {stale}"


def test_pyproject_has_no_static_version():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project]")[1]
    assert not re.search(r"^version\s*=", project.split("\n[")[0], re.MULTILINE)
