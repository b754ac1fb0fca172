"""Repository-level facts: docs name real files and commands that parse,
the version has one source."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.registry import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
REPO_PATH = re.compile(r"\b(?:benchmarks|tests|src|examples)/[\w./-]+\.(?:py|json|md|yml)\b")
DOCS = [".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
#: ``rrmp ...`` or ``python -m repro ...``; whatever precedes it on the
#: line (``PYTHONPATH=src``, an env export) is not part of the argv.
COMMAND = re.compile(r"(?<![\w./-])(?:rrmp|python3? -m repro)(?![\w.-])(.*)")
#: Where the shell takes over from the argv: a redirection, pipe or list.
SHELL_STOP = re.compile(r"^(?:\d?>|\||&&|;)")


def _command_lines(doc: str):
    """Lines that can hold a command: every ``run:`` step of a workflow,
    the fenced code blocks of a markdown file (prose spans are not run).
    ``\\`` continuations and folded ``>`` blocks are joined first."""
    lines = (ROOT / doc).read_text(encoding="utf-8").replace("\\\n", " ").splitlines()
    if doc.endswith(".yml"):
        joined, fold_indent = [], None
        for line in lines:
            indent = len(line) - len(line.lstrip())
            if fold_indent is not None and line.strip() and indent > fold_indent:
                joined[-1] += " " + line.strip()
                continue
            fold_indent = indent if re.search(r":\s*>-?\s*$", line) else None
            joined.append("" if fold_indent is not None else line)
        return [line for line in joined if not line.lstrip().startswith("#")]
    fenced, inside = [], False
    for line in lines:
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            fenced.append(line)
    return fenced


def _documented_argvs(doc: str):
    for line in _command_lines(doc):
        match = COMMAND.search(line)
        if match:
            words = shlex.split(match.group(1), comments=True)
            stop = next((i for i, word in enumerate(words) if SHELL_STOP.match(word)),
                        len(words))
            yield words[:stop]


@pytest.mark.parametrize("doc", DOCS)
def test_documented_commands_parse(doc):
    argvs = list(_documented_argvs(doc))
    assert argvs, f"{doc} shows no rrmp command; is the pattern still right?"
    for argv in argvs:
        args = build_parser().parse_args(argv)  # a usage error raises SystemExit(2)
        if args.command == "run":
            accepted = inspect.signature(EXPERIMENTS[args.experiment].run).parameters
            unknown = {key for key, _ in args.param} - set(accepted)
            assert not unknown, f"{doc}: rrmp {' '.join(argv)}: {args.experiment} " \
                                f"takes no {sorted(unknown)}"


@pytest.mark.parametrize("doc", DOCS)
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
