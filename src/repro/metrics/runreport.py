"""One report carrier for every "run something, print the result" path.

Every ``rrmp`` command that reports a run (``scenarios run``, ``validate
run|fuzz|replay``, ``live run|diff``) prints a :class:`RunReport`: an
ordered metrics mapping plus an optional oracle report, with one JSON
shape (``payload()``/``to_json()``) and one aligned-key text renderer.

Compatibility contract: for a report without an oracle section,
``to_json()`` is byte-identical to ``json.dumps(metrics)``, so
pipelines built against the JSON outputs keep parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional


@dataclass
class RunReport:
    """The outcome of one run, ready to print or ship.

    ``kind`` tags the producing surface (``"scenario"``, ``"live"``,
    ``"validate"``); ``metrics`` is the flat ordered summary mapping
    the producer assembled; ``oracle`` — when present — lands under an
    ``"oracle"`` key appended to the JSON payload (the ``live run
    --json`` shape); ``failed`` drives :attr:`exit_code`.
    """

    kind: str
    scenario: str
    seed: int
    metrics: Mapping = field(default_factory=dict)
    oracle: Optional[Mapping] = None
    failed: bool = False

    def payload(self) -> dict:
        """The JSON-ready dict: metrics, plus ``oracle`` when attached."""
        result = dict(self.metrics)
        if self.oracle is not None:
            result["oracle"] = dict(self.oracle)
        return result

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize :meth:`payload` (compact by default, like the CLIs)."""
        return json.dumps(self.payload(), indent=indent)

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 failed."""
        return 1 if self.failed else 0

    def to_text(self, title: Optional[str] = None) -> str:
        """Aligned-key text block, one line per scalar.

        *title* defaults to ``== {kind} {scenario} (seed {seed}) ==``.
        A nested mapping's scalars show as dotted keys
        (``oracle.violation_count``); anything deeper, and lists, are left
        to the JSON form.  Floats render ``%.4g``; keys are
        left-justified to the longest.
        """
        if title is None:
            title = f"== {self.kind} {self.scenario} (seed {self.seed}) =="
        rows = list(_scalars(self.payload()))
        width = max((len(key) for key, _ in rows), default=0)
        lines = [title]
        for key, value in rows:
            if isinstance(value, float):
                value = f"{value:.4g}"
            lines.append(f"  {key.ljust(width)}  {value}")
        return "\n".join(lines)


def _scalars(mapping: Mapping, prefix: str = ""):
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            if not prefix:
                yield from _scalars(value, f"{key}.")
        elif not isinstance(value, (list, tuple)):
            yield prefix + key, value
