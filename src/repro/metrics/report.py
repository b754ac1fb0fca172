"""Plain-text rendering of experiment results.

The benchmark harness regenerates each paper figure as *rows* printed
to stdout (we have no plotting stack offline); these helpers keep that
output aligned and consistent across experiments so EXPERIMENTS.md can
quote it directly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 2) -> str:
    """Render one table cell (floats to fixed precision)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                 precision: int = 2) -> str:
    """Render an aligned monospace table with a header rule."""
    formatted = [[format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    rule = "  ".join("-" * width for width in widths)
    return "\n".join([line(list(headers)), rule] + [line(row) for row in formatted])


@dataclass
class SeriesTable:
    """A figure-style result: one x column plus one or more y series."""

    title: str
    x_label: str
    xs: List[Cell]
    series: Dict[str, List[Cell]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, name: str, values: Sequence[Cell]) -> None:
        """Attach a named y series (must align with the x column)."""
        if len(values) != len(self.xs):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(self.xs)} x points"
            )
        self.series[name] = list(values)

    def rows(self) -> List[List[Cell]]:
        """Table rows: one per x value."""
        return [
            [x] + [self.series[name][index] for name in self.series]
            for index, x in enumerate(self.xs)
        ]

    def to_text(self, precision: int = 2) -> str:
        """Full rendering: title, table and notes."""
        headers = [self.x_label] + list(self.series.keys())
        parts = [self.title, render_table(headers, self.rows(), precision)]
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form preserving series insertion order."""
        return {
            "title": self.title,
            "x_label": self.x_label,
            "xs": list(self.xs),
            "series": {name: list(values) for name, values in self.series.items()},
            "notes": list(self.notes),
        }

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form — a stable fingerprint two
        runs can compare without shipping the whole table."""
        canonical = json.dumps(self.to_dict(), separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
