"""Result tables: formatting and CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Sequence, Union

Number = Union[int, float]
Cell = Union[str, Number]


@dataclass
class ExperimentTable:
    """One reproduced figure: a caption, column headers and data rows."""

    experiment: str
    caption: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append one data row."""
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Append a free-form note shown under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Human-readable rendering of the table."""
        body = format_table(self.rows, self.headers)
        lines = [f"== {self.experiment}: {self.caption} ==", body]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dicts(self) -> List[Mapping[str, Cell]]:
        """Rows as dictionaries keyed by header."""
        return [dict(zip(self.headers, row)) for row in self.rows]


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3f}"
    return str(cell)


def format_table(rows: Iterable[Sequence[Cell]], headers: Sequence[str]) -> str:
    """Render rows as an aligned text table."""
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    out = [line(list(headers)), line(["-" * width for width in widths])]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def write_csv(table: ExperimentTable, path: str) -> None:
    """Write one experiment table to a CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.headers)
        writer.writerows(table.rows)
