"""Table container and deterministic emission in csv, json, and text.

Every report the tool produces flows through one Table shape. Cells are
formatted through per-column format specs so that repeated runs emit
byte-identical output, and csv/json carry the same numbers. Emitted csv
and json can be read back with the readers below.

Renderers resolve each column's key and spec once per table, and reuse a
cell's text when its value is the very object in the row above, as the
per-run cells of a sweep are. The test is identity, never equality:
0.0 and -0.0, or 1, 1.0 and True, are equal but format differently. Csv
rows stream into the writer one at a time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Sequence, Union

Cell = Union[str, int, float]


@dataclass(frozen=True)
class Column:
    key: str  # machine name, csv header and json field
    title: str  # display name for text rendering
    spec: str = ""  # format() spec for numeric cells, e.g. ".3f" or ","


@dataclass
class Table:
    name: str
    columns: List[Column]
    rows: List[Dict[str, Cell]]
    notes: List[str] = field(default_factory=list)


def format_cell(value: Cell, spec: str) -> str:
    if isinstance(value, str):
        return value
    return format(value, spec)


def _parse_number(text: str) -> Cell:
    cleaned = text.replace(",", "")
    try:
        return int(cleaned)
    except ValueError:
        pass
    try:
        return float(cleaned)
    except ValueError:
        return text


_NOTHING = object()  # the previous value of a column before the first row


def _cells(table: Table, convert: Callable[[Cell, str], Any]) -> Iterator[List[Any]]:
    """Each row's cells through `convert(value, spec)`, in column order,
    reusing the cell above where the value `is` the same object."""
    keys = [c.key for c in table.columns]
    specs = [c.spec for c in table.columns]
    get = itemgetter(*keys) if len(keys) > 1 else (lambda row: [row[k] for k in keys])
    last: Sequence[Any] = [_NOTHING] * len(keys)
    cells: List[Any] = [None] * len(keys)
    for row in table.rows:
        values = get(row)
        cells = [cell if value is old else convert(value, spec)
                 for value, old, cell, spec in zip(values, last, cells, specs)]
        last = values
        yield cells


def _json_cell(value: Cell, spec: str) -> Cell:
    formatted = format_cell(value, spec)
    return formatted if isinstance(value, str) else _parse_number(formatted)


def render_csv(table: Table) -> str:
    """Csv emission; notes become leading '#' comment lines."""
    buf = io.StringIO()
    for note in table.notes:
        buf.write(f"# {note}\r\n")
    writer = csv.writer(buf)
    writer.writerow([c.key for c in table.columns])
    writer.writerows(_cells(table, format_cell))  # streamed, row by row
    return buf.getvalue()


def render_json(table: Table) -> str:
    """Json emission carrying the same numbers as the csv rendering."""
    keys = [c.key for c in table.columns]
    doc = {
        "table": table.name,
        "columns": [{"key": c.key, "title": c.title} for c in table.columns],
        "rows": [dict(zip(keys, cells)) for cells in _cells(table, _json_cell)],
        "notes": list(table.notes),
    }
    return json.dumps(doc, indent=2) + "\n"


def render_text(table: Table) -> str:
    """Fixed-width text rendering for terminals."""
    headers = [c.title for c in table.columns]
    grid = list(_cells(table, format_cell))  # widths need every row first
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in grid)) if grid else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [table.name]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in grid:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip())
    for note in table.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "csv": render_csv,
    "json": render_json,
    "table": render_text,
}


def render(table: Table, fmt: str) -> str:
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(RENDERERS)}")
    return renderer(table)


def read_csv(text: str) -> Table:
    """Parse a csv emission back into a Table (numbers typed, specs lost)."""
    notes = []
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            notes.append(line[2:])
        elif line.strip():
            data_lines.append(line)
    reader = csv.reader(data_lines)
    header = next(reader)
    columns = [Column(key=k, title=k) for k in header]
    rows = [
        {key: _parse_number(cell) for key, cell in zip(header, record)}
        for record in reader
    ]
    return Table(name="", columns=columns, rows=rows, notes=notes)


def read_json(text: str) -> Table:
    """Parse a json emission back into a Table."""
    doc = json.loads(text)
    columns = [Column(key=c["key"], title=c["title"]) for c in doc["columns"]]
    return Table(
        name=doc["table"],
        columns=columns,
        rows=list(doc["rows"]),
        notes=list(doc.get("notes", [])),
    )
