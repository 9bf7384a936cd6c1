"""Table container and deterministic emission in csv, json, and text.

Every report the tool produces flows through one Table shape. Cells are
formatted through per-column format specs so that repeated runs emit
byte-identical output, and csv/json carry the same numbers. Emitted csv
and json can be read back with the readers below.

A table's rows may be a one-pass stream, as the cli's are: every renderer
reads them once, in order, and holds no row dict. Csv and json write each
row into one text buffer as it is read; text keeps only the formatted cell
grid, which its width pass needs. Json is written by hand but byte for
byte as `json.dumps(doc, indent=2)` would write the whole document.

Renderers resolve each column's key and spec once per table, and reuse a
cell's text when its value is the very object in the row above, as the
per-run cells of a sweep are. The test is identity, never equality:
0.0 and -0.0, or 1, 1.0 and True, are equal but format differently.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Union

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
    rows: Iterable[Dict[str, Cell]]  # read once, in order
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


# What json.dumps writes for a string, with its default ensure_ascii.
_json_string = json.encoder.encode_basestring_ascii


def _json_literal(value: Cell, spec: str) -> str:
    """The json text `json.dumps` gives `_json_cell(value, spec)`."""
    cell = _json_cell(value, spec)
    if isinstance(cell, str):
        return _json_string(cell)
    if isinstance(cell, int):
        return int.__repr__(cell)
    if math.isfinite(cell):
        return float.__repr__(cell)
    return "NaN" if cell != cell else "Infinity" if cell > 0 else "-Infinity"


def _json_nested(value: Any) -> str:
    """`value` as `json.dumps(..., indent=2)` writes it one level down."""
    # Json text holds no raw newline inside a string, so every newline is
    # a line break of the layout.
    return json.dumps(value, indent=2).replace("\n", "\n  ")


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
    """Json emission carrying the same numbers as the csv rendering.

    The bytes are `json.dumps(doc, indent=2) + "\\n"` of the document
    {"table", "columns", "rows", "notes"}, with each row the dict of its
    column keys and `_json_cell` values; the rows are written one by one.
    """
    # As in a dict, a repeated key keeps its first place and its last value.
    last = {c.key: i for i, c in enumerate(table.columns)}
    fields = [("\n      " + _json_string(key) + ": ", last[key]) for key in last]
    buf = io.StringIO()
    buf.write('{\n  "table": ' + _json_string(table.name))
    buf.write(',\n  "columns": ' + _json_nested(
        [{"key": c.key, "title": c.title} for c in table.columns]))
    buf.write(',\n  "rows": [')
    close = "\n    }" if fields else "}"  # json.dumps writes {} for an empty dict
    separator = "\n    "
    for cells in _cells(table, _json_literal):
        buf.write(separator + "{" + ",".join([prefix + cells[i] for prefix, i in fields])
                  + close)
        separator = ",\n    "
    buf.write("]" if separator == "\n    " else "\n  ]")  # [] when no rows
    buf.write(',\n  "notes": ' + _json_nested(list(table.notes)) + "\n}\n")
    return buf.getvalue()


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
