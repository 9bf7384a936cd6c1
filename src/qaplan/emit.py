"""Table container and deterministic emission in csv, json, and text.

Every report the tool produces flows through one Table shape. Cells are
formatted through per-column format specs so that repeated runs emit
byte-identical output, and csv/json carry the same numbers. Column keys
are unique, as a `Table` checks, so a csv header names each column once
and a json row has one field per column. Emitted csv and json can be
read back with the readers below.

A row is a pair of tuples, its own cells and its shared cells, which
together are its cells in column order; every row of a table splits at
the same column. The cli's rows of one scenario hand over the very same
shared tuple, and every renderer formats a shared tuple once while the
same object comes back (identity, never equality: 0.0 and -0.0, or 1,
1.0 and True, are equal but format differently). Renderers read the rows
once, in order, so they may be a stream. Csv and json write each row into
one buffer as it is read, json byte for byte as `json.dumps(doc,
indent=2)` writes the whole document; text keeps the formatted texts its
width pass needs and takes each column's width once, at the end.

Csv and text format each part of a row, its own cells or a shared tuple,
with one format string (`_template`). They fall back to `format_cell` per
cell (csv to the csv module) where that string's text cannot be trusted:
for every row if a spec holds a brace or would format a string, else for
a part whose cells fail to format or whose text holds the separator (csv
also where it holds a quote, CR or LF).
"""

from __future__ import annotations

# `csv` is imported where it is read or written, so text and json calls skip it.
import io
import itertools
import json
import math
import re
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

Cell = Union[str, int, float]


class Column(NamedTuple):
    key: str  # machine name, csv header and json field
    title: str  # display name for text rendering
    spec: str = ""  # format() spec for numeric cells, e.g. ".3f" or ","


Row = Tuple[Sequence[Cell], Sequence[Cell]]  # (own cells, shared cells)


class Table:
    """A named table whose rows are (cells, shared) pairs, all split at
    the same column. Column keys are unique: each is one csv header and
    one json field.

    Rows given as a list of dicts keyed by column key are converted to
    pairs here, once: all cells their own, none shared.
    """

    def __init__(self, name: str, columns: List[Column], rows: Iterable[Row],
                 notes: Iterable[str] = ()) -> None:
        keys = [c.key for c in columns]
        seen = set()
        for key in keys:
            if key in seen:
                raise ValueError(f"repeated column key: {key!r}")
            seen.add(key)
        if isinstance(rows, list):
            rows = [(tuple([row[k] for k in keys]), ()) if isinstance(row, Mapping)
                    else row for row in rows]
        self.name, self.columns, self.notes = name, columns, list(notes)
        self.rows: Iterable[Row] = rows  # read once, in order

    def records(self) -> List[Dict[str, Cell]]:
        """The rows as dicts keyed by column key."""
        keys = [c.key for c in self.columns]
        return [dict(zip(keys, (*cells, *shared))) for cells, shared in self.rows]


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


def _split(table: Table) -> Tuple[int, Iterator[Row]]:
    """The column at which every row of `table` splits into own and shared
    cells, taken from its first row, and its rows."""
    rows = iter(table.rows)
    first = next(rows, None)
    if first is None:
        return len(table.columns), rows
    return len(first[0]), itertools.chain((first,), rows)


def _reusing(format_one: Callable[[Cell, Any], str], args: Sequence[Any]
             ) -> Callable[[Sequence[Cell]], List[str]]:
    """A function giving each of a row's own cells as `format_one(cell,
    args[column])`, the text reused while the same object comes back in
    its column: a table's constant cells are formatted once."""
    values: List[Any] = [_reusing] * len(args)  # no cell is this function
    texts: List[str] = [""] * len(args)

    def own(cells: Sequence[Cell]) -> List[str]:
        for i, value in enumerate(cells):
            if value is not values[i]:
                values[i], texts[i] = value, format_one(value, args[i])
        return texts[:]

    return own


class _Lines(list):
    """A file for a csv writer that keeps each written line."""

    write = list.append


# What the csv module quotes a field for, besides the delimiter, and a
# separator no formatted cell of a table holds, or `_csv_fields` sees it.
_QUOTED = re.compile('["\r\n]')
_SEP = "\x1f"


def _takes_strings(spec: str) -> bool:
    """Whether `format(text, spec)` works for a string, which `format_cell`
    writes as it is: the spec names no number type, sign or grouping."""
    try:
        format("", spec)
    except ValueError:
        return False
    return True


def _template(specs: Sequence[str]) -> Optional[str]:
    """One format string writing cells under `specs`, joined by `_SEP`, as
    `format_cell` writes them; None where no such string can be trusted:
    where a spec holds a brace or would format a string (`format_cell`
    writes strings as they are). A text it writes is still not to be
    trusted where a cell fails to format (a string under a number spec)
    or its text holds the separator."""
    if any("{" in spec or "}" in spec or spec and _takes_strings(spec) for spec in specs):
        return None
    return _SEP.join(f"{{{i}:{spec}}}" for i, spec in enumerate(specs))


def _csv_fields(specs: Sequence[str]) -> Callable[[Sequence[Cell]], str]:
    """A function writing cells under `specs` as the csv module writes them
    within a longer row, without the line end.

    One format string (`_template`) writes them all, and a field holding
    the delimiter gets the quotes the csv module gives it. The csv module
    writes them where that text cannot be trusted: for every row if there
    is no template, else for a row whose cells fail to format or hold a
    quote, CR, LF or the separator.
    """
    import csv

    lines = _Lines()
    write_row = csv.writer(lines).writerow

    def by_module(cells: Sequence[Cell]) -> str:
        write_row(map(format_cell, cells, specs))
        text = lines.pop()[:-2]
        return "" if text == '""' else text  # a lone empty field, within a row

    template = _template(specs)
    if template is None:
        return by_module
    separators = len(specs) - 1

    def fields(cells: Sequence[Cell]) -> str:
        try:
            text = template.format(*cells)
        except (ValueError, TypeError):  # a string under a number spec, or a bad cell
            return by_module(cells)
        if text.count(_SEP) != separators or _QUOTED.search(text):
            return by_module(cells)
        if "," not in text:
            return text.replace(_SEP, ",")
        if not separators:
            return f'"{text}"'
        return ",".join([f'"{f}"' if "," in f else f for f in text.split(_SEP)])

    return fields


def _text_cells(specs: Sequence[str]) -> Callable[[Sequence[Cell]], Tuple[str, ...]]:
    """A function giving the texts `format_cell` gives cells under `specs`,
    written by one format string (`_template`); cell by cell for every row
    if there is no template, else for a row whose cells fail to format or
    hold the separator."""

    def by_cell(cells: Sequence[Cell]) -> Tuple[str, ...]:
        return tuple(map(format_cell, cells, specs))

    template = _template(specs)
    if template is None:
        return by_cell
    count = len(specs)

    def texts(cells: Sequence[Cell]) -> Tuple[str, ...]:
        try:
            text = template.format(*cells)
        except (ValueError, TypeError):  # a string under a number spec, or a bad cell
            return by_cell(cells)
        parts = text.split(_SEP)
        # A tuple: a list from `split` keeps room for a dozen entries.
        return tuple(parts) if len(parts) == count else by_cell(cells)

    return texts


def render_csv(table: Table) -> str:
    """Csv emission; notes become leading '#' comment lines.

    The bytes are those of `csv.writer` writing each row whole, the cells
    formatted by `format_cell`. A row is written as two parts: its own
    cells, and its shared cells, written once per shared tuple.
    """
    import csv

    buf = io.StringIO()
    for note in table.notes:
        buf.write(f"# {note}\r\n")
    csv.writer(buf).writerow([c.key for c in table.columns])
    specs = [c.spec for c in table.columns]
    split, rows = _split(table)
    head, tail = _csv_fields(specs[:split]), _csv_fields(specs[split:])
    joint = "," if 0 < split < len(specs) else ""
    lone = len(specs) == 1  # a row of one empty field is written ""
    write = buf.write
    last = None
    for cells, shared in rows:
        line = head(cells)  # before the shared cells, so a failing row fails as written
        if shared is not last:
            last, end = shared, joint + tail(shared) + "\r\n"
        line += end
        write('""\r\n' if lone and line == "\r\n" else line)
    return buf.getvalue()


def render_json(table: Table) -> str:
    """Json emission carrying the same numbers as the csv rendering.

    The bytes are `json.dumps(doc, indent=2) + "\\n"` of the document
    {"table", "columns", "rows", "notes"}, with each row the dict of its
    column keys and `_json_cell` values; the rows are written one by one.
    """
    specs = [c.spec for c in table.columns]
    split, rows = _split(table)
    prefixes = ["\n      " + _json_string(c.key) + ": " for c in table.columns]
    own, rest = prefixes[:split], prefixes[split:]
    buf = io.StringIO()
    buf.write('{\n  "table": ' + _json_string(table.name))
    buf.write(',\n  "columns": ' + _json_nested(
        [{"key": c.key, "title": c.title} for c in table.columns]))
    buf.write(',\n  "rows": [')
    close = "\n    }" if prefixes else "}"  # json.dumps writes {} for an empty dict
    separator = "\n    "
    fields = _reusing(lambda v, at: at[0] + _json_literal(v, at[1]), list(zip(own, specs)))
    last = None
    for cells, shared in rows:
        head = ",".join(fields(cells))  # own cells first, as csv and text format them
        if shared is not last:
            tail = ",".join([prefix + _json_literal(v, s)
                             for prefix, v, s in zip(rest, shared, specs[split:])])
            last, tail = shared, "," + tail if own and rest else tail
        buf.write(separator + "{" + head + tail + close)
        separator = ",\n    "
    buf.write("]" if separator == "\n    " else "\n  ]")  # [] when no rows
    buf.write(',\n  "notes": ' + _json_nested(list(table.notes)) + "\n}\n")
    return buf.getvalue()


def render_text(table: Table) -> str:
    """Fixed-width text rendering for terminals."""
    headers = [c.title for c in table.columns]
    specs = [c.spec for c in table.columns]
    split, rows = _split(table)
    # Widths need every row first. One flat list holds, row after row, a
    # row's own texts and then its shared texts: a tuple formatted once per
    # shared tuple and held by reference. `distinct` holds each such tuple
    # once, for the widths. No container per row is kept.
    format_own, format_shared = _text_cells(specs[:split]), _text_cells(specs[split:])
    stride = split + 1
    held: List[Any] = []
    distinct: List[Tuple[str, ...]] = []
    last = None
    for cells, shared in rows:
        held += format_own(cells)
        if shared is not last:
            last, texts = shared, format_shared(shared)
            distinct.append(texts)
        held.append(texts)
    heads = [max(map(len, itertools.chain((title,), itertools.islice(held, i, None, stride))))
             for i, title in enumerate(headers[:split])]
    rest = [max(map(len, itertools.chain((title,), map(itemgetter(i), distinct))))
            for i, title in enumerate(headers[split:])]
    widths = heads + rest
    lines = [table.name]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    joint = "  " if heads and rest else ""
    rjust = str.rjust
    last = None
    for row in zip(*[iter(held)] * stride):  # `stride` entries at a time
        if row[-1] is not last:
            last = row[-1]
            tail = joint + "  ".join(map(rjust, last, rest))
        # `map` ends with `heads`, before the row's shared texts.
        lines.append(("  ".join(map(rjust, row, heads)) + tail).rstrip())
    del held, distinct  # held in `lines` now; freed before the text is joined
    for note in table.notes:
        lines.append(f"note: {note}")
    lines.append("")  # the final newline, without a copy of the whole text
    return "\n".join(lines)


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
    import csv

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
    rows = [(tuple([_parse_number(cell) for cell in record]), ()) for record in reader]
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
