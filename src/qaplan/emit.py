"""Table container and deterministic emission in csv, json, and text.

Every report the tool produces flows through one Table shape. Cells are
formatted through per-column format specs so that repeated runs emit
byte-identical output, and csv/json carry the same numbers. Column keys
are unique, as a `Table` checks, so a csv header names each column once
and a json row has one field per column. Emitted csv and json can be
read back with the readers below.

A table's rows come in blocks of columns (`Block`), `Rows.blocks` of
them. A row is an own entry and then a shared entry, which the rows of
one cli scenario (and node) share; every row of a table splits at the
same column. A table built from dicts, one per row, is one block of own
entries. Renderers read the blocks once, in order, so they may be a stream.

Each column of a block is formatted in one pass, a repeated cell once,
and the block's lines are built with `map` and `join` over its index
lists: no Python code runs per row. A column whose first cell is exactly
a float or an int maps `float.__format__` or `int.__format__`, which
refuses a cell of any other type. Any other column, or one so refused,
maps `format` where its spec is empty and `format_cell`, which writes a
string as it is, otherwise. A cell its spec cannot format raises. Csv
quotes a column's cells where its text holds a delimiter, quote, CR or
LF, as the csv module does; text holds every block's texts until each
column's width is known. The render API is `iter_parts`, which renders a
range of a table's blocks, all by default, as one text per block between
the texts before and after the rows, and `render`, which joins them. A
csv or json range of any table is a piece of its text.
"""

from __future__ import annotations

# `csv` and `json` are imported where they are read back or written; a csv
# rendering loads neither.
import io
import math
from itertools import repeat
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

Cell = Union[str, int, float]


class Column(NamedTuple):
    key: str  # machine name, csv header and json field
    title: str  # display name for text rendering
    spec: str = ""  # format() spec for numeric cells, e.g. ".3f" or ","


Row = Tuple[Sequence[Cell], Sequence[Cell]]  # (own cells, shared cells)


class Block:
    """Rows as columns. `own` and `shared` are lists of parts: a part is
    columns of one length, the first a sequence, the others sequences or
    unbounded `itertools.repeat`s, one cell for the whole part. The entries
    of each side are the rows of its parts, part after part. `own_at` and
    `shared_at` give, in row order, each row's own entry, whose cells come
    first, and its shared entry. Every entry is some row's."""

    __slots__ = ("own", "shared", "own_at", "shared_at")

    def __init__(self, own: Sequence, shared: Sequence, own_at: Sequence[int],
                 shared_at: Sequence[int]) -> None:
        self.own, self.shared, self.own_at, self.shared_at = own, shared, own_at, shared_at

    def rows(self) -> Iterator[Row]:
        """Each row's (own cells, shared cells), a shared entry one tuple."""
        own, shared = _entries(self.own), _entries(self.shared)
        for a, b in zip(self.own_at, self.shared_at):
            yield own[a] if own else (), shared[b] if shared else ()


def _entries(parts: Sequence[Sequence]) -> List[Tuple[Cell, ...]]:
    """The cells of each entry of `parts`; none where they have no columns."""
    return [cells for part in parts for cells in zip(*part)]


class Lazy:
    """Items produced each time they are read, in `blocks` blocks; `len` is
    known up front. `produce(span)` yields those of the blocks in the range
    `span` alone, and reading the items reads every block."""

    def __init__(self, produce: Callable[[range], Iterator], count: int, blocks: int) -> None:
        self.produce, self._count, self.blocks = produce, count, blocks

    def __iter__(self) -> Iterator:
        return self.produce(range(self.blocks))

    def __len__(self) -> int:
        return self._count


class Rows(Lazy):
    """A table's rows, produced as blocks each time they are read; `len`
    is the row count."""

    @classmethod
    def of(cls, blocks: Sequence[Block]) -> Rows:
        """The rows of the list `blocks`, held."""
        return cls(lambda span: map(blocks.__getitem__, span), sum(len(b.own_at) for b in blocks),
                   len(blocks))

    def __iter__(self) -> Iterator[Row]:
        for block in super().__iter__():
            yield from block.rows()

    def __eq__(self, other: object) -> bool:
        """Rows are equal where the lists of their rows are. The emission
        suite of `test_criterion_11` compares the rows `read_csv` and
        `read_json` give back for one table with `==`."""
        return isinstance(other, Rows) and list(self) == list(other)


class Table:
    """A named table whose rows split into own and shared cells, all at
    the same column. Column keys are unique: each is one csv header and
    one json field. No note holds a line break and the first key does not
    start with "# ", so csv reads the notes and header back as written.

    `rows` are `Rows`, or an iterable of dicts keyed by column key, one
    per row, made here one block of own entries with no shared side.
    """

    def __init__(self, name: str, columns: List[Column],
                 rows: Union[Rows, Iterable[Mapping[str, Cell]]], notes: Iterable[str] = ()
                 ) -> None:
        seen = set()
        for column in columns:
            if column.key in seen:
                raise ValueError(f"repeated column key: {column.key!r}")
            seen.add(column.key)
        if columns and columns[0].key.startswith("# "):
            raise ValueError(f"first column key reads back as a csv note: {columns[0].key!r}")
        notes = list(notes)
        for note in notes:
            if "\n" in note or "\r" in note:
                raise ValueError(f"note holds a line break: {note!r}")
        if not isinstance(rows, Rows):
            records = list(rows)
            own = [[record[c.key] for record in records] for c in columns]
            at = range(len(records))
            rows = Rows.of([Block([own], [], at, at)] if records else [])
        self.name, self.columns, self.rows, self.notes = name, columns, rows, notes

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


def _json_literal(value: Cell, spec: str) -> str:
    """The json text `json.dumps` gives `_json_cell(value, spec)`."""
    cell = _json_cell(value, spec)
    if isinstance(cell, str):
        from json.encoder import encode_basestring_ascii

        return encode_basestring_ascii(cell)
    if isinstance(cell, int):
        return int.__repr__(cell)
    if math.isfinite(cell):
        return float.__repr__(cell)
    return "NaN" if cell != cell else "Infinity" if cell > 0 else "-Infinity"


def _json_nested(value: Any) -> str:
    """`value` as `json.dumps(..., indent=2)` writes it one level down."""
    import json

    # Json text holds no raw newline inside a string, so every newline is
    # a line break of the layout.
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _side(parts: Sequence[Sequence], columns: range, column: Callable) -> List[List[str]]:
    """The texts `column(c, cells)` gives each column of `parts`, numbered
    by `columns`, over their entries: a part's `itertools.repeat` is
    formatted once, its one text standing for each entry, and a sequence
    that several parts hold in one column once. Cells past the table's
    columns are dropped."""
    texts = []
    for at, c in zip(range(len(parts[0]) if parts else 0), columns):
        out: List[str] = []
        done: Dict[int, List[str]] = {}  # by the `id` of each sequence, held by `parts`
        for part in parts:
            cells = part[at]
            if type(cells) is repeat:
                out += column(c, (next(cells),)) * len(part[0])
            else:
                if id(cells) not in done:
                    done[id(cells)] = column(c, cells)
                out += done[id(cells)]
        texts.append(out)
    return texts


def _cell_texts(specs: Sequence[str]) -> Callable[[int, Sequence[Cell]], List[str]]:
    """`column(c, cells)` for `_formatted`: the texts `format_cell` gives
    the cells of column `c`: the cells themselves where all are exactly str;
    else in one pass of its first cell's type's `__format__` where that is
    exactly float or int, which raises TypeError for a cell of any other
    type (a bool, a str, an int among floats); else of `format` where the
    spec is empty, and of `format_cell`, which writes a string as it is."""
    forms = [format_cell if spec else format for spec in specs]

    def column(c: int, cells: Sequence[Cell]) -> List[str]:
        kind = type(cells[0]) if cells else None
        if kind is str and list(map(type, cells)).count(str) == len(cells):
            return cells  # `format_cell` and `format(text, "")` give the text itself
        if kind is float or kind is int:
            try:
                return list(map(kind.__format__, cells, repeat(specs[c])))
            except TypeError:
                pass
        return list(map(forms[c], cells, repeat(specs[c])))

    return column


def _formatted(table: Table, span: range, column: Callable
               ) -> Iterator[Tuple[Block, List, List]]:
    """Each of the blocks of `table` in the range `span`, with the texts
    `column(c, cells)` gives each column `c` of its own and of its shared
    columns, over their entries."""
    count = len(table.columns)
    for block in table.rows.produce(span):
        split = min(len(block.own[0]) if block.own else 0, count)
        yield (block, _side(block.own, range(split), column),
               _side(block.shared, range(split, count), column))


def _lines(block: Block, own: Sequence, shared: Sequence, sep: str) -> Iterable[str]:
    """Each row's text, in row order: the texts of its own entry's columns
    and then of its shared entry's (`own`, `shared`: one per column, over
    the entries), joined by `sep`."""
    sides = [map(list(map(sep.join, zip(*columns))).__getitem__, at)
             for columns, at in ((own, block.own_at), (shared, block.shared_at)) if columns]
    return map(sep.join, zip(*sides)) if sides else repeat("", len(block.own_at))


def _quoted(text: str) -> bool:
    """Whether the csv module quotes a field of `text`: where it holds a
    delimiter, quote, CR or LF."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_quoted(texts: List[str], lone: bool) -> List[str]:
    """One column's texts as the csv module writes them as fields: quoted
    where they hold a delimiter, quote, CR or LF, and with `lone`, where
    each is its row's only field, also where empty."""
    joined = "".join(texts)
    if not _quoted(joined) and not (lone and "" in texts):
        return texts
    if '"' not in joined and all([',' in text for text in texts]):
        return ['"' + text + '"' for text in texts]  # a sweep's row names all hold commas
    return ['"' + text.replace('"', '""') + '"' if _quoted(text) or lone and not text
            else text for text in texts]


def _csv_parts(table: Table, span: range) -> Iterator[str]:
    """Csv emission of the blocks in the range `span`, after the header
    where it starts at the first; notes become leading '#' comment lines.

    The bytes are those of `csv.writer` writing each row whole, the cells
    formatted by `format_cell`.
    """
    specs = [c.spec for c in table.columns]
    lone = len(specs) == 1  # a row of one empty field is written ""
    if span.start == 0:
        yield "".join([f"# {note}\r\n" for note in table.notes]) + ",".join(
            _csv_quoted([c.key for c in table.columns], lone)) + "\r\n"
    for block, own, shared in _formatted(table, span, _cell_texts(specs)):
        rows = _lines(block, list(map(_csv_quoted, own, repeat(lone))),
                      list(map(_csv_quoted, shared, repeat(lone))), ",")
        yield "\r\n".join(rows) + "\r\n"


def _json_parts(table: Table, span: range) -> Iterator[str]:
    """Json emission carrying the same numbers as the csv rendering, of the
    blocks in the range `span`: after the text before the rows where it
    starts at the first block, and before the text after them where it ends
    at the last.

    The bytes are `json.dumps(doc, indent=2) + "\\n"` of the document
    {"table", "columns", "rows", "notes"}, with each row the dict of its
    column keys and `_json_cell` values.
    """
    from json.encoder import encode_basestring_ascii as json_string  # as json.dumps writes

    specs = [c.spec for c in table.columns]
    prefixes = ["\n      " + json_string(c.key) + ": " for c in table.columns]

    def column(c: int, cells: Sequence[Cell]) -> List[str]:
        try:
            texts = list(map(json_string, cells))  # strings, in one pass
        except TypeError:  # a cell that is no string
            texts = list(map(_json_literal, cells, repeat(specs[c])))
        return list(map(prefixes[c].__add__, texts))

    first = span.start == 0
    if first:
        yield ('{\n  "table": ' + json_string(table.name) + ',\n  "columns": '
               + _json_nested([{"key": c.key, "title": c.title} for c in table.columns])
               + ',\n  "rows": [')
    # Each row between braces; json.dumps writes {} for an empty dict.
    wrap = ("{{{}\n    }}" if prefixes else "{{{}}}").format
    # A range after the first follows rows: each block holds some.
    separator = "\n    " if first else ",\n    "
    for block, own, shared in _formatted(table, span, column):
        yield separator + ",\n    ".join(map(wrap, _lines(block, own, shared, ",")))
        separator = ",\n    "
    if span.stop >= table.rows.blocks:
        yield (("]" if separator == "\n    " else "\n  ]")  # [] when no rows
               + ',\n  "notes": ' + _json_nested(list(table.notes)) + "\n}\n")


def _text_parts(table: Table, span: range) -> Iterator[str]:
    """Fixed-width text rendering for terminals of the blocks in the range
    `span`, laid out on their own widths."""
    headers = [c.title for c in table.columns]
    # Widths need every block first: each block's texts are held, a text
    # standing for a repeated cell held once, until every width is known.
    widths = list(map(len, headers))
    held = list(_formatted(table, span, _cell_texts([c.spec for c in table.columns])))
    for _, own, shared in held:
        widths = list(map(max, widths, [max(map(len, texts)) for texts in own + shared]))
    yield "\n".join([table.name, "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
                     "  ".join("-" * w for w in widths), ""])
    held.reverse()
    while held:  # each block's texts freed once its lines are built
        block, own, shared = held.pop()
        # Each column's texts as `map(str.rjust, texts, repeat(width))`.
        padded = list(map(map, repeat(str.rjust), own + shared, map(repeat, widths)))
        rows = _lines(block, padded[:len(own)], padded[len(own):], "  ")
        yield "\n".join([*map(str.rstrip, rows), ""])  # "" ends the block's last line
    yield "".join([f"note: {note}\n" for note in table.notes])


_PARTS = {"csv": _csv_parts, "json": _json_parts, "table": _text_parts}


def iter_parts(table: Table, fmt: str, span: Optional[range] = None) -> Iterator[str]:
    """The text of `table` in `fmt` as parts: the lines before the rows, one
    per block of the range `span` of `table.rows`'s blocks (all by default),
    the lines after. A csv or json range has the lines before only where it
    starts at the first block and those after only where it ends at the last,
    so consecutive ranges join into the whole text; text lays a range out on
    its own widths."""
    try:
        parts = _PARTS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(_PARTS)}")
    return parts(table, range(table.rows.blocks) if span is None else span)


def render(table: Table, fmt: str) -> str:
    """The text of `table` in `fmt`: the parts `iter_parts` gives, joined."""
    return "".join(iter_parts(table, fmt))


def render_csv(table: Table) -> str:
    return render(table, "csv")


def render_json(table: Table) -> str:
    return render(table, "json")


def read_csv(text: str) -> Table:
    """Parse a csv emission back into a Table (numbers typed, specs lost).
    The leading lines that start with "# " are its notes, as `render_csv`
    writes them; the csv reader reads the rest, quoted line breaks
    included, and skips empty records."""
    import csv

    notes, at = [], 0
    while text.startswith("# ", at):
        end = text.find("\n", at) + 1 or len(text)  # past the line, or the text's end
        notes.append(text[at + 2:end].rstrip("\r\n"))
        at = end
    reader = filter(None, csv.reader(io.StringIO(text[at:], newline="")))
    header = next(reader, None)
    if header is None:
        raise ValueError("csv text has no header line")
    columns = [Column(key=k, title=k) for k in header]
    rows = []
    for record in reader:
        if len(record) != len(header):
            raise ValueError(f"csv row {len(rows) + 1} has {len(record)} fields, "
                             f"its header {len(header)}")
        rows.append(dict(zip(header, map(_parse_number, record))))
    return Table(name="", columns=columns, rows=rows, notes=notes)


def read_json(text: str) -> Table:
    """Parse a json emission back into a Table."""
    import json

    doc = json.loads(text)
    columns = [Column(key=c["key"], title=c["title"]) for c in doc["columns"]]
    return Table(
        name=doc["table"],
        columns=columns,
        rows=doc["rows"],
        notes=list(doc.get("notes", [])),
    )
