"""Emission layer: deterministic rendering and round-trip parsing."""

import contextlib
import csv
import io
import itertools
import json
import os
import re
import tempfile
import unittest.mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qaplan import cli
from qaplan.cli import _COMMANDS
from qaplan.config import parse_config
from qaplan.emit import (
    Block,
    Column,
    Rows,
    Table,
    _cell_texts,
    _json_cell,
    _parse_number,
    format_cell,
    iter_parts,
    read_csv,
    read_json,
    render,
    render_csv,
    render_json,
)


def sample_table():
    return Table(
        name="demo",
        columns=[Column("k", "Key"), Column("v", "Value", ".2f"), Column("n", "N", "d")],
        rows=[{"k": "a", "v": 1.234, "n": 7}, {"k": "b", "v": 50.0, "n": 1200}],
        notes=["first note", "second note"],
    )


def split_table(columns, rows, split, reused=(), notes=(), name="t"):
    """A table of one block holding `rows`, each its cells in column order,
    split at column `split`. The rows numbered in `reused` take the shared
    entry of the row before, as the rows of one cli scenario share theirs."""
    shared, shared_at = [], []
    for i, cells in enumerate(rows):
        if not shared or i not in reused:
            shared.append(cells[split:])
        shared_at.append(len(shared) - 1)
    blocks = [Block([list(zip(*[cells[:split] for cells in rows]))], [list(zip(*shared))],
                    range(len(rows)), shared_at)] if rows else []
    return Table(name, columns, Rows.of(blocks), notes)


def test_format_cell():
    assert format_cell("text", ".2f") == "text"
    assert format_cell(1.234, ".2f") == "1.23"
    assert format_cell(7, "d") == "7"


def test_csv_layout():
    out = render_csv(sample_table())
    lines = out.split("\r\n")
    assert lines[0] == "# first note"
    assert lines[1] == "# second note"
    assert lines[2] == "k,v,n"
    assert lines[3] == "a,1.23,7"
    assert lines[4] == "b,50.00,1200"


def test_json_layout():
    out = render_json(sample_table())
    assert out.endswith("\n")
    doc = json.loads(out)
    assert doc["table"] == "demo"
    assert [c["key"] for c in doc["columns"]] == ["k", "v", "n"]
    assert doc["rows"][0] == {"k": "a", "v": 1.23, "n": 7}
    assert doc["notes"] == ["first note", "second note"]


def test_text_layout():
    out = render(sample_table(), "table")
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert lines[1].split() == ["Key", "Value", "N"]
    assert set(lines[2]) == {"-", " "}
    assert lines[-1] == "note: second note"


def test_a_text_range_is_a_table_of_its_own_blocks():
    # Text needs every width first, so a range is laid out on its own.
    columns = [Column("name", "Name"), Column("x", "X", ".2f")]
    blocks = [Block([[["a"], [1.5]]], [], [0], [0]),
              Block([[["a long name"], [12345.25]]], [], [0], [0])]
    table = Table("t", columns, Rows.of(blocks), ["a note"])
    for at, block in enumerate(blocks):
        alone = render(Table("t", columns, Rows.of([block]), ["a note"]), "table")
        assert "".join(iter_parts(table, "table", range(at, at + 1))) == alone
        assert alone not in render(table, "table")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(sample_table(), "yaml")


@pytest.mark.parametrize("keys", [["k", "k"], ["a", "b", "a"], ["", ""]])
def test_a_repeated_column_key_is_refused(keys):
    # A key is one csv header and one json field, so it names one column.
    with pytest.raises(ValueError, match=f"repeated column key: {keys[-1]!r}"):
        Table("t", [Column(k, k.upper()) for k in keys], [])
    with pytest.raises(ValueError, match="repeated column key"):
        read_csv(",".join(keys) + "\r\n" + ",".join("1" * len(keys)) + "\r\n")


@pytest.mark.parametrize("keys, notes, named", [
    (["k"], ["two\nlines"], "note holds a line break: 'two\\nlines'"),
    (["k"], ["ok", "cr\r"], "note holds a line break: 'cr\\r'"),
    (["k"], ["\r\n"], "note holds a line break: '\\r\\n'"),
    (["# k", "v"], [], "first column key reads back as a csv note: '# k'"),
    (["# "], ["ok"], "first column key reads back as a csv note: '# '"),
])
def test_a_note_or_first_key_that_csv_cannot_read_back_is_refused(keys, notes, named):
    # `read_csv` takes each leading "# " line for one note, so a line break
    # in a note, or a header that starts with "# ", would not read back.
    with pytest.raises(ValueError, match=re.escape(named)):
        Table("t", [Column(k, k) for k in keys], [], notes)


def test_rendering_is_deterministic():
    t = sample_table()
    for fmt in ("csv", "json", "table"):
        assert render(t, fmt) == render(t, fmt)


def test_csv_round_trip():
    back = read_csv(render_csv(sample_table()))
    assert back.notes == ["first note", "second note"]
    assert [c.key for c in back.columns] == ["k", "v", "n"]
    assert back.records() == [
        {"k": "a", "v": 1.23, "n": 7},
        {"k": "b", "v": 50.0, "n": 1200},
    ]


def test_json_round_trip():
    back = read_json(render_json(sample_table()))
    assert back.name == "demo"
    assert back.records()[1] == {"k": "b", "v": 50.0, "n": 1200}
    assert back.notes == ["first note", "second note"]


# Cells with line breaks, delimiters, quotes and leading "# "; no digits,
# so none reads back as a number.
csv_texts = st.text("ab ,\"#\r\n", max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(csv_texts, csv_texts), max_size=5),
       st.lists(st.text("ab #,\"", max_size=4), max_size=2))
@example([("l\nm", "p\r\nq"), ("# x", "# x,2"), ('say "hi", then', "")], ["a note"])
def test_csv_reads_back_every_cell_and_note(rows, notes):
    table = Table("t", [Column("a", "A"), Column("b", "B"), Column("n", "N", "d")],
                  [{"a": a, "b": b, "n": i} for i, (a, b) in enumerate(rows)], notes)
    back = read_csv(render_csv(table))
    assert (back.notes, back.records()) == (notes, table.records())


@pytest.mark.parametrize("text", ["", "\r\n", "# a note\r\n", "# one\r\n# two\r\n"])
def test_csv_without_a_header_line_is_refused(text):
    with pytest.raises(ValueError, match="csv text has no header line"):
        read_csv(text)


@pytest.mark.parametrize("text,fields", [("a,b\r\n1,2\r\n3\r\n", 1), ("a\r\n1,2\r\n", 2)])
def test_a_csv_row_whose_field_count_is_not_its_header_s_is_refused(text, fields):
    with pytest.raises(ValueError, match=f"csv row [12] has {fields} fields, its header"):
        read_csv(text)


def test_dicts_make_one_block_of_own_entries():
    table = sample_table()
    (block,) = table.rows.produce(range(table.rows.blocks))
    assert (block.own, block.shared) == ([[["a", "b"], [1.234, 50.0], [7, 1200]]], [])
    assert list(table.rows) == [(("a", 1.234, 7), ()), (("b", 50.0, 1200), ())]
    assert len(table.rows) == 2
    empty = Table("t", table.columns, [])
    assert (list(empty.rows), len(empty.rows), empty.rows.blocks) == ([], 0, 0)


cells = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e15, max_value=1e15
)


@given(st.lists(st.tuples(cells, cells), min_size=1, max_size=8))
def test_csv_and_json_carry_identical_numbers(pairs):
    t = Table(
        name="p",
        columns=[Column("x", "X", ".6g"), Column("y", "Y", ".6g")],
        rows=[{"x": x, "y": y} for x, y in pairs],
    )
    from_csv = read_csv(render_csv(t)).records()
    from_json = read_json(render_json(t)).records()
    assert len(from_csv) == len(from_json) == len(pairs)
    for a, b in zip(from_csv, from_json):
        assert a["x"] == b["x"] and a["y"] == b["y"]


def test_equal_but_distinct_neighbours_are_formatted_on_their_own():
    # Renderers format a sequence that several parts of a block hold in one
    # column once, and reuse its texts. Sequences that are equal but not
    # the same object must still be formatted each: 0.0 and -0.0, or 1, 1.0
    # and True, are equal but format differently.
    columns = [Column("name", "Name"), Column("z", "Z"), Column("n", "N"),
               Column("f", "F", ".2f"), Column("s", "S")]

    def part(*cells):
        return [[cell] for cell in cells]

    repeated = part(1.0, True, 0.5, "1")  # one object, the shared part of rows 2 and 3
    parts = [part(0.0, 1, 0.5, "1"), part(-0.0, 1.0, float("0.5"), 1), repeated, repeated,
             part(0.0, True, 0.5, "1"), part(0.0, 1, 0.5, "1")]
    assert parts[0] == parts[4] == parts[5]  # equal, yet each formatted
    names = [f"r{i}" for i in range(len(parts))]
    block = Block([[names]], parts, range(len(parts)), range(len(parts)))
    table = Table("reuse", columns, Rows.of([block]))
    expected = [[format_cell(row[c.key], c.spec) for c in columns] for row in table.records()]
    assert [cells[1] for cells in expected[:2]] == ["0.0", "-0.0"]
    assert [cells[2] for cells in expected[:3]] == ["1", "1.0", "True"]
    assert expected[4][2] == "True"

    assert render_csv(table).split("\r\n")[1:-1] == [",".join(c) for c in expected]
    text_rows = render(table, "table").splitlines()[3:]
    assert [line.split() for line in text_rows] == expected
    for row, texts, got in zip(table.records(), expected, json.loads(render_json(table))["rows"]):
        for column, text in zip(columns, texts):
            want = text if isinstance(row[column.key], str) else _parse_number(text)
            assert got[column.key] == want
            assert type(got[column.key]) is type(want)


class _Counted(float):
    """A float that counts how often it is formatted."""

    formats = 0

    def __format__(self, spec):
        _Counted.formats += 1
        return float.__format__(self, spec)


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_a_shared_tuple_is_formatted_once_while_it_comes_back(fmt):
    # The rows of a run point at one shared entry, the tuple of cells they
    # share; it is formatted once, also when rows far apart point at it.
    block = Block([[["a", "b", "c", "d"]]], [[[_Counted(1.5), _Counted(2.5)]]], range(4),
                  [0, 0, 1, 0])
    table = Table("t", [Column("name", "Name"), Column("x", "X", ".2f")],
                  Rows.of([block]))
    _Counted.formats = 0
    got = render(table, fmt)
    assert _Counted.formats == 2
    assert got == render(Table("t", table.columns, table.records()), fmt)


def _reference_json(table):
    """The json rendering as one `json.dumps` over the whole document, each
    row built on its own from its record."""
    doc = {
        "table": table.name,
        "columns": [{"key": c.key, "title": c.title} for c in table.columns],
        "rows": [{c.key: _json_cell(row[c.key], c.spec) for c in table.columns}
                 for row in table.records()],
        "notes": list(table.notes),
    }
    return json.dumps(doc, indent=2) + "\n"


_INTS = st.integers(min_value=-10**40, max_value=10**40)
_NUMBERS = _INTS | st.floats() | st.just(-0.0)  # nan and +-inf included
_STRINGS = st.text(max_size=6) | st.sampled_from(
    ["0", "-0.0", "007", "1,000", "1e5", "nan", "-inf", "12.50"])  # read as numbers


def _csv_safe_key(key):
    return not key.startswith("# ")  # a first key a `Table` refuses


def _one_line(note):
    return "\n" not in note and "\r" not in note  # a note a `Table` takes


@st.composite
def json_tables(draw):
    # Keys needing json escapes, and unique, as a table's keys must be.
    keys = st.sampled_from(["k", "v", "ü", "n x"]) | st.text(max_size=3).filter(_csv_safe_key)
    specs = draw(st.lists(st.tuples(keys, st.text(max_size=6),
                                    st.sampled_from(["", ",", ".3f", "d", "g"])),
                          max_size=6, unique_by=lambda spec: spec[0]))
    columns = [Column(key, title, spec) for key, title, spec in specs]
    # "d" takes ints only.
    values = {c.key: (_INTS if c.spec == "d" else _NUMBERS) | _STRINGS for c in columns}
    rows = draw(st.lists(st.fixed_dictionaries(values), max_size=4))
    # Split every row at one column, and let runs of rows share one shared
    # entry, as the cli's rows of one run do.
    return split_table(columns, [tuple(row[c.key] for c in columns) for row in rows],
                       draw(st.integers(min_value=0, max_value=len(columns))),
                       draw(st.sets(st.integers(1, 3))),
                       draw(st.lists(st.text(max_size=8).filter(_one_line), max_size=3)),
                       draw(st.text(max_size=8)))


@given(json_tables())
def test_json_matches_one_dumps_of_the_whole_document(table):
    assert render_json(table) == _reference_json(table)


def _flat_cells(table):
    """Each row's cells formatted on their own, in column order."""
    return [[format_cell(row[c.key], c.spec) for c in table.columns] for row in table.records()]


def _reference_csv(table):
    """The csv rendering with every row written whole by the csv module."""
    buf = io.StringIO()
    for note in table.notes:
        buf.write(f"# {note}\r\n")
    writer = csv.writer(buf)
    writer.writerow([c.key for c in table.columns])
    writer.writerows(_flat_cells(table))
    return buf.getvalue()


def _reference_text(table):
    """The text rendering with every row formatted on its own."""
    headers = [c.title for c in table.columns]
    grid = _flat_cells(table)
    widths = [max([len(h)] + [len(row[i]) for row in grid]) for i, h in enumerate(headers)]
    lines = [table.name,
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() for row in grid]
    lines += [f"note: {note}" for note in table.notes]
    return "\n".join(lines) + "\n"


_REFERENCES = {"csv": _reference_csv, "json": _reference_json, "table": _reference_text}


@given(json_tables())
def test_csv_and_text_match_a_rendering_of_flat_rows(table):
    # Strings with commas, quotes, newlines or nothing at all test the csv
    # module's quoting of a row written in two parts.
    assert render_csv(table) == _reference_csv(table)
    assert render(table, "table") == _reference_text(table)


@pytest.mark.parametrize("rows", [
    [(("",), ("x",))], [(("x",), ("",))], [(("",), ("",))], [((), ("",))],
    [(("",), ())], [((), ())], [(("a,b", 'q"'), ("\n", ""))],
])
def test_csv_row_parts_quote_as_the_whole_row(rows):
    # The csv module writes a row of one empty field as "", and an empty
    # field within a longer row as nothing. Each row is (own, shared).
    n = len(rows[0][0]) + len(rows[0][1])
    table = split_table([Column(f"c{i}", f"C{i}") for i in range(n)],
                        [own + shared for own, shared in rows], len(rows[0][0]))
    assert render_csv(table) == _reference_csv(table)


# Specs that format numbers only, that format strings too (alignment,
# precision, "s"), that fill with a delimiter or quote, "," itself, and a
# brace, which in a format string would take the spec from another cell.
_CSV_SPECS = ["", ",", ".3f", "d", "g", "s", ">5", ".2", "_", '",>7', ",<6", "+.1e", "%", "{1}"]
_CSV_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\x1f{}0')), max_size=5)
_CSV_NOTE = _CSV_TEXT.filter(_one_line)
_CSV_CELLS = (_CSV_TEXT | st.booleans() | _INTS | st.floats()
              | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), ""]))


@st.composite
def csv_tables(draw):
    specs = draw(st.lists(st.sampled_from(["", ","]) | st.sampled_from(_CSV_SPECS), max_size=5))
    columns = [Column(f"c{i}", f"C{i}", spec) for i, spec in enumerate(specs)]
    rows = [tuple(draw(_CSV_CELLS) for _ in columns)
            for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    return split_table(columns, rows, draw(st.integers(min_value=0, max_value=len(columns))),
                       draw(st.sets(st.integers(1, 3))), draw(st.lists(_CSV_NOTE, max_size=2)))


@settings(max_examples=500, deadline=None)
@given(csv_tables())
# A lone field holding the delimiter, as a string or a "," grouped number;
# a lone empty field; fields holding a quote, an LF and the separator.
@example(split_table([Column("a", "A"), Column("b", "B", ",")], [("x,y", 1234)], 1))
@example(split_table([Column("a", "A")], [("",)], 1))
@example(split_table([Column("a", "A"), Column("b", "B")], [('q"', "l\nm", "\x1f")], 2))
# A row whose own cell and shared cell both fail.
@example(split_table([Column("a", "A", "d"), Column("b", "B", "d")], [(1.5, 2.5j)], 1))
def test_csv_fast_path_writes_what_the_csv_module_writes(table):
    # `render_csv` formats each column in one pass and quotes its fields by
    # hand, and the text rendering formats each column in one pass; the
    # references format every cell through `format_cell` and
    # write every row whole, csv through the csv module. Where a cell
    # fails its spec, every rendering fails with a failing cell's error.
    try:
        want = _reference_csv(table)
    except (ValueError, TypeError):  # a cell its spec cannot format
        _assert_fails(table, ("csv", "table", "json"))
    else:
        assert render_csv(table) == want
        assert render(table, "table") == _reference_text(table)


def _assert_fails(table, fmts):
    """Rendering `table` in each of `fmts` fails with the error that
    `format_cell` gives one of its cells."""
    failures = set()
    for row in table.records():
        for column in table.columns:
            try:
                format_cell(row[column.key], column.spec)
            except (ValueError, TypeError) as exc:
                failures.add((type(exc), str(exc)))
    assert failures
    for fmt in fmts:
        with pytest.raises((ValueError, TypeError)) as raised:
            render(table, fmt)
        assert (type(raised.value), str(raised.value)) in failures


def _parts(draw, entries, width):
    """`entries`, each `width` cells, as columns over parts cut at random
    places; past a part's first column, a column whose cells are one
    object may be an `itertools.repeat` of it."""
    if not width:
        return [[]]
    cuts = sorted(draw(st.sets(st.integers(1, len(entries) - 1)))) if len(entries) > 1 else []
    parts = []
    for start, end in zip([0, *cuts], [*cuts, len(entries)]):
        part = [list(column) for column in zip(*entries[start:end])]
        parts.append([itertools.repeat(cells[0]) if at and draw(st.booleans())
                      and all(cell is cells[0] for cell in cells) else cells
                      for at, cells in enumerate(part)])
    return parts


def _shuffled(draw, entries):
    """`entries` in a random order, and where each one went."""
    order = draw(st.permutations(range(len(entries))))
    return [entries[i] for i in order], {i: at for at, i in enumerate(order)}


@st.composite
def cut_tables(draw):
    # A random table, as one flat block and cut into random blocks: one-row
    # blocks, entries in any order over several parts, repeated cells as
    # `itertools.repeat`, and shared entries that rows far apart reuse.
    specs = draw(st.lists(st.sampled_from(_CSV_SPECS), max_size=5))
    columns = [Column(f"c{i}", f"C{i}", spec) for i, spec in enumerate(specs)]
    split = draw(st.integers(min_value=0, max_value=len(columns)))
    count = draw(st.integers(min_value=1, max_value=8))
    # Own columns of few objects, as the cli's cells of one sample count.
    few = [draw(st.lists(_CSV_CELLS, min_size=1, max_size=2)) if draw(st.booleans()) else None
           for _ in range(split)]
    pool = [tuple(draw(_CSV_CELLS) for _ in columns[split:])
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    rows = [(tuple(draw(st.sampled_from(few[c]) if few[c] else _CSV_CELLS) for c in range(split)),
             draw(st.sampled_from(pool))) for _ in range(count)]
    cuts = sorted(draw(st.sets(st.integers(1, count - 1)))) if count > 1 else []
    blocks = []
    for start, end in zip([0, *cuts], [*cuts, count]):
        chunk = rows[start:end]
        own, own_at = _shuffled(draw, [cells for cells, _ in chunk])
        distinct = list({id(shared): shared for _, shared in chunk}.values())
        shared, where = _shuffled(draw, distinct)
        at = {id(entry): where[i] for i, entry in enumerate(distinct)}
        blocks.append(Block(_parts(draw, own, split), _parts(draw, shared, len(columns) - split),
                            [own_at[i] for i in range(len(chunk))],
                            [at[id(shared)] for _, shared in chunk]))
    notes = draw(st.lists(_CSV_NOTE, max_size=2))
    keys = [c.key for c in columns]
    return (Table("t", columns, Rows.of(blocks), notes),
            Table("t", columns, [dict(zip(keys, own + shared)) for own, shared in rows], notes))


def _cut(columns, blocks, notes=()):
    """A table of `blocks`, and the same rows given as dicts."""
    cut = Table("t", columns, Rows.of(blocks), notes)
    return cut, Table("t", columns, cut.records(), notes)


@settings(max_examples=400, deadline=None)
@given(cut_tables(), st.sampled_from(sorted(_REFERENCES)))
# A repeated cell stands for each entry of its own part, not the first's.
@example(_cut([Column("a", "A"), Column("b", "B", "d")],
              [Block([[["p"], [1]], [["q", "r"], itertools.repeat(2)]], [[]], [0, 1, 2],
                     [0, 0, 0])]), "table")
# A column whose every cell holds a comma, and one a quote.
@example(_cut([Column("a", "A"), Column("b", "B")],
              [Block([[["a,b", 'c,"d']]], [[[1, 2]]], [0, 1], [0, 1])]), "csv")
# A block after the first holds cells that fail, both own and shared.
@example(_cut([Column("a", "A", "d"), Column("b", "B", "d")],
              [Block([[["x"]]], [[["y"]]], [0], [0]), Block([[[1.5]]], [[[2.5j]]], [0], [0])]),
         "csv")
def test_blocks_render_as_their_flat_rows(tables, fmt):
    # Cells that csv quotes, strings under number specs, specs that format
    # strings, and cells their spec cannot format: any cut of a table into
    # blocks renders the bytes of its rows given as dicts, or fails as they
    # do, with a failing cell's error.
    cut, flat = tables
    assert cut.records() == flat.records()
    try:
        want = _REFERENCES[fmt](flat)
    except (ValueError, TypeError):  # a cell its spec cannot format
        for table in (cut, flat):
            _assert_fails(table, [fmt])
    else:
        assert render(cut, fmt) == render(flat, fmt) == want
        # One part before the rows, one per block, and on json and text one after.
        parts = list(iter_parts(cut, fmt))
        assert "".join(parts) == want
        assert len(parts) == cut.rows.blocks + (1 if fmt == "csv" else 2)


_AXES = {"bandwidth_mhz": [20.0, 100.0, 400.0], "antennas": [8, 64],
         "modulation_bits": [2, 6], "coding_rate": [0.5, 1.0]}
cli_configs = st.fixed_dictionaries({
    "topology": st.one_of(st.just({"kind": "bs"}), st.builds(
        lambda n: {"kind": "cran", "n_bs": n}, st.integers(1, 4))),
    "cmos": st.lists(st.sampled_from(["65nm", "14nm", "1.5nm"]), min_size=1, max_size=3,
                     unique=True),
    "qa": st.sampled_from([{"profile": "projected"}, {"profile": "current"}]),
    "horizons_years": st.sampled_from([[1, 10], [2.5]]),
})
# Every sweep has a samples axis, so runs hold several rows.
cli_sweeps = st.dictionaries(st.sampled_from(sorted(_AXES)), st.none(), max_size=2).flatmap(
    lambda axes: st.fixed_dictionaries({
        "samples": st.lists(st.sampled_from([1, 20, 50]), min_size=1, max_size=3),
        **{axis: st.lists(st.sampled_from(_AXES[axis]), min_size=1, max_size=3)
           for axis in axes},
    }))


@pytest.mark.parametrize("fmt", sorted(_REFERENCES))
@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=15, deadline=None)
@given(doc=cli_configs, sweep=cli_sweeps)
def test_cli_tables_render_as_their_flat_rows(command, fmt, doc, sweep):
    # The cli's rows share their trailing cells within a run; rendering
    # them must give what rendering every row on its own gives.
    cfg = parse_config(doc)._replace(sweep=sweep)
    got = render(_COMMANDS[command](cfg, []), fmt)
    assert got == _REFERENCES[fmt](_COMMANDS[command](cfg, []))


class _Float(float):
    """A float subclass: formatted through `format`, as any type but
    float and int is."""


_MIXED = st.sampled_from([1.5, -0.0, 0.0, float("nan"), float("inf"), 7, -3, 10**30, True,
                          False, "", "x,y", "12.5", _Float(2.5)]) | st.floats() | _INTS


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["", ".1f", ".3f", ".0f", "d", "g", ",", ">6", "s", ".2"]),
       st.lists(_MIXED, min_size=1, max_size=6))
@example(".1f", [1.5, 2])  # an int after a float
@example("d", [2, True])  # a bool after an int
@example("d", [2, 2.5])  # a float after an int
@example(".1f", [-0.0, float("nan"), "text"])  # a str after floats
@example("", [1.0, "text"])  # an empty spec, under which `format` writes a str
@example(",", ["x,y", 1234])  # a str first, under a spec for numbers
@example(".1f", [10**400])  # an int past float range
def test_typed_formatting_gives_the_texts_of_format_cell(spec, cells):
    # A column is formatted in one pass: by its first cell's type's
    # `__format__` where that is exactly float or int, and else, or where
    # that refuses a cell, by `format` or `format_cell`. It gives the texts
    # of `format_cell`, and fails where `format_cell` fails for some cell.
    column = _cell_texts([spec])
    try:
        want = [format_cell(value, spec) for value in cells]
    except (ValueError, TypeError, ArithmeticError):
        with pytest.raises((ValueError, TypeError, ArithmeticError)):
            column(0, cells)
    else:
        assert column(0, cells) == want


# Configs and sweep flags for the cli's tables: both topologies, the tiny
# node, whose power overflows, horizons with a fraction, sample counts past
# float range, -0.0 (a failing value, so a skipped point) and bandwidths
# near float range, which overflow the model.
typed_configs = st.fixed_dictionaries({
    "topology": st.sampled_from([{"kind": "bs"}, {"kind": "cran", "n_bs": 1},
                                 {"kind": "cran", "n_bs": 3},
                                 {"kind": "cran", "n_bs": 10000, "fronthaul_gbps": 1e150}]),
    # Nodes that price every point drawn more often than the tiny one.
    "cmos": st.lists(st.sampled_from(["65nm", "14nm", "1.5nm"] * 2
                                     + [{"node": "tiny", "efficiency_tops_per_w": 1e-305}]),
                     min_size=1, max_size=3, unique_by=str),
    "samples": st.sampled_from([1, 20, 10**400]),
    "horizons_years": st.sampled_from([[1, 10], [0, 2.5]]),
})
_TYPED_VALUES = {
    "bandwidth_mhz": ["20", "100", "400", "0.5", "1e6", "-0.0", "1e290", "1e300", "1.7e308"],
    "antennas": ["1", "8", "64", "1000"],
    "samples": ["1", "50", "1" + "0" * 400],
    "modulation_bits": ["2", "6"],
    "coding_rate": ["0.5", "1", "-0.0"],
    "duty_time": ["0.3", "1"],
}
typed_sweeps = st.dictionaries(st.sampled_from(sorted(_TYPED_VALUES)), st.none(),
                               max_size=3).flatmap(lambda axes: st.tuples(*[
                                   st.lists(st.sampled_from(_TYPED_VALUES[axis]), min_size=1,
                                            max_size=3, unique=True)
                                   .map(lambda values, axis=axis: f"{axis}={','.join(values)}")
                                   for axis in axes]))


def _checked_iter_parts(table, fmt, span=None):
    """`iter_parts`, once every column sequence of `table`'s blocks is checked
    to hold cells of one type its spec formats in one pass: an int or a
    float, never a bool, under a number spec, and a str under an empty one."""
    count = len(table.columns)
    for block in table.rows.produce(range(table.rows.blocks)):
        split = min(len(block.own[0]) if block.own else 0, count)
        for parts, first in ((block.own, 0), (block.shared, split)):
            for part in parts:
                for column, cells in zip(table.columns[first:count], part):
                    if type(cells) is itertools.repeat:
                        cells = [next(cells)]
                    kinds = set(map(type, cells))
                    assert kinds in ([{int}, {float}] if column.spec else [{str}]), (
                        table.name, column, kinds)
    return iter_parts(table, fmt, span)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(doc=typed_configs, flags=typed_sweeps)
@example(doc={"topology": {"kind": "bs"}, "cmos": ["14nm"], "samples": 10**400,
              "horizons_years": [0, 2.5]},
         flags=("bandwidth_mhz=-0.0,1e290", "samples=1," + "1" + "0" * 400))
def test_cli_cells_have_types_their_columns_format_in_one_pass(command, doc, flags):
    # The column pass formats a column by its first cell's type, so a cell
    # of any other type, or a str under a number spec, would take it off
    # its one pass. No cli table holds such a cell.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, "--config", path, "--format", "csv"]
        for flag in flags:
            argv += ["--sweep", flag]
        out, err = io.StringIO(), io.StringIO()
        with unittest.mock.patch.object(cli, "iter_parts", _checked_iter_parts), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    # Exit 1 only where every point is skipped, 2 where the model fails.
    assert code in (0, 2, 3) or err.getvalue().endswith(
        "qaplan: config error: sweep produced no valid points\n"), err.getvalue()
