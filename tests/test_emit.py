"""Emission layer: deterministic rendering and round-trip parsing."""

import json

import pytest
from hypothesis import given, strategies as st

from qaplan.emit import (
    Column,
    Table,
    _json_cell,
    _parse_number,
    format_cell,
    read_csv,
    read_json,
    render,
    render_csv,
    render_json,
    render_text,
)


def sample_table():
    return Table(
        name="demo",
        columns=[Column("k", "Key"), Column("v", "Value", ".2f"), Column("n", "N", "d")],
        rows=[{"k": "a", "v": 1.234, "n": 7}, {"k": "b", "v": 50.0, "n": 1200}],
        notes=["first note", "second note"],
    )


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
    out = render_text(sample_table())
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert lines[1].split() == ["Key", "Value", "N"]
    assert set(lines[2]) == {"-", " "}
    assert lines[-1] == "note: second note"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(sample_table(), "yaml")


def test_rendering_is_deterministic():
    t = sample_table()
    for fmt in ("csv", "json", "table"):
        assert render(t, fmt) == render(t, fmt)


def test_csv_round_trip():
    back = read_csv(render_csv(sample_table()))
    assert back.notes == ["first note", "second note"]
    assert [c.key for c in back.columns] == ["k", "v", "n"]
    assert back.rows == [
        {"k": "a", "v": 1.23, "n": 7},
        {"k": "b", "v": 50.0, "n": 1200},
    ]


def test_json_round_trip():
    back = read_json(render_json(sample_table()))
    assert back.name == "demo"
    assert back.rows[1] == {"k": "b", "v": 50.0, "n": 1200}
    assert back.notes == ["first note", "second note"]


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
    from_csv = read_csv(render_csv(t)).rows
    from_json = read_json(render_json(t)).rows
    assert len(from_csv) == len(from_json) == len(pairs)
    for a, b in zip(from_csv, from_json):
        assert a["x"] == b["x"] and a["y"] == b["y"]


def test_equal_but_distinct_neighbours_are_formatted_on_their_own():
    # Renderers reuse a cell's text when its value `is` the one above it.
    # Values that are equal but not identical must still be formatted each.
    half, other_half = float("0.5"), float("0.5")
    assert half is not other_half
    shared = float("2.5")  # one object in every row
    columns = [Column("z", "Z"), Column("n", "N"), Column("f", "F", ".2f"),
               Column("s", "S"), Column("shared", "Shared", ".3f")]
    cycles = {"z": [0.0, -0.0], "n": [1, 1.0, True], "f": [half, other_half],
              "s": ["1", 1]}
    table = Table("reuse", columns, [
        {**{key: cycle[i % len(cycle)] for key, cycle in cycles.items()},
         "shared": shared}
        for i in range(8)
    ])
    expected = [[format_cell(row[c.key], c.spec) for c in columns]
                for row in table.rows]
    assert [cells[0] for cells in expected[:2]] == ["0.0", "-0.0"]
    assert [cells[1] for cells in expected[:3]] == ["1", "1.0", "True"]

    assert render_csv(table).split("\r\n")[1:-1] == [",".join(c) for c in expected]
    text_rows = render_text(table).splitlines()[3:]
    assert [line.split() for line in text_rows] == expected
    for row, cells, got in zip(table.rows, expected,
                               json.loads(render_json(table))["rows"]):
        for column, text in zip(columns, cells):
            value = row[column.key]
            want = text if isinstance(value, str) else _parse_number(text)
            assert got[column.key] == want
            assert type(got[column.key]) is type(want)


def _reference_json(table):
    """The json rendering as one `json.dumps` over the whole document."""
    keys = [c.key for c in table.columns]
    doc = {
        "table": table.name,
        "columns": [{"key": c.key, "title": c.title} for c in table.columns],
        "rows": [dict(zip(keys, [_json_cell(row[c.key], c.spec) for c in table.columns]))
                 for row in table.rows],
        "notes": list(table.notes),
    }
    return json.dumps(doc, indent=2) + "\n"


_INTS = st.integers(min_value=-10**40, max_value=10**40)
_NUMBERS = _INTS | st.floats() | st.just(-0.0)  # nan and +-inf included
_STRINGS = st.text(max_size=6) | st.sampled_from(
    ["0", "-0.0", "007", "1,000", "1e5", "nan", "-inf", "12.50"])  # read as numbers


@st.composite
def json_tables(draw):
    # A small key alphabet, so that columns sometimes repeat a key.
    keys = st.sampled_from(["k", "v", "ü", "n x"]) | st.text(max_size=3)
    specs = draw(st.lists(st.tuples(keys, st.text(max_size=6),
                                    st.sampled_from(["", ",", ".3f", "d", "g"])),
                          max_size=6))
    columns = [Column(key, title, spec) for key, title, spec in specs]
    # A key's numbers must format under every spec it has: "d" takes ints only.
    values = {key: (_INTS if any(c.spec == "d" for c in columns if c.key == key)
                    else _NUMBERS) | _STRINGS
              for key in dict.fromkeys(c.key for c in columns)}
    rows = draw(st.lists(st.fixed_dictionaries(values), max_size=4))
    return Table(draw(st.text(max_size=8)), columns, rows,
                 draw(st.lists(st.text(max_size=8), max_size=3)))


@given(json_tables())
def test_json_matches_one_dumps_of_the_whole_document(table):
    assert render_json(table) == _reference_json(table)
