from __future__ import annotations

import csv
import io
import json
import random
import string
import xml.etree.ElementTree as ET

import pytest

from semchain import (
    EMPTY,
    SourceFormat,
    Table,
    parse_source,
    serialize_table,
)
from semchain.errors import EmptySourceError, FormatError

from helpers import DEEPLY_NESTED


def test_parse_csv_missing_cell_becomes_sentinel():
    table = parse_source(b"name,year\nMonet,1872\nDegas,", SourceFormat.CSV, "t")
    assert table.attributes == ("name", "year")
    assert table.records == (
        {"name": "Monet", "year": "1872"},
        {"name": "Degas", "year": EMPTY},
    )


def test_parse_json_wrapped_array():
    table = parse_source(b'{"rows": [{"a": "x"}]}', SourceFormat.JSON, "t")
    assert table.attributes == ("a",)
    assert table.records == ({"a": "x"},)


def test_parse_json_nested_fields_flatten_with_dots():
    raw = b'[{"artist": {"name": "Monet", "born": 1840}, "title": "Poppies"}]'
    table = parse_source(raw, SourceFormat.JSON, "t")
    assert table.attributes == ("artist.name", "artist.born", "title")
    assert table.records[0] == {"artist.name": "Monet", "artist.born": "1840", "title": "Poppies"}


def test_parse_xml_against_dom_walk_oracle():
    rows = "".join(
        f"<row><left>L{i}</left><right>R{i}</right></row>" for i in range(5)
    )
    raw = f"<doc>{rows}</doc>".encode()
    table = parse_source(raw, SourceFormat.XML, "t")

    root = ET.fromstring(raw.decode())
    oracle_rows = [child for child in root if child.tag == "row"]
    oracle_attrs = {grandchild.tag for child in oracle_rows for grandchild in child}
    assert len(table.records) == len(oracle_rows) == 5
    assert set(table.attributes) == oracle_attrs
    assert len(table.attributes) == 2


def test_parse_xml_picks_most_frequent_child_tag():
    raw = b"<doc><meta><v>1</v></meta><r><a>1</a></r><r><a>2</a></r></doc>"
    table = parse_source(raw, SourceFormat.XML, "t")
    assert len(table.records) == 2
    assert table.attributes == ("a",)


def test_parse_xml_nested_elements_flatten_with_dots():
    raw = b"<doc><r><who><name>Monet</name></who><when>1872</when></r></doc>"
    table = parse_source(raw, SourceFormat.XML, "t")
    assert table.attributes == ("who.name", "when")


def test_empty_values_always_become_the_sentinel():
    csv_table = parse_source(b"a,b\n,x\n", SourceFormat.CSV, "t")
    xml_table = parse_source(b"<d><r><a></a><b>x</b></r></d>", SourceFormat.XML, "t")
    json_table = parse_source(b'[{"a": null, "b": ""}]', SourceFormat.JSON, "t")
    for table in (csv_table, xml_table, json_table):
        for record in table.records:
            assert "" not in record.values()
            assert EMPTY in record.values()


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_source(b"a,b\n1,2,3\n", SourceFormat.CSV, "t")
    with pytest.raises(FormatError):
        parse_source(b"a,a\n1,2\n", SourceFormat.CSV, "t")
    with pytest.raises(FormatError):
        parse_source(b"<unclosed>", SourceFormat.XML, "t")
    with pytest.raises(FormatError):
        parse_source(b"{not json", SourceFormat.JSON, "t")
    with pytest.raises(EmptySourceError):
        parse_source(b"[]", SourceFormat.JSON, "t")
    with pytest.raises(EmptySourceError):
        parse_source(b"", SourceFormat.CSV, "t")
    with pytest.raises(EmptySourceError):
        parse_source(b"<doc></doc>", SourceFormat.XML, "t")


def test_serialize_caps_records():
    records = [{"a": str(i)} for i in range(10)]
    table = Table("t", SourceFormat.JSON, ("a",), tuple(records))
    serialized = serialize_table(table, 3)
    assert json.loads(serialized.text) == records[:3]


def test_serialize_cap_exceeding_size_keeps_all():
    table = Table("t", SourceFormat.JSON, ("a",), ({"a": "1"}, {"a": "2"}))
    assert len(json.loads(serialize_table(table, 3).text)) == 2


def test_serialize_is_deterministic():
    table = Table("t", SourceFormat.CSV, ("b", "a"), ({"b": "1", "a": "2"},))
    assert serialize_table(table, 3).text == serialize_table(table, 3).text
    assert list(json.loads(serialize_table(table, 3).text)[0]) == ["b", "a"]


def _random_table(rng: random.Random) -> Table:
    n_attrs = rng.randint(1, 5)
    attrs = tuple(f"col_{i}" for i in range(n_attrs))
    records = []
    for _ in range(rng.randint(1, 6)):
        record = {}
        for a in attrs:
            if rng.random() < 0.2:
                record[a] = EMPTY
            else:
                record[a] = "".join(rng.choices(string.ascii_letters + " .,", k=rng.randint(1, 8)))
        records.append(record)
    return Table("rand", SourceFormat.JSON, attrs, tuple(records))


def test_round_trip_random_tables():
    rng = random.Random(7)
    for _ in range(50):
        table = _random_table(rng)
        cap = rng.randint(1, 8)
        serialized = serialize_table(table, cap)
        back = parse_source(serialized.text.encode(), SourceFormat.JSON, "rand")
        assert back.attributes == table.attributes
        assert back.records == table.records[:cap]


def test_serialize_count_property():
    rng = random.Random(13)
    for _ in range(50):
        table = _random_table(rng)
        cap = rng.randint(1, 9)
        assert len(json.loads(serialize_table(table, cap).text)) == min(cap, len(table.records))


def _random_json(rng: random.Random, level: int = 0):
    choices = ["str", "int", "float", "bool", "null"]
    if level < 3:
        choices += ["obj", "arr"]
    kind = rng.choice(choices)
    if kind == "str":
        return "".join(rng.choices(string.printable[:60], k=rng.randint(0, 6)))
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "float":
        return round(rng.uniform(-10, 10), 4)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "arr":
        return [_random_json(rng, level + 1) for _ in range(rng.randint(0, 4))]
    return {f"k{i}": _random_json(rng, level + 1) for i in range(rng.randint(0, 4))}


def _generated_json(rng: random.Random) -> bytes:
    records = [_random_json(rng, level=2) for _ in range(rng.randint(0, 4))]
    records = [r if isinstance(r, dict) else {"v": r} for r in records]
    return json.dumps(records).encode()


def _generated_csv(rng: random.Random) -> bytes:
    alphabet = string.ascii_letters + string.digits + " ,;\"'\n"
    n_cols = rng.randint(1, 4)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([f"col{i}" for i in range(n_cols)])
    for _ in range(rng.randint(0, 5)):
        writer.writerow(["".join(rng.choices(alphabet, k=rng.randint(0, 10))) for _ in range(n_cols)])
    return buffer.getvalue().encode()


def _generated_xml(rng: random.Random) -> bytes:
    root = ET.Element("root")
    for _ in range(rng.randint(0, 5)):
        row = ET.SubElement(root, "row")
        for i in range(rng.randint(0, 4)):
            cell = ET.SubElement(row, f"f{i}")
            cell.text = "".join(rng.choices(string.ascii_letters + " <&>", k=rng.randint(0, 8)))
    return ET.tostring(root)


GENERATORS = {
    SourceFormat.CSV: _generated_csv,
    SourceFormat.XML: _generated_xml,
    SourceFormat.JSON: _generated_json,
}


def test_parse_is_total_on_structurally_valid_inputs():
    rng = random.Random(3)
    for _ in range(60):
        try:
            parse_source(_generated_json(rng), SourceFormat.JSON, "fuzz")
        except (FormatError, EmptySourceError):
            pass


def test_parse_is_total_on_generated_csv_and_xml():
    rng = random.Random(23)
    for generate, fmt in ((_generated_csv, SourceFormat.CSV), (_generated_xml, SourceFormat.XML)):
        for _ in range(40):
            try:
                parse_source(generate(rng), fmt, "fuzz")
            except (FormatError, EmptySourceError):
                pass


def _outcome(raw: bytes, fmt: SourceFormat, record_cap=None):
    try:
        return parse_source(raw, fmt, "s", record_cap)
    except (FormatError, EmptySourceError) as exc:
        return type(exc)


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_capped_parse_is_the_head_of_the_full_parse(fmt):
    rng = random.Random(f"capped-{fmt.value}")
    for _ in range(80):
        raw = GENERATORS[fmt](rng)
        full = _outcome(raw, fmt)
        for cap in range(1, 6):
            capped = _outcome(raw, fmt, cap)
            if isinstance(full, Table):
                assert capped.attributes == full.attributes
                assert capped.records == full.records[:cap]
            else:
                assert capped is full


@pytest.mark.parametrize(
    "fmt, raw",
    [
        (SourceFormat.CSV, b"a,b\n1,2\n3,4\n5,6,7\n"),
        (SourceFormat.XML, b"<d><r><a>1</a></r><r><a>2</a></r><r><a>3</a><a>4</a></r></d>"),
        (SourceFormat.JSON, b'[{"a": {"b": 1}}, {"a": {"b": 2}}, {"a.b": 3, "a": {"b": 4}}]'),
        (SourceFormat.JSON, b'[{"a": 1}, {"a": 2}, 3]'),
        (SourceFormat.JSON, b'{"rows": [{"a": 1}, {"a": 2}, 3]}'),
        (SourceFormat.XML, b"<d><r><a>1</a></r><r><a>2</a></r><r><a>3</a></r>"),
        (SourceFormat.CSV, b"a\n1\n2\n3\n\xff\n"),
    ],
    ids=["csv-wide-row", "xml-repeat", "json-collision", "json-non-object", "json-wrapped-non-object",
         "xml-unclosed-root", "csv-bad-utf8"],
)
def test_defects_after_the_cap_still_raise(fmt, raw):
    for cap in (1, 2, None):
        with pytest.raises(FormatError):
            parse_source(raw, fmt, "t", cap)


@pytest.mark.parametrize(
    "fmt, raw",
    [
        (SourceFormat.JSON, b'[{"a": "1"}, {"a": "2"}, {"a": "3", "b": "x"}]'),
        (SourceFormat.XML, b"<d><r><a>1</a></r><r><a>2</a></r><r><a>3</a><b>x</b></r></d>"),
        (SourceFormat.CSV, b"a,b\n1\n2\n3,x\n"),
    ],
)
def test_attribute_first_seen_after_the_cap_is_kept_empty_in_the_head(fmt, raw):
    table = parse_source(raw, fmt, "t", 1)
    assert table.attributes == ("a", "b")
    assert table.records == ({"a": "1", "b": EMPTY},)


def test_header_only_csv_keeps_its_attributes():
    for cap in (1, None):
        table = parse_source(b"a,b\n", SourceFormat.CSV, "t", cap)
        assert table.attributes == ("a", "b")
        assert table.records == ()


def test_xml_with_two_record_shapes_finds_both_attribute_sets():
    # The last two records have the same tags in the same order but nest them differently.
    raw = (
        b"<d><r><a>1</a></r><r><a>2</a></r><r><b><c>3</c></b></r>"
        b"<r><a>4</a></r><r><b>5</b><c>6</c></r></d>"
    )
    table = parse_source(raw, SourceFormat.XML, "t", 1)
    assert table.attributes == ("a", "b.c", "b", "c")
    assert table.records == ({"a": "1", "b.c": EMPTY, "b": EMPTY, "c": EMPTY},)
    assert parse_source(raw, SourceFormat.XML, "t").attributes == table.attributes


def test_record_cap_must_be_positive():
    with pytest.raises(ValueError):
        parse_source(b"a\n1\n", SourceFormat.CSV, "t", 0)


@pytest.mark.parametrize(
    "fmt, raw",
    [
        (SourceFormat.CSV, b"name,year\nMonet,1872\n"),
        (SourceFormat.XML, b"<d><r><name>Monet</name><year>1872</year></r></d>"),
        (SourceFormat.JSON, b'[{"name": "Monet", "year": 1872}]'),
    ],
)
def test_utf8_byte_order_mark_is_ignored(fmt, raw):
    plain = parse_source(raw, fmt, "t")
    assert parse_source(b"\xef\xbb\xbf" + raw, fmt, "t") == plain
    assert plain.attributes == ("name", "year")


@pytest.mark.parametrize(
    "raw",
    [b"a,b\n\n\n1,2,3\n", b'a,b\n"x\ny",2\n1,2,3\n'],
    ids=["blank-lines", "multi-line-cell"],
)
def test_csv_errors_name_the_file_line(raw):
    with pytest.raises(FormatError, match="line 4 "):
        parse_source(raw, SourceFormat.CSV, "t")


def test_csv_with_cr_only_line_endings_parses():
    table = parse_source(b"a,b\r1,2\r", SourceFormat.CSV, "t")
    assert table.attributes == ("a", "b")
    assert table.records == ({"a": "1", "b": "2"},)


def test_csv_cell_over_the_field_limit_is_a_format_error():
    raw = b"a,b\n1,2\n" + b"x" * (csv.field_size_limit() + 1) + b",3\n"
    with pytest.raises(FormatError, match="line 3"):
        parse_source(raw, SourceFormat.CSV, "t")


@pytest.mark.parametrize("name", sorted(DEEPLY_NESTED))
def test_deep_nesting_is_a_format_error(name):
    fmt = SourceFormat.from_suffix(name.rsplit(".", 1)[1])
    with pytest.raises(FormatError, match="deep_source: nested too deeply"):
        parse_source(DEEPLY_NESTED[name], fmt, "deep_source")
