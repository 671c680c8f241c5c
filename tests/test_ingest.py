from __future__ import annotations

import codecs
import csv
import gc
import io
import json
import random
import string
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from semchain import (
    EMPTY,
    SourceFormat,
    Table,
    ingest,
    parse_source,
    read_table,
    serialize_table,
)
from semchain.errors import EmptySourceError, FormatError

from helpers import DEEPLY_NESTED, whole_document_parse


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


@pytest.mark.parametrize(
    "raw",
    [b'{"warnings": [], "records": [{"a": 1}]}', b'{"records": [{"a": 1}], "warnings": []}'],
)
def test_parse_json_empty_array_beside_the_records_is_ignored(raw):
    table = parse_source(raw, SourceFormat.JSON, "x")
    assert table.attributes == ("a",)
    assert table.records == ({"a": "1"},)


def test_parse_json_wrapped_empty_records_is_an_empty_source():
    with pytest.raises(EmptySourceError):
        parse_source(b'{"records": []}', SourceFormat.JSON, "x")


@pytest.mark.parametrize(
    "raw",
    [b'{"a": [{"x": 1}], "b": [{"y": 2}]}', b'{"a": [], "b": []}', b'{"a": [], "b": [{"x": 1}], "c": [{"y": 2}]}'],
)
def test_parse_json_two_record_arrays_are_ambiguous(raw):
    with pytest.raises(FormatError, match="array-of-records field, found 2"):
        parse_source(raw, SourceFormat.JSON, "x")


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
    for scalar in (b"5", b'"x"', b"null"):
        with pytest.raises(FormatError, match="^t: JSON document is neither an array nor an object$"):
            parse_source(scalar, SourceFormat.JSON, "t")
    with pytest.raises(FormatError, match=r"^t: not JSON: Expecting value: line 1 column 1 \(char 0\)$"):
        parse_source(b"nul", SourceFormat.JSON, "t")


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


def _outcome(raw: bytes, fmt: SourceFormat, record_cap=None, parse=parse_source):
    try:
        return parse(raw, fmt, "s", record_cap)
    except (FormatError, EmptySourceError) as exc:
        return type(exc), str(exc)


def _assert_capped_parse_is_the_head(raw: bytes, fmt: SourceFormat) -> None:
    full = _outcome(raw, fmt)
    for cap in range(1, 6):
        capped = _outcome(raw, fmt, cap)
        if isinstance(full, Table):
            assert capped.attributes == full.attributes
            assert capped.records == full.records[:cap]
        else:
            assert capped == full


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_capped_parse_is_the_head_of_the_full_parse(fmt):
    rng = random.Random(f"capped-{fmt.value}")
    for _ in range(80):
        _assert_capped_parse_is_the_head(GENERATORS[fmt](rng), fmt)


@pytest.mark.parametrize(
    "fmt, raw",
    [
        (SourceFormat.CSV, b"a,b\n1,2\n3,4\n5,6,7\n"),
        (SourceFormat.XML, b"<d><r><a>1</a></r><r><a>2</a></r><r><a>3</a><a>4</a></r></d>"),
        (SourceFormat.JSON, b'[{"a": {"b": 1}}, {"a": {"b": 2}}, {"a.b": 3, "a": {"b": 4}}]'),
        (SourceFormat.JSON, b'[{"a.b": 1, "a": 1}, {"a.b": 2, "a": 2}, {"a.b": 3, "a": {"b": 4}}]'),
        (SourceFormat.JSON, b'[{"a": 1}, {"a": 2}, 3]'),
        (SourceFormat.JSON, b'{"rows": [{"a": 1}, {"a": 2}, 3]}'),
        (SourceFormat.XML, b"<d><r><a>1</a></r><r><a>2</a></r><r><a>3</a></r>"),
        (SourceFormat.CSV, b"a\n1\n2\n3\n\xff\n"),
    ],
    ids=["csv-wide-row", "xml-repeat", "json-collision", "json-collision-in-nesting", "json-non-object",
         "json-wrapped-non-object", "xml-unclosed-root", "csv-bad-utf8"],
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


def test_json_with_two_record_shapes_finds_every_attribute():
    # The last three records have the same top-level keys but nest them differently.
    raw = b'[{"x": "0"}, {"a": {"b": 1}}, {"a": 1}, {"a": {"c": 1}}]'
    table = parse_source(raw, SourceFormat.JSON, "t", 1)
    assert table.attributes == ("x", "a.b", "a", "a.c")
    assert table.records == ({"x": "0", "a.b": EMPTY, "a": EMPTY, "a.c": EMPTY},)
    assert parse_source(raw, SourceFormat.JSON, "t").attributes == table.attributes


def test_deep_record_repeated_past_the_cap_parses_as_in_the_full_parse():
    # Deep enough that comparing two key trees must not recurse per level.
    depth = sys.getrecursionlimit() * 3 // 5
    record = '{"a": ' * depth + "1" + "}" * depth
    raw = f'[{{"x": 0}}, {record}, {record}]'.encode()
    full = parse_source(raw, SourceFormat.JSON, "t")
    capped = parse_source(raw, SourceFormat.JSON, "t", 1)
    assert capped.attributes == full.attributes == ("x", ".".join(["a"] * depth))
    assert capped.records == full.records[:1]


_NAMES = ["a", "b", "c", "a.b"]
_LEAVES = [None, "", "x", "<&>", 1, 2.5, True, [1, "y"]]


def _record_shape(rng: random.Random, names: list[str], level: int = 0) -> dict:
    """Names mapped to a nested shape or to None for a leaf; "a.b" may collide
    with a nested "a" once flattened, so some sources are malformed."""
    return {
        name: _record_shape(rng, rng.sample(_NAMES, rng.randint(0, 3)), level + 1)
        if level < 2 and rng.random() < 0.4
        else None
        for name in names
    }


def _fill_json(shape: dict, rng: random.Random) -> dict:
    return {k: rng.choice(_LEAVES) if v is None else _fill_json(v, rng) for k, v in shape.items()}


def _fill_xml(parent: ET.Element, shape: dict, rng: random.Random) -> None:
    for name, sub in shape.items():
        child = ET.SubElement(parent, name)
        if sub is None:
            child.text = str(rng.choice(_LEAVES))
        else:
            _fill_xml(child, sub, rng)


def _large_source(fmt: SourceFormat, rng: random.Random) -> bytes:
    """Over 1,000 records drawn from a few shapes that share their top-level
    names and differ in nesting, so that past the cap most records repeat a
    shape already seen."""
    n = rng.randint(1000, 1200)
    if fmt is SourceFormat.CSV:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["a", "b", "c"])
        wide = rng.randrange(2 * n)
        for i in range(n):
            width = 4 if i == wide else rng.randint(0, 3)
            writer.writerow([rng.choice(["", "x", "y,z"]) for _ in range(width)])
        return buffer.getvalue().encode()
    names = rng.sample(_NAMES, rng.randint(1, 3))
    shapes = [_record_shape(rng, names) for _ in range(rng.randint(1, 6))]
    if fmt is SourceFormat.JSON:
        return json.dumps([_fill_json(rng.choice(shapes), rng) for _ in range(n)]).encode()
    root = ET.Element("root")
    repeat = rng.randrange(2 * n)
    for i in range(n):
        row = ET.SubElement(root, "row")
        _fill_xml(row, rng.choice(shapes), rng)
        if i == repeat:
            row.append(row[0])
    return ET.tostring(root)


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_capped_parse_of_large_sources_is_the_head_of_the_full_parse(fmt):
    rng = random.Random(f"large-{fmt.value}")
    for _ in range(6):
        _assert_capped_parse_is_the_head(_large_source(fmt, rng), fmt)


_GC_CASES = {"good.json": b'[{"a": {"b": 1}}, {"a": 2}]', "bad.xml": b"<unclosed>", **DEEPLY_NESTED}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", sorted(_GC_CASES))
def test_parse_leaves_the_collector_as_it_found_it(enabled, name):
    fmt = SourceFormat.from_suffix(name.rsplit(".", 1)[1])
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            parse_source(_GC_CASES[name], fmt, "t", 1)
        except FormatError:
            assert not name.startswith("good")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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


# --- streamed parse against the whole-document reference -------------------

# Leaves of one to four UTF-8 bytes per character, so that in a document
# several slices long multi-byte characters sit on the slice boundaries.
_TEXTS = ["x", "é", "ü&ö", "字<段>", "😀", "a b", "", "字段" * 20 + "😀" * 10]
# Numbers whose text may go on past a slice: "1.5e+" decodes as 1.5.
_NUMBERS = [1.5e17, -2.5e-08, 123456789]


def _damaged(text: str, rng: random.Random) -> str:
    """The text, or the text truncated at a random offset, with junk after
    it, or with a random token inserted."""
    roll = rng.random()
    if roll < 0.25:
        return text[: rng.randrange(len(text) + 1)]
    if roll < 0.35:
        return text + rng.choice(["x", " ]", "{}", "<x/>", "<!-- c -->", " \n", ","])
    if roll < 0.45:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice([",", "]", "}", '"', "<", "</row>", ":", " "]) + text[at:]
    return text


def _fuzz_csv(rng: random.Random, n: int) -> str:
    """A header and `n` rows ended by "\r\n", "\n" or "\r", whose quoted
    cells may hold line breaks; one row may be longer than the header, a
    name may be empty or repeat, and a NUL may appear."""
    names = rng.sample(_NAMES + ["字段"], rng.randint(1, 4))
    if rng.random() < 0.05:
        names.append(rng.choice(names + [""]))
    cells = _TEXTS + ["a,b", 'say "hi"', "two\r\nlines", "one\rcr", "1.5e+7"]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=rng.choice(["\r\n", "\n", "\r"]))
    writer.writerow(names)
    # The error names the line of the one row wider than the header.
    wide = rng.randrange(n) if n and rng.random() < 0.3 else -1
    for i in range(n):
        writer.writerow(rng.choices(cells, k=len(names) + 1 if i == wide else rng.randint(0, len(names))))
    text = buffer.getvalue()
    if rng.random() < 0.02:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + "\0" + text[at:]
    return text


def _fuzz_json(rng: random.Random, n: int) -> str:
    """A top-level array of `n` records, or an object whose members (keys may
    repeat) hold such arrays, empty arrays, arrays with a non-object item,
    or other values."""
    names = rng.sample(_NAMES, rng.randint(1, 3))
    shapes = [_record_shape(rng, names) for _ in range(rng.randint(1, 4))]
    indent = rng.choice([None, 1])

    def fill(shape: dict) -> dict:
        return {k: rng.choice(_TEXTS + _LEAVES + _NUMBERS) if v is None else fill(v) for k, v in shape.items()}

    def records() -> str:
        items = [fill(rng.choice(shapes)) for _ in range(n)]
        if items and rng.random() < 0.15:
            items.insert(rng.randrange(len(items) + 1), rng.choice([1, 1.5e17, "x", None, [], [{"a": 1}]]))
        return json.dumps(items, ensure_ascii=rng.random() < 0.3, indent=indent)

    if rng.random() < 0.4:
        return records()
    others = ['[]', '[1, 2]', '{"rows": [{"a": 1}]}', '"text"', "7", "1.5e+7", "-0.25E-3", "null"]
    members = [
        f'{json.dumps(rng.choice(["records", "rows", "meta"]))}: '
        f"{records() if rng.random() < 0.5 else rng.choice(others)}"
        for _ in range(rng.randint(1, 4))
    ]
    return "{" + rng.choice([",", ", ", ",\n "]).join(members) + "}"


def _fuzz_xml(rng: random.Random, n: int) -> str:
    """A root of `n` records of several tags, or of `n` of each tag (tied
    counts), whose records may repeat an element or collide once flattened."""
    tags = rng.sample(["row", "item", "meta"], rng.randint(1, 3))
    shapes = {tag: [_record_shape(rng, rng.sample(_NAMES, rng.randint(1, 3))) for _ in range(2)] for tag in tags}
    order = [tag for tag in tags for _ in range(n)] if rng.random() < 0.3 else rng.choices(tags, k=n)
    rng.shuffle(order)
    root = ET.Element("root")
    for tag in order:
        record = ET.SubElement(root, tag)
        _fill_xml(record, rng.choice(shapes[tag]), rng)
        for cell in record.iter():
            if not len(cell):
                cell.text = rng.choice(_TEXTS)
        if len(record) and rng.random() < 0.002:
            record.append(record[0])
        record.tail = rng.choice(["", "\n"])
    return ET.tostring(root, encoding="unicode")


_FUZZ = {SourceFormat.CSV: _fuzz_csv, SourceFormat.XML: _fuzz_xml, SourceFormat.JSON: _fuzz_json}


def _straddled(raw: bytes, size: int) -> int:
    """How many characters of `raw` one slice boundary splits."""
    return sum(0x80 <= raw[at] < 0xC0 for at in range(size, len(raw), size))


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_streamed_parse_equals_the_whole_document_parse(fmt):
    rng = random.Random(f"oracle-{fmt.value}")
    outcomes = set()
    long_documents = straddled = 0
    # Every twelfth document may be several slices long; CSV rows are short.
    long = (6000, 9000) if fmt is SourceFormat.CSV else (1500, 3000)
    for k in range(240):
        text = _damaged(_FUZZ[fmt](rng, rng.randint(*long) if k % 12 == 0 else rng.randint(0, 6)), rng)
        raw = text.encode()
        if len(raw) > 2 * ingest._SLICE:
            long_documents += 1
            straddled += _straddled(raw, ingest._SLICE)
        for cap in (1, 3, None):
            expected = _outcome(raw, fmt, cap, whole_document_parse)
            assert _outcome(raw, fmt, cap) == expected, (k, cap, text[:300])
            outcomes.add(expected[0] if isinstance(expected, tuple) else Table)
    assert outcomes == {Table, FormatError, EmptySourceError}
    assert long_documents >= 2
    # Long documents put multi-byte characters on slice boundaries now and
    # then (JSON escapes them in some documents); the tiny-slice test below
    # splits every one.
    assert straddled >= (1 if fmt is SourceFormat.JSON else 5)


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_parse_in_tiny_slices_equals_the_whole_document_parse(fmt, monkeypatch):
    # Slices of a few bytes split every multi-byte character, a BOM, "\r\n"
    # and the text of numbers such as 1.5e+17; bad or cut-off bytes must
    # raise the message a whole-file decode raises.
    rng = random.Random(f"tiny-{fmt.value}")
    seen = dict.fromkeys(["bom", "crlf", "exponent", "straddled", "bad bytes", Table, FormatError, EmptySourceError], 0)
    for size in (1, 2, 3, 7):
        monkeypatch.setattr(ingest, "_SLICE", size)
        for _ in range(60):
            text = _damaged(_FUZZ[fmt](rng, rng.randint(0, 4)), rng)
            if rng.random() < 0.3:
                text = text.replace("\n", "\r\n")
            raw = text.encode()
            roll = rng.random()
            if roll < 0.2:
                raw = codecs.BOM_UTF8 + raw
            elif roll < 0.3:
                at = rng.randrange(len(raw) + 1)
                raw = raw[:at] + b"\xff" + raw[at:]
            elif roll < 0.35:
                raw = raw[: rng.randrange(len(raw) + 1)]
            for cap in (1, None):
                expected = _outcome(raw, fmt, cap, whole_document_parse)
                assert _outcome(raw, fmt, cap) == expected, (size, cap, raw[:300])
            seen[expected[0] if isinstance(expected, tuple) else Table] += 1
            seen["bom"] += raw.startswith(codecs.BOM_UTF8)
            seen["crlf"] += b"\r\n" in raw
            seen["exponent"] += b"e+" in raw or b"e-" in raw
            seen["straddled"] += _straddled(raw, size) > 0
            seen["bad bytes"] += isinstance(expected, tuple) and "not UTF-8" in expected[1]
    if fmt is SourceFormat.XML:
        del seen["exponent"]  # an XML cell is text, never a number
    assert min(seen.values()) >= 3, seen


_EARLY_ERRORS = {
    "csv-empty-name": (SourceFormat.CSV, b"a,,b\n"),
    "csv-wide-row": (SourceFormat.CSV, b"a\n1,2\n"),
    "xml-mismatched-tag": (SourceFormat.XML, b"<root><r></x>"),
    "json-missing-comma": (SourceFormat.JSON, b'[{"a": 1} {"a": 2}'),
    "json-too-deep": (SourceFormat.JSON, b"[" * 5000),
}


@pytest.mark.parametrize("fmt, head", _EARLY_ERRORS.values(), ids=_EARLY_ERRORS)
def test_a_bad_byte_late_in_the_file_beats_an_early_parse_error(fmt, head):
    raw = head + b" " * (2 * ingest._SLICE) + b"\xff\n"
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        expected = f"s: not UTF-8: {exc}"
    with pytest.raises(FormatError) as caught:
        parse_source(raw, fmt, "s")
    assert str(caught.value) == expected


def _nested_source(fmt: SourceFormat, n: int) -> bytes:
    def title(i: int) -> str:
        return f"T{i} " + "lorem ipsum " * 10

    if fmt is SourceFormat.CSV:
        rows = "".join(f"{i},N{i},{1800 + i % 200},{title(i)}\n" for i in range(n))
        return f"id,who.name,who.born,title\n{rows}".encode()
    if fmt is SourceFormat.XML:
        rows = "".join(
            f"<row><id>{i}</id><who><name>N{i}</name><born>{1800 + i % 200}</born></who><title>{title(i)}</title></row>\n"
            for i in range(n)
        )
        return f"<rows>\n{rows}</rows>\n".encode()
    records = [{"id": i, "who": {"name": f"N{i}", "born": 1800 + i % 200}, "title": title(i)} for i in range(n)]
    return json.dumps({"records": records}, indent=1).encode()


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_parse_memory_beyond_the_text_stays_below_its_length(fmt):
    # A source of several MB: holding its decoded text alone takes about as
    # much again, a CSV StringIO of it four times that, and building the
    # whole document about ten times. A parse holds one slice of it.
    raw = _nested_source(fmt, 20_000)
    tracemalloc.start()
    try:
        table = parse_source(raw, fmt, "wide", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.attributes == ("id", "who.name", "who.born", "title")
    assert len(table.records) == 3
    # The bytes were allocated before tracing started.
    assert peak < len(raw) / 4


def test_csv_whose_lines_end_in_a_lone_cr_is_read_a_slice_at_a_time():
    raw = _nested_source(SourceFormat.CSV, 20_000).replace(b"\n", b"\r")
    tracemalloc.start()
    try:
        table = parse_source(raw, SourceFormat.CSV, "wide", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == parse_source(raw.replace(b"\r", b"\n"), SourceFormat.CSV, "wide", 3)
    assert peak < len(raw) / 4


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_reading_a_file_holds_one_slice_of_it_not_its_bytes(fmt, tmp_path):
    path = tmp_path / f"wide.{fmt.value}"
    path.write_bytes(_nested_source(fmt, 20_000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table = read_table(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.attributes == ("id", "who.name", "who.born", "title")
    assert len(table.records) == 3
    assert peak < size / 4



def _boundary_source(fmt: SourceFormat, rng: random.Random) -> bytes:
    """A source of several slices with a 2-, 3- or 4-byte character across
    each slice boundary, at a seeded offset: the title before the boundary is
    lengthened with letters up to the character's first byte."""
    raw = bytearray(_nested_source(fmt, rng.randint(1200, 1500)))
    boundary = ingest._SLICE
    while boundary < len(raw):
        char = rng.choice("é€𝄞").encode()
        start = boundary - rng.randrange(1, len(char))
        title = raw.rindex(b"lorem", 0, start)
        raw[title:title] = b"x" * (start - title)
        raw[start:start] = char
        boundary += ingest._SLICE
    assert _straddled(raw, ingest._SLICE) == len(raw) // ingest._SLICE >= 2
    return bytes(raw)


# Past the first slice, a CSV row gains a cell, a JSON comma is dropped and an
# XML closing tag is misspelt: the text replaced, its replacement, and the
# start of the error message.
_SYNTAX_ERRORS = {
    SourceFormat.CSV: (b"\n", b",x\n", "s: line "),
    SourceFormat.XML: (b"</row>", b"</rox>", "s: bad XML: mismatched tag"),
    SourceFormat.JSON: (b",", b"", "s: not JSON: Expecting"),
}


def _file_inputs(fmt: SourceFormat, rng: random.Random) -> dict[str, tuple[bytes, object]]:
    """Files on whose slice boundaries a read from the file could differ from
    a parse of its bytes, each with what it parses to: Table, the start of
    its error message, or None for an error of any message."""
    wide = _nested_source(fmt, rng.randint(1000, 1500))
    # Spaces before the last byte, which closes the document, fill one slice.
    body = _nested_source(fmt, 40).rstrip()
    exact = body[:-1] + b" " * (ingest._SLICE - len(body)) + body[-1:]
    last = rng.randrange((len(wide) - 1) // ingest._SLICE * ingest._SLICE, len(wide))
    mark, fix, syntax_error = _SYNTAX_ERRORS[fmt]
    error_at = wide.index(mark, rng.randrange(ingest._SLICE, len(wide) - 1000))
    assert len(exact) == ingest._SLICE and len(wide) > 2 * ingest._SLICE
    return {
        "a character across each boundary": (_boundary_source(fmt, rng), Table),
        "exactly one slice": (exact, Table),
        "one slice and a byte": (b" " + exact, Table),
        "empty": (b"", None),
        "bom": (codecs.BOM_UTF8 + wide, Table),
        "bom only": (codecs.BOM_UTF8, None),
        "bad byte in the last slice": (wide[:last] + b"\xff" + wide[last + 1:], "s: not UTF-8: "),
        "syntax error past the first slice": (wide[:error_at] + fix + wide[error_at + len(mark):], syntax_error),
    }


@pytest.mark.parametrize("fmt", list(SourceFormat))
def test_reading_a_file_equals_parsing_its_bytes(fmt, tmp_path):
    rng = random.Random(f"file-{fmt.value}")
    path = tmp_path / f"s.{fmt.value}"
    for name, (raw, parsed) in _file_inputs(fmt, rng).items():
        path.write_bytes(raw)
        for cap in (1, None):
            expected = _outcome(raw, fmt, cap)
            found = _outcome(path, fmt, cap, lambda path, fmt, sid, cap: read_table(path, cap))
            assert found == expected, (name, cap)
            if parsed is Table:
                assert isinstance(expected, Table), (name, expected)
            else:
                assert isinstance(expected, tuple) and expected[1].startswith(parsed or ""), (name, expected)


_OWNED_OUTCOMES = {
    "table": (b"a,b\n1,2\n", Table),
    "parse error": (b"a,,b\n1,2\n", "s: empty attribute name in CSV header"),
    "late bad byte": (b"a,,b\n" + b" " * (2 * ingest._SLICE) + b"\xff\n", "s: not UTF-8: "),
}


@pytest.mark.parametrize("raw, outcome", _OWNED_OUTCOMES.values(), ids=_OWNED_OUTCOMES)
def test_parse_leaves_the_callers_handle_open_and_readable(raw, outcome, tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(raw)
    with open(path, "rb") as handle:
        view = ingest.source_bytes(handle)
        assert isinstance(view, ingest.FileBytes)
        try:
            found = type(parse_source(view, SourceFormat.CSV, "s"))
        except FormatError as exc:
            found = str(exc)
        # A text stream left over would close the handle when it is freed.
        gc.collect()
        assert not handle.closed
        handle.seek(0)
        assert handle.read() == raw
    assert found is Table if outcome is Table else found.startswith(outcome)


@pytest.mark.parametrize("lead", [b"", b" "], ids=["even", "odd"])
def test_a_json_error_read_from_the_whole_text_still_reads_on_for_a_bad_byte(lead):
    # json.loads reports the missing comma from the whole file; the text
    # stream then reads on from where it stopped, which in one of the two
    # alignments cuts a two-byte character.
    raw = lead + b'[{"a": 1} {"a": "' + "é".encode() * 400_000 + b'"}]'
    with pytest.raises(FormatError, match=r"^s: not JSON: Expecting ',' delimiter"):
        parse_source(raw, SourceFormat.JSON, "s")
