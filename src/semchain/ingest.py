"""Parse CSV/XML/JSON sources into one unified table form and serialize it as JSON."""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

from .errors import EmptySourceError, FormatError, decode_json, decode_text

EMPTY = "<Empty>"
DEFAULT_RECORD_CAP = 3


class SourceFormat(str, Enum):
    """Raw formats a structured source can arrive in."""

    CSV = "csv"
    XML = "xml"
    JSON = "json"

    @classmethod
    def from_suffix(cls, suffix: str) -> "SourceFormat":
        try:
            return cls(suffix.lower().lstrip("."))
        except ValueError:
            raise FormatError(f"no parser for file suffix {suffix!r}") from None


@dataclass(frozen=True)
class Table:
    """One structured source: ordered attributes plus records keyed by them."""

    source_id: str
    format: SourceFormat
    attributes: tuple[str, ...]
    records: tuple[Mapping[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "records", tuple(dict(r) for r in self.records))
        if len(set(self.attributes)) != len(self.attributes):
            raise FormatError(f"{self.source_id}: duplicate attribute names")
        expected = set(self.attributes)
        for i, record in enumerate(self.records):
            if set(record) != expected:
                raise FormatError(
                    f"{self.source_id}: record {i} keys do not match the attributes"
                )


@dataclass(frozen=True)
class SerializedTable:
    """Canonical JSON text holding a table's first `record_cap` records."""

    text: str
    record_cap: int


def parse_source(
    raw_bytes: bytes, format: SourceFormat, source_id: str, record_cap: int | None = None
) -> Table:
    """Parse raw bytes in the declared format into a Table.

    Absent values become the `<Empty>` sentinel, nested XML/JSON fields are
    flattened to dotted attribute names, and every cell is kept as a string.
    One pass checks every record and discovers every attribute, but only the
    first `record_cap` records are kept (all of them when it is None). Past
    the cap, an XML or JSON record is flattened only when its tag or key tree
    is new, and the cyclic garbage collector is paused while the source is
    parsed.
    """
    if record_cap is not None and record_cap < 1:
        raise ValueError("record_cap must be >= 1")
    text = decode_text(raw_bytes, source_id)
    cap = sys.maxsize if record_cap is None else record_cap
    fmt = SourceFormat(format)
    # The parsers build only acyclic containers (elements, dicts, lists), which
    # reference counting frees; left running, the cyclic collector rescans the
    # growing tree or document many times over while adding nothing.
    enabled = gc.isenabled()
    gc.disable()
    # Flattening nested XML/JSON fields recurses once per level.
    try:
        if fmt is SourceFormat.CSV:
            return _parse_csv(text, source_id, cap)
        if fmt is SourceFormat.XML:
            return _parse_xml(text, source_id, cap)
        return _parse_json(text, source_id, cap)
    except RecursionError:
        raise FormatError(f"{source_id}: nested too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()


def serialize_table(table: Table, record_cap: int = DEFAULT_RECORD_CAP) -> SerializedTable:
    """Emit a JSON array of the first min(record_cap, len(records)) records."""
    if record_cap < 1:
        raise ValueError("record_cap must be >= 1")
    rows = [{a: record[a] for a in table.attributes} for record in table.records[:record_cap]]
    return SerializedTable(json.dumps(rows, indent=2, ensure_ascii=False), record_cap)


# --- CSV --------------------------------------------------------------------

def _parse_csv(text: str, source_id: str, cap: int) -> Table:
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = _csv_rows(reader, source_id)
    header = next((row for row in rows if row), None)
    if header is None:
        raise EmptySourceError(f"{source_id}: CSV has no header row")
    if any(name == "" for name in header):
        raise FormatError(f"{source_id}: empty attribute name in CSV header")
    width = len(header)
    records = []
    for row in rows:
        if len(row) > width:
            raise FormatError(f"{source_id}: line {reader.line_num} has more cells than the header")
        if row and len(records) < cap:
            records.append({a: row[i] if i < len(row) and row[i] else EMPTY for i, a in enumerate(header)})
    return Table(source_id, SourceFormat.CSV, tuple(header), tuple(records))


def _csv_rows(reader, source_id: str) -> Iterator[list[str]]:
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{source_id}: bad CSV at line {reader.line_num}: {exc}") from None


# --- XML --------------------------------------------------------------------

def _parse_xml(text: str, source_id: str, cap: int) -> Table:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FormatError(f"{source_id}: bad XML: {exc}") from None
    counts: dict[str, int] = {}
    for child in root:
        counts[child.tag] = counts.get(child.tag, 0) + 1
    if not counts:
        raise EmptySourceError(f"{source_id}: XML root has no child elements")
    # The repeated-record element is the most frequent child tag of the root;
    # ties go to the tag encountered first.
    record_tag = max(counts, key=counts.get)  # type: ignore[arg-type]
    elems = (elem for elem in root if elem.tag == record_tag)
    records = _flattened(elems, cap, source_id, _xml_shape, _flatten_xml)
    return _assemble(source_id, SourceFormat.XML, records, cap)


_TAG = attrgetter("tag")


def _xml_shape(elem: ET.Element) -> tuple:
    return tuple(map(_TAG, elem.iter())), tuple(map(len, elem.iter()))


def _flatten_xml(elem: ET.Element, prefix: str, out: dict[str, str], source_id: str) -> dict[str, str]:
    for child in elem:
        name = f"{prefix}.{child.tag}" if prefix else child.tag
        if len(child):
            _flatten_xml(child, name, out, source_id)
            continue
        if name in out:
            raise FormatError(f"{source_id}: repeated element <{name}> within one record")
        out[name] = (child.text or "").strip()
    return out


# --- JSON -------------------------------------------------------------------

def _parse_json(text: str, source_id: str, cap: int) -> Table:
    doc = decode_json(text, source_id)
    records = _flattened(_locate_records(doc, source_id), cap, source_id, _json_shape, _flatten_json)
    return _assemble(source_id, SourceFormat.JSON, records, cap)


def _json_shape(item: dict) -> tuple:
    # The key tree: the record's keys, then breadth-first, each dict value's
    # key and keys, with None closing each dict. A queue in place of recursion
    # leaves running out of depth to _flatten_json, and comparing two flat
    # trees does not recurse either.
    tree = [tuple(item)]
    queue = [item]
    for value in queue:
        for key, child in value.items():
            if isinstance(child, dict):
                tree.append(key)
                tree.append(tuple(child))
                queue.append(child)
        tree.append(None)
    return tuple(tree)


def _locate_records(doc, source_id: str) -> list[dict]:
    if isinstance(doc, list):
        if not all(isinstance(item, dict) for item in doc):
            raise FormatError(f"{source_id}: top-level JSON array holds non-object entries")
        return doc
    if isinstance(doc, dict):
        candidates = [
            value
            for value in doc.values()
            if isinstance(value, list) and all(isinstance(item, dict) for item in value)
        ]
        # An empty array beside a non-empty one holds no records; it only
        # counts when every candidate is empty.
        candidates = [value for value in candidates if value] or candidates
        if len(candidates) != 1:
            raise FormatError(
                f"{source_id}: expected exactly one array-of-records field, found {len(candidates)}"
            )
        return candidates[0]
    raise FormatError(f"{source_id}: JSON document is neither an array nor an object")


def _flatten_json(value: dict, prefix: str, out: dict, source_id: str) -> dict:
    for key, item in value.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(item, dict):
            _flatten_json(item, name, out, source_id)
            continue
        if name in out:
            raise FormatError(f"{source_id}: flattened name {name!r} collides")
        out[name] = item
    return out


def _cell(value) -> str:
    if value is None or value == "":
        return EMPTY
    return value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)


# --- shared -----------------------------------------------------------------

def _flattened(
    items: Iterable, cap: int, source_id: str, shape: Callable, flatten: Callable
) -> Iterator[dict]:
    # Names, collisions and repeated elements depend only on a record's tag or
    # key tree, so past the cap a record is flattened only when its tree is new.
    shapes: set[tuple] = set()
    for i, item in enumerate(items):
        if i >= cap:
            key = shape(item)
            if key in shapes:
                continue
            shapes.add(key)
        yield flatten(item, "", {}, source_id)


def _assemble(source_id: str, fmt: SourceFormat, records: Iterable[dict], cap: int) -> Table:
    # Attributes come from every record in first-seen order (the dict is an
    # ordered set); only the first `cap` records are kept, as strings.
    attributes: dict = {}
    head = []
    for record in records:
        attributes.update(record)
        if len(head) < cap:
            head.append(record)
    if not attributes:
        raise EmptySourceError(f"{source_id}: no attributes discovered")
    filled = [{a: _cell(record.get(a)) for a in attributes} for record in head]
    return Table(source_id, fmt, tuple(attributes), tuple(filled))
