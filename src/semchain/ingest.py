"""Parse CSV/XML/JSON sources into one unified table form and serialize it as JSON."""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import stat
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from .errors import EmptySourceError, FormatError, SemchainError, decode_json, decode_text

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
    raw_bytes: bytes | FileBytes, format: SourceFormat, source_id: str, record_cap: int | None = None
) -> Table:
    """Parse raw bytes in the declared format into a Table.

    Absent values become the `<Empty>` sentinel, nested XML/JSON fields are
    flattened to dotted attribute names, and every cell is kept as a string.
    One pass checks every record and discovers every attribute, but only the
    first `record_cap` records are kept (all of them when it is None). Each
    parser reads one `io.TextIOWrapper` over the source, UTF-8 without a
    leading BOM: CSV a line at a time, XML and JSON `_SLICE` characters at a
    time. So memory is a slice, the kept records and one key per distinct
    record shape, never the whole text or the parsed document. A `FileBytes`
    view (see `source_bytes`) is read from the start of its file and its
    handle is left open; bytes are held by the caller. A failed parse first
    reads the rest of the file, so a bad byte anywhere in it is the error
    raised, ahead of any parse error. A JSON syntax error then reads the whole
    file once more, for json.loads' message. Past the cap, an XML or JSON
    record is flattened only when its tag or key tree is new, and the cyclic
    garbage collector is paused while the source is parsed.
    """
    if record_cap is not None and record_cap < 1:
        raise ValueError("record_cap must be >= 1")
    cap = sys.maxsize if record_cap is None else record_cap
    fmt = SourceFormat(format)
    stream = raw_bytes.handle if isinstance(raw_bytes, FileBytes) else io.BytesIO(raw_bytes)
    stream.seek(0)
    text = io.TextIOWrapper(stream, "utf-8-sig", newline="")
    # The parsers build only acyclic containers (elements, dicts, lists), which
    # reference counting frees; left running, the cyclic collector rescans the
    # records being built many times over while adding nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            if fmt is SourceFormat.CSV:
                return _parse_csv(text, source_id, cap)
            if fmt is SourceFormat.XML:
                return _parse_xml(text, source_id, cap)
            return _parse_json(_JsonCursor(text), source_id, cap)
        except (SemchainError, RecursionError, _NotJson) as exc:
            # A bad byte later in the file beats the parse error.
            while text.read(_SLICE):
                pass
            # Flattening nested XML/JSON fields recurses once per level.
            if isinstance(exc, RecursionError):
                raise FormatError(f"{source_id}: nested too deeply to parse") from None
            if isinstance(exc, _NotJson):
                # json.loads' error, read from the whole text.
                text.seek(0)
                decode_json(text.read(), source_id)
                raise FormatError(f"{source_id}: {str(exc) or 'not JSON'}") from None
            raise
    except UnicodeDecodeError:
        # The error for the file, with its position in the whole file.
        stream.seek(0)
        decode_text(stream.read(), source_id)
        raise
    finally:
        text.detach()  # the caller's handle stays open
        if enabled:
            gc.enable()


def serialize_table(table: Table, record_cap: int = DEFAULT_RECORD_CAP) -> SerializedTable:
    """Emit a JSON array of the first min(record_cap, len(records)) records."""
    if record_cap < 1:
        raise ValueError("record_cap must be >= 1")
    rows = [{a: record[a] for a in table.attributes} for record in table.records[:record_cap]]
    return SerializedTable(json.dumps(rows, indent=2, ensure_ascii=False), record_cap)


# --- files ------------------------------------------------------------------

def source_bytes(handle: BinaryIO) -> bytes | FileBytes:
    """What `parse_source` reads of a source file open for reading: a regular
    file as a `FileBytes` view of it, anything else (a pipe) as its bytes."""
    info = os.fstat(handle.fileno())
    return FileBytes(handle, info.st_size) if stat.S_ISREG(info.st_mode) else handle.read()


@dataclass(frozen=True)
class FileBytes:
    """An open regular file that `parse_source` reads as its text stream,
    from the start, without closing it; `len()` is the file's size."""

    handle: BinaryIO
    size: int

    def __len__(self) -> int:
        return self.size


_SLICE = 1 << 16  # characters read at a time


# --- CSV --------------------------------------------------------------------

def _parse_csv(text: io.TextIOWrapper, source_id: str, cap: int) -> Table:
    reader = csv.reader(text)
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

def _parse_xml(text: io.TextIOWrapper, source_id: str, cap: int) -> Table:
    builder = ET.TreeBuilder()
    # The parser builds the document root as the first child of this outer
    # element, where the root's completed children can be taken between slices.
    outer = builder.start("document", {})
    parser = ET.XMLParser(target=builder)
    groups: dict[str, _Records] = {}

    def take(children: Iterable[ET.Element]) -> None:
        for child in children:
            records = groups.get(child.tag)
            if records is None:
                records = groups[child.tag] = _Records(cap, source_id, _xml_shape, _flatten_xml)
            records.add(child)

    try:
        while piece := text.read(_SLICE):
            parser.feed(piece)
            if len(outer):
                # Every child but the last is complete; it is checked and
                # dropped before the next slice is parsed.
                take(outer[0][:-1])
                del outer[0][:-1]
        parser.close()
    except ET.ParseError as exc:
        raise FormatError(f"{source_id}: bad XML: {exc}") from None
    take(outer[0])
    if not groups:
        raise EmptySourceError(f"{source_id}: XML root has no child elements")
    # The repeated-record element is the most frequent child tag of the root;
    # ties go to the tag encountered first.
    return max(groups.values(), key=_COUNT).table(SourceFormat.XML)


_TAG = attrgetter("tag")
_COUNT = attrgetter("count")


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

_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match


class _NotJson(Exception):
    """Where the JSON scan stops. The scan follows json.loads' grammar, so
    json.loads' error for the whole text is the one raised; the message here
    is raised only for text that json.loads accepts."""


class _JsonCursor:
    """A position `pos` in `text`, the decoded text of a JSON source from the
    entry being scanned on. Only the methods move `pos`, and only `peek` and
    `take` step past whitespace. A refill keeps the text from `pos` and reads
    as much again, at least a slice, so a value many slices long is still
    decoded in linear time.
    """

    def __init__(self, stream: io.TextIOWrapper) -> None:
        self.text = ""
        self.pos = 0
        self._stream = stream

    def _more(self) -> bool:
        """Drop the text before `pos` and read on; False at the end of the source."""
        kept = self.text[self.pos:]
        more = self._stream.read(max(len(kept), _SLICE))
        if not more:
            return False
        self.text, self.pos = kept + more, 0
        return True

    def peek(self) -> str:
        """Step past the whitespace at `pos`; the next character, or "" at
        the end of the source."""
        self.pos = _SPACE(self.text, self.pos).end()
        while self.pos == len(self.text) and self._more():
            self.pos = _SPACE(self.text).end()
        return self.text[self.pos:self.pos + 1]

    def take(self) -> str:
        """Peek, then step past the character."""
        char = self.peek()
        self.pos += len(char)
        return char

    def value(self):
        """Decode the JSON value at `pos` and step past it."""
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except ValueError:
                if not self._more():
                    raise _NotJson from None
                continue
            # A number may go on past the window: "1.5e+" decodes as 1.5.
            if len(self.text) - end > 3 or not self._more():
                self.pos = end
                return value


def _entries(cursor: _JsonCursor, close: str) -> Iterator[str]:
    """Step into the array or object opening at the cursor and yield the
    first character of each entry, at its start; end past the closing `close`."""
    cursor.take()
    char = cursor.peek()
    if char == close:
        cursor.take()
        return
    while True:
        yield char
        char = cursor.take()
        if char == close:
            return
        if char != ",":
            raise _NotJson
        char = cursor.peek()


def _parse_json(cursor: _JsonCursor, source_id: str, cap: int) -> Table:
    # The records are decoded one at a time: the items of a top-level array,
    # or of each array a top-level object holds. Any other value is decoded
    # whole.
    def array() -> _Records | None:
        """The records of the array at the cursor, or None once an item is no object."""
        found: _Records | None = _Records(cap, source_id, _json_shape, _flatten_json)
        for _ in _entries(cursor, "]"):
            item = cursor.value()
            if not isinstance(item, dict):
                found = None
            elif found is not None:
                found.add(item)
        return found

    start = cursor.peek()
    if start == "[":
        found = array()
        if cursor.peek():
            raise _NotJson
        if found is None:
            raise FormatError(f"{source_id}: top-level JSON array holds non-object entries")
        return found.table(SourceFormat.JSON)
    if start != "{":
        raise _NotJson("JSON document is neither an array nor an object")
    # Each member's value: an array's records, or None when the value is no
    # array of objects. A repeated key keeps its last value, as in json.loads.
    members: dict[str, _Records | None] = {}
    for char in _entries(cursor, "}"):
        if char != '"':
            raise _NotJson
        key = cursor.value()
        if cursor.take() != ":":
            raise _NotJson
        if cursor.peek() == "[":
            members[key] = array()
        else:
            cursor.value()
            members[key] = None
    if cursor.peek():
        raise _NotJson
    candidates = [found for found in members.values() if found is not None]
    # An empty array beside a non-empty one holds no records; it only
    # counts when every candidate is empty.
    candidates = [found for found in candidates if found.count] or candidates
    if len(candidates) != 1:
        raise FormatError(
            f"{source_id}: expected exactly one array-of-records field, found {len(candidates)}"
        )
    return candidates[0].table(SourceFormat.JSON)


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

class _Records:
    """One group of records that may be the source's, checked one at a time
    as the parser reaches them.

    It keeps the record count, the first `cap` records flattened, the
    attributes of every record in first-seen order, and the first defect,
    which is raised only if the group is chosen as the source's records.
    """

    def __init__(self, cap: int, source_id: str, shape: Callable, flatten: Callable) -> None:
        self.count = 0
        self.head: list[dict] = []
        self.shapes: set[tuple] = set()
        self.attributes: dict = {}  # an ordered set
        self.error: Exception | None = None
        self._cap, self._source_id, self._shape, self._flatten = cap, source_id, shape, flatten

    def add(self, item) -> None:
        self.count += 1
        if self.error is not None:
            return
        # Names, collisions and repeated elements depend only on a record's tag
        # or key tree, so past the cap a record is flattened only when its tree is new.
        if self.count > self._cap:
            key = self._shape(item)
            if key in self.shapes:
                return
            self.shapes.add(key)
        try:
            record = self._flatten(item, "", {}, self._source_id)
        except (FormatError, RecursionError) as exc:
            self.error = exc
            return
        self.attributes.update(record)
        if len(self.head) < self._cap:
            self.head.append(record)

    def table(self, fmt: SourceFormat) -> Table:
        if self.error is not None:
            raise self.error
        if not self.attributes:
            raise EmptySourceError(f"{self._source_id}: no attributes discovered")
        filled = [{a: _cell(record.get(a)) for a in self.attributes} for record in self.head]
        return Table(self._source_id, fmt, tuple(self.attributes), tuple(filled))
