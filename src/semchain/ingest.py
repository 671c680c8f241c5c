"""Parse CSV/XML/JSON sources into one unified table form and serialize it as JSON."""

from __future__ import annotations

import codecs
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
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn

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
    first `record_cap` records are kept (all of them when it is None). The
    bytes are only ever sliced, `_SLICE` bytes at a time, and each parser
    reads the decoded slices as a stream of records, so memory is one slice,
    the kept records and one key per distinct record shape, never the whole
    text or the parsed document. Given a `FileBytes` view (see `source_bytes`),
    no more of the file than one slice is held; given bytes, the caller holds
    them. A bad byte anywhere in the file is the error raised, ahead of any
    parse error. Past the cap, an XML or JSON record is flattened only when
    its tag or key tree is new, and the cyclic garbage collector is paused
    while the source is parsed.
    """
    if record_cap is not None and record_cap < 1:
        raise ValueError("record_cap must be >= 1")
    cap = sys.maxsize if record_cap is None else record_cap
    fmt = SourceFormat(format)
    pieces = _decoded_slices(raw_bytes, source_id)
    # The parsers build only acyclic containers (elements, dicts, lists), which
    # reference counting frees; left running, the cyclic collector rescans the
    # records being built many times over while adding nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if fmt is SourceFormat.CSV:
            return _parse_csv(pieces, source_id, cap)
        if fmt is SourceFormat.XML:
            return _parse_xml(pieces, source_id, cap)
        return _parse_json(_JsonWindow(pieces, raw_bytes, source_id), cap)
    except (SemchainError, RecursionError) as exc:
        # A bad byte later in the file beats the parse error.
        for _ in pieces:
            pass
        # Flattening nested XML/JSON fields recurses once per level.
        if isinstance(exc, RecursionError):
            raise FormatError(f"{source_id}: nested too deeply to parse") from None
        raise
    finally:
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


class FileBytes:
    """The bytes of an open file, read on demand: `len()` is the file's size
    and a slice `[start:stop]` reads just that range from the handle."""

    def __init__(self, handle: BinaryIO, size: int) -> None:
        self._handle, self._size = handle, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key: slice) -> bytes:
        start, stop, _ = key.indices(self._size)
        self._handle.seek(start)
        return self._handle.read(max(stop - start, 0))


# --- slices -----------------------------------------------------------------

# Bytes decoded at a time.
_SLICE = 1 << 16


def _decoded_slices(raw: bytes | FileBytes, source_id: str) -> Iterator[str]:
    """The text of `raw` as UTF-8 without a leading BOM, decoded `_SLICE`
    bytes at a time; a bad byte raises `decode_text`'s error for the file,
    which reads it whole."""
    decoder = codecs.getincrementaldecoder("utf-8-sig")()
    try:
        for start in range(0, len(raw), _SLICE):
            piece = decoder.decode(raw[start:start + _SLICE], start + _SLICE >= len(raw))
            if piece:
                yield piece
    except UnicodeDecodeError:
        decode_text(raw[:], source_id)
        raise


# --- CSV --------------------------------------------------------------------

def _parse_csv(pieces: Iterator[str], source_id: str, cap: int) -> Table:
    reader = csv.reader(_lines(pieces))
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


def _lines(pieces: Iterator[str]) -> Iterator[str]:
    """The lines of the text, split as `io.StringIO(text, newline="")` splits
    them. Each run of pieces is cut after its last line break: a "\n", or a
    "\r" that no "\n" follows. A "\r" that ends a piece stays held, since
    the next piece may open with its "\n"."""
    held: list[str] = []
    for piece in pieces:
        cut = max(piece.rfind("\n"), piece.rfind("\r", 0, -1)) + 1
        if not cut:
            held.append(piece)
            continue
        held.append(piece[:cut])
        yield from io.StringIO("".join(held), newline="")
        held = [piece[cut:]]
    yield from io.StringIO("".join(held), newline="")


def _csv_rows(reader, source_id: str) -> Iterator[list[str]]:
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{source_id}: bad CSV at line {reader.line_num}: {exc}") from None


# --- XML --------------------------------------------------------------------

def _parse_xml(pieces: Iterator[str], source_id: str, cap: int) -> Table:
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
        for piece in pieces:
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


class _JsonWindow:
    """The decoded text of a JSON source, held from the entry being scanned on.

    Each method takes an index into `text` at which to read and returns the
    index past what it read. It may first drop the text before the index it
    was given, so an index taken before the call is stale after it. A refill
    keeps the text from that index and reads until the window holds at least
    twice that, so a value many slices long is still decoded in linear time.
    """

    def __init__(self, pieces: Iterator[str], raw: bytes | FileBytes, source_id: str) -> None:
        self.text = ""
        self.source_id = source_id
        self._pieces, self._raw = pieces, raw

    def _more(self, i: int) -> bool:
        """Drop the text before `i` and read on; False at the end of the source."""
        kept = self.text[i:]
        parts = [kept]
        size = len(kept)
        for piece in self._pieces:
            parts.append(piece)
            size += len(piece)
            if size >= 2 * len(kept):
                break
        if len(parts) == 1:
            return False
        self.text = "".join(parts)
        return True

    def space(self, i: int) -> int:
        """The index past the whitespace at `i`: a character of `text`, unless
        the source ends there."""
        i = _SPACE(self.text, i).end()
        while i == len(self.text) and self._more(i):
            i = _SPACE(self.text).end()
        return i

    def value(self, i: int) -> tuple:
        """The JSON value at `i`."""
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, i)
            except ValueError:
                if not self._more(i):
                    self.fail()
                i = 0
                continue
            # A number may go on past the window: "1.5e+" decodes as 1.5.
            if len(self.text) - end > 3 or not self._more(i):
                return value, end
            i = 0

    def whole(self) -> str:
        # Only the failure paths read the whole source.
        return decode_text(self._raw[:], self.source_id)

    def fail(self) -> NoReturn:
        # The scan rejects only text that json.loads rejects too; its error
        # message, not the scan's, is the one raised.
        decode_json(self.whole(), self.source_id)
        raise FormatError(f"{self.source_id}: not JSON")


def _parse_json(window: _JsonWindow, cap: int) -> Table:
    # The records are decoded one at a time: the items of a top-level array,
    # or of each array a top-level object holds. Any other value is decoded
    # whole. The scan follows json.loads' grammar, and text it rejects goes
    # to json.loads, whose error is raised.
    source_id = window.source_id

    def records() -> _Records:
        return _Records(cap, source_id, _json_shape, _flatten_json)

    start = window.space(0)
    if window.text.startswith("[", start):
        found, end = _json_array(window, start, records())
        _json_end(window, end)
        if found is None:
            raise FormatError(f"{source_id}: top-level JSON array holds non-object entries")
        return found.table(SourceFormat.JSON)
    if not window.text.startswith("{", start):
        decode_json(window.whole(), source_id)
        raise FormatError(f"{source_id}: JSON document is neither an array nor an object")
    # Each member's value: an array's records, or None when the value is no
    # array of objects. A repeated key keeps its last value, as in json.loads.
    members: dict[str, _Records | None] = {}

    def member(i: int) -> int:
        if not window.text.startswith('"', i):
            window.fail()
        key, i = window.value(i)
        i = window.space(i)
        if not window.text.startswith(":", i):
            window.fail()
        i = window.space(i + 1)
        if window.text.startswith("[", i):
            members[key], i = _json_array(window, i, records())
        else:
            members[key], i = None, window.value(i)[1]
        return i

    _json_end(window, _json_entries(window, start, "}", member))
    candidates = [found for found in members.values() if found is not None]
    # An empty array beside a non-empty one holds no records; it only
    # counts when every candidate is empty.
    candidates = [found for found in candidates if found.count] or candidates
    if len(candidates) != 1:
        raise FormatError(
            f"{source_id}: expected exactly one array-of-records field, found {len(candidates)}"
        )
    return candidates[0].table(SourceFormat.JSON)


def _json_array(window: _JsonWindow, start: int, records: _Records) -> tuple[_Records | None, int]:
    """Hand each item of the array opening at `start` to `records`; return
    them, or None once an item is no object, and the index past the array."""
    found: _Records | None = records

    def item(i: int) -> int:
        nonlocal found
        value, i = window.value(i)
        if found is not None:
            if isinstance(value, dict):
                found.add(value)
            else:
                found = None
        return i

    end = _json_entries(window, start, "]", item)
    return found, end


def _json_entries(window: _JsonWindow, start: int, close: str, entry: Callable[[int], int]) -> int:
    """Scan the comma-separated entries of the array or object opening at
    `start`, each with `entry` (its start index to its end index); return
    the index past the closing `close`."""
    i = window.space(start + 1)
    if window.text.startswith(close, i):
        return i + 1
    while True:
        i = window.space(entry(i))
        if window.text.startswith(close, i):
            return i + 1
        if not window.text.startswith(",", i):
            window.fail()
        i = window.space(i + 1)


def _json_end(window: _JsonWindow, end: int) -> None:
    if window.space(end) != len(window.text):
        window.fail()


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
