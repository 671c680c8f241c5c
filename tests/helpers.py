"""Random generators and independent oracles used across the test suite.

The oracles deliberately reimplement the checked behavior with different
machinery (plain DFS/BFS, recursive enumeration, string keys) so they do not
share code paths with the package.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from semchain import ClassInstance, InternalLinkTriple, SemanticModel, SemanticTriple
from semchain.errors import EmptySourceError, FormatError, decode_json, decode_text
from semchain.ingest import EMPTY, SourceFormat, Table

CLASS_POOL = ("Person", "Artifact", "Production", "Span", "Place")
DATA_PROPERTY_POOL = ("identified_by", "has_note", "within")
OBJECT_PROPERTY_POOL = ("made_by", "has_span", "located_at")
ATTRIBUTE_POOL = ("name", "date", "title", "place", "code")


def random_model(
    rng: random.Random,
    max_instances_per_class: int = 3,
    max_sem: int = 6,
    max_links: int = 6,
    acyclic: bool = False,
    class_pool: tuple[str, ...] = CLASS_POOL,
) -> SemanticModel:
    instances = []
    for cls in class_pool:
        for index in range(1, rng.randint(0, max_instances_per_class) + 1):
            instances.append(ClassInstance(cls, index))
    if not instances:
        instances.append(ClassInstance(rng.choice(class_pool), 1))
    sems = set()
    for _ in range(rng.randint(0, max_sem)):
        sems.add(
            SemanticTriple(
                rng.choice(instances), rng.choice(DATA_PROPERTY_POOL), rng.choice(ATTRIBUTE_POOL)
            )
        )
    links = set()
    for _ in range(rng.randint(0, max_links)):
        a, b = rng.sample(range(len(instances)), 2) if len(instances) >= 2 else (0, 0)
        if a == b:
            continue
        if acyclic and a > b:
            a, b = b, a
        links.add(
            InternalLinkTriple(instances[a], rng.choice(OBJECT_PROPERTY_POOL), instances[b])
        )
    return SemanticModel(frozenset(sems), frozenset(links))


def _index_permutation(model: SemanticModel, rng: random.Random) -> dict[ClassInstance, ClassInstance]:
    renames: dict[ClassInstance, ClassInstance] = {}
    by_class: dict[str, list[int]] = defaultdict(list)
    for inst in sorted(model.instances()):
        by_class[inst.class_name].append(inst.index)
    for cls, indices in by_class.items():
        shuffled = indices[:]
        rng.shuffle(shuffled)
        for old, new in zip(sorted(indices), shuffled):
            renames[ClassInstance(cls, old)] = ClassInstance(cls, new)
    return renames


def renamed_copy(model: SemanticModel, rng: random.Random) -> SemanticModel:
    """The same triples under a consistent per-class index permutation."""
    renames = _index_permutation(model, rng)
    return SemanticModel(
        frozenset(
            SemanticTriple(renames[t.subject], t.property, t.attribute)
            for t in model.semantic_triples
        ),
        frozenset(
            InternalLinkTriple(renames[link.subject], link.property, renames[link.object])
            for link in model.internal_link_triples
        ),
    )


def perturbed_copy(gold: SemanticModel, rng: random.Random) -> SemanticModel:
    """A prediction-like variant: permuted instance indices, a few triples
    dropped, and a few spurious ones added."""
    return planted_copy(gold, rng)[0]


def planted_copy(gold: SemanticModel, rng: random.Random) -> tuple[SemanticModel, int]:
    """perturbed_copy() plus its planted intersection: the gold triples it
    kept, which all match under the inverse index permutation, so no exact
    matcher may score below it."""
    renames = _index_permutation(gold, rng)

    sems = set()
    for t in sorted(gold.semantic_triples):
        if rng.random() < 0.8:
            sems.add(SemanticTriple(renames[t.subject], t.property, t.attribute))
    links = set()
    for link in sorted(gold.internal_link_triples):
        if rng.random() < 0.8:
            links.add(
                InternalLinkTriple(renames[link.subject], link.property, renames[link.object])
            )
    planted = len(sems) + len(links)
    for _ in range(rng.randint(0, 2)):
        inst = ClassInstance(rng.choice(CLASS_POOL), rng.randint(1, 3))
        sems.add(SemanticTriple(inst, rng.choice(DATA_PROPERTY_POOL), rng.choice(ATTRIBUTE_POOL)))
    return SemanticModel(frozenset(sems), frozenset(links)), planted


def sized_model(
    rng: random.Random, counts: tuple[int, ...], max_sem: int = 0, max_links: int = 6
) -> SemanticModel:
    """A random model with exactly counts[i] instances of CLASS_POOL[i]: one
    annotation per instance, plus up to max_sem more and up to max_links links."""
    instances = [
        ClassInstance(cls, index)
        for cls, count in zip(CLASS_POOL, counts)
        for index in range(1, count + 1)
    ]

    def annotation(inst):
        return SemanticTriple(inst, rng.choice(DATA_PROPERTY_POOL), rng.choice(ATTRIBUTE_POOL))

    sems = {annotation(inst) for inst in instances}
    sems |= {annotation(rng.choice(instances)) for _ in range(rng.randint(0, max_sem))}
    links = set()
    for _ in range(rng.randint(0, max_links)):
        a, b = rng.sample(instances, 2)
        links.add(InternalLinkTriple(a, rng.choice(OBJECT_PROPERTY_POOL), b))
    return SemanticModel(frozenset(sems), frozenset(links))


# --- oracles -----------------------------------------------------------------

def bfs_connected_instances(model: SemanticModel, attributes: set[str]) -> set[str]:
    """Instances with an undirected path to a kept attribute (string-keyed BFS)."""
    edges: dict[str, set[str]] = defaultdict(set)
    seeds = []
    for t in model.semantic_triples:
        if t.attribute in attributes:
            a, b = "I:" + t.subject.render(), "A:" + t.attribute
            edges[a].add(b)
            edges[b].add(a)
            seeds.append(b)
    for link in model.internal_link_triples:
        a, b = "I:" + link.subject.render(), "I:" + link.object.render()
        edges[a].add(b)
        edges[b].add(a)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for neighbor in edges[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return {node[2:] for node in seen if node.startswith("I:")}


def longest_path_to_attribute(model: SemanticModel) -> int:
    """Exhaustive simple-path enumeration; lengths include the attribute edge."""
    successors: dict[ClassInstance, set[ClassInstance]] = defaultdict(set)
    for link in model.internal_link_triples:
        successors[link.subject].add(link.object)
    annotated = {t.subject for t in model.semantic_triples}
    best = 0

    def walk(node, visited, length):
        nonlocal best
        if node in annotated:
            best = max(best, length + 1)
        for nxt in successors[node]:
            if nxt not in visited:
                walk(nxt, visited | {nxt}, length + 1)

    for inst in model.instances():
        walk(inst, {inst}, 0)
    return best


def has_directed_cycle(model: SemanticModel) -> bool:
    """Whether some instance reaches itself over internal links (DFS from each)."""
    successors: dict[str, set[str]] = defaultdict(set)
    for link in model.internal_link_triples:
        successors[link.subject.render()].add(link.object.render())
    for start in list(successors):
        seen = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(successors[node])
    return False


def best_intersection_bruteforce(gold: SemanticModel, predicted: SemanticModel) -> int:
    """Max matching triples over every per-class injective index mapping,
    including partial ones; recursive enumeration over string-rendered triples."""
    gold_strings = set(_render(gold, {}))
    pred_classes = _indices_by_class(predicted)
    gold_classes = _indices_by_class(gold)
    shared = sorted(set(pred_classes) & set(gold_classes))
    best = 0

    def assignments(pred_indices, gold_indices):
        def rec(i, used, acc):
            if i == len(pred_indices):
                yield dict(acc)
                return
            p = pred_indices[i]
            yield from rec(i + 1, used, acc + [(p, None)])
            for g in gold_indices:
                if g not in used:
                    yield from rec(i + 1, used | {g}, acc + [(p, g)])

        yield from rec(0, frozenset(), [])

    def recurse(i, chosen):
        nonlocal best
        if i == len(shared):
            mapping = {}
            for cls, assign in chosen.items():
                for p, g in assign.items():
                    mapping[(cls, p)] = g
            mapped = set(_render(predicted, mapping))
            best = max(best, len(mapped & gold_strings))
            return
        cls = shared[i]
        for assign in assignments(pred_classes[cls], gold_classes[cls]):
            chosen[cls] = assign
            recurse(i + 1, chosen)
        del chosen[cls]

    recurse(0, {})
    return best


def _indices_by_class(model: SemanticModel) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for inst in model.instances():
        out[inst.class_name].append(inst.index)
    return {cls: sorted(v) for cls, v in out.items()}


def _render(model: SemanticModel, mapping: dict) -> list[str]:
    def name(inst: ClassInstance) -> str:
        key = (inst.class_name, inst.index)
        if key in mapping:
            target = mapping[key]
            if target is None:
                return f"?{inst.class_name}?{inst.index}"
            return f"{inst.class_name}#{target}"
        if mapping:
            return f"?{inst.class_name}?{inst.index}"
        return f"{inst.class_name}#{inst.index}"

    # With an empty mapping this renders identity names (used for gold).
    out = []
    for t in model.semantic_triples:
        out.append(f"sem|{name(t.subject)}|{t.property}|{t.attribute}")
    for link in model.internal_link_triples:
        out.append(f"link|{name(link.subject)}|{link.property}|{name(link.object)}")
    return out


def transitive_ancestors_bruteforce(parent: dict[str, str | None], name: str) -> set[str]:
    out = set()
    current = parent[name]
    while current is not None:
        out.add(current)
        current = parent[current]
    return out


def legal_triples_by_enumeration(
    class_parent: dict[str, str | None],
    property_parent: dict[str, str | None],
    declared: list[tuple[str, str, str]],
) -> set[tuple[str, str, str]]:
    """Every (subject, property, object) that narrows a declared potential
    triple: each part replaced by itself or by any name below it, found by
    walking every name's parent chain up."""

    def narrowings(parent, name):
        return {n for n in parent if n == name or name in transitive_ancestors_bruteforce(parent, n)}

    return {
        (s, p, o)
        for subject, prop, obj in declared
        for s in narrowings(class_parent, subject)
        for p in narrowings(property_parent, prop)
        for o in narrowings(class_parent, obj)
    }


_REPLY_TOKENS = ("{", "}", "[", "]", ",", ":", '"', "null", "1e999", "\\")
_REPLY_TOKENS += ("<Step1>", "</Step1>", "<Step2>", "</Step2>", "```")
_LEAVES = ('""', '"x"', '"A1"', "7", "[]", "{}", "null", '"crm:E1_X-99999999999999999999999"')
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def mutated_reply(reply: str, rng: random.Random) -> str:
    """The reply after one to three random edits: a span deleted, a JSON token
    or answer tag inserted, a JSON string leaf replaced, or a lone surrogate
    added, raw or as a JSON escape inside a string."""

    def surrogate() -> int:
        return rng.randint(0xD800, 0xDFFF)

    for _ in range(rng.randint(1, 3)):
        edit, at = rng.randrange(5), rng.randint(0, len(reply))
        leaves = list(_JSON_STRING.finditer(reply)) if edit >= 3 else []
        if edit == 0:
            reply = reply[:at] + reply[at + rng.randint(1, 40):]
        elif edit == 1:
            reply = reply[:at] + rng.choice(_REPLY_TOKENS) + reply[at:]
        elif edit == 2:
            reply = reply[:at] + chr(surrogate()) + reply[at:]
        elif edit == 3 and leaves:
            leaf = rng.choice(leaves)
            reply = reply[: leaf.start()] + rng.choice(_LEAVES) + reply[leaf.end():]
        elif leaves:
            leaf = rng.choice(leaves)
            at = rng.randint(leaf.start() + 1, leaf.end() - 1)
            reply = reply[:at] + f"\\u{surrogate():04x}" + reply[at:]
    return reply


# Sources nested past the interpreter's recursion limit, keyed by file name.
DEEPLY_NESTED = {
    "arrays.json": b"[" * 100_000 + b"]" * 100_000,
    "objects.json": b'[{"a": ' + b'{"a": ' * 3000 + b"1" + b"}" * 3000 + b"}]",
    "elements.xml": b"<root><r>" + b"<e>" * 5000 + b"x" + b"</e>" * 5000 + b"</r></root>",
}


# --- whole-document ingest --------------------------------------------------
# The parse as it was before ingest streamed its input: the whole file is
# decoded at once, a CSV is read from one `io.StringIO` of the text, and an
# XML/JSON document is built whole (`ET.fromstring`, `json.loads`) before its
# records are located, flattened and assembled. `parse_source` must give the
# same Table, or the same exception type and message, at every record cap.


def whole_document_parse(raw: bytes, format: SourceFormat, source_id: str, record_cap: int | None = None) -> Table:
    """The reference for `parse_source`."""
    text = decode_text(raw, source_id)
    cap = sys.maxsize if record_cap is None else record_cap
    fmt = SourceFormat(format)
    try:
        if fmt is SourceFormat.CSV:
            return _parse_csv(text, source_id, cap)
        if fmt is SourceFormat.XML:
            return _parse_xml(text, source_id, cap)
        return _parse_json(text, source_id, cap)
    except RecursionError:
        raise FormatError(f"{source_id}: nested too deeply to parse") from None


# CSV -------------------------------------------------------------------

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


# XML -------------------------------------------------------------------

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


# JSON -------------------------------------------------------------------

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


# shared -----------------------------------------------------------------

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
