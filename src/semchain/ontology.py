"""Domain ontology: class/property hierarchies and the sanctioned potential triples."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .errors import DanglingNameError, InheritanceCycleError, SchemaError, decode_json

NODES_KEY = "Nodes"
PROPERTIES_KEY = "Properties"
POTENTIAL_TRIPLES_KEY = "Potential triples"
CHAIN_SEPARATOR = "->"


@dataclass(frozen=True, order=True)
class PotentialTriple:
    """An ontology-sanctioned (class, property, class) relationship candidate."""

    subject: str
    property: str
    object: str

    def as_list(self) -> list[str]:
        return [self.subject, self.property, self.object]


@dataclass(frozen=True)
class Ontology:
    """Classes and properties with single-parent chains, plus potential triples.

    Data and object properties share one namespace; whether a property
    annotates an attribute or links two class instances is decided by where
    it is used in a semantic model, not here.
    """

    class_parent: Mapping[str, str | None]
    property_parent: Mapping[str, str | None]
    potential_triples: frozenset[PotentialTriple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_parent", dict(self.class_parent))
        object.__setattr__(self, "property_parent", dict(self.property_parent))
        object.__setattr__(self, "potential_triples", frozenset(self.potential_triples))
        for kind, parents in (("class", self.class_parent), ("property", self.property_parent)):
            for name, parent in parents.items():
                if parent is not None and parent not in parents:
                    raise DanglingNameError(f"{kind} {name!r} has undeclared parent {parent!r}")
            _require_acyclic(parents, kind)
        for t in self.potential_triples:
            if t.subject not in self.class_parent:
                raise DanglingNameError(f"potential triple references undeclared class {t.subject!r}")
            if t.object not in self.class_parent:
                raise DanglingNameError(f"potential triple references undeclared class {t.object!r}")
            if t.property not in self.property_parent:
                raise DanglingNameError(
                    f"potential triple references undeclared property {t.property!r}"
                )

    @property
    def classes(self) -> frozenset[str]:
        return frozenset(self.class_parent)

    @property
    def properties(self) -> frozenset[str]:
        return frozenset(self.property_parent)

    def class_ancestors(self, name: str) -> tuple[str, ...]:
        """Ancestor chain of a class, nearest parent first."""
        return _ancestors(self.class_parent, name, "class")

    def property_ancestors(self, name: str) -> tuple[str, ...]:
        return _ancestors(self.property_parent, name, "property")


def parse_ontology(text: str) -> Ontology:
    """Read the three-field ontology JSON with "->" inheritance chains."""
    doc = decode_json(text, "ontology")
    if not isinstance(doc, dict):
        raise SchemaError("ontology JSON must be an object")
    for key in (NODES_KEY, PROPERTIES_KEY, POTENTIAL_TRIPLES_KEY):
        if key not in doc:
            raise SchemaError(f"ontology JSON misses the field {key!r}")
    class_parent = _parse_chain_entries(doc[NODES_KEY], "class")
    property_parent = _parse_chain_entries(doc[PROPERTIES_KEY], "property")
    triples = set()
    entries = doc[POTENTIAL_TRIPLES_KEY]
    if not isinstance(entries, list):
        raise SchemaError(f"{POTENTIAL_TRIPLES_KEY!r} must be an array")
    for entry in entries:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(part, str) and part for part in entry)
        ):
            raise SchemaError(f"potential triple {entry!r} is not a 3-element string array")
        triples.add(PotentialTriple(*entry))
    return Ontology(class_parent, property_parent, frozenset(triples))


def serialize_ontology(onto: Ontology) -> str:
    """Deterministic ontology JSON; parse_ontology(serialize_ontology(o)) == o."""
    doc = {
        NODES_KEY: [_chain_string(name, onto.class_ancestors(name)) for name in sorted(onto.class_parent)],
        PROPERTIES_KEY: [
            _chain_string(name, onto.property_ancestors(name)) for name in sorted(onto.property_parent)
        ],
        POTENTIAL_TRIPLES_KEY: [t.as_list() for t in sorted(onto.potential_triples)],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False)


def is_subclass_of(onto: Ontology, a: str, b: str) -> bool:
    """True iff b is a (or an ancestor of a); reflexive and transitive."""
    return _descends(onto.class_parent, a, b, "class")


def is_subproperty_of(onto: Ontology, a: str, b: str) -> bool:
    return _descends(onto.property_parent, a, b, "property")


def refinements(onto: Ontology, t: PotentialTriple) -> frozenset[PotentialTriple]:
    """All triples obtained by narrowing t's subject/object to subclasses, t included."""
    _require_declared(onto.property_parent, t.property, "property")
    subjects = [c for c in sorted(onto.classes) if is_subclass_of(onto, c, t.subject)]
    objects = [c for c in sorted(onto.classes) if is_subclass_of(onto, c, t.object)]
    return frozenset(PotentialTriple(s, t.property, o) for s in subjects for o in objects)


def triple_is_legal(onto: Ontology, subject: str, property: str, object: str) -> bool:
    """True iff some declared potential triple generalizes (subject, property, object)."""
    _require_declared(onto.class_parent, subject, "class")
    _require_declared(onto.class_parent, object, "class")
    _require_declared(onto.property_parent, property, "property")
    for candidate in onto.potential_triples:
        if (
            is_subclass_of(onto, subject, candidate.subject)
            and is_subclass_of(onto, object, candidate.object)
            and is_subproperty_of(onto, property, candidate.property)
        ):
            return True
    return False


# --- internals ---------------------------------------------------------------

def _parse_chain_entries(entries, kind: str) -> dict[str, str | None]:
    if not isinstance(entries, list):
        raise SchemaError(f"{kind} section must be an array of strings")
    pinned: dict[str, str | None] = {}
    declared: dict[str, None] = {}
    for entry in entries:
        if not isinstance(entry, str):
            raise SchemaError(f"{kind} entry {entry!r} is not a string")
        names = [part.strip() for part in entry.split(CHAIN_SEPARATOR)]
        if any(not name for name in names):
            raise SchemaError(f"{kind} entry {entry!r} contains an empty name")
        for name in names:
            declared.setdefault(name)
        if len(names) == 1:
            _pin(pinned, names[0], None, kind, entry)
        for child, parent in zip(names, names[1:]):
            _pin(pinned, child, parent, kind, entry)
    # Names that only ever appear as chain tails stay unpinned and count as roots.
    return {name: pinned.get(name) for name in declared}


def _pin(pinned: dict[str, str | None], child: str, parent: str | None, kind: str, entry: str) -> None:
    if child in pinned and pinned[child] != parent:
        raise SchemaError(
            f"conflicting parents for {kind} {child!r}: "
            f"{pinned[child]!r} vs {parent!r} (in {entry!r})"
        )
    pinned[child] = parent


def _require_acyclic(parents: Mapping[str, str | None], kind: str) -> None:
    for start in parents:
        seen = {start}
        current = parents[start]
        while current is not None:
            if current in seen:
                raise InheritanceCycleError(f"{kind} inheritance cycles at {current!r}")
            seen.add(current)
            current = parents[current]


def _ancestors(parents: Mapping[str, str | None], name: str, kind: str) -> tuple[str, ...]:
    _require_declared(parents, name, kind)
    chain = []
    current = parents[name]
    while current is not None:
        chain.append(current)
        current = parents[current]
    return tuple(chain)


def _chain_string(name: str, ancestors: tuple[str, ...]) -> str:
    return f" {CHAIN_SEPARATOR} ".join((name, *ancestors)).strip()


def _descends(parents: Mapping[str, str | None], a: str, b: str, kind: str) -> bool:
    lineage = (a, *_ancestors(parents, a, kind))
    _require_declared(parents, b, kind)
    return b in lineage


def _require_declared(parents: Mapping[str, str | None], name: str, kind: str) -> None:
    if name not in parents:
        raise DanglingNameError(f"{kind} {name!r} is not declared in the ontology")
