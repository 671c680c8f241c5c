"""Domain ontology: class/property hierarchies and the sanctioned potential triples."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .errors import DanglingNameError, InheritanceCycleError, SchemaError, decode_json, string_triples

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
        # Derived data, so neither compared nor shown: each name's lineage per kind.
        lineages = {}
        for kind, parents in (("class", self.class_parent), ("property", self.property_parent)):
            for name, parent in parents.items():
                if parent is not None and parent not in parents:
                    raise DanglingNameError(f"{kind} {name!r} has undeclared parent {parent!r}")
            lineages[kind] = _build_lineages(parents, kind)
        object.__setattr__(self, "_lineages", lineages)
        for t in self.potential_triples:
            for kind, name in (("class", t.subject), ("class", t.object), ("property", t.property)):
                if name not in lineages[kind]:
                    raise DanglingNameError(f"potential triple references undeclared {kind} {name!r}")


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
    triples = string_triples(doc[POTENTIAL_TRIPLES_KEY], POTENTIAL_TRIPLES_KEY)
    return Ontology(class_parent, property_parent, frozenset(PotentialTriple(*t) for t in triples))


def serialize_ontology(onto: Ontology) -> str:
    """Deterministic ontology JSON; parse_ontology(serialize_ontology(o)) == o."""
    doc = {
        NODES_KEY: _chain_strings(onto._lineages["class"]),
        PROPERTIES_KEY: _chain_strings(onto._lineages["property"]),
        POTENTIAL_TRIPLES_KEY: [t.as_list() for t in sorted(onto.potential_triples)],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False)


def triple_is_legal(onto: Ontology, subject: str, property: str, object: str) -> bool:
    """True iff some declared potential triple generalizes (subject, property,
    object); a name the ontology does not declare makes the triple illegal."""
    classes = onto._lineages["class"]
    subjects, objects = classes.get(subject, ()), classes.get(object, ())
    properties = onto._lineages["property"].get(property, ())
    return any(
        t.subject in subjects and t.object in objects and t.property in properties
        for t in onto.potential_triples
    )


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


def _build_lineages(parents: Mapping[str, str | None], kind: str) -> dict[str, tuple[str, ...]]:
    """Each name's lineage: the name, then its ancestors, nearest first. A walk
    stops at the first ancestor whose lineage is built, so each parent link is
    followed once; a name met twice on one walk closes a cycle."""
    lineages: dict[str, tuple[str, ...]] = {}
    for start in parents:
        path, on_path, current = [], set(), start
        while current is not None and current not in lineages:
            if current in on_path:
                raise InheritanceCycleError(f"{kind} inheritance cycles at {current!r}")
            path.append(current)
            on_path.add(current)
            current = parents[current]
        lineage = () if current is None else lineages[current]
        for name in reversed(path):
            lineage = (name, *lineage)
            lineages[name] = lineage
    return lineages


def _chain_strings(lineages: Mapping[str, tuple[str, ...]]) -> list[str]:
    return [f" {CHAIN_SEPARATOR} ".join(lineages[name]).strip() for name in sorted(lineages)]
