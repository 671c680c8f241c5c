"""Semantic models as graphs: triples, pruning, depth, serialization, gold-model lints."""

from __future__ import annotations

import json
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from .errors import CyclicModelError, InstanceParseError, SchemaError, decode_json, string_triples
from .ingest import Table

SEMANTIC_TRIPLES_KEY = "semantic_triples"
INTERNAL_LINK_TRIPLES_KEY = "internal_link_triples"

# Node names the gold-model lints key on.
BIRTH_CLASS = "crm:E67_Birth"
DEATH_CLASS = "crm:E69_Death"
TIME_SPAN_CLASS = "crm:E52_Time-Span"
HAS_TIME_SPAN_PROPERTY = "crm:P4_has_time-span"


@dataclass(frozen=True, order=True)
class ClassInstance:
    """A numbered occurrence of an ontology class, e.g. Time-Span2."""

    class_name: str
    index: int = 1

    def __post_init__(self) -> None:
        if not self.class_name:
            raise InstanceParseError("class instance has an empty class name")
        if self.class_name[-1].isdigit():
            raise InstanceParseError(
                f"class name {self.class_name!r} must not end in a digit; "
                "trailing digits are the instance index"
            )
        if self.index < 1:
            raise InstanceParseError(f"instance index must be >= 1, got {self.index}")

    def render(self) -> str:
        return f"{self.class_name}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "ClassInstance":
        # The index is the trailing run of decimal digits, found by scanning back
        # so that a long run costs linear time. As in a `^(.*?)(\d+)$` match, one
        # final newline is skipped, and a text holding another one is all class name.
        body = text[:-1] if text.endswith("\n") else text
        cut = len(body)
        while cut and body[cut - 1].isdecimal():
            cut -= 1
        name, digits = body[:cut], body[cut:]
        if not digits or "\n" in name:
            return cls(text, 1)
        try:
            index = int(digits)
        except ValueError:  # more digits than Python converts to an int
            raise InstanceParseError(f"instance {name!r} has a {len(digits)}-digit index") from None
        return cls(name, index)


@dataclass(frozen=True, order=True)
class SemanticTriple:
    """An attribute annotation: class instance, data property, table attribute."""

    subject: ClassInstance
    property: str
    attribute: str

    def as_list(self) -> list[str]:
        return [self.subject.render(), self.property, self.attribute]


@dataclass(frozen=True, order=True)
class InternalLinkTriple:
    """A link between two class instances via an object property."""

    subject: ClassInstance
    property: str
    object: ClassInstance

    def __post_init__(self) -> None:
        if self.subject == self.object:
            raise SchemaError(f"self-loop on {self.subject.render()!r} is not a valid link")

    def as_list(self) -> list[str]:
        return [self.subject.render(), self.property, self.object.render()]


@dataclass(frozen=True)
class SemanticModel:
    """A set of attribute annotations plus the links connecting their instances."""

    semantic_triples: frozenset[SemanticTriple]
    internal_link_triples: frozenset[InternalLinkTriple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "semantic_triples", frozenset(self.semantic_triples))
        object.__setattr__(self, "internal_link_triples", frozenset(self.internal_link_triples))

    def instances(self) -> frozenset[ClassInstance]:
        found = {t.subject for t in self.semantic_triples}
        for link in self.internal_link_triples:
            found.add(link.subject)
            found.add(link.object)
        return frozenset(found)

    def attributes(self) -> frozenset[str]:
        return frozenset(t.attribute for t in self.semantic_triples)

    def size(self) -> int:
        return len(self.semantic_triples) + len(self.internal_link_triples)


@dataclass(frozen=True)
class LintDiagnostic:
    rule: str
    severity: str
    message: str
    offender: str


@dataclass(frozen=True)
class LintReport:
    diagnostics: tuple[LintDiagnostic, ...]

    def ok(self) -> bool:
        return not self.diagnostics


def read_model(doc, *, links: bool = True) -> SemanticModel:
    """Build a model from its decoded JSON document, the two-array form.

    With `links` both fields are required; without, the document is a
    labeling answer: `semantic_triples` is required and links are ignored.
    """
    if not isinstance(doc, dict):
        raise SchemaError("model JSON must be an object")
    for key in (SEMANTIC_TRIPLES_KEY, INTERNAL_LINK_TRIPLES_KEY) if links else (SEMANTIC_TRIPLES_KEY,):
        if key not in doc:
            raise SchemaError(f"{'model' if links else 'labels'} JSON misses the field {key!r}")
    sems = frozenset(
        SemanticTriple(ClassInstance.parse(s), p, a)
        for s, p, a in string_triples(doc[SEMANTIC_TRIPLES_KEY], SEMANTIC_TRIPLES_KEY)
    )
    if not links:
        return SemanticModel(sems, frozenset())
    link_triples = frozenset(
        InternalLinkTriple(ClassInstance.parse(s), p, ClassInstance.parse(o))
        for s, p, o in string_triples(doc[INTERNAL_LINK_TRIPLES_KEY], INTERNAL_LINK_TRIPLES_KEY)
    )
    return SemanticModel(sems, link_triples)


def model_doc(model: SemanticModel, *, links: bool = True) -> dict:
    """The JSON document of a model, arrays canonically sorted; without
    `links`, the labels-only document."""
    doc = {SEMANTIC_TRIPLES_KEY: [t.as_list() for t in sorted(model.semantic_triples)]}
    if links:
        doc[INTERNAL_LINK_TRIPLES_KEY] = [t.as_list() for t in sorted(model.internal_link_triples)]
    return doc


def parse_model(text: str) -> SemanticModel:
    """Read a model from JSON text; both fields are required."""
    return read_model(decode_json(text, "model"))


def parse_labels(text: str) -> SemanticModel:
    """Read a labeling answer: `semantic_triples` required, links ignored."""
    return read_model(decode_json(text, "model"), links=False)


def serialize_model(model: SemanticModel) -> str:
    """Deterministic model JSON with both arrays canonically sorted."""
    return json.dumps(model_doc(model), indent=2, ensure_ascii=False)


def serialize_labels(model: SemanticModel) -> str:
    return json.dumps(model_doc(model, links=False), indent=2, ensure_ascii=False)


def prune(model: SemanticModel, attributes: Iterable[str]) -> SemanticModel:
    """Drop triples on unknown attributes and instances with no path to any attribute.

    Connectivity is undirected over internal links, starting from the instances
    that annotate a surviving attribute, so a node survives as long as anything
    ties it to one. Tolerates cycles and arbitrary hallucinated input; idempotent.
    """
    known = set(attributes)
    kept_sems = frozenset(t for t in model.semantic_triples if t.attribute in known)
    neighbors: dict[ClassInstance, list[ClassInstance]] = {}
    for link in model.internal_link_triples:
        neighbors.setdefault(link.subject, []).append(link.object)
        neighbors.setdefault(link.object, []).append(link.subject)
    reached = {t.subject for t in kept_sems}
    stack = list(reached)
    while stack:
        for neighbor in neighbors.get(stack.pop(), ()):
            if neighbor not in reached:
                reached.add(neighbor)
                stack.append(neighbor)
    kept_links = frozenset(link for link in model.internal_link_triples if link.subject in reached)
    return SemanticModel(kept_sems, kept_links)


def depth(model: SemanticModel) -> int:
    """Longest directed path, in edges, that ends at an attribute.

    Internal links run subject -> object and annotations instance -> attribute.
    An empty model, or one with no attribute-ending path, has depth 0.
    """
    successors: dict[ClassInstance, set[ClassInstance]] = {i: set() for i in model.instances()}
    for link in model.internal_link_triples:
        successors[link.subject].add(link.object)
    # Longest attribute-ending path from each node; 0 means there is none.
    # A node's successors are its predecessors in the sort, so they come first.
    annotated = {t.subject for t in model.semantic_triples}
    longest: dict[ClassInstance, int] = {}
    try:
        for node in TopologicalSorter(successors).static_order():
            below = [longest[succ] for succ in successors[node] if longest[succ]]
            longest[node] = 1 + max(below) if below else int(node in annotated)
    except CycleError:
        raise CyclicModelError("internal links contain a directed cycle") from None
    return max(longest.values(), default=0)


def lint_gold(model: SemanticModel, table: Table) -> LintReport:
    """Check a gold model against its table: leaf relevance (L1) and the
    Birth/Death time-span numbering convention (L2)."""
    diagnostics: list[LintDiagnostic] = []
    headers = set(table.attributes)
    for t in sorted(model.semantic_triples):
        if t.attribute not in headers:
            diagnostics.append(
                LintDiagnostic(
                    rule="L1",
                    severity="error",
                    message=(
                        f"semantic triple annotates {t.attribute!r}, "
                        f"which is not a header of {table.source_id}"
                    ),
                    offender=str(t.as_list()),
                )
            )
    l2 = _lint_birth_death_numbering(model)
    if l2 is not None:
        diagnostics.append(l2)
    return LintReport(tuple(diagnostics))


def _lint_birth_death_numbering(model: SemanticModel) -> LintDiagnostic | None:
    classes = {i.class_name for i in model.instances()}
    if BIRTH_CLASS not in classes or DEATH_CLASS not in classes:
        return None
    links = sorted(model.internal_link_triples)
    offenders, missing = [], []
    for event, index in ((BIRTH_CLASS, 1), (DEATH_CLASS, 2)):
        spans = [
            link
            for link in links
            if link.subject.class_name == event
            and link.property == HAS_TIME_SPAN_PROPERTY
            and link.object.class_name == TIME_SPAN_CLASS
        ]
        wrong = [link for link in spans if link.object.index != index]
        offenders += wrong
        if len(wrong) == len(spans):
            missing.append(f"{event} does not link to {TIME_SPAN_CLASS}{index}")
    listed = ", ".join(str(l.as_list()) for l in offenders)
    problems = ([f"mis-numbered time-span links: {listed}"] if offenders else []) + missing
    if not problems:
        return None
    return LintDiagnostic(
        rule="L2",
        severity="warning",
        message="; ".join(problems),
        offender=str(offenders[0].as_list()) if offenders else "",
    )
