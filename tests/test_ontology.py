from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from semchain import Ontology, PotentialTriple, parse_ontology, serialize_ontology, triple_is_legal
from semchain.errors import DanglingNameError, InheritanceCycleError, SchemaError
from helpers import legal_triples_by_enumeration

EVENT_TOY = json.dumps(
    {
        "Nodes": ["Event", "Activity -> Event", "Actor"],
        "Properties": ["had_participant"],
        "Potential triples": [["Event", "had_participant", "Actor"]],
    }
)


@pytest.fixture
def event_toy() -> Ontology:
    return parse_ontology(EVENT_TOY)


def test_arrow_entry_declares_parent(event_toy):
    assert event_toy.class_parent["Activity"] == "Event"


def test_plain_entry_is_a_root(event_toy):
    assert event_toy.class_parent["Event"] is None


def test_refinements_contain_the_narrowed_triple(event_toy):
    names = event_toy.class_parent
    legal = {(s, o) for s in names for o in names if triple_is_legal(event_toy, s, "had_participant", o)}
    assert legal == {("Event", "Actor"), ("Activity", "Actor")}


def test_refinements_of_leaf_triple_is_singleton():
    onto = parse_ontology(
        json.dumps(
            {
                "Nodes": ["Event", "Activity -> Event", "Actor"],
                "Properties": ["had_participant"],
                "Potential triples": [["Activity", "had_participant", "Actor"]],
            }
        )
    )
    names = onto.class_parent
    legal = {(s, o) for s in names for o in names if triple_is_legal(onto, s, "had_participant", o)}
    assert legal == {("Activity", "Actor")}


def test_refinement_count_matches_enumeration():
    onto = parse_ontology(
        json.dumps(
            {
                "Nodes": [
                    "Thing",
                    "Agent -> Thing",
                    "Person -> Agent",
                    "Robot -> Agent",
                    "Object -> Thing",
                    "Statue -> Object",
                ],
                "Properties": ["made"],
                "Potential triples": [["Agent", "made", "Object"]],
            }
        )
    )
    names = onto.class_parent
    legal = {(s, o) for s in names for o in names if triple_is_legal(onto, s, "made", o)}
    assert legal == {(s, o) for s in ("Agent", "Person", "Robot") for o in ("Object", "Statue")}


def _random_forest(rng: random.Random, size: int) -> dict[str, str | None]:
    names = [f"C{i}" for i in range(size)]
    parent: dict[str, str | None] = {}
    for i, name in enumerate(names):
        parent[name] = rng.choice(names[:i]) if i and rng.random() < 0.7 else None
    return parent


def test_triple_is_legal_verbatim_and_refined(event_toy):
    assert triple_is_legal(event_toy, "Event", "had_participant", "Actor")
    assert triple_is_legal(event_toy, "Activity", "had_participant", "Actor")
    assert not triple_is_legal(event_toy, "Actor", "had_participant", "Event")
    # A name the ontology does not declare makes any triple illegal.
    assert not triple_is_legal(event_toy, "Ghost", "had_participant", "Actor")
    assert not triple_is_legal(event_toy, "Event", "ghost", "Actor")
    assert not triple_is_legal(event_toy, "Event", "had_participant", "Ghost")


def _assert_legality_matches_the_oracle(onto, class_parent, property_parent, declared):
    legal = legal_triples_by_enumeration(class_parent, property_parent, declared)
    for s in class_parent:
        for p in property_parent:
            for o in class_parent:
                assert triple_is_legal(onto, s, p, o) == ((s, p, o) in legal), (declared, s, p, o)


def test_triple_is_legal_matches_full_enumeration():
    rng = random.Random(5)
    for _ in range(15):
        classes = _random_forest(rng, rng.randint(2, 10))
        props = {f"p{i}": None for i in range(rng.randint(1, 3))}
        names = sorted(classes)
        declared = {
            (rng.choice(names), rng.choice(sorted(props)), rng.choice(names)) for _ in range(rng.randint(1, 4))
        }
        onto = Ontology(classes, props, frozenset(PotentialTriple(*t) for t in declared))
        _assert_legality_matches_the_oracle(onto, classes, props, sorted(declared))


def test_triple_is_legal_matches_an_oracle_with_property_hierarchies():
    rng = random.Random(11)
    for _ in range(25):
        classes = _random_forest(rng, rng.randint(2, 9))
        props = {
            f"p{name[1:]}": None if parent is None else f"p{parent[1:]}"
            for name, parent in _random_forest(rng, rng.randint(2, 6)).items()
        }
        declared = {
            (rng.choice(sorted(classes)), rng.choice(sorted(props)), rng.choice(sorted(classes)))
            for _ in range(rng.randint(1, 5))
        }
        onto = Ontology(classes, props, frozenset(PotentialTriple(*t) for t in declared))
        _assert_legality_matches_the_oracle(onto, classes, props, sorted(declared))


def test_a_deep_class_chain_parses():
    depth = 3000
    nodes = ["C0"] + [f"C{i} -> C{i - 1}" for i in range(1, depth)]
    text = json.dumps({"Nodes": nodes, "Properties": ["p"], "Potential triples": [["C1", "p", "C1"]]})
    tracemalloc.start()
    try:
        onto = parse_ontology(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The ontology keeps its parent maps, not a lineage per name (depth² names).
    assert held < 4_000_000
    chains = json.loads(serialize_ontology(onto))["Nodes"]
    assert max(chains, key=len) == " -> ".join(f"C{i}" for i in reversed(range(depth)))
    assert triple_is_legal(onto, f"C{depth - 1}", "p", f"C{depth - 1}")
    assert not triple_is_legal(onto, "C0", "p", f"C{depth - 1}")


def test_property_hierarchy_counts_for_legality():
    onto = parse_ontology(
        json.dumps(
            {
                "Nodes": ["A", "B"],
                "Properties": ["p", "q -> p"],
                "Potential triples": [["A", "p", "B"]],
            }
        )
    )
    assert triple_is_legal(onto, "A", "q", "B")
    assert not triple_is_legal(onto, "A", "p", "A")


def test_refinements_members_all_legal(event_toy, toy_ontology):
    for onto in (event_toy, toy_ontology):
        declared = sorted((t.subject, t.property, t.object) for t in onto.potential_triples)
        _assert_legality_matches_the_oracle(onto, onto.class_parent, onto.property_parent, declared)


def test_serialize_round_trip_and_exact_fields(toy_ontology):
    text = serialize_ontology(toy_ontology)
    assert parse_ontology(text) == toy_ontology
    doc = json.loads(text)
    assert list(doc) == ["Nodes", "Properties", "Potential triples"]
    assert serialize_ontology(toy_ontology) == text


def test_parse_merges_consistent_duplicates():
    onto = parse_ontology(
        json.dumps(
            {
                "Nodes": ["A -> B", "A -> B", "B"],
                "Properties": ["p"],
                "Potential triples": [],
            }
        )
    )
    assert onto.class_parent == {"A": "B", "B": None}


def test_parse_errors():
    with pytest.raises(SchemaError):
        parse_ontology('{"Nodes": [], "Properties": []}')
    with pytest.raises(SchemaError):
        parse_ontology(
            json.dumps({"Nodes": ["A -> B", "A -> C", "B", "C"], "Properties": [], "Potential triples": []})
        )
    with pytest.raises(InheritanceCycleError, match="class inheritance cycles at '(A|B)'"):
        parse_ontology(
            json.dumps({"Nodes": ["A -> B", "B -> A"], "Properties": [], "Potential triples": []})
        )
    with pytest.raises(DanglingNameError):
        parse_ontology(
            json.dumps(
                {"Nodes": ["A"], "Properties": [], "Potential triples": [["A", "ghost", "A"]]}
            )
        )
    with pytest.raises(SchemaError, match="'Potential triples'"):
        parse_ontology(json.dumps({"Nodes": ["A"], "Properties": ["p"], "Potential triples": [["A", "p"]]}))
    # An empty name can never be declared, so it is an undeclared one.
    with pytest.raises(DanglingNameError):
        parse_ontology(json.dumps({"Nodes": ["A"], "Properties": ["p"], "Potential triples": [["A", "", "A"]]}))
    with pytest.raises(SchemaError, match="class section must be an array of strings"):
        parse_ontology(json.dumps({"Nodes": "A", "Properties": [], "Potential triples": []}))
    with pytest.raises(SchemaError, match="property entry 5 is not a string"):
        parse_ontology(json.dumps({"Nodes": ["A"], "Properties": [5], "Potential triples": []}))
    with pytest.raises(SchemaError, match="class entry 'A -> ' contains an empty name"):
        parse_ontology(json.dumps({"Nodes": ["A -> "], "Properties": [], "Potential triples": []}))
    with pytest.raises(DanglingNameError, match="class 'A' has undeclared parent 'B'"):
        Ontology({"A": "B"}, {}, frozenset())
