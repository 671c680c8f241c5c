from __future__ import annotations

import json
import random

import pytest

from semchain import (
    Ontology,
    PotentialTriple,
    is_subclass_of,
    is_subproperty_of,
    parse_ontology,
    refinements,
    serialize_ontology,
    triple_is_legal,
)
from semchain.errors import DanglingNameError, InheritanceCycleError, SchemaError
from helpers import transitive_ancestors_bruteforce

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
    assert event_toy.class_ancestors("Activity") == ("Event",)


def test_plain_entry_is_a_root(event_toy):
    assert event_toy.class_parent["Event"] is None
    assert event_toy.class_ancestors("Event") == ()


def test_subclass_is_reflexive_and_walks_the_chain(event_toy):
    assert is_subclass_of(event_toy, "Activity", "Event")
    assert is_subclass_of(event_toy, "Event", "Event")
    assert not is_subclass_of(event_toy, "Event", "Activity")


def test_refinements_contain_the_narrowed_triple(event_toy):
    base = PotentialTriple("Event", "had_participant", "Actor")
    refined = refinements(event_toy, base)
    assert base in refined
    assert PotentialTriple("Activity", "had_participant", "Actor") in refined
    assert refined == {base, PotentialTriple("Activity", "had_participant", "Actor")}


def test_refinements_of_leaf_triple_is_singleton(event_toy):
    t = PotentialTriple("Activity", "had_participant", "Actor")
    assert refinements(event_toy, t) == {t}


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
    refined = refinements(onto, PotentialTriple("Agent", "made", "Object"))
    subjects = [c for c in onto.classes if is_subclass_of(onto, c, "Agent")]
    objects = [c for c in onto.classes if is_subclass_of(onto, c, "Object")]
    assert len(subjects) == 3 and len(objects) == 2
    assert len(refined) == len(subjects) * len(objects)


def _random_forest(rng: random.Random, size: int) -> dict[str, str | None]:
    names = [f"C{i}" for i in range(size)]
    parent: dict[str, str | None] = {}
    for i, name in enumerate(names):
        parent[name] = rng.choice(names[:i]) if i and rng.random() < 0.7 else None
    return parent


def test_ancestors_match_bruteforce_chain_following():
    rng = random.Random(42)
    for _ in range(30):
        parent = _random_forest(rng, 10)
        onto = Ontology(parent, {"p": None}, frozenset())
        for name in parent:
            assert set(onto.class_ancestors(name)) == transitive_ancestors_bruteforce(parent, name)


def test_subclass_matches_reachability_dfs():
    rng = random.Random(17)
    for _ in range(30):
        parent = _random_forest(rng, 8)
        onto = Ontology(parent, {"p": None}, frozenset())
        for a in parent:
            reachable = {a} | transitive_ancestors_bruteforce(parent, a)
            for b in parent:
                assert is_subclass_of(onto, a, b) == (b in reachable)


def test_subclass_is_antisymmetric_on_acyclic_ontologies():
    rng = random.Random(29)
    for _ in range(20):
        parent = _random_forest(rng, 8)
        onto = Ontology(parent, {"p": None}, frozenset())
        for a in parent:
            for b in parent:
                if a != b:
                    assert not (is_subclass_of(onto, a, b) and is_subclass_of(onto, b, a))


def test_triple_is_legal_verbatim_and_refined(event_toy):
    assert triple_is_legal(event_toy, "Event", "had_participant", "Actor")
    assert triple_is_legal(event_toy, "Activity", "had_participant", "Actor")
    assert not triple_is_legal(event_toy, "Actor", "had_participant", "Event")


def test_triple_is_legal_matches_full_enumeration():
    rng = random.Random(5)
    for _ in range(15):
        classes = _random_forest(rng, rng.randint(2, 10))
        props = {f"p{i}": None for i in range(rng.randint(1, 3))}
        names = sorted(classes)
        declared = set()
        for _ in range(rng.randint(1, 4)):
            declared.add(
                PotentialTriple(rng.choice(names), rng.choice(sorted(props)), rng.choice(names))
            )
        onto = Ontology(classes, props, frozenset(declared))
        legal_by_enumeration = set()
        for t in declared:
            legal_by_enumeration |= refinements(onto, t)
        for s in names:
            for p in sorted(props):
                for o in names:
                    expected = PotentialTriple(s, p, o) in legal_by_enumeration
                    assert triple_is_legal(onto, s, p, o) == expected


def test_triple_is_legal_matches_an_oracle_with_property_hierarchies():
    rng = random.Random(11)
    for _ in range(25):
        classes = _random_forest(rng, rng.randint(2, 9))
        props = {
            f"p{name[1:]}": None if parent is None else f"p{parent[1:]}"
            for name, parent in _random_forest(rng, rng.randint(2, 6)).items()
        }
        declared = {
            PotentialTriple(rng.choice(sorted(classes)), rng.choice(sorted(props)), rng.choice(sorted(classes)))
            for _ in range(rng.randint(1, 5))
        }
        onto = Ontology(classes, props, frozenset(declared))

        def up(parents, name):
            return {name} | transitive_ancestors_bruteforce(parents, name)

        for s in classes:
            for p in props:
                for o in classes:
                    expected = any(
                        t.subject in up(classes, s) and t.property in up(props, p) and t.object in up(classes, o)
                        for t in declared
                    )
                    assert triple_is_legal(onto, s, p, o) == expected, (classes, props, declared, s, p, o)


def test_a_deep_class_chain_parses():
    depth = 3000
    nodes = ["C0"] + [f"C{i} -> C{i - 1}" for i in range(1, depth)]
    onto = parse_ontology(json.dumps({"Nodes": nodes, "Properties": ["p"], "Potential triples": []}))
    deepest = onto.class_ancestors(f"C{depth - 1}")
    assert len(deepest) == depth - 1
    assert deepest[0] == f"C{depth - 2}" and deepest[-1] == "C0"
    assert is_subclass_of(onto, f"C{depth - 1}", "C0")


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
    assert is_subproperty_of(onto, "q", "p")
    assert triple_is_legal(onto, "A", "q", "B")
    assert not triple_is_legal(onto, "A", "p", "A")


def test_refinements_members_all_legal(event_toy, toy_ontology):
    for onto in (event_toy, toy_ontology):
        for declared in onto.potential_triples:
            for t in refinements(onto, declared):
                assert triple_is_legal(onto, t.subject, t.property, t.object)


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
    with pytest.raises(InheritanceCycleError):
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
    with pytest.raises(DanglingNameError):
        onto = parse_ontology(EVENT_TOY)
        is_subclass_of(onto, "Event", "Ghost")
