from __future__ import annotations

import hashlib
import json
import random
import re
import time

import pytest

from semchain import (
    ClassInstance,
    InternalLinkTriple,
    SemanticModel,
    SemanticTriple,
    SourceFormat,
    Table,
    depth,
    lint_gold,
    parse_labels,
    parse_model,
    prune,
    serialize_labels,
    serialize_model,
)
from semchain.errors import CyclicModelError, InstanceParseError, SchemaError
from semchain.semantic_model import BIRTH_CLASS, DEATH_CLASS, HAS_TIME_SPAN_PROPERTY, TIME_SPAN_CLASS
from helpers import bfs_connected_instances, has_directed_cycle, longest_path_to_attribute, random_model


def _model(sems=(), links=()) -> SemanticModel:
    return SemanticModel(frozenset(sems), frozenset(links))


def _sem(inst: str, prop: str, attr: str) -> SemanticTriple:
    return SemanticTriple(ClassInstance.parse(inst), prop, attr)


def _link(subj: str, prop: str, obj: str) -> InternalLinkTriple:
    return InternalLinkTriple(ClassInstance.parse(subj), prop, ClassInstance.parse(obj))


class TestInstances:
    def test_trailing_digits_are_the_index(self):
        inst = ClassInstance.parse("crm:E52_Time-Span2")
        assert inst == ClassInstance("crm:E52_Time-Span", 2)
        assert inst.render() == "crm:E52_Time-Span2"

    def test_missing_index_defaults_to_one(self):
        assert ClassInstance.parse("crm:E21_Person") == ClassInstance("crm:E21_Person", 1)

    def test_multi_digit_index(self):
        assert ClassInstance.parse("Node12") == ClassInstance("Node", 12)

    def test_bad_instances(self):
        with pytest.raises(InstanceParseError):
            ClassInstance.parse("123")
        with pytest.raises(InstanceParseError):
            ClassInstance.parse("Node0")
        with pytest.raises(InstanceParseError):
            ClassInstance("", 1)

    def test_an_index_too_long_for_int_is_a_parse_error(self):
        # Python converts at most 4,300 digits to an int by default.
        with pytest.raises(InstanceParseError, match="'crm:E21_Person' has a 5000-digit index"):
            ClassInstance.parse("crm:E21_Person" + "7" * 5000)

    def test_a_long_digit_run_parses_in_linear_time(self):
        started = time.perf_counter()
        assert ClassInstance.parse("1" * 50_000 + "a") == ClassInstance("1" * 50_000 + "a", 1)
        with pytest.raises(InstanceParseError, match="'a' has a 50000-digit index"):
            ClassInstance.parse("a" + "1" * 50_000)
        assert time.perf_counter() - started < 1.0

    def test_parse_agrees_with_the_trailing_digits_regex(self):
        # The regex the parser replaced; it takes time quadratic in a digit run.
        def by_regex(text):
            match = re.match(r"^(.*?)(\d+)$", text)
            if not match:
                return ClassInstance(text, 1)
            name, digits = match.groups()
            try:
                index = int(digits)
            except ValueError:
                raise InstanceParseError(f"instance {name!r} has a {len(digits)}-digit index") from None
            return ClassInstance(name, index)

        def outcome(parse, text):
            try:
                return parse(text)
            except InstanceParseError as exc:
                return f"error: {exc}"

        # ASCII digits, Unicode decimal digits (which count) and superscripts (which do not).
        alphabet = "ab:_-" + "0123456789" + "\u0663\u096b\uff17" + "\u00b2\u00b3" + "\n"
        rng = random.Random(9)
        names = ["".join(rng.choices(alphabet, k=rng.randint(0, 12))) for _ in range(5000)]
        names += ["a" + "\u0663" * 4301, "a" + "1" * 4300, "\u00b2" * 3 + "7", "x12\n", "x\n1"]
        for text in names:
            assert outcome(ClassInstance.parse, text) == outcome(by_regex, text), repr(text)


class TestParseSerialize:
    def test_parse_time_span_annotation(self):
        model = parse_model(
            json.dumps(
                {
                    "semantic_triples": [
                        ["crm:E52_Time-Span2", "crm:P82_at_some_time_within", "date"]
                    ],
                    "internal_link_triples": [],
                }
            )
        )
        (triple,) = model.semantic_triples
        assert triple.subject.index == 2
        assert triple.attribute == "date"

    def test_empty_model(self):
        model = parse_model('{"semantic_triples": [], "internal_link_triples": []}')
        assert model.size() == 0
        doc = json.loads(serialize_model(model))
        assert doc == {"semantic_triples": [], "internal_link_triples": []}

    def test_round_trip_random_models(self):
        rng = random.Random(21)
        for _ in range(100):
            model = random_model(rng)
            assert parse_model(serialize_model(model)) == model

    def test_labels_round_trip(self):
        model = _model(sems=[_sem("Person1", "identified_by", "name")])
        assert parse_labels(serialize_labels(model)) == model

    def test_field_names_are_exact(self):
        text = serialize_model(_model())
        assert '"semantic_triples"' in text and '"internal_link_triples"' in text

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_model('{"semantic_triples": []}')
        with pytest.raises(SchemaError):
            parse_model('{"semantic_triples": [], "internal_link_triples": [["A1", "p"]]}')
        with pytest.raises(SchemaError):
            parse_model(
                '{"semantic_triples": [], "internal_link_triples": [["A1", "p", "A1"]]}'
            )
        with pytest.raises(SchemaError):
            parse_labels('{"internal_link_triples": []}')


class TestPrune:
    def test_connected_model_unchanged(self):
        model = _model(
            sems=[_sem("Person1", "identified_by", "name")],
            links=[_link("Birth1", "brought_into_life", "Person1")],
        )
        assert prune(model, {"name"}) == model

    def test_isolated_link_removed(self):
        connected = _sem("Person1", "identified_by", "name")
        isolated = _link("X1", "p", "Y1")
        pruned = prune(_model(sems=[connected], links=[isolated]), {"name"})
        assert pruned == _model(sems=[connected])
        survivors = bfs_connected_instances(_model(sems=[connected], links=[isolated]), {"name"})
        assert survivors == {"Person1"}

    def test_cascading_chain_kept_and_island_removed(self):
        model = _model(
            sems=[_sem("A1", "identified_by", "name")],
            links=[
                _link("B1", "p", "A1"),
                _link("C1", "p", "B1"),
                _link("D1", "p", "E1"),
            ],
        )
        pruned = prune(model, {"name"})
        kept = {inst.render() for inst in pruned.instances()}
        assert kept == {"A1", "B1", "C1"}
        assert kept == bfs_connected_instances(model, {"name"})

    def test_unknown_attribute_annotations_dropped(self):
        model = _model(sems=[_sem("A1", "p", "name"), _sem("A1", "p", "ghost")])
        pruned = prune(model, {"name"})
        assert pruned.attributes() == {"name"}

    def test_prune_tolerates_cycles(self):
        model = _model(
            sems=[_sem("A1", "p", "name")],
            links=[_link("A1", "p", "B1"), _link("B1", "p", "A1")],
        )
        assert prune(model, {"name"}) == model

    def test_prune_properties_on_random_models(self):
        rng = random.Random(11)
        attributes = {"name", "date", "title"}
        for _ in range(200):
            model = random_model(rng)
            pruned = prune(model, attributes)
            assert pruned.semantic_triples <= model.semantic_triples
            assert pruned.internal_link_triples <= model.internal_link_triples
            assert prune(pruned, attributes) == pruned
            survivors = bfs_connected_instances(pruned, attributes)
            for inst in pruned.instances():
                assert inst.render() in survivors

    def test_prune_keeps_exactly_the_connected_part(self):
        rng = random.Random(43)
        attributes = {"name", "date", "title"}
        for _ in range(2000):
            model = random_model(rng, max_instances_per_class=6, max_links=12)
            survivors = bfs_connected_instances(model, attributes)
            pruned = prune(model, attributes)
            assert {inst.render() for inst in pruned.instances()} == survivors
            assert pruned.internal_link_triples == {
                link for link in model.internal_link_triples if link.subject.render() in survivors
            }


class TestDepth:
    def test_single_annotation(self):
        assert depth(_model(sems=[_sem("A1", "p", "name")])) == 1

    def test_link_then_annotation(self):
        model = _model(
            sems=[_sem("B1", "p", "attr")],
            links=[_link("A1", "p", "B1")],
        )
        assert depth(model) == 2

    def test_empty_model(self):
        assert depth(_model()) == 0

    def test_cycle_raises(self):
        model = _model(links=[_link("A1", "p", "B1"), _link("B1", "p", "A1")])
        with pytest.raises(CyclicModelError):
            depth(model)

    def test_depth_matches_path_enumeration_on_random_dags(self):
        rng = random.Random(31)
        for _ in range(200):
            model = random_model(rng, acyclic=True)
            assert depth(model) == longest_path_to_attribute(model)

    def test_depth_raises_exactly_on_cycles_and_else_matches_path_enumeration(self):
        rng = random.Random(47)
        cyclic = 0
        for _ in range(2000):
            model = random_model(rng, max_instances_per_class=6, max_links=12)
            if has_directed_cycle(model):
                cyclic += 1
                with pytest.raises(CyclicModelError):
                    depth(model)
            else:
                assert depth(model) == longest_path_to_attribute(model)
        assert 0 < cyclic < 2000

    def test_a_long_chain_does_not_recurse(self):
        chain = [ClassInstance("Step", i) for i in range(1, 5001)]
        model = _model(
            sems=[SemanticTriple(chain[-1], "p", "name")],
            links=[InternalLinkTriple(a, "next", b) for a, b in zip(chain, chain[1:])],
        )
        assert depth(model) == 5000

    def test_depth_never_grows_under_prune(self):
        rng = random.Random(37)
        attributes = {"name", "date", "title"}
        for _ in range(100):
            model = random_model(rng, acyclic=True)
            assert depth(prune(model, attributes)) <= depth(model)


class TestLints:
    @staticmethod
    def _table(*attrs: str) -> Table:
        return Table("src", SourceFormat.CSV, tuple(attrs), ())

    def test_clean_gold_model(self, toy_golds, toy_tables):
        for sid, gold in toy_golds.items():
            assert lint_gold(gold, toy_tables[sid]).ok()

    def test_dangling_attribute_flagged(self):
        model = _model(sems=[_sem("A1", "p", "notes")])
        report = lint_gold(model, self._table("name"))
        assert [d.rule for d in report.diagnostics] == ["L1"]

    def test_swapped_time_span_numbering_flagged(self):
        model = _model(
            sems=[
                _sem("crm:E52_Time-Span1", "crm:P82_at_some_time_within", "death"),
                _sem("crm:E52_Time-Span2", "crm:P82_at_some_time_within", "birth"),
            ],
            links=[
                _link("crm:E67_Birth1", "crm:P4_has_time-span", "crm:E52_Time-Span2"),
                _link("crm:E69_Death1", "crm:P4_has_time-span", "crm:E52_Time-Span1"),
            ],
        )
        report = lint_gold(model, self._table("birth", "death"))
        assert [d.rule for d in report.diagnostics] == ["L2"]

    def test_no_l2_without_both_birth_and_death(self):
        model = _model(
            sems=[_sem("crm:E52_Time-Span2", "p", "birth")],
            links=[_link("crm:E67_Birth1", "crm:P4_has_time-span", "crm:E52_Time-Span2")],
        )
        assert lint_gold(model, self._table("birth")).ok()

# lint_gold's output on the models below; any change to a message or offender moves it.
_LINT_DIGEST = "a7c0ac1ebb590ef0abf57e464081a40318682010a6342929b18119e857405175"


def _birth_death_model(rng: random.Random) -> SemanticModel:
    """A random model over Birth, Death, Time-Span and Person instances whose
    links mostly carry the time-span property."""
    counts = {
        "crm:E21_Person": 1,
        BIRTH_CLASS: rng.randint(0, 3),
        DEATH_CLASS: rng.randint(0, 3),
        TIME_SPAN_CLASS: rng.randint(1, 3),
    }
    instances = [ClassInstance(cls, index) for cls, count in counts.items() for index in range(1, count + 1)]
    sems = {
        SemanticTriple(rng.choice(instances), "crm:P82_at_some_time_within", rng.choice(("birth", "death", "note")))
        for _ in range(rng.randint(0, 4))
    }
    properties = (HAS_TIME_SPAN_PROPERTY, HAS_TIME_SPAN_PROPERTY, "crm:P98_brought_into_life")
    links = set()
    for _ in range(rng.randint(0, 6)):
        subject, obj = rng.sample(instances, 2)
        links.add(InternalLinkTriple(subject, rng.choice(properties), obj))
    return _model(sems, links)


def test_lint_output_matches_its_pinned_digest():
    rng = random.Random(53)
    table = Table("src", SourceFormat.CSV, ("birth", "death"), ())
    digest = hashlib.sha256()
    problems = set()
    for _ in range(20_000):
        diagnostics = lint_gold(_birth_death_model(rng), table).diagnostics
        digest.update(repr(diagnostics).encode("utf-8") + b"\n")
        for part in (p for d in diagnostics if d.rule == "L2" for p in d.message.split("; ")):
            problems.add("mis-numbered" if part.startswith("mis-numbered") else part)
    assert len(problems) == 3  # mis-numbered links, and each event missing its span
    assert digest.hexdigest() == _LINT_DIGEST
