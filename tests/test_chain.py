from __future__ import annotations

import json

import pytest

from semchain import (
    ChainConfig,
    CorruptionSpec,
    MockProvider,
    MockScript,
    run_chain,
    serialize_labels,
    serialize_model,
    serialize_table,
)
from semchain.errors import NoAnswerError, Step1ParseError
from semchain.llm import Completion, TokenUsage, extract_tagged_json, naive_token_count
from helpers import bfs_connected_instances

SYSTEM = "system prompt for tests"


def _gold_provider(toy_golds, corruption=None):
    return MockProvider(MockScript.from_gold(toy_golds, corruption))


def _content(result):
    """A result's fields, with its transcripts' wall-clock latencies left out."""
    exchanges = {stage: (ex.turns, ex.usage) for stage, ex in result.transcripts.items()}
    return result.labels, result.raw_model, result.final_model, result.notes, exchanges


class TestChainedRuns:
    def test_gold_script_reproduces_gold(self, toy_tables, toy_golds):
        for sid, table in toy_tables.items():
            result = run_chain(SYSTEM, table, ChainConfig(), _gold_provider(toy_golds))
            assert result.final_model == toy_golds[sid]
            assert result.labels.semantic_triples == toy_golds[sid].semantic_triples
            assert result.raw_model == toy_golds[sid]

    def test_two_calls_when_chained_one_when_combined(self, toy_tables, toy_golds):
        provider = _gold_provider(toy_golds)
        run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), provider)
        assert [stage for _, stage in provider.calls] == ["chain1", "chain2"]
        provider = _gold_provider(toy_golds)
        run_chain(SYSTEM, toy_tables["artists"], ChainConfig(chaining_enabled=False), provider)
        assert [stage for _, stage in provider.calls] == ["combined"]

    def test_chain2_turn_carries_the_conversation(self, toy_tables, toy_golds):
        result = run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), _gold_provider(toy_golds))
        turns = result.transcripts["chain2"].turns
        assert [t.role for t in turns] == ["user", "assistant", "user", "assistant"]
        # The table rides along in turn 0 only; the chain2 prompt has no copy.
        table_text = serialize_table(toy_tables["artists"], 3).text
        assert table_text in turns[0].content
        assert table_text not in turns[2].content

    def test_pruning_removes_injected_instances(self, toy_tables, toy_golds):
        corruption = CorruptionSpec(inject_instances=2, seed=2023, stages=frozenset({"chain2"}))
        pruned = run_chain(
            SYSTEM, toy_tables["artists"], ChainConfig(), _gold_provider(toy_golds, corruption)
        )
        assert pruned.final_model == toy_golds["artists"]

        unpruned = run_chain(
            SYSTEM,
            toy_tables["artists"],
            ChainConfig(pruning_enabled=False),
            _gold_provider(toy_golds, corruption),
        )
        extra = unpruned.final_model.instances() - toy_golds["artists"].instances()
        assert len(extra) == 2
        attrs = set(toy_tables["artists"].attributes)
        connected = bfs_connected_instances(unpruned.final_model, attrs)
        assert {i.render() for i in extra}.isdisjoint(connected)

    def test_final_model_is_prune_of_raw(self, toy_tables, toy_golds):
        from semchain import prune

        corruption = CorruptionSpec(inject_instances=4, seed=9, stages=frozenset({"chain2"}))
        result = run_chain(
            SYSTEM, toy_tables["donations"], ChainConfig(), _gold_provider(toy_golds, corruption)
        )
        attrs = set(toy_tables["donations"].attributes)
        assert result.final_model == prune(result.raw_model, attrs)

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_pruning_on_equals_the_unpruned_result_pruned(self, strict, toy_tables, toy_golds, toy_ontology):
        # Strict validation drops the injected links; the dropped triples still
        # leave instances cut off from every attribute for pruning to remove.
        corruption = CorruptionSpec(inject_instances=2, drop_triples=3, rename_properties=1, seed=9)
        changed = False
        for table in toy_tables.values():
            pruned, unpruned = (
                run_chain(
                    SYSTEM,
                    table,
                    ChainConfig(pruning_enabled=pruning, strict_ontology_validation=strict),
                    _gold_provider(toy_golds, corruption),
                    ontology=toy_ontology,
                )
                for pruning in (True, False)
            )
            derived = unpruned.pruned(table.attributes)
            assert _content(pruned) == _content(derived)
            changed = changed or derived.final_model != unpruned.final_model
        assert changed

    def test_determinism_under_mock(self, toy_tables, toy_golds):
        corruption = CorruptionSpec(drop_triples=1, rename_properties=1, seed=2024)
        runs = [
            run_chain(
                SYSTEM, toy_tables["artworks"], ChainConfig(), _gold_provider(toy_golds, corruption)
            )
            for _ in range(3)
        ]
        texts = {serialize_model(r.final_model) for r in runs}
        assert len(texts) == 1
        assert len({serialize_labels(r.labels) for r in runs}) == 1


class TestCombinedRuns:
    def test_combined_answers_parse_for_both_tags(self, toy_tables, toy_golds):
        result = run_chain(
            SYSTEM, toy_tables["artists"], ChainConfig(chaining_enabled=False), _gold_provider(toy_golds)
        )
        assert result.final_model == toy_golds["artists"]
        reply = result.transcripts["combined"].turns[-1].content
        for tag in ("Step1", "Step2"):
            answer, value = extract_tagged_json(reply, tag)
            assert json.loads(answer) == value


class _ScriptedProvider:
    """Minimal provider returning fixed texts in order."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, system, turns, *, tags=None):
        text = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        return Completion(text, TokenUsage(naive_token_count(system), naive_token_count(text)))


class TestRobustness:
    def test_step1_garbage_aborts_before_chain2(self, toy_tables):
        provider = _ScriptedProvider(['<Step1>{"wrong_key": []}</Step1>'])
        with pytest.raises(Step1ParseError):
            run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), provider)
        assert provider.calls == 1

    def test_no_answer_is_tagged_with_the_stage(self, toy_tables):
        provider = _ScriptedProvider(["there is no answer here"])
        with pytest.raises(NoAnswerError, match="chain1"):
            run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), provider)

    def test_pruned_labels_stay_within_table_attributes(self, toy_tables, toy_golds):
        labels_doc = json.loads(serialize_labels(toy_golds["artists"]))
        labels_doc["semantic_triples"].append(["crm:E39_Actor1", "crm:P3_has_note", "bogus_column"])
        model_doc = json.loads(serialize_model(toy_golds["artists"]))
        replies = [
            f"<Step1>{json.dumps(labels_doc)}</Step1>",
            f"<Step2>{json.dumps(model_doc)}</Step2>",
        ]
        table = toy_tables["artists"]
        result = run_chain(SYSTEM, table, ChainConfig(), _ScriptedProvider(replies))
        assert result.labels.attributes() <= set(table.attributes)
        assert result.labels.semantic_triples == toy_golds["artists"].semantic_triples

    def test_step1_links_are_ignored_even_when_malformed(self, toy_tables, toy_golds):
        gold = toy_golds["artists"]
        labels_doc = {**json.loads(serialize_labels(gold)), "internal_link_triples": "oops"}
        replies = [f"<Step1>{json.dumps(labels_doc)}</Step1>", f"<Step2>{serialize_model(gold)}</Step2>"]
        result = run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), _ScriptedProvider(replies))
        assert result.labels.semantic_triples == gold.semantic_triples
        assert not result.labels.internal_link_triples
        assert result.final_model == gold

    def test_zero_labels_proceeds_with_note(self, toy_tables):
        replies = [
            '<Step1>{"semantic_triples": []}</Step1>',
            '<Step2>{"semantic_triples": [], "internal_link_triples": []}</Step2>',
        ]
        result = run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), _ScriptedProvider(replies))
        assert result.final_model.size() == 0
        assert any("zero labels" in note for note in result.notes)

    def test_chain2_without_labels_merges_chain1(self, toy_tables, toy_golds):
        labels = serialize_labels(toy_golds["artists"])
        replies = [
            f"<Step1>{labels}</Step1>",
            '<Step2>{"internal_link_triples": []}</Step2>',
        ]
        result = run_chain(SYSTEM, toy_tables["artists"], ChainConfig(), _ScriptedProvider(replies))
        assert result.final_model.semantic_triples == toy_golds["artists"].semantic_triples
        assert any("merged chain1 labels" in note for note in result.notes)

    def test_strict_validation_drops_illegal_links(self, toy_tables, toy_golds, toy_ontology):
        gold = toy_golds["artists"]
        doc = json.loads(serialize_model(gold))
        doc["internal_link_triples"].append(
            ["crm:E21_Person1", "made_up_property", "crm:E52_Time-Span1"]
        )
        labels = serialize_labels(gold)
        replies = [f"<Step1>{labels}</Step1>", f"<Step2>{json.dumps(doc)}</Step2>"]

        relaxed = run_chain(
            SYSTEM, toy_tables["artists"], ChainConfig(), _ScriptedProvider(replies)
        )
        assert len(relaxed.final_model.internal_link_triples) == len(gold.internal_link_triples) + 1

        strict = run_chain(
            SYSTEM,
            toy_tables["artists"],
            ChainConfig(strict_ontology_validation=True),
            _ScriptedProvider(replies),
            ontology=toy_ontology,
        )
        assert strict.final_model == gold
        assert any("strict validation dropped 1" in note for note in strict.notes)

    def test_strict_validation_requires_ontology(self, toy_tables, toy_golds):
        with pytest.raises(ValueError):
            run_chain(
                SYSTEM,
                toy_tables["artists"],
                ChainConfig(strict_ontology_validation=True),
                _gold_provider(toy_golds),
            )
