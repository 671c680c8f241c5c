from __future__ import annotations

import re

import pytest

from semchain import (
    PromptTemplate,
    build_chain1_prompt,
    build_chain2_prompt,
    build_combined_prompt,
    build_system_prompt,
    load_rules,
    serialize_labels,
    serialize_model,
    serialize_ontology,
    serialize_table,
)
from semchain.errors import EmptyExamplesError, Step1ParseError, TemplateError
from semchain.llm import naive_token_count
from semchain.prompting import PLACEHOLDER_RE


@pytest.fixture(scope="module")
def rules():
    return load_rules()


def _examples(toy_tables, toy_golds, ids):
    return [
        (serialize_table(toy_tables[sid], 3), serialize_labels(toy_golds[sid]), serialize_model(toy_golds[sid]))
        for sid in ids
    ]


def test_one_example_yields_one_block(toy_tables, toy_golds, toy_ontology, rules):
    prompt = build_system_prompt(
        serialize_ontology(toy_ontology), _examples(toy_tables, toy_golds, ["artists"]), rules
    )
    assert prompt.count("<Table>") == prompt.count("</Table>") == 1
    assert prompt.count("<Step1>") == prompt.count("<Step2>") == 1
    assert prompt.count("<Ontology>") == prompt.count("</Ontology>") == 1
    assert prompt.count("<Examples>") == 1


def test_rules_appear_verbatim_in_each_block(toy_tables, toy_golds, toy_ontology, rules):
    prompt = build_system_prompt(
        serialize_ontology(toy_ontology),
        _examples(toy_tables, toy_golds, ["artists", "artworks"]),
        rules,
    )
    assert prompt.count(rules[0]) == 2
    assert prompt.count(rules[1]) == 2


def test_block_count_matches_example_count(toy_tables, toy_golds, toy_ontology, rules):
    ids = sorted(toy_tables)
    for n in (1, 3, len(ids)):
        prompt = build_system_prompt(
            serialize_ontology(toy_ontology), _examples(toy_tables, toy_golds, ids[:n]), rules
        )
        assert len(re.findall(r"<Table>", prompt)) == n
        assert len(re.findall(r"</Step2>", prompt)) == n


def test_no_placeholder_survives_substitution(toy_tables, toy_golds, toy_ontology, rules):
    prompt = build_system_prompt(
        serialize_ontology(toy_ontology), _examples(toy_tables, toy_golds, ["collection"]), rules
    )
    serialized = serialize_table(toy_tables["artists"], 3)
    for text in (prompt, build_chain1_prompt(serialized), build_combined_prompt(serialized)):
        assert not PLACEHOLDER_RE.search(text)


def test_system_prompt_is_deterministic(toy_tables, toy_golds, toy_ontology, rules):
    args = (serialize_ontology(toy_ontology), _examples(toy_tables, toy_golds, ["artists"]), rules)
    assert build_system_prompt(*args) == build_system_prompt(*args)


def test_empty_examples_rejected(toy_ontology, rules):
    with pytest.raises(EmptyExamplesError):
        build_system_prompt(serialize_ontology(toy_ontology), [], rules)


def test_chain1_contains_table_and_answer_envelope(toy_tables):
    serialized = serialize_table(toy_tables["artists"], 3)
    prompt = build_chain1_prompt(serialized)
    assert "<Step1>" in prompt
    assert serialized.text in prompt
    assert "reasoning" in prompt.lower()


def test_chain1_prompts_differ_only_in_the_table(toy_tables):
    a = serialize_table(toy_tables["artists"], 3)
    b = serialize_table(toy_tables["donations"], 3)
    prompt_a = build_chain1_prompt(a)
    prompt_b = build_chain1_prompt(b)
    assert prompt_a.replace(a.text, "@") == prompt_b.replace(b.text, "@")


def test_chain2_embeds_labels_but_not_the_table(toy_tables, toy_golds):
    serialized = serialize_table(toy_tables["artists"], 3)
    labels = serialize_labels(toy_golds["artists"])
    prompt = build_chain2_prompt(labels)
    assert labels in prompt
    assert serialized.text not in prompt
    assert "<Step2>" in prompt


def test_chain2_is_shorter_than_chain1_plus_system(toy_tables, toy_golds, toy_ontology, rules):
    system = build_system_prompt(
        serialize_ontology(toy_ontology), _examples(toy_tables, toy_golds, ["artists"]), rules
    )
    for sid in toy_tables:
        serialized = serialize_table(toy_tables[sid], 3)
        chain1 = build_chain1_prompt(serialized)
        chain2 = build_chain2_prompt(serialize_labels(toy_golds[sid]))
        assert naive_token_count(chain2) < naive_token_count(chain1) + naive_token_count(system)


def test_chain2_rejects_garbage_labels():
    with pytest.raises(Step1ParseError):
        build_chain2_prompt("not json at all")
    with pytest.raises(Step1ParseError):
        build_chain2_prompt('{"internal_link_triples": []}')


def test_combined_prompt_requests_both_steps(toy_tables):
    prompt = build_combined_prompt(serialize_table(toy_tables["artists"], 3))
    assert "<Step1>" in prompt and "<Step2>" in prompt
    assert "previous step" not in prompt.lower()


def test_template_validation(tmp_path):
    for name in ("system.txt", "example.txt", "chain1.txt", "chain2.txt", "combined.txt"):
        (tmp_path / name).write_text("placeholder-free", encoding="utf-8")
    with pytest.raises(TemplateError):
        PromptTemplate.load(tmp_path)
    defaults = PromptTemplate.load()
    (tmp_path / "system.txt").write_text(
        "{$ONTOLOGY} {$EXAMPLES} {$SURPRISE}", encoding="utf-8"
    )
    (tmp_path / "example.txt").write_text(
        "{$TABLE} {$STEP1} {$STEP2} {$RULE_STEP1} {$RULE_STEP2}", encoding="utf-8"
    )
    (tmp_path / "chain1.txt").write_text("{$TABLE}", encoding="utf-8")
    (tmp_path / "chain2.txt").write_text("{$STEP1}", encoding="utf-8")
    (tmp_path / "combined.txt").write_text("{$TABLE}", encoding="utf-8")
    with pytest.raises(TemplateError):
        PromptTemplate.load(tmp_path)
    assert defaults.system  # packaged defaults stay loadable
