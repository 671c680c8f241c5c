"""The two-stage modeling pipeline: label attributes, build the graph, prune."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from . import ontology as onto_mod
from . import prompting
from . import semantic_model as sm
from .errors import NoAnswerError, SchemaError, SemchainError, Step1ParseError, require_types
from .ingest import DEFAULT_RECORD_CAP, Table, serialize_table
from .llm import (
    STAGE_CHAIN1,
    STAGE_CHAIN2,
    STAGE_COMBINED,
    ChatExchange,
    Message,
    Provider,
    extract_tagged_json,
)


@dataclass(frozen=True)
class ChainConfig:
    chaining_enabled: bool = True
    pruning_enabled: bool = True
    strict_ontology_validation: bool = False

    def __post_init__(self) -> None:
        require_types(self, ("chaining_enabled", "pruning_enabled", "strict_ontology_validation"), bool)


@dataclass(frozen=True)
class ChainResult:
    """Everything one source produced: labels, raw and final models, transcripts."""

    labels: sm.SemanticModel
    raw_model: sm.SemanticModel
    final_model: sm.SemanticModel
    transcripts: Mapping[str, ChatExchange]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transcripts", dict(self.transcripts))

    def total_tokens(self) -> int:
        return sum(ex.usage.total for ex in self.transcripts.values())

    def pruned(self, attributes: Iterable[str]) -> ChainResult:
        """This result with its labels and final model pruned to `attributes`."""
        return replace(
            self, labels=sm.prune(self.labels, attributes), final_model=sm.prune(self.final_model, attributes)
        )


def run_chain(
    system_prompt: str,
    table: Table,
    config: ChainConfig,
    provider: Provider,
    *,
    templates: prompting.PromptTemplate | None = None,
    ontology: onto_mod.Ontology | None = None,
    record_cap: int = DEFAULT_RECORD_CAP,
) -> ChainResult:
    """Model one source: two chained calls, or a single combined call.

    With chaining on, the graph-building turn continues the labeling
    conversation, so the table is sent only once. Pruning and the optional
    strict ontology validation shape the final model; the raw model is kept
    for inspection.
    """
    if config.strict_ontology_validation and ontology is None:
        raise ValueError("strict_ontology_validation needs an ontology")
    templates = templates or prompting.PromptTemplate.load()
    serialized = serialize_table(table, record_cap)
    notes: list[str] = []
    transcripts: dict[str, ChatExchange] = {}

    def ask(stage: str, turns: tuple[Message, ...]) -> str:
        started = time.perf_counter()
        completion = provider.complete(
            system_prompt, list(turns), tags={"source_id": table.source_id, "stage": stage}
        )
        transcripts[stage] = ChatExchange(
            system=system_prompt,
            turns=turns + (Message("assistant", completion.text),),
            usage=completion.usage,
            latency_ms=(time.perf_counter() - started) * 1000.0,
        )
        return completion.text

    if config.chaining_enabled:
        stage, prompt = STAGE_CHAIN1, prompting.build_chain1_prompt(serialized, templates)
    else:
        stage, prompt = STAGE_COMBINED, prompting.build_combined_prompt(serialized, templates)
    reply = ask(stage, (Message("user", prompt),))
    step1_json, step1 = _extract(reply, "Step1", stage)
    labels = _parse_labels(step1, stage)
    if config.chaining_enabled:
        if not labels.semantic_triples:
            notes.append("chain1 produced zero labels; continuing to chain2 anyway")
        prompt = prompting.build_chain2_prompt(step1_json, templates)
        stage = STAGE_CHAIN2
        reply = ask(stage, transcripts[STAGE_CHAIN1].turns + (Message("user", prompt),))
    _, step2 = _extract(reply, "Step2", stage)
    raw_model = _parse_step2(step2, labels, notes)

    model = raw_model
    if config.strict_ontology_validation:
        model, dropped = _drop_illegal_links(model, ontology)
        if dropped:
            notes.append(f"strict validation dropped {dropped} internal link(s)")
    result = ChainResult(labels, raw_model, model, transcripts, tuple(notes))
    return result.pruned(table.attributes) if config.pruning_enabled else result


# --- internals -----------------------------------------------------------------

def _extract(reply: str, tag: str, stage: str) -> tuple[str, object]:
    try:
        return extract_tagged_json(reply, tag)
    except NoAnswerError as exc:
        raise NoAnswerError(f"{stage}: {exc}") from exc


def _parse_labels(step1: object, stage: str) -> sm.SemanticModel:
    try:
        return sm.read_model(step1, links=False)
    except SemchainError as exc:
        raise Step1ParseError(f"{stage}: {exc}") from exc


def _parse_step2(step2: object, labels: sm.SemanticModel, notes: list[str]) -> sm.SemanticModel:
    if not isinstance(step2, dict):
        raise SchemaError("Step2 answer is not a JSON object")
    if sm.SEMANTIC_TRIPLES_KEY in step2:
        return sm.read_model(step2)
    # The graph answer is authoritative, but labeling evaluation needs the
    # label triples present, so fall back to the chain1 labels.
    notes.append("chain2 omitted semantic_triples; merged chain1 labels")
    links = sm.read_model({**step2, sm.SEMANTIC_TRIPLES_KEY: []}).internal_link_triples
    return sm.SemanticModel(labels.semantic_triples, links)


def _drop_illegal_links(model: sm.SemanticModel, ontology: onto_mod.Ontology):
    kept = frozenset(
        link
        for link in model.internal_link_triples
        if onto_mod.triple_is_legal(ontology, link.subject.class_name, link.property, link.object.class_name)
    )
    return sm.SemanticModel(model.semantic_triples, kept), len(model.internal_link_triples) - len(kept)
