"""Prompt assembly: the system prompt from ontology and worked examples, plus
the per-source prompts for each stage of the chain."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import (
    EmptyExamplesError, FormatError, SemchainError, Step1ParseError, TemplateError, decode_json, decode_text,
)
from .ingest import SerializedTable
from .semantic_model import parse_labels

PLACEHOLDER_RE = re.compile(r"\{\$([A-Za-z0-9_]+)\}")

_REQUIRED_PLACEHOLDERS = {
    "system": {"ONTOLOGY", "EXAMPLES"},
    "example": {"TABLE", "STEP1", "STEP2", "RULE_STEP1", "RULE_STEP2"},
    "chain1": {"TABLE"},
    "chain2": {"STEP1"},
    "combined": {"TABLE"},
}
_RULE_FILES = ("rules_step1.txt", "rules_step2.txt")


@dataclass(frozen=True)
class PromptTemplate:
    """The five editable template texts; placeholders use the {$NAME} form."""

    system: str
    example: str
    chain1: str
    chain2: str
    combined: str

    def __post_init__(self) -> None:
        for part, required in _REQUIRED_PLACEHOLDERS.items():
            _check_placeholders(getattr(self, part), required, part)

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "PromptTemplate":
        texts = {part: _read_template(f"{part}.txt", directory) for part in _REQUIRED_PLACEHOLDERS}
        return cls(**texts)


def load_rules(directory: str | Path | None = None) -> tuple[str, str]:
    """Rule texts for the Step1/Step2 blocks; expert-authored data, not code."""
    return tuple(_read_template(name, directory) for name in _RULE_FILES)  # type: ignore[return-value]


def build_system_prompt(
    onto_json: str,
    examples: Sequence[tuple[SerializedTable, str, str]],
    rules: tuple[str, str],
    template: PromptTemplate | None = None,
) -> str:
    """Render the system prompt: the ontology section followed by one worked
    example block per known source, in the order given."""
    template = template or PromptTemplate.load()
    if not examples:
        raise EmptyExamplesError("a system prompt needs at least one worked example")
    decode_json(onto_json, "ontology")
    rule_step1, rule_step2 = rules
    blocks = []
    for table, step1_json, step2_json in examples:
        decode_json(step1_json, "step1 example")
        decode_json(step2_json, "step2 example")
        blocks.append(
            _substitute(
                template.example,
                {
                    "TABLE": table.text,
                    "STEP1": step1_json,
                    "STEP2": step2_json,
                    "RULE_STEP1": rule_step1,
                    "RULE_STEP2": rule_step2,
                },
            )
        )
    return _substitute(
        template.system,
        {"ONTOLOGY": onto_json, "EXAMPLES": "\n".join(blocks)},
    )


def build_chain1_prompt(new_table: SerializedTable, template: PromptTemplate | None = None) -> str:
    return _table_prompt(new_table, "chain1", template)


def build_chain2_prompt(step1_answer: str, template: PromptTemplate | None = None) -> str:
    """Render the graph-building prompt around the Step1 labels.

    The table is deliberately not repeated; the conversation already holds it.
    """
    template = template or PromptTemplate.load()
    try:
        parse_labels(step1_answer)
    except SemchainError as exc:
        raise Step1ParseError(f"step1 answer is not a semantic_triples object: {exc}") from exc
    return _substitute(template.chain2, {"STEP1": step1_answer})


def build_combined_prompt(new_table: SerializedTable, template: PromptTemplate | None = None) -> str:
    """Single prompt asking for both steps at once (chaining disabled)."""
    return _table_prompt(new_table, "combined", template)


# --- internals ---------------------------------------------------------------

def _table_prompt(new_table: SerializedTable, part: str, template: PromptTemplate | None) -> str:
    """Render the template part whose one placeholder is the serialized table."""
    template = template or PromptTemplate.load()
    if not new_table.text.strip():
        raise FormatError("serialized table is empty")
    return _substitute(getattr(template, part), {"TABLE": new_table.text})


def _read_template(name: str, directory: str | Path | None) -> str:
    folder = resources.files(__package__) / "templates" if directory is None else Path(directory)
    try:
        raw = (folder / name).read_bytes()
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise TemplateError(f"template {name!r} not found: {exc}") from None
    return decode_text(raw, f"template {name!r}")


def _check_placeholders(text: str, required: set[str], part: str) -> None:
    found = set(PLACEHOLDER_RE.findall(text))
    missing = required - found
    unknown = found - required
    if missing:
        raise TemplateError(f"{part} template misses placeholder(s) {sorted(missing)}")
    if unknown:
        raise TemplateError(f"{part} template has unknown placeholder(s) {sorted(unknown)}")


def _substitute(template: str, values: dict[str, str]) -> str:
    # One pass over the template only, so substituted payloads are never rescanned.
    # PromptTemplate holds exactly each part's placeholders, and every caller fills them all.
    return PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], template)
