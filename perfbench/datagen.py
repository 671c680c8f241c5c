"""Seeded, offline dataset generator shaped like ``tests/fixtures/toy``.

``write_dataset(root, shape, seed)`` writes ``sources/``, ``gold/`` and
``ontology.json`` under ``root``. The same shape and seed give byte-identical
files. Only the cell values, the data properties and the extra ontology triples
depend on the seed; sizes come from the shape alone,
so token and call counts barely move between seeds.

Gold models are acyclic (links only run from one class of the model to the
next) and every semantic triple annotates a header of its own source, so they
pass ``lint_gold`` rule L1.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

FORMATS = ("csv", "json", "xml")
DATA_PROPERTIES = 6
EMPTY_SHARE = 0.05
EMPTY_CUTOFF = round(256 * EMPTY_SHARE)


@dataclass(frozen=True)
class Shape:
    """The knobs of one generated dataset."""

    sources: int
    attributes: int
    rows: int
    nesting: int = 1
    instances_per_class: tuple[int, ...] = (1, 1, 1)
    ontology_classes: int = 12
    ontology_triples: int = 20
    # Source index -> instances per class, for sources that differ from the rest.
    instance_overrides: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sources < 2 or self.rows < 1 or self.nesting < 0:
            raise ValueError("a dataset needs >= 2 sources, >= 1 row and nesting >= 0")
        for index in range(self.sources):
            spec = self.instances_of(index)
            if not spec or min(spec) < 1:
                raise ValueError(f"source {index}: every class needs >= 1 instance")
            if sum(spec) > self.attributes:
                raise ValueError(f"source {index}: more instances than attributes to annotate")
            if len(spec) > self.ontology_classes:
                raise ValueError(f"source {index}: more classes than the ontology declares")
        if self.ontology_triples < self.ontology_classes - 1:
            raise ValueError("ontology_triples must cover the chain of class links")

    def instances_of(self, index: int) -> tuple[int, ...]:
        return tuple(self.instance_overrides.get(index, self.instances_per_class))


def source_ids(shape: Shape) -> list[str]:
    return [f"s{i:04d}" for i in range(shape.sources)]


def class_name(i: int) -> str:
    return f"bench:C{_letters(i)}"


def link_property(i: int) -> str:
    """Object property linking ontology class i to class i + 1."""
    return f"bench:op{_letters(i)}"


def write_dataset(root: Path, shape: Shape, seed: int) -> None:
    """Write ``sources/``, ``gold/`` and ``ontology.json`` under ``root``."""
    root = Path(root)
    (root / "sources").mkdir(parents=True, exist_ok=True)
    (root / "gold").mkdir(parents=True, exist_ok=True)
    _write_text(root / "ontology.json", json.dumps(_ontology(shape, seeded_rng(seed, "ontology")), indent=2))
    for index, sid in enumerate(source_ids(shape)):
        rng = seeded_rng(seed, sid)
        fmt = FORMATS[index % len(FORMATS)]
        attributes = _attribute_paths(shape.attributes, 0 if fmt == "csv" else shape.nesting)
        name = f"{sid}.{fmt}"
        _write_source(root / "sources" / name, fmt, attributes, shape.rows, rng, index)
        names = [".".join(path) for path in attributes]
        gold = _gold_model(names, shape.instances_of(index), index, shape, rng)
        _write_text(root / "gold" / f"{sid}.json", json.dumps(gold, indent=2))


def _gold_model(
    attributes: list[str], spec: tuple[int, ...], index: int, shape: Shape, rng: random.Random
) -> dict[str, list[list[str]]]:
    """Model JSON: one class per entry of ``spec``, taken from a window of the
    ontology's class chain, each instance annotating at least one attribute."""
    offset = index % (shape.ontology_classes - len(spec) + 1)
    instances = [(offset + k, i) for k, count in enumerate(spec) for i in range(1, count + 1)]
    data_properties = [f"bench:dp{_letters(i)}" for i in range(DATA_PROPERTIES)]
    semantic = []
    for j, attribute in enumerate(attributes):
        cls, i = instances[j % len(instances)]
        semantic.append([f"{class_name(cls)}{i}", rng.choice(data_properties), attribute])
    links = []
    for k in range(1, len(spec)):
        for i in range(1, spec[k] + 1):
            parent = (i - 1) % spec[k - 1] + 1
            subject = f"{class_name(offset + k - 1)}{parent}"
            links.append([subject, link_property(offset + k - 1), f"{class_name(offset + k)}{i}"])
    return {"semantic_triples": sorted(semantic), "internal_link_triples": sorted(links)}


# --- ontology -------------------------------------------------------------------

def _ontology(shape: Shape, rng: random.Random) -> dict:
    classes = [class_name(i) for i in range(shape.ontology_classes)]
    # A fixed hierarchy keeps the prompt's token count independent of the seed.
    parent = {cls: classes[i // 2] if i % 3 == 2 else None for i, cls in enumerate(classes)}
    nodes = []
    for cls in classes:
        chain = [cls]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        nodes.append(" -> ".join(chain))
    object_properties = [link_property(i) for i in range(shape.ontology_classes - 1)]
    properties = [f"bench:dp{_letters(i)}" for i in range(DATA_PROPERTIES)] + object_properties
    triples = {(classes[i], object_properties[i], classes[i + 1]) for i in range(len(object_properties))}
    while len(triples) < shape.ontology_triples:
        a, b = rng.sample(classes, 2)
        triples.add((a, rng.choice(object_properties), b))
    return {
        "Nodes": nodes,
        "Properties": properties,
        "Potential triples": [list(t) for t in sorted(triples)],
    }


# --- sources ----------------------------------------------------------------------

def _attribute_paths(count: int, nesting: int) -> list[tuple[str, ...]]:
    """Leaf paths; nested formats put every leaf ``nesting`` groups deep."""
    return sorted(
        tuple(f"g{level}{_letters(j % 2)}" for level in range(nesting)) + (f"a{_letters(j)}",)
        for j in range(count)
    )


def _row(rng: random.Random, width: int) -> list[str | None]:
    """One row of cell values; about EMPTY_SHARE of them are missing (None)."""
    digits = f"{rng.getrandbits(32 * width):0{8 * width}x}"
    cells = [digits[8 * j:8 * j + 8] for j in range(width)]
    return [None if int(c[:2], 16) < EMPTY_CUTOFF else "v" + c for c in cells]


def _write_source(path: Path, fmt: str, attributes, rows: int, rng: random.Random, index: int) -> None:
    head, row_template, tail = _templates(fmt, attributes, index)
    render = _RENDER[fmt]
    with path.open("w", newline="\n", encoding="utf-8") as handle:
        handle.write(head)
        for r in range(rows):
            cells = [render(cell) for cell in _row(rng, len(attributes))]
            handle.write(("" if r == 0 or fmt != "json" else ",\n") + row_template.format(*cells))
        handle.write(tail)


def _templates(fmt: str, attributes, index: int) -> tuple[str, str, str]:
    """File head, one-row format string with a ``{}`` per attribute, and file tail."""
    if fmt == "csv":
        return ",".join(p[-1] for p in attributes) + "\n", ",".join("{}" for _ in attributes) + "\n", ""
    tree: dict = {}
    for path_ in attributes:
        node = tree
        for group in path_[:-1]:
            node = node.setdefault(group, {})
        node[path_[-1]] = None
    if fmt == "xml":
        return "<rows>\n", "<row>" + _xml_fields(tree) + "</row>\n", "</rows>\n"
    # Alternate the two JSON layouts the ingest layer accepts.
    wrapped = index % 2 == 1
    return ('{"records": [\n' if wrapped else "[\n"), _json_fields(tree), ("\n]}\n" if wrapped else "\n]\n")


def _xml_fields(tree: dict) -> str:
    return "".join(
        f"<{tag}>{'{}' if child is None else _xml_fields(child)}</{tag}>" for tag, child in tree.items()
    )


def _json_fields(tree: dict) -> str:
    body = ", ".join(
        f'"{key}": ' + ("{}" if child is None else _json_fields(child)) for key, child in tree.items()
    )
    return "{{" + body + "}}"


_RENDER = {
    "csv": lambda cell: cell or "",
    "xml": lambda cell: cell or "",
    "json": lambda cell: f'"{cell}"' if cell else "null",
}


# --- helpers ------------------------------------------------------------------------

def seeded_rng(seed: int, label: str) -> random.Random:
    """A generator that depends only on the seed and the label."""
    digest = hashlib.sha256(f"{seed}|{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _letters(i: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA: names that never end in a digit."""
    out = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def _write_text(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
