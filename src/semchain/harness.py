"""Experiment runner: reproducible splits, the run matrix, and results persistence."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import evaluation as ev
from . import ontology as onto_mod
from . import prompting
from . import semantic_model as sm
from .chain import ChainConfig, ChainResult, run_chain
from .errors import SemchainError, ShotTooLargeError
from .ingest import DEFAULT_RECORD_CAP, SourceFormat, Table, parse_source, serialize_table
from .llm import CorruptionSpec, HttpProvider, MockProvider, MockScript, Provider, ProviderConfig

# Fisher-Yates shuffle driven by a 64-bit LCG (Knuth MMIX constants) so the
# split is identical across platforms and language runtimes.
_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
PRNG_DESCRIPTION = (
    f"fisher-yates over lcg64(mult={_LCG_MULTIPLIER}, inc={_LCG_INCREMENT}, top bits >> 33)"
)

SHOT_SETTINGS = ("one", "quarter", "half")
SOURCE_SUFFIXES = (".csv", ".xml", ".json")


@dataclass(frozen=True)
class Split:
    """Known (in-context) sources and held-out test sources."""

    known: tuple[str, ...]
    test: tuple[str, ...]

    def to_json(self, source_ids, random_state, test_size, shot) -> str:
        doc = {
            "source_ids": list(source_ids),
            "random_state": random_state,
            "test_size": test_size,
            "shot": str(shot),
            "prng": PRNG_DESCRIPTION,
            "known": list(self.known),
            "test": list(self.test),
        }
        return json.dumps(doc, indent=2)


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs; loadable from a JSON file."""

    sources_dir: Path
    ontology_path: Path
    gold_dir: Path
    out_dir: Path
    random_state: int = 2023
    test_size: float = 0.5
    shot: str | int = "half"
    record_cap: int = DEFAULT_RECORD_CAP
    provider: Mapping = field(default_factory=lambda: {"kind": "mock"})
    chain: ChainConfig = field(default_factory=ChainConfig)
    max_workers: int = 4
    templates_dir: Path | None = None
    rules_dir: Path | None = None
    aggregate_mode: str = "macro"

    def __post_init__(self) -> None:
        for name in ("sources_dir", "ontology_path", "gold_dir", "out_dir"):
            setattr(self, name, Path(getattr(self, name)))
        if self.templates_dir is not None:
            self.templates_dir = Path(self.templates_dir)
        if self.rules_dir is not None:
            self.rules_dir = Path(self.rules_dir)
        if not 0 < self.test_size < 1:
            raise ValueError(f"test_size must be in (0, 1), got {self.test_size}")
        if self.record_cap < 1:
            raise ValueError("record_cap must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.aggregate_mode not in ("macro", "micro"):
            raise ValueError(f"aggregate_mode must be macro or micro, got {self.aggregate_mode!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        known_fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known_fields
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        required = {"sources_dir", "ontology_path", "gold_dir", "out_dir"}
        missing = required - set(raw)
        if missing:
            raise ValueError(f"config misses required key(s): {sorted(missing)}")
        if "chain" in raw:
            raw = dict(raw)
            raw["chain"] = ChainConfig(**raw["chain"])
        base = Path(path).parent
        config = cls(**raw)
        # Relative paths in the file resolve against the file's directory.
        for name in ("sources_dir", "ontology_path", "gold_dir", "out_dir", "templates_dir", "rules_dir"):
            value = getattr(config, name)
            if value is not None and not value.is_absolute():
                setattr(config, name, base / value)
        return config


def split_dataset(
    source_ids: Sequence[str],
    random_state: int,
    test_size: float,
    shot: str | int,
) -> Split:
    """Deterministic split: seeded shuffle, the tail becomes the test set,
    and the shot setting picks how many remaining sources are known."""
    ids = list(source_ids)
    if not ids:
        raise ValueError("source_ids is empty")
    if len(set(ids)) != len(ids):
        raise ValueError("source_ids contains duplicates")
    if not 0 < test_size < 1:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    n = len(ids)
    n_test = round(test_size * n)
    if n_test < 1 or n_test >= n:
        raise ValueError(f"test_size {test_size} leaves no usable split for {n} sources")
    shuffled = _lcg_shuffle(ids, random_state)
    test = tuple(shuffled[n - n_test:])
    remainder = shuffled[: n - n_test]
    k = shot_count(shot, n)
    if k > len(remainder):
        raise ShotTooLargeError(
            f"shot {shot!r} wants {k} known sources but only {len(remainder)} are outside the test set"
        )
    return Split(known=tuple(remainder[:k]), test=test)


def shot_count(shot: str | int, n_sources: int) -> int:
    """one -> 1, quarter -> ceil(N/4), half -> floor(N/2), or an explicit count."""
    if isinstance(shot, bool):
        raise ValueError("shot must be a setting name or a positive integer")
    if isinstance(shot, int):
        if shot < 1:
            raise ValueError(f"explicit shot count must be >= 1, got {shot}")
        return shot
    if shot == "one":
        return 1
    if shot == "quarter":
        return math.ceil(n_sources / 4)
    if shot == "half":
        return n_sources // 2
    raise ValueError(f"shot must be one of {SHOT_SETTINGS} or an integer, got {shot!r}")


def _lcg_shuffle(items: Sequence[str], seed: int) -> list[str]:
    state = seed & _LCG_MASK
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        state = (state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        j = (state >> 33) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# --- dataset loading -----------------------------------------------------------

def read_table(path: str | Path, source_id: str | None = None) -> Table:
    path = Path(path)
    fmt = SourceFormat.from_suffix(path.suffix)
    return parse_source(path.read_bytes(), fmt, source_id or path.stem)


def load_tables(sources_dir: str | Path) -> dict[str, Table]:
    sources_dir = Path(sources_dir)
    tables: dict[str, Table] = {}
    for path in sorted(sources_dir.iterdir()):
        if path.suffix.lower() not in SOURCE_SUFFIXES or not path.is_file():
            continue
        if path.stem in tables:
            raise ValueError(f"duplicate source id {path.stem!r} in {sources_dir}")
        tables[path.stem] = read_table(path)
    if not tables:
        raise ValueError(f"no source files found in {sources_dir}")
    return tables


def load_gold_models(gold_dir: str | Path) -> dict[str, sm.SemanticModel]:
    gold_dir = Path(gold_dir)
    golds = {}
    for path in sorted(gold_dir.glob("*.json")):
        golds[path.stem] = sm.parse_model(path.read_text(encoding="utf-8"))
    if not golds:
        raise ValueError(f"no gold models found in {gold_dir}")
    return golds


def make_provider(spec: Mapping, golds: Mapping[str, sm.SemanticModel]) -> Provider:
    """Build a provider from its config mapping; mock scripts replay gold answers."""
    kind = spec.get("kind", "mock")
    if kind == "mock":
        corruption = None
        if "corruption" in spec and spec["corruption"]:
            raw = dict(spec["corruption"])
            if "stages" in raw:
                raw["stages"] = frozenset(raw["stages"])
            corruption = CorruptionSpec(**raw)
        return MockProvider(MockScript.from_gold(golds, corruption))
    if kind == "http":
        params = {k: v for k, v in spec.items() if k != "kind"}
        return HttpProvider(ProviderConfig(**params))
    raise ValueError(f"unknown provider kind {kind!r}")


def provider_label(spec: Mapping) -> str:
    return spec.get("model_name", spec.get("kind", "mock"))


# --- experiment runner -----------------------------------------------------------

def run_experiment(config: ExperimentConfig, provider: Provider | None = None) -> ev.EvalReport:
    """Run the full pipeline over the test split and persist every artifact.

    Per-source failures become zero-score rows instead of aborting the run;
    only configuration problems raise.
    """
    tables = load_tables(config.sources_dir)
    golds = load_gold_models(config.gold_dir)
    missing = sorted(set(tables) - set(golds))
    if missing:
        raise ValueError(f"sources without gold models: {missing}")
    ontology = onto_mod.parse_ontology(config.ontology_path.read_text(encoding="utf-8"))
    templates = prompting.PromptTemplate.load(config.templates_dir)
    rules = prompting.load_rules(config.rules_dir)
    if provider is None:
        provider = make_provider(config.provider, golds)

    source_ids = sorted(tables)
    split = split_dataset(source_ids, config.random_state, config.test_size, config.shot)
    onto_json = onto_mod.serialize_ontology(ontology)
    examples = [
        (
            serialize_table(tables[sid], config.record_cap),
            sm.serialize_labels(golds[sid]),
            sm.serialize_model(golds[sid]),
        )
        for sid in split.known
    ]
    system_prompt = prompting.build_system_prompt(onto_json, examples, rules, templates)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "split.json").write_text(
        split.to_json(source_ids, config.random_state, config.test_size, config.shot) + "\n",
        encoding="utf-8",
    )
    (out / "system_prompt.txt").write_text(system_prompt, encoding="utf-8")
    _write_run_meta(out, config, templates, rules, split)

    rows: list[ev.ScoreRow] = []
    results: dict[str, ChainResult | None] = {}
    errors: dict[str, str] = {}

    def work(sid: str):
        return sid, _run_one_source(
            sid, tables[sid], golds[sid], system_prompt, config, provider, templates, ontology
        )

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.max_workers) as pool:
        for sid, (source_rows, result, error) in pool.map(work, split.test):
            rows.extend(source_rows)
            results[sid] = result
            if error:
                errors[sid] = error

    for sid in split.test:
        _write_source_artifacts(out / "sources" / sid, sid, results.get(sid), errors.get(sid))

    report = ev.build_report(rows, config.aggregate_mode)
    _write_report_csv(report, out / "report.csv")
    _write_aggregate(report, config, out / "aggregate.json")
    _write_depth_buckets(report, out / "depth_buckets.csv")
    return report


def run_ablation(config: ExperimentConfig, provider: Provider | None = None) -> list[dict]:
    """Three configurations, same split: single prompt, chained, chained+pruned."""
    variants = [
        ("single-prompt", ChainConfig(chaining_enabled=False, pruning_enabled=False)),
        ("chaining", ChainConfig(chaining_enabled=True, pruning_enabled=False)),
        ("chaining+prune", ChainConfig(chaining_enabled=True, pruning_enabled=True)),
    ]
    out = Path(config.out_dir)
    rows = []
    for name, chain_config in variants:
        sub = dataclasses.replace(
            config, chain=chain_config, out_dir=out / "ablation" / name
        )
        report = run_experiment(sub, provider)
        precision, recall = report.aggregates.get(ev.MODELING, (0.0, 0.0))
        rows.append({"configuration": name, "precision": precision, "recall": recall})
    out.mkdir(parents=True, exist_ok=True)
    with (out / "ablation.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["configuration", "precision", "recall"])
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    "configuration": row["configuration"],
                    "precision": f"{row['precision']:.6f}",
                    "recall": f"{row['recall']:.6f}",
                }
            )
    return rows


def _run_one_source(
    sid: str,
    table: Table,
    gold: sm.SemanticModel,
    system_prompt: str,
    config: ExperimentConfig,
    provider: Provider,
    templates: prompting.PromptTemplate,
    ontology: onto_mod.Ontology,
):
    started = time.perf_counter()
    # A gold model whose depth is undefined (cyclic) fails only this source.
    gold_depth = 0
    try:
        gold_depth = sm.depth(gold)
        result = run_chain(
            system_prompt,
            table,
            config.chain,
            provider,
            templates=templates,
            ontology=ontology,
            record_cap=config.record_cap,
        )
    except SemchainError as exc:
        wall_ms = (time.perf_counter() - started) * 1000.0
        error = f"{type(exc).__name__}: {exc}"
        rows = [
            ev.ScoreRow(
                source_id=sid,
                step=step,
                precision=0.0,
                recall=0.0,
                gold_size=len(gold.semantic_triples) if step == ev.LABELING else gold.size(),
                predicted_size=0,
                intersection=0,
                depth=gold_depth,
                latency_ms=wall_ms,
                tokens=0,
                error=error,
            )
            for step in ev.STEPS
        ]
        return rows, None, error
    wall_ms = (time.perf_counter() - started) * 1000.0
    tokens = result.total_tokens()
    rows = []
    for step, predicted in ((ev.LABELING, result.labels), (ev.MODELING, result.final_model)):
        precision, recall, intersection, gold_size, predicted_size = ev.score_detail(
            gold, predicted, step
        )
        rows.append(
            ev.ScoreRow(
                source_id=sid,
                step=step,
                precision=precision,
                recall=recall,
                gold_size=gold_size,
                predicted_size=predicted_size,
                intersection=intersection,
                depth=gold_depth,
                latency_ms=wall_ms,
                tokens=tokens,
                error="",
            )
        )
    return rows, result, None


# --- persistence -----------------------------------------------------------------

def _write_run_meta(out: Path, config: ExperimentConfig, templates, rules, split: Split) -> None:
    from . import __version__

    meta = {
        "package_version": __version__,
        "random_state": config.random_state,
        "test_size": config.test_size,
        "shot": str(config.shot),
        "shot_rounding": "quarter = ceil(N/4), half = floor(N/2), N = all sources",
        "record_cap": config.record_cap,
        "prng": PRNG_DESCRIPTION,
        "provider": {k: v for k, v in dict(config.provider).items() if "key" not in k},
        "chain": dataclasses.asdict(config.chain),
        "aggregate_mode": config.aggregate_mode,
        "known_sources": list(split.known),
        "example_order": "system-prompt examples follow split order",
        "depth_definition": "longest directed path, in edges, ending at an attribute",
        "instance_matching": "exact triple match under the best per-class instance-index bijection",
        "template_sha256": {
            part: hashlib.sha256(getattr(templates, part).encode("utf-8")).hexdigest()
            for part in ("system", "example", "chain1", "chain2", "combined")
        },
        "rules_sha256": [hashlib.sha256(r.encode("utf-8")).hexdigest() for r in rules],
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _write_source_artifacts(directory: Path, sid: str, result: ChainResult | None, error: str | None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    if error:
        (directory / "error.txt").write_text(error + "\n", encoding="utf-8")
    if result is None:
        return
    (directory / "labels.json").write_text(sm.serialize_labels(result.labels) + "\n", encoding="utf-8")
    (directory / "raw_model.json").write_text(sm.serialize_model(result.raw_model) + "\n", encoding="utf-8")
    (directory / "final_model.json").write_text(sm.serialize_model(result.final_model) + "\n", encoding="utf-8")
    lines = []
    for stage, exchange in result.transcripts.items():
        lines.append(
            json.dumps(
                {
                    "source_id": sid,
                    "stage": stage,
                    "system_sha256": hashlib.sha256(exchange.system.encode("utf-8")).hexdigest(),
                    "turns": [{"role": t.role, "content": t.content} for t in exchange.turns],
                    "usage": {
                        "input_tokens": exchange.usage.input_tokens,
                        "output_tokens": exchange.usage.output_tokens,
                    },
                    "latency_ms": exchange.latency_ms,
                },
                ensure_ascii=False,
            )
        )
    (directory / "transcript.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if result.notes:
        (directory / "notes.txt").write_text("\n".join(result.notes) + "\n", encoding="utf-8")


def _write_report_csv(report: ev.EvalReport, path: Path) -> None:
    fields = [
        "source_id", "step", "precision", "recall", "gold_size",
        "predicted_size", "intersection", "depth", "latency_ms", "tokens", "error",
    ]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in report.rows:
            record = dataclasses.asdict(row)
            record["precision"] = f"{row.precision:.6f}"
            record["recall"] = f"{row.recall:.6f}"
            record["latency_ms"] = f"{row.latency_ms:.3f}"
            writer.writerow(record)


def _dataset_label(sources_dir: Path) -> str:
    # Dataset layouts are <dataset>/sources; fall back to the dir name itself.
    if sources_dir.name == "sources" and sources_dir.parent.name:
        return sources_dir.parent.name
    return sources_dir.name


def _write_aggregate(report: ev.EvalReport, config: ExperimentConfig, path: Path) -> None:
    doc = {
        "dataset": _dataset_label(config.sources_dir),
        "model": provider_label(config.provider),
        "shot": str(config.shot),
        "random_state": config.random_state,
        "mode": report.mode,
        "steps": {
            step: {"precision": precision, "recall": recall}
            for step, (precision, recall) in report.aggregates.items()
        },
        "failed_sources": sorted({row.source_id for row in report.rows if row.error}),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_depth_buckets(report: ev.EvalReport, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "depth", "sources", "mean_precision", "mean_recall"])
        for step in ev.STEPS:
            step_rows = [r for r in report.rows if r.step == step]
            if not step_rows:
                continue
            buckets = ev.bucket_by_depth(step_rows)
            counts: dict[int, int] = {}
            for row in step_rows:
                counts[row.depth] = counts.get(row.depth, 0) + 1
            for depth_value, (precision, recall) in buckets.items():
                writer.writerow(
                    [step, depth_value, counts.get(depth_value, 0), f"{precision:.6f}", f"{recall:.6f}"]
                )
