"""Experiment runner: reproducible splits, the run matrix, and results persistence."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from . import evaluation as ev
from . import ontology as onto_mod
from . import prompting
from . import semantic_model as sm
from .chain import ChainConfig, ChainResult, run_chain
from .errors import SemchainError, ShotTooLargeError, decode_json, decode_text, encode_text, require_types
from .ingest import DEFAULT_RECORD_CAP, SourceFormat, Table, parse_source, serialize_table, source_bytes
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
SOURCE_SUFFIXES = tuple(f".{fmt.value}" for fmt in SourceFormat)
GOLD_SUFFIXES = (".json",)
# Every file write_source_artifacts writes, and the only files it may hard-link;
# a rerun deletes no other file.
_SOURCE_FILES = (
    "labels.json", "raw_model.json", "final_model.json", "transcript.jsonl", "notes.txt", "error.txt",
)


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


_PATH_FIELDS = ("sources_dir", "ontology_path", "gold_dir", "out_dir", "templates_dir", "rules_dir")


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
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, Path(value))
            elif name not in ("templates_dir", "rules_dir"):
                raise TypeError(f"{name} must be a path, got None")
        if not isinstance(self.chain, ChainConfig):
            self.chain = _from_mapping(ChainConfig, self.chain, "config chain")
        require_types(self, ("random_state", "record_cap", "max_workers"), int)
        require_types(self, ("test_size",), (int, float))
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
        path = Path(path)
        raw = decode_json(decode_text(path.read_bytes(), path.name), "config")
        config = _from_mapping(cls, raw, "config")
        # Relative paths in the file resolve against the file's directory.
        for name in _PATH_FIELDS:
            value = getattr(config, name)
            if value is not None and not value.is_absolute():
                setattr(config, name, path.parent / value)
        return config


def _from_mapping(cls, raw, what: str):
    """Build `cls(**raw)`; a non-object or a bad key raises ValueError naming `what`."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


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

def read_table(path: str | Path, record_cap: int | None = None) -> Table:
    """Parse one source file, its stem the source id, keeping its first
    `record_cap` records (all when None). The file is read as one text stream
    and closed on return."""
    path = Path(path)
    with open(path, "rb") as handle:
        return parse_source(source_bytes(handle), SourceFormat.from_suffix(path.suffix), path.stem, record_cap)


def load_tables(
    sources_dir: str | Path, record_cap: int | None = None
) -> dict[str, Table | SemchainError]:
    """Parse every source file in a directory, keyed by file stem; see `read_table`.

    A source that fails to parse maps to its error instead of raising.
    """
    paths = _listed_files(sources_dir, SOURCE_SUFFIXES, "source files")
    return {sid: _or_error(read_table, path, record_cap) for sid, path in paths.items()}


def _or_error(read, *args, errors=SemchainError):
    """`read(*args)`, or the error of type `errors` it raised."""
    try:
        return read(*args)
    except errors as exc:
        return exc


def _listed_files(directory: str | Path, suffixes: tuple[str, ...], what: str) -> dict[str, Path]:
    """Files in `directory` whose suffix, in any case, is one of `suffixes`,
    by stem (the source id). Two files with one stem are an error, and so is
    finding none, which names `what`; a missing directory holds none."""
    paths: dict[str, Path] = {}
    try:
        with os.scandir(directory) as entries:
            for entry in sorted(entries, key=attrgetter("name")):
                stem, _, suffix = entry.name.rpartition(".")
                if not (stem and "." + suffix.lower() in suffixes and entry.is_file()):
                    continue
                if stem in paths:
                    raise ValueError(f"duplicate source id {stem!r} in {directory}")
                paths[stem] = Path(entry.path)
    except (FileNotFoundError, NotADirectoryError):
        pass
    if not paths:
        raise ValueError(f"no {what} found in {directory}")
    return paths


def read_model_file(path: str | Path, *, labels_ok: bool = False) -> sm.SemanticModel:
    """Read one model file; its errors name the file. With `labels_ok`, a
    document without links is read as a labels-only one."""
    path = Path(path)
    try:
        doc = decode_json(decode_text(path.read_bytes(), "model"), "model")
        links = not labels_ok or not isinstance(doc, dict) or sm.INTERNAL_LINK_TRIPLES_KEY in doc
        return sm.read_model(doc, links=links)
    except SemchainError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def read_ontology_file(path: str | Path) -> onto_mod.Ontology:
    """Read one ontology file; its errors name the file."""
    path = Path(path)
    try:
        return onto_mod.parse_ontology(decode_text(path.read_bytes(), "ontology"))
    except SemchainError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def load_gold_models(gold_dir: str | Path) -> dict[str, sm.SemanticModel]:
    return {sid: read_model_file(path) for sid, path in _listed_files(gold_dir, GOLD_SUFFIXES, "gold models").items()}


def make_provider(spec: Mapping, golds: Mapping[str, sm.SemanticModel]) -> Provider:
    """Build a provider from its config mapping; mock scripts replay gold answers."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"provider must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind", "mock")
    if kind == "mock":
        unknown = sorted(set(spec) - {"kind", "corruption"})
        if unknown:
            raise ValueError(f"provider: unknown mock provider key(s) {unknown}")
        raw = spec.get("corruption")
        corruption = None if raw is None else _from_mapping(CorruptionSpec, raw, "provider corruption")
        return MockProvider(MockScript.from_gold(golds, corruption))
    if kind == "http":
        params = {k: v for k, v in spec.items() if k != "kind"}
        return HttpProvider(_from_mapping(ProviderConfig, params, "provider"))
    raise ValueError(f"unknown provider kind {kind!r}")


# --- experiment runner -----------------------------------------------------------

class _GoldFiles(Mapping):
    """Gold models by source id, each read from its file on first use and
    kept; a file that fails to read raises and is not kept. Not thread-safe:
    a run reads golds in its calling thread only."""

    def __init__(self, paths: Mapping[str, Path]) -> None:
        self._paths = paths
        self._models: dict[str, sm.SemanticModel] = {}

    def __getitem__(self, sid: str) -> sm.SemanticModel:
        if sid not in self._models:
            self._models[sid] = read_model_file(self._paths[sid])
        return self._models[sid]

    def __contains__(self, sid: object) -> bool:
        return sid in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


@dataclass(frozen=True)
class Experiment:
    """Everything an experiment reads before its first provider call.

    `source_ids` lists every source file. `tables` holds the known sources'
    tables and `test_files` the test sources' paths, in split order; a run
    reads each test source as it hands that source to its pool. `golds`
    holds the split's known and test sources only, each read from its file
    the first time it is asked for: set-up reads the known sources' golds,
    and a run reads each test source's gold with its table.
    """

    tables: Mapping[str, Table]
    test_files: Mapping[str, Path]
    golds: Mapping[str, sm.SemanticModel]
    ontology: onto_mod.Ontology
    split: Split
    templates: prompting.PromptTemplate
    rules: tuple[str, str]
    system_prompt: str
    source_ids: tuple[str, ...]


def prepare_experiment(config: ExperimentConfig) -> Experiment:
    """List the sources and golds, split the sources, read the known sources,
    their golds and the ontology, and assemble the system prompt from the
    known sources.

    Every source needs a gold file, but files outside the split are never
    read, and test sources and their golds are left to the run. A known
    source, or its gold, that fails to parse or cannot be read raises.
    """
    source_paths = _listed_files(config.sources_dir, SOURCE_SUFFIXES, "source files")
    gold_paths = _listed_files(config.gold_dir, GOLD_SUFFIXES, "gold models")
    missing = sorted(set(source_paths) - set(gold_paths))
    if missing:
        raise ValueError(f"sources without gold models: {missing}")
    ontology = read_ontology_file(config.ontology_path)
    templates = prompting.PromptTemplate.load(config.templates_dir)
    rules = prompting.load_rules(config.rules_dir)
    source_ids = tuple(sorted(source_paths))
    split = split_dataset(source_ids, config.random_state, config.test_size, config.shot)
    golds = _GoldFiles({sid: gold_paths[sid] for sid in split.known + split.test})
    tables = {sid: read_table(source_paths[sid], record_cap=config.record_cap) for sid in split.known}
    examples = [
        (
            serialize_table(tables[sid], config.record_cap),
            sm.serialize_labels(golds[sid]),
            sm.serialize_model(golds[sid]),
        )
        for sid in split.known
    ]
    onto_json = onto_mod.serialize_ontology(ontology)
    system_prompt = prompting.build_system_prompt(onto_json, examples, rules, templates)
    test_files = {sid: source_paths[sid] for sid in split.test}
    return Experiment(tables, test_files, golds, ontology, split, templates, rules, system_prompt, source_ids)


def run_experiment(config: ExperimentConfig, provider: Provider | None = None) -> ev.EvalReport:
    """Run the full pipeline over the test split and persist every artifact.

    Per-source failures, a test source or its gold that fails to parse or
    cannot be read included, become zero-score rows instead of aborting the
    run; only configuration problems and known sources or golds that fail to
    parse or cannot be read raise. The mock provider is built from every
    split gold, so with it a test source's bad gold raises too, before any
    request. Each test source and its gold are read, in the calling thread,
    just before the source is handed to the pool, so with a passed provider
    the first request waits only for the known sources, their golds and the
    first test source. Each source's artifacts are written once that source
    and every source before it in the split have finished.
    """
    return _run_arms([config], provider)[0]


def run_ablation(config: ExperimentConfig, provider: Provider | None = None) -> list[dict]:
    """Three configurations, same split: single prompt, chained, chained+pruned.

    The two chained configurations send the same requests, so they share one
    run: each test source is modelled once and scored both unpruned and
    pruned, failures included. Each returned row also says whether its
    configuration had failed sources. An HTTP provider is built once, so one
    rate limiter paces every arm; a mock is built once per pass (single
    prompt, then the chained pair) from that pass's golds. Each pass reads
    each split gold at most once.
    """
    if provider is None and isinstance(config.provider, Mapping) and config.provider.get("kind") == "http":
        provider = make_provider(config.provider, {})
    variants = [("single-prompt", False, False), ("chaining", True, False), ("chaining+prune", True, True)]
    out = Path(config.out_dir)
    configs = []
    for name, chaining, pruning in variants:
        chain = dataclasses.replace(config.chain, chaining_enabled=chaining, pruning_enabled=pruning)
        configs.append(dataclasses.replace(config, chain=chain, out_dir=out / "ablation" / name))
    reports = [run_experiment(configs[0], provider), *_run_arms(configs[1:], provider)]
    rows, lines = [], []
    for (name, _, _), report in zip(variants, reports):
        precision, recall = report.aggregates.get(ev.MODELING, (0.0, 0.0))
        lines.append([name, f"{precision:.6f}", f"{recall:.6f}"])
        rows.append(
            {
                "configuration": name,
                "precision": precision,
                "recall": recall,
                "has_failures": report.has_failures(),
            }
        )
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ablation.csv", ["configuration", "precision", "recall"], lines)
    return rows


def _run_arms(arms: Sequence[ExperimentConfig], provider: Provider | None) -> list[ev.EvalReport]:
    """`run_experiment` for configurations that differ only in `out_dir` and
    `chain.pruning_enabled`, from one set-up and one pool: each test source
    is modelled once, unpruned, and each configuration scores and writes it,
    pruned if that configuration prunes."""
    config = arms[0]
    experiment = prepare_experiment(config)
    split = experiment.split
    if provider is None:
        provider = make_provider(config.provider, experiment.golds)

    for index, arm in enumerate(arms):
        out = arm.out_dir
        out.mkdir(parents=True, exist_ok=True)
        # An earlier run into this directory may have modelled other sources.
        for name in _SOURCE_FILES:
            for path in out.glob(f"sources/*/{name}"):
                path.unlink()
        split_doc = split.to_json(experiment.source_ids, arm.random_state, arm.test_size, arm.shot)
        _write(out / "split.json", split_doc + "\n")
        _write(out / "system_prompt.txt", experiment.system_prompt)
        _write_run_meta(out, arm, experiment, replies_reused=index > 0)

    unpruned = dataclasses.replace(config, chain=dataclasses.replace(config.chain, pruning_enabled=False))
    prunes = [arm.chain.pruning_enabled for arm in arms]

    def work(sid: str, table: Table | Exception, gold: sm.SemanticModel | Exception):
        return _run_one_source(sid, table, gold, experiment, unpruned, provider, prunes)

    # Executor.map submits every job before it returns, pulling each source's
    # table and then its gold from these generators, so both are read in this
    # thread while the jobs before it run. A file that cannot be read or
    # parsed fails only its source.
    unreadable = (SemchainError, OSError)
    tables = (
        _or_error(read_table, path, config.record_cap, errors=unreadable) for path in experiment.test_files.values()
    )
    golds = (_or_error(experiment.golds.__getitem__, sid, errors=unreadable) for sid in split.test)
    rows: list[list[ev.ScoreRow]] = [[] for _ in arms]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.max_workers) as pool:
        for sid, scored in zip(split.test, pool.map(work, split.test, tables, golds)):
            # The arms' files of one source share one map, so a twin file links.
            written: dict[bytes, Path] = {}
            for arm, arm_rows, (source_rows, outcome) in zip(arms, rows, scored):
                arm_rows.extend(source_rows)
                write_source_artifacts(arm.out_dir / "sources" / sid, sid, outcome, written)

    reports = []
    for arm, arm_rows in zip(arms, rows):
        report = ev.build_report(arm_rows, arm.aggregate_mode)
        _write_report_csv(report, arm.out_dir / "report.csv")
        _write_aggregate(report, arm, arm.out_dir / "aggregate.json")
        _write_depth_buckets(report, arm.out_dir / "depth_buckets.csv")
        reports.append(report)
    return reports


_EMPTY_MODEL = sm.SemanticModel(frozenset(), frozenset())


def _run_one_source(
    sid: str,
    table: Table | Exception,
    gold: sm.SemanticModel | Exception,
    experiment: Experiment,
    config: ExperimentConfig,
    provider: Provider,
    prunes: Sequence[bool],
) -> list[tuple[list[ev.ScoreRow], ChainResult | str]]:
    """Model one test source once, from its table and gold or the errors
    reading them raised, and score it for each entry of `prunes`, pruned
    where the entry is true; a failure is scored as an empty prediction
    (against an empty gold if the gold is the failure) and returned as its
    error text in place of the result."""
    started = time.perf_counter()
    # A gold that cannot be read, or whose depth is undefined (cyclic), fails
    # only this source, and no request is sent for it.
    gold_depth = 0
    try:
        if isinstance(gold, Exception):
            raise gold
        gold_depth = sm.depth(gold)
        if isinstance(table, Exception):
            raise table
        result = run_chain(
            experiment.system_prompt,
            table,
            config.chain,
            provider,
            templates=experiment.templates,
            ontology=experiment.ontology,
            record_cap=config.record_cap,
        )
        outcomes = [result.pruned(table.attributes) if prune else result for prune in prunes]
        tokens, error = result.total_tokens(), ""
    except (SemchainError, OSError) as exc:
        if isinstance(exc, OSError) and exc is not table and exc is not gold:
            raise  # a provider's OSError is not this source's unreadable file
        error = f"{type(exc).__name__}: {exc}"
        outcomes, tokens = [error] * len(prunes), 0
        if isinstance(gold, Exception):
            gold = _EMPTY_MODEL
    wall_ms = (time.perf_counter() - started) * 1000.0
    scored = []
    # Pruning that removed nothing leaves an outcome equal to one scored already.
    rows_for: dict[tuple[sm.SemanticModel, sm.SemanticModel], list[ev.ScoreRow]] = {}
    for outcome in outcomes:
        predictions = (_EMPTY_MODEL, _EMPTY_MODEL) if error else (outcome.labels, outcome.final_model)
        if predictions in rows_for:
            scored.append((rows_for[predictions], outcome))
            continue
        rows = rows_for[predictions] = []
        for step, predicted in zip(ev.STEPS, predictions):
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
                    error=error,
                )
            )
        scored.append((rows, outcome))
    return scored


# --- persistence -----------------------------------------------------------------

def _write(path: Path, text: str) -> None:
    path.write_bytes(encode_text(text))


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, buffer.getvalue())


def _write_run_meta(out: Path, config: ExperimentConfig, experiment: Experiment, *, replies_reused: bool) -> None:
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
        "known_sources": list(experiment.split.known),
        "example_order": "system-prompt examples follow split order",
        "depth_definition": "longest directed path, in edges, ending at an attribute",
        "instance_matching": "exact triple match under the best per-class instance-index bijection",
        "template_sha256": {
            part: hashlib.sha256(encode_text(text)).hexdigest()
            for part, text in dataclasses.asdict(experiment.templates).items()
        },
        "rules_sha256": [hashlib.sha256(encode_text(r)).hexdigest() for r in experiment.rules],
    }
    if replies_reused:
        meta["replies"] = "reused from the chaining configuration, which sent the same requests"
    _write(out / "run_meta.json", json.dumps(meta, indent=2) + "\n")


def write_source_artifacts(
    directory: Path, sid: str, result: ChainResult | str, written: dict[bytes, Path] | None = None
) -> None:
    """Replace the files in `directory` with one source's labels, models,
    transcript and notes or, for a failed source's error text, `error.txt`.

    A file whose bytes equal a file written before it is a hard link to that
    file, so `final_model.json` may be `raw_model.json`. `written` maps each
    content to the first path written with it; `_run_arms` passes one map for
    a source's outcomes in every arm of a pass, so the chained arms' equal
    files are links too. Where the filesystem refuses a link, the file is
    written as a copy. Only these per-source files are ever linked, and a
    rerun deletes their names before it writes, so it never writes through a
    link; a reader who edits one in place should copy it first.
    """
    try:
        directory.mkdir(parents=True)
    except FileExistsError:
        for name in _SOURCE_FILES:
            (directory / name).unlink(missing_ok=True)
    if written is None:
        written = {}

    def put(name: str, text: str) -> None:
        data = encode_text(text)
        path = directory / name
        first = written.setdefault(data, path)
        if first is not path:
            try:
                os.link(first, path)
                return
            except FileExistsError:
                raise  # writing through an existing link would change its twin
            except OSError:
                pass  # no hard links on this filesystem
        path.write_bytes(data)

    if isinstance(result, str):
        put("error.txt", result + "\n")
        return
    put("labels.json", sm.serialize_labels(result.labels) + "\n")
    put("raw_model.json", sm.serialize_model(result.raw_model) + "\n")
    put("final_model.json", sm.serialize_model(result.final_model) + "\n")
    lines = []
    for stage, exchange in result.transcripts.items():
        lines.append(
            json.dumps(
                {
                    "source_id": sid,
                    "stage": stage,
                    "system_sha256": hashlib.sha256(encode_text(exchange.system)).hexdigest(),
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
    put("transcript.jsonl", "\n".join(lines) + "\n")
    if result.notes:
        put("notes.txt", "\n".join(result.notes) + "\n")


def _write_report_csv(report: ev.EvalReport, path: Path) -> None:
    fields = [f.name for f in dataclasses.fields(ev.ScoreRow)]
    specs = {"precision": ".6f", "recall": ".6f", "latency_ms": ".3f"}
    rows = ([format(getattr(row, name), specs.get(name, "")) for name in fields] for row in report.rows)
    _write_csv(path, fields, rows)


def _dataset_label(sources_dir: Path) -> str:
    # Dataset layouts are <dataset>/sources; fall back to the dir name itself.
    if sources_dir.name == "sources" and sources_dir.parent.name:
        return sources_dir.parent.name
    return sources_dir.name


def _write_aggregate(report: ev.EvalReport, config: ExperimentConfig, path: Path) -> None:
    doc = {
        "dataset": _dataset_label(config.sources_dir),
        "model": config.provider.get("model_name", config.provider.get("kind", "mock")),
        "shot": str(config.shot),
        "random_state": config.random_state,
        "mode": report.mode,
        "steps": {
            step: {"precision": precision, "recall": recall}
            for step, (precision, recall) in report.aggregates.items()
        },
        "failed_sources": sorted({row.source_id for row in report.rows if row.error}),
    }
    _write(path, json.dumps(doc, indent=2) + "\n")


def _write_depth_buckets(report: ev.EvalReport, path: Path) -> None:
    rows = []
    for step in ev.STEPS:
        step_rows = [r for r in report.rows if r.step == step]
        buckets = ev.bucket_by_depth(step_rows)
        counts: dict[int, int] = {}
        for row in step_rows:
            counts[row.depth] = counts.get(row.depth, 0) + 1
        for depth_value, (precision, recall) in buckets.items():
            rows.append([step, depth_value, counts.get(depth_value, 0), f"{precision:.6f}", f"{recall:.6f}"])
    _write_csv(path, ["step", "depth", "sources", "mean_precision", "mean_recall"], rows)
