"""Semantic modeling of structured data sources against a domain ontology.

Tables and an ontology are serialized into an in-context system prompt; a
two-stage chain asks an LLM first for semantic labels and then for the full
semantic graph, which is pruned of nodes that connect to no table attribute.
Predictions are scored against gold models with precision/recall over triple
sets, and an experiment harness drives reproducible splits and shot settings.
"""

__version__ = "0.1.0"

from . import errors
from .chain import ChainConfig, ChainResult, run_chain
from .evaluation import (
    LABELING,
    MODELING,
    EvalReport,
    ScoreRow,
    bucket_by_depth,
    build_report,
    match_triples,
    score,
    score_detail,
)
from .harness import (
    Experiment,
    ExperimentConfig,
    Split,
    load_gold_models,
    load_tables,
    prepare_experiment,
    read_model_file,
    read_table,
    run_ablation,
    run_experiment,
    shot_count,
    split_dataset,
    write_source_artifacts,
)
from .ingest import (
    DEFAULT_RECORD_CAP,
    EMPTY,
    SerializedTable,
    SourceFormat,
    Table,
    parse_source,
    serialize_table,
)
from .llm import (
    ChatExchange,
    Completion,
    CorruptionSpec,
    HttpProvider,
    Message,
    MockProvider,
    MockScript,
    Provider,
    ProviderConfig,
    RateLimiter,
    TokenUsage,
    extract_tagged_json,
)
from .ontology import (
    Ontology,
    PotentialTriple,
    parse_ontology,
    serialize_ontology,
    triple_is_legal,
)
from .prompting import (
    PromptTemplate,
    build_chain1_prompt,
    build_chain2_prompt,
    build_combined_prompt,
    build_system_prompt,
    load_rules,
)
from .semantic_model import (
    ClassInstance,
    InternalLinkTriple,
    LintDiagnostic,
    LintReport,
    SemanticModel,
    SemanticTriple,
    depth,
    lint_gold,
    model_doc,
    parse_labels,
    parse_model,
    prune,
    read_model,
    serialize_labels,
    serialize_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
